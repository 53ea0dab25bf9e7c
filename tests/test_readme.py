"""The README's examples run as written."""

import json
import os
import re

from twophase.cli import main as cli_main

from test_scenario_cli import strict_json

README = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "README.md")


def code_block(lang):
    with open(README) as f:
        blocks = re.findall(rf"```{lang}\n(.*?)```", f.read(), re.S)
    assert len(blocks) == 1, f"expected one {lang} block in the README"
    return blocks[0]


def test_scenario_block_reports(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(code_block("json"))
    name = json.loads(path.read_text())["name"]
    assert cli_main(["report", str(path), "--n", "60", "--dt", "0.01",
                     "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / f"{name}_report.json").read_text())[
        "complete"]


def test_simulate_report_is_strict_json(tmp_path):
    # the simulate stage alone writes no spectral record, and has no s_A
    # to predict the growth rate with, nor an eigenfunction to measure
    # the profile's residual against: all read null
    path = tmp_path / "demo.json"
    path.write_text(code_block("json"))
    name = json.loads(path.read_text())["name"]
    assert cli_main(["simulate", str(path), "--n", "60", "--dt", "0.01",
                     "--out", str(tmp_path)]) == 0
    doc = strict_json((tmp_path / f"{name}_report.json").read_text())
    assert doc["spectral"] is None
    assert doc["simulate"]["aeg_fit"]["residual"] is None
    check, = doc["checks"]
    assert check["check"] == "growth_rate_two_routes"
    assert check["predicted"] is None and check["status"] == "n/a"


def test_library_block_runs():
    exec(compile(code_block("python"), "README.md", "exec"), {})
