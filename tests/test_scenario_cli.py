import json
import os
import stat
import subprocess
import sys

import pytest

import twophase
from twophase.cli import main as cli_main
from twophase.errors import ConfigurationError, ValidationError
from twophase.report import atomic_write_text
from twophase.scenario import parse_scenario, scenario_from_dict


def minimal_doc(**over):
    doc = {
        "name": "minimal",
        "domain": {"kind": "finite", "m": 1.0, "n": 50},
        "coefficients": {"gamma1": 1.0, "gamma2": 1.0, "mu": 1.0,
                         "c1": 1.0, "c2": 1.0, "gamma0": 1.0},
        "kernel": {"form": "constant", "value": 1.0},
    }
    doc.update(over)
    return doc


def write(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseScenario:
    def test_minimal_defaults(self, tmp_path):
        scn = parse_scenario(write(tmp_path, minimal_doc()))
        assert scn.dt == pytest.approx(1e-3)
        assert scn.T == pytest.approx(10.0)
        assert scn.grid.n == 50

    def test_negative_mu_names_field(self, tmp_path):
        doc = minimal_doc()
        doc["coefficients"]["mu"] = -1.0
        with pytest.raises(ValidationError) as ei:
            parse_scenario(write(tmp_path, doc))
        assert "coefficients.mu" in str(ei.value)

    def test_truncated_requires_smax(self, tmp_path):
        doc = minimal_doc()
        doc["domain"] = {"kind": "truncated_infinite", "n": 50}
        with pytest.raises(ValidationError) as ei:
            parse_scenario(write(tmp_path, doc))
        assert "smax" in str(ei.value)

    def test_unknown_keys_fatal(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict(minimal_doc(extra=1))
        doc = minimal_doc()
        doc["coefficients"]["mystery_rate"] = 1.0
        with pytest.raises(ConfigurationError):
            scenario_from_dict(doc)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json }")
        with pytest.raises(ConfigurationError) as ei:
            parse_scenario(str(path))
        assert "line" in str(ei.value)

    def test_default_initial_state(self):
        scn = scenario_from_dict(minimal_doc())
        U = scn.initial_state()
        assert U.mass == pytest.approx(1.0)
        assert U.u2.max() == 0.0
        q = scn.grid.length / 4
        assert U.u1[scn.grid.centers > q].max() == 0.0


def run_cli(args):
    return cli_main(args)


class TestCLI:
    def test_report_success_and_determinism(self, tmp_path):
        doc = minimal_doc(run={"dt": 1e-2, "T": 1.0, "record_every": 10})
        path = write(tmp_path, doc)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert run_cli(["report", path, "--out", str(out1)]) == 0
        assert run_cli(["report", path, "--out", str(out2)]) == 0
        d1 = json.loads((out1 / "minimal_report.json").read_text())
        d2 = json.loads((out2 / "minimal_report.json").read_text())
        d1.pop("timings")
        d2.pop("timings")
        d1["trajectory_files"] = d2["trajectory_files"] = None
        assert d1 == d2
        assert d1["complete"]
        assert (out1 / "minimal_trajectory.csv").read_text().splitlines()[0] \
            == "t,mass_total,mass_u1,mass_u2"
        assert (out1 / "minimal_profile.csv").read_text().splitlines()[0] \
            == "s,u1,u2"

    def test_every_check_has_predicted_entry(self, tmp_path):
        doc = minimal_doc(run={"dt": 1e-2, "T": 1.0, "record_every": 10})
        path = write(tmp_path, doc)
        out = tmp_path / "o"
        assert run_cli(["report", path, "--out", str(out)]) == 0
        d = json.loads((out / "minimal_report.json").read_text())
        assert d["checks"]
        for c in d["checks"]:
            assert "check" in c and "predicted" in c and "measured" in c

    def test_criteria_stage_isolation(self, tmp_path):
        path = write(tmp_path, minimal_doc())
        out = tmp_path / "o"
        assert run_cli(["criteria", path, "--out", str(out)]) == 0
        d = json.loads((out / "minimal_report.json").read_text())
        assert d["verdict"] is not None
        assert d["spectral"] is None
        assert not (out / "minimal_trajectory.csv").exists()

    def test_config_error_exit_2(self, tmp_path):
        doc = minimal_doc()
        doc["coefficients"]["mu"] = -1.0
        assert run_cli(["criteria", write(tmp_path, doc)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run_cli(["criteria", str(tmp_path / "nope.json")]) == 2

    def test_overrides(self, tmp_path):
        path = write(tmp_path, minimal_doc())
        out = tmp_path / "o"
        assert run_cli(["criteria", path, "--out", str(out), "--n", "64"]) == 0
        d = json.loads((out / "minimal_report.json").read_text())
        assert d["scenario_echo"]["domain"]["n"] == 64

    def test_T_zero_report_complete(self, tmp_path):
        doc = minimal_doc(run={"dt": 1e-2, "T": 0.0, "record_every": 1})
        path = write(tmp_path, doc)
        out = tmp_path / "o"
        assert run_cli(["report", path, "--out", str(out)]) == 0
        d = json.loads((out / "minimal_report.json").read_text())
        assert d["complete"]
        assert d["spectral"]["aeg_fit"] is None

    def test_sweep_row_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TWOPHASE_THREADS", "2")
        doc = minimal_doc()
        doc["domain"]["n"] = 30
        path = write(tmp_path, doc)
        out = tmp_path / "o"
        assert run_cli(["sweep", path, "--out", str(out),
                        "--vary", "kernel.value", "0:2:0.25"]) == 0
        lines = (out / "minimal_sweep.csv").read_text().splitlines()
        assert lines[0].startswith("kernel.value,s_A,")
        assert len(lines) == 1 + 9

    def test_nameless_scenario_outputs_named_after_file(self, tmp_path):
        doc = minimal_doc()
        del doc["name"]
        doc["domain"]["n"] = 30
        path = write(tmp_path, doc, name="plain.json")
        out = tmp_path / "o"
        assert run_cli(["criteria", path, "--out", str(out), "--n", "40"]) == 0
        d = json.loads((out / "plain_report.json").read_text())
        assert d["scenario"] == "plain"
        assert d["scenario_echo"]["domain"]["n"] == 40
        assert run_cli(["sweep", path, "--out", str(out),
                        "--vary", "kernel.value", "1:2:1"]) == 0
        assert (out / "plain_sweep.csv").exists()

    def test_malformed_descriptors_exit_2(self, tmp_path):
        table = {"form": "table", "s": [0.0, 0.5], "values": [1.0, 2.0]}
        for section, key, spec in (
                ("coefficients", "mu", table),
                ("coefficients", "c1", {"form": "constant"}),
                ("kernel", None, {"form": "table"}),
                ("kernel", None, {"form": "product"}),
                ("outputs", "formats", ["csv"])):
            doc = minimal_doc()
            if key is None:
                doc[section] = spec
            else:
                doc.setdefault(section, {})[key] = spec
            assert run_cli(["criteria", write(tmp_path, doc)]) == 2, spec

    def test_probe_without_source_cell_exit_2(self, tmp_path):
        # h = 2.5: no cell center lies in the probe source [0, 1]
        doc = minimal_doc(
            domain={"kind": "truncated_infinite", "smax": 10.0, "n": 4},
            spectral={"smax_list": [5, 10], "probe_lambdas": [0.5]})
        doc["coefficients"].update(c1=0.5, c2=0.5)
        out = tmp_path / "o"
        assert run_cli(["spectrum", write(tmp_path, doc),
                        "--out", str(out)]) == 2
        d = json.loads((out / "minimal_report.json").read_text())
        assert not d["complete"]
        assert "source interval" in d["error"]

    def test_artifacts_honour_umask(self, tmp_path):
        path = tmp_path / "o" / "a.txt"
        old = os.umask(0o022)
        try:
            atomic_write_text(str(path), "x\n")
        finally:
            os.umask(old)
        assert path.read_text() == "x\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert os.listdir(path.parent) == ["a.txt"]

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as ei:
            cli_main(["frobnicate", "x.json"])
        assert ei.value.code != 0

    def test_console_script_entry_point(self, tmp_path):
        path = write(tmp_path, minimal_doc())
        out = tmp_path / "o"
        # the child imports the same package as this process, installed
        # or from a source checkout
        src = os.path.dirname(os.path.dirname(twophase.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "twophase.cli", "criteria", path,
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
