import dataclasses
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import twophase
import twophase.cli
import twophase.report
from twophase.cli import main as cli_main
from twophase.errors import ConfigurationError, ValidationError
from twophase.evolution import evolve
from twophase.operators import StateVector, assemble
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


def demo_doc(T):
    # the README demo, run for T
    return {
        "name": "demo",
        "domain": {"kind": "truncated_infinite", "smax": 30.0, "n": 600},
        "coefficients": {
            "gamma1": 1.0, "gamma2": 1.0, "mu": 1.0,
            "c1": {"form": "expression", "name": "indicator",
                   "lo": 0.5, "hi": 1.0},
            "c2": {"form": "expression", "name": "exp_decay"},
            "gamma0": 1.0},
        "kernel": {"form": "indicator", "s_lo": 0.0, "s_hi": 1.0},
        "run": {"dt": 1e-3, "T": T, "record_every": 100},
        "spectral": {"tol": 1e-10, "smax_list": [10, 20, 30],
                     "probe_lambdas": [-0.5, 0.5]}}


def asdict_jsonable(obj):
    # the serializer as it was, through dataclasses.asdict (deep copies)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, StateVector):
        return {"u1": obj.u1.tolist(), "u2": obj.u2.tolist()}
    if dataclasses.is_dataclass(obj):
        return {k: asdict_jsonable(v)
                for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): asdict_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [asdict_jsonable(v) for v in obj]
    return str(obj)


class TestReportJSON:
    def test_text_equals_asdict_serialization(self, tmp_path, monkeypatch):
        rep = twophase.report.run(scenario_from_dict(demo_doc(T=0.5)),
                                  out_dir=str(tmp_path))
        text = twophase.report.report_to_json(rep)
        monkeypatch.setattr(twophase.report, "_jsonable", asdict_jsonable)
        assert twophase.report.report_to_json(rep) == text
        spectral = json.loads(text)["spectral"]
        assert spectral["eigfun"]["grid"]["n"] == 600
        assert spectral["s_A_route"] == "characteristic"
        lo, hi = spectral["s_A_bracket"]
        assert lo <= spectral["s_A"] <= hi

    def test_trajectory_csv_equals_numpy_scalar_formatting(self, tmp_path):
        # the writer formats Python floats; numpy scalars give the same text
        scn = scenario_from_dict(demo_doc(T=0.5))
        gen = assemble(scn.params, scn.kernel, scn.grid)
        traj = evolve(gen, scn.initial_state(), scn.dt, scn.T)
        rows = ["t,mass_total,mass_u1,mass_u2"]
        for t, m, (m1, m2) in zip(traj.step_times, traj.step_masses,
                                  traj.step_phase_masses):
            rows.append(f"{t:.12g},{m:.12g},{m1:.12g},{m2:.12g}")
        path = tmp_path / "demo_trajectory.csv"
        twophase.report.write_trajectory_csv(str(path), traj)
        assert path.read_text() == "\n".join(rows) + "\n"


    def test_non_finite_values_read_null(self):
        # NaN and infinite floats, numpy scalars and array entries, in
        # every part of the report, including the echo and the timings
        rep = twophase.report.RunReport(
            scenario_name="x", scenario_echo={"a": [float("nan"), 1.0]},
            timings={"t": float("inf")},
            checks=[{"predicted": np.float64("nan"), "ratios": [np.inf],
                     "norms": np.array([[1.0, np.nan]]),
                     "count": np.array([2])}])
        doc = strict_json(twophase.report.report_to_json(rep))
        assert doc["scenario_echo"] == {"a": [None, 1.0]}
        assert doc["timings"] == {"t": None}
        assert doc["checks"] == [{"predicted": None, "ratios": [None],
                                  "norms": [[1.0, None]], "count": [2]}]


def strict_json(text):
    # a parser that rejects NaN and Infinity, as jq and JavaScript do
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(text, parse_constant=reject)


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

    @staticmethod
    def checks_of(tmp_path, doc) -> dict:
        out = tmp_path / "o"
        assert run_cli(["report", write(tmp_path, doc), "--out",
                        str(out)]) == 0
        d = json.loads((out / f"{doc['name']}_report.json").read_text())
        for c in d["checks"]:
            assert c["status"] in ("pass", "fail", "n/a") and "tol" in c
            assert ("reason" in c) == (c["status"] == "n/a")
        return {c["check"]: c for c in d["checks"]}

    def test_demo_like_growth_checks_are_pre_asymptotic(self, tmp_path):
        # the README demo on a coarse mesh: over T = 8 no mass reaches
        # smax = 30, so the fitted rate is that of a conserved mass and
        # cannot judge s_A; the neutral mass identity holds to roundoff
        doc = demo_doc(T=8.0)
        doc["domain"]["n"] = 60
        doc["run"].update(dt=1e-2, record_every=10)
        checks = self.checks_of(tmp_path, doc)
        for name in ("growth_rate_two_routes", "vanishing_growth_rate"):
            c = checks[name]
            assert c["measured"] == 0.0 and c["tol"] == 1e-2
            assert c["status"] == "n/a"
            assert c["reason"].startswith("pre-asymptotic")
        assert checks["growth_rate_two_routes"]["predicted"] < -0.1
        mass = checks["mass_conservation_class"]
        assert mass["predicted"] == "neutral" and mass["status"] == "pass"
        assert mass["measured"] <= mass["tol"] == 1e-10
        assert checks["irreducibility_support_conditions"]["status"] == "n/a"

    @pytest.mark.parametrize("T, status", [(10.0, "pass"), (1.0, "fail")])
    def test_growth_rate_check_pass_and_fail(self, tmp_path, T, status):
        # on [0, 1] the mass leaves through s = 1 from the start; the fit
        # over [T/2, T] matches s_A to 1e-8 at T = 10, and is off by 1.1
        # at T = 1, before the profile has settled
        doc = minimal_doc(run={"dt": 1e-2, "T": T, "record_every": 10})
        checks = self.checks_of(tmp_path, doc)
        c = checks["growth_rate_two_routes"]
        assert c["tol"] == pytest.approx(1e-2 * abs(c["predicted"]))
        assert c["status"] == status
        assert (abs(c["measured"] - c["predicted"]) <= c["tol"]) \
            == (status == "pass")
        assert checks["spectral_gap_presence"]["status"] == "pass"
        assert checks["mass_conservation_class"]["reason"].startswith(
            "boundary outflow")

    @pytest.mark.parametrize("kernel, predicted", [
        ({"form": "indicator", "relation": "s>y"}, "empty_spectrum"),
        ({"form": "constant", "value": 1.0}, "irreducible_gap_aeg")],
        ids=["growth_only", "constant"])
    def test_finite_gap_checks_measure_s_A(self, tmp_path, kernel,
                                           predicted):
        # the growth-only scenario of the benchmark at its reduced size,
        # and the same with a constant kernel; s_B lies below the
        # mesh-artifact level on both, s_A only without mixing
        doc = {"name": "growth",
               "domain": {"kind": "finite", "m": 1.0, "n": 100},
               "coefficients": {"gamma1": 1.0, "gamma2": 1.0, "mu": 1.0,
                                "c1": 1.0, "c2": 1.0},
               "kernel": kernel}
        out = tmp_path / "o"
        assert run_cli(["spectrum", write(tmp_path, doc), "--out",
                        str(out)]) == 0
        d = json.loads((out / "growth_report.json").read_text())
        assert d["verdict"]["predicted"] == predicted
        assert d["spectral"]["s_B_divergent"] is True
        empty = predicted == "empty_spectrum"
        assert d["spectral"]["s_A_divergent"] is empty
        checks = {c["check"]: c for c in d["checks"]}
        gap = checks["spectral_gap_presence"]
        assert gap["predicted"] is gap["measured"] is not empty
        assert gap["status"] == "pass"
        if empty:
            c = checks["empty_spectrum_refinement_divergence"]
            assert c["measured"] is True and c["status"] == "pass"

    def test_graded_growth_only_report(self, tmp_path):
        # rates graded over [0, 1] and a non-mixing kernel: the
        # eigenvector spans more than the float range, and the report
        # holds a finite eigenfunction of mass 1
        def linear(intercept, slope=1.0):
            return {"form": "expression", "name": "linear",
                    "intercept": intercept, "slope": slope}
        doc = {"name": "graded",
               "domain": {"kind": "finite", "m": 1.0, "n": 800},
               "coefficients": {"gamma1": linear(1.0, 0.5),
                                "gamma2": linear(1.2), "mu": linear(1.0),
                                "c1": linear(0.5), "c2": linear(2.0, -1.0),
                                "gamma0": 1.0},
               "kernel": {"form": "indicator", "relation": "s>y"},
               "run": {"dt": 1e-3, "T": 0.01}}
        out = tmp_path / "o"
        assert run_cli(["report", write(tmp_path, doc), "--out",
                        str(out)]) == 0
        d = strict_json((out / "graded_report.json").read_text())
        eig = d["spectral"]["eigfun"]
        u = np.array([eig["u1"], eig["u2"]], dtype=float)
        assert np.isfinite(u).all() and u.min() >= 0
        assert u.sum() / 800 == pytest.approx(1.0, rel=1e-12)
        assert d["spectral"]["s_A_route"] == "exact"

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

    @pytest.mark.parametrize("command", ["simulate", "report"])
    def test_short_last_record_stride_accepted(self, tmp_path, command):
        # 100 steps recorded every 30 end with a 10-step stride
        doc = minimal_doc(run={"dt": 1e-2, "T": 1.0, "record_every": 30})
        path = write(tmp_path, doc)
        out = tmp_path / "o"
        assert run_cli([command, path, "--out", str(out)]) == 0
        d = json.loads((out / "minimal_report.json").read_text())
        assert d["complete"]
        assert len(d["mass_balance"]["drift"]) == 4

    def test_sweep_row_count(self, tmp_path):
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

    def test_shift0_below_bound_exit_2(self, tmp_path):
        doc = minimal_doc(spectral={"shift0": -5.0})
        out = tmp_path / "o"
        assert run_cli(["spectrum", write(tmp_path, doc),
                        "--out", str(out)]) == 2
        d = json.loads((out / "minimal_report.json").read_text())
        assert not d["complete"]
        assert "shift0" in d["error"]

    @pytest.mark.parametrize("command, stage", [
        ("criteria", "full_verdict"), ("spectrum", "spectral_bound"),
        ("report", "evolve")])
    def test_memory_error_in_stage_exit_3(self, tmp_path, monkeypatch,
                                          command, stage, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 19.5 GiB")
        monkeypatch.setattr(twophase.report, stage, exhausted)
        doc = minimal_doc(run={"dt": 1e-2, "T": 1.0, "record_every": 10})
        out = tmp_path / "o"
        assert run_cli([command, write(tmp_path, doc), "--out", str(out)]) == 3
        d = json.loads((out / "minimal_report.json").read_text())
        assert not d["complete"]
        assert d["error"] == "out of memory: Unable to allocate 19.5 GiB"
        assert "out of memory" in capsys.readouterr().err

    def test_memory_error_in_sweep_exit_3(self, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError()
        monkeypatch.setattr(twophase.cli, "compute_spectrum", exhausted)
        out = tmp_path / "o"
        assert run_cli(["sweep", write(tmp_path, minimal_doc()), "--out",
                        str(out), "--vary", "kernel.value", "0:1:0.5"]) == 3
        lines = (out / "minimal_sweep.csv").read_text().splitlines()
        assert lines[1:] == ["0,,,,", "0.5,,,,", "1,,,,"]

    @pytest.mark.parametrize("rng", ["0:nan:0.5", "0:inf:0.5", "nan:1:0.5",
                                     "0:1:inf", "1:0:0.5", "0:1:0"])
    def test_sweep_bad_range_exit_2(self, tmp_path, capsys, rng):
        out = tmp_path / "o"
        assert run_cli(["sweep", write(tmp_path, minimal_doc()), "--out",
                        str(out), "--vary", "kernel.value", rng]) == 2
        assert "range must be finite and increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_through_scalar_exit_2(self, tmp_path, capsys):
        # mu is a number: the path fails once, before any point runs
        out = tmp_path / "o"
        assert run_cli(["sweep", write(tmp_path, minimal_doc()), "--out",
                        str(out), "--vary", "coefficients.mu.value",
                        "0.5:1.0:0.5"]) == 2
        err = capsys.readouterr().err
        assert err == ("configuration error: coefficients.mu.value: 'mu' "
                       "is not a mapping in the scenario\n")
        assert not out.exists()

    def test_sweep_keeps_finished_points(self, tmp_path, capsys):
        # gamma0 = 1.5 lies above the growth rates: that point fails, and
        # the points before it keep their rows
        doc = {"name": "probe_sweep",
               "domain": {"kind": "truncated_infinite", "smax": 40.0,
                          "n": 80},
               "coefficients": {"gamma1": 1.0, "gamma2": 1.0, "mu": 1.0,
                                "c1": 1.0, "c2": 1.0},
               "kernel": {"form": "indicator", "value": 2.0,
                          "s_lo": 0.0, "s_hi": 1.0},
               "spectral": {"smax_list": [10, 20, 40],
                            "probe_lambdas": [-0.5, 0.5]}}
        path = write(tmp_path, doc)
        clean, out = tmp_path / "clean", tmp_path / "o"
        assert run_cli(["sweep", path, "--out", str(clean), "--vary",
                        "coefficients.gamma0", "0.5:1.0:0.5"]) == 0
        capsys.readouterr()
        assert run_cli(["sweep", path, "--out", str(out), "--vary",
                        "coefficients.gamma0", "0.5:1.5:0.5"]) == 2
        err = capsys.readouterr().err
        assert "point coefficients.gamma0=1.5: " in err
        assert "gamma1 drops below gamma0=1.5" in err
        lines = (out / "probe_sweep_sweep.csv").read_text().splitlines()
        expected = (clean / "probe_sweep_sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3
        assert lines[:3] == expected
        assert lines[3] == "1.5,,,,"

    @pytest.mark.parametrize("section, key, value, field", [
        ("run", "dt", float("nan"), "run.dt"),
        ("run", "dt", "abc", "run.dt"),
        ("run", "T", float("inf"), "run.T"),
        ("run", "T", None, "run.T"),
        ("run", "record_every", "x", "run.record_every"),
        ("domain", "n", float("nan"), "domain.n"),
        ("domain", "n", "abc", "domain.n"),
        ("domain", "n", 60.7, "domain.n"),
        ("spectral", "tol", "x", "spectral.tol"),
        ("spectral", "tol", float("nan"), "spectral.tol"),
        ("spectral", "probe_lambdas", "x", "spectral.probe_lambdas"),
        ("spectral", "probe_lambdas", [-0.5, float("nan")],
         "spectral.probe_lambdas[1]"),
        ("coefficients", "mu", {"form": "constant", "value": "abc"},
         "coefficients"),
        ("kernel", "value", "x", "kernel"),
        ("domain", "smax", "abc", "domain.smax"),
        ("coefficients", "gamma0", float("nan"), "coefficients.gamma0"),
        ("run", "u0", 5, "run.u0"),
        ("run", "u0", {"u1": {"form": "constant", "value": "abc"}},
         "run.u0")])
    def test_malformed_number_exit_2(self, tmp_path, capsys, section, key,
                                     value, field):
        doc = demo_doc(8.0)
        doc["domain"]["n"] = 60
        doc[section][key] = value
        assert run_cli(["report", write(tmp_path, doc),
                        "--out", str(tmp_path / "o")]) == 2
        assert f"configuration error: {field}" in capsys.readouterr().err

    def test_dt_flag_nan_exit_2(self, tmp_path, capsys):
        assert run_cli(["report", write(tmp_path, minimal_doc()),
                        "--out", str(tmp_path / "o"), "--dt", "nan"]) == 2
        assert "run.dt" in capsys.readouterr().err

    def test_integral_float_cell_count_accepted(self):
        doc = minimal_doc()
        doc["domain"]["n"] = 60.0
        assert scenario_from_dict(doc).grid.n == 60

    def test_import_and_growth_only_spectrum_leave_scipy_unimported(
            self, tmp_path):
        # scipy is imported only to factor: neither the import (which
        # also leaves secrets and the thread pool unloaded, as does a
        # sweep), nor the exact-route eigensolve of a non-mixing kernel,
        # nor a sweep or a spectrum on the characteristic route of a
        # rank-1 kernel loads it
        doc = {"name": "growth",
               "domain": {"kind": "finite", "m": 1.0, "n": 800},
               "coefficients": {"gamma1": 1.0, "gamma2": 1.0, "mu": 1.0,
                                "c1": 1.0, "c2": 1.0},
               "kernel": {"form": "indicator", "relation": "s>y"}}
        box = {"name": "box",
               "domain": {"kind": "truncated_infinite", "smax": 40.0,
                          "n": 200},
               "coefficients": {"gamma1": 1.0, "gamma2": 1.0, "mu": 1.0,
                                "c1": 1.0, "c2": 1.0},
               "kernel": {"form": "indicator", "value": 2.0, "s_hi": 1.0},
               "spectral": {"smax_list": [10, 20, 40],
                            "probe_lambdas": [-0.5, 0.5]}}
        constant = minimal_doc(name="constant")
        code = (
            "import sys\n"
            "import twophase\n"
            "loaded = lambda: sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'scipy')\n"
            "assert not loaded(), loaded()\n"
            "from twophase.cli import main\n"
            "assert 'secrets' not in sys.modules\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "growth, box, constant, out = sys.argv[1:]\n"
            "assert main(['spectrum', growth, '--out', out]) == 0\n"
            "assert not loaded(), loaded()\n"
            "assert main(['sweep', box, '--out', out, '--vary', "
            "'coefficients.mu', '0.5:1.0:0.25']) == 0\n"
            "assert not loaded(), loaded()\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert main(['spectrum', constant, '--out', out]) == 0\n"
            "assert not loaded(), loaded()\n")
        src = os.path.dirname(os.path.dirname(twophase.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, write(tmp_path, doc),
             write(tmp_path, box, "box.json"),
             write(tmp_path, constant, "constant.json"),
             str(tmp_path / "o")], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        for name in ("growth_report.json", "box_sweep.csv",
                     "constant_report.json"):
            assert (tmp_path / "o" / name).exists()

    def test_simulate_and_report_on_rank_one_kernel_load_only_fblas(
            self, tmp_path):
        # the implicit steps of a rank-1 kernel take the banded factor:
        # of scipy.linalg and scipy.sparse they load only the compiled
        # BLAS extension, never either package
        doc = minimal_doc(name="rank1",
                          run={"dt": 1e-2, "T": 1.0, "record_every": 10})
        code = (
            "import sys\n"
            "from twophase.cli import main\n"
            "scn, out = sys.argv[1:]\n"
            "assert main(['simulate', scn, '--out', out]) == 0\n"
            "assert main(['report', scn, '--out', out]) == 0\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith(('scipy.linalg', 'scipy.sparse')))\n"
            "assert loaded == ['scipy.linalg._fblas'], loaded\n")
        src = os.path.dirname(os.path.dirname(twophase.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, write(tmp_path, doc),
             str(tmp_path / "o")], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        for name in ("rank1_trajectory.csv", "rank1_report.json"):
            assert (tmp_path / "o" / name).exists()

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
