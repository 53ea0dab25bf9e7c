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
        # a misspelt key inside a descriptor would take its default
        doc = minimal_doc(kernel={"form": "indicator", "s_low": 0.5})
        with pytest.raises(ConfigurationError, match="s_low"):
            scenario_from_dict(doc)
        doc = minimal_doc()
        doc["coefficients"]["c1"] = {"form": "expression",
                                     "name": "indicator", "low": 0.5}
        with pytest.raises(ConfigurationError, match="low"):
            scenario_from_dict(doc)
        with pytest.raises(ConfigurationError, match="scale"):
            scenario_from_dict(minimal_doc(run={"u0": {
                "u1": {"form": "constant", "value": 1.0, "scale": 2.0}}}))
        with pytest.raises(ConfigurationError, match="shift0"):
            scenario_from_dict(minimal_doc(spectral={"shift0": 5.0}))

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

    def test_profile_csv_equals_numpy_scalar_formatting(self, tmp_path):
        # the profile writer formats Python floats too, to the same text
        scn = scenario_from_dict(demo_doc(T=0.5))
        gen = assemble(scn.params, scn.kernel, scn.grid)
        traj = evolve(gen, scn.initial_state(), scn.dt, scn.T)
        U = StateVector.from_stacked(traj.records[-1], scn.grid)
        rows = ["s,u1,u2"]
        for s, a, b in zip(scn.grid.centers, U.u1, U.u2):
            rows.append(f"{s:.12g},{a:.12g},{b:.12g}")
        path = tmp_path / "demo_profile.csv"
        twophase.report.write_profile_csv(str(path), traj)
        assert path.read_text() == "\n".join(rows) + "\n"


    def test_non_finite_values_read_null(self):
        # NaN and infinite floats, numpy scalars and array entries, in
        # every part of the report, including the echo and the timings
        rep = twophase.report.RunReport(
            scenario="x", scenario_echo={"a": [float("nan"), 1.0]},
            timings={"t": float("inf")},
            checks=[{"predicted": np.float64("nan"), "ratios": [np.inf],
                     "norms": np.array([[1.0, np.nan]]),
                     "count": np.array([2])}])
        doc = strict_json(twophase.report.report_to_json(rep))
        assert doc["scenario_echo"] == {"a": [None, 1.0]}
        assert doc["timings"] == {"t": None}
        assert doc["checks"] == [{"predicted": None, "ratios": [None],
                                  "norms": [[1.0, None]], "count": [2]}]

    def test_peak_rss_reads_null_without_resource(self, monkeypatch):
        # the report holds the process's peak RSS where the platform has
        # the resource module, and null elsewhere
        rep = twophase.report.RunReport(scenario="x", scenario_echo={})
        doc = strict_json(twophase.report.report_to_json(rep))
        assert isinstance(doc["peak_rss_kb"], int) and doc["peak_rss_kb"] > 0
        monkeypatch.setitem(sys.modules, "resource", None)
        doc = strict_json(twophase.report.report_to_json(rep))
        assert doc["peak_rss_kb"] is None

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KB")
    def test_peak_rss_holds_the_serialisation(self, tmp_path):
        # the peak is read once the rest of the report is serialised, so
        # it holds the JSON's transient (about 6 MB for the eigenfunction
        # at n = 20000): the report's value is at least the process's
        # final peak from wait4, less 1 MB.  A small launcher starts the
        # CLI, which would otherwise inherit this process's high-water
        # mark across exec.
        doc = minimal_doc(name="big",
                          run={"dt": 0.01, "T": 0.01, "record_every": 1})
        doc["domain"]["n"] = 20000
        code = (
            "import json, os, subprocess, sys\n"
            "scn, out = sys.argv[1:]\n"
            "p = subprocess.Popen([sys.executable, '-m', 'twophase.cli', "
            "'report', scn, '--out', out], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(p.pid, 0)\n"
            "print(json.dumps([status, usage.ru_maxrss]))\n")
        src = os.path.dirname(os.path.dirname(twophase.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, write(tmp_path, doc),
             str(tmp_path / "o")], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        status, child_peak = json.loads(proc.stdout)
        assert status == 0
        report = strict_json((tmp_path / "o" / "big_report.json").read_text())
        assert report["peak_rss_kb"] >= child_peak - 1024


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
        for d in (d1, d2):
            d.pop("timings")
            assert d.pop("peak_rss_kb") > 0
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
            "records span several steps")

    @pytest.mark.parametrize("dt, record_every, status", [
        (1e-2, 1, "pass"), (1e-3, 1, "pass"), (1e-2, 10, "n/a")])
    def test_mass_check_judges_runs_that_lose_mass(self, tmp_path, dt,
                                                   record_every, status):
        # the drift adds the exit flux back: with one step per record it
        # is backward Euler's mass identity, 4e-14 on the step loop (dt
        # 1e-2) and 7e-13 on the randomized route (dt 1e-3), where it
        # read about the outflow, up to 1.6; over ten steps per record it
        # holds the quadrature error, 0.22 at dt 1e-2
        doc = minimal_doc(run={"dt": dt, "T": 1.0,
                               "record_every": record_every})
        out = tmp_path / "o"
        assert run_cli(["report", write(tmp_path, doc), "--out",
                        str(out)]) == 0
        d = json.loads((out / "minimal_report.json").read_text())
        assert d["simulate"]["route"] == ("steps" if dt == 1e-2
                                          else "randomized")
        assert max(d["mass_balance"]["outflow"]) > 0.9
        c = {c["check"]: c for c in d["checks"]}["mass_conservation_class"]
        assert c["predicted"] == "neutral" and c["status"] == status
        if status == "pass":
            assert c["measured"] <= 1e-12 <= c["tol"]
        else:
            assert c["measured"] == pytest.approx(0.2224, abs=1e-4)
            assert c["reason"].startswith("records span several steps")

    def test_closed_form_lambda_star_without_gap_bound(self, tmp_path):
        # constant c2 on an unbounded domain gives the closed-form s_B as
        # lambda*; a mu that is not constant leaves no gap bound
        doc = minimal_doc(
            domain={"kind": "truncated_infinite", "smax": 20.0, "n": 200},
            kernel={"form": "indicator", "s_lo": 0.0, "s_hi": 1.0})
        doc["coefficients"]["mu"] = {"form": "table",
                                     "points": [[0.0, 2.0], [5.0, 1.0]]}
        out = tmp_path / "o"
        assert run_cli(["spectrum", write(tmp_path, doc), "--out",
                        str(out)]) == 0
        sp = json.loads((out / "minimal_report.json").read_text())["spectral"]
        assert sp["lambda_star"] == -0.38196601125010515
        assert sp["eps_bar"] is None and sp["Delta"] is None
        assert sp["gap"] == pytest.approx(0.1045239715648617, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_finite_s_B_is_divergent_without_rates(self, tmp_path, mu):
        # with mu = c1 = c2 = 0 the mesh's s_B sits at -gamma0/h, but on
        # [0, m] the recruitment-free spectrum is empty all the same
        doc = minimal_doc(coefficients={"gamma1": 1.0, "gamma2": 1.0,
                                        "mu": mu, "c1": 0.0, "c2": 0.0})
        out = tmp_path / "o"
        assert run_cli(["spectrum", write(tmp_path, doc), "--out",
                        str(out)]) == 0
        sp = json.loads((out / "minimal_report.json").read_text())["spectral"]
        assert sp["s_B_divergent"] is True
        assert "s_B_surrogate" not in sp and sp["gap"] is None

    @pytest.mark.parametrize("finite", [True, False])
    def test_simulate_only_report_has_no_spectral_record(self, tmp_path,
                                                          finite):
        # with no spectrum stage the report holds no spectral record: the
        # growth fit is the simulate record's, with no eigenfunction to
        # measure the residual against, and its check predicts nothing
        if finite:
            doc = minimal_doc(kernel={"form": "constant", "value": 2.0},
                              run={"dt": 1e-2, "T": 10.0, "record_every": 10})
        else:
            doc = demo_doc(2.0)
        out = tmp_path / "o"
        assert run_cli(["simulate", write(tmp_path, doc), "--out",
                        str(out)]) == 0
        d = json.loads((out / f"{doc['name']}_report.json").read_text())
        assert d["spectral"] is None
        fit = d["simulate"]["aeg_fit"]
        assert fit["lambda0_fit"] is not None and fit["residual"] is None
        check, = d["checks"]
        assert check == {"check": "growth_rate_two_routes", "predicted": None,
                         "measured": fit["lambda0_fit"], "tol": 1e-2,
                         "status": "n/a", "reason": "spectrum stage not run"}

    def test_report_on_table_kernel_computes_mixing_once(
            self, tmp_path, mixing_computations):
        # the verdict and the generator's block test read one mixes_at
        # (the recruitment-free part's zero kernel takes its own)
        doc = minimal_doc(domain={"kind": "finite", "m": 1.0, "n": 30},
                          kernel={"form": "table",
                                  "values": np.ones((30, 30)).tolist()},
                          run={"dt": 0.01, "T": 0.1})
        scn = scenario_from_dict(doc)
        rep = twophase.report.run(scn, str(tmp_path))
        assert rep.complete and rep.verdict.kernel_mixes_all
        assert rep.spectral.s_A_route == "characteristic"
        assert [k is scn.kernel for k in mixing_computations].count(True) == 1

    def test_spectrum_on_mu_step_table_exit_0(self, tmp_path):
        # a box of 0.01 on [0.5, 1]^2 given as a table, with mortality
        # stepping from 0 to 50 at s = 0.3: the Perron vector vanishes on
        # the cells below 0.5, and the bracket holds the rank-1 root
        centers = (np.arange(60) + 0.5) / 60
        box = 0.01 * np.outer(centers >= 0.5, centers >= 0.5)
        doc = minimal_doc(domain={"kind": "finite", "m": 1.0, "n": 60},
                          kernel={"form": "table", "values": box.tolist()})
        doc["coefficients"]["mu"] = {"form": "table",
                                     "points": [[0.0, 0.0], [0.3, 50.0]]}
        out = tmp_path / "o"
        assert run_cli(["spectrum", write(tmp_path, doc), "--out",
                        str(out)]) == 0
        sp = json.loads((out / "minimal_report.json").read_text())["spectral"]
        assert sp["s_A_route"] == "characteristic"
        lo, hi = sp["s_A_bracket"]
        assert lo <= -29.25155186452381165 <= hi
        assert hi - lo <= 1e-10 * abs(hi)

    def test_rounded_gap_bound_exit_0(self, tmp_path):
        # lambda* + c2 would round below zero as a sum; the bound stays
        # positive, a root of its polynomial
        doc = minimal_doc(
            domain={"kind": "truncated_infinite", "smax": 10.0, "n": 100},
            coefficients={"gamma1": 1.0, "gamma2": 1.0, "mu": 2.5,
                          "c1": 1e-20, "c2": 0.3},
            kernel=0.219999999999998)
        out = tmp_path / "o"
        assert run_cli(["spectrum", write(tmp_path, doc), "--out",
                        str(out)]) == 0
        sp = json.loads((out / "minimal_report.json").read_text())["spectral"]
        eps, lam = sp["eps_bar"], sp["lambda_star"]
        ib1 = 0.219999999999998 * 10.0     # the kernel over [0, smax]
        assert eps > 0
        assert abs(eps * eps + eps * (2 * lam + 1e-20 + 0.3 + 2.5)
                   - (lam + eps + 0.3) * ib1) <= 1e-12

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

    @pytest.mark.parametrize("smax, gap", [(10.0, -0.02706), (40.0, 0.08869)])
    def test_inconclusive_verdict_judges_no_gap(self, tmp_path, smax, gap):
        # kernel 0.3 on offspring in [0, 1] from every parent: the verdict
        # is inconclusive, so the measured gap, whose sign moves with smax,
        # has no prediction to pass or fail
        doc = {"name": "tail",
               "domain": {"kind": "truncated_infinite", "smax": smax,
                          "n": int(round(smax / 0.05))},
               "coefficients": {"gamma1": 1.0, "gamma2": 1.0, "mu": 1.0,
                                "c1": 1.0, "c2": 1.0},
               "kernel": {"form": "indicator", "value": 0.3,
                          "s_lo": 0.0, "s_hi": 1.0}}
        out = tmp_path / "o"
        assert run_cli(["spectrum", write(tmp_path, doc), "--out",
                        str(out)]) == 0
        d = json.loads((out / "tail_report.json").read_text())
        assert d["verdict"]["predicted"] == "inconclusive"
        assert d["spectral"]["gap"] == pytest.approx(gap, abs=1e-5)
        assert d["spectral"]["eps_bar"] == pytest.approx(0.09145, abs=1e-5)
        c = {c["check"]: c for c in d["checks"]}["spectral_gap_presence"]
        assert c["predicted"] is None and c["measured"] is (gap > 0)
        assert c["status"] == "n/a"
        assert c["reason"] == ("inconclusive verdict: the criteria predict "
                               "nothing")

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
        assert d["simulate"]["aeg_fit"] is None

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
                ("kernel", None, {"form": "indicator", "s_low": 0.5}),
                ("coefficients", "c1", {"form": "expression",
                                        "name": "indicator", "low": 0.5}),
                ("outputs", "formats", ["csv"]),
                ("outputs", "directory", 5),
                ("run", "u0", {"normalize": "no"})):
            doc = minimal_doc()
            if key is None:
                doc[section] = spec
            else:
                doc.setdefault(section, {})[key] = spec
            assert run_cli(["criteria", write(tmp_path, doc)]) == 2, spec
        # the initial state is sampled at parse time, as every section
        doc = minimal_doc(run={"u0": {"u2": {"form": "expression",
                                             "name": "linear", "slop": 2.0}}})
        for command in ("criteria", "spectrum", "simulate"):
            assert run_cli([command, write(tmp_path, doc),
                            "--out", str(tmp_path / "o")]) == 2, command

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

    @pytest.mark.parametrize("smax_list", [[10, 10], [20, 20.000000001]])
    def test_probe_with_repeated_truncation_exit_2(self, tmp_path, smax_list):
        # two truncations of one cell count have a norm ratio of exactly
        # 1, which would read as resolvent-bounded at lambda = -0.5 < s_B
        doc = demo_doc(1.0)
        doc["spectral"]["smax_list"] = smax_list
        out = tmp_path / "o"
        assert run_cli(["spectrum", write(tmp_path, doc),
                        "--out", str(out)]) == 2
        d = json.loads((out / "demo_report.json").read_text())
        assert not d["complete"]
        assert "cells" in d["error"]

    @pytest.mark.parametrize("domain, spectral, field", [
        (None, {"probe_lambdas": [-0.5, 0.5]}, "spectral.probe_lambdas"),
        (None, {"smax_list": [10, 20, 30]}, "spectral.smax_list"),
        ({"kind": "finite", "m": 30.0, "n": 600},
         {"smax_list": [10, 20, 30], "probe_lambdas": [-0.5, 0.5]},
         "spectral.smax_list")], ids=["no-smax", "no-lambdas", "finite"])
    def test_probe_key_that_does_nothing_exit_2(self, tmp_path, capsys,
                                                 domain, spectral, field):
        # the probe needs both lists on an unbounded domain; where it
        # cannot run, its keys would do nothing, as an unknown key would
        doc = demo_doc(1.0)
        doc["spectral"] = spectral
        if domain is not None:
            doc["domain"] = domain
        assert run_cli(["spectrum", write(tmp_path, doc),
                        "--out", str(tmp_path / "o")]) == 2
        assert (f"configuration error: {field} does nothing"
                in capsys.readouterr().err)

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

    @pytest.mark.parametrize("section, key, value, command, message", [
        ("run", "dt", 0.0, "report", "dt must be positive"),
        ("run", "T", -1.0, "report", "T must be >= 0"),
        ("run", "record_every", 0, "report", "record_every must be >= 1"),
        ("spectral", "tol", 0.0, "report", "tol must be positive"),
        (None, None, None, "sweep", "range must be a:b:step, got '1:2'")])
    def test_setting_out_of_range_exit_2_writes_nothing(
            self, tmp_path, capsys, section, key, value, command, message):
        doc = minimal_doc(run={"dt": 1e-2, "T": 1.0})
        if section is not None:
            doc.setdefault(section, {})[key] = value
        argv = [command, write(tmp_path, doc), "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--vary", "kernel.value", "1:2"]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_sweep_range_with_too_many_points_exit_2(self, tmp_path, capsys):
        # the points are counted before any is built: 1e300 of them
        # would otherwise fill memory
        out = tmp_path / "o"
        assert run_cli(["sweep", write(tmp_path, minimal_doc()), "--out",
                        str(out), "--vary", "kernel.value", "0:1:1e-300"]) == 2
        err = capsys.readouterr().err
        assert err == ("configuration error: range '0:1:1e-300' has 1e+300 "
                       "points, more than 1048576\n")
        assert not out.exists()

    @pytest.mark.parametrize("rng", ["1e16:10000000000000008:1",
                                     "1e20:1e20:1"])
    def test_sweep_range_with_repeated_points_exit_2(self, tmp_path, capsys,
                                                     rng):
        # a step below the float spacing repeats points
        out = tmp_path / "o"
        assert run_cli(["sweep", write(tmp_path, minimal_doc()), "--out",
                        str(out), "--vary", "kernel.value", rng]) == 2
        err = capsys.readouterr().err
        assert err == (f"configuration error: range {rng!r} repeats points: "
                       f"its step is below the float spacing\n")
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

    def test_sweep_runs_no_probe(self, tmp_path, monkeypatch):
        # a sweep's CSV holds no probe, so its points solve none; a
        # spectrum on the same scenario still reports every probe lambda
        calls = []
        real = twophase.report.sB_probe_infinite

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(twophase.report, "sB_probe_infinite", counting)
        doc = {"name": "probe_sweep",
               "domain": {"kind": "truncated_infinite", "smax": 40.0,
                          "n": 80},
               "coefficients": {"gamma1": 1.0, "gamma2": 1.0, "mu": 1.0,
                                "c1": 1.0, "c2": 1.0},
               "kernel": {"form": "indicator", "value": 2.0,
                          "s_lo": 0.0, "s_hi": 1.0},
               "spectral": {"smax_list": [10, 20, 40],
                            "probe_lambdas": [-0.5, 0.5]}}
        path, out = write(tmp_path, doc), tmp_path / "o"
        assert run_cli(["sweep", path, "--out", str(out), "--vary",
                        "coefficients.mu", "0.5:2.0:0.25"]) == 0
        assert calls == []
        assert run_cli(["spectrum", path, "--out", str(out)]) == 0
        probe = json.loads(
            (out / "probe_sweep_report.json").read_text())["spectral"]["probe"]
        assert [r["lam"] for r in probe] == [-0.5, 0.5]
        assert [r["classification"] for r in probe] == [
            "diverging", "resolvent-bounded"]
        assert len(calls) == 2

    def test_sweep_ignores_probe_settings(self, tmp_path):
        # h = 2.5 leaves the probe source [0, 1] without a cell center:
        # spectrum exits 2 on it, a sweep computes no probe
        doc = minimal_doc(
            domain={"kind": "truncated_infinite", "smax": 10.0, "n": 4},
            spectral={"smax_list": [5, 10], "probe_lambdas": [0.5]})
        doc["coefficients"].update(c1=0.5, c2=0.5)
        out = tmp_path / "o"
        assert run_cli(["sweep", write(tmp_path, doc), "--out", str(out),
                        "--vary", "coefficients.mu", "0.5:1.0:0.5"]) == 0
        lines = (out / "minimal_sweep.csv").read_text().splitlines()
        assert len(lines) == 3 and ",," not in "".join(lines[1:])

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
         "run.u0"),
        # descriptor numbers: a NaN bound made c1 or the kernel vanish,
        # and true read as 1
        ("coefficients", "c1", {"form": "expression", "name": "indicator",
                                "lo": float("nan")}, "coefficients.c1.lo"),
        ("coefficients", "c1", {"form": "expression", "name": "indicator",
                                "lo": True}, "coefficients.c1.lo"),
        ("coefficients", "c2", {"form": "expression", "name": "exp_decay",
                                "rate": float("nan")}, "coefficients.c2.rate"),
        ("coefficients", "mu", {"form": "constant", "value": True},
         "coefficients.mu.value"),
        ("coefficients", "c1", True, "cannot interpret coefficient spec"),
        ("kernel", "s_hi", float("nan"), "kernel: s_hi"),
        ("kernel", "value", True, "kernel: value"),
        ("kernel", "scale", float("nan"), "kernel: scale"),
        ("run", "u0", {"u1": {"form": "expression", "name": "indicator",
                              "hi": float("nan")}}, "run.u0: hi")])
    def test_malformed_number_exit_2(self, tmp_path, capsys, section, key,
                                     value, field):
        doc = demo_doc(8.0)
        doc["domain"]["n"] = 60
        doc[section][key] = value
        assert run_cli(["report", write(tmp_path, doc),
                        "--out", str(tmp_path / "o")]) == 2
        assert f"configuration error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, field, message", [
        ("coefficients", "c1",
         {"form": "table", "points": [[0.0, True], [0.5, False]]},
         "coefficients.c1.points[0][1]", "must be a number"),
        ("coefficients", "c1", {"form": "table", "points": [[True, 1.0]]},
         "coefficients.c1.points[0][0]", "must be a number"),
        ("coefficients", "c1", "abc", "",
         "cannot interpret coefficient spec 'abc' (coefficient c1)"),
        ("kernel", "values", [[1.0] * 60] * 59 + [[1.0] * 59 + [False]],
         "kernel", "values[59][59] must be a number")])
    def test_table_entry_or_spec_not_a_number_exit_2(
            self, tmp_path, capsys, section, key, value, field, message):
        # booleans in a table read as 1 and 0, and a bare coefficient that
        # is no spec did not say which coefficient it was
        doc = demo_doc(8.0)
        doc["domain"]["n"] = 60
        if section == "kernel":
            doc["kernel"] = {"form": "table"}
        doc[section][key] = value
        assert run_cli(["report", write(tmp_path, doc),
                        "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {field}" in err and message in err

    def test_step_past_one_over_s_A_exit_3(self, tmp_path, capsys):
        # dt s_A = 1.87: the step loop's total mass read 1, -2.098, 2.191,
        # ... and the report exited 0
        doc = minimal_doc(kernel={"form": "constant", "value": 5.0},
                          run={"dt": 1.0, "T": 40.0, "record_every": 1})
        out = tmp_path / "o"
        assert run_cli(["report", write(tmp_path, doc),
                        "--out", str(out)]) == 3
        assert "dt*s_A < 1" in capsys.readouterr().err
        rep = json.loads((out / "minimal_report.json").read_text())
        assert rep["complete"] is False and "dt*s_A < 1" in rep["error"]
        assert not (out / "minimal_trajectory.csv").exists()

    @pytest.mark.parametrize("case", ["file_n", "flag_n", "flag_dt"])
    def test_oversized_count_exit_2(self, tmp_path, capsys, case):
        # numpy's "Maximum allowed size exceeded" exited 1 with a
        # traceback, and for the step count left no partial report
        doc = minimal_doc(run={"T": 0.5})
        if case == "file_n":
            doc["domain"]["n"] = 1e19
        argv = {"file_n": ["report"],
                "flag_n": ["report", "--n", "100000000000000000000"],
                "flag_dt": ["simulate", "--dt", "1e-300"]}[case]
        out = tmp_path / "o"
        assert run_cli([*argv, write(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        field = "T/dt" if case == "flag_dt" else "domain.n"
        assert err.startswith("configuration error: ") and field in err
        if case == "flag_dt":
            rep = json.loads((out / "minimal_report.json").read_text())
            assert rep["complete"] is False and "T/dt" in rep["error"]

    def test_dt_flag_nan_exit_2(self, tmp_path, capsys):
        assert run_cli(["report", write(tmp_path, minimal_doc()),
                        "--out", str(tmp_path / "o"), "--dt", "nan"]) == 2
        assert "run.dt" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["directory", "utf16", "criteria_out",
                                      "sweep_out"])
    def test_unreadable_input_or_unwritable_output_exit_2(self, tmp_path,
                                                           capsys, case):
        # a directory or UTF-16 bytes as the scenario, and an output
        # directory under a regular file: one line on stderr, no traceback
        path = write(tmp_path, minimal_doc())
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(json.dumps(minimal_doc()).encode("utf-16"))
        assert utf16.read_bytes()[:2] == b"\xff\xfe"
        (tmp_path / "afile").write_text("x")
        out = str(tmp_path / "afile" / "sub")
        argv = {"directory": ["criteria", str(tmp_path)],
                "utf16": ["criteria", str(utf16)],
                "criteria_out": ["criteria", path, "--out", out],
                "sweep_out": ["sweep", path, "--out", out, "--vary",
                              "coefficients.mu", "0.5:1.0:0.5"]}[case]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_omitted_indicator_bound_still_unbounded(self, tmp_path):
        # c1 with lo = 0 and no hi: the verdict that a NaN lo flipped
        doc = minimal_doc(domain={"kind": "finite", "m": 1.0, "n": 20})
        doc["coefficients"]["c1"] = {"form": "expression",
                                     "name": "indicator", "lo": 0.0}
        out = tmp_path / "o"
        assert run_cli(["criteria", write(tmp_path, doc),
                        "--out", str(out)]) == 0
        d = json.loads((out / "minimal_report.json").read_text())
        assert d["verdict"]["predicted"] == "irreducible_gap_aeg"

    @pytest.mark.parametrize("T, fitted", [(0.38, True), (0.37, False)])
    def test_report_fits_whenever_detect_aeg_does(self, tmp_path, T, fitted):
        # 38 steps give 39 mass records, whose last half (20) is a full
        # fit window; 37 steps leave 19
        doc = minimal_doc(kernel={"form": "constant", "value": 5.0},
                          run={"dt": 0.01, "T": T, "record_every": 1})
        out = tmp_path / "o"
        assert run_cli(["report", write(tmp_path, doc),
                        "--out", str(out)]) == 0
        d = json.loads((out / "minimal_report.json").read_text())
        fit = d["simulate"]["aeg_fit"]
        checks = [c["check"] for c in d["checks"]]
        assert (fit is not None) == fitted
        assert ("growth_rate_two_routes" in checks) == fitted
        if fitted:
            assert fit["lambda0_fit"] == pytest.approx(2.627, abs=1e-3)

    def test_integral_float_cell_count_accepted(self):
        doc = minimal_doc()
        doc["domain"]["n"] = 60.0
        assert scenario_from_dict(doc).grid.n == 60

    def test_import_and_growth_only_spectrum_leave_scipy_unimported(
            self, tmp_path):
        # scipy is imported only to factor: neither the import (which
        # also leaves secrets and the thread pool unloaded) nor the
        # exact-route eigensolve of a non-mixing kernel loads it
        doc = {"name": "growth",
               "domain": {"kind": "finite", "m": 1.0, "n": 800},
               "coefficients": {"gamma1": 1.0, "gamma2": 1.0, "mu": 1.0,
                                "c1": 1.0, "c2": 1.0},
               "kernel": {"form": "indicator", "relation": "s>y"}}
        code = (
            "import sys\n"
            "import twophase\n"
            "loaded = lambda: sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'scipy')\n"
            "assert not loaded(), loaded()\n"
            "from twophase.cli import main\n"
            "assert 'secrets' not in sys.modules\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "growth, out = sys.argv[1:]\n"
            "assert main(['spectrum', growth, '--out', out]) == 0\n"
            "assert not loaded(), loaded()\n")
        src = os.path.dirname(os.path.dirname(twophase.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, write(tmp_path, doc),
             str(tmp_path / "o")], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "growth_report.json").exists()

    def test_characteristic_route_loads_only_fblas(self, tmp_path):
        # a sweep and a spectrum on the characteristic route of a rank-1
        # kernel solve on the banded factor: of scipy they load only the
        # compiled BLAS extension, never the scipy, scipy.linalg or
        # scipy.sparse package, and a sweep starts no thread pool
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
            "from twophase.cli import main\n"
            "loaded = lambda: sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'scipy')\n"
            "box, constant, out = sys.argv[1:]\n"
            "assert main(['sweep', box, '--out', out, '--vary', "
            "'coefficients.mu', '0.5:1.0:0.25']) == 0\n"
            "assert loaded() == ['scipy.linalg._fblas'], loaded()\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert main(['spectrum', constant, '--out', out]) == 0\n"
            "assert loaded() == ['scipy.linalg._fblas'], loaded()\n")
        src = os.path.dirname(os.path.dirname(twophase.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, write(tmp_path, box, "box.json"),
             write(tmp_path, constant, "constant.json"),
             str(tmp_path / "o")], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        for name in ("box_sweep.csv", "constant_report.json"):
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

    def test_simulate_on_triangle_kernel_leaves_scipy_sparse_unimported(
            self, tmp_path):
        # the randomized route applies an s>y kernel by a prefix sum, with
        # no factor, and the report names the route
        doc = minimal_doc(name="tri",
                          kernel={"form": "indicator", "relation": "s>y"},
                          run={"dt": 1e-3, "T": 2.0, "record_every": 10})
        doc["domain"]["n"] = 200
        code = (
            "import sys\n"
            "from twophase.cli import main\n"
            "scn, out = sys.argv[1:]\n"
            "assert main(['simulate', scn, '--out', out]) == 0\n"
            "assert 'scipy.sparse' not in sys.modules\n")
        src = os.path.dirname(os.path.dirname(twophase.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, write(tmp_path, doc),
             str(tmp_path / "o")], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        sim = strict_json((tmp_path / "o" / "tri_report.json").read_text())[
            "simulate"]
        assert sim["route"] == "randomized" and 0 < sim["terms"] <= 1000
        assert 0 <= sim["tail_bound"] <= 2.0 ** -50

    def test_simulate_loop_on_table_kernel_leaves_scipy_sparse_unimported(
            self, tmp_path):
        # 3000 records held at once send the run to the loop; a table's
        # implicit steps sum the Neumann series on B's banded factor,
        # with no sparse matrix and no sparse LU
        doc = minimal_doc(name="tab",
                          kernel={"form": "table", "values": [[3.0] * 100]
                                  * 100},
                          run={"dt": 2e-3, "T": 6.0, "record_every": 1})
        doc["domain"]["n"] = 100
        code = (
            "import sys\n"
            "from twophase.cli import main\n"
            "scn, out = sys.argv[1:]\n"
            "assert main(['simulate', scn, '--out', out]) == 0\n"
            "assert 'scipy.sparse' not in sys.modules\n")
        src = os.path.dirname(os.path.dirname(twophase.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, write(tmp_path, doc),
             str(tmp_path / "o")], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        sim = strict_json((tmp_path / "o" / "tab_report.json").read_text())[
            "simulate"]
        assert sim["route"] == "steps" and sim["terms"] is None

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
