"""Pipeline orchestration and machine-readable artifacts.

``run`` composes assembly, verdict, eigensolve/closed forms/probe, and
time evolution into a RunReport, writing every artifact atomically
(temp file + rename) so interrupted long runs never leave truncated
files behind.  Each qualitative claim in the report appears as a
predicted-vs-measured pair under a stable check identifier.
"""

from __future__ import annotations

import dataclasses
import json
import os
import secrets
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .criteria import (EMPTY_SPECTRUM, GAP_ONLY, IRREDUCIBLE_GAP_AEG, NO_GAP,
                       full_verdict)
from .errors import TwophaseError
from .evolution import evolve, mass_balance
from .model import FINITE
from .operators import StateVector, assemble
from .scenario import Scenario
from .spectral import (SpectralReport, closed_form_sB, detect_AEG,
                       recruitment_free_bound, sB_probe_infinite,
                       spectral_bound, spectral_gap_lower_bound)

STAGES_ALL = ("criteria", "spectrum", "simulate")


@dataclass
class RunReport:
    """Everything one pipeline invocation produced."""

    scenario_name: str
    scenario_echo: dict
    verdict: Optional[object] = None
    spectral: Optional[SpectralReport] = None
    mass_report: Optional[object] = None
    trajectory_files: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    complete: bool = False
    error: Optional[str] = None


def atomic_write_text(path: str, text: str):
    """Write a file via a temp sibling and an atomic rename.

    The file is created with mode 0666 masked by the process umask, as
    a plain ``open`` would.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.getpid()}-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trajectory_csv(path: str, traj):
    rows = ["t,mass_total,mass_u1,mass_u2"]
    for t, m, (m1, m2) in zip(traj.step_times, traj.step_masses,
                              traj.step_phase_masses):
        rows.append(f"{t:.12g},{m:.12g},{m1:.12g},{m2:.12g}")
    atomic_write_text(path, "\n".join(rows) + "\n")


def write_profile_csv(path: str, state: StateVector):
    rows = ["s,u1,u2"]
    for s, a, b in zip(state.grid.centers, state.u1, state.u2):
        rows.append(f"{s:.12g},{a:.12g},{b:.12g}")
    atomic_write_text(path, "\n".join(rows) + "\n")


def write_sweep_csv(path: str, key: str, rows: list):
    out = [f"{key},s_A,lambda_star,eps_bar,gap"]
    for r in rows:
        out.append(",".join("" if v is None else f"{v:.12g}" for v in r))
    atomic_write_text(path, "\n".join(out) + "\n")


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, StateVector):
        return {"u1": obj.u1.tolist(), "u2": obj.u2.tolist()}
    if dataclasses.is_dataclass(obj):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def report_to_json(rep: RunReport) -> str:
    doc = {
        "scenario": rep.scenario_name,
        "scenario_echo": rep.scenario_echo,
        "complete": rep.complete,
        "error": rep.error,
        "verdict": _jsonable(rep.verdict),
        "spectral": _jsonable(rep.spectral),
        "mass_balance": _jsonable(rep.mass_report),
        "trajectory_files": rep.trajectory_files,
        "checks": _jsonable(rep.checks),
        "timings": rep.timings,
    }
    return json.dumps(doc, indent=2)


def _closed_forms(scn: Scenario, report: SpectralReport):
    """Attach the constant-tail closed forms when their hypotheses hold.

    The closed-form spectral bound needs an unbounded domain with a
    constant return rate c2; the gap lower bound additionally needs
    constant positive c1 and mu.
    """
    p = scn.params
    if scn.grid.kind == FINITE:
        return
    c2 = p.c2
    if float(np.ptp(c2)) > 1e-12 * max(1.0, float(np.abs(c2).max())):
        return
    c2v = float(c2[0])
    l1 = float(p.c1[-1])      # tail value as the limit surrogate
    l_mu = float(p.mu[-1])
    report.lambda_star = closed_form_sB(l1, c2v, l_mu)
    const_c1 = float(np.ptp(p.c1)) <= 1e-12 * max(1.0, float(np.abs(p.c1).max()))
    const_mu = float(np.ptp(p.mu)) <= 1e-12 * max(1.0, float(np.abs(p.mu).max()))
    if const_c1 and const_mu and l1 > 0 and c2v > 0 and l_mu > 0:
        int_beta1 = float(scn.kernel.beta1.sum() * scn.grid.h)
        eps_bar, Delta, lam_star = spectral_gap_lower_bound(
            l1, c2v, l_mu, int_beta1)
        report.eps_bar, report.Delta, report.lambda_star = \
            eps_bar, Delta, lam_star


def compute_spectrum(scn: Scenario) -> SpectralReport:
    """Spectrum stage without artifact writes (used by sweeps)."""
    return _spectrum_stage(scn, assemble(scn.params, scn.kernel, scn.grid))


def _spectrum_stage(scn: Scenario, gen) -> SpectralReport:
    s_A, eigfun = spectral_bound(gen, "full", shift0=scn.shift0,
                                 tol=scn.spectral_tol)
    s_B = None
    divergent = False
    if scn.grid.kind == FINITE:
        s_B_val = recruitment_free_bound(gen)
        # below this level the discrete value is a mesh artifact of an
        # operator whose continuum spectrum is empty
        bc_norm = float(abs(gen.B1_block + gen.B2_block).sum(axis=1).max())
        threshold = -gen.params.gamma0 / scn.grid.h + bc_norm
        if s_B_val < threshold:
            divergent = True
        else:
            s_B = float(s_B_val)
    rep = SpectralReport(s_A=float(s_A), s_A_converged=True, eigfun=eigfun,
                         s_B_surrogate=s_B, s_B_divergent=divergent)
    _closed_forms(scn, rep)
    if s_B is not None:
        rep.gap = rep.s_A - s_B
    elif rep.lambda_star is not None:
        rep.gap = rep.s_A - rep.lambda_star
    if scn.probe_lambdas and scn.smax_list and scn.grid.kind != FINITE:
        rep.probe = [sB_probe_infinite(scn.params, None, lam, scn.smax_list)
                     for lam in scn.probe_lambdas]
    return rep


def _build_checks(rep: RunReport) -> list:
    checks = []
    v = rep.verdict
    sp = rep.spectral
    if v is not None:
        checks.append({
            "check": "irreducibility_support_conditions",
            "predicted": v.irreducible,
            "measured": None,
        })
        gap_predicted = v.predicted in (IRREDUCIBLE_GAP_AEG, GAP_ONLY)
        measured_gap = None
        if sp is not None:
            if sp.s_B_divergent:
                measured_gap = True
            elif sp.gap is not None:
                measured_gap = bool(sp.gap > 0)
        checks.append({
            "check": "spectral_gap_presence",
            "predicted": gap_predicted,
            "measured": measured_gap,
        })
        if v.predicted == NO_GAP:
            checks.append({
                "check": "vanishing_growth_rate",
                "predicted": 0.0,
                "measured": (sp.aeg_fit.lambda0_fit
                             if sp is not None and sp.aeg_fit is not None
                             and not sp.aeg_fit.extinct else None),
            })
        if v.predicted == EMPTY_SPECTRUM:
            checks.append({
                "check": "empty_spectrum_refinement_divergence",
                "predicted": True,
                "measured": sp.s_B_divergent if sp is not None else None,
            })
    if sp is not None and sp.aeg_fit is not None and not sp.aeg_fit.extinct:
        checks.append({
            "check": "growth_rate_two_routes",
            "predicted": sp.s_A,
            "measured": sp.aeg_fit.lambda0_fit,
        })
    if rep.mass_report is not None and v is not None:
        checks.append({
            "check": "mass_conservation_class",
            "predicted": v.conservativity,
            "measured": rep.mass_report.max_abs_drift,
        })
    return checks


def run(scn: Scenario, out_dir: Optional[str] = None,
        stages=STAGES_ALL) -> RunReport:
    """Execute the requested pipeline stages and write artifacts.

    Any stage failure writes a partial report marked incomplete before
    the error propagates.
    """
    out_dir = out_dir or scn.out_dir or "."
    rep = RunReport(scenario_name=scn.name, scenario_echo=scn.raw)
    report_path = os.path.join(out_dir, f"{scn.name}_report.json")
    try:
        t0 = time.perf_counter()
        gen = assemble(scn.params, scn.kernel, scn.grid)
        rep.timings["assemble"] = time.perf_counter() - t0

        if "criteria" in stages:
            t0 = time.perf_counter()
            rep.verdict = full_verdict(scn.kernel, scn.params, scn.grid)
            rep.timings["criteria"] = time.perf_counter() - t0

        if "spectrum" in stages:
            t0 = time.perf_counter()
            rep.spectral = _spectrum_stage(scn, gen)
            rep.timings["spectrum"] = time.perf_counter() - t0

        if "simulate" in stages:
            t0 = time.perf_counter()
            U0 = scn.initial_state()
            traj = evolve(gen, U0, scn.dt, scn.T, scn.record_every)
            if len(traj.step_times) >= 2:
                rep.mass_report = mass_balance(traj, scn.kernel, scn.params)
            if scn.T > 0 and len(traj.step_times) // 2 >= 20 \
                    and "spectrum" in stages and rep.spectral is not None:
                rep.spectral.aeg_fit = detect_AEG(
                    traj, eig_candidate=rep.spectral.eigfun)
            elif scn.T > 0 and len(traj.step_times) // 2 >= 20:
                rep.spectral = rep.spectral or SpectralReport(
                    s_A=float("nan"), s_A_converged=False, eigfun=None,
                    s_B_surrogate=None, s_B_divergent=False)
                rep.spectral.aeg_fit = detect_AEG(traj)
            traj_path = os.path.join(out_dir, f"{scn.name}_trajectory.csv")
            prof_path = os.path.join(out_dir, f"{scn.name}_profile.csv")
            write_trajectory_csv(traj_path, traj)
            write_profile_csv(prof_path, traj.states[-1])
            rep.trajectory_files = [traj_path, prof_path]
            rep.timings["simulate"] = time.perf_counter() - t0

        rep.checks = _build_checks(rep)
        rep.complete = True
        atomic_write_text(report_path, report_to_json(rep))
        return rep
    except TwophaseError as exc:
        rep.error = str(exc)
        rep.complete = False
        rep.checks = _build_checks(rep)
        atomic_write_text(report_path, report_to_json(rep))
        raise
