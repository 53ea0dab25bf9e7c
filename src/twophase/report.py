"""Pipeline orchestration and machine-readable artifacts.

``run`` composes assembly, verdict, eigensolve/closed forms/probe, and
time evolution into a RunReport, writing every artifact atomically
(temp file + rename) so interrupted long runs never leave truncated
files behind.  Each qualitative claim in the report appears as a
predicted-vs-measured pair under a stable check identifier, with a
tolerance and a pass/fail/n/a status.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .criteria import (EMPTY_SPECTRUM, GAP_ONLY, INCONCLUSIVE,
                       IRREDUCIBLE_GAP_AEG, NO_GAP, full_verdict)
from .errors import InsufficientDataError, TwophaseError
from .evolution import evolve, mass_balance
from .model import FINITE
from .operators import assemble
from .scenario import Scenario
from .spectral import (SpectralReport, closed_form_sB, detect_AEG,
                       sB_probe_infinite, spectral_bound,
                       spectral_gap_lower_bound)

STAGES_ALL = ("criteria", "spectrum", "simulate")


@dataclass
class RunReport:
    """Everything one pipeline invocation produced, field by field the
    members of its JSON report, in order; each stage fills its own."""

    scenario: str
    scenario_echo: dict
    complete: bool = False
    error: Optional[str] = None
    verdict: Optional[object] = None
    spectral: Optional[SpectralReport] = None
    mass_balance: Optional[object] = None
    trajectory_files: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    simulate: Optional[dict] = None
    timings: dict = field(default_factory=dict)


def atomic_write_text(path: str, text: str):
    """Write a file via a temp sibling and an atomic rename.

    The file is created with mode 0666 masked by the process umask, as
    a plain ``open`` would.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.getpid()}-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, columns, rows):
    """Write the numeric ``rows`` under a header of ``columns``, each
    number as %.12g and None as an empty field."""
    # Python floats format faster than numpy scalars, and a tuple
    # %-formatted faster than an f-string, to the same text
    fmt = ",".join(["%.12g"] * len(columns))
    lines = [",".join(columns)]
    lines += [fmt % row if None not in row
              else ",".join("" if v is None else "%.12g" % v for v in row)
              for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _jsonable(obj):
    """JSON-ready form of a report value, built without copying it:
    dataclasses field by field (a state keeps its grid), arrays as lists,
    and a non-finite float, which strict JSON cannot hold, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            return _jsonable(obj.tolist())
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _peak_rss_kb() -> Optional[int]:
    """This process's peak resident set size in KB so far (None where
    the platform has no ``resource`` module)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # bytes on macOS, KB elsewhere
    return peak // 1024 if sys.platform == "darwin" else peak


def report_to_json(rep: RunReport) -> str:
    text = json.dumps(_jsonable(rep), indent=2, allow_nan=False)
    # the peak is read once the rest is serialised, so that it holds the
    # serialisation's transient, and appended as the last member
    return f'{text[:-2]},\n  "peak_rss_kb": {json.dumps(_peak_rss_kb())}\n}}'


def _constant(rate: np.ndarray) -> bool:
    """Whether a sampled rate is constant to 1e-12 of max(1, its size)."""
    return float(np.ptp(rate)) <= 1e-12 * max(1.0, float(np.abs(rate).max()))


def _closed_forms(scn: Scenario, report: SpectralReport):
    """Attach the constant-tail closed forms when their hypotheses hold.

    The closed-form spectral bound needs an unbounded domain with a
    constant return rate c2; the gap lower bound additionally needs
    constant positive c1 and mu, and returns that bound as its lambda*.
    """
    p = scn.params
    if scn.grid.kind == FINITE or not _constant(p.c2):
        return
    c2 = float(p.c2[0])
    l1 = float(p.c1[-1])      # tail value as the limit surrogate
    l_mu = float(p.mu[-1])
    if _constant(p.c1) and _constant(p.mu) and min(l1, c2, l_mu) > 0:
        int_beta1 = float(scn.kernel.beta1.sum() * scn.grid.h)
        report.eps_bar, report.Delta, report.lambda_star = \
            spectral_gap_lower_bound(l1, c2, l_mu, int_beta1)
    else:
        report.lambda_star = closed_form_sB(l1, c2, l_mu)


def compute_spectrum(scn: Scenario) -> SpectralReport:
    """Spectrum stage without artifact writes or the truncation probe
    (used by sweeps, whose CSV holds no probe)."""
    return _spectrum_stage(scn, assemble(scn.params, scn.kernel, scn.grid))


def _spectrum_stage(scn: Scenario, gen) -> SpectralReport:
    bound = spectral_bound(gen, tol=scn.spectral_tol)
    finite = scn.grid.kind == FINITE
    s_A_divergent = None
    if finite:
        # below this level the discrete value is a mesh artifact of an
        # operator whose continuum spectrum is empty; the level adds the
        # max absolute row sum of the loss + coupling part B1 + B2
        bc_norm = float((gen.loss + gen.coupling).max())
        s_A_divergent = bound.s < -scn.params.gamma0 / scn.grid.h + bc_norm
    # on [0, m] every recruitment-free mass leaves in finite time (gamma
    # >= gamma0 > 0): that semigroup is nilpotent, its spectrum empty
    rep = SpectralReport(s_A=bound.s, eigfun=bound.eigfun,
                         s_B_divergent=finite, s_A_divergent=s_A_divergent,
                         s_A_route=bound.route, s_A_bracket=bound.bracket)
    _closed_forms(scn, rep)
    if rep.lambda_star is not None:
        rep.gap = rep.s_A - rep.lambda_star
    return rep


# A growth-rate fit over an asymptotic run agrees with s_A to about 1e-3
# (acceptance criterion 7); tolerance relative to max(1, |prediction|)
RATE_TOL = 1e-2
# roundoff of the bulk mass identity, relative to the initial mass
DRIFT_TOL = 1e-10


def _check(name: str, predicted, measured, tol=None, reason=None,
           target=None) -> dict:
    """One predicted-vs-measured entry with its tolerance and status.

    ``status`` is "n/a" with the ``reason`` given when nothing was
    measured or the measurement cannot judge the prediction.  Otherwise
    booleans pass on equality (``tol`` None) and numbers when within
    ``tol`` of ``target`` (the prediction unless given).
    """
    entry = {"check": name, "predicted": predicted, "measured": measured,
             "tol": tol}
    if reason is not None:
        entry.update(status="n/a", reason=reason)
    elif tol is None:
        entry["status"] = "pass" if measured == predicted else "fail"
    else:
        target = predicted if target is None else target
        entry["status"] = "pass" if abs(measured - target) <= tol else "fail"
    return entry


def _rate_check(name: str, predicted: Optional[float], fit,
                exited) -> dict:
    """Growth-rate fit against a predicted rate (None when the spectrum
    stage did not run).

    ``exited`` is the mass that left through the right end over the run
    and the initial mass; while the exit is below tol times the initial
    mass the run has not felt the truncation it is compared against.
    """
    tol = RATE_TOL * max(1.0, abs(predicted or 0.0))
    reason = None
    if fit is None:
        reason = "no growth-rate fit"
    elif fit.extinct:
        reason = "extinct: the mass vanished in the fit window"
    elif predicted is None:
        reason = "spectrum stage not run"
    elif exited is not None and exited[0] < tol * exited[1]:
        reason = (f"pre-asymptotic: {exited[0]:.3g} of initial mass "
                  f"{exited[1]:.3g} left through the boundary")
    measured = fit.lambda0_fit if fit is not None else None
    return _check(name, predicted, measured, tol, reason)


def _build_checks(rep: RunReport, traj) -> list:
    checks = []
    v = rep.verdict
    sp = rep.spectral
    mb = rep.mass_balance
    fit = rep.simulate["aeg_fit"] if rep.simulate is not None else None
    # total boundary outflow (sum of outflow * record stride) and the
    # initial mass; a mass report implies a trajectory
    exited = None
    if mb is not None:
        exited = (float(mb.outflow @ np.diff(traj.times)),
                  float(traj.step_masses[0]))
    if v is not None:
        checks.append(_check("irreducibility_support_conditions",
                             v.irreducible, None,
                             reason="no discrete measurement"))
        # on a finite domain the spectrum is non-empty, and has a gap,
        # exactly when s_A stays above the mesh-artifact level
        gap_predicted = v.predicted in (IRREDUCIBLE_GAP_AEG, GAP_ONLY)
        measured_gap = None
        reason = "spectrum stage not run" if sp is None else None
        if sp is not None:
            if sp.s_A_divergent is not None:
                measured_gap = not sp.s_A_divergent
            elif sp.gap is not None:
                measured_gap = bool(sp.gap > 0)
            else:
                reason = "no closed-form lambda_star"
        if v.predicted == INCONCLUSIVE:
            gap_predicted = None
            reason = "inconclusive verdict: the criteria predict nothing"
        checks.append(_check("spectral_gap_presence", gap_predicted,
                             measured_gap, reason=reason))
        if v.predicted == NO_GAP:
            checks.append(_rate_check("vanishing_growth_rate", 0.0, fit,
                                      exited))
        if v.predicted == EMPTY_SPECTRUM:
            checks.append(_check(
                "empty_spectrum_refinement_divergence", True,
                sp.s_A_divergent if sp is not None else None,
                reason="spectrum stage not run" if sp is None else None))
    if fit is not None and not fit.extinct:
        checks.append(_rate_check("growth_rate_two_routes",
                                  sp.s_A if sp is not None else None, fit,
                                  exited))
    if mb is not None and v is not None:
        # the drift is the defect of the mass identity, exit flux
        # included: with one step per record it is backward Euler's and
        # vanishes to roundoff; a longer stride adds the quadrature error
        # of the source and the outflow, which vanishes only when births
        # balance deaths and no mass leaves
        tol = DRIFT_TOL * exited[1]
        reason = None
        if (len(traj.times) < len(traj.step_times)
                and (v.conservativity != "neutral"
                     or mb.outflow.max() > tol)):
            reason = ("records span several steps: the drift includes the "
                      "quadrature error of the source and the outflow")
        checks.append(_check("mass_conservation_class", v.conservativity,
                             mb.max_abs_drift, tol, reason, target=0.0))
    return checks


def run(scn: Scenario, out_dir: Optional[str] = None,
        stages=STAGES_ALL) -> RunReport:
    """Execute the requested pipeline stages and write artifacts.

    Any stage failure, including a MemoryError, writes a partial report
    marked incomplete before the error propagates.
    """
    out_dir = out_dir or scn.out_dir or "."
    rep = RunReport(scenario=scn.name, scenario_echo=scn.raw)
    report_path = os.path.join(out_dir, f"{scn.name}_report.json")
    traj = None
    try:
        t0 = time.perf_counter()
        gen = assemble(scn.params, scn.kernel, scn.grid)
        rep.timings["assemble"] = time.perf_counter() - t0

        if "criteria" in stages:
            t0 = time.perf_counter()
            rep.verdict = full_verdict(scn.kernel, scn.params)
            rep.timings["criteria"] = time.perf_counter() - t0

        if "spectrum" in stages:
            t0 = time.perf_counter()
            rep.spectral = _spectrum_stage(scn, gen)
            if scn.probe_lambdas:   # the scenario holds both lists then
                rep.spectral.probe = [
                    sB_probe_infinite(gen, lam, scn.smax_list)
                    for lam in scn.probe_lambdas]
            rep.timings["spectrum"] = time.perf_counter() - t0

        if "simulate" in stages:
            t0 = time.perf_counter()
            U0 = scn.initial_state()
            traj = evolve(gen, U0, scn.dt, scn.T, scn.record_every)
            try:    # detect_AEG alone decides whether the window fits
                fit = detect_AEG(traj, eig_candidate=getattr(
                    rep.spectral, "eigfun", None))
            except InsufficientDataError:
                fit = None
            rep.simulate = {"route": traj.route, "terms": traj.terms,
                            "tail_bound": traj.tail_bound, "aeg_fit": fit}
            if len(traj.step_times) >= 2:
                rep.mass_balance = mass_balance(traj, scn.kernel, scn.params)
            traj_path = os.path.join(out_dir, f"{scn.name}_trajectory.csv")
            prof_path = os.path.join(out_dir, f"{scn.name}_profile.csv")
            write_csv(traj_path, ("t", "mass_total", "mass_u1", "mass_u2"),
                      zip(traj.step_times.tolist(),
                          traj.step_masses.tolist(),
                          *traj.step_phase_masses.T.tolist()))
            # the last record, u1 and u2 by cell
            write_csv(prof_path, ("s", "u1", "u2"),
                      zip(traj.grid.centers.tolist(),
                          *traj.records[-1].reshape(2, -1).tolist()))
            rep.trajectory_files = [traj_path, prof_path]
            rep.timings["simulate"] = time.perf_counter() - t0

        rep.checks = _build_checks(rep, traj)
        rep.complete = True
        atomic_write_text(report_path, report_to_json(rep))
        return rep
    except (TwophaseError, MemoryError) as exc:
        rep.error = str(exc) if isinstance(exc, TwophaseError) \
            else f"out of memory: {exc}"
        rep.complete = False
        rep.checks = _build_checks(rep, traj)
        atomic_write_text(report_path, report_to_json(rep))
        raise
