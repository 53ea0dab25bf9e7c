"""Implicit time stepping, trajectories, and evolution diagnostics.

Backward Euler is the only integrator: each step applies
(I - dt*M)^{-1}, which is entrywise nonnegative because the negated
generator has M-matrix structure, so nonnegative data stays nonnegative
unconditionally in dt.  ``step_implicit``, ``evolve`` and
``ideal_invariance_probe`` share one stepping loop, which fetches the
generator's factor of I - dt*M (lambda = 1/dt folded in) once per run
and advances the stacked state (u1 over u2): for a rank-1 kernel a step
is one banded triangular solve, a vectorised 2x2 block inverse and an
in-place Sherman-Morrison update, O(n) with no negative rounding; other
kernels take one sparse LU solve.  The step's phase sums, recorded at
every step (growth-rate fits need a dense series), are its finiteness
check; full profiles are decimated by ``record_every``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, InsufficientDataError,
                     PreconditionError, SpectralProximityError, StepSizeError)
from .model import Kernel, ModelParams
from .operators import DiscreteGenerator, StateVector

IDEAL_KINDS = ("both_min_size", "phase2_min_size", "phase2_only",
               "product_min_sizes")


@dataclass
class Trajectory:
    """Recorded evolution of a state under the implicit scheme.

    ``times``/``states``/``masses`` hold the decimated profile records;
    ``step_times``/``step_masses``/``step_phase_masses`` hold the per-step
    mass series.
    """

    times: np.ndarray
    states: list
    masses: np.ndarray
    step_times: np.ndarray
    step_masses: np.ndarray
    step_phase_masses: np.ndarray
    dt: float


@dataclass
class MassBalanceReport:
    """Per-step defect of the bulk mass identity.

    ``drift[k]`` is the finite-difference mass derivative over step k
    minus the recruitment-mortality source evaluated at the step's end
    state.  For a closed system (no boundary loss) the backward-Euler
    defect is solver roundoff; with outflow the drift equals minus the
    boundary flux, which is reported separately.
    """

    drift: np.ndarray
    max_abs_drift: float
    outflow: np.ndarray


def _step_count(dt: float, T: float) -> int:
    """ceil(T/dt) steps; ConfigurationError unless 0 < dt < inf,
    0 <= T < inf and T/dt is finite."""
    if not 0 < dt < math.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if not 0 <= T / dt < math.inf:
        raise ConfigurationError(f"T must be >= 0 and T/dt finite, got "
                                 f"T={T}, dt={dt}")
    return 0 if T == 0 else math.ceil(T / dt - 1e-12)


def _steps(gen: DiscreteGenerator, x: np.ndarray, dt: float, nsteps: int):
    """Yield (x, u1 sum, u2 sum) after each of ``nsteps`` implicit steps
    from the stacked state x (dt already checked).

    The factor of I - dt*M is fetched once, before the first step (never
    when nsteps is 0).  Each x is a fresh array, and its phase sums (dot
    products with ones, one BLAS call each) double as the finiteness
    check: a non-finite entry makes its sum non-finite.
    """
    if nsteps < 1:
        return
    try:
        fact = gen.factorization(1.0 / dt, scale=1.0 / dt)
    except SpectralProximityError as exc:
        raise StepSizeError(f"implicit step factorization failed at dt={dt:g}: {exc}")
    n = gen.grid.n
    ones = np.ones(n)
    for _ in range(nsteps):
        x = fact.solve(x)
        s1, s2 = np.dot(x[:n], ones), np.dot(x[n:], ones)
        if not (math.isfinite(s1) and math.isfinite(s2)):
            raise StepSizeError(f"implicit step produced non-finite state at dt={dt:g}")
        yield x, s1, s2


def step_implicit(gen: DiscreteGenerator, U: StateVector, dt: float) -> StateVector:
    """One backward-Euler step: returns (I - dt*gen.full)^{-1} U.

    The result's components are views of one fresh array.  The step and
    its checks are those of ``evolve``; a run of steps is faster there,
    with one factor fetch and no state built per step.
    """
    nsteps = _step_count(dt, dt)        # 1, once dt is checked
    x = next(_steps(gen, U.stacked(), dt, nsteps))[0]
    return StateVector.from_stacked(x, gen.grid)


def evolve(gen: DiscreteGenerator, U0: StateVector, dt: float, T: float,
           record_every: int = 1) -> Trajectory:
    """Run ceil(T/dt) implicit steps, recording profiles every ``record_every``.

    The stacked state advances with one factor fetch per run; states are
    built only at records.  ConfigurationError before any step unless
    0 < dt < inf, 0 <= T/dt < inf and record_every >= 1.
    """
    if record_every < 1:
        raise ConfigurationError("record_every must be >= 1")
    nsteps = _step_count(dt, T)
    n = gen.grid.n
    x = U0.stacked()
    times, xs = [0.0], [x]
    ones = np.ones(n)
    sums = [(np.dot(x[:n], ones), np.dot(x[n:], ones))]
    for k, (x, s1, s2) in enumerate(_steps(gen, x, dt, nsteps), 1):
        sums.append((s1, s2))
        if k % record_every == 0 or k == nsteps:
            times.append(k * dt)
            xs.append(x)
    h = gen.grid.h
    sums = np.array(sums)
    states = [StateVector.from_stacked(x, gen.grid) for x in xs]
    masses = np.array([S.mass for S in states])
    return Trajectory(times=np.array(times), states=states, masses=masses,
                      step_times=np.arange(nsteps + 1) * dt,
                      step_masses=(sums[:, 0] + sums[:, 1]) * h,
                      step_phase_masses=sums * h,
                      dt=dt)


def mass_balance(traj: Trajectory, kernel: Kernel, params: ModelParams) -> MassBalanceReport:
    """Compare the mass derivative against the recruitment-mortality source.

    The source at a state is sum_j (sum_i beta[i,j]*h - mu[j]) * u1[j] * h,
    evaluated at the end of each step (matching backward Euler).  Requires
    at least two records with a uniform stride, except that the last may
    be shorter (the final record of a run whose stride does not divide
    the step count).
    """
    if len(traj.states) < 2:
        raise InsufficientDataError("mass balance needs at least 2 records")
    steps = np.diff(traj.times)
    if not (np.allclose(steps[:-1], steps[0], rtol=1e-9, atol=1e-12)
            and steps[-1] - steps[0] <= 1e-12 + 1e-9 * steps[0]):
        raise ConfigurationError("mass balance requires a uniform record "
                                 "stride (the last may be shorter)")
    h = kernel.grid.h
    col_births = kernel.column_sums() * h     # integral of beta(., y) ds
    net = col_births - params.mu                  # per-parent net source rate
    g1e = params.gamma1_edges[-1]
    g2e = params.gamma2_edges[-1]
    drift = np.empty(len(steps))
    outflow = np.empty(len(steps))
    for k, dt_k in enumerate(steps):
        S = traj.states[k + 1]
        source = float(net @ S.u1) * h
        drift[k] = (traj.masses[k + 1] - traj.masses[k]) / dt_k - source
        outflow[k] = g1e * S.u1[-1] + g2e * S.u2[-1]
    return MassBalanceReport(drift=drift,
                             max_abs_drift=float(np.abs(drift).max()),
                             outflow=outflow)


def _outside_mask(kind: str, cut, gen: DiscreteGenerator) -> np.ndarray:
    """Boolean mask of the stacked cells outside the ideal's support.

    Phase 2 is supported above its cut in every kind; phase 1 above its
    cut too (``both_min_size``, and ``product_min_sizes`` with
    cut = (cut1, cut2)), everywhere (``phase2_min_size``) or nowhere
    (``phase2_only``).
    """
    if kind not in IDEAL_KINDS:
        raise ConfigurationError(f"unknown ideal kind {kind!r}")
    cut1, cut2 = cut if kind == "product_min_sizes" else 2 * (float(cut),)
    centers = gen.grid.centers
    m1 = centers < cut1
    if kind == "phase2_min_size":
        m1[:] = False
    elif kind == "phase2_only":
        m1[:] = True
    return np.concatenate([m1, centers < cut2])


def ideal_invariance_probe(gen: DiscreteGenerator, ideal: tuple, U0: StateVector,
                           T: float, dt: float) -> float:
    """Evolve U0 and return the max mass leaking out of an invariant ideal.

    ``ideal`` is (kind, cut) with kind one of ``both_min_size`` (both
    densities vanish below ``cut``), ``phase2_min_size`` (resting density
    vanishes below ``cut``), ``phase2_only`` (active density vanishes
    everywhere, resting below ``cut``) or ``product_min_sizes`` (cut =
    (cut1, cut2), each density vanishing below its own cut).  A tiny return value (<= 1e-10)
    certifies discrete invariance of the corresponding subspace.
    """
    out, h = _outside_mask(*ideal, gen), gen.grid.h
    nsteps = _step_count(dt, T)
    if np.abs(U0.stacked()[out]).sum() * h > 1e-14:
        raise PreconditionError("initial state does not lie in the declared ideal")
    leak = 0.0
    for x, _, _ in _steps(gen, U0.stacked(), dt, nsteps):
        leak = max(leak, float(np.abs(x[out]).sum() * h))
    return leak
