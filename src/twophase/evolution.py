"""Implicit time stepping, trajectories, and evolution diagnostics.

Backward Euler is the only integrator: each step applies
(I - dt*M)^{-1}, which is entrywise nonnegative because the negated
generator has M-matrix structure, so nonnegative data stays nonnegative
unconditionally in dt.  The generator's factor of I - dt*M (lambda =
1/dt folded in) is built on the first step and reused: for a rank-1
kernel a step is one banded triangular solve, a vectorised 2x2 block
inverse and an in-place Sherman-Morrison update, O(n) with no negative
rounding; other kernels take one sparse LU solve.  Mass is recorded at
every step (growth-rate fits need a dense series) while full profiles
are decimated by ``record_every``.
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


def step_implicit(gen: DiscreteGenerator, U: StateVector, dt: float) -> StateVector:
    """One backward-Euler step: returns (I - dt*gen.full)^{-1} U.

    The result's components are views of one fresh array.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    lam = 1.0 / dt
    try:
        fact = gen.factorization(lam, "full", scale=lam)
    except SpectralProximityError as exc:
        raise StepSizeError(f"implicit step factorization failed at dt={dt:g}: {exc}")
    x = fact.solve(U.stacked())
    # one pass: a non-finite entry makes the sum non-finite
    if not math.isfinite(x.sum()):
        raise StepSizeError(f"implicit step produced non-finite state at dt={dt:g}")
    return StateVector.from_stacked(x, gen.grid)


def evolve(gen: DiscreteGenerator, U0: StateVector, dt: float, T: float,
           record_every: int = 1) -> Trajectory:
    """Run ceil(T/dt) implicit steps, recording profiles every ``record_every``."""
    if record_every < 1:
        raise ConfigurationError("record_every must be >= 1")
    if T < 0:
        raise ConfigurationError("T must be >= 0")
    nsteps = 0 if T == 0 else math.ceil(T / dt - 1e-12)
    U = U0.copy()
    times = [0.0]
    states = [U]
    # per-step phase sums, each a dot product with ones (one BLAS call,
    # cheaper than a numpy reduction); each step returns a new state, so
    # records need no copy
    ones = np.ones(gen.grid.n)
    sums = [(np.dot(U.u1, ones), np.dot(U.u2, ones))]
    for k in range(1, nsteps + 1):
        U = step_implicit(gen, U, dt)
        sums.append((np.dot(U.u1, ones), np.dot(U.u2, ones)))
        if k % record_every == 0 or k == nsteps:
            times.append(k * dt)
            states.append(U)
    h = gen.grid.h
    sums = np.array(sums)
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


def _outside_masks(kind: str, cut: float, gen: DiscreteGenerator):
    """Boolean masks of cells *outside* the ideal's support pattern."""
    centers = gen.grid.centers
    if kind == "both_min_size":
        # both components supported in [cut, length]
        m1 = centers < cut
        m2 = centers < cut
    elif kind == "phase2_min_size":
        # phase 1 unrestricted, phase 2 supported in [cut, length]
        m1 = np.zeros(gen.grid.n, dtype=bool)
        m2 = centers < cut
    elif kind == "phase2_only":
        # phase 1 identically zero, phase 2 supported in (cut, length]
        m1 = np.ones(gen.grid.n, dtype=bool)
        m2 = centers < cut
    elif kind == "product_min_sizes":
        # independent lower cutoffs per phase: cut = (cut1, cut2)
        cut1, cut2 = cut
        m1 = centers < cut1
        m2 = centers < cut2
    else:
        raise ConfigurationError(f"unknown ideal kind {kind!r}")
    return m1, m2


def _outside_mass(U: StateVector, m1: np.ndarray, m2: np.ndarray) -> float:
    h = U.grid.h
    return float((np.abs(U.u1[m1]).sum() + np.abs(U.u2[m2]).sum()) * h)


def ideal_invariance_probe(gen: DiscreteGenerator, ideal: tuple, U0: StateVector,
                           T: float, dt: float) -> float:
    """Evolve U0 and return the max mass leaking out of an invariant ideal.

    ``ideal`` is (kind, cut) with kind one of ``both_min_size`` (both
    densities vanish below ``cut``), ``phase2_min_size`` (resting density
    vanishes below ``cut``), or ``phase2_only`` (active density vanishes
    everywhere, resting below ``cut``).  A tiny return value (<= 1e-10)
    certifies discrete invariance of the corresponding subspace.
    """
    kind, cut = ideal
    if kind != "product_min_sizes":
        cut = float(cut)
    m1, m2 = _outside_masks(kind, cut, gen)
    if _outside_mass(U0, m1, m2) > 1e-14:
        raise PreconditionError("initial state does not lie in the declared ideal")
    nsteps = math.ceil(T / dt - 1e-12)
    U = U0.copy()
    leak = 0.0
    for _ in range(nsteps):
        U = step_implicit(gen, U, dt)
        leak = max(leak, _outside_mass(U, m1, m2))
    return leak
