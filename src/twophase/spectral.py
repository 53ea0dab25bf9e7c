"""Spectral quantities: discrete spectral bound, closed forms, probes, growth fits.

Four independent routes to spectral information are provided:

  * the rightmost eigenvalue and its nonnegative (Perron) eigenvector of
    any assembled block sum: read exactly off the 2x2 cell blocks when
    the sum is block lower triangular in per-cell order (no recruitment,
    or a kernel that does not mix), and otherwise by shift-and-invert
    power iteration on certified shifts with a positivity-certificate
    bisection fallback;
  * closed-form expressions for the recruitment-free spectral bound and
    the spectral-gap lower bound in the constant-tail regime;
  * a truncation probe that classifies a real lambda as inside/outside
    the recruitment-free spectrum on an unbounded domain by solving the
    coupled transport system on growing truncations, one forward sweep each;
  * a trajectory fit extracting the Malthusian rate and the profile
    convergence rate (asynchronous exponential growth detection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConfigurationError, InsufficientDataError,
                     IterationError, NumericalError, PreconditionError,
                     SpectralProximityError)
from .evolution import Trajectory
from .model import Kernel, ModelParams, build_grid
from .operators import (WHICH_CHOICES, DiscreteGenerator, StateVector,
                        transport_sweep)

PROBE_BOUNDED = "resolvent-bounded"
PROBE_DIVERGING = "diverging"
PROBE_INCONCLUSIVE = "inconclusive"


@dataclass
class AEGFit:
    """Growth-rate and profile-convergence fit from a trajectory.

    ``lambda0_fit`` is the integrator-corrected Malthusian rate: the raw
    least-squares slope p of log(mass) under backward Euler estimates
    log(1/(1 - lambda*dt))/dt, so the generator eigenvalue is recovered
    as (1 - exp(-p*dt))/dt.  ``lambda0_raw`` keeps the uncorrected slope.
    """

    lambda0_fit: Optional[float]
    lambda0_raw: Optional[float]
    profile_decay_rate: Optional[float]
    residual: Optional[float]
    extinct: bool = False


@dataclass
class ProbeResult:
    """Outcome of the unbounded-domain resolvent truncation probe."""

    classification: str
    lam: float
    smax_list: list
    norms: list
    ratios: list


@dataclass
class SpectralReport:
    """Aggregated spectral quantities for one configuration."""

    s_A: float
    eigfun: Optional[StateVector]
    s_B_surrogate: Optional[float]      # None encodes the -inf marker
    s_B_divergent: bool
    lambda_star: Optional[float] = None
    eps_bar: Optional[float] = None
    Delta: Optional[float] = None
    gap: Optional[float] = None
    aeg_fit: Optional[AEGFit] = None
    probe: Optional[list] = None    # list of ProbeResult, one per lambda


def _certificate(gen: DiscreteGenerator, which: str,
                 lam: float) -> Optional[np.ndarray]:
    """(lambda*I - M)^{-1} 1 when it is strictly positive, else None.

    The selected block sum M has the Metzler sign pattern (nonnegative
    off-diagonal), so lambda lies above its spectral bound exactly when
    (lambda*I - M) is a nonsingular M-matrix, which holds iff this solve
    returns a strictly positive vector.
    """
    try:
        x = gen.factorization(lam, which).solve(np.ones(2 * gen.grid.n))
    except SpectralProximityError:
        return None
    if not np.all(np.isfinite(x)) or x.min() <= 0:
        return None
    return x


def _perron_bound_bisect(gen: DiscreteGenerator, which: str, hi: float,
                         x_hi: np.ndarray,
                         tol: float) -> tuple[float, np.ndarray]:
    """Bisection on the positivity certificate, from a certified ``hi``.

    The power loop's fallback for mixing kernels; ``x_hi`` is the
    certificate at ``hi``.  Only the returned ``hi`` is certified (an
    upper bound).  The shift where the computed certificate first fails
    is not a lower bound: for a strongly non-normal matrix it fails far
    above the spectrum (on the s>y kernel at n=800 near -471, with the
    exact bound at -800.38).
    """
    step = max(1.0, 0.01 * abs(hi))
    lo = hi - step
    while (x_lo := _certificate(gen, which, lo)) is not None:
        hi, x_hi = lo, x_lo
        step *= 2.0
        lo = hi - step
        if step > 1e12:
            raise NumericalError("could not bracket the spectral bound")
    while hi - lo > tol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        x_mid = _certificate(gen, which, mid)
        if x_mid is None:
            lo = mid
        else:
            hi, x_hi = mid, x_mid
    return hi, x_hi


def _cell_blocks(gen: DiscreteGenerator,
                 which: str) -> Optional[tuple[np.ndarray, ...]]:
    """2x2 diagonal cell blocks of a block lower triangular block sum.

    In per-cell (u1_i, u2_i) order the selected block sum M has the
    diagonal blocks [[a_i, b_i], [c_i, d_i]] = [[M[i, i], M[i, n+i]],
    [M[n+i, i], M[n+i, n+i]]], read off the generator's per-cell arrays.
    Returns (a, b, c, d) when no nonzero entry of M feeds a cell from a
    later one, so that M is block lower triangular and its spectrum is
    the union of the blocks'; None otherwise.  "A", "A+B1" and "B"
    always qualify; "full" qualifies exactly when the kernel does not
    mix (beta vanishes above the diagonal: no offspring is smaller than
    its parent).
    """
    if which not in WHICH_CHOICES:
        raise ConfigurationError(f"unknown operator selection {which!r}")
    if which == "full" and gen.kernel.cutoff_sums().any():
        return None
    if which == "A":
        a, d = -gen.outflow
    else:
        a, d = -(gen.outflow + gen.loss)
    if which == "full":
        a = a + gen.kernel.diagonal() * gen.grid.h
    if which in ("A", "A+B1"):
        b = c = np.zeros(gen.grid.n)
    else:
        b, c = gen.coupling
    return a, b, c, d


def _block_eigenvalues(a, b, c, d) -> np.ndarray:
    """Larger eigenvalue of each 2x2 block [[a, b], [c, d]] with b*c >= 0."""
    return 0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + b * c)


def _exact_bound(gen: DiscreteGenerator, which: str,
                 blocks: tuple) -> tuple[float, np.ndarray]:
    """Spectral bound and nonnegative eigenvector of a block triangular sum.

    The bound is the largest cell-block eigenvalue lambda, attained last
    at cell k.  The eigenvector is zero before cell k and the block's
    Perron vector v at cell k; the later cells solve
    (lambda - M_{>k,>k}) x = M_{>k,k} v, whose matrix is a nonsingular
    M-matrix because every later block eigenvalue lies below lambda.
    """
    a, b, c, d = blocks
    n = gen.grid.n
    lams = _block_eigenvalues(a, b, c, d)
    lam = float(lams.max())
    k = int(np.flatnonzero(lams == lam)[-1])
    # (b, lam - a) and (lam - d, c) both span the block's eigenvector;
    # lam >= max(a, d), so the one built on the larger gap cancels least
    if a[k] < d[k]:
        v = (b[k], lam - a[k])
    else:
        v = (lam - d[k], c[k])
    if v == (0.0, 0.0):     # the block is lam*I or [[lam, b], [0, lam]]
        v = (1.0, 0.0)
    x = np.zeros(2 * n)
    x[[k, n + k]] = v
    if k < n - 1:
        import scipy.sparse as sp
        from scipy.sparse.linalg import spsolve
        later = np.r_[k + 1:n, n + k + 1:2 * n]
        rows = gen.block_sum(which)[later]
        sub = sp.identity(len(later), format="csc") * lam \
            - rows[:, later].tocsc()
        x[later] = spsolve(sub, rows[:, [k, n + k]] @ np.array(v),
                           permc_spec="MMD_AT_PLUS_A")
    return lam, x


def _power_bound(gen: DiscreteGenerator, which: str, shift0: Optional[float],
                 tol: float, max_iter: int) -> tuple[float, np.ndarray]:
    """Shift-and-invert power iteration with certified shifts.

    Every shift passes the positivity certificate, so it lies above the
    spectral bound and the resolvent's dominant eigenvalue belongs to the
    Perron pair; a re-centred shift that fails it is rejected and the
    next move goes halfway back toward the current shift.
    """
    user_shift = shift0 is not None
    top = float(shift0) if user_shift else gen.infinity_norm() + 1.0
    x_top = _certificate(gen, which, top)
    if x_top is None:
        if user_shift:
            raise ConfigurationError(
                f"spectral.shift0 = {top:g} is not above the spectral bound "
                f"of the {which!r} operator")
        raise NumericalError("positivity certificate failed at the "
                             "initial shift")
    n2 = 2 * gen.grid.n
    sigma, floor = top, -math.inf    # certified shift, highest failed one
    x = np.full(n2, 1.0 / n2)
    lam = None
    for it in range(max_iter):
        y = gen.factorization(sigma, which).solve(x)
        theta = float(x @ y) / float(x @ x)
        if theta == 0 or not np.isfinite(theta):
            raise IterationError(
                f"degenerate inverse iteration at shift {sigma:g}",
                estimate=lam)
        lam_new = sigma - 1.0 / theta
        ynorm = float(np.abs(y).sum())
        x = y / ynorm
        if lam is not None and abs(lam_new - lam) < tol:
            lam = lam_new
            break
        lam = lam_new
        # re-center the shift once the estimate settles; keep a unit
        # offset so the factorization stays well away from the spectrum
        if sigma > lam + 10.0 or sigma < lam + 0.5:
            target = lam + 1.0
            if target <= floor:
                target = 0.5 * (floor + sigma)
            if _certificate(gen, which, target) is not None:
                sigma = target
            else:
                floor = max(floor, target)
    else:
        # slow algebraic convergence (large Jordan chains of the
        # refinement-divergent regime)
        lam = None
    if x.sum() < 0:
        x = -x
    if lam is None or x.min() < -1e-8 * max(x.max(), 1e-300):
        # severe non-normality leaves the iterate sign-indefinite; fall
        # back to the certificate bisection from the initial shift.  The
        # Perron root of these sign-structured operators is real, so a
        # complex dominant pair cannot be the cause.
        lam, x = _perron_bound_bisect(gen, which, hi=top, x_hi=x_top,
                                      tol=max(tol, 1e-6))
    return lam, x


def spectral_bound(gen: DiscreteGenerator, which: str = "full",
                   shift0: Optional[float] = None, tol: float = 1e-10,
                   max_iter: int = 500) -> tuple[float, StateVector]:
    """Rightmost real eigenvalue and nonnegative eigenvector of a block sum.

    A block sum that is block lower triangular in per-cell order (every
    sum without recruitment, and the full generator of a kernel that
    does not mix) is solved exactly from its 2x2 cell blocks, with no
    factorization of the whole matrix; ``shift0`` is not used there.
    Otherwise shift-and-invert power iteration: iterate
    x <- (sigma - M)^{-1} x, estimate the eigenvalue as sigma - 1/theta
    with theta the Rayleigh quotient of the inverse, and pull the shift
    down to estimate + 1 as the estimate stabilizes, accepting only
    shifts that the positivity certificate places above the bound.
    Positivity of the resolvent drives the iterates to the Perron pair.
    ConfigurationError when a given ``shift0`` is not above the bound.
    """
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    blocks = _cell_blocks(gen, which)
    if blocks is not None:
        lam, x = _exact_bound(gen, which, blocks)
    else:
        lam, x = _power_bound(gen, which, shift0, tol, max_iter)
    x = np.clip(x, 0.0, None)
    eig = StateVector.from_stacked(x, gen.grid)
    m = eig.mass
    if m > 0:
        eig.u1 /= m
        eig.u2 /= m
    return float(lam), eig


def recruitment_free_bound(gen: DiscreteGenerator) -> float:
    """Exact rightmost eigenvalue of the discrete recruitment-free operator.

    In per-cell (interleaved) ordering the discrete transport + loss +
    coupling operator is block lower triangular with the 2x2 diagonal
    blocks [[a_i, c2_i], [c1_i, d_i]], a_i = -gamma1(edge_{i+1})/h -
    mu_i - c1_i and d_i = -gamma2(edge_{i+1})/h - c2_i, so its spectrum
    is the union of the 2x2 blocks' eigenvalues -- immune to the
    non-normality that defeats iterative eigensolvers here.
    """
    return float(_block_eigenvalues(*_cell_blocks(gen, "B")).max())


def closed_form_sB(l1: float, c2: float, l_mu: float) -> float:
    """Closed-form spectral bound of the recruitment-free generator.

    Valid in the unbounded-domain regime with constant resting-phase
    return rate c2 and limits l1, l_mu of the transition and mortality
    rates at infinity: the bound is the larger root of
    P(x) = x^2 + x*(l1 + c2 + l_mu) + l_mu*c2.
    """
    for name, v in (("l1", l1), ("c2", c2), ("l_mu", l_mu)):
        if v < 0 or not np.isfinite(v):
            raise ConfigurationError(f"{name} must be finite and >= 0, got {v}")
    b = l1 + c2 + l_mu
    disc = b * b - 4.0 * l_mu * c2
    # disc = (l1 + (c2-l_mu))^2 + 2*l1*... >= (c2-l_mu)^2 >= 0 always
    return 0.5 * (-b + math.sqrt(max(disc, 0.0)))


def closed_form_poly(lam: float, l1: float, c2: float, l_mu: float) -> float:
    """Evaluate P(lam) = lam^2 + lam*(l1+c2+l_mu) + l_mu*c2."""
    return lam * lam + lam * (l1 + c2 + l_mu) + l_mu * c2


def spectral_gap_lower_bound(c1: float, c2: float, mu: float,
                             int_beta1: float) -> tuple[float, float, float]:
    """Explicit lower bound on the spectral gap for constant rates.

    For constant c1, c2, mu > 0 and int_beta1 = integral of the uniform
    kernel minorant, returns (eps_bar, Delta, lambda_star) with
    eps_bar = (-a + sqrt(Delta))/2, a = 2*lambda_star + c1 + c2 + mu
    - int_beta1 and Delta = a^2 + 4*(lambda_star + c2)*int_beta1.
    eps_bar > 0 exactly when int_beta1 > 0.
    """
    for name, v in (("c1", c1), ("c2", c2), ("mu", mu)):
        if v <= 0 or not np.isfinite(v):
            raise ConfigurationError(f"{name} must be finite and > 0, got {v}")
    if int_beta1 < 0:
        raise ConfigurationError(f"int_beta1 must be >= 0, got {int_beta1}")
    lambda_star = closed_form_sB(c1, c2, mu)
    a = 2.0 * lambda_star + c1 + c2 + mu - int_beta1
    Delta = a * a + 4.0 * (lambda_star + c2) * int_beta1
    assert Delta >= 0.0, "discriminant must be nonnegative for valid rates"
    eps_bar = 0.5 * (-a + math.sqrt(Delta))
    return eps_bar, Delta, lambda_star


def duhamel_solve(params: ModelParams, lam: float, h1: np.ndarray,
                  h2: np.ndarray) -> StateVector:
    """Solve the recruitment-free resolvent system by one forward sweep.

    Solves u1 = T1[h1 + c2*u2], u2 = T2[h2 + c1*u1] exactly, with T1, T2
    the quadratures of ``transport_sweep`` at decay rates lambda + mu + c1
    and lambda + c2.  IterationError when a cell block has no positive
    inverse or the solution overflows.
    """
    u = transport_sweep(params.grid.h, (params.gamma1, params.gamma2),
                        (lam + params.mu + params.c1, lam + params.c2),
                        (h1, h2), (params.c2, params.c1))
    if not np.isfinite(u).all():
        raise IterationError(
            f"recruitment-free resolvent overflowed at lambda={lam:g}")
    return StateVector(u[0], u[1], params.grid)


def _restrict_params(params: ModelParams, k: int) -> ModelParams:
    grid = params.grid
    sub = build_grid(grid.kind, k * grid.h, k)
    return ModelParams(grid=sub,
                       gamma1=params.gamma1[:k], gamma2=params.gamma2[:k],
                       mu=params.mu[:k], c1=params.c1[:k], c2=params.c2[:k],
                       gamma0=params.gamma0,
                       gamma1_edges=params.gamma1_edges[:k + 1],
                       gamma2_edges=params.gamma2_edges[:k + 1])


def sB_probe_infinite(params: ModelParams, kernel_zeroed: Optional[Kernel],
                      lam: float, smax_list) -> ProbeResult:
    """Classify lambda against the recruitment-free spectrum on [0, inf).

    Solves the coupled transport system with a fixed nonnegative
    source supported in [0, 1] on each truncation in ``smax_list``
    (increasing, all within the sampled domain; ConfigurationError when
    the mesh is too coarse to place the source) and watches the L1 norm:
    ratios of successive truncations all <= 1.02 classify as
    resolvent-bounded, all >= 1.2 as diverging, anything else as
    inconclusive.
    """
    if kernel_zeroed is not None and kernel_zeroed.column_sums().any():
        raise PreconditionError("the probe targets the recruitment-free "
                                "generator; pass a zero kernel or None")
    smax_list = sorted(float(s) for s in smax_list)
    if len(smax_list) < 2:
        raise ConfigurationError("need at least 2 truncations to classify")
    grid = params.grid
    if smax_list[-1] > grid.length + 1e-9:
        raise ConfigurationError("largest truncation exceeds the sampled domain")
    if grid.centers[0] > 1.0:
        raise ConfigurationError(
            f"no cell center lies in the probe source interval [0, 1] "
            f"(h = {grid.h:g}); refine the mesh")
    norms = []
    for smax in smax_list:
        k = int(round(smax / grid.h))
        if abs(k * grid.h - smax) > 1e-9 * max(smax, 1.0):
            raise ConfigurationError(
                f"truncation {smax:g} is not a whole number of cells")
        sub = _restrict_params(params, k)
        src = (sub.grid.centers <= 1.0).astype(float)
        U = duhamel_solve(sub, lam, src, src)
        norms.append(U.norm1())
    ratios = [norms[i + 1] / norms[i] if norms[i] > 0 else np.inf
              for i in range(len(norms) - 1)]
    if all(r <= 1.02 for r in ratios):
        cls = PROBE_BOUNDED
    elif all(r >= 1.2 for r in ratios):
        cls = PROBE_DIVERGING
    else:
        cls = PROBE_INCONCLUSIVE
    return ProbeResult(classification=cls, lam=lam, smax_list=smax_list,
                       norms=norms, ratios=ratios)


def detect_AEG(traj: Trajectory, eig_candidate: Optional[StateVector] = None) -> AEGFit:
    """Fit the Malthusian rate and profile convergence from a trajectory.

    Uses the dense per-step mass series for the growth rate and the
    decimated profile records for the shape convergence; both fits use
    the last half of the trajectory so the transient has died out.
    """
    t = traj.step_times
    m = traj.step_masses
    if len(t) < 2:
        raise InsufficientDataError("trajectory too short for a growth fit")
    lo = len(t) // 2
    if len(t) - lo < 20:
        raise InsufficientDataError(
            "fit window needs at least 20 mass records")
    if np.any(m[lo:] <= 0):
        return AEGFit(lambda0_fit=None, lambda0_raw=None,
                      profile_decay_rate=None, residual=None, extinct=True)
    p = float(np.polyfit(t[lo:], np.log(m[lo:]), 1)[0])
    dt = traj.dt
    lambda0 = (1.0 - math.exp(-p * dt)) / dt if dt > 0 else p

    # profile convergence over the recorded states
    rt = traj.times
    rlo = np.searchsorted(rt, t[lo])
    if eig_candidate is not None:
        ref = eig_candidate.copy()
        rm = ref.mass
        ref_u1, ref_u2 = ref.u1 / rm, ref.u2 / rm
    else:
        S = traj.states[-1]
        sm = S.mass
        ref_u1, ref_u2 = S.u1 / sm, S.u2 / sm
    h = traj.states[0].grid.h
    dists, dtimes = [], []
    for k in range(rlo, len(traj.states)):
        S = traj.states[k]
        sm = S.mass
        if sm <= 0:
            continue
        d = (np.abs(S.u1 / sm - ref_u1).sum()
             + np.abs(S.u2 / sm - ref_u2).sum()) * h
        dists.append(d)
        dtimes.append(rt[k])
    residual = dists[-1] if dists else None
    if eig_candidate is None and len(dists) >= 2:
        # the reference is the final profile itself; drop its zero distance
        dists, dtimes = dists[:-1], dtimes[:-1]
    usable = [(tt, dd) for tt, dd in zip(dtimes, dists) if dd > 1e-13]
    if len(usable) >= 3:
        tt = np.array([u[0] for u in usable])
        dd = np.log([u[1] for u in usable])
        decay = float(np.polyfit(tt, dd, 1)[0])
    else:
        decay = None
    return AEGFit(lambda0_fit=lambda0, lambda0_raw=p,
                  profile_decay_rate=decay, residual=residual)
