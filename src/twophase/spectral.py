"""Spectral quantities: discrete spectral bound, closed forms, probes, growth fits.

Four independent routes to spectral information are provided:

  * the rightmost eigenvalue and its nonnegative (Perron) eigenvector of
    the full generator, with a bracket and the name of its route,
    ``exact`` or ``characteristic`` (``spectral_bound``);
  * closed-form expressions for the recruitment-free spectral bound and
    the spectral-gap lower bound in the constant-tail regime;
  * a truncation probe that classifies a real lambda as inside/outside
    the recruitment-free spectrum on an unbounded domain from the
    resolvent of the generator's own B on growing truncations
    (``sB_probe_infinite``);
  * a trajectory fit extracting the Malthusian rate and the profile
    convergence rate (asynchronous exponential growth detection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConfigurationError, InsufficientDataError,
                     IterationError, NumericalError, SpectralProximityError)
from .evolution import Trajectory, row_integrals
from .operators import (DiscreteGenerator, StateVector, _BandedFactor,
                        _collatz_wielandt, _neumann_series, _next_generation,
                        _rounding_slack, _solve_recruitment_free,
                        block_eigenvalues)

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
    ``residual`` is the last record's L1 distance to the eigenfunction
    candidate, both normalised to unit mass; None without a candidate.
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
    """Aggregated spectral quantities for one configuration.

    ``s_A_route`` names how ``s_A`` was obtained (``exact`` or
    ``characteristic``) and ``s_A_bracket`` = (lo, hi) holds it.  On a
    finite domain ``s_B_divergent`` is true, since the recruitment-free
    semigroup moves all mass out of [0, m] in finite time and its
    spectrum is empty, and ``s_A_divergent`` records whether s_A lies
    below the level -gamma0/h + ||B1 + B2|| that only a mesh artifact of
    an empty continuum spectrum reaches; it is None on other domains.
    """

    s_A: float
    eigfun: Optional[StateVector]
    s_B_divergent: bool
    s_A_divergent: Optional[bool] = None
    lambda_star: Optional[float] = None
    eps_bar: Optional[float] = None
    Delta: Optional[float] = None
    gap: Optional[float] = None
    probe: Optional[list] = None    # list of ProbeResult, one per lambda
    s_A_route: Optional[str] = None
    s_A_bracket: Optional[tuple] = None


@dataclass
class SpectralBound:
    """Spectral bound, its eigenvector, route and bracket (lo, hi).

    Unpacks as the pair ``s, eigfun``.
    """

    s: float
    eigfun: StateVector
    route: str
    bracket: tuple

    def __iter__(self):
        return iter((self.s, self.eigfun))


def _exact_bound(gen: DiscreteGenerator) -> tuple[float, np.ndarray]:
    """Spectral bound, nonnegative eigenvector of a block triangular generator.

    The bound is the largest cell-block eigenvalue lambda, attained last
    at cell k.  The eigenvector is zero before cell k and the block's
    Perron vector v at cell k; one forward sweep with no source,
    ``gen.block_sweep`` with the head (k, v), rescaled by powers of two,
    gives each later cell.  Later block eigenvalues lie below lambda, so
    x >= 0.
    """
    a, b, c, d = gen.cell_blocks()
    lams = block_eigenvalues(a, b, c, d)
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
    return lam, gen.block_sweep(lam, np.zeros(2 * gen.grid.n), rescale=True,
                                head=(k, v))


class _Radius:
    """rho(K(lambda)), bounds low <= rho <= high, the solve x of the
    iterate v, and ``step(prev)`` toward rho = 1 from prev = (lambda, rho)
    before.  Not a dataclass, which costs 0.5 ms per import."""

    __slots__ = ("rho", "low", "high", "x", "v", "step")

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)


def characteristic_function(gen: DiscreteGenerator, lam: float,
                            rhs: Optional[np.ndarray] = None
                            ) -> tuple[float, np.ndarray]:
    """h g.x_1 and x = (lambda - B)^{-1} rhs for a rank-1 kernel f g^T.

    With the default rhs = (f, 0) the value is phi(lambda), the discrete
    characteristic function: the one nonzero eigenvalue of K(lambda) =
    h f g^T [(lambda - B)^{-1}]_11, so rho(K(lambda)).  With
    rhs = (lambda - B)^{-1}(f, 0) it is -phi'(lambda).  Valid for lambda
    above s_B, where phi is positive, decreasing and log-convex.
    """
    (f, g), n = gen.kernel.rank_one, gen.grid.n
    if rhs is None:
        rhs = np.concatenate([f, np.zeros(n)])
    x = _solve_recruitment_free(gen, lam, rhs)
    seen = g > 0        # cells g ignores add nothing, even where x is inf
    with np.errstate(over="ignore"):    # a sum past the float range is inf
        return gen.grid.h * float(g[seen] @ x[:n][seen]), x


def _radius(gen: DiscreteGenerator, lam: float, v: np.ndarray,
            steps) -> _Radius:
    """rho(K(lambda)): phi with a Newton step on log phi for a rank-1
    kernel, else power steps v <- K v / max(K v) from v >= 0 (positive on
    the row support) with a secant step on log rho.

    Each step bounds rho by the min and, where K v vanishes wherever v
    does, the max of (K v)_i / v_i over v_i > 0 (Collatz-Wielandt),
    widened by the rounding of K v, sums of nonnegative terms: 4 n eps.
    The steps stop at bounds on one side of 1 within |rho - 1| / 100 of
    each other, so that secant steps see rho = sum(K v) / sum(v) to 1%.
    A first stall turns them to K / max(K v) + I, which damps a cycling
    K, a second stops them.  A lower bound that stalls where a reducible
    K's Perron vector vanishes is retaken with the entries that did not
    grow zeroed.  Each product after the first draws on ``steps``.
    """
    if gen.kernel.rank_one is not None:
        phi, x = characteristic_function(gen, lam)

        def newton(prev):
            dphi = (-characteristic_function(gen, lam, x)[0]
                    if 0.0 < phi < math.inf else math.nan)
            return (-math.log(phi) * phi / dphi if -math.inf < dphi < 0.0
                    else math.nan)
        return _Radius(phi, phi, phi, x, gen.kernel.rank_one[0], newton)
    slack = _rounding_slack(gen.grid.n)
    low, high, damped = 0.0, math.inf, False
    with np.errstate(over="ignore"):
        while True:
            y, x = _next_generation(gen, lam, v)
            top, (q_lo, q_hi) = y.max(), _collatz_wielandt(y, v)
            rho = float(y.sum() / v.sum())
            step_low = float(q_lo) * (1 - slack)
            step_high = (1 + slack) * float(q_hi)
            if (min(high, step_high) - max(low, step_low)
                    >= 0.999 * (high - low)):   # a stall, or a cycle
                if damped:
                    break
                damped = True
            low, high = max(low, step_low), min(high, step_high)
            if ((low > 1 or high <= 1) and high - low <= 0.01 * abs(rho - 1)
                    or top == math.inf or next(steps, None) is None):
                break
            v = y / top + v / v.max() if damped else y / top
        w = np.where(y > v, v, 0.0)
        if low <= 1.0 < rho and w.any() and next(steps, None) is not None:
            kw = _next_generation(gen, lam, w)[0]
            low = max(low, float(_collatz_wielandt(kw, w)[0]) * (1 - slack))

    def secant(prev):
        finite = 0.0 < rho < math.inf and 0.0 < prev[1] < math.inf
        d = math.log(rho) - math.log(prev[1]) if finite else 0.0
        return -math.log(rho) * (lam - prev[0]) / d if d else math.nan
    return _Radius(rho, low, high, x, v, secant)


def _characteristic_bound(gen: DiscreteGenerator, tol: float,
                          max_iter: int):
    """Root of rho(K(lambda)) = 1 above s_B for a mixing kernel.

    [lo, hi] opens at [s_B, ``gen.line_sum_bound()`` + 1], where rho < 1.
    An evaluation (``_radius``) moves lo where its lower bound of rho
    exceeds 1, hi where its upper bound is <= 1; its step, or a bisection
    where that leaves [lo, hi], gives the next, until hi - lo is within
    tol * max(1, |hi|) or the floor that rho's rounding allows.  The
    eigenvector is the solve at the end with rho nearer 1.  s_A = s_B
    where rho(K(s_B+)) <= 1, evaluated once the loop bisects or ends.
    """
    s_B, steps = recruitment_free_bound(gen), iter(range(max_iter))
    hi, v, prev = gen.line_sum_bound() + 1.0, None, None
    if gen.kernel.rank_one is None:     # for a first secant step
        far = _radius(gen, hi + 1.0, (gen.kernel.row_sums() > 0) * 1.0, steps)
        v, prev = far.v, (hi + 1.0, far.rho)
    at_hi = _radius(gen, hi, v, steps)
    if at_hi.high >= 1.0:
        raise NumericalError("rho(K) is not below 1 at the initial shift")
    lo, at_lo = s_B, None       # rho(K(s_B+)) is evaluated only when needed
    lam, at, step, s_B_up = hi, at_hi, math.inf, np.nextafter(s_B, math.inf)
    slack, floor = _rounding_slack(gen.grid.n), 0.0
    for _ in steps:
        if hi - lo <= max(tol * max(1.0, abs(hi)), floor):
            break
        width = tol * max(1.0, abs(lam))
        sided, fresh = at.low > 1.0 or at.high <= 1.0, abs(step) > 0.25 * width
        if fresh:
            step = at.step(prev)
        if fresh and (sided or abs(step) > 0.25 * width):
            nxt = lam + step
        else:
            # across the root toward the farther end; where rho is 1 within
            # its rounding, by twice that over the slope of log rho through
            # prev, then once more: the bracket stops at that floor
            across = 0.5 * width
            if not sided:
                rise = abs(math.log(prev[1])) if 0 < prev[1] < math.inf else 0
                across = (2 * slack * abs(lam - prev[0]) / rise if rise
                          else 0.25 * width)
                floor = max(floor, 2 * across)
            nxt = lam + across * (1 if hi - lam > lam - lo else -1)
            step = math.inf if sided else 0.0
        if not lo < nxt < hi:
            if at_lo is None:      # is there a root above s_B at all?
                at_lo = _radius(gen, s_B_up, at.v, steps)
                if at_lo.high <= 1.0:
                    break
            nxt, step = 0.5 * (lo + hi), math.inf
            if not lo < nxt < hi:       # lo and hi are adjacent floats
                break
        prev, lam = (lam, at.rho), nxt
        at = _radius(gen, lam, at.v, steps)
        if at.low > 1.0:
            lo, at_lo = lam, at
        elif at.high <= 1.0:
            hi, at_hi = lam, at
    else:
        raise IterationError(
            f"characteristic equation did not settle in {max_iter} steps: "
            f"s_A in [{lo:.12g}, {hi:.12g}]", estimate=hi, bracket=(lo, hi))
    if at_lo is None:
        at_lo = _radius(gen, s_B_up, at.v, steps)
    if at_lo.high <= 1.0:
        return s_B, _boundary_eigenvector(gen, s_B, at_lo, steps), (s_B, s_B)
    lam, at = min((hi, at_hi), (lo, at_lo), key=lambda end: math.inf
                  if end[1].rho <= 0 else abs(math.log(end[1].rho)))
    x = at.x
    if not np.isfinite(x).all():    # the solve overflowed: redo it scaled
        rhs = np.concatenate([at.v, np.zeros(gen.grid.n)])
        x = gen.recruitment_free.block_sweep(lam, rhs, rescale=True)
    return lam, x, (lo, hi)


def _boundary_eigenvector(gen: DiscreteGenerator, s_B: float, at: _Radius,
                          steps) -> np.ndarray:
    """Nonnegative eigenvector for s_A = s_B; ``at`` is at lambda = s_B+.

    With x_B the Perron vector of B, M x = s_B x for x = alpha x_B + h w,
    w = (lambda - B)^{-1}(f, 0), alpha = (1 - phi) / (g.x_B1) for a
    rank-1 kernel, else for the Neumann series of x_B and h beta x_B1
    (``operators._neumann_series``), its terms drawing on ``steps``.  x_B
    when beta x_B1 = 0 or x overflows.
    """
    n, x_B = gen.grid.n, _exact_bound(gen.recruitment_free)[1]
    if gen.kernel.rank_one is not None:
        seen = float(gen.kernel.rank_one[1] @ x_B[:n])
        if seen > 0 and np.isfinite(at.x).all():
            return (1.0 - at.rho) / seen * x_B + gen.grid.h * at.x
        return x_B
    d = gen.grid.h * gen.kernel.apply(x_B[:n])
    try:
        x = _neumann_series(gen, np.nextafter(s_B, math.inf), x_B, d, steps)
    except IterationError:
        raise IterationError("eigenvector series for s_A = s_B did not "
                             "settle", estimate=s_B, bracket=(s_B, s_B))
    return x_B if x is None else x


def spectral_bound(gen: DiscreteGenerator, *, tol: float = 1e-10,
                   max_iter: int = 500) -> SpectralBound:
    """Rightmost real eigenvalue and nonnegative eigenvector of the full
    generator, by one of two routes chosen from the operator's structure:

      * ``exact``: a generator that is block lower triangular in
        per-cell order (no recruitment, or a kernel that does not mix)
        is solved from its 2x2 cell blocks; the bracket is (s, s);
      * ``characteristic``: every mixing kernel.  The splitting
        lambda - M = (lambda - B) - h beta is regular, so s is s_B or the
        root above it of rho(K(lambda)) = 1, K(lambda) = h beta
        [(lambda - B)^{-1}]_11 the next-generation operator (phi for a
        rank-1 kernel), with rho(K(lo)) > 1 >= rho(K(hi)) and hi - lo
        <= tol * max(1, |hi|) or the floor that rho's rounding allows.

    The options are keyword-only; ``max_iter`` >= 1 bounds evaluations and
    power steps together, and IterationError carries the bracket reached.
    """
    if tol <= 0 or max_iter < 1:
        raise ConfigurationError("tol must be positive, max_iter >= 1")
    if gen.cell_blocks() is not None:
        route = "exact"
        lam, x = _exact_bound(gen)
        bracket = (lam, lam)
    else:
        route = "characteristic"
        lam, x, bracket = _characteristic_bound(gen, tol, max_iter)
    x = np.clip(x, 0.0, None)
    eig = StateVector.from_stacked(x, gen.grid)
    m = eig.mass
    if m > 0:
        eig.u1 /= m
        eig.u2 /= m
    return SpectralBound(float(lam), eig, route,
                         tuple(float(v) for v in bracket))


def recruitment_free_bound(gen: DiscreteGenerator) -> float:
    """Exact rightmost eigenvalue of the discrete recruitment-free operator.

    In per-cell (interleaved) ordering the discrete transport + loss +
    coupling operator is block lower triangular with the 2x2 diagonal
    blocks [[a_i, c2_i], [c1_i, d_i]], a_i = -gamma1(edge_{i+1})/h -
    mu_i - c1_i and d_i = -gamma2(edge_{i+1})/h - c2_i, so its spectrum
    is the union of the 2x2 blocks' eigenvalues -- immune to the
    non-normality that defeats iterative eigensolvers here.
    """
    return float(block_eigenvalues(*gen.recruitment_free.cell_blocks()).max())


def closed_form_sB(l1: float, c2: float, l_mu: float) -> float:
    """Closed-form spectral bound of the recruitment-free generator.

    Valid in the unbounded-domain regime with constant resting-phase
    return rate c2 and limits l1, l_mu of the transition and mortality
    rates at infinity: the bound is the larger root of
    P(x) = x^2 + x*b + l_mu*c2, b = l1 + c2 + l_mu, taken as
    -2*l_mu*c2/(b + sqrt(disc)), which does not cancel, with the
    discriminant disc = (c2 - l_mu)^2 + l1*(l1 + 2*(c2 + l_mu)) >= 0 a
    sum of nonnegative terms.
    """
    for name, v in (("l1", l1), ("c2", c2), ("l_mu", l_mu)):
        if v < 0 or not np.isfinite(v):
            raise ConfigurationError(f"{name} must be finite and >= 0, got {v}")
    if l_mu * c2 == 0.0:    # P(0) = 0 and b >= 0: the larger root is 0
        return 0.0
    disc = (c2 - l_mu) ** 2 + l1 * (l1 + 2.0 * (c2 + l_mu))
    return -2.0 * l_mu * c2 / (l1 + c2 + l_mu + math.sqrt(disc))


def spectral_gap_lower_bound(c1: float, c2: float, mu: float,
                             int_beta1: float) -> tuple[float, float, float]:
    """Explicit lower bound on the spectral gap for constant rates.

    For constant c1, c2, mu > 0 and int_beta1 = integral of the uniform
    kernel minorant, returns (eps_bar, Delta, lambda_star) with
    eps_bar = (-a + sqrt(Delta))/2, a = 2*lambda_star + c1 + c2 + mu
    - int_beta1 and Delta = a^2 + 4*(lambda_star + c2)*int_beta1, each
    difference evaluated in a form that does not cancel.  eps_bar > 0
    exactly when int_beta1 > 0.
    """
    for name, v in (("c1", c1), ("c2", c2), ("mu", mu)):
        if v <= 0 or not np.isfinite(v):
            raise ConfigurationError(f"{name} must be finite and > 0, got {v}")
    if int_beta1 < 0:
        raise ConfigurationError(f"int_beta1 must be >= 0, got {int_beta1}")
    lambda_star = closed_form_sB(c1, c2, mu)
    a = 2.0 * lambda_star + c1 + c2 + mu - int_beta1
    # lambda_star + c2 is the positive root of y^2 + (mu - c2 + c1)*y
    # - c1*c2 (the closed-form polynomial at x = y - c2), taken without
    # the cancellation of the sum, so that Delta >= 0 in floating point
    shifted = _positive_root(mu - c2 + c1, c1 * c2)
    Delta = a * a + 4.0 * shifted * int_beta1
    return _positive_root(a, shifted * int_beta1), Delta, lambda_star


def _positive_root(b: float, c: float) -> float:
    """The root (-b + sqrt(b^2 + 4c))/2 >= 0 of x^2 + b*x - c, c >= 0,
    as 2c/(b + sqrt(b^2 + 4c)) when b > 0, where the difference would
    cancel."""
    d = math.sqrt(b * b + 4.0 * c)
    return 2.0 * c / (b + d) if b > 0 else 0.5 * (-b + d)


def sB_probe_infinite(gen: DiscreteGenerator, lam: float,
                      smax_list) -> ProbeResult:
    """Classify lambda against the recruitment-free spectrum on [0, inf).

    Solves (lambda - B) x = (src, src), B = ``gen.recruitment_free`` and
    src the indicator of the cells in [0, 1], on the first K cells, K
    those of the largest truncation: one banded factor of B's cell
    blocks and inflow on those cells alone.  It watches the L1 norm of
    each truncation's prefix of x: the banded solve is causal, so a
    prefix equals the solve on that truncation, bit for bit.
    ``smax_list`` is increasing and inside the sampled domain;
    ConfigurationError when the mesh cannot place the source or two
    truncations hold the same number of cells, whose ratio of exactly 1
    would read as bounded.  Ratios of successive truncations all <= 1.02
    classify as resolvent-bounded, all >= 1.2 as diverging, anything else
    as inconclusive.  SpectralProximityError unless lambda lies above
    every cell block of the K cells, where x >= 0; IterationError when a
    prefix overflows.
    """
    smax_list = sorted(float(s) for s in smax_list)
    if len(smax_list) < 2:
        raise ConfigurationError("need at least 2 truncations to classify")
    grid = gen.grid
    if smax_list[-1] > grid.length + 1e-9:
        raise ConfigurationError("largest truncation exceeds the sampled domain")
    if grid.centers[0] > 1.0:
        raise ConfigurationError(
            f"no cell center lies in the probe source interval [0, 1] "
            f"(h = {grid.h:g}); refine the mesh")
    ks = [int(round(smax / grid.h)) for smax in smax_list]
    for smax, k in zip(smax_list, ks):
        if k < 2 or abs(k * grid.h - smax) > 1e-9 * max(smax, 1.0):
            raise ConfigurationError(f"truncation {smax:g} is not a whole "
                                     f"number (>= 2) of cells")
    for i in range(len(ks) - 1):
        if ks[i] == ks[i + 1]:
            raise ConfigurationError(
                f"truncations {smax_list[i]:g} and {smax_list[i + 1]:g} both "
                f"hold {ks[i]} cells")
    K, B = ks[-1], gen.recruitment_free
    fact = _BandedFactor(lam, tuple(v[:K] for v in B.cell_blocks()),
                         B.inflow[:, :K - 1], 1.0)
    if not fact.above:
        raise SpectralProximityError(
            f"lambda={lam:g} does not lie above the spectral bound of the "
            f"recruitment-free operator on [0, {smax_list[-1]:g}]", lam=lam)
    src = (grid.centers[:K] <= 1.0).astype(float)
    with np.errstate(all="ignore"):     # an overflow is reported below
        x = fact.solve(np.concatenate([src, src]))
        norms = [float((x[:k].sum() + x[K:K + k].sum()) * grid.h)
                 for k in ks]
    if not np.isfinite(norms).all():
        raise IterationError(
            f"recruitment-free resolvent overflowed at lambda={lam:g}")
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
    the last half of the trajectory so the transient has died out.  The
    profiles converge toward ``eig_candidate`` when given, else toward
    the last record.
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

    # profile convergence over the recorded states in the window
    rlo = np.searchsorted(traj.times, t[lo])
    X = traj.records[rlo:]
    masses = row_integrals(X, traj.grid)
    if eig_candidate is not None:
        ref = eig_candidate.stacked() / eig_candidate.mass
    else:
        ref = X[-1] / masses[-1]
    live = masses > 0
    dists = row_integrals(np.abs(X[live] / masses[live, None] - ref),
                          traj.grid)
    dtimes = traj.times[rlo:][live]
    residual = (float(dists[-1])
                if eig_candidate is not None and dists.size else None)
    if eig_candidate is None and dists.size >= 2:
        # the reference is the final profile itself; drop its zero distance
        dists, dtimes = dists[:-1], dtimes[:-1]
    usable = dists > 1e-13
    decay = (float(np.polyfit(dtimes[usable], np.log(dists[usable]), 1)[0])
             if usable.sum() >= 3 else None)
    return AEGFit(lambda0_fit=lambda0, lambda0_raw=p,
                  profile_decay_rate=decay, residual=residual)
