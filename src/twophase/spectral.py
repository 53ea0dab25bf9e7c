"""Spectral quantities: discrete spectral bound, closed forms, probes, growth fits.

Four independent routes to spectral information are provided:

  * the rightmost eigenvalue and its nonnegative (Perron) eigenvector of
    the full generator, with a bracket and the name of the route that
    produced them:
      - ``exact``: read off the 2x2 cell blocks when the generator is
        block lower triangular in per-cell order (no recruitment, or a
        kernel that does not mix), the eigenvector by the forward sweep
        ``DiscreteGenerator.block_sweep``;
      - ``characteristic``: for a mixing rank-1 kernel beta = f g^T, the
        root above s_B of the discrete characteristic equation
        phi(lambda) = h g.[(lambda - B)^{-1}(f, 0)]_1 = 1, each phi one
        O(n) banded factor of lambda - B, with a bracket
        phi(lo) > 1 >= phi(hi);
      - ``power``: shift-and-invert power iteration for every other
        kernel, on shifts certified by the factor's own positivity test
        (the implicit step's), bracketed from its last solve;
    both iterative routes open 1 above the generator's line-sum bound,
    which lies above its spectral bound;
  * closed-form expressions for the recruitment-free spectral bound and
    the spectral-gap lower bound in the constant-tail regime;
  * a truncation probe that classifies a real lambda as inside/outside
    the recruitment-free spectrum on an unbounded domain from the
    resolvent of the generator's own B on growing truncations: one banded
    factor on the cells of the largest, each truncation a prefix of its
    solve;
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

    ``s_A_route`` names how ``s_A`` was obtained (``exact``,
    ``characteristic`` or ``power``) and ``s_A_bracket`` = (lo, hi)
    holds it.  On a finite domain ``s_B_divergent`` is true, since the
    recruitment-free semigroup moves all mass out of [0, m] in finite
    time and its spectrum is empty, and ``s_A_divergent`` records whether
    s_A lies below the level -gamma0/h + ||B1 + B2|| that only a mesh
    artifact of an empty continuum spectrum reaches; ``s_A_divergent``
    is None on other domains.
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


def characteristic_function(gen: DiscreteGenerator, lam: float,
                            rhs: Optional[np.ndarray] = None
                            ) -> tuple[float, np.ndarray]:
    """h g.x_1 and x = (lambda - B)^{-1} rhs for a rank-1 kernel f g^T.

    With the default rhs = (f, 0) the value is phi(lambda), the discrete
    characteristic function; with rhs = (lambda - B)^{-1}(f, 0) it is
    -phi'(lambda).  Valid for lambda above s_B, where phi is positive,
    decreasing and log-convex.  x comes from the banded factor of
    lambda - B (``gen.recruitment_free.factorization(lam)``, kept for the
    next solve at the same lambda).  Where that overflows, its 0 * inf
    products put NaN even into entries that stay finite, so the
    evaluation is redone by one forward sweep of B
    (``DiscreteGenerator.block_sweep``), which reads an overflow as +inf,
    never NaN (most often at s_B+, see ``_characteristic_bound``).
    """
    f, g = gen.kernel.rank_one
    n, B = gen.grid.n, gen.recruitment_free
    if rhs is None:
        rhs = np.concatenate([f, np.zeros(n)])
    with np.errstate(all="ignore"):
        x = B.factorization(lam).solve(rhs)
    if not np.isfinite(x).all():
        x = B.block_sweep(lam, rhs)
    seen = g > 0        # cells g ignores add nothing, even where x is inf
    with np.errstate(over="ignore"):    # a sum past the float range is inf
        return gen.grid.h * float(g[seen] @ x[:n][seen]), x


def _characteristic_bound(gen: DiscreteGenerator, tol: float,
                          max_iter: int):
    """Root of phi(lambda) = 1 above s_B for a mixing rank-1 kernel.

    A safeguarded Newton iteration on log phi (convex and decreasing)
    inside the bracket [lo, hi] with phi(lo) > 1 >= phi(hi), which opens
    at [s_B, ``gen.line_sum_bound()`` + 1], s_B from
    ``recruitment_free_bound`` (the line-sum bound lies above s_A, so
    phi < 1 there); every evaluation (one banded factor of lambda - B,
    whose second solve gives phi') moves one end, a step that leaves the
    bracket is a bisection, and the loop stops at
    hi - lo <= tol * max(1, |hi|).  Once a Newton step falls well inside
    the tolerance, the point it reached is the root to far better than
    tol, and one evaluation just across it closes the bracket.  The
    eigenvector is the solve (lambda - B)^{-1}(f, 0) at the end with phi
    nearer 1, redone as a forward sweep of ``gen.recruitment_free``
    rescaled by powers of two where that solve overflowed.  phi(s_B+),
    whose solve often overflows, is solved once, when the loop first
    bisects or ends while lo is still s_B: Newton steps land below the
    root, so with none above s_B the first one bisects, phi(s_B+) <= 1
    and s_A = s_B (see ``_boundary_eigenvector``).
    """
    s_B = recruitment_free_bound(gen)
    hi = gen.line_sum_bound() + 1.0
    phi_hi, x_hi = characteristic_function(gen, hi)
    if phi_hi >= 1.0:
        raise NumericalError("characteristic function is not below 1 at "
                             "the initial shift")
    lo, phi_lo = s_B, None      # phi(s_B+) is solved only when needed
    s_B_up = np.nextafter(s_B, math.inf)
    lam, phi, x, step = hi, phi_hi, x_hi, math.inf
    for _ in range(max_iter):
        if hi - lo <= tol * max(1.0, abs(hi)):
            break
        width = tol * max(1.0, abs(lam))
        if abs(step) <= 0.25 * width:
            # a Newton step this short left lambda on the root to far
            # within tol: step just across it
            nxt, step = lam + 0.5 * width * (1 if phi > 1 else -1), math.inf
        else:
            step = _newton_step(gen, lam, phi, x)
            nxt = lam + step
        if not lo < nxt < hi:
            if phi_lo is None:      # is there a root above s_B at all?
                phi_lo, x_lo = characteristic_function(gen, s_B_up)
                if phi_lo <= 1.0:
                    break
            nxt, step = 0.5 * (lo + hi), math.inf
            if not lo < nxt < hi:       # lo and hi are adjacent floats
                break
        lam = nxt
        phi, x = characteristic_function(gen, lam)
        if phi > 1.0:
            lo, phi_lo, x_lo = lam, phi, x
        else:
            hi, phi_hi, x_hi = lam, phi, x
    else:
        raise IterationError(
            f"characteristic equation did not settle in {max_iter} steps: "
            f"s_A in [{lo:.12g}, {hi:.12g}]", estimate=hi, bracket=(lo, hi))
    if phi_lo is None:
        phi_lo, x_lo = characteristic_function(gen, s_B_up)
    if phi_lo <= 1.0:
        return s_B, _boundary_eigenvector(gen, phi_lo, x_lo), (s_B, s_B)

    def distance(p):
        return abs(math.log(p)) if p > 0 else math.inf
    lam, x = (lo, x_lo) if distance(phi_lo) < distance(phi_hi) else (hi, x_hi)
    if not np.isfinite(x).all():    # the solve overflowed: redo it scaled
        rhs = np.concatenate([gen.kernel.rank_one[0], np.zeros(gen.grid.n)])
        x = gen.recruitment_free.block_sweep(lam, rhs, rescale=True)
    return lam, x, (lo, hi)


def _newton_step(gen: DiscreteGenerator, lam: float, phi: float,
                 x: np.ndarray) -> float:
    """Newton step on log phi from lambda, NaN when phi or phi' is not
    finite and nonzero (x is the solve that gave phi; phi' is a second
    solve on the same factor)."""
    if not 0.0 < phi < math.inf:
        return math.nan
    dphi = -characteristic_function(gen, lam, x)[0]
    if not -math.inf < dphi < 0.0:
        return math.nan
    return -math.log(phi) * phi / dphi


def _boundary_eigenvector(gen: DiscreteGenerator, phi: float,
                          w: np.ndarray) -> np.ndarray:
    """Nonnegative eigenvector for s_A = s_B when phi(s_B+) <= 1.

    With x_B the Perron vector of B and w = (s_B+ - B)^{-1}(f, 0), the
    vector x = alpha x_B + h w with alpha = (1 - phi)/(g.x_B1) solves
    M x = s_B x, since h g.w_1 = phi; when g.x_B1 = 0, x_B itself does.
    """
    n = gen.grid.n
    g = gen.kernel.rank_one[1]
    x_B = _exact_bound(gen.recruitment_free)[1]
    seen = float(g @ x_B[:n])
    if seen > 0 and np.isfinite(w).all():
        return (1.0 - phi) / seen * x_B + gen.grid.h * w
    return x_B


def _power_bound(gen: DiscreteGenerator, tol: float, max_iter: int):
    """Shift-and-invert power iteration with certified shifts.

    The first shift is ``gen.line_sum_bound()`` + 1.  Every shift is
    fetched as ``gen.factorization(sigma, above=True)``, whose positivity
    certificate (the one the implicit step uses) places it above the
    spectral bound, so the resolvent's dominant eigenvalue belongs to the
    Perron pair and (sigma - M)^{-1} >= 0 keeps the positive start vector
    nonnegative; the certified factor is kept for the solves.  A re-centred shift that fails it is rejected, the
    current factor stays, and the next move goes halfway back toward the
    current shift.  Returns the estimate, the final iterate and the
    Collatz-Wielandt bracket of the last solve y = (sigma - M)^{-1} x:
    min and max of y_i/x_i over x_i > 0 bound 1/(sigma - s_A), the max
    only if x > 0; IterationError, carrying that bracket, when
    ``max_iter`` runs out or the final iterate is not strictly positive.
    """
    top = gen.line_sum_bound() + 1.0
    try:
        fact = gen.factorization(top, above=True)
    except SpectralProximityError:
        raise NumericalError("positivity certificate failed at the "
                             "initial shift")
    n2 = 2 * gen.grid.n
    sigma, floor = top, -math.inf    # certified shift, highest failed one
    x = np.full(n2, 1.0 / n2)
    lam = problem = None
    for it in range(max_iter):
        y = fact.solve(x)
        theta = float(x @ y) / float(x @ x)
        if theta == 0 or not np.isfinite(theta):
            raise IterationError(
                f"degenerate inverse iteration at shift {sigma:g}",
                estimate=lam)
        lam_new = sigma - 1.0 / theta
        ynorm = float(np.abs(y).sum())
        prev, solved_at, x = x, sigma, y / ynorm
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
            try:
                fact = gen.factorization(target, above=True)
                sigma = target
            except SpectralProximityError:
                floor = max(floor, target)
    else:
        problem = f"did not settle in {max_iter} steps"
    if problem is None and x.min() <= 0:
        problem = "ended on an iterate that is not strictly positive"
    pos = prev > 0
    ratio = y[pos] / prev[pos]      # a zero ratio puts the lower end at -inf
    r_lo, r_hi = float(ratio.min()), float(ratio.max())
    bracket = (solved_at - 1.0 / r_lo if r_lo > 0 else -math.inf,
               solved_at - 1.0 / r_hi if pos.all() else math.inf)
    if problem is not None:
        raise IterationError(
            f"power iteration {problem}: s_A in [{bracket[0]:.12g}, "
            f"{bracket[1]:.12g}]", estimate=lam, bracket=bracket)
    return lam, x, bracket


def spectral_bound(gen: DiscreteGenerator, *, tol: float = 1e-10,
                   max_iter: int = 500) -> SpectralBound:
    """Rightmost real eigenvalue and nonnegative eigenvector of the full
    generator.

    Three routes, chosen from the operator's structure:

      * ``exact``: a generator that is block lower triangular in
        per-cell order (no recruitment, or a kernel that does not mix)
        is solved from its 2x2 cell blocks, with no factorization of the
        whole matrix; the bracket is (s, s);
      * ``characteristic``: a mixing rank-1 kernel f g^T; s is the root
        above s_B of phi(lambda) = h g.[(lambda - B)^{-1}(f, 0)]_1 = 1
        (s = s_B when phi(s_B+) <= 1, solved only where needed), found by
        safeguarded Newton on log phi from O(n) banded factors of
        lambda - B (a forward sweep where the factor overflows), with no
        LU; the bracket (lo, hi) has phi(lo) > 1 >= phi(hi) and
        hi - lo <= tol * max(1, |hi|);
      * ``power``: every other kernel (tables, callables, ``s<y``), by
        shift-and-invert power iteration x <- (sigma - M)^{-1} x that
        estimates the eigenvalue as sigma - 1/theta (theta the Rayleigh
        quotient of the inverse) until successive estimates differ by
        less than ``tol``, and pulls the shift down to estimate + 1,
        accepting only shifts that the factor's own positivity
        certificate (``DiscreteGenerator.factorization`` with ``above``,
        as for the implicit step) places above the bound; the bracket is
        the Collatz-Wielandt bracket of the last solve, not of M.

    The characteristic bracket opens from above, and the power iteration
    takes its first shift, at 1 above the line-sum bound of the full
    generator (``DiscreteGenerator.line_sum_bound``), which its Metzler
    sign pattern places above the spectral bound.  The options are
    keyword-only (``max_iter`` >= 1); the recruitment-free bound s_B is
    ``recruitment_free_bound``.  IterationError (with the bracket
    reached) when an iterative route does not settle in ``max_iter``
    steps or, for the power route, ends on an iterate that is not
    strictly positive.
    """
    if tol <= 0 or max_iter < 1:
        raise ConfigurationError("tol must be positive, max_iter >= 1")
    if gen.cell_blocks() is not None:
        route = "exact"
        lam, x = _exact_bound(gen)
        bracket = (lam, lam)
    elif gen.kernel.rank_one is not None:
        route = "characteristic"
        lam, x, bracket = _characteristic_bound(gen, tol, max_iter)
    else:
        route = "power"
        lam, x, bracket = _power_bound(gen, tol, max_iter)
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


def closed_form_poly(lam: float, l1: float, c2: float, l_mu: float) -> float:
    """Evaluate P(lam) = lam^2 + lam*(l1+c2+l_mu) + l_mu*c2."""
    return lam * lam + lam * (l1 + c2 + l_mu) + l_mu * c2


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
