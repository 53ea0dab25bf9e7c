"""Spectral quantities: discrete spectral bound, closed forms, probes, growth fits.

Four independent routes to spectral information are provided:

  * the rightmost eigenvalue and its nonnegative (Perron) eigenvector of
    any assembled block sum, with a bracket and the name of the route
    that produced them:
      - ``exact``: read off the 2x2 cell blocks when the sum is block
        lower triangular in per-cell order (no recruitment, or a kernel
        that does not mix);
      - ``characteristic``: for a mixing rank-1 kernel beta = f g^T, the
        root above s_B of the discrete characteristic equation
        phi(lambda) = h g.[(lambda - B)^{-1}(f, 0)]_1 = 1, each phi one
        O(n) forward sweep, with a bracket phi(lo) > 1 >= phi(hi);
      - ``power``: shift-and-invert power iteration on certified shifts
        for every other kernel, with a Collatz-Wielandt bracket;
  * closed-form expressions for the recruitment-free spectral bound and
    the spectral-gap lower bound in the constant-tail regime;
  * a truncation probe that classifies a real lambda as inside/outside
    the recruitment-free spectrum on an unbounded domain by solving the
    coupled transport system on growing truncations, one forward sweep for all;
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
from .model import LOWER, Kernel, ModelParams, build_grid
from .operators import (DiscreteGenerator, StateVector, block_eigenvalues,
                        cell_inverse, transport_sweep)

PROBE_BOUNDED = "resolvent-bounded"
PROBE_DIVERGING = "diverging"
PROBE_INCONCLUSIVE = "inconclusive"

# the exact route's sweep rescales by exact powers of 2
_HUGE, _TINY = 2.0 ** 512, 2.0 ** -512


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
    """Aggregated spectral quantities for one configuration.

    ``s_A_route`` names how ``s_A`` was obtained (``exact``,
    ``characteristic`` or ``power``) and ``s_A_bracket`` = (lo, hi)
    holds it.  On a finite domain ``s_B_divergent`` and ``s_A_divergent``
    record whether s_B and s_A lie below the level -gamma0/h + ||B1 + B2||
    that only a mesh artifact of an empty continuum spectrum reaches;
    ``s_A_divergent`` is None on other domains.
    """

    s_A: float
    eigfun: Optional[StateVector]
    s_B_surrogate: Optional[float]      # None encodes the -inf marker
    s_B_divergent: bool
    s_A_divergent: Optional[bool] = None
    lambda_star: Optional[float] = None
    eps_bar: Optional[float] = None
    Delta: Optional[float] = None
    gap: Optional[float] = None
    aeg_fit: Optional[AEGFit] = None
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


def _exact_bound(gen: DiscreteGenerator, which: str,
                 blocks: tuple) -> tuple[float, np.ndarray]:
    """Spectral bound and nonnegative eigenvector of a block triangular sum.

    The bound is the largest cell-block eigenvalue lambda, attained last
    at cell k.  The eigenvector is zero before cell k and the block's
    Perron vector v at cell k.  One forward sweep gives each later cell:
    (lambda - D_i) x_i = (in1 x1_{i-1} + r_i, in2 x2_{i-1}), with D_i the
    cell block and r_i = h sum_{k <= j < i} beta[i, j] x1_j: h f_i times
    a running sum of g_j x1_j for a rank-1 kernel f g^T or ``s>y``
    (f = value, g = 1), a row product for a dense kernel, zero for a
    recruitment-free sum or ``s<y``.  Later block eigenvalues lie below
    lambda, so x >= 0.  The sweep has no source: whenever a cell passes
    2^512, all entries so far and the running sum are scaled by 2^-512.
    """
    a, b, c, d = blocks
    n, h, K = gen.grid.n, gen.grid.h, gen.kernel
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
    x = np.zeros(2 * n)
    x[[k, n + k]] = v
    if k == n - 1:
        return lam, x
    m, rows = n - k - 1, None
    f = g = [0.0] * m
    if which != "full":
        pass                # a recruitment-free sum: r = 0
    elif K.factors is not None:
        f, g = (h * K.factors[0][k + 1:]).tolist(), K.factors[1][k:].tolist()
    elif K.triangle is not None and K.triangle[1] == LOWER:
        f, g = [h * K.triangle[0]] * m, [1.0] * m
    elif K.dense is not None:
        rows = K.dense[k + 1:, k:]
    i11, i12, i21, i22 = cell_inverse(
        lam, *(w[k + 1:] for w in blocks)).tolist()
    in1, in2 = gen.inflow[:, k:].tolist()
    x1, x2 = [float(v[0])], [float(v[1])]
    p1, p2, acc = x1[0], x2[0], 0.0
    for i in range(m):
        acc += g[i] * p1
        p = in1[i] * p1 + f[i] * acc
        if rows is not None:
            p += h * float(rows[i, :i + 1] @ x1)
        q = in2[i] * p2
        # a zero coupling rate passes nothing on (see block_sweep)
        p1 = i11[i] * p + (i12[i] and i12[i] * q)
        p2 = (i21[i] and i21[i] * p) + i22[i] * q
        x1.append(p1)
        x2.append(p2)
        if p1 > _HUGE or p2 > _HUGE:
            x1, x2 = [w * _TINY for w in x1], [w * _TINY for w in x2]
            p1, p2, acc = x1[-1], x2[-1], acc * _TINY
    x[k:n], x[n + k:] = x1, x2
    return lam, x


def characteristic_function(gen: DiscreteGenerator, lam: float,
                            rhs: Optional[np.ndarray] = None
                            ) -> tuple[float, np.ndarray]:
    """h g.x_1 and x = (lambda - B)^{-1} rhs for a rank-1 kernel f g^T.

    With the default rhs = (f, 0) the value is phi(lambda), the discrete
    characteristic function; with rhs = (lambda - B)^{-1}(f, 0) it is
    -phi'(lambda).  One forward sweep (``DiscreteGenerator.block_sweep``),
    valid for lambda above s_B, where phi is positive, decreasing and
    log-convex.  An overflow reads +inf, never NaN.
    """
    f, g = gen.kernel.factors
    n = gen.grid.n
    if rhs is None:
        rhs = np.concatenate([f, np.zeros(n)])
    x = gen.block_sweep(lam, rhs, gen.cell_blocks("B"))
    seen = g > 0        # cells g ignores add nothing, even where x is inf
    return gen.grid.h * float(g[seen] @ x[:n][seen]), x


def _characteristic_bound(gen: DiscreteGenerator, shift0: Optional[float],
                          tol: float, max_iter: int):
    """Root of phi(lambda) = 1 above s_B for a mixing rank-1 kernel.

    A safeguarded Newton iteration on log phi (convex and decreasing)
    inside the bracket [lo, hi] with phi(lo) > 1 >= phi(hi), which opens
    at [s_B, shift0 or ||M||_inf + 1]; every evaluation moves one end,
    a step that leaves the bracket is a bisection, and the loop stops at
    hi - lo <= tol * max(1, |hi|).  Once a Newton step falls well inside
    the tolerance, the point it reached is the root to far better than
    tol, and one evaluation just across it closes the bracket.  The
    eigenvector is the sweep (lambda - B)^{-1}(f, 0) at the end with phi
    nearer 1.  If phi(s_B+) <= 1, then s_A = s_B (see
    ``_boundary_eigenvector``).
    """
    blocks = gen.cell_blocks("B")
    s_B = float(block_eigenvalues(*blocks).max())
    user_shift = shift0 is not None
    hi = float(shift0) if user_shift else gen.infinity_norm() + 1.0
    phi_hi, x_hi = characteristic_function(gen, hi) if hi > s_B \
        else (math.inf, None)
    if phi_hi >= 1.0:
        if user_shift:
            raise ConfigurationError(
                f"spectral.shift0 = {hi:g} is not above the spectral bound "
                f"of the 'full' operator")
        raise NumericalError("characteristic function is not below 1 at "
                             "the initial shift")
    phi_lo, x_lo = characteristic_function(gen, np.nextafter(s_B, math.inf))
    if phi_lo <= 1.0:
        return s_B, _boundary_eigenvector(gen, blocks, phi_lo, x_lo), \
            (s_B, s_B)
    lo = s_B
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

    def distance(p):
        return abs(math.log(p)) if p > 0 else math.inf
    lam, x = (lo, x_lo) if distance(phi_lo) < distance(phi_hi) else (hi, x_hi)
    return lam, x, (lo, hi)


def _newton_step(gen: DiscreteGenerator, lam: float, phi: float,
                 x: np.ndarray) -> float:
    """Newton step on log phi from lambda, NaN when phi or phi' is not
    finite and nonzero (x is the sweep that gave phi)."""
    if not 0.0 < phi < math.inf:
        return math.nan
    dphi = -characteristic_function(gen, lam, x)[0]
    if not -math.inf < dphi < 0.0:
        return math.nan
    return -math.log(phi) * phi / dphi


def _boundary_eigenvector(gen: DiscreteGenerator, blocks: tuple,
                          phi: float, w: np.ndarray) -> np.ndarray:
    """Nonnegative eigenvector for s_A = s_B when phi(s_B+) <= 1.

    With x_B the Perron vector of B and w = (s_B+ - B)^{-1}(f, 0), the
    vector x = alpha x_B + h w with alpha = (1 - phi)/(g.x_B1) solves
    M x = s_B x, since h g.w_1 = phi; when g.x_B1 = 0, x_B itself does.
    """
    n = gen.grid.n
    g = gen.kernel.factors[1]
    x_B = _exact_bound(gen, "B", blocks)[1]
    seen = float(g @ x_B[:n])
    if seen > 0 and np.isfinite(w).all():
        return (1.0 - phi) / seen * x_B + gen.grid.h * w
    return x_B


def _collatz_wielandt(M, x: np.ndarray) -> tuple[float, float]:
    """Bracket min_i (Mx)_i/x_i <= s(M) <= max_i (Mx)_i/x_i for a Metzler M.

    Taken on the nonnegative part of x: the lower end holds for any
    nonnegative x != 0 (minimum over its support), the upper end only
    for x > 0 and is infinite otherwise (Horn & Johnson, *Matrix
    Analysis*, ch. 8).
    """
    x = np.clip(x, 0.0, None)
    pos = x > 0
    ratio = (M @ x)[pos] / x[pos]
    return float(ratio.min()), float(ratio.max()) if pos.all() else math.inf


def _power_bound(gen: DiscreteGenerator, which: str, shift0: Optional[float],
                 tol: float, max_iter: int):
    """Shift-and-invert power iteration with certified shifts.

    Every shift passes the positivity certificate, so it lies above the
    spectral bound and the resolvent's dominant eigenvalue belongs to the
    Perron pair; a re-centred shift that fails it is rejected and the
    next move goes halfway back toward the current shift.  Returns the
    estimate, the final iterate and its Collatz-Wielandt bracket;
    IterationError, carrying that bracket, when ``max_iter`` runs out or
    the final iterate is not strictly positive.
    """
    user_shift = shift0 is not None
    top = float(shift0) if user_shift else gen.infinity_norm() + 1.0
    if _certificate(gen, which, top) is None:
        if user_shift:
            raise ConfigurationError(
                f"spectral.shift0 = {top:g} is not above the spectral bound "
                f"of the {which!r} operator")
        raise NumericalError("positivity certificate failed at the "
                             "initial shift")
    n2 = 2 * gen.grid.n
    sigma, floor = top, -math.inf    # certified shift, highest failed one
    x = np.full(n2, 1.0 / n2)
    lam = problem = None
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
        problem = f"did not settle in {max_iter} steps"
    if x.sum() < 0:
        x = -x
    if problem is None and x.min() <= 0:
        problem = "ended on an iterate that is not strictly positive"
    bracket = _collatz_wielandt(gen.full, x)
    if problem is not None:
        raise IterationError(
            f"power iteration {problem}: s_A in [{bracket[0]:.12g}, "
            f"{bracket[1]:.12g}]", estimate=lam, bracket=bracket)
    return lam, x, bracket


def spectral_bound(gen: DiscreteGenerator, which: str = "full",
                   shift0: Optional[float] = None, tol: float = 1e-10,
                   max_iter: int = 500) -> SpectralBound:
    """Rightmost real eigenvalue and nonnegative eigenvector of a block sum.

    Three routes, chosen from the operator's structure:

      * ``exact``: a block sum that is block lower triangular in
        per-cell order (every sum without recruitment, and the full
        generator of a kernel that does not mix) is solved from its 2x2
        cell blocks, with no factorization of the whole matrix; the
        bracket is (s, s) and ``shift0`` is not used;
      * ``characteristic``: the full generator of a mixing rank-1 kernel
        f g^T; s is the root above s_B of
        phi(lambda) = h g.[(lambda - B)^{-1}(f, 0)]_1 = 1 (s = s_B when
        phi(s_B+) <= 1), found by safeguarded Newton on log phi from
        O(n) forward sweeps, with no LU; the bracket (lo, hi) has
        phi(lo) > 1 >= phi(hi) and hi - lo <= tol * max(1, |hi|);
      * ``power``: every other kernel (tables, callables, ``s<y``), by
        shift-and-invert power iteration x <- (sigma - M)^{-1} x that
        estimates the eigenvalue as sigma - 1/theta (theta the Rayleigh
        quotient of the inverse) until successive estimates differ by
        less than ``tol``, and pulls the shift down to estimate + 1,
        accepting only shifts that the positivity certificate places
        above the bound; the bracket is the Collatz-Wielandt bracket of
        the final iterate.

    ``shift0`` opens the characteristic bracket from above, or is the
    first power-iteration shift (default ||M||_inf + 1).
    ConfigurationError when a given ``shift0`` is not above the bound;
    IterationError (with the bracket reached) when an iterative route
    does not settle in ``max_iter`` steps or, for the power route, ends
    on an iterate that is not strictly positive.
    """
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    blocks = gen.cell_blocks(which)
    if blocks is not None:
        route = "exact"
        lam, x = _exact_bound(gen, which, blocks)
        bracket = (lam, lam)
    elif gen.kernel.factors is not None:
        route = "characteristic"
        lam, x, bracket = _characteristic_bound(gen, shift0, tol, max_iter)
    else:
        route = "power"
        lam, x, bracket = _power_bound(gen, which, shift0, tol, max_iter)
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
    return float(block_eigenvalues(*gen.cell_blocks("B")).max())


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

    Solves the coupled transport system with a fixed nonnegative source
    in [0, 1] once, on the largest truncation in ``smax_list`` (increasing,
    inside the sampled domain; ConfigurationError when the mesh cannot place
    the source), and watches the L1 norm of each truncation's causal prefix:
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
    ks = [int(round(smax / grid.h)) for smax in smax_list]
    for smax, k in zip(smax_list, ks):
        if k < 2 or abs(k * grid.h - smax) > 1e-9 * max(smax, 1.0):
            raise ConfigurationError(f"truncation {smax:g} is not a whole "
                                     f"number (>= 2) of cells")
    sub = _restrict_params(params, ks[-1])
    src = (sub.grid.centers <= 1.0).astype(float)
    U = duhamel_solve(sub, lam, src, src)
    a1, a2 = np.abs(U.u1), np.abs(U.u2)
    norms = [float((a1[:k].sum() + a2[:k].sum()) * sub.grid.h) for k in ks]
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
