"""Test oracles: independent formulas and probes that the acceptance
criteria and unit tests compare the package against.  No report, CLI
path or library call of ``twophase`` uses them.

  * ``resolvent_transport_analytic``: the transport resolvent by a
    midpoint quadrature of its closed form (criterion 1);
  * ``closed_form_poly``: the polynomial whose larger root is the
    closed-form s_B (criterion 2);
  * ``ideal_invariance_probe``: the mass that implicit steps leak out of
    an invariant ideal (criteria 5 and 8);
  * ``VolterraOp`` and ``volterra_norm_sequence``: the quasinilpotent
    cumulative-integral operator (criterion 10).
"""

from dataclasses import dataclass

import numpy as np

from twophase.errors import ConfigurationError, TwophaseError
from twophase.evolution import _step_count, _steps
from twophase.model import SizeGrid
from twophase.operators import DiscreteGenerator, StateVector

IDEAL_KINDS = ("both_min_size", "phase2_min_size", "phase2_only",
               "product_min_sizes")


class PreconditionError(TwophaseError):
    """An operation's documented precondition does not hold for the inputs."""


def resolvent_transport_analytic(lam: float, h: np.ndarray, gamma: np.ndarray,
                                 grid: SizeGrid) -> np.ndarray:
    """Closed-form transport resolvent, evaluated by midpoint quadrature.

    Computes u(s_i) = (1/gamma(s_i)) * sum_{y_j <= s_i} h(y_j)
    exp(-lambda * int_{y_j}^{s_i} dz/gamma(z)) * w_j, the exponent by
    midpoint sums and w_j = dx, halved on the diagonal (the half weight
    keeps the quadrature error within the first-order upwind error
    band): a discretisation independent of the upwind generator's.  The
    weights are causal, so one forward sweep carries the past as a
    running sum; a decay past the float range reads +inf.
    """
    if np.any(np.asarray(gamma) <= 0):
        raise PreconditionError("gamma must be strictly positive")
    dx, n = grid.h, len(h)
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), n)
    inc = np.pad(lam * dx / gamma, (0, 1))
    # decay[i] carries the running sum from cell i to cell i + 1
    with np.errstate(over="ignore"):
        decay = np.exp(-0.5 * (inc[:-1] + inc[1:])).tolist()
    inv, half, src = (x.tolist() for x in (1.0 / gamma, 0.5 * dx / gamma,
                                           np.asarray(h, dtype=float)))
    u = [0.0] * n
    acc = 0.0
    for i in range(n):
        u[i] = acc * inv[i] + half[i] * src[i]
        acc = decay[i] * (acc + dx * src[i])
    return np.array(u)


def closed_form_poly(lam: float, l1: float, c2: float, l_mu: float) -> float:
    """Evaluate P(lam) = lam^2 + lam*(l1+c2+l_mu) + l_mu*c2."""
    return lam * lam + lam * (l1 + c2 + l_mu) + l_mu * c2


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


@dataclass(frozen=True)
class VolterraOp:
    """Cumulative-integral operator v(s) = k * int_0^s h(y) dy."""

    k: float
    grid: SizeGrid

    def matrix(self) -> np.ndarray:
        n, h = self.grid.n, self.grid.h
        return self.k * h * np.tril(np.ones((n, n)))

    def apply(self, h_fun: np.ndarray) -> np.ndarray:
        return self.k * self.grid.h * np.cumsum(h_fun)


def volterra_norm_sequence(V: VolterraOp, N: int) -> np.ndarray:
    """Return the sequence ||V^m||_1^(1/m) for m = 1..N.

    The operator 1-norm is taken with respect to the h-weighted discrete
    L1 norm, which for the uniform mesh reduces to the max column sum of
    the matrix.  V = k h L with L the lower triangle of ones, and the
    first column of L^m sums to C(n+m-1, m) (hockey-stick identity), so
    ||V^m||_1 = (|k| h)^m C(n+m-1, m) exactly; the binomial is summed in
    log space.  The sequence is bounded by (k^m len^m / m!)^(1/m) up to
    O(h) and decreases toward zero.
    """
    if N < 1:
        raise ConfigurationError("N must be >= 1")
    n, m = V.grid.n, np.arange(1, N + 1)
    log_binom = np.cumsum(np.log((n - 1 + m) / m))
    return abs(V.k) * V.grid.h * np.exp(log_binom / m)
