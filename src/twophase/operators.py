"""Discrete generator assembly and three independent resolvent routes.

The full generator is assembled from four blocks on the doubled state
(u1 stacked over u2, length 2n):

  * transport: first-order conservative upwind discretization of
    -d/ds(gamma u) with zero inflow at s=0 and free outflow on the right
    (two decoupled lower-bidiagonal n x n blocks, one per phase);
  * loss diagonal: -(mu + c1) on phase 1, -c2 on phase 2;
  * phase coupling: +c2 from phase 2 into phase 1 and +c1 the other way
    (cell-local, so two diagonal off-blocks);
  * recruitment: dense midpoint quadrature of the birth kernel, acting
    on phase 1 only.

Resolvents (lambda*I - M)^{-1} are available by direct factorization,
by the analytic transport formula (one O(n) forward sweep, shared with
the recruitment-free probe), and by a Neumann perturbation series whose
divergence doubles as a spectral indicator.  The direct route is one
sparse LU (SuperLU with a minimum-degree ordering of A + A^T, which
keeps the block lower-bidiagonal transport/loss/coupling part nearly
fill-free) at every size; a generator keeps only its last factor, which
serves the repeated shifts of implicit steps, resolvents and eigensolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from .errors import (ConfigurationError, IterationError, PreconditionError,
                     SpectralProximityError)
from .model import Kernel, ModelParams, SizeGrid

WHICH_CHOICES = ("A", "A+B1", "B", "full")


@dataclass
class StateVector:
    """Pair of cell-averaged densities (u1, u2) on one grid."""

    u1: np.ndarray
    u2: np.ndarray
    grid: SizeGrid

    def __post_init__(self):
        self.u1 = np.asarray(self.u1, dtype=float)
        self.u2 = np.asarray(self.u2, dtype=float)
        if self.u1.shape != (self.grid.n,) or self.u2.shape != (self.grid.n,):
            raise ConfigurationError("state components must have length n")

    @property
    def mass(self) -> float:
        return float((self.u1.sum() + self.u2.sum()) * self.grid.h)

    @property
    def phase_masses(self) -> tuple[float, float]:
        h = self.grid.h
        return float(self.u1.sum() * h), float(self.u2.sum() * h)

    def norm1(self) -> float:
        """Discrete L1 norm ||u1||_1 + ||u2||_1."""
        return float((np.abs(self.u1).sum() + np.abs(self.u2).sum()) * self.grid.h)

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.u1, self.u2])

    @classmethod
    def from_stacked(cls, x: np.ndarray, grid: SizeGrid) -> "StateVector":
        n = grid.n
        return cls(u1=x[:n].copy(), u2=x[n:].copy(), grid=grid)

    @classmethod
    def zero(cls, grid: SizeGrid) -> "StateVector":
        return cls(u1=np.zeros(grid.n), u2=np.zeros(grid.n), grid=grid)

    def copy(self) -> "StateVector":
        return StateVector(self.u1.copy(), self.u2.copy(), self.grid)


def _upwind_block(gamma_edges: np.ndarray, grid: SizeGrid) -> sp.csr_matrix:
    """Upwind matrix for -d/ds(gamma u) on one phase.

    The flux through edge i is gamma(edge_i) times the density in the
    cell left of the edge; inflow at edge 0 is zero, outflow through the
    last edge is free.  Column i sums to -gamma(edge_{i+1})/h * h ... i.e.
    all columns telescope to 0 except the last, which loses the outflow.
    """
    n, h = grid.n, grid.h
    diag = -gamma_edges[1:] / h          # outgoing flux of cell i
    sub = gamma_edges[1:-1] / h          # incoming flux of cell i from i-1
    return sp.diags([diag, sub], [0, -1], format="csr")


@dataclass
class DiscreteGenerator:
    """Assembled discrete generator with factorized resolvent access."""

    grid: SizeGrid
    params: ModelParams
    kernel: Kernel
    A_block: sp.csr_matrix
    B1_block: sp.csr_matrix
    B2_block: sp.csr_matrix
    B3_block: sp.csr_matrix
    full: sp.csr_matrix
    _last_fact: Optional[tuple] = field(default=None, repr=False)

    def block_sum(self, which: str) -> sp.csr_matrix:
        if which == "A":
            return self.A_block
        if which == "A+B1":
            return self.A_block + self.B1_block
        if which == "B":
            return self.A_block + self.B1_block + self.B2_block
        if which == "full":
            return self.full
        raise ConfigurationError(f"unknown operator selection {which!r}")

    def factorization(self, lam: float, which: str) -> SuperLU:
        """Sparse LU factorization of (lambda*I - selected block sum).

        Only the last (lambda, which) factor is kept; a new key frees it first.
        SpectralProximityError when the shift makes the matrix singular.
        """
        key = (float(lam), which)
        if self._last_fact is None or self._last_fact[0] != key:
            self._last_fact = None
            mat = sp.identity(2 * self.grid.n, format="csr") * float(lam) \
                - self.block_sum(which)
            try:
                fact = splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise SpectralProximityError(
                    f"factorization of (lambda - {which}) failed at "
                    f"lambda={lam:g}: {exc}", lam=lam)
            self._last_fact = (key, fact)
        return self._last_fact[1]

    def infinity_norm(self) -> float:
        return float(abs(self.full).sum(axis=1).max())


def assemble(params: ModelParams, kernel: Kernel, grid: SizeGrid) -> DiscreteGenerator:
    """Assemble all generator blocks on one grid.

    The recruitment quadrature is B3[i, j] = beta(s_i, y_j) * h, placed
    in the phase-1/phase-1 position (newborns are active).
    """
    if not (params.grid.same_as(grid) and kernel.grid.same_as(grid)):
        raise ConfigurationError("params and kernel must share the grid")
    n = grid.n
    A1 = _upwind_block(params.gamma1_edges, grid)
    A2 = _upwind_block(params.gamma2_edges, grid)
    A = sp.block_diag([A1, A2], format="csr")

    B1 = sp.diags(np.concatenate([-(params.mu + params.c1), -params.c2]),
                  format="csr")
    B2 = sp.bmat([[None, sp.diags(params.c2)],
                  [sp.diags(params.c1), None]], format="csr")
    B3 = sp.bmat([[sp.csr_matrix(kernel.beta * grid.h), None],
                  [None, sp.csr_matrix((n, n))]], format="csr")
    full = (A + B1 + B2 + B3).tocsr()
    return DiscreteGenerator(grid=grid, params=params, kernel=kernel,
                             A_block=A, B1_block=B1, B2_block=B2,
                             B3_block=B3, full=full)


def transport_sweep(dx: float, gamma, rate, src, coupling) -> np.ndarray:
    """Solve the coupled transport quadrature by one forward sweep.

    Each argument is a pair (phase 1, phase 2) of length-n arrays or
    scalars.  Phase k solves u_k = T_k[src_k + coupling_k * u_other] with
    T_k[r](s_i) = (1/gamma_k(s_i)) sum_{y_j <= s_i} w_j r(y_j)
    exp(-int_{y_j}^{s_i} rate_k/gamma_k), the exponent by midpoint sums and
    w_j = dx, halved on the diagonal (the half weight keeps the quadrature
    error within the first-order upwind error band).  The weights are
    causal, so one pass carrying the past as a running sum solves the
    system exactly, with one 2x2 block from the diagonal term per cell;
    IterationError where a block has no positive inverse.
    """
    n = len(src[0])
    gamma, rate, src, coupling = (
        np.array([np.broadcast_to(x, n) for x in v], dtype=float)
        for v in (gamma, rate, src, coupling))
    inc = np.pad(rate * dx / gamma, ((0, 0), (0, 1)))
    # decay[k][i] carries phase k's running sum from cell i to cell i + 1
    decay = np.exp(-0.5 * (inc[:, :-1] + inc[:, 1:])).tolist()
    inv, half, src, coupling = (x.tolist() for x in
                                (1.0 / gamma, 0.5 * dx / gamma, src, coupling))
    u1, u2 = [0.0] * n, [0.0] * n
    acc1 = acc2 = 0.0
    for i in range(n):
        p = acc1 * inv[0][i] + half[0][i] * src[0][i]
        q = acc2 * inv[1][i] + half[1][i] * src[1][i]
        a, b = half[0][i] * coupling[0][i], half[1][i] * coupling[1][i]
        if a * b >= 1.0:    # u1 = p + a*u2, u2 = q + b*u1 at this cell
            raise IterationError(f"coupled transport block at cell {i} has "
                                 f"no positive inverse (a*b = {a * b:g})")
        u1[i] = (p + a * q) / (1.0 - a * b)
        u2[i] = (q + b * p) / (1.0 - a * b)
        acc1 = decay[0][i] * (acc1 + dx * (src[0][i] + coupling[0][i] * u2[i]))
        acc2 = decay[1][i] * (acc2 + dx * (src[1][i] + coupling[1][i] * u1[i]))
    return np.array([u1, u2])


def resolvent_transport_analytic(lam: float, h: np.ndarray, gamma: np.ndarray,
                                 grid: SizeGrid) -> np.ndarray:
    """Closed-form transport resolvent, evaluated by midpoint quadrature.

    Computes u(s_i) = (1/gamma(s_i)) * sum_{y_j <= s_i} h(y_j)
    exp(-lambda * int_{y_j}^{s_i} dz/gamma(z)) * w_j: the uncoupled case
    of ``transport_sweep`` with rate lambda.
    """
    if np.any(np.asarray(gamma) <= 0):
        raise PreconditionError("gamma must be strictly positive")
    return transport_sweep(grid.h, (gamma, gamma), (lam, lam),
                           (h, 0.0), (0.0, 0.0))[0]


def resolvent_direct(gen: DiscreteGenerator, lam: float, H: StateVector,
                     which: str = "full") -> StateVector:
    """Solve (lambda*I - selected block sum) U = H by direct factorization."""
    if which not in WHICH_CHOICES:
        raise ConfigurationError(f"unknown operator selection {which!r}")
    if not H.grid.same_as(gen.grid):
        raise ConfigurationError("state grid does not match the generator")
    fact = gen.factorization(lam, which)
    x = fact.solve(H.stacked())
    if not np.all(np.isfinite(x)):
        raise SpectralProximityError(
            f"resolvent solve returned non-finite values at lambda={lam:g}",
            lam=lam)
    return StateVector.from_stacked(x, gen.grid)


@dataclass
class NeumannResult:
    """Outcome of a perturbation-series resolvent evaluation."""

    state: Optional[StateVector]
    terms_used: int
    status: str          # "converged" | "diverged" | "inconclusive"
    last_ratio: float


def resolvent_neumann(gen: DiscreteGenerator, lam: float, H: StateVector,
                      split: str = "B3-series", max_terms: int = 200,
                      tol: float = 1e-10) -> NeumannResult:
    """Resolvent by the perturbation series around a simpler block sum.

    split="B3-series": resolvent of the full generator as the series
    sum_k R_B (B3 R_B)^k H around the recruitment-free part.
    split="B2-series": resolvent of A+B1+B2 as the series around A+B1
    with the phase coupling as perturbation.

    The series converges exactly when the spectral radius of the
    iterated factor is < 1 at this lambda; persistent non-decay of the
    term norms (ratio > 0.999 for 10 consecutive terms) is reported as
    divergence, which signals lambda at or below the spectral bound of
    the perturbed operator.
    """
    if split == "B3-series":
        base, pert = "B", gen.B3_block
    elif split == "B2-series":
        base, pert = "A+B1", gen.B2_block
    else:
        raise ConfigurationError(f"unknown split {split!r}")
    fact = gen.factorization(lam, base)
    term = fact.solve(H.stacked())
    total = term.copy()
    prev_norm = float(np.abs(term).sum()) * gen.grid.h
    if prev_norm == 0.0:
        return NeumannResult(StateVector.from_stacked(total, gen.grid), 1,
                             "converged", 0.0)
    scale = prev_norm
    high_ratio_streak = 0
    ratio = 0.0
    for k in range(2, max_terms + 1):
        fed = pert @ term
        if not np.any(fed):
            # the perturbation annihilates the iterate; series truncates
            return NeumannResult(StateVector.from_stacked(total, gen.grid),
                                 k - 1, "converged", 0.0)
        term = fact.solve(fed)
        total += term
        norm = float(np.abs(term).sum()) * gen.grid.h
        if not np.isfinite(norm):
            return NeumannResult(None, k, "diverged", np.inf)
        ratio = norm / prev_norm if prev_norm > 0 else 0.0
        if ratio > 0.999:
            high_ratio_streak += 1
            if high_ratio_streak >= 10:
                return NeumannResult(None, k, "diverged", ratio)
        else:
            high_ratio_streak = 0
        if norm <= tol * scale:
            return NeumannResult(StateVector.from_stacked(total, gen.grid), k,
                                 "converged", ratio)
        prev_norm = norm
    return NeumannResult(None, max_terms, "inconclusive", ratio)


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
    """Return the sequence ||V^n||_1^(1/n) for n = 1..N.

    The operator 1-norm is taken with respect to the h-weighted discrete
    L1 norm, which for the uniform mesh reduces to the max column sum of
    the matrix.  The sequence is bounded by (k^n m^n / n!)^(1/n) up to
    O(h) and decreases toward zero.
    """
    if N < 1:
        raise ConfigurationError("N must be >= 1")
    M = V.matrix()
    P = np.eye(V.grid.n)
    out = np.empty(N)
    for n in range(1, N + 1):
        P = P @ M
        norm = float(np.abs(P).sum(axis=0).max())
        out[n - 1] = norm ** (1.0 / n)
    return out
