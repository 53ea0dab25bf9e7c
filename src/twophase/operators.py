"""Discrete generator assembly and three independent resolvent routes.

The full generator acts on the doubled state (u1 stacked over u2,
length 2n) as the sum of four parts:

  * transport: first-order conservative upwind discretization of
    -d/ds(gamma u) with zero inflow at s=0 and free outflow on the right
    (two decoupled lower-bidiagonal n x n blocks, one per phase);
  * loss diagonal: -(mu + c1) on phase 1, -c2 on phase 2;
  * phase coupling: +c2 from phase 2 into phase 1 and +c1 the other way
    (cell-local, so two diagonal off-blocks);
  * recruitment: midpoint quadrature of the birth kernel, acting on
    phase 1 only.

A generator keeps the per-cell arrays of the first three parts and the
structured kernel.  Only the general LU and the Collatz-Wielandt bracket
need the whole generator as one sparse matrix (``full``), built on first
use and cached.

Resolvents (lambda*I - M)^{-1} are available by direct factorization,
by the analytic transport formula (one O(n) forward sweep, shared with
the recruitment-free probe), and by a Neumann perturbation series whose
divergence doubles as a spectral indicator.  In per-cell order
(u1_i, u2_i) the recruitment-free sums are block lower bidiagonal with
2x2 cell blocks, so the direct route factors lambda - M for them as
L_b D with no fill and no pivoting: D the cell blocks, L_b unit lower
banded, each solve one BLAS banded triangular solve (dtbsv) and a
vectorised D^{-1}, O(n).  For a rank-1 kernel the full generator adds a
Sherman-Morrison correction to that factor of lambda - B (transport,
loss and coupling); only the other kernels (tables, callables, the
triangles) take a sparse LU (SuperLU) of lambda - M with a
minimum-degree ordering of A + A^T.  A generator keeps only its last
factor, which serves the repeated shifts of implicit steps, resolvents
and eigensolves.  ``DiscreteGenerator.block_sweep`` solves a
recruitment-free sum by one forward sweep over the same cell blocks,
with no factor at all.  scipy is imported only by the code that builds
``full`` or factors it; the banded route loads scipy's compiled BLAS
extension ``scipy.linalg._fblas`` alone, never ``scipy.linalg`` or
``scipy.sparse``.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (ConfigurationError, IterationError, PreconditionError,
                     SpectralProximityError)
from .model import Kernel, ModelParams, SizeGrid

if TYPE_CHECKING:
    import scipy.sparse as sp
    from scipy.sparse.linalg import SuperLU

WHICH_CHOICES = ("A", "A+B1", "B", "full")


@functools.cache
def _blas():
    """scipy's f2py BLAS extension ``scipy.linalg._fblas``, loaded without
    running ``scipy/linalg/__init__.py``.

    ``scipy.linalg.blas`` re-exports this module's wrappers, but importing
    it runs the whole ``scipy.linalg`` package (about 0.3 s, mostly
    scipy's array-API layer pulling in ``numpy.f2py``); the extension
    alone loads in a few tens of ms after ``import scipy``.  It is
    entered in ``sys.modules``, where a later ``import scipy.linalg``
    finds it, so both routes share one module (only the package attribute
    ``scipy.linalg._fblas`` stays unset; scipy imports the name, never
    reads the attribute).  Falls back to the plain import if the
    extension is not found on disk.
    """
    name = "scipy.linalg._fblas"
    if name in sys.modules:
        return sys.modules[name]
    import scipy
    from importlib.machinery import PathFinder
    from importlib.util import module_from_spec
    spec = PathFinder.find_spec(
        name, [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
    if spec is None:
        from scipy.linalg import _fblas
        return _fblas
    module = sys.modules[name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def splu(A, **kwargs) -> "SuperLU":
    """``scipy.sparse.linalg.splu``, imported on first use."""
    from scipy.sparse.linalg import splu as _splu
    return _splu(A, **kwargs)


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

    def norm1(self) -> float:
        """Discrete L1 norm ||u1||_1 + ||u2||_1."""
        return float((np.abs(self.u1).sum() + np.abs(self.u2).sum()) * self.grid.h)

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.u1, self.u2])

    @classmethod
    def from_stacked(cls, x: np.ndarray, grid: SizeGrid) -> "StateVector":
        """The state whose components are views of the halves of ``x``."""
        n = grid.n
        return cls(u1=x[:n], u2=x[n:], grid=grid)

    def copy(self) -> "StateVector":
        return StateVector(self.u1.copy(), self.u2.copy(), self.grid)


class _BandedFactor:
    """Solves (lambda - M) x = scale * rhs for a recruitment-free block sum.

    In per-cell order (u1_i, u2_i), lambda - M is block lower bidiagonal:
    the 2x2 cell blocks D_i = lambda - [[a_i, b_i], [c_i, d_i]] on the
    diagonal and -diag(inflow_i) below.  It factors with no fill and no
    pivoting as L_b D, with D = blockdiag(D_i) and L_b unit lower banded
    (bandwidth 3) whose subdiagonal blocks are -diag(inflow_i) D_{i-1}^-1.
    A solve is one BLAS banded triangular solve (dtbsv) with L_b and the
    vectorised D^-1 (kept times ``scale``).  Above every block eigenvalue
    D^-1 >= 0 and L_b <= 0 off the diagonal, so a nonnegative rhs gives
    a nonnegative x, with no negative rounding.  O(n) storage and work.
    """

    def __init__(self, lam: float, blocks: tuple, inflow: np.ndarray,
                 scale: float):
        i11, i12, i21, i22 = cell_inverse(lam, *blocks)
        in1, in2 = inflow
        # LAPACK lower band storage, band[k, j] = L_b[j + k, j]: columns
        # 2i and 2i + 1 hold the block below the diagonal block of cell i
        band = np.zeros((4, 2 * i11.size), order="F")
        band[2, 0:-2:2], band[3, 0:-2:2] = -in1 * i11[:-1], -in2 * i21[:-1]
        band[1, 1:-2:2], band[2, 1:-2:2] = -in1 * i12[:-1], -in2 * i22[:-1]
        # D^-1 y in stacked order is cols[0] * y1 + cols[1] * y2
        self._band, self._tbsv = band, _blas().dtbsv
        self._cols = scale * np.array([[i11, i21], [i12, i22]])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side of length 2n (u1 over u2)."""
        n = self._cols.shape[2]
        y = np.empty(2 * n)
        y[0::2], y[1::2] = rhs[:n], rhs[n:]
        y = self._tbsv(3, self._band, y, lower=1, diag=1, overwrite_x=1)
        x = self._cols[0] * y[0::2]
        x += self._cols[1] * y[1::2]
        return x.ravel()


class _RankOneFactor:
    """Solves (lambda - B - u v^T) x = scale * rhs around the banded
    factor of lambda - B.

    The rank-1 kernel beta = f g^T puts u v^T = h (f, 0) (g, 0)^T in the
    full generator.  By the Sherman-Morrison identity,
    x = y + w (v.y) / (1 - v.w) with y = scale (lambda - B)^{-1} rhs and
    w = (lambda - B)^{-1} u; ``hf`` is h f / scale.
    """

    def __init__(self, base: _BandedFactor, hf: np.ndarray, g: np.ndarray,
                 lam: float):
        n = g.size
        w = base.solve(np.concatenate([hf, np.zeros(n)]))
        denom = 1.0 - float(g @ w[:n])
        if denom == 0.0 or not np.isfinite(denom) or not np.isfinite(w).all():
            raise SpectralProximityError(
                f"rank-1 correction of (lambda - full) is singular at "
                f"lambda={lam:g} (1 - v.w = {denom:g})", lam=lam)
        blas = _blas()
        self._base, self._g, self._w = base, g, w / denom
        self._axpy, self._dot = blas.daxpy, blas.ddot

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side of length 2n."""
        x = self._base.solve(rhs)
        # x += w (g.x_1) in place; ddot reads the first n entries of x
        return self._axpy(self._w, x, a=self._dot(self._g, x))


@dataclass
class DiscreteGenerator:
    """Discrete generator kept as per-cell arrays, with factorized
    resolvent access.

    ``outflow[k]`` = gamma_k(edge_{i+1})/h and ``inflow[k]`` =
    gamma_k(edge_i)/h (cells 1..n-1) are the upwind rates of phase k,
    ``loss`` = (mu + c1, c2) the loss rates, and ``coupling`` = (c2, c1)
    the rates into phase 1 from phase 2 and back.  The sparse ``full``
    is built on first use.
    """

    grid: SizeGrid
    params: ModelParams
    kernel: Kernel
    outflow: np.ndarray
    inflow: np.ndarray
    loss: np.ndarray
    coupling: np.ndarray
    _last_fact: Optional[tuple] = field(default=None, repr=False)

    @functools.cached_property
    def full(self) -> "sp.csr_matrix":
        """The full generator as one sparse matrix (u1 stacked over u2):
        the upwind transport, loss and coupling of ``cell_blocks("B")``
        and ``inflow``, plus the recruitment quadrature
        B3[i, j] = beta(s_i, y_j) * h in the phase-1/phase-1 position.
        Built on first use, for the general LU and the Collatz-Wielandt
        bracket; it materialises the n x n kernel."""
        import scipy.sparse as sp
        a, b, c, d = self.cell_blocks("B")
        in1, in2 = self.inflow
        return sp.bmat(
            [[sp.diags([a, in1], [0, -1])
              + sp.csr_matrix(self.kernel.beta * self.grid.h), sp.diags(b)],
             [sp.diags(c), sp.diags([d, in2], [0, -1])]], format="csr")

    def cell_blocks(self, which: str) -> Optional[tuple[np.ndarray, ...]]:
        """2x2 diagonal cell blocks of a block lower triangular block sum.

        In per-cell (u1_i, u2_i) order the selected block sum M has the
        diagonal blocks [[a_i, b_i], [c_i, d_i]] = [[M[i, i], M[i, n+i]],
        [M[n+i, i], M[n+i, n+i]]], read off the per-cell arrays.  Returns
        (a, b, c, d) when no nonzero entry of M feeds a cell from a later
        one, so that M is block lower triangular and its spectrum is the
        union of the blocks'; None otherwise.  "A", "A+B1" and "B" always
        qualify; "full" qualifies exactly when the kernel does not mix
        (beta vanishes above the diagonal: no offspring is smaller than
        its parent).
        """
        if which not in WHICH_CHOICES:
            raise ConfigurationError(f"unknown operator selection {which!r}")
        if which == "full" and self.kernel.cutoff_sums().any():
            return None
        if which == "A":
            a, d = -self.outflow
        else:
            a, d = -(self.outflow + self.loss)
        if which == "full":
            a = a + self.kernel.diagonal() * self.grid.h
        if which in ("A", "A+B1"):
            b = c = np.zeros(self.grid.n)
        else:
            b, c = self.coupling
        return a, b, c, d

    def factorization(self, lam: float, which: str, scale: float = 1.0):
        """Factor of (lambda*I - selected block sum) / scale.

        Its ``solve(rhs)`` returns scale * (lambda - M)^{-1} rhs, so
        ``scale`` = lambda = 1/dt applies the implicit step's
        (I - dt*M)^{-1}.  The recruitment-free sums "A", "A+B1" and "B"
        take the fill-free banded factor (O(n), no pivoting); the full
        generator of a rank-1 kernel takes that of lambda - B plus a
        Sherman-Morrison correction; only the other kernels (tables,
        callables, triangles) take a sparse LU (SuperLU) with a
        minimum-degree ordering of A + A^T.  Only the last
        (lambda, which, scale) factor is kept; a new key frees it first.
        SpectralProximityError when the shift makes the matrix (or the
        correction) singular.
        """
        key = (float(lam), which, float(scale))
        if self._last_fact is None or self._last_fact[0] != key:
            self._last_fact = None
            if which != "full":
                fact = _BandedFactor(lam, self.cell_blocks(which),
                                     self.inflow, scale)
            elif self.kernel.factors is not None:
                f, g = self.kernel.factors
                fact = _RankOneFactor(
                    _BandedFactor(lam, self.cell_blocks("B"), self.inflow,
                                  scale),
                    self.grid.h / scale * f, g, lam)
            else:
                import scipy.sparse as sp
                mat = (sp.identity(2 * self.grid.n, format="csr") * float(lam)
                       - self.full) / scale
                try:
                    fact = splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A")
                except RuntimeError as exc:
                    raise SpectralProximityError(
                        f"factorization of (lambda - full) failed at "
                        f"lambda={lam:g}: {exc}", lam=lam)
            self._last_fact = (key, fact)
        return self._last_fact[1]

    def block_sweep(self, lam: float, rhs: np.ndarray,
                    blocks: tuple) -> np.ndarray:
        """Solve (lambda - M) x = rhs by one forward sweep over the cells.

        M is a recruitment-free block sum ("A", "A+B1" or "B") given by its
        2x2 cell blocks (a, b, c, d): in per-cell order it is block lower
        bidiagonal, cell i also taking ``inflow[k][i-1]`` times phase k of
        cell i - 1.  lambda must lie above the larger eigenvalue of every
        block; each block of lambda - M is then an M-matrix with a
        nonnegative inverse, so a nonnegative ``rhs`` gives a nonnegative
        x, and an overflow reads +inf, never NaN.  O(n), with no LU and
        no pivoting.
        """
        n = self.grid.n
        i11, i12, i21, i22 = cell_inverse(lam, *blocks).tolist()
        in1, in2 = np.pad(self.inflow, ((0, 0), (1, 0))).tolist()
        r1, r2 = rhs[:n].tolist(), rhs[n:].tolist()
        x1, x2 = [0.0] * n, [0.0] * n
        p1 = p2 = 0.0
        for i in range(n):
            p = r1[i] + in1[i] * p1
            q = r2[i] + in2[i] * p2
            # a zero coupling rate passes nothing on, even from an
            # overflowed phase (0 * inf would be NaN)
            p1 = i11[i] * p + (i12[i] and i12[i] * q)
            p2 = (i21[i] and i21[i] * p) + i22[i] * q
            x1[i], x2[i] = p1, p2
        x = np.zeros(2 * n)
        x[:n], x[n:] = x1, x2
        return x

    def infinity_norm(self) -> float:
        """Max absolute row sum of the full generator, from the arrays."""
        h = self.grid.h
        beta_diag = self.kernel.diagonal()
        diag = -(self.outflow + self.loss)
        diag[0] += h * beta_diag
        off = np.pad(self.inflow, ((0, 0), (1, 0))) + self.coupling
        off[0] += h * (self.kernel.row_sums() - beta_diag)
        return float((np.abs(diag) + off).max())


def block_eigenvalues(a, b, c, d) -> np.ndarray:
    """Larger eigenvalue of each 2x2 block [[a, b], [c, d]] with b*c >= 0.

    Taken as max(a, d) + bc / (r + |a - d|/2), r = sqrt((a - d)^2/4 + bc),
    which has no cancellation: a block with bc = 0 gives max(a, d)
    exactly, so a shift just above it is known to full relative accuracy.
    """
    bc, half = b * c, 0.5 * np.abs(a - d)
    den = np.sqrt(half * half + bc) + half
    lift = np.divide(bc, den, out=np.zeros(np.shape(den)), where=den > 0)
    return np.maximum(a, d) + lift


def cell_inverse(lam: float, a, b, c, d) -> np.ndarray:
    """Entries (e11, e12, e21, e22) of (lambda - [[a, b], [c, d]])^{-1}
    for each 2x2 cell block with b*c >= 0, as a (4, n) array.

    The determinant is taken as (lambda - larger)(lambda - smaller
    eigenvalue), the gap to the larger one from ``block_eigenvalues``,
    which never rounds below max(a, d): so lambda - a and lambda - d are
    at least the gap, and above the computed eigenvalue the determinant
    stays positive where (lambda - a)(lambda - d) - bc can round to zero
    or below, and the inverse is nonnegative.  Below the eigenvalues it
    is the determinant itself.  SpectralProximityError when lambda is an
    eigenvalue of some block.
    """
    ea, ed = lam - a, lam - d
    gap = lam - block_eigenvalues(a, b, c, d)
    det = gap * (ea + ed - gap)
    if not det.all():
        raise SpectralProximityError(
            f"a cell block of (lambda - M) is singular at lambda={lam:g}",
            lam=lam)
    return np.array([ed, b, c, ea]) / det


def assemble(params: ModelParams, kernel: Kernel, grid: SizeGrid) -> DiscreteGenerator:
    """Collect the generator's per-cell arrays on one grid.

    The recruitment quadrature is B3[i, j] = beta(s_i, y_j) * h, placed
    in the phase-1/phase-1 position (newborns are active).
    """
    if not (params.grid.same_as(grid) and kernel.grid.same_as(grid)):
        raise ConfigurationError("params and kernel must share the grid")
    edges = np.array([params.gamma1_edges, params.gamma2_edges]) / grid.h
    return DiscreteGenerator(
        grid=grid, params=params, kernel=kernel,
        outflow=edges[:, 1:], inflow=edges[:, 1:-1],
        loss=np.array([params.mu + params.c1, params.c2]),
        coupling=np.array([params.c2, params.c1]))


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
    sum_k R_B (B3 R_B)^k H around the recruitment-free part; a rank-1
    kernel f g^T applies B3 as h f (g . u1), with no n x n block; any
    other kernel as h beta u1, with beta materialised once.
    split="B2-series": resolvent of A+B1+B2 as the series around A+B1
    with the phase coupling (c2 u2, c1 u1) as perturbation.

    The series converges exactly when the spectral radius of the
    iterated factor is < 1 at this lambda; persistent non-decay of the
    term norms (ratio > 0.999 for 10 consecutive terms) is reported as
    divergence, which signals lambda at or below the spectral bound of
    the perturbed operator.
    """
    n = gen.grid.n
    if split == "B3-series" and gen.kernel.factors is not None:
        f, g = gen.kernel.factors
        hf = gen.grid.h * f

        def pert(x):
            return np.concatenate([hf * (g @ x[:n]), np.zeros(n)])
        base = "B"
    elif split == "B3-series":
        hbeta = gen.grid.h * gen.kernel.beta

        def pert(x):
            return np.concatenate([hbeta @ x[:n], np.zeros(n)])
        base = "B"
    elif split == "B2-series":
        c2, c1 = gen.coupling

        def pert(x):
            return np.concatenate([c2 * x[n:], c1 * x[:n]])
        base = "A+B1"
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
        fed = pert(term)
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
