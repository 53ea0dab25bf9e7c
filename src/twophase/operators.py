"""Discrete generator assembly and two independent resolvent routes.

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
structured kernel, and applies M from them (``apply``, O(n) for every
built-in kernel).  Only the general LU needs the whole generator as one
sparse matrix (``full``), built on first use and cached.

Resolvents (lambda*I - M)^{-1} are available by direct factorization
and, for transport alone, by the analytic formula (one O(n) forward
sweep of a midpoint quadrature, a check independent of the upwind
discretisation).  The recruitment-free operator B
(transport, loss and coupling) is a generator of its own,
``DiscreteGenerator.recruitment_free``, with a zero kernel.  In
per-cell order (u1_i, u2_i) it is block lower bidiagonal with 2x2 cell
blocks, so lambda - B factors as L_b D with no fill and no pivoting: D
the cell blocks, L_b unit lower banded, each solve one BLAS banded
triangular solve (dtbsv) and a vectorised D^{-1}, O(n).  A rank-1
kernel (``Kernel.rank_one``) adds a Sherman-Morrison correction to that
factor; for the other kernels (tables, callables, factors masked by a
relation) implicit steps and resolvents take a sparse LU (SuperLU) of
lambda - M with a minimum-degree ordering of A + A^T, while every
eigensolve solves on B's banded factors alone.  A generator keeps only
its last factor; the truncation probe factors B's cell blocks on the
cells of its largest truncation alone.  ``DiscreteGenerator.block_sweep``
solves a block lower triangular generator (B, or one whose kernel does
not mix) by one pure-Python forward sweep over the cell blocks: the
exact eigenvectors come from it, and the characteristic route falls
back on it where the banded solve overflows.  scipy is imported only
to build ``full`` or factor it; the banded route loads scipy's BLAS
extension ``scipy.linalg._fblas`` alone, never the ``scipy``,
``scipy.linalg`` or ``scipy.sparse`` packages.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (ConfigurationError, PreconditionError,
                     SpectralProximityError)
from .model import UPPER, Kernel, ModelParams, SizeGrid

if TYPE_CHECKING:
    import scipy.sparse as sp
    from scipy.sparse.linalg import SuperLU

# forward sweeps that would overflow rescale by exact powers of 2
HUGE, TINY = 2.0 ** 512, 2.0 ** -512


@functools.cache
def _blas():
    """scipy's f2py BLAS extension ``scipy.linalg._fblas``, loaded without
    importing ``scipy`` or running ``scipy/linalg/__init__.py``.

    ``scipy.linalg.blas`` re-exports this module's wrappers, but importing
    it runs the whole ``scipy.linalg`` package (about 0.3 s, mostly
    scipy's array-API layer pulling in ``numpy.f2py``), and even
    ``import scipy`` alone costs about 20 ms; the extension is found from
    the package's import spec and loads in a few ms.  It is entered in
    ``sys.modules``, where a later ``import scipy.linalg`` finds it, so
    both routes share one module (only the package attribute
    ``scipy.linalg._fblas`` stays unset; scipy imports the name, never
    reads the attribute).  Falls back to the plain import if the
    extension is not found on disk.
    """
    name = "scipy.linalg._fblas"
    if name in sys.modules:
        return sys.modules[name]
    from importlib.machinery import PathFinder
    from importlib.util import find_spec, module_from_spec
    root = find_spec("scipy")
    spec = root and PathFinder.find_spec(
        name, [os.path.join(p, "linalg")
               for p in root.submodule_search_locations or ()])
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
    """Solves (lambda - B) x = scale * rhs for the recruitment-free B.

    In per-cell order (u1_i, u2_i), lambda - B is block lower bidiagonal:
    the 2x2 cell blocks D_i = lambda - [[a_i, b_i], [c_i, d_i]] on the
    diagonal and -diag(inflow_i) below.  It factors with no fill and no
    pivoting as L_b D, with D = blockdiag(D_i) and L_b unit lower banded
    (bandwidth 3) whose subdiagonal blocks are -diag(inflow_i) D_{i-1}^-1.
    A solve is one BLAS banded triangular solve (dtbsv) with L_b and the
    vectorised D^-1 (kept times ``scale``).  Above every block eigenvalue
    D^-1 >= 0 and L_b <= 0 off the diagonal, so a nonnegative rhs gives
    a nonnegative x, with no negative rounding.  ``above`` says whether
    lambda lies there: lambda - B is a Z-matrix (off-diagonal <= 0),
    whose inverse is >= 0 exactly when each D_i^-1 is (Berman & Plemmons,
    ch. 6).  O(n) storage and work; every solve goes through one
    interleave buffer, so one factor serves one thread at a time.
    """

    def __init__(self, lam: float, blocks: tuple, inflow: np.ndarray,
                 scale: float):
        inv = cell_inverse(lam, *blocks)
        self.above = bool(inv.min() >= 0)
        i11, i12, i21, i22 = inv
        in1, in2 = inflow
        # LAPACK lower band storage, band[k, j] = L_b[j + k, j]: columns
        # 2i and 2i + 1 hold the block below the diagonal block of cell i
        band = np.zeros((4, 2 * i11.size), order="F")
        band[2, 0:-2:2], band[3, 0:-2:2] = -in1 * i11[:-1], -in2 * i21[:-1]
        band[1, 1:-2:2], band[2, 1:-2:2] = -in1 * i12[:-1], -in2 * i22[:-1]
        # D^-1 y in stacked order is cols[0] * y1 + cols[1] * y2
        self._band, self._tbsv = band, _blas().dtbsv
        self._cols = scale * np.array([[i11, i21], [i12, i22]])
        # one interleave buffer, which dtbsv overwrites in place (it is
        # contiguous float64) in every solve, and views of its two phases
        self._y = np.empty(2 * i11.size)
        self._y1, self._y2 = self._y[0::2], self._y[1::2]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side of length 2n (u1 over u2); the
        result is a fresh array."""
        y1, y2, cols = self._y1, self._y2, self._cols
        n = y1.size
        y1[:], y2[:] = rhs[:n], rhs[n:]
        self._tbsv(3, self._band, self._y, lower=1, diag=1, overwrite_x=1)
        x = cols[0] * y1
        x += cols[1] * y2
        return x.ravel()


class _RankOneFactor:
    """Solves (lambda - B - u v^T) x = scale * rhs around the banded
    factor of lambda - B.

    The rank-1 kernel beta = f g^T puts u v^T = h (f, 0) (g, 0)^T in the
    full generator.  By the Sherman-Morrison identity,
    x = y + w (v.y) / (1 - v.w) with y = scale (lambda - B)^{-1} rhs and
    w = (lambda - B)^{-1} u; ``hf`` is h f / scale.  lambda lies above the
    spectral bound of B + u v^T (``above``) exactly when it lies above
    B's and the denominator 1 - v.w = 1 - phi(lambda) is > 0; the
    inverse is then >= 0.
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
        self.above = base.above and denom > 0
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
    kernel: Kernel
    outflow: np.ndarray
    inflow: np.ndarray
    loss: np.ndarray
    coupling: np.ndarray
    _last_fact: Optional[tuple] = field(default=None, repr=False)

    @functools.cached_property
    def full(self) -> "sp.csr_matrix":
        """The full generator as one sparse matrix (u1 stacked over u2):
        ``recruitment_free`` plus the recruitment quadrature
        B3[i, j] = beta(s_i, y_j) * h in the phase-1/phase-1 position.
        Built on first use, for the general LU alone; it materialises the
        n x n kernel."""
        import scipy.sparse as sp
        a, b, c, d = self.recruitment_free.cell_blocks()
        in1, in2 = self.inflow
        return sp.bmat(
            [[sp.diags([a, in1], [0, -1])
              + sp.csr_matrix(self.kernel.beta * self.grid.h), sp.diags(b)],
             [sp.diags(c), sp.diags([d, in2], [0, -1])]], format="csr")

    @functools.cached_property
    def recruitment_free(self) -> "DiscreteGenerator":
        """The recruitment-free operator B (transport, loss and coupling)
        as a generator of its own: the same per-cell arrays, shared, with
        a zero rank-1 kernel and its own factor memo."""
        zero = np.zeros(self.grid.n)
        return replace(self, kernel=Kernel(self.grid, factors=(zero, zero)),
                       _last_fact=None)

    def cell_blocks(self) -> Optional[tuple[np.ndarray, ...]]:
        """2x2 diagonal cell blocks of a block lower triangular generator.

        In per-cell (u1_i, u2_i) order the generator M has the diagonal
        blocks [[a_i, b_i], [c_i, d_i]] = [[M[i, i], M[i, n+i]],
        [M[n+i, i], M[n+i, n+i]]], read off the per-cell arrays.  Returns
        (a, b, c, d) when no nonzero entry of M feeds a cell from a later
        one, so that M is block lower triangular and its spectrum is the
        union of the blocks'; None otherwise.  That holds exactly when
        the kernel does not mix (beta vanishes above the diagonal: no
        offspring is smaller than its parent), a test made once per
        kernel (``Kernel.mixes_at``); ``recruitment_free`` always
        qualifies.
        """
        if self.kernel.mixes_at.any():
            return None
        a, d = -(self.outflow + self.loss)
        b, c = self.coupling
        return a + self.kernel.diagonal() * self.grid.h, b, c, d

    def factorization(self, lam: float, scale: float = 1.0,
                      above: bool = False):
        """Factor of (lambda*I - M) / scale.

        Its ``solve(rhs)`` returns scale * (lambda - M)^{-1} rhs, so
        ``scale`` = lambda = 1/dt applies the implicit step's
        (I - dt*M)^{-1}.  A rank-1 kernel f g^T (``Kernel.rank_one``)
        takes the fill-free banded factor of lambda - B (O(n), no
        pivoting), B = ``recruitment_free``, plus a Sherman-Morrison
        correction when f is nonzero; every other kernel (tables,
        callables, masked factors) takes a sparse LU (SuperLU) with a
        minimum-degree ordering of A + A^T, for implicit steps and
        resolvents: eigensolves factor ``recruitment_free`` alone.  Only
        the last (lambda, scale) factor is kept; a new key frees it.
        SpectralProximityError when the shift makes the matrix (or the
        correction) singular and, with ``above``, unless lambda lies above
        the spectral bound s_A, where (lambda - M)^{-1} >= 0: the banded
        and rank-1 factors know it from their construction, a sparse LU
        from one solve of the ones vector, positive exactly when lambda - M
        (off-diagonal <= 0) is a nonsingular M-matrix.  Each factor is
        certified once.
        """
        key = (float(lam), float(scale))
        if self._last_fact is None or self._last_fact[0] != key:
            self._last_fact = None
            if self.kernel.rank_one is not None:
                f, g = self.kernel.rank_one
                fact = _BandedFactor(lam, self.recruitment_free.cell_blocks(),
                                     self.inflow, scale)
                if f.any():
                    fact = _RankOneFactor(fact, self.grid.h / scale * f, g,
                                          lam)
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
            self._last_fact = (key, fact, False)
        fact, certified = self._last_fact[1:]
        if above and not certified:
            ok = getattr(fact, "above", None)
            if ok is None:
                x = fact.solve(np.ones(2 * self.grid.n))
                ok = np.isfinite(x).all() and x.min() > 0
            if not ok:
                raise SpectralProximityError(
                    f"lambda={lam:g} does not lie above the spectral bound "
                    f"of the generator", lam=lam)
            self._last_fact = (key, fact, True)
        return fact

    def block_sweep(self, lam: float, rhs: np.ndarray, rescale: bool = False,
                    head: Optional[tuple] = None) -> np.ndarray:
        """Solve (lambda - M) x = rhs by one forward sweep over the cells.

        M is block lower triangular: a kernel that does not mix (see
        ``cell_blocks``).  Cell i takes ``inflow[k][i-1]`` times phase k
        of cell i - 1 and the recruitment h sum_{j < i} beta[i, j] x1_j:
        h f_i times a running sum of g_j x1_j for factors (f, g) with no
        relation or ``s>y``, a row product for a dense kernel, and
        nothing for ``s<y``, which keeps no pair j < i.  With
        ``head`` = (k, v), x is zero before cell k and v at cell k, and
        the sweep fills the later cells.  lambda must lie above the
        larger eigenvalue of every block swept; each block of lambda - M
        is then an M-matrix with a nonnegative inverse, so a nonnegative
        ``rhs`` and head give a nonnegative x, and an overflow reads +inf,
        never NaN.  With ``rescale`` the sweep returns a positive multiple
        of x instead: whenever a cell passes 2^512, the running sum and
        the rhs still to come are scaled by 2^-512, and the entries so far
        once at the end by the power of two they still need (at once for
        a dense kernel, whose row product needs them at one scale).
        O(n) (a row product per cell for a dense kernel), with no LU, but
        one Python step per cell: the banded factor solves B far faster,
        and the characteristic equation comes here only where that solve
        overflows (its 0 * inf products give NaN where this sweep passes
        nothing on), off the common path of ``spectral_bound``.
        """
        n, h, K = self.grid.n, self.grid.h, self.kernel
        x1, x2 = [0.0] * n, [0.0] * n
        p1 = p2 = acc = 0.0
        first = start = 0   # cells first.. may be nonzero, start.. are swept
        if head is not None:
            first, (p1, p2) = head[0], map(float, head[1])
            x1[first], x2[first], start = p1, p2, first + 1
        inv = cell_inverse(lam, *(w[start:] for w in self.cell_blocks()))
        i11, i12, i21, i22 = np.pad(inv, ((0, 0), (start, 0))).tolist()
        in1, in2 = np.pad(self.inflow, ((0, 0), (1, 0))).tolist()
        r1, r2 = rhs[:n].tolist(), rhs[n:].tolist()
        f = g = [0.0] * n     # g[i] weighs x1 of cell i - 1
        rows = K.dense      # None for factors: s<y adds nothing here
        if K.factors is not None and K.relation != UPPER:
            f, g = (h * K.factors[0]).tolist(), [0.0] + K.factors[1].tolist()
        w = 1.0     # weight of the rhs: a power of two
        events = []     # cells at which the sweep was rescaled
        for i in range(start, n):
            # a zero weight or coupling rate passes nothing on, even from
            # an overflowed phase (0 * inf would be NaN)
            acc += g[i] and g[i] * p1
            p = w * r1[i] + in1[i] * p1 + f[i] * acc
            if rows is not None:
                p += h * float(rows[i, first:i] @ x1[first:i])
            q = w * r2[i] + in2[i] * p2
            p1 = i11[i] * p + (i12[i] and i12[i] * q)
            p2 = (i21[i] and i21[i] * p) + i22[i] * q
            x1[i], x2[i] = p1, p2
            if rescale and (p1 > HUGE or p2 > HUGE):
                if rows is None:    # cells so far take their share at the end
                    events.append(i)
                else:               # the row product needs them at one scale
                    x1[:i + 1] = [v * TINY for v in x1[:i + 1]]
                    x2[:i + 1] = [v * TINY for v in x2[:i + 1]]
                p1, p2, acc, w = p1 * TINY, p2 * TINY, acc * TINY, w * TINY
        x = np.array([x1, x2])
        if events:  # cell j takes 2^-512 once per rescale at a cell >= j
            later = len(events) - np.searchsorted(events, np.arange(n))
            x = np.ldexp(x, -512 * later)
        return x.ravel()

    def apply(self, x: np.ndarray, diag: Optional[np.ndarray] = None
              ) -> np.ndarray:
        """The product M x for a stacked x (u1 over u2), a fresh array.

        O(n) from the per-cell arrays and ``Kernel.apply`` (one dense
        product for a table or callable kernel); no matrix is built.
        ``diag`` (length 2n) replaces the transport and loss diagonal
        -(outflow + loss); every other part of M is >= 0, so a diag >= 0
        and an x >= 0 give a product >= 0 with no negative rounding.
        """
        X = x.reshape(2, -1)        # phase by cell, as the arrays
        Y = (-(self.outflow + self.loss) if diag is None
             else diag.reshape(2, -1)) * X
        Y += self.coupling * X[::-1]
        Y[:, 1:] += self.inflow * X[:, :-1]
        Y[0] += self.grid.h * self.kernel.apply(X[0])
        return Y.ravel()

    def line_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column sums of the full generator from the arrays, each
        of shape (2, n): phase by cell.  O(n); ``full`` is not built."""
        h, K = self.grid.h, self.kernel
        rows = np.pad(self.inflow, ((0, 0), (1, 0))) - self.outflow
        cols = np.pad(self.inflow, ((0, 0), (0, 1))) - self.outflow
        rows += self.coupling - self.loss
        cols += self.coupling[::-1] - self.loss
        rows[0] += h * K.row_sums()
        cols[0] += h * K.column_sums()
        return rows, cols

    def line_sum_bound(self) -> float:
        """The smaller of the largest row sum and the largest column sum
        of the full generator.

        Its off-diagonal entries are >= 0, so its spectral bound is at
        most either sum (Berman & Plemmons, *Nonnegative Matrices in the
        Mathematical Sciences*, ch. 2).
        """
        rows, cols = self.line_sums()
        return float(min(rows.max(), cols.max()))


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
    if not params.grid == kernel.grid == grid:
        raise ConfigurationError("params and kernel must share the grid")
    edges = np.array([params.gamma1_edges, params.gamma2_edges]) / grid.h
    return DiscreteGenerator(
        grid=grid, kernel=kernel,
        outflow=edges[:, 1:], inflow=edges[:, 1:-1],
        loss=np.array([params.mu + params.c1, params.c2]),
        coupling=np.array([params.c2, params.c1]))


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


def resolvent_direct(gen: DiscreteGenerator, lam: float,
                     H: StateVector) -> StateVector:
    """Solve (lambda*I - M) U = H by direct factorization."""
    if H.grid != gen.grid:
        raise ConfigurationError("state grid does not match the generator")
    fact = gen.factorization(lam)
    x = fact.solve(H.stacked())
    if not np.all(np.isfinite(x)):
        raise SpectralProximityError(
            f"resolvent solve returned non-finite values at lambda={lam:g}",
            lam=lam)
    return StateVector.from_stacked(x, gen.grid)


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
