"""Discrete generator assembly and its factored resolvent.

The full generator M acts on the doubled state (u1 stacked over u2,
length 2n) as the sum of four parts: first-order conservative upwind
transport of -d/ds(gamma u), zero inflow at s=0 and free outflow on the
right (a lower-bidiagonal n x n block per phase); the loss diagonal,
-(mu + c1) on phase 1 and -c2 on phase 2; the cell-local phase coupling,
+c2 into phase 1 and +c1 into phase 2; and the midpoint quadrature of
the birth kernel, on phase 1 only.  A generator keeps the per-cell
arrays of the first three parts and the structured kernel, and applies
M from them (``apply``, O(n) for every built-in kernel); no solve builds
M as a matrix.

Resolvents (lambda*I - M)^{-1} solve on one factor,
``DiscreteGenerator.factorization``.  The recruitment-free operator B
(transport, loss and coupling), ``DiscreteGenerator.recruitment_free``,
is block lower bidiagonal in per-cell order (u1_i, u2_i), so lambda - B
factors with no fill and no pivoting, each solve one BLAS banded
triangular solve (dtbsv) and a vectorised inverse of the 2x2 cell
blocks, O(n).  Every factor of lambda - M solves on it: with a
Sherman-Morrison correction for a rank-1 kernel, else by the Neumann
series of the regular splitting lambda - M = (lambda - B) - h beta.  A
generator keeps only its last factor.  ``DiscreteGenerator.block_sweep``
solves a block lower triangular generator (B, or one whose kernel does
not mix) by one pure-Python forward sweep: the exact eigenvectors come
from it, and the banded solves fall back on it where they overflow.
scipy is imported only to build the test oracle ``full``; every solve
loads scipy's BLAS extension ``scipy.linalg._fblas`` alone, never the
``scipy``, ``scipy.linalg`` or ``scipy.sparse`` packages.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConfigurationError, IterationError, SpectralProximityError
from .model import UPPER, Kernel, ModelParams, SizeGrid

# forward sweeps that would overflow rescale by exact powers of 2
HUGE, TINY = 2.0 ** 512, 2.0 ** -512


@functools.cache
def _blas():
    """scipy's f2py BLAS extension ``scipy.linalg._fblas``, found from
    scipy's import spec and loaded in a few ms, without importing
    ``scipy`` (about 20 ms) or the ``scipy.linalg`` package (about 0.3 s,
    mostly its array-API layer pulling in ``numpy.f2py``).  It is entered
    in ``sys.modules``, where a later ``import scipy.linalg`` finds it
    (only the package attribute ``scipy.linalg._fblas`` stays unset;
    scipy never reads it).  Falls back to the plain import if the
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

    In per-cell order (u1_i, u2_i), lambda - B is block lower bidiagonal,
    the cell blocks D_i = lambda - [[a_i, b_i], [c_i, d_i]] on the
    diagonal and -diag(inflow_i) below: it factors with no fill and no
    pivoting as L_b D, L_b unit lower banded (bandwidth 3).  A solve is
    one BLAS dtbsv with L_b and the vectorised D^-1 (times ``scale``).
    ``above``: lambda lies above every block eigenvalue, where D^-1 >= 0
    and L_b <= 0 off the diagonal, so the Z-matrix lambda - B has an
    inverse >= 0 (Berman & Plemmons, ch. 6) and a rhs >= 0 gives x >= 0.
    O(n); every solve goes through one interleave buffer, so one factor
    serves one thread at a time.
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
    factor of lambda - B, u v^T = h (f, 0) (g, 0)^T for the rank-1 kernel
    beta = f g^T, by the Sherman-Morrison identity x = y + w (v.y) /
    (1 - v.w), y = scale (lambda - B)^{-1} rhs, w = (lambda - B)^{-1} u
    (``hf`` is h f / scale).  lambda lies above the spectral bound
    (``above``), where the inverse is >= 0, exactly when it lies above
    B's and 1 - v.w = 1 - phi(lambda) > 0.
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


class _SeriesFactor:
    """Solves (lambda - M) x = scale * rhs, for a kernel that is not
    rank-1, by ``_neumann_series`` from x_0 = scale (lambda - B)^{-1} rhs
    and d = h beta x_0,1, a signed rhs's positive and negative parts
    apart.  It is built above s_A alone: the series of the ones vector
    ends (on a Collatz-Wielandt or norm bound below 1), and its sum x >=
    (lambda - B)^{-1} 1 > 0 solves (lambda - M) x = 1, so the Z-matrix
    lambda - M is a nonsingular M-matrix (Berman & Plemmons, ch. 6).
    """

    above, terms = True, 500    # each series ends within that many terms

    def __init__(self, gen: "DiscreteGenerator", lam: float, scale: float):
        # a twin on the same arrays: no cycle through the memo keeps gen
        gen = replace(gen, _last_fact=None)
        self._gen, self._lam, self._scale = gen, lam, scale
        self._norm = gen.next_generation_norm(lam)
        try:
            ok = (gen.recruitment_free.factorization(lam).above and
                  np.isfinite(self.solve(np.ones(2 * gen.grid.n))).all())
        except IterationError:
            ok = False
        if not ok:
            raise SpectralProximityError(
                f"lambda={lam:g} does not lie above the spectral bound of "
                f"the generator: its Neumann series does not converge",
                lam=lam)

    def _sum(self, rhs: np.ndarray) -> np.ndarray:
        gen, lam = self._gen, self._lam
        x = _solve_recruitment_free(gen, lam, self._scale * rhs)
        if np.isfinite(x).all():
            d = gen.grid.h * gen.kernel.apply(x[:gen.grid.n])
            x = _neumann_series(gen, lam, x, d, iter(range(self.terms)),
                                self._norm)
        return np.full(rhs.size, math.inf) if x is None else x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side of length 2n; the result is a
        fresh array, not finite where a term overflows."""
        if rhs.min() >= 0:
            return self._sum(rhs)
        return self._sum(np.maximum(rhs, 0)) - self._sum(np.maximum(-rhs, 0))


def _solve_recruitment_free(gen: "DiscreteGenerator", lam: float,
                            rhs: np.ndarray) -> np.ndarray:
    """(lambda - B)^{-1} rhs on the banded factor of B = ``recruitment_free``;
    where that overflows (its 0 * inf puts NaN into finite entries too),
    by one forward sweep (``block_sweep``), which reads +inf, never NaN."""
    B = gen.recruitment_free
    with np.errstate(all="ignore"):
        x = B.factorization(lam).solve(rhs)
    return x if np.isfinite(x).all() else B.block_sweep(lam, rhs)


def _next_generation(gen: "DiscreteGenerator", lam: float, v: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """K(lambda) v = h beta [(lambda - B)^{-1}(v, 0)]_1 and the solve x; a
    row that reads an overflowed entry of x reads +inf."""
    n = gen.grid.n
    x = _solve_recruitment_free(gen, lam, np.concatenate([v, np.zeros(n)]))
    over = np.isinf(x[:n])
    with np.errstate(all="ignore"):
        y = gen.grid.h * gen.kernel.apply(np.where(over, 0.0, x[:n]))
        if over.any():
            y[gen.kernel.apply(over * 1.0) > 0] = math.inf
    y[np.isnan(y)] = 0.0    # 0 * inf, only in a row the kernel leaves empty
    return y, x


def _rounding_slack(n: int) -> float:
    """4 n eps: a bound on the relative rounding of a sum of at most n
    nonnegative terms, such as an entry of K v for v >= 0."""
    return 4 * n * math.ulp(1.0)


def _collatz_wielandt(y: np.ndarray, v: np.ndarray) -> tuple:
    """The Collatz-Wielandt ratio bounds (min, max) of y_i / v_i over v_i
    > 0, for y = K v with K, v >= 0; the max is inf where y is positive
    off v's support."""
    pos = v > 0
    ratio = y[pos] / v[pos]
    return ratio.min(), math.inf if y[~pos].any() else ratio.max()


def _neumann_series(gen: "DiscreteGenerator", lam: float, x: np.ndarray,
                    d: np.ndarray, steps, norm: float = math.inf
                    ) -> Optional[np.ndarray]:
    """x + sum_k (lambda - B)^{-1}(K^k d, 0), d >= 0, K = K(lambda) above
    s_B: the series of the regular splitting lambda - M = (lambda - B) -
    h beta (Varga, *Matrix Iterative Analysis*, ch. 3).  Where q_lo d_k <=
    K d_k <= q_hi d_k < d_k, the rest lies between t(q_lo) and t(q_hi)
    times term k, t(q) = q / (1 - q): it ends at the midpoint once that is
    within 4 n eps of the sum of the d_k over 1 - q_hi, or, for a ``norm``
    >= |K|_1 below 1, once |K d_k|_1 / (1 - norm) is within 4 n eps.
    Terms after the first draw on ``steps``.  None where a term
    overflows; IterationError where ``steps`` run out or q_lo passes 1.
    """
    slack, z = _rounding_slack(gen.grid.n), d
    while d.any():
        y, term = _next_generation(gen, lam, d)
        if not np.isfinite(term).all():
            return None
        x, q = x + term, _collatz_wielandt(y, d)
        t = [r / (1.0 - r) for r in q] if q[1] < 1 else [0, math.inf]
        if (t[1] - t[0]) * d.max() <= slack * (1 + t[1]) * z.max() < math.inf:
            return x + 0.5 * (t[0] + t[1]) * term
        if y.sum() <= (1.0 - norm) * slack * z.sum():
            return x
        if q[0] * (1 - slack) >= 1 or next(steps, None) is None:
            raise IterationError(f"the Neumann series of K(lambda) did not "
                                 f"settle at lambda={lam:g}")
        z, d = z + y, y
    return x


@dataclass
class DiscreteGenerator:
    """Discrete generator kept as per-cell arrays, with factorized
    resolvent access.

    ``outflow[k]`` = gamma_k(edge_{i+1})/h and ``inflow[k]`` =
    gamma_k(edge_i)/h (cells 1..n-1) are the upwind rates of phase k,
    ``loss`` = (mu + c1, c2) the loss rates, and ``coupling`` = (c2, c1)
    the rates into phase 1 from phase 2 and back.
    """

    grid: SizeGrid
    kernel: Kernel
    outflow: np.ndarray
    inflow: np.ndarray
    loss: np.ndarray
    coupling: np.ndarray
    _last_fact: Optional[tuple] = field(default=None, repr=False)

    @functools.cached_property
    def full(self):
        """The full generator as one sparse matrix (u1 stacked over u2),
        the recruitment quadrature B3[i, j] = beta(s_i, y_j) * h in the
        phase-1/phase-1 position: an oracle only; no solve uses it."""
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
        """The 2x2 diagonal cell blocks (a, b, c, d), [[a_i, b_i], [c_i,
        d_i]] = [[M[i, i], M[i, n+i]], [M[n+i, i], M[n+i, n+i]]], of a
        generator that is block lower triangular in per-cell order, whose
        spectrum is the union of the blocks'; None for any other.  That
        holds exactly when the kernel does not mix (``Kernel.mixes_at``:
        no offspring is smaller than its parent); ``recruitment_free``
        always qualifies.
        """
        if self.kernel.mixes_at.any():
            return None
        a, d = -(self.outflow + self.loss)
        b, c = self.coupling
        return a + self.kernel.diagonal() * self.grid.h, b, c, d

    def factorization(self, lam: float, scale: float = 1.0,
                      above: bool = False):
        """Factor of (lambda*I - M) / scale, whose ``solve(rhs)`` returns
        scale * (lambda - M)^{-1} rhs (``scale`` = lambda = 1/dt applies
        the implicit step's (I - dt*M)^{-1}).  Each solves on the banded
        factor of lambda - B, B = ``recruitment_free``: alone for a rank-1
        kernel f g^T with f = 0, with a Sherman-Morrison correction for
        another, and by the Neumann series (``_SeriesFactor``) for every
        other kernel.  Only the last (lambda, scale) factor is kept.  Each
        answers ``above``: whether lambda lies above s_A, where
        (lambda - M)^{-1} >= 0.  SpectralProximityError where the shift
        makes the matrix (or the correction) singular, a series diverges,
        or, with ``above``, lambda lies below s_A.
        """
        key = (float(lam), float(scale))
        if self._last_fact is None or self._last_fact[0] != key:
            self._last_fact = None
            if self.kernel.rank_one is None:
                fact = _SeriesFactor(self, lam, scale)
            else:
                f, g = self.kernel.rank_one
                fact = _BandedFactor(lam, self.recruitment_free.cell_blocks(),
                                     self.inflow, scale)
                if f.any():
                    fact = _RankOneFactor(fact, self.grid.h / scale * f, g,
                                          lam)
            self._last_fact = (key, fact)
        fact = self._last_fact[1]
        if above and not fact.above:
            raise SpectralProximityError(
                f"lambda={lam:g} does not lie above the spectral bound "
                f"of the generator", lam=lam)
        return fact

    def next_generation_norm(self, lam: float) -> float:
        """A bound of |K(lambda)|_1: h beta's largest column sum over the
        gap between lambda and B's (Z-matrix lambda - B has column sums >=
        gap, so an inverse >= 0 with column sums <= 1/gap); else inf."""
        gap = lam - float(self.recruitment_free.line_sums()[1].max())
        born = self.grid.h * float(self.kernel.column_sums().max())
        return born / gap if gap > 0 else math.inf

    def block_sweep(self, lam: float, rhs: np.ndarray, rescale: bool = False,
                    head: Optional[tuple] = None) -> np.ndarray:
        """Solve (lambda - M) x = rhs by one forward sweep over the cells,
        for a kernel that does not mix (``cell_blocks``).

        Cell i takes ``inflow[k][i-1]`` times phase k of cell i - 1 and
        h sum_{j < i} beta[i, j] x1_j: h f_i times a running sum of
        g_j x1_j for factors with no relation or ``s>y``, a row product
        for a dense kernel, nothing for ``s<y``.  With ``head`` = (k, v),
        x is zero before cell k and v at cell k.  Above every block
        swept, a nonnegative ``rhs`` and head give x >= 0, and an overflow
        reads +inf, never NaN (the banded solve's 0 * inf reads NaN).
        With ``rescale`` it returns a positive multiple of x: whenever a
        cell passes 2^512, the running sum and the rhs still to come are
        scaled by 2^-512, and the entries so far by the power of two they
        still need, at the end (at once for a dense kernel's row
        product).  O(n), no LU, but a Python step per cell: the banded
        solves come here only where they overflow.
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

    The determinant is (lambda - larger)(lambda - smaller eigenvalue),
    the gap to the larger from ``block_eigenvalues``, which never rounds
    below max(a, d): above it the determinant stays positive where
    (lambda - a)(lambda - d) - bc can round to zero or below, and the
    inverse is >= 0.  SpectralProximityError when lambda is an eigenvalue
    of some block.
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
