"""Size mesh, model coefficients, and the recruitment kernel.

Everything downstream (operator assembly, time stepping, spectral
analysis) works on cell-averaged data sampled here.  The mesh is uniform
and all sampling is done at cell centers; integrals are midpoint sums.
Discontinuous coefficients (indicators, step tables) are sampled
pointwise at centers, so a cell straddling a jump takes the center
value -- a deterministic O(h) bias.

The kernel keeps the structure of its built-in form: rank-1 factors
(constant, product, box indicator), kept on every cell pair or, for an
indicator with a relation (``s>y``, ``s<y``), only strictly below or
above the diagonal.  Its derived quantities cost O(n) and no n x n
array is allocated; only tables and callables are sampled densely.

Instances are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError, ValidationError

FINITE = "finite"
TRUNCATED_INFINITE = "truncated_infinite"

_DOMAIN_KINDS = (FINITE, TRUNCATED_INFINITE)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SizeGrid:
    """Uniform mesh over [0, length] with n cells, fixed by its fields.

    ``kind`` tells a true maximal size from a truncation of an unbounded
    domain.  The read-only ``edges`` (linspace(0, length, n + 1)),
    ``centers`` and ``h = length / n`` are derived, so ``==`` compares meshes.
    """

    kind: str
    length: float
    n: int

    @property
    def h(self) -> float:
        return self.length / self.n

    @cached_property
    def edges(self) -> np.ndarray:
        return _readonly(np.linspace(0.0, self.length, self.n + 1))

    @cached_property
    def centers(self) -> np.ndarray:
        return _readonly(0.5 * (self.edges[:-1] + self.edges[1:]))


def build_grid(kind: str, length: float, n: int) -> SizeGrid:
    """Check and build a uniform size mesh.

    ``kind`` is ``"finite"`` (length = maximal size m) or
    ``"truncated_infinite"`` (length = truncation S_max of an unbounded
    domain).
    """
    if kind not in _DOMAIN_KINDS:
        raise ConfigurationError(f"unknown domain kind {kind!r}")
    if not np.isfinite(length) or length <= 0:
        raise ConfigurationError(f"domain length must be positive, got {length}")
    if n < 2:
        raise ConfigurationError(f"need at least 2 cells, got n={n}")
    return SizeGrid(kind, float(length), int(n))


# ---------------------------------------------------------------------------
# Coefficient descriptors
#
# A coefficient can be given as a scalar (constant), a callable s -> value,
# or a dict with a "form" key:
#   {"form": "constant", "value": v}
#   {"form": "table", "points": [[s0, v0], [s1, v1], ...]}   step interpolation
#   {"form": "expression", "name": "exp_decay"|"indicator"|"linear", ...}
# ---------------------------------------------------------------------------

CoefficientSpec = Union[float, int, Callable[[np.ndarray], np.ndarray], dict]

# the keys each descriptor accepts, by coefficient form, expression name
# and kernel form: a misspelt key would silently take its default
_COEFFICIENT_KEYS = {"constant": {"form", "value"},
                     "table": {"form", "points"}}
_EXPRESSION_KEYS = {"exp_decay": {"form", "name", "scale", "rate"},
                    "indicator": {"form", "name", "lo", "hi", "value"},
                    "linear": {"form", "name", "intercept", "slope"}}
_KERNEL_COMMON = {"form", "scale", "dominator"}
_KERNEL_KEYS = {
    "constant": _KERNEL_COMMON | {"value"},
    "product": _KERNEL_COMMON | {"offspring", "parent"},
    "table": _KERNEL_COMMON | {"values"},
    "indicator": _KERNEL_COMMON | {"relation", "value", "s_lo", "s_hi",
                                   "y_lo", "y_hi"}}


def _number(value, field: str, integer: bool = False):
    """A scalar of the document as a finite float, or as an int when
    ``integer`` (60.0 passes, 60.7 does not, nor does a count past 2^53,
    where a JSON number no longer holds every whole number);
    ValidationError naming ``field`` otherwise."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.inf
    if not math.isfinite(x) or integer and not (x.is_integer()
                                                and abs(x) <= 2 ** 53):
        what = "a whole number within 2^53" if integer else "a finite number"
        raise ValidationError(f"{field} must be {what}, got {value!r}",
                              field=field)
    return int(x) if integer else x


def _param(spec: dict, key: str, default: float) -> float:
    """The descriptor's number ``key`` (finite, see ``_number``), or
    ``default`` when the key is omitted."""
    return _number(spec[key], key) if key in spec else default


def _check_keys(d: dict, allowed: Optional[set], where: str):
    """ConfigurationError when ``d`` is not a mapping or has keys outside
    ``allowed``, naming them and ``where`` they are.

    ``allowed`` is None for an expression, checked by its name, and for
    an unknown form or name, which the dispatch reports.
    """
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be a mapping, got {d!r}")
    unknown = sorted(set(d) - allowed) if allowed is not None else ()
    if unknown:
        raise ConfigurationError(f"unknown key(s) {unknown} in {where}")


def _expression(spec: dict) -> Callable[[np.ndarray], np.ndarray]:
    name = spec.get("name")
    _check_keys(spec, _EXPRESSION_KEYS.get(name), "'expression' descriptor")
    if name == "exp_decay":
        scale, rate = _param(spec, "scale", 1.0), _param(spec, "rate", 1.0)
        return lambda s: scale * np.exp(-rate * s)
    if name == "indicator":
        lo, hi = _param(spec, "lo", 0.0), _param(spec, "hi", np.inf)
        value = _param(spec, "value", 1.0)
        return lambda s: np.where((s >= lo) & (s <= hi), value, 0.0)
    if name == "linear":
        intercept = _param(spec, "intercept", 0.0)
        slope = _param(spec, "slope", 1.0)
        return lambda s: intercept + slope * s
    raise ConfigurationError(f"unknown builtin expression {name!r}")


def _required(spec: dict, key: str):
    if key not in spec:
        raise ConfigurationError(
            f"{spec.get('form')!r} descriptor is missing {key!r}")
    return spec[key]


def _rows(spec: dict, key: str) -> np.ndarray:
    """The descriptor's rows of numbers ``key`` as a float array;
    ValidationError naming the first entry that is a boolean or not a
    number, ConfigurationError when the rows are ragged."""
    rows = _required(spec, key)
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iuf":
        return rows.astype(float)
    listed = rows.tolist() if isinstance(rows, np.ndarray) else rows
    # the types of all entries at C speed; the entry is located only
    # when one is not a plain number (a table may hold n^2 entries)
    types = set()
    try:
        for row in listed:
            types.update(map(type, row))
    except TypeError:
        types.add(None)
    for i, row in enumerate(() if types <= {float, int} else
                            listed if isinstance(listed, (list, tuple))
                            else [listed]):
        for j, v in enumerate(row if isinstance(row, (list, tuple))
                              else [row]):
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValidationError(f"{key}[{i}][{j}] must be a number, "
                                      f"got {v!r}", field=f"{key}[{i}][{j}]")
    try:
        return np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise ConfigurationError(f"{key} must be rows of one length: {exc}")


def sample_coefficient(spec: CoefficientSpec, grid: SizeGrid,
                       points: Optional[np.ndarray] = None) -> np.ndarray:
    """Sample a coefficient descriptor at the cell centers.

    ``points`` overrides the sampling locations (used for edge values of
    the growth rates, which the upwind flux needs).
    """
    s = grid.centers if points is None else np.asarray(points, dtype=float)
    npts = s.size
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        vals = np.full(npts, float(spec))
    elif callable(spec):
        vals = np.asarray(spec(s), dtype=float)
        if vals.shape == ():
            vals = np.full(npts, float(vals))
    elif isinstance(spec, dict):
        form = spec.get("form")
        _check_keys(spec, _COEFFICIENT_KEYS.get(form), f"{form!r} descriptor")
        if form == "constant":
            vals = np.full(npts, _number(_required(spec, "value"), "value"))
        elif form == "table":
            pts = _rows(spec, "points")
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ConfigurationError("table points must be [s, value] pairs")
            order = np.argsort(pts[:, 0])
            knots, values = pts[order, 0], pts[order, 1]
            # step interpolation: value of the last knot at or left of s
            idx = np.searchsorted(knots, s, side="right") - 1
            idx = np.clip(idx, 0, len(knots) - 1)
            vals = values[idx]
        elif form == "expression":
            vals = np.asarray(_expression(spec)(s), dtype=float)
        else:
            raise ConfigurationError(f"unknown coefficient form {form!r}")
    else:
        raise ConfigurationError(f"cannot interpret coefficient spec {spec!r}")
    if vals.shape != (npts,):
        raise ConfigurationError("coefficient sample has wrong length")
    return _readonly(vals.copy())


@dataclass(frozen=True)
class ModelParams:
    """Cell-center samples of the model rates on one grid.

    gamma1/gamma2 are growth rates (bounded below by gamma0 > 0),
    mu is the mortality of the active phase, c1/c2 the phase transition
    rates (active -> resting and back).
    """

    grid: SizeGrid
    gamma1: np.ndarray
    gamma2: np.ndarray
    mu: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    gamma0: float
    # growth rates sampled at the n+1 cell edges, for the upwind flux
    gamma1_edges: np.ndarray
    gamma2_edges: np.ndarray


def sample_params(specs: dict, grid: SizeGrid) -> ModelParams:
    """Sample and validate all model coefficients.

    ``specs`` maps names gamma1, gamma2, mu, c1, c2 to coefficient
    descriptors, plus the scalar lower bound gamma0 for the growth
    rates.  Violations report the offending cell index.
    """
    gamma0 = float(specs.get("gamma0", 0.0))
    if gamma0 <= 0:
        raise ValidationError("gamma0 must be a positive scalar", field="gamma0")
    sampled = {}
    for name in ("gamma1", "gamma2", "mu", "c1", "c2"):
        if name not in specs:
            raise ConfigurationError(f"missing coefficient {name!r}")
        try:
            vals = sample_coefficient(specs[name], grid)
        except ValidationError as exc:
            raise ValidationError(f"{name}.{exc}", field=f"{name}.{exc.field}")
        except ConfigurationError as exc:
            raise ConfigurationError(f"{exc} (coefficient {name})")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValidationError(f"{name} is not finite at cell {bad}",
                                  field=name, cell=bad)
        if name in ("mu", "c1", "c2"):
            if np.any(vals < 0):
                bad = int(np.flatnonzero(vals < 0)[0])
                raise ValidationError(
                    f"{name} is negative at cell {bad} (s={grid.centers[bad]:g})",
                    field=name, cell=bad)
        else:
            if np.any(vals < gamma0):
                bad = int(np.flatnonzero(vals < gamma0)[0])
                raise ValidationError(
                    f"{name} drops below gamma0={gamma0:g} at cell {bad} "
                    f"(s={grid.centers[bad]:g})", field=name, cell=bad)
        sampled[name] = vals
    edges = {}
    for name in ("gamma1", "gamma2"):
        vals = sample_coefficient(specs[name], grid, points=grid.edges)
        if np.any(~np.isfinite(vals)) or np.any(vals < gamma0):
            bad = int(np.flatnonzero(~np.isfinite(vals) | (vals < gamma0))[0])
            raise ValidationError(
                f"{name} drops below gamma0={gamma0:g} at edge {bad} "
                f"(s={grid.edges[bad]:g})", field=name, cell=bad)
        edges[name + "_edges"] = vals
    return ModelParams(grid=grid, gamma0=gamma0, **sampled, **edges)


# ---------------------------------------------------------------------------
# Recruitment kernel
# ---------------------------------------------------------------------------

KernelSpec = Union[float, int, Callable[[np.ndarray, np.ndarray], np.ndarray], dict]

LOWER, UPPER = "s>y", "s<y"


@dataclass(frozen=True)
class Kernel:
    """Cell-center recruitment kernel beta(s_i, y_j) and derived scalars.

    The kernel keeps the structure of its form, so that every derived
    quantity below costs O(n) and allocates no n x n array:

      * ``factors`` = (f, g) for every built-in form: beta[i, j] =
        f[i] * g[j] on the cell pairs that ``relation`` keeps and 0 on
        the others.  ``relation`` None keeps them all (constant, product,
        box indicator: a rank-1 kernel, see ``rank_one``); ``"s>y"``
        keeps j < i (offspring larger than the parent) and ``"s<y"``
        keeps j > i, strictly below or above the diagonal (an indicator
        with a relation: its box times its value, masked);
      * ``dense`` for tables and callables.

    Exactly one of ``factors`` and ``dense`` is set.  ``mixes_at``, the
    support test that the criteria and the generator's block structure
    both read, is computed once per kernel.  ``dominator`` is an
    optional grid function bounding beta(s, y) <= dominator(s) for all y
    (sufficient condition for weak compactness of the recruitment
    operator).
    """

    grid: SizeGrid
    dominator: Optional[np.ndarray] = None
    factors: Optional[tuple[np.ndarray, np.ndarray]] = None
    relation: Optional[str] = None
    dense: Optional[np.ndarray] = None

    @property
    def rank_one(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The factors (f, g) when beta = f g^T on every cell pair, else
        None."""
        return self.factors if self.relation is None else None

    @property
    def beta(self) -> np.ndarray:
        """The n x n kernel samples, materialized on each access for the
        structured forms (a test oracle, as ``DiscreteGenerator.full``)."""
        if self.dense is not None:
            return self.dense
        i = np.arange(self.grid.n)
        return np.where(self._kept(i[:, None], i), np.outer(*self.factors),
                        0.0)

    @property
    def beta1(self) -> np.ndarray:
        """Row minimum of beta over y."""
        return self._row_extremes()[0]

    def _kept(self, i, j):
        # where beta[i, j] may be nonzero, broadcast over i and j
        if self.relation is None:
            return np.broadcast_to(True, np.broadcast(i, j).shape)
        return j < i if self.relation == LOWER else j > i

    def _line(self, x: np.ndarray, ufunc, rows: bool):
        """``ufunc`` over the kept entries of x in each row (x = g) or
        column (x = f): one reduction with no relation, else an
        exclusive prefix scan (rows of s>y, columns of s<y) or suffix
        scan from 0, which every masked line also holds."""
        if self.relation is None:
            return ufunc.reduce(x)
        prefix = (self.relation == LOWER) == rows
        y = x if prefix else x[::-1]
        out = ufunc.accumulate(np.concatenate([[0.0], y[:-1]]))
        return out if prefix else out[::-1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """beta @ x: f times g.x for a rank-1 kernel, times an exclusive
        prefix (``s>y``) or suffix (``s<y``) sum of g x under a relation,
        each partial sum accumulated from zero, and one product for a
        dense kernel.  O(n) for factors."""
        if self.dense is not None:
            return self.dense @ x
        f, g = self.factors
        if self.relation is None:
            return f * (g @ x)
        return f * self._line(g * x, np.add, rows=True)

    def row_sums(self) -> np.ndarray:
        """sum_j beta[i, j] for every offspring cell i."""
        if self.dense is not None:
            return self.dense.sum(axis=1)
        f, g = self.factors
        return f * self._line(g, np.add, rows=True)

    def column_sums(self) -> np.ndarray:
        """sum_i beta[i, j] for every parent cell j."""
        if self.dense is not None:
            return self.dense.sum(axis=0)
        f, g = self.factors
        return g * self._line(f, np.add, rows=False)

    def _row_extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """Row minimum and maximum of beta over y."""
        if self.dense is not None:
            return self.dense.min(axis=1), self.dense.max(axis=1)
        f, g = self.factors
        lo, hi = (f * self._line(g, u, rows=True)
                  for u in (np.minimum, np.maximum))
        return np.minimum(lo, hi), np.maximum(lo, hi)

    def diagonal(self) -> np.ndarray:
        """beta[i, i]: recruitment into the parent's own cell."""
        if self.dense is not None:
            return np.diagonal(self.dense).copy()
        f, g = self.factors
        return f * g if self.relation is None else np.zeros(self.grid.n)

    @cached_property
    def mixes_at(self) -> np.ndarray:
        """Read-only M[k-1] = whether some beta[i, j] > 0 with i < k <= j,
        for the interior cell edges k = 1..n-1.

        The kernel mixes at edge k when some offspring below it have
        parents above it; it mixes at all exactly when some beta[i, j] > 0
        with i < j.  A support test, exact, computed once per kernel: a
        dense kernel compares the running maximum of each row's last
        positive column with k (one boolean n x n temporary), factors
        read where f > 0 and g > 0 (a nonnegative kernel's factors, see
        ``_rank_one``), in O(n).
        """
        k = np.arange(1, self.grid.n)
        if self.dense is not None:
            pos = self.dense > 0
            last = np.where(pos.any(axis=1),
                            self.grid.n - 1 - pos[:, ::-1].argmax(axis=1), -1)
            return _readonly(np.maximum.accumulate(last)[:-1] >= k)
        # every pair i < k <= j lies above the diagonal, kept by "s<y"
        i, j = (np.flatnonzero(x > 0) for x in self.factors)
        if self.relation == LOWER or not (i.size and j.size):
            return _readonly(np.zeros(k.size, dtype=bool))
        return _readonly((i[0] < k) & (k <= j[-1]))

    def _check_values(self):
        """ValidationError unless every kernel sample is finite and >= 0."""
        if self.dense is not None:
            finite = np.all(np.isfinite(self.dense))
        else:
            f, g = self.factors
            finite = (np.all(np.isfinite(f)) and np.all(np.isfinite(g))
                      and np.isfinite(np.abs(f).max() * np.abs(g).max()))
        if not finite:
            raise ValidationError("kernel sample is not finite", field="kernel")
        lo = self._row_extremes()[0]
        i = int(np.argmin(lo))
        if lo[i] < 0:
            c = self.grid.centers
            row = (self.dense[i] if self.dense is not None else np.where(
                self._kept(i, np.arange(c.size)), f[i] * g, 0.0))
            j = int(np.argmin(row))
            raise ValidationError(
                f"kernel is negative at (s={c[i]:g}, y={c[j]:g})",
                field="kernel", cell=i)


def _rank_one(f: np.ndarray, g: np.ndarray) -> dict:
    """Factors (f, g) of a rank-1 kernel, both negated when both are
    nonpositive, so that a nonnegative kernel has nonnegative factors
    unless one of them is zero."""
    if np.all(f <= 0) and np.all(g <= 0):
        f, g = -f, -g
    return {"factors": (f + 0.0, g + 0.0)}


def _kernel_form(spec: KernelSpec, grid: SizeGrid) -> tuple[dict, Optional[np.ndarray]]:
    """Structured samples of a kernel spec: factors (with a relation) or
    dense, as Kernel keeps them, and the sampled dominator."""
    s = grid.centers
    ones = np.ones(grid.n)
    dominator = None
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        form = _rank_one(np.full(grid.n, float(spec)), ones)
    elif callable(spec):
        S, Y = np.meshgrid(s, s, indexing="ij")
        form = {"dense": np.array(spec(S, Y), dtype=float)}
    elif isinstance(spec, dict):
        kind = spec.get("form")
        _check_keys(spec, _KERNEL_KEYS.get(kind), f"{kind!r} descriptor")
        scale = _param(spec, "scale", 1.0)
        if kind == "constant":
            value = _param(spec, "value", 1.0) * scale
            form = _rank_one(np.full(grid.n, value), ones)
        elif kind == "product":
            f = sample_coefficient(_required(spec, "offspring"), grid)  # in s
            g = sample_coefficient(spec.get("parent", 1.0), grid)  # factor in y
            form = _rank_one(f * scale, g)
        elif kind == "table":
            beta = _rows(spec, "values")
            if beta.shape != (grid.n, grid.n):
                raise ConfigurationError(
                    f"kernel table must be {grid.n}x{grid.n}, got {beta.shape}")
            form = {"dense": beta * scale}
        elif kind == "indicator":
            relation = spec.get("relation")
            if relation not in (None, LOWER, UPPER):
                raise ConfigurationError(f"unknown kernel relation {relation!r}")
            value = _param(spec, "value", 1.0) * scale

            def box(lo, hi):
                return ((s >= _param(spec, lo, 0.0))
                        & (s <= _param(spec, hi, np.inf))).astype(float)
            form = dict(_rank_one(box("s_lo", "s_hi") * value,
                                  box("y_lo", "y_hi")), relation=relation)
        else:
            raise ConfigurationError(f"unknown kernel form {kind!r}")
        if "dominator" in spec and spec["dominator"] is not None:
            dominator = sample_coefficient(spec["dominator"], grid) * scale
    else:
        raise ConfigurationError(f"cannot interpret kernel spec {spec!r}")
    if "dense" in form and form["dense"].shape != (grid.n, grid.n):
        raise ConfigurationError("kernel sample has wrong shape")
    return form, dominator


def build_kernel(spec: KernelSpec, grid: SizeGrid) -> Kernel:
    """Sample the recruitment kernel at (center_i, center_j) pairs.

    Built-in forms keep their (masked) rank-1 factors (see ``Kernel``);
    tables and callables are sampled densely.  ValidationError when a
    sample is negative or not finite, or the dominator does not bound a
    row.
    """
    form, dominator = _kernel_form(spec, grid)
    kernel = Kernel(grid=grid, dominator=dominator, **form)
    kernel._check_values()
    if dominator is not None:
        row_max = kernel._row_extremes()[1]
        if np.any(row_max > dominator + 1e-12 * max(1.0, float(row_max.max()))):
            raise ValidationError("dominator does not bound the kernel",
                                  field="kernel.dominator")
        dominator.setflags(write=False)
    for arr in (*form.get("factors", ()), form.get("dense")):
        if arr is not None:
            arr.setflags(write=False)
    return kernel
