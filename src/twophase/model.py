"""Size mesh, model coefficients, and the recruitment kernel.

Everything downstream (operator assembly, time stepping, spectral
analysis) works on cell-averaged data sampled here.  The mesh is uniform
and all sampling is done at cell centers; integrals are midpoint sums.
Discontinuous coefficients (indicators, step tables) are sampled
pointwise at centers, so a cell straddling a jump takes the center
value -- a deterministic O(h) bias.

Instances are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError, ValidationError

FINITE = "finite"
TRUNCATED_INFINITE = "truncated_infinite"

_DOMAIN_KINDS = (FINITE, TRUNCATED_INFINITE)


@dataclass(frozen=True)
class SizeGrid:
    """Uniform mesh over [0, length] with n cells.

    ``kind`` records whether ``length`` is a true maximal size or a
    truncation of an unbounded domain (pure outflow at the right edge in
    both cases; the distinction matters to the spectral classification).
    """

    kind: str
    length: float
    n: int
    edges: np.ndarray
    centers: np.ndarray
    h: float

    def same_as(self, other: "SizeGrid") -> bool:
        return (
            self.kind == other.kind
            and self.n == other.n
            and self.length == other.length
        )


def build_grid(kind: str, length: float, n: int) -> SizeGrid:
    """Build a uniform size mesh.

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
    edges = np.linspace(0.0, float(length), n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    h = float(length) / n
    edges.setflags(write=False)
    centers.setflags(write=False)
    return SizeGrid(kind=kind, length=float(length), n=int(n), edges=edges,
                    centers=centers, h=h)


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


def _expression(spec: dict) -> Callable[[np.ndarray], np.ndarray]:
    name = spec.get("name")
    if name == "exp_decay":
        scale = float(spec.get("scale", 1.0))
        rate = float(spec.get("rate", 1.0))
        return lambda s: scale * np.exp(-rate * s)
    if name == "indicator":
        lo = float(spec.get("lo", 0.0))
        hi = float(spec.get("hi", np.inf))
        value = float(spec.get("value", 1.0))
        return lambda s: np.where((s >= lo) & (s <= hi), value, 0.0)
    if name == "linear":
        intercept = float(spec.get("intercept", 0.0))
        slope = float(spec.get("slope", 1.0))
        return lambda s: intercept + slope * s
    raise ConfigurationError(f"unknown builtin expression {name!r}")


def _required(spec: dict, key: str):
    if key not in spec:
        raise ConfigurationError(
            f"{spec.get('form')!r} descriptor is missing {key!r}")
    return spec[key]


def sample_coefficient(spec: CoefficientSpec, grid: SizeGrid,
                       points: Optional[np.ndarray] = None) -> np.ndarray:
    """Sample a coefficient descriptor at the cell centers.

    ``points`` overrides the sampling locations (used for edge values of
    the growth rates, which the upwind flux needs).
    """
    s = grid.centers if points is None else np.asarray(points, dtype=float)
    npts = s.size
    if isinstance(spec, (int, float)):
        vals = np.full(npts, float(spec))
    elif callable(spec):
        vals = np.asarray(spec(s), dtype=float)
        if vals.shape == ():
            vals = np.full(npts, float(vals))
    elif isinstance(spec, dict):
        form = spec.get("form")
        if form == "constant":
            vals = np.full(npts, float(_required(spec, "value")))
        elif form == "table":
            pts = np.asarray(_required(spec, "points"), dtype=float)
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
    vals = vals.copy()
    vals.setflags(write=False)
    return vals


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
    gamma1_edges: np.ndarray = None
    gamma2_edges: np.ndarray = None


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
        vals = sample_coefficient(specs[name], grid)
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


@dataclass(frozen=True)
class Kernel:
    """Cell-averaged recruitment kernel beta(s_i, y_j) and derived scalars.

    ``k_beta`` is the max over columns j of sum_i beta[i, j] * h (the
    discrete bound on the integral operator norm), ``beta1`` the row-wise
    minimum over y.  ``dominator`` is an optional grid function bounding
    beta(s, y) <= dominator(s) for all y (sufficient condition for weak
    compactness of the recruitment operator).
    """

    grid: SizeGrid
    beta: np.ndarray
    k_beta: float
    beta1: np.ndarray
    dominator: Optional[np.ndarray] = None


def _kernel_values(spec: KernelSpec, grid: SizeGrid) -> tuple[np.ndarray, Optional[np.ndarray]]:
    s = grid.centers
    S, Y = np.meshgrid(s, s, indexing="ij")
    dominator = None
    if isinstance(spec, (int, float)):
        beta = np.full((grid.n, grid.n), float(spec))
    elif callable(spec):
        beta = np.asarray(spec(S, Y), dtype=float)
    elif isinstance(spec, dict):
        form = spec.get("form")
        scale = float(spec.get("scale", 1.0))
        if form == "constant":
            beta = np.full((grid.n, grid.n), float(spec.get("value", 1.0)))
        elif form == "product":
            f = sample_coefficient(_required(spec, "offspring"), grid)  # in s
            g = sample_coefficient(spec.get("parent", 1.0), grid)  # factor in y
            beta = np.outer(f, g)
        elif form == "table":
            beta = np.asarray(_required(spec, "values"), dtype=float)
            if beta.shape != (grid.n, grid.n):
                raise ConfigurationError(
                    f"kernel table must be {grid.n}x{grid.n}, got {beta.shape}")
            beta = beta.copy()
        elif form == "indicator":
            relation = spec.get("relation")
            value = float(spec.get("value", 1.0))
            if relation == "s>y":
                beta = np.where(S > Y, value, 0.0)
            elif relation == "s<y":
                beta = np.where(S < Y, value, 0.0)
            elif relation is None:
                s_lo = float(spec.get("s_lo", 0.0))
                s_hi = float(spec.get("s_hi", np.inf))
                y_lo = float(spec.get("y_lo", 0.0))
                y_hi = float(spec.get("y_hi", np.inf))
                beta = np.where((S >= s_lo) & (S <= s_hi)
                                & (Y >= y_lo) & (Y <= y_hi), value, 0.0)
            else:
                raise ConfigurationError(f"unknown kernel relation {relation!r}")
        else:
            raise ConfigurationError(f"unknown kernel form {form!r}")
        beta = beta * scale
        if "dominator" in spec and spec["dominator"] is not None:
            dominator = sample_coefficient(spec["dominator"], grid) * scale
    else:
        raise ConfigurationError(f"cannot interpret kernel spec {spec!r}")
    if beta.shape != (grid.n, grid.n):
        raise ConfigurationError("kernel sample has wrong shape")
    return beta, dominator


def build_kernel(spec: KernelSpec, grid: SizeGrid) -> Kernel:
    """Sample the recruitment kernel at (center_i, center_j) pairs.

    Computes k_beta (max h-weighted column sum) and beta1 (row minimum
    over the parent-size axis) by their exact discrete formulas.
    """
    beta, dominator = _kernel_values(spec, grid)
    if not np.all(np.isfinite(beta)):
        raise ValidationError("kernel sample is not finite", field="kernel")
    if np.any(beta < 0):
        i, j = np.unravel_index(int(np.argmin(beta)), beta.shape)
        raise ValidationError(
            f"kernel is negative at (s={grid.centers[i]:g}, y={grid.centers[j]:g})",
            field="kernel", cell=int(i))
    if dominator is not None:
        if np.any(beta > dominator[:, None] + 1e-12 * max(1.0, float(beta.max(initial=0.0)))):
            raise ValidationError("dominator does not bound the kernel",
                                  field="kernel.dominator")
    k_beta = float((beta.sum(axis=0) * grid.h).max())
    beta1 = beta.min(axis=1).copy()
    beta = beta.copy()
    beta.setflags(write=False)
    beta1.setflags(write=False)
    if dominator is not None:
        dominator = dominator.copy()
        dominator.setflags(write=False)
    return Kernel(grid=grid, beta=beta, k_beta=k_beta, beta1=beta1,
                  dominator=dominator)
