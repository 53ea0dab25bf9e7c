"""Reference answers and answer checks for the benchmark workloads.

The references are computed here, independently of the package under
test, from the scenario document alone:

* ``exact_s_A`` -- the rightmost eigenvalue of the discrete generator.
  For a kernel supported on s > y the generator is block lower
  triangular in per-cell (u1_i, u2_i) order, so the value is the
  largest eigenvalue of the 2x2 diagonal blocks.  For a rank-1 kernel
  beta(s, y) = f(s) g(y) it is the root of the secular equation
  h g.(lambda - B)^-1 f = 1 above the spectral bound of the
  recruitment-free part B, found by bisection on sparse solves.
* ``closed_form_lambda_star`` -- the larger root of
  x^2 + x (c1 + c2 + mu) + mu c2, the recruitment-free bound of the
  unbounded-domain operator with constant rates.

Each ``check_*`` function returns the names of the checks that failed;
an empty list means the artifact is correct.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Relative errors of s_A below this are reported as this value: they are
# below the eigensolver's requested tolerance and read as rounding noise.
S_A_RESOLUTION = 1e-9


def _mesh(doc: dict):
    dom = doc["domain"]
    length = float(dom["m"] if dom["kind"] == "finite" else dom["smax"])
    n = int(dom["n"])
    h = length / n
    centers = (np.arange(n) + 0.5) * h
    return n, h, centers


def _sample(spec, s: np.ndarray) -> np.ndarray:
    """Sample the coefficient forms the workloads use at points ``s``."""
    if isinstance(spec, (int, float)):
        return np.full(s.size, float(spec))
    form = spec.get("form")
    if form == "expression" and spec.get("name") == "indicator":
        lo = float(spec.get("lo", 0.0))
        hi = float(spec.get("hi", np.inf))
        return np.where((s >= lo) & (s <= hi), float(spec.get("value", 1.0)), 0.0)
    if form == "expression" and spec.get("name") == "exp_decay":
        return float(spec.get("scale", 1.0)) * np.exp(-float(spec.get("rate", 1.0)) * s)
    raise ValueError(f"no reference sampling for coefficient {spec!r}")


def _rates(doc: dict):
    coeffs = doc["coefficients"]
    n, h, centers = _mesh(doc)
    for g in ("gamma1", "gamma2"):
        if not isinstance(coeffs[g], (int, float)):
            raise ValueError("the reference needs constant growth rates")
    mu, c1, c2 = (_sample(coeffs[k], centers) for k in ("mu", "c1", "c2"))
    return float(coeffs["gamma1"]), float(coeffs["gamma2"]), mu, c1, c2


def _kernel_factors(spec: dict, centers: np.ndarray):
    """(f, g) with beta(s_i, y_j) = f_i g_j, or None if not rank 1."""
    scale = float(spec.get("scale", 1.0))
    if spec.get("form") == "indicator" and spec.get("relation") is None:
        f = _sample({"form": "expression", "name": "indicator",
                     "lo": spec.get("s_lo", 0.0), "hi": spec.get("s_hi", np.inf),
                     "value": scale * float(spec.get("value", 1.0))}, centers)
        g = _sample({"form": "expression", "name": "indicator",
                     "lo": spec.get("y_lo", 0.0), "hi": spec.get("y_hi", np.inf)},
                    centers)
        return f, g
    return None


def _block_bound(a: np.ndarray, d: np.ndarray, c1: np.ndarray,
                 c2: np.ndarray) -> float:
    """Largest eigenvalue over the 2x2 blocks [[a, c2], [c1, d]]."""
    return float((0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + c1 * c2)).max())


def exact_s_A(doc: dict) -> float:
    """Rightmost eigenvalue of the scenario's discrete generator."""
    n, h, centers = _mesh(doc)
    g1, g2, mu, c1, c2 = _rates(doc)
    a = -g1 / h - mu - c1
    d = -g2 / h - c2
    kernel = doc["kernel"]
    if kernel.get("form") == "indicator" and kernel.get("relation") == "s>y":
        # strictly lower triangular recruitment leaves the diagonal blocks
        return _block_bound(a, d, c1, c2)
    factors = _kernel_factors(kernel, centers)
    if factors is None:
        raise ValueError(f"no exact reference for kernel {kernel!r}")
    f, g = factors
    # recruitment-free part B in stacked (u1, u2) order
    ones = np.ones(n - 1)
    B = sp.bmat([[sp.diags([a, g1 / h * ones], [0, -1]), sp.diags(c2)],
                 [sp.diags(c1), sp.diags([d, g2 / h * ones], [0, -1])]],
                format="csc")
    F = np.concatenate([f, np.zeros(n)])
    G = np.concatenate([g, np.zeros(n)])
    eye = sp.identity(2 * n, format="csc")

    def below_root(lam: float) -> bool:
        # Above the root the resolvent of B is nonnegative and of modest
        # size.  Just above s_B its transport chain grows like a power of
        # n, so a singular factor, an overflow or a solve with negative
        # entries all mean lam is below the root.
        try:
            lu = splu((lam * eye - B).tocsc())
        except RuntimeError:
            return True
        with np.errstate(all="ignore"):
            x = lu.solve(F)
            phi = h * G @ x
        return not (phi <= 1.0 and x.min() >= -1e-8 * x.max())

    # bisection on the sign of phi - 1 between s_B and a bound above the
    # root: a Metzler matrix has its spectral bound below its largest
    # row sum.  Ends at s_B when the recruitment does not lift the bound.
    lo = _block_bound(a, d, c1, c2)
    births = np.concatenate([h * f * g.sum(), np.zeros(n)])
    hi = float((B.sum(axis=1).A1 + births).max()) + 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if below_root(mid):
            lo = mid
        else:
            hi = mid


def closed_form_lambda_star(c1: float, c2: float, mu: float) -> float:
    b = c1 + c2 + mu
    return 0.5 * (-b + math.sqrt(b * b - 4.0 * mu * c2))


def s_A_error(reported: float, exact: float) -> float:
    """|reported - exact| / max(|exact|, 1), floored at S_A_RESOLUTION."""
    return max(abs(reported - exact) / max(abs(exact), 1.0), S_A_RESOLUTION)


def half_gamma0_over_h(doc: dict) -> float:
    coeffs = doc["coefficients"]
    gamma0 = coeffs.get("gamma0", min(coeffs["gamma1"], coeffs["gamma2"]))
    return 0.5 * float(gamma0) / _mesh(doc)[1]


def _probe_classes(spectral: dict) -> dict:
    return {str(p["lam"]): p["classification"] for p in spectral.get("probe") or []}


def check_report(report: dict, expect: dict, doc: dict) -> list:
    """Answer checks on a ``<name>_report.json`` document."""
    failed = []
    if not report.get("complete"):
        failed.append("complete")
    if (report.get("verdict") or {}).get("predicted") != expect["verdict"]:
        failed.append("verdict")
    spectral = report.get("spectral") or {}
    if "probe" in expect and _probe_classes(spectral) != expect["probe"]:
        failed.append("probe")
    if "max_mass_drift" in expect:
        drift = (report.get("mass_balance") or {}).get("max_abs_drift")
        if drift is None or not drift <= expect["max_mass_drift"]:
            failed.append("mass_drift")
    if "s_B_divergent" in expect and \
            spectral.get("s_B_divergent") is not expect["s_B_divergent"]:
        failed.append("s_B_divergent")
    if expect.get("s_A_below_half_gamma0_over_h") and \
            not spectral.get("s_A", 0.0) < -half_gamma0_over_h(doc):
        failed.append("s_A_below_half_gamma0_over_h")
    return failed


def read_sweep_csv(path: str) -> list:
    with open(path, newline="") as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def check_sweep(rows: list, expect: dict, doc: dict, key: str,
                values: list) -> list:
    """Answer checks on a sweep CSV over ``key`` = ``values``."""
    if len(rows) != len(values) or \
            not np.allclose([r[key] for r in rows], values, rtol=1e-11, atol=0):
        return ["rows"]
    failed = []
    coeffs = doc["coefficients"]
    for r in rows:
        params = {"c1": coeffs["c1"], "c2": coeffs["c2"], "mu": coeffs["mu"]}
        params[key.split(".")[-1]] = r[key]
        lam = closed_form_lambda_star(params["c1"], params["c2"], params["mu"])
        if not abs(r["lambda_star"] - lam) <= expect["lambda_star_rtol"] * max(abs(lam), 1.0):
            failed.append("lambda_star")
        if not r["gap"] >= r["eps_bar"] - expect["gap_shortfall_tol"]:
            failed.append("gap_vs_eps_bar")
    return sorted(set(failed))
