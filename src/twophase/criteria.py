"""Mechanical checks of the structural hypotheses behind the theory.

Three support/mixing conditions together characterize irreducibility of
the generator on the product space:

  * kernel_mixes_all: for every size cutoff eps, some recruitment mass
    flows from parents above eps to offspring below eps;
  * transition_reaches_zero: the active-to-resting rate c1 is supported
    down to size 0;
  * return_reaches_max: the resting-to-active rate c2 is supported up to
    the maximal size.

The weaker kernel_mixes_some (a single working cutoff suffices)
characterizes non-emptiness of the spectrum and hence the spectral gap
on finite domains.  All "almost everywhere" conditions are evaluated at
mesh resolution; the verdict records the mesh width so the
characterizations read "at mesh scale".  Mixing is a support condition,
read at the interior cell edges from the kernel's exact
``Kernel.mixes_at``.  Every check reads the mesh of the coefficients
(``params.grid``) and raises ConfigurationError when the kernel's
differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .model import FINITE, Kernel, ModelParams, SizeGrid

SUPPORT_TOL = 1e-12   # relative support-detection threshold

# predicted outcome classes
IRREDUCIBLE_GAP_AEG = "irreducible_gap_aeg"
GAP_ONLY = "gap_only"
NO_GAP = "no_gap"
EMPTY_SPECTRUM = "empty_spectrum"
INCONCLUSIVE = "inconclusive"


@dataclass
class Verdict:
    """Hypothesis flags with witnesses and the predicted outcome class."""

    kernel_mixes_all: bool
    mixes_all_witness: Optional[float]      # failing cutoff when false
    transition_reaches_zero: bool
    inf_supp_c1: Optional[float]            # None = empty support
    return_reaches_max: bool
    sup_supp_c2: Optional[float]
    kernel_mixes_some: bool
    mixes_some_witness: Optional[float]     # working cutoff when true
    irreducible: bool
    b1: Optional[float]
    b2: Optional[float]
    b_blocked_by: Optional[str]
    conservativity: str                     # super | sub | neutral | mixed
    margin_min: float
    margin_max: float
    tail_mu_min: Optional[float]
    tail_c2_min: Optional[float]
    tail_window: Optional[float]
    weak_compact_sufficient: bool
    predicted: str
    domain_kind: str
    h: float

    def __post_init__(self):
        # structural implication: mixing at every cutoff implies mixing
        # at some cutoff
        if self.kernel_mixes_all and not self.kernel_mixes_some:
            raise ConfigurationError("inconsistent mixing flags")
        if self.b1 is not None and self.b2 is not None and self.b2 < self.b1:
            raise ConfigurationError("b2 must be >= b1")


def _supported(vals: np.ndarray) -> np.ndarray:
    """The cells where a rate exceeds SUPPORT_TOL times its maximum (none
    where it vanishes identically)."""
    return vals > SUPPORT_TOL * max(float(vals.max()), 0.0)


def _same_mesh(kernel: Kernel, params: ModelParams) -> SizeGrid:
    """The mesh of params; ConfigurationError when the kernel's differs."""
    if kernel.grid != params.grid:
        raise ConfigurationError(
            f"kernel mesh {kernel.grid} differs from the coefficients' "
            f"mesh {params.grid}")
    return params.grid


def check_supports(params: ModelParams):
    """Detected support endpoints of the transition rates.

    Returns (inf supp c1, sup supp c2) using the left edge of the first
    supported cell and the right edge of the last; ``None`` marks an
    identically-zero coefficient.
    """
    c1, c2 = np.flatnonzero(_supported(params.c1)), \
        np.flatnonzero(_supported(params.c2))
    edges = params.grid.edges
    return (float(edges[c1[0]]) if c1.size else None,
            float(edges[c2[-1] + 1]) if c2.size else None)


def compute_b1_b2(kernel: Kernel, params: ModelParams):
    """Thresholds of the largest invariant product subspace.

    b1 is the smallest cutoff below which the kernel cannot place
    offspring; b2 the first size >= b1 at which the active-to-resting
    rate switches on.  Both are found by a grid-edge scan of
    ``Kernel.mixes_at``.  Returns (b1, b2, None) on success, or (None,
    None, reason) when one of the two supporting hypotheses fails: the
    kernel must mix at every cutoff above b1, and c1 must have some
    support in [b1, length].
    """
    grid = _same_mesh(kernel, params)
    edges, mixes = grid.edges[1:-1], kernel.mixes_at
    if not mixes.any():
        return None, None, "kernel never mixes at any cutoff"
    first = int(np.argmax(mixes))
    b1 = float(edges[first])
    if not mixes[first:].all():
        bad = first + int(np.argmin(mixes[first:]))
        return None, None, (f"kernel mixing fails above b1 at cutoff "
                            f"{edges[bad]:g}")
    idx = np.flatnonzero(_supported(params.c1) & (grid.centers >= b1))
    if idx.size == 0:
        return None, None, "c1 has no support above b1"
    b2 = max(b1, float(grid.edges[idx[0]]))
    return b1, b2, None


def classify_conservativity(kernel: Kernel, params: ModelParams):
    """Sign-classify the per-parent net birth/death margin.

    margin(y_j) = sum_i beta[i, j]*h - mu[j].  Returns the class
    ('super', 'sub', 'neutral', 'mixed'), the margin extremes, and --
    for truncated unbounded domains -- minima of mu and c2 over the
    final 10% of cells as liminf surrogates, with the window length.
    """
    grid = _same_mesh(kernel, params)
    margin = kernel.column_sums() * grid.h - params.mu
    mmin, mmax = float(margin.min()), float(margin.max())
    if mmin >= -1e-12 and mmax <= 1e-12:
        cls = "neutral"
    elif mmin >= -1e-12:
        cls = "super"
    elif mmax <= 1e-12:
        cls = "sub"
    else:
        cls = "mixed"
    if grid.kind == FINITE:
        return cls, mmin, mmax, None, None, None
    w = max(1, grid.n // 10)
    tail_mu = float(params.mu[-w:].min())
    tail_c2 = float(params.c2[-w:].min())
    return cls, mmin, mmax, tail_mu, tail_c2, float(w * grid.h)


def full_verdict(kernel: Kernel, params: ModelParams) -> Verdict:
    """Compose all hypothesis checks into a predicted outcome class.

    Finite domain: all three support/mixing conditions give
    irreducibility, and with it a spectral gap and asynchronous
    exponential growth; mixing at some cutoff without irreducibility
    gives the gap only (growth then stabilizes on an invariant
    subspace); no mixing at all gives an empty spectrum (pure decay
    under refinement).  Truncated unbounded domain: the prediction is
    conditioned on the conservativity class and the tail behavior of mu
    and c2.  ConfigurationError when the kernel and the coefficients
    lie on different meshes.
    """
    grid = _same_mesh(kernel, params)
    edges, mixes = grid.edges[1:-1], kernel.mixes_at
    # witnesses: the first cutoff that fails, the first that works
    mixes_all, mixes_some = bool(mixes.all()), bool(mixes.any())
    w_all = None if mixes_all else float(edges[int(np.argmin(mixes))])
    w_some = float(edges[int(np.argmax(mixes))]) if mixes_some else None
    inf_c1, sup_c2 = check_supports(params)
    reaches_zero = inf_c1 is not None and inf_c1 <= grid.h * (1 + 1e-9)
    reaches_max = (sup_c2 is not None
                   and sup_c2 >= grid.length - grid.h * (1 + 1e-9))
    irreducible = mixes_all and reaches_zero and reaches_max
    b1 = b2 = blocked = None
    if mixes_some:
        b1, b2, blocked = compute_b1_b2(kernel, params)
    cls, mmin, mmax, tail_mu, tail_c2, tail_w = classify_conservativity(
        kernel, params)
    weak_ok = kernel.dominator is not None

    if grid.kind == FINITE:
        if irreducible and mixes_some:
            predicted = IRREDUCIBLE_GAP_AEG
        elif mixes_some:
            predicted = GAP_ONLY
        else:
            predicted = EMPTY_SPECTRUM
    else:
        # liminf surrogates treated as vanishing below 1e-8 (a decaying
        # tail sampled on the final window is tiny but not exactly zero)
        tail_vanishes = tail_c2 <= 1e-8 or tail_mu <= 1e-8
        if cls in ("super", "neutral") and not tail_vanishes and mixes_some:
            predicted = IRREDUCIBLE_GAP_AEG if irreducible else GAP_ONLY
        elif cls in ("sub", "neutral") and tail_vanishes:
            predicted = NO_GAP
        else:
            predicted = INCONCLUSIVE

    return Verdict(
        kernel_mixes_all=mixes_all, mixes_all_witness=w_all,
        transition_reaches_zero=reaches_zero, inf_supp_c1=inf_c1,
        return_reaches_max=reaches_max, sup_supp_c2=sup_c2,
        kernel_mixes_some=mixes_some, mixes_some_witness=w_some,
        irreducible=irreducible, b1=b1, b2=b2, b_blocked_by=blocked,
        conservativity=cls, margin_min=mmin, margin_max=mmax,
        tail_mu_min=tail_mu, tail_c2_min=tail_c2, tail_window=tail_w,
        weak_compact_sufficient=weak_ok, predicted=predicted,
        domain_kind=grid.kind, h=grid.h)
