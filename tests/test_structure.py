"""Structured kernels and generators against dense oracles.

Every built-in kernel form keeps rank-1 factors, on every cell pair or,
with a relation, masked to the strict triangle below or above the
diagonal; each derived quantity, the cell-block qualification, the
rank-1 (Sherman-Morrison) factor and the Neumann-series factor of the
masked ones and the dense kernels are checked here against formulas on
the dense ``Kernel.beta`` and the dense generator, at n <= 60.
"""

import tracemalloc

import numpy as np
import pytest

from twophase.criteria import full_verdict
from twophase.errors import SpectralProximityError, ValidationError
from twophase.evolution import evolve
from twophase.model import Kernel, build_grid, build_kernel, sample_params
from twophase.operators import (StateVector, _RankOneFactor, _SeriesFactor,
                                assemble)
from twophase.spectral import spectral_bound

# every built-in kernel form, plus the dense ones, for the oracle tests
# below; each is checked against formulas on the dense Kernel.beta
KERNEL_FORMS = {
    "scalar": 1.5,
    "zero": 0.0,
    "constant": {"form": "constant", "value": 2.0},
    "product": {"form": "product",
                "offspring": {"form": "expression", "name": "exp_decay"},
                "parent": {"form": "expression", "name": "linear",
                           "intercept": 0.5}},
    "product_scaled": {"form": "product", "scale": 1.7,
                       "offspring": {"form": "table",
                                     "points": [[0.0, 2.0], [0.4, 0.0]]}},
    "box": {"form": "indicator", "s_lo": 0.2, "s_hi": 0.6, "value": 3.0},
    "box_y_bounds": {"form": "indicator", "s_hi": 0.3, "y_lo": 0.5,
                     "y_hi": 0.9},
    "box_no_mixing": {"form": "indicator", "s_lo": 0.5, "y_hi": 0.4},
    "lower": {"form": "indicator", "relation": "s>y", "value": 2.0},
    "upper": {"form": "indicator", "relation": "s<y", "scale": 0.5},
    # a box with a relation: the box's factors, masked
    "lower_box": {"form": "indicator", "relation": "s>y", "s_lo": 0.3,
                  "y_hi": 0.6, "value": 2.0},
    "upper_box": {"form": "indicator", "relation": "s<y", "s_hi": 0.7,
                  "y_lo": 0.2, "value": 0.3},
    "dominated": {"form": "constant", "value": 1.0, "scale": 0.5,
                  "dominator": 2.0},
    "lower_dominated": {"form": "indicator", "relation": "s>y",
                        "dominator": 1.0},
    "table": {"form": "table",
              "values": np.add.outer(np.arange(37.0), np.arange(37.0))
              .tolist()},
    "callable": lambda s, y: np.where(s >= y, 1.0 + s * y, 0.0),
}


def indicator_samples(spec, g):
    # an indicator's samples from its definition at the cell centers
    S, Y = np.meshgrid(g.centers, g.centers, indexing="ij")
    kept = {None: True, "s>y": S > Y, "s<y": S < Y}[spec.get("relation")]
    box = ((S >= spec.get("s_lo", 0.0)) & (S <= spec.get("s_hi", np.inf))
           & (Y >= spec.get("y_lo", 0.0)) & (Y <= spec.get("y_hi", np.inf)))
    return spec.get("value", 1.0) * spec.get("scale", 1.0) * (kept & box)


def mixing_oracle(beta):
    # whether some offspring below edge k have parents above it
    return [bool(beta[:k, k:].any()) for k in range(1, beta.shape[0])]


class TestKernelStructure:
    @pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
    def test_derived_quantities_match_dense_oracle(self, name):
        g = build_grid("finite", 1.0, 37)
        spec = KERNEL_FORMS[name]
        K = build_kernel(spec, g)
        beta = K.beta
        assert beta.shape == (37, 37) and beta.min() >= 0
        if isinstance(spec, dict) and spec["form"] == "indicator":
            assert np.array_equal(beta, indicator_samples(spec, g))
        assert np.array_equal(K.beta1, beta.min(axis=1))
        assert np.allclose(K.column_sums(), beta.sum(axis=0),
                           rtol=1e-14, atol=0)
        assert np.allclose(K.row_sums(), beta.sum(axis=1), rtol=1e-14, atol=0)
        assert np.array_equal(K.diagonal(), np.diag(beta))
        assert np.array_equal(K.mixes_at, mixing_oracle(beta))
        if K.dominator is not None:
            assert np.all(beta <= K.dominator[:, None])

    @pytest.mark.parametrize("n", [2, 3, 37])
    def test_mixes_at_matches_oracle_on_random_supports(self, n):
        # sparse tables and masked factors, mostly zero, some all zero
        g = build_grid("finite", 1.0, n)
        rng = np.random.default_rng(n)
        for density in (0.0, 0.02, 0.1, 0.5):
            for _ in range(50):
                K = Kernel(g, dense=rng.random((n, n))
                           * (rng.random((n, n)) < density))
                assert np.array_equal(K.mixes_at, mixing_oracle(K.beta))
                f, y = (rng.random(n) * (rng.random(n) < 2 * density)
                        for _ in range(2))
                for relation in (None, "s>y", "s<y"):
                    K = Kernel(g, factors=(f, y), relation=relation)
                    assert np.array_equal(K.mixes_at, mixing_oracle(K.beta))
        assert not K.mixes_at.flags.writeable

    def test_structured_forms_store_no_dense_array(self):
        g = build_grid("finite", 1.0, 37)
        for name, spec in KERNEL_FORMS.items():
            K = build_kernel(spec, g)
            assert (K.dense is None) == (name not in ("table", "callable"))
            assert (K.relation is not None) == name.startswith(("lower",
                                                                 "upper"))
            assert (K.rank_one is not None) == (K.dense is None
                                                and K.relation is None)

    @pytest.mark.parametrize("spec", [
        {"form": "indicator", "relation": "s>y", "value": 2.0,
         "dominator": 1.5},
        {"form": "product", "offspring": 1.0,
         "parent": {"form": "expression", "name": "linear"},
         "dominator": 0.9}])
    def test_structured_dominator_violation_rejected(self, spec):
        g = build_grid("finite", 1.0, 10)
        with pytest.raises(ValidationError, match="dominator"):
            build_kernel(spec, g)

    @pytest.mark.parametrize("spec", [
        {"form": "product", "offspring": {"form": "expression",
                                          "name": "linear",
                                          "intercept": -0.5},
         "parent": -1.0},
        {"form": "indicator", "relation": "s<y", "value": -1.0},
        {"form": "constant", "value": -2.0}])
    def test_structured_negative_kernel_rejected(self, spec):
        g = build_grid("finite", 1.0, 10)
        with pytest.raises(ValidationError, match="negative"):
            build_kernel(spec, g)

    def test_negative_masked_box_located_in_its_triangle(self):
        # the box holds s <= 0.3 and y >= 0.6, so every cell pair of it
        # lies above the diagonal, where s<y keeps it
        g = build_grid("finite", 1.0, 10)
        with pytest.raises(ValidationError, match=r"\(s=0.05, y=0.65\)"):
            build_kernel({"form": "indicator", "relation": "s<y",
                          "s_hi": 0.3, "y_lo": 0.6, "value": -1.0}, g)

    def test_negative_factors_with_positive_product_accepted(self):
        g = build_grid("finite", 1.0, 10)
        K = build_kernel({"form": "product", "offspring": -2.0,
                          "parent": -0.5}, g)
        assert np.all(K.beta == 1.0)
        assert np.all(K.factors[0] >= 0) and np.all(K.factors[1] >= 0)


RATES = dict(gamma1=lambda s: 1 + s, gamma2=lambda s: 1.5 - 0.5 * s,
             mu=lambda s: 0.5 + s, c1=lambda s: 1 + 0.5 * np.sin(3 * s),
             c2=lambda s: 0.8 + 0.2 * s, gamma0=0.5)


def generator(spec, n=37, m=1.0, **over):
    g = build_grid("finite", m, n)
    p = sample_params(dict(RATES, **over), g)
    K = build_kernel(spec, g)
    return g, p, K, assemble(p, K, g)


def dense_blocks(g, p, K):
    # the four blocks written out densely from the model formulas:
    # transport A, loss B1, coupling B2 and recruitment B3 (zero when K
    # is None)
    n, h = g.n, g.h
    A, B1, B2, B3 = (np.zeros((2 * n, 2 * n)) for _ in range(4))
    for k, ge in enumerate((p.gamma1_edges, p.gamma2_edges)):
        i = np.arange(n) + k * n
        A[i, i] = -ge[1:] / h
        A[i[1:], i[:-1]] = ge[1:-1] / h
    i = np.arange(n)
    B1[i, i] = -(p.mu + p.c1)
    B1[n + i, n + i] = -p.c2
    B2[i, n + i] = p.c2
    B2[n + i, i] = p.c1
    if K is not None:
        B3[:n, :n] = K.beta * h
    return A, B1, B2, B3


def dense_recruitment_free(p):
    # B = A + B1 + B2 from the coefficients alone, independent of the
    # generator's arrays
    return sum(dense_blocks(p.grid, p, None)[:3])


def dense_generator(g, p, K):
    return sum(dense_blocks(g, p, K))


class TestGeneratorStructure:
    @pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
    def test_cell_blocks_and_norm_match_dense_generator(self, name):
        g, p, K, gen = generator(KERNEL_FORMS[name])
        n, M = g.n, dense_generator(g, p, K)
        assert np.allclose(gen.full.toarray(), M, rtol=1e-15, atol=0)
        i = np.arange(n)
        mixes = bool(np.triu(K.beta, 1).any())
        assert K.mixes_at.any() == mixes
        assert (gen.cell_blocks() is None) == mixes
        pairs = [(dense_recruitment_free(p), gen.recruitment_free)]
        for D, op in pairs + ([] if mixes else [(M, gen)]):
            a, b, c, d = op.cell_blocks()
            assert np.array_equal(a, D[i, i])
            assert np.array_equal(b, D[i, n + i])
            assert np.array_equal(c, D[n + i, i])
            assert np.array_equal(d, D[n + i, n + i])
        # M is Metzler: its spectral bound is at most every line sum
        assert gen.line_sum_bound() == pytest.approx(
            min(M.sum(axis=1).max(), M.sum(axis=0).max()), rel=0,
            abs=1e-14 * np.abs(M).sum(axis=1).max())

    @pytest.mark.parametrize("name", ["lower", "upper", "lower_box",
                                      "upper_box"])
    def test_masked_factors_take_the_series_factor(self, name):
        # factors kept on one side of the diagonal are not rank-1: the
        # full generator solves by the Neumann series on B's banded
        # factor, certified above s_A, and raises below it, while the
        # eigensolve of an s<y kernel, which mixes, takes the
        # characteristic route
        g, p, K, gen = generator(KERNEL_FORMS[name])
        assert K.factors is not None and K.rank_one is None
        assert isinstance(gen.factorization(100.0), _SeriesFactor)
        bound = spectral_bound(gen)
        assert bound.route == (
            "characteristic" if K.relation == "s<y" else "exact")
        assert gen.factorization(bound.s + 0.5, above=True).above
        with pytest.raises(SpectralProximityError, match="spectral bound"):
            gen.factorization(bound.s - 0.5)

    @pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
    def test_eigensolve_makes_no_splu_call(self, name):
        # every route solves on banded factors of lambda - B or sweeps,
        # and none builds the sparse generator, a test oracle only
        g, p, K, gen = generator(KERNEL_FORMS[name])
        spectral_bound(gen)
        assert "full" not in vars(gen)

    @pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
    def test_line_sum_bound_lies_above_spectral_bound(self, name):
        g, p, K, gen = generator(KERNEL_FORMS[name])
        assert gen.line_sum_bound() >= spectral_bound(gen).s

    @pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
    @pytest.mark.parametrize("offset", [0.5, 100.0, None])
    def test_factor_solve_matches_dense_solve(self, name, offset):
        # a shift just above max(s_A, 0), one of implicit-step size and
        # (None) the implicit step 1/dt at dt = 0.99 / max(s_A, 1), so
        # dt*s_A = 0.99 where s_A >= 1 (the table's); a nonnegative and
        # a signed rhs, whose positive and negative parts a series factor
        # sums apart.  (The non-mixing generators are strongly
        # non-normal: just above their s_A ~ -1/h any solve amplifies
        # rounding far past 1e-12.)  Rank-1 kernels with a nonzero
        # offspring factor take the Sherman-Morrison route, the kernels
        # that are not rank-1 the Neumann series
        g, p, K, gen = generator(KERNEL_FORMS[name])
        M = dense_generator(g, p, K)
        if offset is None:
            lam = max(spectral_bound(gen).s, 1.0) / 0.99
        else:
            lam = max(float(np.linalg.eigvals(M).real.max()), 0.0) + offset
        fact = gen.factorization(lam)
        assert isinstance(fact, _RankOneFactor) == (
            K.rank_one is not None and K.rank_one[0].any())
        assert isinstance(fact, _SeriesFactor) == (K.rank_one is None)
        rng = np.random.default_rng(11)
        for rhs in (rng.random(2 * g.n), rng.random(2 * g.n) - 0.5):
            ref = np.linalg.solve(lam * np.eye(2 * g.n) - M, rhs)
            x = fact.solve(rhs)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_vanishing_sherman_morrison_denominator_raises(self):
        # pure transport at gamma = 1, h = 0.5 with beta = e_0 e_0^T:
        # lambda - B is nonsingular at lambda = h - 1/h = -1.5, where
        # 1 - h g.(lambda - B)^{-1}(f, 0) = 1 - h/(lambda + 1/h) = 0 and
        # lambda - full is exactly singular
        g, p, K, gen = generator(
            {"form": "indicator", "s_hi": 0.3, "y_hi": 0.3}, n=4, m=2.0,
            gamma1=1.0, gamma2=1.0, mu=0.0, c1=0.0, c2=0.0, gamma0=1.0)
        lam = -1.5
        dense = lam * np.eye(8) - dense_generator(g, p, K)
        assert np.linalg.matrix_rank(dense) == 7
        with pytest.raises(SpectralProximityError, match="rank-1"):
            gen.factorization(lam)
        H = StateVector(np.ones(4), np.ones(4), g)
        with pytest.raises(SpectralProximityError):    # no factor was kept
            gen.factorization(lam).solve(H.stacked())
        # a shift off the singular one solves as the dense system does
        lam = -1.25
        x = gen.factorization(lam).solve(H.stacked())
        ref = np.linalg.solve(lam * np.eye(8) - dense_generator(g, p, K),
                              H.stacked())
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_constant_kernel_pipeline_allocates_no_dense_array(self):
        # n = 5000: a dense kernel or generator would take 200 MB
        def pipeline(n):
            g = build_grid("finite", 1.0, n)
            p = sample_params(dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=1.0,
                                   c2=1.0, gamma0=1.0), g)
            K = build_kernel(1.0, g)
            gen = assemble(p, K, g)
            full_verdict(K, p)
            U = StateVector(np.ones(n), np.zeros(n), g)
            return StateVector.from_stacked(
                evolve(gen, U, 1e-3, 1e-3).records[-1], g)

        pipeline(50)       # imports scipy outside the traced window
        tracemalloc.start()
        try:
            U = pipeline(5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(U.mass)
        assert peak < 20 * 2 ** 20
