import itertools

import numpy as np
import pytest

from twophase.criteria import (EMPTY_SPECTRUM, GAP_ONLY, IRREDUCIBLE_GAP_AEG,
                               NO_GAP, check_supports, classify_conservativity,
                               compute_b1_b2, full_verdict)
from twophase.errors import ConfigurationError
from twophase.model import build_grid, build_kernel, sample_params


def params_on(g, **over):
    spec = dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=1.0, c2=1.0, gamma0=1.0)
    spec.update(over)
    return sample_params(spec, g)


def indicator(lo, hi):
    return {"form": "expression", "name": "indicator", "lo": lo, "hi": hi}


class TestSupports:
    def test_full_support(self):
        g = build_grid("finite", 1.0, 100)
        lo, hi = check_supports(params_on(g))
        assert lo == 0.0
        assert hi == 1.0

    def test_indicator_support_within_h(self):
        g = build_grid("finite", 1.0, 100)
        lo, _ = check_supports(params_on(g, c1=indicator(0.5, 1.0)))
        assert abs(lo - 0.5) <= g.h

    def test_empty_support(self):
        g = build_grid("finite", 1.0, 100)
        _, hi = check_supports(params_on(g, c2=0.0))
        assert hi is None

    def test_monotone_under_enlargement(self):
        g = build_grid("finite", 1.0, 100)
        lo1, _ = check_supports(params_on(g, c1=indicator(0.6, 1.0)))
        lo2, _ = check_supports(params_on(g, c1=indicator(0.4, 1.0)))
        assert lo2 <= lo1


class TestMixingConditions:
    def test_positive_kernel_mixes_everywhere(self):
        g = build_grid("finite", 1.0, 50)
        v = full_verdict(build_kernel(1.0, g), params_on(g))
        assert v.kernel_mixes_all and v.mixes_all_witness is None

    def test_growth_only_kernel_never_mixes(self):
        g = build_grid("finite", 1.0, 50)
        K = build_kernel({"form": "indicator", "relation": "s>y"}, g)
        v = full_verdict(K, params_on(g))
        assert not v.kernel_mixes_all
        assert not v.kernel_mixes_some

    def test_corner_kernel_mixes_at_every_cutoff(self):
        # support [0, 0.2] x [0.8, 1]: for any interior cutoff eps the
        # rectangle [0, eps] x [eps, 1] still meets the support
        g = build_grid("finite", 1.0, 100)
        K = build_kernel({"form": "indicator", "s_hi": 0.2, "y_lo": 0.8}, g)
        v = full_verdict(K, params_on(g))
        assert v.kernel_mixes_all
        assert v.kernel_mixes_some and 0 < v.mixes_some_witness < 1


class TestB1B2:
    def test_shifted_kernel_and_localized_c1(self):
        g = build_grid("finite", 1.0, 100)
        K = build_kernel({"form": "indicator", "s_lo": 0.2}, g)
        p = params_on(g, c1=indicator(0.5, 1.0))
        b1, b2, reason = compute_b1_b2(K, p)
        assert reason is None
        assert abs(b1 - 0.2) <= g.h
        assert abs(b2 - 0.5) <= g.h

    def test_full_supports_give_zero(self):
        g = build_grid("finite", 1.0, 100)
        b1, b2, reason = compute_b1_b2(build_kernel(1.0, g), params_on(g))
        assert reason is None
        assert b1 <= g.h and b2 <= g.h

    def test_mixing_gap_above_b1_blocks(self):
        # the box on s in [0, 0.2] x y in [0.3, 0.5] mixes across the
        # cutoffs 0.02 .. 0.48 only: the first one is b1, and at 0.5 no
        # parent above places offspring below
        g = build_grid("finite", 1.0, 50)
        K = build_kernel({"form": "indicator", "s_hi": 0.2, "y_lo": 0.3,
                          "y_hi": 0.5}, g)
        p = params_on(g)
        reason = "kernel mixing fails above b1 at cutoff 0.5"
        assert compute_b1_b2(K, p) == (None, None, reason)
        v = full_verdict(K, p)
        assert v.predicted == GAP_ONLY and v.b_blocked_by == reason

    def test_missing_c1_support_blocks(self):
        g = build_grid("finite", 1.0, 100)
        b1, b2, reason = compute_b1_b2(build_kernel(1.0, g),
                                       params_on(g, c1=0.0))
        assert b1 is None and b2 is None
        assert "c1" in reason


class TestConservativity:
    def test_neutral(self):
        g = build_grid("finite", 1.0, 50)
        cls, mmin, mmax, *_ = classify_conservativity(
            build_kernel(1.0, g), params_on(g))
        assert cls == "neutral"
        assert abs(mmin) <= 1e-12 and abs(mmax) <= 1e-12

    def test_super(self):
        g = build_grid("finite", 1.0, 50)
        cls, mmin, _, *_ = classify_conservativity(
            build_kernel(2.0, g), params_on(g))
        assert cls == "super"
        assert mmin == pytest.approx(1.0)

    def test_mixed(self):
        # mu of 0.5 below s = 0.5 and 1.5 above against births of 1
        g = build_grid("finite", 1.0, 50)
        p = params_on(g, mu={"form": "table",
                             "points": [[0.0, 0.5], [0.5, 1.5]]})
        cls, mmin, mmax, *_ = classify_conservativity(build_kernel(1.0, g), p)
        assert cls == "mixed"
        assert mmin == pytest.approx(-0.5) and mmax == pytest.approx(0.5)

    def test_sub_with_decaying_tail(self):
        g = build_grid("truncated_infinite", 30.0, 300)
        K = build_kernel({"form": "indicator", "s_lo": 0.0, "s_hi": 1.0,
                          "value": 0.5}, g)
        p = params_on(g, c2={"form": "expression", "name": "exp_decay"})
        cls, _, _, tail_mu, tail_c2, win = classify_conservativity(K, p)
        assert cls == "sub"
        assert tail_mu == pytest.approx(1.0)
        assert tail_c2 < 1e-8
        assert win == pytest.approx(3.0)


class TestFullVerdict:
    def test_iff_matrix(self):
        g = build_grid("finite", 1.0, 100)
        kernels = {True: 1.0, False: {"form": "indicator", "relation": "s>y"}}
        c1s = {True: 1.0, False: indicator(0.5, 1.0)}
        c2s = {True: 1.0, False: indicator(0.0, 0.5)}
        for h1, h2, h3 in itertools.product([True, False], repeat=3):
            K = build_kernel(kernels[h1], g)
            p = params_on(g, c1=c1s[h2], c2=c2s[h3])
            v = full_verdict(K, p)
            assert v.irreducible == (h1 and h2 and h3)

    def test_predicted_classes_finite(self):
        g = build_grid("finite", 1.0, 100)
        v = full_verdict(build_kernel(1.0, g), params_on(g))
        assert v.predicted == IRREDUCIBLE_GAP_AEG
        v = full_verdict(
            build_kernel({"form": "indicator", "relation": "s>y"}, g),
            params_on(g))
        assert v.predicted == EMPTY_SPECTRUM
        v = full_verdict(build_kernel(1.0, g),
                         params_on(g, c1=indicator(0.5, 1.0)))
        assert v.predicted == GAP_ONLY
        assert v.b1 <= g.h
        assert abs(v.b2 - 0.5) <= g.h

    def test_no_gap_prediction_infinite(self):
        g = build_grid("truncated_infinite", 30.0, 300)
        K = build_kernel({"form": "indicator", "s_lo": 0.0, "s_hi": 1.0}, g)
        p = params_on(g, c2={"form": "expression", "name": "exp_decay"})
        v = full_verdict(K, p)
        assert v.predicted == NO_GAP

    def test_weak_compact_flag(self):
        g = build_grid("finite", 1.0, 50)
        v = full_verdict(build_kernel(1.0, g), params_on(g))
        assert not v.weak_compact_sufficient
        K = build_kernel({"form": "constant", "value": 1.0,
                          "dominator": 1.0}, g)
        v = full_verdict(K, params_on(g))
        assert v.weak_compact_sufficient

    def test_mixing_implication_structural(self):
        g = build_grid("finite", 1.0, 60)
        for spec in (1.0, {"form": "indicator", "relation": "s>y"},
                     {"form": "indicator", "s_hi": 0.2, "y_lo": 0.8}):
            v = full_verdict(build_kernel(spec, g), params_on(g))
            assert (not v.kernel_mixes_all) or v.kernel_mixes_some

    @pytest.mark.parametrize("check", [full_verdict, compute_b1_b2,
                                       classify_conservativity])
    @pytest.mark.parametrize("kind,length,n", [
        ("finite", 2.0, 50), ("finite", 1.0, 60),
        ("truncated_infinite", 1.0, 50)])
    def test_kernel_on_another_mesh_raises(self, check, kind, length, n):
        # a longer domain at the same n would read the witnesses off the
        # wrong edges; another n would fail inside numpy
        K = build_kernel(1.0, build_grid("finite", 1.0, 50))
        p = params_on(build_grid(kind, length, n))
        with pytest.raises(ConfigurationError, match="mesh"):
            check(K, p)
