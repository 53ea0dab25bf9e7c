import math

import numpy as np
import pytest

import twophase.spectral
from twophase.errors import (ConfigurationError, IterationError,
                             PreconditionError, SpectralProximityError)
from twophase.evolution import evolve
from twophase.model import build_grid, build_kernel, sample_params
from twophase.operators import StateVector, assemble
from twophase.scenario import scenario_from_dict
from twophase.spectral import (_restrict_params, characteristic_function,
                               closed_form_poly, closed_form_sB, detect_AEG,
                               duhamel_solve,
                               recruitment_free_bound, sB_probe_infinite,
                               spectral_bound, spectral_gap_lower_bound)

from test_operators import run_child
from test_structure import dense_block_sum


def make(n=100, m=1.0, kind="finite", kernel=1.0, **over):
    g = build_grid(kind, m, n)
    spec = dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=1.0, c2=1.0, gamma0=1.0)
    spec.update(over)
    p = sample_params(spec, g)
    K = build_kernel(kernel, g)
    return g, p, K, assemble(p, K, g)


class TestSpectralBound:
    def test_pure_decay_upper_bound(self):
        # without recruitment or coupling the operator is lower
        # bidiagonal with diagonal -gamma/h - mu: its eigenvalues sit at
        # the diagonal, below -1, and sink as the mesh refines
        vals = []
        for n in (50, 100):
            g, p, K, gen = make(n=n, kernel=0.0, c1=0.0, c2=0.0)
            s, _ = spectral_bound(gen, "full", tol=1e-8)
            vals.append(s)
            assert s <= -1.0
        assert vals[1] < vals[0]

    def test_recruitment_free_bound_matches_block_eigensolve(self):
        # the recruitment-free matrix is block lower bidiagonal in
        # per-cell ordering, so its spectrum is the union of the 2x2
        # cell blocks' spectra; check the structure and compare the
        # closed form against independent 2x2 eigensolves (a dense
        # eigensolve of the whole matrix is unreliable here: the
        # eigenbasis of a triangular matrix can be arbitrarily ill
        # conditioned)
        n = 8
        g, p, K, gen = make(n=n, mu=lambda s: 1 + s, c2=0.5,
                            gamma1=lambda s: 1 + 0.5 * s)
        M = dense_block_sum(gen, "B")
        perm = np.arange(2 * n).reshape(2, n).T.ravel()   # interleave
        P = M[np.ix_(perm, perm)]
        for i in range(n):
            assert np.all(P[2 * i:2 * i + 2, 2 * i + 2:] == 0)
        best = max(
            np.linalg.eigvals(P[2 * i:2 * i + 2, 2 * i:2 * i + 2]).real.max()
            for i in range(n))
        assert recruitment_free_bound(gen) == pytest.approx(best, abs=1e-10)

    def test_recruitment_free_bound_sinks_under_refinement(self):
        prev = 0.0
        for n in (50, 100, 200):
            g, p, K, gen = make(n=n)
            b = recruitment_free_bound(gen)
            bc = 4.0   # row norm bound on the loss+coupling parts
            assert b <= -p.gamma0 / g.h + bc
            assert b < prev
            prev = b

    def test_eigenpair_residual(self):
        g, p, K, gen = make(n=100)
        s, eig = spectral_bound(gen, "full")
        x = eig.stacked()
        res = np.abs(gen.full @ x - s * x).max()
        assert res <= 1e-6 * max(1.0, abs(s))
        assert eig.mass == pytest.approx(1.0)
        assert min(eig.u1.min(), eig.u2.min()) >= -1e-12


    def test_singular_initial_shift_is_nudged_off(self):
        # lower-bidiagonal pure transport with gamma = 1 + s: the top
        # diagonal entry -gamma(edge_1)/h = -11 is the rightmost
        # eigenvalue.  The kernel is zero, so the bound is read exactly
        # off the cell blocks and the shift0 on that eigenvalue, which
        # would make a factorization singular, is never used
        g, p, K, gen = make(n=10, kernel=0.0, mu=0.0, c1=0.0, c2=0.0,
                            gamma1=lambda s: 1 + s, gamma2=lambda s: 1 + s)
        assert gen.full.diagonal().max() == -11.0
        s, _ = spectral_bound(gen, "full", shift0=-11.0)
        assert s == pytest.approx(-11.0, abs=1e-8)


def block_eigenvalues(gen):
    # larger eigenvalue of each 2x2 diagonal cell block of the dense
    # full matrix in per-cell (u1_i, u2_i) order, by LAPACK
    n = gen.grid.n
    M = gen.full.toarray()
    i = np.arange(n)
    blocks = np.empty((n, 2, 2))
    blocks[:, 0, 0], blocks[:, 0, 1] = M[i, i], M[i, n + i]
    blocks[:, 1, 0], blocks[:, 1, 1] = M[n + i, i], M[n + i, n + i]
    return np.linalg.eigvals(blocks).real.max(axis=1)


REDUCIBLE_BOX = {"form": "indicator", "s_hi": 0.2, "y_hi": 0.2,
                 "value": 100.0}


def table_of(spec, n):
    # the same kernel values as a dense table, which takes the power route
    beta = build_kernel(spec, build_grid("finite", 1.0, n)).beta
    return {"form": "table", "values": beta.tolist()}


def reducible_generator(table=False):
    # n=10, gamma = 1+s, no loss or coupling, box kernel 100 on
    # s, y in [0, 0.2]: cells 0 and 1 of phase 1 form the block
    # [[-1, 10], [21, -2]] with eigenvalues 13 and -16, and phase 2 is
    # pure transport with eigenvalues -11, -12, ...
    return make(n=10, kernel=table_of(REDUCIBLE_BOX, 10) if table
                else REDUCIBLE_BOX,
                mu=0.0, c1=0.0, c2=0.0,
                gamma1=lambda s: 1 + s, gamma2=lambda s: 1 + s)


# graded rates on [0, 1]: every cell block differs, the top one is the
# first, and each later cell takes a tail from the sweep
GRADED = dict(gamma1=lambda s: 1 + s / 2, gamma2=lambda s: 1.2 + s,
              mu=lambda s: 1 + s, c1=lambda s: 0.5 + s, c2=lambda s: 2 - s)

# non-mixing kernels and the block sum whose eigenpair is taken
NON_MIXING = {
    "zero": (0.0, "full"),
    "zero_B": (0.0, "B"),
    "lower": ({"form": "indicator", "relation": "s>y"}, "full"),
    "box": ({"form": "indicator", "s_lo": 0.5, "y_hi": 0.5}, "full"),
    "callable": (lambda s, y: np.where(s >= y, 3.0 + 2.0 * s * y, 0.0),
                 "full"),
}


def generator_times(gen, x, which):
    # M x from the model formulas, O(n) for the structured kernels (a
    # dense oracle takes 330 MB at n = 3200); ``s>y`` is the only
    # triangle that does not mix
    g, p, K = gen.grid, gen.params, gen.kernel
    n, h = g.n, g.h
    u1, u2 = x[:n], x[n:]
    y1 = -(p.gamma1_edges[1:] / h + p.mu + p.c1) * u1 + p.c2 * u2
    y2 = -(p.gamma2_edges[1:] / h + p.c2) * u2 + p.c1 * u1
    y1[1:] += p.gamma1_edges[1:-1] / h * u1[:-1]
    y2[1:] += p.gamma2_edges[1:-1] / h * u2[:-1]
    if which == "full" and K.factors is not None:
        y1 += h * K.factors[0] * (K.factors[1] @ u1)
    elif which == "full" and K.triangle is not None:
        y1[1:] += h * K.triangle[0] * np.cumsum(u1)[:-1]
    elif which == "full":
        y1 += h * (K.dense @ u1)
    return np.concatenate([y1, y2])


class TestExactRoute:
    @pytest.mark.parametrize("name, n", [
        (name, n) for name in sorted(NON_MIXING)
        for n in (200, 800) + (() if name == "callable" else (3200,))])
    def test_graded_eigenpair(self, name, n, splu_calls):
        spec, which = NON_MIXING[name]
        g, p, K, gen = make(n=n, kernel=spec, **GRADED)
        bound = spectral_bound(gen, which)
        assert bound.route == "exact"
        x = bound.eigfun.stacked()
        assert np.isfinite(x).all() and x.min() >= 0.0
        assert bound.eigfun.mass == pytest.approx(1.0, rel=1e-14)
        # the sweep reaches the last cell (from n = 800 on, the first
        # cells underflow: the vector spans more than the float range)
        assert x[n - 1] + x[-1] > 0
        res = np.abs(generator_times(gen, x, which) - bound.s * x).max()
        assert res <= 1e-12 * max(1.0, abs(bound.s)) * x.max()
        assert splu_calls == []

    def test_graded_tails_leave_scipy_sparse_unimported(self):
        run_child(
            "import sys\n"
            "from twophase.model import build_grid, build_kernel, "
            "sample_params\n"
            "from twophase.operators import assemble\n"
            "from twophase.spectral import spectral_bound\n"
            "g = build_grid('finite', 1.0, 800)\n"
            "p = sample_params(dict(gamma0=1.0, gamma1=lambda s: 1 + s / 2,\n"
            "    gamma2=lambda s: 1.2 + s, mu=lambda s: 1 + s,\n"
            "    c1=lambda s: 0.5 + s, c2=lambda s: 2 - s), g)\n"
            "for spec in (0.0, {'form': 'indicator', 'relation': 's>y'},\n"
            "             {'form': 'indicator', 's_lo': 0.5, 'y_hi': 0.5}):\n"
            "    gen = assemble(p, build_kernel(spec, g), g)\n"
            "    assert spectral_bound(gen).route == 'exact'\n"
            "assert 'scipy.sparse' not in sys.modules\n")

    @pytest.mark.parametrize("n", [200, 400, 800])
    def test_growth_only_bound_from_cell_blocks(self, n, splu_calls):
        g, p, K, gen = make(n=n, kernel={"form": "indicator",
                                         "relation": "s>y"})
        s, eig = spectral_bound(gen, "full", tol=1e-3)
        best = block_eigenvalues(gen).max()
        assert abs(s - best) <= 1e-12 * abs(best)
        # [[-n-2, 1], [1, -n-1]]: -n - 3/2 + sqrt(5)/2
        assert s == pytest.approx(-n - 1.5 + math.sqrt(1.25), rel=1e-12)
        assert splu_calls == []
        assert eig.mass == pytest.approx(1.0)

    def test_lower_triangular_kernel_with_trailing_cells(self):
        n = 12
        g, p, K, gen = make(
            n=n, kernel=lambda s, y: np.where(s >= y, 3.0 + 2.0 * s * y, 0.0),
            gamma1=lambda s: 1 + 0.5 * s, gamma2=lambda s: 1.2 + s,
            mu=lambda s: 1 + s, c1=lambda s: 0.5 + s, c2=lambda s: 2 - s)
        assert np.all(np.diag(K.beta) > 0)
        lams = block_eigenvalues(gen)
        k = int(np.flatnonzero(lams == lams.max())[-1])
        assert k < n - 1
        s, eig = spectral_bound(gen, "full")
        assert abs(s - lams.max()) <= 1e-12 * abs(s)
        x = eig.stacked()
        assert x.min() >= 0.0
        assert eig.mass == pytest.approx(1.0, rel=1e-14)
        res = np.abs(gen.full @ x - s * x).max()
        assert res <= 1e-12 * abs(s) * x.max()
        # zero before cell k, and the trailing solve fills later cells
        assert not np.any(x[:k]) and not np.any(x[n:n + k])
        assert x[k + 1:n].sum() + x[n + k + 1:].sum() > 0

    def test_mixing_kernel_takes_power_route(self, splu_calls):
        g, p, K, gen = make(n=50, kernel=table_of(1.0, 50))
        s, eig = spectral_bound(gen, "full")
        assert splu_calls
        dense = np.linalg.eigvals(gen.full.toarray()).real.max()
        assert s == pytest.approx(dense, rel=1e-8)

    def test_mixing_rank_one_kernel_takes_characteristic_route(
            self, splu_calls):
        g, p, K, gen = make(n=50)
        bound = spectral_bound(gen, "full")
        assert bound.route == "characteristic"
        assert splu_calls == []
        dense = np.linalg.eigvals(gen.full.toarray()).real.max()
        assert bound.s == pytest.approx(dense, rel=1e-8)


class TestCertifiedShifts:
    def test_reducible_generator_keeps_top_eigenvalue(self):
        g, p, K, gen = reducible_generator()
        assert np.linalg.eigvals(gen.full.toarray()).real.max() \
            == pytest.approx(13.0, abs=1e-10)
        s, eig = spectral_bound(gen, "full")
        assert s == pytest.approx(13.0, abs=1e-8)
        assert min(eig.u1.min(), eig.u2.min()) >= 0.0

    @pytest.mark.parametrize("shift0", [5.0, 13.0])
    def test_shift0_at_or_below_bound_rejected(self, shift0):
        g, p, K, gen = reducible_generator(table=True)
        with pytest.raises(ConfigurationError, match="shift0"):
            spectral_bound(gen, "full", shift0=shift0)

    @pytest.mark.parametrize("shift0", [-11.0, 5.0, 13.0])
    def test_shift0_at_or_below_bound_rejected_characteristic(self, shift0):
        # -11 is s_B itself, where the sweep is not defined
        g, p, K, gen = reducible_generator()
        with pytest.raises(ConfigurationError, match="shift0"):
            spectral_bound(gen, "full", shift0=shift0)

    def test_singular_shift_in_power_loop_is_rejected(self, monkeypatch):
        # the first re-centred shift (about 2.04, below the bound 13) is
        # made exactly singular, as splu reports it; the loop must stay
        # on certified shifts and still find the top eigenvalue
        g, p, K, gen = reducible_generator(table=True)
        top = gen.infinity_norm() + 1.0
        real = gen.factorization
        singular = []

        def factorization(lam, which):
            if lam != top and (not singular or lam == singular[0]):
                singular.append(lam)
                raise SpectralProximityError("Factor is exactly singular",
                                             lam=lam)
            return real(lam, which)

        monkeypatch.setattr(gen, "factorization", factorization)
        s, _ = spectral_bound(gen, "full")
        assert len(singular) == 1 and singular[0] < 13.0
        assert s == pytest.approx(13.0, abs=1e-8)


def dense_phi(gen, lam):
    # the characteristic function h g.[(lambda - B)^{-1}(f, 0)]_1 from a
    # dense LAPACK solve
    n = gen.grid.n
    f, g = gen.kernel.factors
    B = dense_block_sum(gen, "B")
    x = np.linalg.solve(lam * np.eye(2 * n) - B,
                        np.concatenate([f, np.zeros(n)]))
    return gen.grid.h * g @ x[:n]


def dense_root(gen):
    # bisection on the dense phi between s_B and ||M||_inf + 1
    lo, hi = recruitment_free_bound(gen), gen.infinity_norm() + 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if dense_phi(gen, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def mu_step_generator(n, value):
    # mortality steps from 0 to 50 at s = 0.3 and the box kernel sits on
    # [0.5, 1]^2: s_B = -n comes from the cells below 0.3, which the
    # kernel never reaches
    return make(n=n, kernel={"form": "indicator", "s_lo": 0.5, "y_lo": 0.5,
                             "value": value},
                mu={"form": "table", "points": [[0.0, 0.0], [0.3, 50.0]]})


def assert_eigenpair(gen, bound):
    x = bound.eigfun.stacked()
    assert x.min() >= 0.0
    assert bound.eigfun.mass == pytest.approx(1.0, rel=1e-14)
    res = np.abs(gen.full @ x - bound.s * x).max()
    assert res <= 1e-12 * max(1.0, abs(bound.s)) * x.max()


RANK_ONE = {
    "constant": dict(n=50),
    "product": dict(n=100, kernel={"form": "product",
                                   "offspring": {"form": "expression",
                                                 "name": "exp_decay"},
                                   "parent": {"form": "expression",
                                              "name": "linear",
                                              "intercept": 0.5}},
                    mu=lambda s: 1 + s, gamma1=lambda s: 1 + s),
    "box": dict(n=80, kernel={"form": "indicator", "s_hi": 0.3,
                              "y_lo": 0.5, "value": 30.0},
                c1=lambda s: 0.5 + s),
}


class TestCharacteristicRoute:
    @pytest.mark.parametrize("name", sorted(RANK_ONE))
    def test_root_matches_dense_oracle(self, name, splu_calls):
        g, p, K, gen = make(**RANK_ONE[name])
        bound = spectral_bound(gen, "full")
        assert bound.route == "characteristic"
        root = dense_root(gen)
        assert abs(bound.s - root) <= 1e-12 * abs(root)
        lo, hi = bound.bracket
        assert lo <= bound.s <= hi
        assert hi - lo <= 1e-10 * max(1.0, abs(hi))
        # the sweep certifies the bracket and agrees with the dense phi
        phi_lo = characteristic_function(gen, lo)[0]
        phi_hi = characteristic_function(gen, hi)[0]
        assert phi_lo > 1.0 >= phi_hi
        assert phi_lo == pytest.approx(dense_phi(gen, lo), rel=1e-12)
        assert phi_hi == pytest.approx(dense_phi(gen, hi), rel=1e-12)
        assert_eigenpair(gen, bound)
        assert splu_calls == []

    def test_mu_step_root(self):
        # the root in 60-digit arithmetic is -29.25155186452381165; a
        # dense double-precision solve puts it at -29.2515574 (the forward
        # error of a strongly non-normal solve), and so did the power loop
        g, p, K, gen = mu_step_generator(60, 0.01)
        bound = spectral_bound(gen, "full")
        root = -29.25155186452381165
        assert abs(bound.s - root) <= 1e-12 * abs(root)
        lo, hi = bound.bracket
        assert lo <= root <= hi and hi - lo <= 1e-10 * abs(hi)
        assert_eigenpair(gen, bound)

    @pytest.mark.parametrize("value", [1e-6, 1.0])
    def test_weak_recruitment_leaves_s_B(self, value):
        # phi(s_B+) = 0.55 * value <= 1: the recruitment cannot lift the
        # bound, which stays exactly at s_B = -10
        g, p, K, gen = mu_step_generator(10, value)
        s_B = recruitment_free_bound(gen)
        assert s_B == -10.0
        phi = characteristic_function(gen, np.nextafter(s_B, math.inf))[0]
        assert phi == pytest.approx(0.55 * value, rel=0.01)
        bound = spectral_bound(gen, "full")
        assert bound.route == "characteristic"
        assert bound.s == -10.0 and bound.bracket == (-10.0, -10.0)
        assert_eigenpair(gen, bound)

    def test_phi_above_s_B_on_demo_generator_reads_inf(self):
        # the README demo: the transport chain grows like 20 per cell just
        # above s_B = -20 and overflows, while c1 vanishes outside [0.5, 1]
        scn = scenario_from_dict({
            "name": "demo",
            "domain": {"kind": "truncated_infinite", "smax": 30.0, "n": 600},
            "coefficients": {
                "gamma1": 1.0, "gamma2": 1.0, "mu": 1.0,
                "c1": {"form": "expression", "name": "indicator",
                       "lo": 0.5, "hi": 1.0},
                "c2": {"form": "expression", "name": "exp_decay"},
                "gamma0": 1.0},
            "kernel": {"form": "indicator", "s_lo": 0.0, "s_hi": 1.0}})
        gen = assemble(scn.params, scn.kernel, scn.grid)
        s_B = recruitment_free_bound(gen)
        for lam in (np.nextafter(s_B, math.inf), s_B + 1e-9, s_B + 1.0):
            phi, x = characteristic_function(gen, lam)
            assert phi == math.inf
            assert not np.isnan(x).any()


class TestPowerRoute:
    def test_converged_iterate_gives_collatz_wielandt_bracket(self):
        g, p, K, gen = make(n=50, kernel=table_of(1.0, 50))
        bound = spectral_bound(gen, "full")
        assert bound.route == "power"
        lo, hi = bound.bracket
        dense = np.linalg.eigvals(gen.full.toarray()).real.max()
        assert lo <= dense <= hi and lo <= bound.s <= hi
        assert hi - lo <= 1e-9 * abs(dense)

    def test_max_iter_raises_with_bracket(self):
        g, p, K, gen = make(n=50, kernel=table_of(1.0, 50))
        with pytest.raises(IterationError, match="did not settle") as ei:
            spectral_bound(gen, "full", max_iter=2)
        lo, hi = ei.value.bracket
        assert lo <= np.linalg.eigvals(gen.full.toarray()).real.max() <= hi

    def test_iterate_that_is_not_positive_raises(self, monkeypatch):
        # every solve after the certificate at the first shift returns
        # its last entry negated
        g, p, K, gen = make(n=20, kernel=table_of(1.0, 20))
        real = gen.factorization
        calls = []

        class Flipped:
            def __init__(self, fact):
                self.fact = fact

            def solve(self, rhs):
                y = self.fact.solve(rhs)
                y[-1] = -abs(y[-1])
                return y

        def factorization(lam, which):
            calls.append(lam)
            fact = real(lam, which)
            return fact if len(calls) == 1 else Flipped(fact)

        monkeypatch.setattr(gen, "factorization", factorization)
        with pytest.raises(IterationError, match="not strictly positive") \
                as ei:
            spectral_bound(gen, "full")
        # the nonnegative part still bounds s_A from below
        lo, hi = ei.value.bracket
        assert lo <= np.linalg.eigvals(gen.full.toarray()).real.max()
        assert hi == math.inf


class TestClosedForms:
    def test_degenerate_special_case(self):
        assert closed_form_sB(0.0, 2.0, 1.0) == pytest.approx(-1.0)

    def test_zero_mortality_limit(self):
        assert closed_form_sB(0.0, 3.0, 0.0) == 0.0
        assert closed_form_sB(2.0, 1.0, 0.0) == 0.0

    def test_symmetric_unit_case(self):
        lam = closed_form_sB(1.0, 1.0, 1.0)
        assert lam == pytest.approx((-3 + math.sqrt(5)) / 2, abs=1e-14)
        assert abs(closed_form_poly(lam, 1.0, 1.0, 1.0)) <= 1e-12 * 4

    def test_always_in_bracket(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            l1, c2, l_mu = rng.random(3) * 3
            lam = closed_form_sB(l1, c2, l_mu)
            assert -max(l_mu, c2) - l1 - 1e-12 <= lam <= 1e-12
            scale = 1 + l1 + c2 + l_mu
            assert abs(closed_form_poly(lam, l1, c2, l_mu)) <= 1e-12 * scale

    def test_negative_input_rejected(self):
        with pytest.raises(ConfigurationError):
            closed_form_sB(-1.0, 1.0, 1.0)


class TestGapLowerBound:
    @staticmethod
    def root_poly(eps, lam_star, c1, c2, mu, ib1):
        return (eps * eps + eps * (2 * lam_star + c1 + c2 + mu)
                - (lam_star + eps + c2) * ib1)

    def test_zero_minorant_gives_zero(self):
        eps, Delta, lam = spectral_gap_lower_bound(1.0, 1.0, 1.0, 0.0)
        assert eps == 0.0

    def test_unit_case(self):
        eps, Delta, lam = spectral_gap_lower_bound(1.0, 1.0, 1.0, 1.0)
        assert lam == pytest.approx((-3 + math.sqrt(5)) / 2, abs=1e-14)
        assert Delta == pytest.approx(4.0, abs=1e-12)
        assert eps == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-14)
        assert lam + eps == pytest.approx(0.0, abs=1e-14)

    def test_root_check_oracle(self):
        eps, Delta, lam = spectral_gap_lower_bound(1.0, 2.0, 1.0, 0.5)
        assert eps > 0
        assert abs(self.root_poly(eps, lam, 1.0, 2.0, 1.0, 0.5)) <= 1e-12

    def test_positive_iff_minorant_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            c1, c2, mu = 0.1 + rng.random(3) * 2
            ib1 = rng.random() * 2
            eps, Delta, lam = spectral_gap_lower_bound(c1, c2, mu, ib1)
            assert (eps > 0) == (ib1 > 0)
            assert abs(self.root_poly(eps, lam, c1, c2, mu, ib1)) \
                <= 1e-10 * (1 + ib1 + c1 + c2 + mu) ** 2


def tail_params(n=1000, smax=100.0, **over):
    g = build_grid("truncated_infinite", smax, n)
    spec = dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=0.0, c2=1.0, gamma0=1.0)
    spec.update(over)
    return g, sample_params(spec, g)


class TestInfiniteProbe:
    def test_bounded_above_closed_form(self):
        g, p = tail_params()
        r = sB_probe_infinite(p, None, -0.5, [25, 50, 100])
        assert r.classification == "resolvent-bounded"

    def test_diverging_below_closed_form(self):
        g, p = tail_params()
        r = sB_probe_infinite(p, None, -1.5, [25, 50, 100])
        assert r.classification == "diverging"

    def test_positive_lambda_always_bounded(self):
        g, p = tail_params(c1=0.3, mu=lambda s: 1 + 0.1 * np.sin(s) ** 2)
        r = sB_probe_infinite(p, None, 0.5, [25, 50, 100])
        assert r.classification == "resolvent-bounded"

    @pytest.mark.parametrize("lam", [-1.5, -0.5, 0.5])
    def test_one_solve_gives_every_truncation(self, monkeypatch, lam):
        # the sweep is causal, so the norms read off prefixes of one solve
        # on the largest truncation equal separate solves, bit for bit
        g, p = tail_params()
        smax_list = [25.0, 50.0, 100.0]
        separate = []
        for smax in smax_list:
            sub = _restrict_params(p, int(round(smax / g.h)))
            src = (sub.grid.centers <= 1.0).astype(float)
            separate.append(duhamel_solve(sub, lam, src, src).norm1())
        calls = []

        def counting(*args):
            calls.append(1)
            return duhamel_solve(*args)

        monkeypatch.setattr(twophase.spectral, "duhamel_solve", counting)
        r = sB_probe_infinite(p, None, lam, smax_list)
        assert len(calls) == 1
        assert r.norms == separate

    def test_truncation_below_two_cells_rejected(self):
        g, p = tail_params(n=100, smax=10.0)
        with pytest.raises(ConfigurationError, match="truncation 0.1 "):
            sB_probe_infinite(p, None, 0.0, [0.1, 10])

    def test_solution_nonincreasing_in_lambda(self):
        g, p = tail_params(n=300, smax=30.0, c1=0.5)
        src = (g.centers <= 1.0).astype(float)
        U1 = duhamel_solve(p, -0.2, src, src)
        U2 = duhamel_solve(p, 0.3, src, src)
        assert np.all(U1.u1 - U2.u1 >= -1e-12)
        assert np.all(U1.u2 - U2.u2 >= -1e-12)

    @pytest.mark.parametrize("lam", [-0.5, 0.5])
    def test_duhamel_matches_dense_quadrature_solve(self, lam):
        g = build_grid("truncated_infinite", 6.0, 60)
        p = sample_params(dict(gamma1=lambda s: 1 + 0.5 * np.sin(s),
                               gamma2=lambda s: 1.5 + 0.3 * np.cos(2 * s),
                               mu=lambda s: 1 + 0.2 * s,
                               c1=lambda s: 0.5 + 0.5 * np.exp(-s),
                               c2=lambda s: 0.8 + 0.1 * s, gamma0=0.4), g)
        n, dx = g.n, g.h
        h1 = (g.centers <= 1.0).astype(float)
        h2 = np.cos(g.centers) ** 2

        def quadrature(rate, gamma):
            # T[i, j] = w_j exp(-int_{y_j}^{s_i} rate/gamma) / gamma_i with
            # midpoint sums in the exponent, w = dx below the diagonal and
            # dx/2 on it
            inc = rate * dx / gamma
            psi = np.cumsum(inc) - 0.5 * inc
            T = np.tril(np.exp(-np.tril(psi[:, None] - psi[None, :]))) * dx
            T[np.diag_indices(n)] *= 0.5
            return T / gamma[:, None]

        T1 = quadrature(lam + p.mu + p.c1, p.gamma1)
        T2 = quadrature(lam + p.c2, p.gamma2)
        M = np.block([[np.eye(n), -T1 * p.c2], [-T2 * p.c1, np.eye(n)]])
        dense = np.linalg.solve(M, np.concatenate([T1 @ h1, T2 @ h2]))
        U = duhamel_solve(p, lam, h1, h2)
        rel = np.abs(U.stacked() - dense).max() / np.abs(dense).max()
        assert rel <= 1e-12

    def test_strong_coupling_raises(self):
        # a = b = h*c/(2 gamma) = 1.25: the half-weight diagonal block
        # [[1, -a], [-b, 1]] has no positive inverse
        g, p = tail_params(n=4, smax=10.0, c1=1.0)
        src = np.ones(4)
        with pytest.raises(IterationError):
            duhamel_solve(p, 0.0, src, src)

    def test_source_outside_mesh_rejected(self):
        # h = 2.5 > 2: no cell center lies in the source interval [0, 1],
        # so every truncation would see a zero source
        g, p = tail_params(n=4, smax=10.0, c1=0.5, c2=0.5)
        with pytest.raises(ConfigurationError, match="source interval"):
            sB_probe_infinite(p, None, 0.0, [5, 10])

    def test_nonzero_kernel_rejected(self):
        g, p = tail_params(n=100, smax=10.0)
        K = build_kernel(1.0, g)
        with pytest.raises(PreconditionError):
            sB_probe_infinite(p, K, 0.0, [5, 10])


class TestDetectAEG:
    def test_no_recruitment_decays(self):
        g, p, K, gen = make(n=80, kernel=0.0)
        U0 = StateVector(np.ones(80), np.zeros(80), g)
        traj = evolve(gen, U0, 1e-2, 3.0, record_every=10)
        fit = detect_AEG(traj)
        assert fit.extinct or fit.lambda0_fit <= 0

    def test_two_route_consistency(self):
        g, p, K, gen = make(n=100)
        s, eig = spectral_bound(gen, "full")
        U0 = StateVector((g.centers <= 0.25).astype(float), np.zeros(100), g)
        traj = evolve(gen, U0, 1e-3, 8.0, record_every=100)
        fit = detect_AEG(traj, eig)
        assert abs(fit.lambda0_fit - s) <= max(1e-3, 5e-3) * abs(s)
        assert fit.profile_decay_rate < 0

    def test_eigenfunction_is_invariant_profile(self):
        g, p, K, gen = make(n=100)
        s, eig = spectral_bound(gen, "full")
        traj = evolve(gen, eig, 1e-3, 2.0, record_every=50)
        for S in traj.states:
            m = S.mass
            d = (np.abs(S.u1 / m - eig.u1).sum()
                 + np.abs(S.u2 / m - eig.u2).sum()) * g.h
            assert d <= 1e-6
