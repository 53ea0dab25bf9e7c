import math

import numpy as np
import pytest
import scipy.sparse as sp

from twophase.errors import ConfigurationError, SpectralProximityError
from twophase.model import build_grid, build_kernel, sample_params
from twophase.operators import (StateVector, VolterraOp, assemble,
                                resolvent_direct, resolvent_neumann,
                                resolvent_transport_analytic,
                                volterra_norm_sequence)
from twophase.scenario import scenario_from_dict


def make(n=100, m=1.0, kernel=1.0, **over):
    g = build_grid("finite", m, n)
    spec = dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=1.0, c2=1.0, gamma0=1.0)
    spec.update(over)
    p = sample_params(spec, g)
    K = build_kernel(kernel, g)
    return g, p, K, assemble(p, K, g)


class TestAssemble:
    def test_zero_perturbations_leave_pure_transport(self):
        g, p, K, gen = make(kernel=0.0, mu=0.0, c1=0.0, c2=0.0)
        assert (gen.full - gen.A_block).nnz == 0

    def test_two_cell_hand_stencil(self):
        g, p, K, gen = make(n=2, m=1.0)
        A1 = gen.A_block.toarray()[:2, :2]
        assert np.allclose(np.diag(A1), [-2.0, -2.0])
        assert A1[1, 0] == pytest.approx(2.0)

    def test_recruitment_quadrature_entries(self):
        g, p, K, gen = make(n=4, m=1.0, kernel=1.0)
        B3 = gen.B3_block.toarray()[:4, :4]
        assert np.all(B3 == pytest.approx(0.25))

    def test_sign_pattern_invariants(self):
        g, p, K, gen = make(n=20, gamma1=lambda s: 1 + s)
        A = gen.A_block.toarray()
        assert np.all(np.diag(A) <= 0)
        assert np.all(A - np.diag(np.diag(A)) >= 0)
        assert np.all(gen.B2_block.toarray() >= 0)
        assert np.all(gen.B3_block.toarray() >= 0)
        assert np.all(gen.B1_block.diagonal() <= 0)

    def test_column_sums_telescope_to_outflow(self):
        g, p, K, gen = make(n=10, gamma1=lambda s: 1 + s)
        cols = np.asarray(gen.A_block.sum(axis=0)).ravel()[:10]
        assert np.allclose(cols[:-1], 0.0, atol=1e-12)
        assert cols[-1] == pytest.approx(-p.gamma1_edges[-1] / g.h)

    def test_grid_mismatch_rejected(self):
        g1 = build_grid("finite", 1.0, 10)
        g2 = build_grid("finite", 1.0, 20)
        spec = dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=1.0, c2=1.0, gamma0=1.0)
        p = sample_params(spec, g1)
        K = build_kernel(1.0, g2)
        with pytest.raises(ConfigurationError):
            assemble(p, K, g1)


class TestAnalyticResolvent:
    def test_zero_input(self):
        g = build_grid("finite", 1.0, 50)
        u = resolvent_transport_analytic(3.0, np.zeros(50), np.ones(50), g)
        assert np.all(u == 0)

    def test_lambda_zero_gives_primitive(self):
        g = build_grid("finite", 1.0, 200)
        u = resolvent_transport_analytic(0.0, np.ones(200), np.ones(200), g)
        assert np.abs(u - g.centers).max() <= 2 * g.h

    def test_lambda_one_exponential(self):
        g = build_grid("finite", 1.0, 200)
        u = resolvent_transport_analytic(1.0, np.ones(200), np.ones(200), g)
        exact = 1.0 - np.exp(-g.centers)
        assert np.abs(u - exact).max() <= 2 * g.h

    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("gname", ["const", "affine"])
    @pytest.mark.parametrize("hname", ["const", "linear", "indicator"])
    def test_oracle_agreement_first_order(self, lam, gname, hname):
        gfun = (lambda s: np.ones_like(s)) if gname == "const" \
            else (lambda s: 1 + s)
        hfun = {"const": lambda s: np.ones_like(s),
                "linear": lambda s: s,
                "indicator": lambda s: ((s >= 0.3) & (s <= 0.7)).astype(float),
                }[hname]
        errs = []
        for n in (100, 200):
            g = build_grid("finite", 1.0, n)
            spec = dict(gamma1=gfun, gamma2=1.0, mu=0.0, c1=0.0, c2=0.0,
                        gamma0=1.0)
            p = sample_params(spec, g)
            gen = assemble(p, build_kernel(0.0, g), g)
            h = hfun(g.centers)
            U = resolvent_direct(gen, lam, StateVector(h, np.zeros(n), g), "A")
            ua = resolvent_transport_analytic(lam, h, p.gamma1, g)
            errs.append(np.abs(U.u1 - ua).sum() * g.h)
        assert errs[0] <= 1.0 * (1.0 / 100)       # C * h with modest C
        assert errs[1] <= 0.65 * errs[0] + 1e-13  # ~halves under doubling

    def test_support_propagation(self):
        g = build_grid("finite", 1.0, 200)
        h = ((g.centers >= 0.5)).astype(float)
        spec = dict(gamma1=1.0, gamma2=1.0, mu=0.0, c1=0.0, c2=0.0, gamma0=1.0)
        p = sample_params(spec, g)
        gen = assemble(p, build_kernel(0.0, g), g)
        U = resolvent_direct(gen, 1.0, StateVector(h, np.zeros(200), g), "A")
        assert np.abs(U.u1[g.centers < 0.5 - g.h]).max() <= 1e-14
        ua = resolvent_transport_analytic(1.0, h, p.gamma1, g)
        assert np.abs(ua[g.centers < 0.5 - g.h]).max() <= 1e-14


class TestDirectResolvent:
    def test_decoupled_phase_stays_zero(self):
        g, p, K, gen = make(n=100, mu=0.0, c1=0.0, c2=0.0, kernel=0.0)
        H = StateVector(np.ones(100), np.zeros(100), g)
        U = resolvent_direct(gen, 0.0, H, "A")
        assert np.all(U.u2 == 0)

    def test_large_lambda_asymptotics(self):
        g, p, K, gen = make(n=50)
        rng = np.random.default_rng(0)
        H = StateVector(rng.random(50), rng.random(50), g)
        lam = 1e6
        U = resolvent_direct(gen, lam, H, "full")
        rel = max(np.abs(U.u1 * lam - H.u1).max(), np.abs(U.u2 * lam - H.u2).max())
        assert rel <= 1e-3

    def test_resolvent_positivity_random(self):
        g, p, K, gen = make(n=60)
        rng = np.random.default_rng(1)
        lam = 1.0  # comfortably above the spectral bound (~ -0.27)
        for _ in range(100):
            H = StateVector(rng.random(60), rng.random(60), g)
            U = resolvent_direct(gen, lam, H, "full")
            assert min(U.u1.min(), U.u2.min()) >= -1e-12


    def test_singular_shift_raises_proximity_error(self):
        # pure transport at gamma = 1, h = 0.01: lambda = -100 is the
        # diagonal of the lower-bidiagonal operator, so lambda - M is
        # singular
        g, p, K, gen = make(n=100, mu=0.0, c1=0.0, c2=0.0, kernel=0.0)
        H = StateVector(np.ones(100), np.ones(100), g)
        with pytest.raises(SpectralProximityError):
            resolvent_direct(gen, -100.0, H, "full")

    def test_factorization_fill_stays_near_matrix_size(self):
        # README demo generator (box kernel, n = 600) at the implicit
        # step's shift 1/dt: the minimum-degree ordering keeps the LU
        # factors within twice the nonzeros of lambda - M (a column
        # ordering that ignores the bidiagonal structure fills ~14x)
        scn = scenario_from_dict({
            "name": "demo",
            "domain": {"kind": "truncated_infinite", "smax": 30.0, "n": 600},
            "coefficients": {
                "gamma1": 1.0, "gamma2": 1.0, "mu": 1.0, "gamma0": 1.0,
                "c1": {"form": "expression", "name": "indicator",
                       "lo": 0.5, "hi": 1.0},
                "c2": {"form": "expression", "name": "exp_decay"}},
            "kernel": {"form": "indicator", "s_lo": 0.0, "s_hi": 1.0}})
        gen = assemble(scn.params, scn.kernel, scn.grid)
        lam = 1000.0
        fact = gen.factorization(lam, "full")
        mat = sp.identity(2 * scn.grid.n, format="csr") * lam - gen.full
        assert fact.L.nnz + fact.U.nnz <= 2 * mat.nnz


class TestNeumannSeries:
    def test_zero_perturbation_truncates(self):
        g, p, K, gen = make(n=50, kernel=0.0)
        H = StateVector(np.ones(50), np.ones(50), g)
        res = resolvent_neumann(gen, 1.0, H, "B3-series")
        assert res.status == "converged"
        assert res.terms_used == 1
        ref = resolvent_direct(gen, 1.0, H, "B")
        assert np.abs(res.state.u1 - ref.u1).max() <= 1e-12

    def test_matches_direct_solve(self):
        g, p, K, gen = make(n=80)
        H = StateVector(np.ones(80), np.ones(80), g)
        res = resolvent_neumann(gen, 1.0, H, "B3-series", tol=1e-12)
        assert res.status == "converged"
        ref = resolvent_direct(gen, 1.0, H, "full")
        err = (np.abs(res.state.u1 - ref.u1).sum()
               + np.abs(res.state.u2 - ref.u2).sum()) * g.h
        assert err <= 1e-10

    def test_divergence_below_spectral_bound(self):
        # below the rightmost eigenvalue of the full operator the
        # series on the recruitment split must diverge (verified
        # against the eigensolver)
        from twophase.spectral import spectral_bound
        g, p, K, gen = make(n=80)
        s_full, _ = spectral_bound(gen, "full")
        H = StateVector(np.ones(80), np.ones(80), g)
        res = resolvent_neumann(gen, s_full - 0.5, H, "B3-series",
                                max_terms=400)
        assert res.status == "diverged"

    def test_b2_split_agrees_with_direct(self):
        g, p, K, gen = make(n=80)
        H = StateVector(np.ones(80), np.ones(80), g)
        res = resolvent_neumann(gen, 1.0, H, "B2-series", tol=1e-12)
        assert res.status == "converged"
        ref = resolvent_direct(gen, 1.0, H, "B")
        err = (np.abs(res.state.u1 - ref.u1).sum()
               + np.abs(res.state.u2 - ref.u2).sum()) * g.h
        assert err <= 1e-10


class TestVolterra:
    def test_zero_operator(self):
        g = build_grid("finite", 1.0, 50)
        assert np.all(volterra_norm_sequence(VolterraOp(0.0, g), 5) == 0)

    def test_factorial_bound_n5(self):
        g = build_grid("finite", 1.0, 200)
        seq = volterra_norm_sequence(VolterraOp(1.0, g), 5)
        assert seq[4] <= (1.0 / math.factorial(5)) ** 0.2 + 0.02

    def test_factorial_bound_k2_n20(self):
        g = build_grid("finite", 1.0, 200)
        seq = volterra_norm_sequence(VolterraOp(2.0, g), 20)
        assert seq[19] <= 2.0 * (1.0 / math.factorial(20)) ** (1 / 20) + 0.05

    def test_coarse_discrete_bound(self):
        g = build_grid("finite", 1.0, 100)
        V = VolterraOp(1.5, g)
        M = V.matrix()
        P = np.eye(100)
        for n in range(1, 21):
            P = P @ M
            norm = np.abs(P).sum(axis=0).max()
            bound = 2.0 * 1.5 ** n / math.factorial(n - 1)
            assert norm <= bound

    def test_apply_is_cumulative_sum(self):
        g = build_grid("finite", 1.0, 10)
        V = VolterraOp(2.0, g)
        h = np.arange(10.0)
        assert np.allclose(V.apply(h), 2.0 * g.h * np.cumsum(h))
