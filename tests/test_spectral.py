import math

import numpy as np
import pytest

from twophase.errors import (ConfigurationError, IterationError,
                             PreconditionError)
from twophase.evolution import evolve
from twophase.model import build_grid, build_kernel, sample_params
from twophase.operators import StateVector, assemble
from twophase.spectral import (closed_form_poly, closed_form_sB, detect_AEG,
                               duhamel_solve, recruitment_free_bound,
                               sB_probe_infinite, spectral_bound,
                               spectral_gap_lower_bound)


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
        M = (gen.A_block + gen.B1_block + gen.B2_block).toarray()
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
        # eigenvalue, and a shift exactly on it makes the first
        # factorization singular
        g, p, K, gen = make(n=10, kernel=0.0, mu=0.0, c1=0.0, c2=0.0,
                            gamma1=lambda s: 1 + s, gamma2=lambda s: 1 + s)
        assert gen.full.diagonal().max() == -11.0
        s, _ = spectral_bound(gen, "full", shift0=-11.0)
        assert s == pytest.approx(-11.0, abs=1e-8)


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
