import math
import time
import warnings

import numpy as np
import pytest

from twophase import operators, spectral
from twophase.errors import (ConfigurationError, IterationError,
                             SpectralProximityError)
from twophase.evolution import evolve
from twophase.model import build_grid, build_kernel, sample_params
from twophase.operators import (DiscreteGenerator, StateVector,
                                _BandedFactor, assemble, resolvent_direct)
from twophase.scenario import scenario_from_dict
from twophase.spectral import (characteristic_function, closed_form_poly,
                               closed_form_sB, detect_AEG,
                               recruitment_free_bound, sB_probe_infinite,
                               spectral_bound, spectral_gap_lower_bound)

from test_operators import demo_generator, run_child
from test_structure import dense_recruitment_free


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
            s, _ = spectral_bound(gen, tol=1e-8)
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
        M = dense_recruitment_free(p)
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
        s, eig = spectral_bound(gen)
        x = eig.stacked()
        res = np.abs(gen.full @ x - s * x).max()
        assert res <= 1e-6 * max(1.0, abs(s))
        assert eig.mass == pytest.approx(1.0)
        assert min(eig.u1.min(), eig.u2.min()) >= -1e-12


    def test_pure_transport_bound_is_top_diagonal_entry(self):
        # lower-bidiagonal pure transport with gamma = 1 + s: the top
        # diagonal entry -gamma(edge_1)/h = -11 is the rightmost
        # eigenvalue.  The kernel is zero, so the exact route reads the
        # bound off the cell blocks, with no factorization at all
        g, p, K, gen = make(n=10, kernel=0.0, mu=0.0, c1=0.0, c2=0.0,
                            gamma1=lambda s: 1 + s, gamma2=lambda s: 1 + s)
        assert gen.full.diagonal().max() == -11.0
        s, _ = spectral_bound(gen)
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
    # the same kernel values as a dense table, which no rank-1 formula
    # reads: the characteristic route takes power steps on its K(lambda)
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

# non-mixing kernels
NON_MIXING = {
    "zero": 0.0,
    "lower": {"form": "indicator", "relation": "s>y"},
    "box": {"form": "indicator", "s_lo": 0.5, "y_hi": 0.5},
    "lower_box": {"form": "indicator", "relation": "s>y", "s_lo": 0.3,
                  "y_hi": 0.6, "value": 2.0},
    # the box lies below the diagonal, so s<y keeps none of it
    "upper_box": {"form": "indicator", "relation": "s<y", "s_lo": 0.5,
                  "y_hi": 0.4},
    "callable": lambda s, y: np.where(s >= y, 3.0 + 2.0 * s * y, 0.0),
}


def generator_times(p, K, x):
    # M x from the model formulas on the coefficients p and kernel K,
    # O(n) for the structured kernels (a dense oracle takes 330 MB at
    # n = 3200): factors kept on every pair, or only on j < i (s>y) or
    # j > i (s<y)
    g = p.grid
    n, h = g.n, g.h
    u1, u2 = x[:n], x[n:]
    y1 = -(p.gamma1_edges[1:] / h + p.mu + p.c1) * u1 + p.c2 * u2
    y2 = -(p.gamma2_edges[1:] / h + p.c2) * u2 + p.c1 * u1
    y1[1:] += p.gamma1_edges[1:-1] / h * u1[:-1]
    y2[1:] += p.gamma2_edges[1:-1] / h * u2[:-1]
    if K.dense is not None:
        y1 += h * (K.dense @ u1)
    elif K.relation is None:
        y1 += h * K.factors[0] * (K.factors[1] @ u1)
    else:
        f, fu = K.factors[0], K.factors[1] * u1
        if K.relation == "s>y":
            y1[1:] += h * f[1:] * np.cumsum(fu)[:-1]
        else:
            y1[:-1] += h * f[:-1] * np.cumsum(fu[::-1])[::-1][1:]
    return np.concatenate([y1, y2])


class TestExactRoute:
    @pytest.mark.parametrize("name, n", [
        (name, n) for name in sorted(NON_MIXING)
        for n in (200, 800) + (() if name == "callable" else (3200,))])
    def test_graded_eigenpair(self, name, n):
        g, p, K, gen = make(n=n, kernel=NON_MIXING[name], **GRADED)
        bound = spectral_bound(gen)
        assert bound.route == "exact"
        x = bound.eigfun.stacked()
        assert np.isfinite(x).all() and x.min() >= 0.0
        assert bound.eigfun.mass == pytest.approx(1.0, rel=1e-14)
        # the sweep reaches the last cell (from n = 800 on, the first
        # cells underflow: the vector spans more than the float range)
        assert x[n - 1] + x[-1] > 0
        res = np.abs(generator_times(p, K, x) - bound.s * x).max()
        assert res <= 1e-12 * max(1.0, abs(bound.s)) * x.max()

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
    def test_growth_only_bound_from_cell_blocks(self, n):
        g, p, K, gen = make(n=n, kernel={"form": "indicator",
                                         "relation": "s>y"})
        s, eig = spectral_bound(gen, tol=1e-3)
        best = block_eigenvalues(gen).max()
        assert abs(s - best) <= 1e-12 * abs(best)
        # [[-n-2, 1], [1, -n-1]]: -n - 3/2 + sqrt(5)/2
        assert s == pytest.approx(-n - 1.5 + math.sqrt(1.25), rel=1e-12)
        assert eig.mass == pytest.approx(1.0)

    # mortality 1 + 50 s puts the top cell block at s = 0, and the
    # eigenvector spans far more than the float range
    STEEP = dict(kernel={"form": "indicator", "relation": "s>y"},
                 mu={"form": "expression", "name": "linear",
                     "intercept": 1.0, "slope": 50.0})

    def test_steep_sweep_rescales_in_linear_time(self):
        # the sweep rescales every few dozen cells; rescaling every
        # entry so far each time took 3.3 s here
        g, p, K, gen = make(n=40000, **self.STEEP)
        start = time.perf_counter()
        bound = spectral_bound(gen)
        assert time.perf_counter() - start < 1.0
        x = bound.eigfun.stacked()
        assert bound.route == "exact"
        assert np.isfinite(x).all() and x.min() >= 0.0
        assert bound.eigfun.mass == pytest.approx(1.0, rel=1e-14)

    def test_deferred_rescale_matches_the_dense_sweep(self):
        # the factor kernel scales each entry once at the end, the same
        # kernel as a dense table rescales every entry so far at once
        n = 500
        g, p, K, gen = make(n=n, **self.STEEP)
        kernel = table_of(self.STEEP["kernel"], n)
        dense = make(n=n, **dict(self.STEEP, kernel=kernel))[3]
        lam = block_eigenvalues(gen).max()
        with np.errstate(over="ignore"):
            raw = gen.block_sweep(lam, np.zeros(2 * n), head=(0, (1.0, 0.0)))
        assert np.isinf(raw).any()      # the sweep does rescale
        x = spectral_bound(gen).eigfun.stacked()
        assert np.array_equal(x, spectral_bound(dense).eigfun.stacked())
        # the head cell underflows once the last cells are scaled to floats
        assert x[0] == 0.0 < x[n - 1]

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
        s, eig = spectral_bound(gen)
        assert abs(s - lams.max()) <= 1e-12 * abs(s)
        x = eig.stacked()
        assert x.min() >= 0.0
        assert eig.mass == pytest.approx(1.0, rel=1e-14)
        res = np.abs(gen.full @ x - s * x).max()
        assert res <= 1e-12 * abs(s) * x.max()
        # zero before cell k, and the trailing solve fills later cells
        assert not np.any(x[:k]) and not np.any(x[n:n + k])
        assert x[k + 1:n].sum() + x[n + k + 1:].sum() > 0

    def test_mixing_table_takes_characteristic_route(self):
        g, p, K, gen = make(n=50, kernel=table_of(1.0, 50))
        bound = spectral_bound(gen)
        assert bound.route == "characteristic"
        dense = np.linalg.eigvals(gen.full.toarray()).real.max()
        assert bound.s == pytest.approx(dense, rel=1e-8)

    def test_mixing_rank_one_kernel_takes_characteristic_route(self):
        g, p, K, gen = make(n=50)
        bound = spectral_bound(gen)
        assert bound.route == "characteristic"
        dense = np.linalg.eigvals(gen.full.toarray()).real.max()
        assert bound.s == pytest.approx(dense, rel=1e-8)


class TestCertifiedShifts:
    def test_reducible_generator_keeps_top_eigenvalue(self):
        g, p, K, gen = reducible_generator()
        assert np.linalg.eigvals(gen.full.toarray()).real.max() \
            == pytest.approx(13.0, abs=1e-10)
        s, eig = spectral_bound(gen)
        assert s == pytest.approx(13.0, abs=1e-8)
        assert min(eig.u1.min(), eig.u2.min()) >= 0.0

    def test_positional_option_rejected(self):
        # the options are keyword-only, so a stale operator selection
        # does not bind to tol
        g, p, K, gen = reducible_generator()
        with pytest.raises(TypeError):
            spectral_bound(gen, "full")


def dense_phi(p, K, lam):
    # the characteristic function h g.[(lambda - B)^{-1}(f, 0)]_1 of the
    # coefficients p and rank-1 kernel K from a dense LAPACK solve
    n = p.grid.n
    f, g = K.factors
    B = dense_recruitment_free(p)
    x = np.linalg.solve(lam * np.eye(2 * n) - B,
                        np.concatenate([f, np.zeros(n)]))
    return p.grid.h * g @ x[:n]


def dense_root(gen, p):
    # bisection on the dense phi between s_B and the line-sum bound + 1
    lo, hi = recruitment_free_bound(gen), gen.line_sum_bound() + 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if dense_phi(p, gen.kernel, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def mu_step_generator(n, value, table=False):
    # mortality steps from 0 to 50 at s = 0.3 and the box kernel sits on
    # [0.5, 1]^2: s_B = -n comes from the cells below 0.3, which the
    # kernel never reaches
    kernel = {"form": "indicator", "s_lo": 0.5, "y_lo": 0.5, "value": value}
    return make(n=n, kernel=table_of(kernel, n) if table else kernel,
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


# the perfbench probe_sweep scenario, whose sweep varies mu over
# 0.5:2.0:0.25
PROBE_SWEEP = dict(n=800, m=40.0, kind="truncated_infinite",
                   kernel={"form": "indicator", "value": 2.0, "s_hi": 1.0})
PROBE_SWEEP_MU = [0.5 + 0.25 * k for k in range(7)]


def sweep_phi(gen, lam):
    # phi from the forward sweep of B alone
    f, g = gen.kernel.factors
    n = gen.grid.n
    x = gen.recruitment_free.block_sweep(lam, np.concatenate([f, np.zeros(n)]))
    seen = g > 0
    return gen.grid.h * float(g[seen] @ x[:n][seen])


class TestCharacteristicRoute:
    @pytest.mark.parametrize("name", sorted(RANK_ONE) + ["probe_sweep"])
    def test_factor_phi_matches_sweep(self, name):
        # phi from the banded factor against the forward sweep, from
        # just above s_B (where the factor may overflow and fall back on
        # the sweep) to the opening shift of the bracket, where the
        # factor serves on its own
        g, p, K, gen = make(**RANK_ONE.get(name, PROBE_SWEEP))
        s_B = recruitment_free_bound(gen)
        s_A = spectral_bound(gen).s
        hi = gen.line_sum_bound() + 1.0
        for lam in (s_B + 1e-9 * abs(s_B), s_B + 0.5, s_A, hi):
            phi = characteristic_function(gen, lam)[0]
            assert phi == pytest.approx(sweep_phi(gen, lam), rel=1e-13)
        rhs = np.concatenate([K.factors[0], np.zeros(g.n)])
        for lam in (s_A, hi):
            x = gen.recruitment_free.factorization(lam).solve(rhs)
            assert np.isfinite(x).all()
            assert np.array_equal(characteristic_function(gen, lam)[1], x)

    def test_zero_coupling_overflow_falls_back_on_sweep(self):
        # c2 = 0: phase 2 overflows at s_A, and the factor's 0 * inf
        # products (the zero coupling entries in the band and in D^-1)
        # put NaN into phase 1, where the sweep passes nothing on
        g, p, K, gen = make(n=800, m=40.0, c1=1.0, c2=0.0, mu=14.0,
                            kernel={"form": "constant", "value": 1e-3})
        s_A = -15.0157461561692
        rhs = np.concatenate([K.factors[0], np.zeros(g.n)])
        with np.errstate(all="ignore"):
            x = gen.recruitment_free.factorization(s_A).solve(rhs)
        assert np.isnan(x[:g.n]).any()
        phi, x = characteristic_function(gen, s_A)
        assert not np.isnan(x).any() and np.isinf(x[g.n:]).any()
        assert phi == pytest.approx(1.0, rel=1e-9)
        bound = spectral_bound(gen)
        assert bound.route == "characteristic"
        assert abs(bound.s - s_A) <= 1e-12 * abs(s_A)
        lo, hi = bound.bracket
        assert lo <= bound.s <= hi and hi - lo <= 1e-10 * abs(hi)

    def test_overflowing_phi_reads_inf_without_warning(self):
        # at s_B + 0.5 the sum h g.x_1 of finite terms passes the float
        # range
        g, p, K, gen = make(n=300, m=40.0,
                            kernel=RANK_ONE["product"]["kernel"])
        lam = recruitment_free_bound(gen) + 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert characteristic_function(gen, lam)[0] == math.inf

    def test_overflowed_eigenfunction_is_rescaled(self):
        # the generator above: phase 2 of the solve at s_A grows about 4x
        # per cell and overflows, so the eigenfunction comes from a sweep
        # rescaled by powers of two; s_A and the bracket are unchanged
        g, p, K, gen = make(n=800, m=40.0, c1=1.0, c2=0.0, mu=14.0,
                            kernel={"form": "constant", "value": 1e-3})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = spectral_bound(gen)
        assert bound.s.hex() == "-0x1.e080fe15391a5p+3"
        assert [v.hex() for v in bound.bracket] == [
            "-0x1.e080fe15391efp+3", "-0x1.e080fe15391a5p+3"]
        assert np.isfinite(bound.eigfun.stacked()).all()
        assert_eigenpair(gen, bound)
        # the profile piles up at the right end of phase 2
        assert bound.eigfun.u2.argmax() == g.n - 1

    @pytest.mark.parametrize("name", ["demo"] + [
        f"probe_sweep_mu{mu}" for mu in PROBE_SWEEP_MU])
    def test_common_path_never_sweeps(self, name, monkeypatch):
        # every solve is banded: the solve just above s_B, which
        # overflows into the sweep on these generators, is never made,
        # since a Newton step moves lo off s_B before any bisection
        calls = []
        real = DiscreteGenerator.block_sweep

        def counting(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        if name == "demo":
            gen = demo_generator()[1]
        else:
            gen = make(mu=float(name[len("probe_sweep_mu"):]),
                       **PROBE_SWEEP)[3]
        s_B = recruitment_free_bound(gen)
        with np.errstate(over="ignore"):
            assert math.isinf(sweep_phi(gen, np.nextafter(s_B, math.inf)))
        monkeypatch.setattr(DiscreteGenerator, "block_sweep", counting)
        bound = spectral_bound(gen)
        assert bound.route == "characteristic" and bound.bracket[0] > s_B
        assert calls == []

    @pytest.mark.parametrize("name", sorted(RANK_ONE))
    def test_root_matches_dense_oracle(self, name):
        g, p, K, gen = make(**RANK_ONE[name])
        bound = spectral_bound(gen)
        assert bound.route == "characteristic"
        root = dense_root(gen, p)
        assert abs(bound.s - root) <= 1e-12 * abs(root)
        lo, hi = bound.bracket
        assert lo <= bound.s <= hi
        assert hi - lo <= 1e-10 * max(1.0, abs(hi))
        # the sweep certifies the bracket and agrees with the dense phi
        phi_lo = characteristic_function(gen, lo)[0]
        phi_hi = characteristic_function(gen, hi)[0]
        assert phi_lo > 1.0 >= phi_hi
        assert phi_lo == pytest.approx(dense_phi(p, K, lo), rel=1e-12)
        assert phi_hi == pytest.approx(dense_phi(p, K, hi), rel=1e-12)
        assert_eigenpair(gen, bound)

    def test_mu_step_root(self):
        # the root in 60-digit arithmetic is -29.25155186452381165; a
        # dense double-precision solve puts it at -29.2515574 (the forward
        # error of a strongly non-normal solve).  The same kernel as a
        # table takes power steps on K(lambda), which reads only the
        # kernel's rows: the Perron vector vanishes on the cells below 0.5
        root = -29.25155186452381165
        for table in (False, True):
            g, p, K, gen = mu_step_generator(60, 0.01, table)
            bound = spectral_bound(gen)
            assert bound.route == "characteristic"
            assert abs(bound.s - root) <= 1e-12 * abs(root)
            lo, hi = bound.bracket
            assert lo <= root <= hi and hi - lo <= 1e-10 * abs(hi)
            assert_eigenpair(gen, bound)

    def test_kernel_blind_to_perron_vector_of_B(self):
        # mu = 200 and c1 = c2 = 0 put s_B = -50 in phase 2 alone (phase 1
        # sits at -250), where the kernel's parent factor g never looks:
        # phi(s_B+) is about 4e-14 and g.x_B = 0, so the eigenvector is
        # B's Perron vector itself, phase-2 cell 49 alone; so too for the
        # same kernel as a table
        kernel = {"form": "indicator", "s_hi": 0.2, "y_lo": 0.5, "value": 1.0}
        for spec in (kernel, table_of(kernel, 50)):
            g, p, K, gen = make(n=50, mu=200.0, c1=0.0, c2=0.0, kernel=spec)
            assert recruitment_free_bound(gen) == -50.0
            bound = spectral_bound(gen)
            assert bound.route == "characteristic"
            assert bound.s == -50.0 and bound.bracket == (-50.0, -50.0)
            x = bound.eigfun.stacked()
            assert np.flatnonzero(x).tolist() == [g.n + 49]
            assert np.abs(gen.full @ x - bound.s * x).max() == 0.0

    @pytest.mark.parametrize("name", ["blind", "weak_1e-06", "weak_1.0"])
    def test_s_A_at_s_B_costs_one_solve_more(self, name, monkeypatch):
        # the s_A = s_B cases of the two tests above and below: phi(s_B+)
        # is solved once, when the first Newton step from the top leaves
        # the bracket: 3 solves on 2 banded factors (phi and phi' at the
        # top, phi at s_B+)
        if name == "blind":
            gen = make(n=50, mu=200.0, c1=0.0, c2=0.0, kernel={
                "form": "indicator", "s_hi": 0.2, "y_lo": 0.5,
                "value": 1.0})[3]
        else:
            gen = mu_step_generator(10, float(name[len("weak_"):]))[3]
        counts = {"factors": 0, "solves": 0}

        class Counting(operators._BandedFactor):
            def __init__(self, *args):
                counts["factors"] += 1
                super().__init__(*args)

            def solve(self, rhs):
                counts["solves"] += 1
                return super().solve(rhs)

        monkeypatch.setattr(operators, "_BandedFactor", Counting)
        s_B = recruitment_free_bound(gen)
        bound = spectral_bound(gen)
        assert bound.s == s_B and bound.bracket == (s_B, s_B)
        assert counts == {"factors": 2, "solves": 3}

    @pytest.mark.parametrize("value, table", [
        (1e-6, False), (1.0, False), (1.8, False), (1e-6, True),
        (1.0, True), (1.8, True)],
        ids=["1e-06", "1.0", "1.8", "1e-06-table", "1.0-table", "1.8-table"])
    def test_weak_recruitment_leaves_s_B(self, value, table):
        # phi(s_B+) = 0.55 * value <= 1: the recruitment cannot lift the
        # bound, which stays exactly at s_B = -10; the table's K(s_B+) has
        # the same one nonzero eigenvalue, 0.9986 at value 1.8, where the
        # eigenvector's series z = h beta x_B1 + K z shrinks by that
        # factor a term
        g, p, K, gen = mu_step_generator(10, value, table)
        s_B = recruitment_free_bound(gen)
        assert s_B == -10.0
        if not table:
            phi = characteristic_function(gen, np.nextafter(s_B, math.inf))[0]
            assert phi == pytest.approx(0.55 * value, rel=0.01)
        bound = spectral_bound(gen)
        assert bound.route == "characteristic"
        assert bound.s == -10.0 and bound.bracket == (-10.0, -10.0)
        assert_eigenpair(gen, bound)

    def test_boundary_series_that_does_not_settle_raises(self):
        # two boxes on [0.5, 0.7]^2 and [0.8, 1]^2 under the mortality
        # step, n = 20: K(s_B+) is block triangular with eigenvalues 0.985
        # and 0.965, so the terms of the eigenvector's series approach
        # K's Perron vector only as 0.98^k, too slowly for max_iter = 500
        g = build_grid("finite", 1.0, 20)
        beta = sum(build_kernel(indicator(lo, hi, lo, hi, value), g).beta
                   for lo, hi, value in ((0.5, 0.7, 5.0), (0.8, 1.0, 4.9)))
        g, p, K, gen = make(
            n=20, kernel={"form": "table", "values": beta.tolist()},
            mu={"form": "table", "points": [[0.0, 0.0], [0.3, 50.0]]})
        with pytest.raises(IterationError, match="did not settle") as ei:
            spectral_bound(gen)
        assert ei.value.bracket == (-20.0, -20.0)

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


    def test_max_iter_raises_with_bracket(self):
        # two Newton steps from the opening bracket [s_B, bound + 1] of
        # the README demo leave s_A = -0.12976 inside it
        g, gen = demo_generator()
        with pytest.raises(IterationError, match="did not settle") as ei:
            spectral_bound(gen, max_iter=2)
        lo, hi = ei.value.bracket
        assert lo == pytest.approx(-0.46536, abs=1e-5) and hi == 1.0
        s_A = spectral_bound(gen).s
        assert s_A == pytest.approx(-0.12976, abs=1e-5)
        assert lo < s_A < hi


def collatz_wielandt(M, x):
    # min_i (Mx)_i/x_i <= s(M) <= max_i (Mx)_i/x_i for a Metzler M, on
    # the nonnegative part of x: the lower end holds for any nonnegative
    # x != 0 (minimum over its support), the upper end only for x > 0
    # (Horn & Johnson, Matrix Analysis, ch. 8)
    x = np.clip(x, 0.0, None)
    pos = x > 0
    ratio = (M @ x)[pos] / x[pos]
    return float(ratio.min()), float(ratio.max()) if pos.all() else math.inf


def indicator(s_lo, s_hi, y_lo, y_hi, value):
    return {"form": "indicator", "s_lo": s_lo, "s_hi": s_hi, "y_lo": y_lo,
            "y_hi": y_hi, "value": value}


def boxes(m, *boxes):
    # a table of indicator boxes (s_lo, s_hi, y_lo, y_hi, value) on
    # finite [0, m], n = 100
    g = build_grid("finite", m, 100)
    return {"form": "table", "values": sum(
        build_kernel(indicator(*box), g).beta for box in boxes).tolist()}


# kernels that are not rank-1, which the characteristic route takes by
# power steps on K(lambda): a dense table, s<y, a mixing callable and
# the reducible table; boxes that K cycles between, its self-loops faint
# (plain steps cycle without settling); and rows that read parents below
# every row the kernel has, empty rows of K on its row support
POWER = {
    "table": lambda: make(n=50, kernel=table_of(1.0, 50))[3],
    "s<y": lambda: make(n=50, kernel={"form": "indicator",
                                      "relation": "s<y", "value": 3.0})[3],
    "callable": lambda: make(n=40, kernel=lambda s, y: 1.0 + s * y)[3],
    "reducible": lambda: reducible_generator(table=True)[3],
    "cycle": lambda: make(n=100, m=10.0, c1=0.0, kernel=boxes(
        10.0, (2, 3, 6, 7, 5.0), (6, 7, 2, 3, 5.0)))[3],
    "empty_rows": lambda: make(n=100, kernel=boxes(
        1.0, (0.5, 0.6, 0.0, 0.1, 50.0), (0.2, 0.3, 0.8, 0.9, 30.0)))[3],
}


def two_boxes(first, second):
    # finite [0, 1], n = 100, unit rates, a table of `first` on [0, 0.3]^2
    # plus `second` on [0.6, 0.9]^2; the rank-1 box of each alone
    pair = [(0.0, 0.3, 0.0, 0.3, first), (0.6, 0.9, 0.6, 0.9, second)]
    return (make(n=100, kernel=boxes(1.0, *pair))[3],
            [make(n=100, kernel=indicator(*box))[3] for box in pair])


class TestPowerRoute:
    @pytest.mark.parametrize("name", sorted(POWER))
    def test_bracket_from_last_solve_matches_generator_oracle(self, name):
        # power steps on K(lambda) with no LU: a bracket within tol that
        # overlaps the Collatz-Wielandt bracket of M on the eigenvector
        gen = POWER[name]()
        bound = spectral_bound(gen)
        assert bound.route == "characteristic"
        lo, hi = bound.bracket
        assert lo <= bound.s <= hi
        assert hi - lo <= 1e-10 * max(1.0, abs(bound.s))
        ref = collatz_wielandt(gen.full, bound.eigfun.stacked())
        assert ref[0] <= hi and lo <= ref[1]
        if name != "reducible":
            assert lo <= np.linalg.eigvals(gen.full.toarray()).real.max() <= hi

    def test_bracket_holds_high_precision_root(self):
        # the root of det(lambda - M) on the s<y case's float matrix, by
        # bisection in 40-digit arithmetic: a bound that certifies a side
        # of 1 by a bare float comparison put hi 1.6e-15 below it
        lo, hi = spectral_bound(POWER["s<y"]()).bracket
        assert lo <= -1.2034656998597406705 <= hi

    def test_power_steps_share_max_iter(self, monkeypatch):
        # one budget of max_iter for the evaluations and the power steps
        # together; the three evaluations outside the search loop make
        # their first product on their own
        products = []
        real = spectral._next_generation

        def counting(*args):
            products.append(1)
            return real(*args)

        monkeypatch.setattr(spectral, "_next_generation", counting)
        gen = POWER["s<y"]()
        with pytest.raises(IterationError, match="did not settle") as ei:
            spectral_bound(gen, max_iter=20)
        assert len(products) <= 20 + 3
        lo, hi = ei.value.bracket
        assert lo <= spectral_bound(gen).s <= hi

    @pytest.mark.parametrize("first, second, dominant", [
        (5.0, 20.0, 1), (10.0, 5.0, 0)], ids=["downstream", "upstream"])
    def test_reducible_two_boxes_match_dominant_box(self, first, second,
                                                    dominant):
        # K(lambda) is block lower triangular, the upstream box feeding
        # the downstream one, so s_A is that of the dominant box alone (a
        # rank-1 root).  With the downstream box dominant, K's Perron
        # vector vanishes on the upstream rows, whose ratios stall the
        # lower bound until those entries are zeroed
        gen, alone = two_boxes(first, second)
        oracle = spectral_bound(alone[dominant])
        assert oracle.route == "characteristic"
        assert oracle.s == pytest.approx(
            [-7.889542583446161, -2.576925687326286][dominant], rel=1e-12)
        bound = spectral_bound(gen)
        lo, hi = bound.bracket
        assert lo <= oracle.bracket[1] and oracle.bracket[0] <= hi
        assert hi - lo <= 1e-10 * max(1.0, abs(bound.s))

    def test_max_iter_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="max_iter"):
            spectral_bound(POWER["table"](), max_iter=0)

    def test_converged_iterate_gives_collatz_wielandt_bracket(self):
        g, p, K, gen = make(n=50, kernel=table_of(1.0, 50))
        bound = spectral_bound(gen)
        assert bound.route == "characteristic"
        lo, hi = bound.bracket
        dense = np.linalg.eigvals(gen.full.toarray()).real.max()
        assert lo <= dense <= hi and lo <= bound.s <= hi
        assert hi - lo <= 1e-9 * abs(dense)

    def test_max_iter_raises_with_bracket(self):
        g, p, K, gen = make(n=50, kernel=table_of(1.0, 50))
        with pytest.raises(IterationError, match="did not settle") as ei:
            spectral_bound(gen, max_iter=2)
        lo, hi = ei.value.bracket
        assert lo <= np.linalg.eigvals(gen.full.toarray()).real.max() <= hi


class TestClosedForms:
    def test_degenerate_special_case(self):
        assert closed_form_sB(0.0, 2.0, 1.0) == pytest.approx(-1.0)

    def test_zero_mortality_limit(self):
        assert closed_form_sB(0.0, 3.0, 0.0) == 0.0
        assert closed_form_sB(2.0, 1.0, 0.0) == 0.0

    def test_small_product_does_not_cancel(self):
        # l_mu*c2 << b^2: 0.5*(-b + sqrt(b^2 - 4*l_mu*c2)) is 8.3e-8 off;
        # the root is -c/b - c^2/b^3 + O(c^3) with c = 1e-10, b = 2 + c
        lam = closed_form_sB(1.0, 1.0, 1e-10)
        assert lam == pytest.approx(-4.999999999875e-11, rel=1e-15)

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

    @pytest.mark.parametrize("c2, mu", [(0.3, 2.5), (2.5, 0.3)])
    def test_rounded_lambda_star_keeps_eps_bar_positive(self, c2, mu):
        # lambda* ~ -min(c2, mu): lambda* + c2 rounds below zero as a
        # sum, though it is > 0 (about c1*c2/(mu - c2)); swapped, it is
        # lambda* + mu that cancels, so lambda* + c2 may not be derived
        # from it
        ib1 = 2.1999999999999997
        eps, Delta, lam = spectral_gap_lower_bound(1e-20, c2, mu, ib1)
        assert Delta > 0 and eps > 0
        assert abs(self.root_poly(eps, lam, 1e-20, c2, mu, ib1)) <= 1e-12

    def test_positive_iff_minorant_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            c1, c2, mu = 0.1 + rng.random(3) * 2
            ib1 = rng.random() * 2
            eps, Delta, lam = spectral_gap_lower_bound(c1, c2, mu, ib1)
            assert (eps > 0) == (ib1 > 0)
            assert abs(self.root_poly(eps, lam, c1, c2, mu, ib1)) \
                <= 1e-10 * (1 + ib1 + c1 + c2 + mu) ** 2


def tail_generator(n=1000, smax=100.0, **over):
    # a constant kernel on top: the probe reads only the generator's
    # recruitment-free operator
    g = build_grid("truncated_infinite", smax, n)
    spec = dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=0.0, c2=1.0, gamma0=1.0)
    spec.update(over)
    return g, assemble(sample_params(spec, g), build_kernel(1.0, g), g)


def drop_generator(drop):
    # gamma1 = gamma2 = 1 below s = drop and 0.1 from there on, on [0, 40]
    # at h = 0.05: the cell blocks have eigenvalues -20.38 and -22.62
    # while their outflow edge lies below the drop and -2.38 and -4.62
    # from there on
    gamma = {"form": "table", "points": [[0.0, 1.0], [drop, 0.1]]}
    return tail_generator(n=800, smax=40.0, gamma1=gamma, gamma2=gamma,
                          c1=1.0, gamma0=0.1)


class TestInfiniteProbe:
    def test_bounded_above_closed_form(self):
        g, gen = tail_generator()
        r = sB_probe_infinite(gen, -0.5, [25, 50, 100])
        assert r.classification == "resolvent-bounded"

    def test_diverging_below_closed_form(self):
        g, gen = tail_generator()
        r = sB_probe_infinite(gen, -1.5, [25, 50, 100])
        assert r.classification == "diverging"

    def test_positive_lambda_always_bounded(self):
        g, gen = tail_generator(c1=0.3, mu=lambda s: 1 + 0.1 * np.sin(s) ** 2)
        r = sB_probe_infinite(gen, 0.5, [25, 50, 100])
        assert r.classification == "resolvent-bounded"

    @pytest.mark.parametrize("lam", [-1.5, -0.5, 0.5])
    def test_one_solve_gives_every_truncation(self, monkeypatch, lam):
        # the banded solve is causal, so the norms read off prefixes of one
        # solve on the largest truncation's cells equal separate solves of
        # each truncation's own B, bit for bit
        g, gen = tail_generator(c1=0.5)
        smax_list = [25.0, 50.0, 100.0]
        separate = []
        for smax in smax_list:
            gk, genk = tail_generator(n=int(round(smax / g.h)), smax=smax,
                                      c1=0.5)
            x = genk.recruitment_free.factorization(lam).solve(
                np.tile((gk.centers <= 1.0).astype(float), 2))
            separate.append(float((x[:gk.n].sum() + x[gk.n:].sum()) * gk.h))
        sizes = []
        real = _BandedFactor.__init__

        def counting(self, lam, blocks, *args):
            sizes.append(blocks[0].size)
            real(self, lam, blocks, *args)

        monkeypatch.setattr(_BandedFactor, "__init__", counting)
        r = sB_probe_infinite(gen, lam, smax_list)
        assert sizes == [1000]
        assert r.norms == separate

    @pytest.mark.parametrize("lam", [-0.5, 0.5])
    def test_probe_solve_matches_direct_resolvent(self, lam):
        # the largest truncation's norm is that of (lambda - B)^{-1}(src,
        # src) by the generator's general resolvent route
        g, gen = tail_generator(n=400, smax=40.0, c1=0.5)
        src = (g.centers <= 1.0).astype(float)
        U = resolvent_direct(gen.recruitment_free, lam,
                             StateVector(src, src, g))
        r = sB_probe_infinite(gen, lam, [20.0, 40.0])
        assert r.norms[-1] == pytest.approx(U.norm1(), rel=1e-12)

    @pytest.mark.parametrize("lam, ratios", [(-0.2, [1.1807, 1.0291]),
                                             (0.0, [1.0273, 1.0006])])
    def test_ratios_between_thresholds_read_inconclusive(self, lam, ratios):
        # unit rates on [0, 40]: the norms still grow at these lambda, by
        # less than the diverging ratio 1.2 but, at the first step, more
        # than the bounded 1.02
        g, gen = tail_generator(n=800, smax=40.0, c1=1.0)
        r = sB_probe_infinite(gen, lam, [10, 20, 40])
        assert r.classification == "inconclusive"
        assert r.ratios == pytest.approx(ratios, abs=1e-4)

    @pytest.mark.parametrize("lam", [-5.0, -10.0, -15.0])
    def test_blocks_past_largest_truncation_unread(self, lam):
        # the blocks below lambda all lie past s = 25, which no truncation
        # reads: the probe factors only the first 400 cells and classifies
        g, gen = drop_generator(25.0)
        r = sB_probe_infinite(gen, lam, [10, 20])
        assert r.classification == "diverging"
        assert min(r.ratios) > 1e20

    @pytest.mark.parametrize("drop, smax_list", [(25.0, [10, 20, 40]),
                                                 (20.0, [10, 20])])
    def test_block_inside_largest_truncation_rejected(self, drop, smax_list):
        # a block below lambda = -5 inside the cells of the largest
        # truncation fails the certificate; with the drop at s = 20 that
        # block is the last cell of [0, 20], whose outflow edge is s = 20
        g, gen = drop_generator(drop)
        with pytest.raises(SpectralProximityError, match="does not lie above"):
            sB_probe_infinite(gen, -5.0, smax_list)

    def test_lambda_below_a_cell_block_rejected(self):
        # at lambda = -1e6 (lambda - B)^{-1} is not >= 0: the factor's
        # nonnegativity certificate fails, with no RuntimeWarning (an
        # error under the test settings)
        g, gen = tail_generator(n=200, smax=20.0, c1=1.0)
        with pytest.raises(SpectralProximityError, match="does not lie above"):
            sB_probe_infinite(gen, -1e6, [10, 20])

    def test_overflowing_decay_raises_without_warning(self):
        # lambda = -15 lies above every cell block (at -20.38), but each
        # cell multiplies the solution by about 3.72: past about 541 of
        # the 800 cells it exceeds the float range, reported as an
        # overflowed resolvent, with no RuntimeWarning
        g, gen = tail_generator(n=800, smax=40.0, c1=1.0)
        with pytest.raises(IterationError, match="overflowed"):
            sB_probe_infinite(gen, -15.0, [10, 20, 40])

    def test_truncation_below_two_cells_rejected(self):
        g, gen = tail_generator(n=100, smax=10.0)
        with pytest.raises(ConfigurationError, match="truncation 0.1 "):
            sB_probe_infinite(gen, 0.0, [0.1, 10])

    def test_solution_nonincreasing_in_lambda(self):
        g, gen = tail_generator(n=300, smax=30.0, c1=0.5)
        B = gen.recruitment_free
        src = np.tile((g.centers <= 1.0).astype(float), 2)
        x1 = B.factorization(-0.2, above=True).solve(src)
        x2 = B.factorization(0.3, above=True).solve(src)
        assert np.all(x2 >= 0) and np.all(x1 >= x2)

    def test_source_outside_mesh_rejected(self):
        # h = 2.5 > 2: no cell center lies in the source interval [0, 1],
        # so every truncation would see a zero source
        g, gen = tail_generator(n=4, smax=10.0, c1=0.5, c2=0.5)
        with pytest.raises(ConfigurationError, match="source interval"):
            sB_probe_infinite(gen, 0.0, [5, 10])


class TestDetectAEG:
    def test_no_recruitment_decays(self):
        g, p, K, gen = make(n=80, kernel=0.0)
        U0 = StateVector(np.ones(80), np.zeros(80), g)
        traj = evolve(gen, U0, 1e-2, 3.0, record_every=10)
        fit = detect_AEG(traj)
        assert fit.extinct or fit.lambda0_fit <= 0

    def test_two_route_consistency(self):
        g, p, K, gen = make(n=100)
        s, eig = spectral_bound(gen)
        U0 = StateVector((g.centers <= 0.25).astype(float), np.zeros(100), g)
        traj = evolve(gen, U0, 1e-3, 8.0, record_every=100)
        fit = detect_AEG(traj, eig)
        assert abs(fit.lambda0_fit - s) <= max(1e-3, 5e-3) * abs(s)
        assert fit.profile_decay_rate < 0

    def test_eigenfunction_is_invariant_profile(self):
        g, p, K, gen = make(n=100)
        s, eig = spectral_bound(gen)
        traj = evolve(gen, eig, 1e-3, 2.0, record_every=50)
        for x in traj.records:
            S = StateVector.from_stacked(x, g)
            m = S.mass
            d = (np.abs(S.u1 / m - eig.u1).sum()
                 + np.abs(S.u2 / m - eig.u2).sum()) * g.h
            assert d <= 1e-6
