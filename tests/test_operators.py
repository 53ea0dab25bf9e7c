import gc
import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import twophase
import twophase.operators
from twophase.errors import ConfigurationError, SpectralProximityError
from twophase.evolution import evolve
from twophase.model import (build_grid, build_kernel, sample_coefficient,
                            sample_params)
from twophase.operators import (StateVector, _BandedFactor, _RankOneFactor,
                                _SeriesFactor, assemble, block_eigenvalues)
from twophase.scenario import scenario_from_dict
from twophase.spectral import spectral_bound

from oracles import (VolterraOp, resolvent_transport_analytic,
                     volterra_norm_sequence)
from test_structure import dense_blocks, dense_recruitment_free


def make(n=100, m=1.0, kernel=1.0, **over):
    g = build_grid("finite", m, n)
    spec = dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=1.0, c2=1.0, gamma0=1.0)
    spec.update(over)
    p = sample_params(spec, g)
    K = build_kernel(kernel, g)
    return g, p, K, assemble(p, K, g)


def transport_part(g, p, K, gen):
    # the assembled generator less its loss, coupling and recruitment
    # blocks written out from the model formulas
    A, B1, B2, B3 = dense_blocks(g, p, K)
    return gen.full.toarray() - B1 - B2 - B3


def demo_generator(n=600, table=False):
    # README demo generator (box kernel on [0, 1] x [0, 30]); table=True
    # gives the same kernel values as a dense table
    scn = scenario_from_dict({
        "name": "demo",
        "domain": {"kind": "truncated_infinite", "smax": 30.0, "n": n},
        "coefficients": {
            "gamma1": 1.0, "gamma2": 1.0, "mu": 1.0, "gamma0": 1.0,
            "c1": {"form": "expression", "name": "indicator",
                   "lo": 0.5, "hi": 1.0},
            "c2": {"form": "expression", "name": "exp_decay"}},
        "kernel": {"form": "indicator", "s_lo": 0.0, "s_hi": 1.0}})
    K = scn.kernel
    if table:
        K = build_kernel({"form": "table", "values": K.beta}, scn.grid)
    return scn.grid, assemble(scn.params, K, scn.grid)


def graded_generator():
    # n = 20 on [0, 1] with growth rates rising across the domain
    # (1 + 20 s and 1 + 8 s), mortality 0.5 + s, c1 = 3 on [0.3, 0.6]
    # and c2 = 2 exp(-s): every cell block differs, and a dense LU solve
    # agrees with an exact rational solve to 1e-15 at every shift used
    # below, up to 1e-9 above the spectral bound
    g = build_grid("finite", 1.0, 20)
    p = sample_params(dict(
        gamma1={"form": "expression", "name": "linear", "intercept": 1.0,
                "slope": 20.0},
        gamma2={"form": "expression", "name": "linear", "intercept": 1.0,
                "slope": 8.0},
        mu={"form": "expression", "name": "linear", "intercept": 0.5},
        c1={"form": "expression", "name": "indicator", "lo": 0.3,
            "hi": 0.6, "value": 3.0},
        c2={"form": "expression", "name": "exp_decay", "scale": 2.0},
        gamma0=1.0), g)
    return g, p, assemble(p, build_kernel(1.0, g), g)


def stored_numbers(fact) -> int:
    # entries of the arrays a banded or rank-1 factor holds
    return sum(v.size if isinstance(v, np.ndarray) else stored_numbers(v)
               for v in vars(fact).values()
               if isinstance(v, (np.ndarray, _BandedFactor, _RankOneFactor)))


class TestAssemble:
    def test_zero_perturbations_leave_pure_transport(self):
        g, p, K, gen = make(kernel=0.0, mu=0.0, c1=0.0, c2=0.0)
        assert np.array_equal(gen.full.toarray(), dense_blocks(g, p, K)[0])

    def test_two_cell_hand_stencil(self):
        g, p, K, gen = make(n=2, m=1.0)
        A1 = transport_part(g, p, K, gen)[:2, :2]
        assert np.allclose(np.diag(A1), [-2.0, -2.0])
        assert A1[1, 0] == pytest.approx(2.0)

    def test_recruitment_quadrature_entries(self):
        g, p, K, gen = make(n=4, m=1.0, kernel=1.0)
        A, B1, B2, _ = dense_blocks(g, p, K)
        B3 = (gen.full.toarray() - A - B1 - B2)[:4, :4]
        assert np.all(B3 == pytest.approx(0.25))

    def test_sign_pattern_invariants(self):
        g, p, K, gen = make(n=20, gamma1=lambda s: 1 + s)
        A = transport_part(g, p, K, gen)
        _, B1, B2, B3 = dense_blocks(g, p, K)
        assert np.all(np.diag(A) <= 0)
        assert np.all(A - np.diag(np.diag(A)) >= 0)
        assert np.all(B2 >= 0)
        assert np.all(B3 >= 0)
        assert np.all(B1.diagonal() <= 0)

    def test_column_sums_telescope_to_outflow(self):
        g, p, K, gen = make(n=10, gamma1=lambda s: 1 + s)
        cols = transport_part(g, p, K, gen).sum(axis=0)[:10]
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
            u1 = gen.factorization(lam).solve(
                np.concatenate([h, np.zeros(n)]))[:n]
            ua = resolvent_transport_analytic(
                lam, h, sample_coefficient(gfun, g), g)
            errs.append(np.abs(u1 - ua).sum() * g.h)
        assert errs[0] <= 1.0 * (1.0 / 100)       # C * h with modest C
        assert errs[1] <= 0.65 * errs[0] + 1e-13  # ~halves under doubling

    def test_support_propagation(self):
        g = build_grid("finite", 1.0, 200)
        h = ((g.centers >= 0.5)).astype(float)
        spec = dict(gamma1=1.0, gamma2=1.0, mu=0.0, c1=0.0, c2=0.0, gamma0=1.0)
        p = sample_params(spec, g)
        gen = assemble(p, build_kernel(0.0, g), g)
        u1 = gen.factorization(1.0).solve(
            np.concatenate([h, np.zeros(200)]))[:200]
        assert np.abs(u1[g.centers < 0.5 - g.h]).max() <= 1e-14
        ua = resolvent_transport_analytic(1.0, h, sample_coefficient(1.0, g),
                                          g)
        assert np.abs(ua[g.centers < 0.5 - g.h]).max() <= 1e-14


class TestDirectResolvent:
    def test_decoupled_phase_stays_zero(self):
        g, p, K, gen = make(n=100, mu=0.0, c1=0.0, c2=0.0, kernel=0.0)
        H = StateVector(np.ones(100), np.zeros(100), g)
        x = gen.factorization(0.0).solve(H.stacked())
        assert np.all(x[100:] == 0)

    def test_large_lambda_asymptotics(self):
        g, p, K, gen = make(n=50)
        rng = np.random.default_rng(0)
        H = StateVector(rng.random(50), rng.random(50), g)
        lam = 1e6
        x = gen.factorization(lam).solve(H.stacked())
        rel = np.abs(x * lam - H.stacked()).max()
        assert rel <= 1e-3

    def test_resolvent_positivity_random(self):
        g, p, K, gen = make(n=60)
        rng = np.random.default_rng(1)
        lam = 1.0  # comfortably above the spectral bound (~ -0.27)
        for _ in range(100):
            H = StateVector(rng.random(60), rng.random(60), g)
            x = gen.factorization(lam).solve(H.stacked())
            assert x.min() >= -1e-12


    def test_singular_shift_raises_proximity_error(self):
        # pure transport at gamma = 1, h = 0.01: lambda = -100 is the
        # diagonal of the lower-bidiagonal operator, so lambda - M is
        # singular
        g, p, K, gen = make(n=100, mu=0.0, c1=0.0, c2=0.0, kernel=0.0)
        H = StateVector(np.ones(100), np.ones(100), g)
        with pytest.raises(SpectralProximityError):
            gen.factorization(-100.0).solve(H.stacked())

    def test_factorization_fill_stays_near_matrix_size(self):
        # README demo generator with its box kernel as a dense table, at
        # the implicit step's shift 1/dt: the series factor holds no array
        # of its own and solves on B's banded factor, with no fill: 16 n
        # numbers (the band, the cell-block inverses and the interleave
        # buffer with its two phase views), where the table holds n^2
        lam, sizes = 1000.0, []
        for n in (600, 1200):
            g, gen = demo_generator(n, table=True)
            fact = gen.factorization(lam)
            assert isinstance(fact, _SeriesFactor)
            assert stored_numbers(fact) == 0
            sizes.append(stored_numbers(
                gen.recruitment_free.factorization(lam)))
            assert sizes[-1] <= 16 * n
        assert sizes[1] == 2 * sizes[0]

    def test_factorization_keeps_one_live_factor(self, monkeypatch):
        # the generator keeps only its last factor: repeated shifts
        # factor once, and returning to an earlier shift factors again
        # the constant kernel 1 as a dense table
        builds = []

        class Counting(_SeriesFactor):
            def __init__(self, *args):
                builds.append(args[1])
                super().__init__(*args)
        monkeypatch.setattr(twophase.operators, "_SeriesFactor", Counting)
        g, p, K, gen = make(n=40, kernel={"form": "table",
                                          "values": np.ones((40, 40))})
        U = StateVector(np.ones(40), np.zeros(40), g)
        evolve(gen, U, 1e-2, 0.5)
        assert len(builds) == 1
        gen.factorization(1.0)
        gen.factorization(2.0)
        gen.factorization(1.0)
        assert len(builds) == 4

    def test_series_factor_keeps_no_reference_cycle(self):
        # the factor holds a twin of its generator, not the generator
        # itself, so dropping the last reference frees the generator and
        # its dense kernel at once, without the cyclic collector
        g, p, K, gen = make(n=40, kernel={"form": "table",
                                          "values": np.ones((40, 40))})
        gen.factorization(1.0).solve(np.ones(2 * g.n))
        ref = weakref.ref(gen)
        gc.disable()
        try:
            del gen
            assert ref() is None
        finally:
            gc.enable()

    def test_banded_factor_stores_linear_size(self):
        # the demo generator with its rank-1 box kernel at the same shift:
        # the banded factor of lambda - B and the Sherman-Morrison vectors
        # hold O(n) numbers, within twice the nonzeros of lambda - M
        lam = 1000.0
        sizes = []
        for n in (600, 1200):
            g, gen = demo_generator(n)
            fact = gen.factorization(lam)
            mat = sp.identity(2 * n, format="csr") * lam - gen.full
            sizes.append(stored_numbers(fact))
            assert sizes[-1] <= 2 * mat.nnz
        assert sizes[1] == 2 * sizes[0]

    def test_banded_factorization_keeps_one_live_factor(self, monkeypatch):
        # one live factor per (lambda, scale) on the banded route too
        builds = []

        class Counting(_BandedFactor):
            def __init__(self, *args):
                builds.append(args[0])
                super().__init__(*args)
        monkeypatch.setattr(twophase.operators, "_BandedFactor", Counting)
        g, p, K, gen = make(n=40)
        U = StateVector(np.ones(40), np.zeros(40), g)
        evolve(gen, U, 1e-2, 0.5)
        assert len(builds) == 1
        gen.factorization(1.0)
        gen.factorization(2.0)
        gen.factorization(1.0)
        assert len(builds) == 4
        # B is a generator of its own, with its own factor: the full
        # generator's factor at 1.0 stays live beside B's, so this
        # builds B's once and nothing else
        for op in (gen.recruitment_free, gen, gen.recruitment_free,
                   gen.recruitment_free):
            op.factorization(1.0)
        assert len(builds) == 5


class TestAboveSpectralBound:
    @pytest.mark.parametrize("kernel, factor", [
        (0.0, "_BandedFactor"), (5.0, "_RankOneFactor"),
        ({"form": "table", "values": [[5.0] * 40] * 40}, "_SeriesFactor"),
        ({"form": "indicator", "relation": "s<y", "value": 20.0},
         "_SeriesFactor")])
    def test_factor_certifies_lambda_above_s_A(self, kernel, factor):
        # (lambda - M)^{-1} >= 0 exactly above s_A: the banded factor
        # knows it from its cell blocks, the rank-1 one from 1 - phi, the
        # series factor from its series of the ones vector converging
        g, p, K, gen = make(n=40, kernel=kernel)
        s = spectral_bound(gen).s
        fact = gen.factorization(s + 0.01, above=True)
        assert type(fact).__name__ == factor and fact.above
        with pytest.raises(SpectralProximityError, match="spectral bound"):
            gen.factorization(s - 0.01, above=True)
        if factor == "_SeriesFactor":
            # its series diverges below s_A, certified or not
            with pytest.raises(SpectralProximityError,
                               match="spectral bound"):
                gen.factorization(s - 0.01)
        else:
            # uncertified, the factor below s_A still solves
            assert np.isfinite(gen.factorization(s - 0.01).solve(
                np.ones(2 * g.n))).all()


class TestBandedFactor:
    @staticmethod
    def shift(gen, name):
        # s_B and the next distinct block eigenvalue below it; the top
        # cell block has b*c = 0, so s_B is exact and a shift 1e-9
        # above it is known to full relative accuracy
        a, b, c, d = gen.recruitment_free.cell_blocks()
        top = block_eigenvalues(a, b, c, d)
        assert (b * c)[top.argmax()] == 0
        lams = np.unique(top)
        s_B = lams[-1]
        return {"just_above": s_B + 1e-9 * abs(s_B),
                "above": s_B + 0.5,
                "implicit_step": 1000.0,
                "below": 0.5 * (lams[-2] + s_B)}[name]

    @pytest.mark.parametrize("name", ["just_above", "above",
                                      "implicit_step", "below"])
    def test_solve_matches_dense_solve(self, name):
        g, p, gen = graded_generator()
        lam = self.shift(gen, name)
        mat = lam * np.eye(2 * g.n) - dense_recruitment_free(p)
        B = gen.recruitment_free
        if name == "below":     # every cell block stays invertible
            a, b, c, d = B.cell_blocks()
            assert np.abs((lam - a) * (lam - d) - b * c).min() > 1.0
        rhs = np.random.default_rng(5).random(2 * g.n)
        ref = np.linalg.solve(mat, rhs)
        x = B.factorization(lam).solve(rhs)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_nonnegative_data_stay_nonnegative(self):
        g, _, gen = graded_generator()
        rhs = np.random.default_rng(6).random(2 * g.n)
        rhs[::3] = 0.0
        for name in ("just_above", "above", "implicit_step"):
            x = gen.recruitment_free.factorization(
                self.shift(gen, name)).solve(rhs)
            assert x.min() >= 0 and (x > 0).any()

    def test_demo_steps_stay_nonnegative(self):
        # 200 implicit steps of the README demo from an indicator in
        # phase 1 and nothing in phase 2
        g, gen = demo_generator()
        u1 = (g.centers <= 7.5).astype(float)
        traj = evolve(gen, StateVector(u1, np.zeros(g.n), g), 1e-3, 0.2)
        assert len(traj.records) == 201
        assert traj.records.min() >= 0

    def test_singular_shift_raises_without_warning(self):
        # pure transport at gamma = 1, h = 0.01: every cell block of
        # lambda - M is singular at lambda = -100
        g, p, K, gen = make(n=100, mu=0.0, c1=0.0, c2=0.0, kernel=0.0)
        H = StateVector(np.ones(100), np.ones(100), g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralProximityError):
                gen.recruitment_free.factorization(-100.0).solve(
                    H.stacked())


class TestRecruitmentFree:
    def test_built_once_on_the_shared_cell_arrays(self):
        g, p, K, gen = make(n=40)
        B = gen.recruitment_free
        assert gen.recruitment_free is B
        for name in ("outflow", "inflow", "loss", "coupling"):
            assert getattr(B, name) is getattr(gen, name)
        assert B.kernel.rank_one is not None
        assert not any(v.any() for v in B.kernel.rank_one)

    def test_keeps_its_own_factor(self):
        # a factor of B leaves the full generator's live factor in place
        g, p, K, gen = make(n=40)
        fact = gen.factorization(1.0)
        assert isinstance(gen.recruitment_free.factorization(1.0),
                          _BandedFactor)
        assert gen.factorization(1.0) is fact
        assert isinstance(fact, _RankOneFactor)


def run_child(code: str):
    # run code in a fresh interpreter that imports this package
    src = os.path.dirname(os.path.dirname(twophase.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


class TestBlasLoader:
    def test_loader_first_matches_scipy_linalg_blas(self):
        # a banded step loads the BLAS extension alone, and so does a
        # table's series factor; a later import of scipy.linalg must
        # reuse that module, and a banded step on a fresh generator is
        # bit-identical
        run_child(
            "import sys\n"
            "import numpy as np\n"
            "from twophase.evolution import evolve\n"
            "from twophase.model import build_kernel\n"
            "from twophase.operators import StateVector, _blas, assemble\n"
            "from twophase.scenario import scenario_from_dict\n"
            "scn = scenario_from_dict({'name': 'demo', 'domain': {\n"
            "    'kind': 'truncated_infinite', 'smax': 30.0, 'n': 60},\n"
            "  'coefficients': {'gamma1': 1.0, 'gamma2': 1.0, 'mu': 1.0,\n"
            "    'c1': {'form': 'expression', 'name': 'indicator',\n"
            "           'lo': 0.5, 'hi': 1.0},\n"
            "    'c2': {'form': 'expression', 'name': 'exp_decay'}},\n"
            "  'kernel': {'form': 'indicator', 's_lo': 0.0, 's_hi': 1.0}})\n"
            "g = scn.grid\n"
            "U = StateVector((g.centers <= 7.5) * 1.0, np.zeros(g.n), g)\n"
            "gen = lambda: assemble(scn.params, scn.kernel, g)\n"
            "first = evolve(gen(), U, 1e-3, 1e-3).records[-1]\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "table = build_kernel({'form': 'table',\n"
            "                      'values': scn.kernel.beta}, g)\n"
            "assemble(scn.params, table, g).factorization(1000.0)\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg.blas\n"
            "assert scipy.linalg.blas._fblas is _blas()\n"
            "fresh = gen()\n"
            "again = evolve(fresh, U, 1e-3, 1e-3).records[-1]\n"
            "assert again.tobytes() == first.tobytes()\n"
            "band = fresh.factorization(1000.0, 1000.0)._base._band\n"
            "y = np.random.default_rng(3).random(2 * g.n)\n"
            "a = scipy.linalg.blas.dtbsv(3, band, y, lower=1, diag=1)\n"
            "b = _blas().dtbsv(3, band, y, lower=1, diag=1)\n"
            "assert a.tobytes() == b.tobytes() and (a != y).any()\n")

    def test_loader_imports_no_scipy_package(self):
        # the extension is found from scipy's import spec: neither the
        # scipy package nor any other of its modules is imported
        run_child(
            "import sys\n"
            "from twophase.operators import _blas\n"
            "_blas()\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.split('.')[0] == 'scipy')\n"
            "assert loaded == ['scipy.linalg._fblas'], loaded\n")

    def test_eigensolve_of_table_and_upper_kernels_loads_only_fblas(self):
        # the characteristic route solves K(lambda) on banded factors of
        # lambda - B for kernels that are not rank-1, with no sparse LU
        run_child(
            "import sys\n"
            "import numpy as np\n"
            "from twophase.model import build_grid, build_kernel, "
            "sample_params\n"
            "from twophase.operators import assemble\n"
            "from twophase.spectral import spectral_bound\n"
            "g = build_grid('finite', 1.0, 200)\n"
            "p = sample_params(dict(gamma0=1.0, gamma1=1.0, gamma2=1.0,\n"
            "    mu=1.0, c1=1.0, c2=1.0), g)\n"
            "table = {'form': 'table', 'values': np.add.outer(\n"
            "    g.centers, g.centers).tolist()}\n"
            "for spec in (table, {'form': 'indicator', 'relation': 's<y'}):\n"
            "    gen = assemble(p, build_kernel(spec, g), g)\n"
            "    assert spectral_bound(gen).route == 'characteristic'\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.split('.')[0] == 'scipy')\n"
            "assert loaded == ['scipy.linalg._fblas'], loaded\n")

    def test_scipy_linalg_blas_first_is_reused(self):
        run_child(
            "import scipy.linalg.blas\n"
            "from twophase.operators import _blas\n"
            "assert _blas() is scipy.linalg.blas._fblas\n")


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

    @pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
    def test_exact_norms_match_dense_powers(self, k):
        g = build_grid("finite", 1.0, 200)
        V = VolterraOp(k, g)
        M = V.matrix()
        P = np.eye(200)
        dense = []
        for m in range(1, 31):
            P = P @ M
            dense.append(np.abs(P).sum(axis=0).max() ** (1.0 / m))
        seq = volterra_norm_sequence(V, 30)
        assert np.abs(seq / dense - 1.0).max() <= 1e-13

    def test_apply_is_cumulative_sum(self):
        g = build_grid("finite", 1.0, 10)
        V = VolterraOp(2.0, g)
        h = np.arange(10.0)
        assert np.allclose(V.apply(h), 2.0 * g.h * np.cumsum(h))
