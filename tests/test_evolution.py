import dataclasses
import math

import numpy as np
import pytest

import twophase.operators
from twophase.errors import (ConfigurationError, InsufficientDataError,
                             PreconditionError, StepSizeError)
from twophase.evolution import (evolve, ideal_invariance_probe, mass_balance,
                                step_implicit)
from twophase.model import build_grid, build_kernel, sample_params
from twophase.operators import DiscreteGenerator, StateVector, assemble
from twophase.spectral import spectral_bound


def make(n=100, m=1.0, kind="finite", kernel=1.0, **over):
    g = build_grid(kind, m, n)
    spec = dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=1.0, c2=1.0, gamma0=1.0)
    spec.update(over)
    p = sample_params(spec, g)
    K = build_kernel(kernel, g)
    return g, p, K, assemble(p, K, g)


def left_bump(g, width=0.25):
    u1 = (g.centers <= width * g.length).astype(float)
    U = StateVector(u1, np.zeros(g.n), g)
    m = U.mass
    U.u1 /= m
    return U


class TestStepImplicit:
    def test_pure_transport_mass_before_outflow(self):
        g, p, K, gen = make(kernel=0.0, mu=0.0, c1=0.0, c2=0.0)
        U = StateVector((g.centers <= 0.5).astype(float), np.zeros(g.n), g)
        m0 = U.mass
        # support needs ~0.5 time units to reach the boundary
        for _ in range(10):
            U = step_implicit(gen, U, 1e-3)
        assert abs(U.mass - m0) <= 1e-12
        for _ in range(1000):
            U = step_implicit(gen, U, 1e-3)
        assert U.mass < m0  # outflow has begun

    def test_positivity_100_random_steps(self):
        g, p, K, gen = make(n=60)
        rng = np.random.default_rng(3)
        U = StateVector(rng.random(60), rng.random(60), g)
        for _ in range(100):
            U = step_implicit(gen, U, 0.01)
            assert min(U.u1.min(), U.u2.min()) >= -1e-12

    def test_outflow_accounting(self):
        g, p, K, gen = make(kernel=0.0, mu=0.0, c1=0.0, c2=0.0)
        U = StateVector(np.ones(g.n), np.zeros(g.n), g)
        dt = 1e-3
        V = step_implicit(gen, U, dt)
        lost = U.mass - V.mass
        flux = p.gamma1_edges[-1] * V.u1[-1] * dt
        assert abs(lost - flux) <= 1e-10

    @pytest.mark.parametrize("kernel", [1.0, {"form": "table",
                                              "values": [[1.0] * 20] * 20}])
    def test_non_finite_state_raises_step_size_error(self, kernel):
        # on the banded (rank-1) and the sparse LU (table) route alike
        g, p, K, gen = make(n=20, kernel=kernel)
        U = StateVector(np.ones(20), np.zeros(20), g)
        U.u2[5] = np.inf
        with pytest.raises(StepSizeError, match="non-finite"):
            step_implicit(gen, U, 1e-2)


class TestEvolve:
    def test_T_zero_single_state(self):
        g, p, K, gen = make(n=20)
        traj = evolve(gen, left_bump(g), 1e-2, 0.0)
        assert len(traj.records) == 1
        assert np.array_equal(traj.records[0][:g.n], left_bump(g).u1)

    def test_quasi_contraction_without_recruitment(self):
        g, p, K, gen = make(n=60, kernel=0.0)
        traj = evolve(gen, left_bump(g), 1e-2, 1.0)
        assert np.all(np.diff(traj.step_masses) <= 1e-12)

    def test_conservative_truncated_domain(self):
        # net birth rate equals mortality for every parent size and the
        # solution decays before reaching the truncation edge, so total
        # mass is conserved to solver roundoff
        g, p, K, gen = make(n=300, m=30.0, kind="truncated_infinite",
                            kernel={"form": "indicator", "s_lo": 0.0,
                                    "s_hi": 1.0})
        traj = evolve(gen, left_bump(g, width=1 / 120), 1e-3, 2.0,
                      record_every=100)
        drift = np.abs(traj.step_masses - traj.step_masses[0]).max()
        assert drift <= 1e-6 * 2.0

    def test_sub_conservative_mass_nonincreasing(self):
        g, p, K, gen = make(n=300, m=30.0, kind="truncated_infinite",
                            mu=1.5,
                            kernel={"form": "indicator", "s_lo": 0.0,
                                    "s_hi": 1.0})
        traj = evolve(gen, left_bump(g, width=1 / 120), 1e-3, 2.0)
        assert np.all(np.diff(traj.step_masses) <= 1e-10)

    @pytest.mark.parametrize("dt, route", [(1e-2, "steps"),
                                           (5e-4, "randomized")])
    def test_record_masses_match_the_step_series(self, dt, route):
        # each record is the state of its step, on either route
        g, p, K, gen = make(n=100)
        traj = evolve(gen, left_bump(g), dt, 0.5, record_every=7)
        assert traj.route == route
        step = traj.step_masses[np.rint(traj.times / dt).astype(int)]
        masses = [StateVector.from_stacked(x, g).mass for x in traj.records]
        assert np.all(np.abs(masses - step) <= 1e-12 * step)

    def test_first_order_consistency_in_dt(self):
        # the discrete mass identity is exact per step, so order-1
        # consistency is measured on the states: successive dt-halvings
        # halve the final-state difference
        g, p, K, gen = make(n=200, m=30.0, kind="truncated_infinite",
                            mu=0.5,
                            kernel={"form": "indicator", "s_lo": 0.0,
                                    "s_hi": 1.0})
        finals = []
        for dt in (4e-3, 2e-3, 1e-3):
            traj = evolve(gen, left_bump(g, width=1 / 120), dt, 1.0,
                          record_every=10 ** 9)
            finals.append(StateVector.from_stacked(traj.records[-1], g))
        e1 = (np.abs(finals[0].u1 - finals[1].u1).sum()
              + np.abs(finals[0].u2 - finals[1].u2).sum()) * g.h
        e2 = (np.abs(finals[1].u1 - finals[2].u1).sum()
              + np.abs(finals[1].u2 - finals[2].u2).sum()) * g.h
        assert 0.35 <= e2 / e1 <= 0.65


# one kernel per factor route: rank-1 (banded + Sherman-Morrison), zero
# (banded), a dense table and a triangle (sparse LU)
STEP_KERNELS = {
    "rank1": 1.0,
    "zero": 0.0,
    "table": {"form": "table", "values": [[1.0] * 40] * 40},
    "s>y": {"form": "indicator", "relation": "s>y"},
}

# the last: T/dt overflows to inf
BAD_STEPS = [(-0.01, 1.0), (0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
             (0.01, math.nan), (0.01, math.inf), (0.01, -1.0), (1e-320, 1.0)]


class TestStepSize:
    @pytest.mark.parametrize("kernel", [
        5.0, {"form": "indicator", "relation": "s<y", "value": 20.0}])
    def test_step_past_one_over_s_A_raises(self, kernel):
        # (I - dt M)^{-1} >= 0 only for dt s_A < 1: at dt = 2/s_A the loop
        # gave records with negative entries, on the rank-1 factor and
        # the sparse LU alike
        g, p, K, gen = make(n=50, kernel=kernel)
        s = spectral_bound(gen).s
        U0 = StateVector(np.zeros(g.n), np.ones(g.n), g)
        for dt in (2 / s, 1.01 / s):
            with pytest.raises(StepSizeError, match=r"dt\*s_A < 1"):
                evolve(gen, U0, dt, 40 / s, record_every=1)
            with pytest.raises(StepSizeError, match=r"dt\*s_A < 1"):
                step_implicit(gen, U0, dt)
            with pytest.raises(StepSizeError, match=r"dt\*s_A < 1"):
                ideal_invariance_probe(gen, ("phase2_only", 0.0), U0,
                                       40 / s, dt)
        traj = evolve(gen, U0, 0.99 / s, 40 / s, record_every=1)
        assert traj.route == "steps" and traj.records.min() >= 0


class TestEvolveLoop:
    @pytest.mark.parametrize("record_every", [10, 7])
    @pytest.mark.parametrize("kernel", sorted(STEP_KERNELS))
    def test_matches_step_implicit_loop(self, kernel, record_every):
        # 50 steps: a stride of 10 divides the count, 7 does not
        g, p, K, gen = make(n=40, kernel=STEP_KERNELS[kernel])
        U0 = left_bump(g)
        traj = evolve(gen, U0, 1e-2, 0.5, record_every=record_every)
        ones = np.ones(g.n)
        U, states, sums = U0, [U0], [(np.dot(U0.u1, ones),
                                      np.dot(U0.u2, ones))]
        for k in range(1, 51):
            U = step_implicit(gen, U, 1e-2)
            sums.append((np.dot(U.u1, ones), np.dot(U.u2, ones)))
            if k % record_every == 0 or k == 50:
                states.append(U)
        sums = np.array(sums)
        assert len(traj.records) == len(states)
        for S, R in zip(traj.records, states):
            assert np.array_equal(S, R.stacked())
        assert np.array_equal(traj.step_phase_masses, sums * g.h)
        assert np.array_equal(traj.step_masses,
                              (sums[:, 0] + sums[:, 1]) * g.h)

    @pytest.mark.parametrize("T, fetches", [(0.5, 1), (0.0, 0)])
    @pytest.mark.parametrize("kernel", sorted(STEP_KERNELS))
    def test_one_factor_per_run(self, kernel, T, fetches, monkeypatch):
        # every step of a run shares one factor fetch and one banded
        # build, the series factor's on B's own memo; a run of no steps
        # fetches none
        calls, builds = [], []
        real_fact = DiscreteGenerator.factorization
        real_banded = twophase.operators._BandedFactor

        def fetching(self, *args, **kwargs):
            if self.kernel is K:
                calls.append(args)
            return real_fact(self, *args, **kwargs)

        class Counting(real_banded):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)
        monkeypatch.setattr(DiscreteGenerator, "factorization", fetching)
        monkeypatch.setattr(twophase.operators, "_BandedFactor", Counting)
        g, p, K, gen = make(n=40, kernel=STEP_KERNELS[kernel])
        traj = evolve(gen, left_bump(g), 1e-2, T)
        assert len(traj.step_times) == 50 * fetches + 1
        assert calls == [(100.0,)] * fetches
        assert len(builds) == fetches

    def test_kernel_free_run_skips_the_rank_one_correction(self, monkeypatch):
        # a zero offspring factor f takes the banded factor alone: no
        # rank-1 factor is built, and every state equals, bit for bit,
        # the steps of the banded factor with the Sherman-Morrison
        # correction, whose w = (lambda - B)^{-1} (h f, 0) is zero
        built = []
        real = twophase.operators._RankOneFactor

        class Counting(real):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)
        monkeypatch.setattr(twophase.operators, "_RankOneFactor", Counting)
        g, p, K, gen = make(n=800, kernel=0.0)
        dt, U = 1e-3, left_bump(g)
        traj = evolve(gen, U, dt, 0.05)
        assert built == []
        lam = 1.0 / dt
        f, parent = K.rank_one
        ref = real(twophase.operators._BandedFactor(
            lam, gen.recruitment_free.cell_blocks(), gen.inflow, lam),
            g.h / lam * f, parent, lam)
        x = U.stacked()
        for S in traj.records[1:]:
            x = ref.solve(x)
            assert S.tobytes() == x.tobytes()
        assert len(traj.records) == 51

    @pytest.mark.parametrize("dt, T", BAD_STEPS)
    def test_evolve_rejects_bad_step_or_horizon(self, dt, T):
        g, p, K, gen = make(n=20)
        with pytest.raises(ConfigurationError):
            evolve(gen, left_bump(g), dt, T)

    @pytest.mark.parametrize("dt, T", BAD_STEPS)
    def test_ideal_probe_rejects_bad_step_or_horizon(self, dt, T):
        g, p, K, gen = make(n=20)
        U0 = StateVector(np.zeros(g.n), np.zeros(g.n), g)
        with pytest.raises(ConfigurationError):
            ideal_invariance_probe(gen, ("both_min_size", 0.5), U0, T, dt)


# every kernel form: rank-1 factors, factors masked to a triangle, a
# dense table, a callable, and zero
ROUTE_KERNELS = {
    "constant": 1.0,
    "zero": 0.0,
    "product": {"form": "product",
                "offspring": {"form": "expression", "name": "exp_decay"},
                "parent": 2.0},
    "box": {"form": "indicator", "s_lo": 0.2, "s_hi": 0.6, "y_lo": 0.5},
    "s>y": {"form": "indicator", "relation": "s>y"},
    "s<y": {"form": "indicator", "relation": "s<y", "value": 3.0},
    "table": {"form": "table",
              "values": np.add.outer(np.linspace(0, 1, 100),
                                     np.linspace(1, 2, 100)).tolist()},
    "callable": lambda s, y: np.exp(-s) * y,
}


def step_loop(gen, U0, dt, nsteps, record_every):
    """The stacked records and per-step phase sums of nsteps calls of
    step_implicit."""
    ones = np.ones(U0.grid.n)
    U, states, sums = U0, [U0.stacked()], [(U0.u1 @ ones, U0.u2 @ ones)]
    for k in range(1, nsteps + 1):
        U = step_implicit(gen, U, dt)
        sums.append((U.u1 @ ones, U.u2 @ ones))
        if k % record_every == 0 or k == nsteps:
            states.append(U.stacked())
    return np.array(states), np.array(sums)


def assert_randomized_matches_loop(gen, U0, dt, nsteps, record_every):
    """evolve takes the randomized route, and its records (L1 per record)
    and per-step phase masses are within 1e-12 relative of the loop's,
    every entry >= 0."""
    traj = evolve(gen, U0, dt, nsteps * dt, record_every=record_every)
    assert traj.route == "randomized"
    assert 0 < traj.terms <= nsteps
    assert 0 <= traj.tail_bound <= 2.0 ** -50
    states, sums = step_loop(gen, U0, dt, nsteps, record_every)
    got = traj.records
    assert got.shape == states.shape and got.min() >= 0
    assert np.all(np.abs(got - states).sum(axis=1)
                  <= 1e-12 * np.abs(states).sum(axis=1))
    h = U0.grid.h
    assert np.all(np.abs(traj.step_phase_masses - sums * h) <= 1e-12 * sums * h)
    assert np.array_equal(traj.times, np.concatenate(
        [[0.0], np.arange(record_every, nsteps + record_every,
                          record_every).clip(max=nsteps) * dt]))
    return traj


class TestRandomizedRoute:
    @pytest.mark.parametrize("kernel", sorted(ROUTE_KERNELS))
    def test_kernel_forms_match_the_step_loop(self, kernel, operations):
        # 1000 steps at q dt = 0.05 take about 130 products and no solve
        # (the solves are the reference loop's)
        g, p, K, gen = make(n=100, kernel=ROUTE_KERNELS[kernel])
        traj = assert_randomized_matches_loop(gen, left_bump(g), 5e-4,
                                              1000, 7)
        assert operations == {"products": traj.terms, "solves": 1000}

    def test_long_horizon(self):
        # qT = 1004: (1 - theta)^k underflows after k = 6320, so the
        # weights must come from their ratio recurrence
        g, p, K, gen = make(n=500)
        traj = assert_randomized_matches_loop(gen, left_bump(g), 2.5e-4,
                                              8000, 100)
        assert traj.terms > 1000

    def test_growing_run(self):
        g, p, K, gen = make(n=100, kernel=5.0)
        traj = assert_randomized_matches_loop(gen, left_bump(g), 1e-3,
                                              2000, 50)
        assert traj.step_masses[-1] > 10 * traj.step_masses[0]

    def test_decaying_triangle_kernel_builds_no_factor(self, operations):
        # the mass leaves the domain (1e-26 of it is left at T = 2), so
        # the norms of P^j x fall by orders of magnitude across each
        # step's weights, all of which from j = 0 are kept; no solve
        g, p, K, gen = make(n=200, kernel={"form": "indicator",
                                           "relation": "s>y"})
        traj = evolve(gen, left_bump(g), 1e-3, 2.0, record_every=100)
        assert traj.route == "randomized" and operations["solves"] == 0
        assert traj.step_masses[-1] < 1e-20
        assert_randomized_matches_loop(gen, left_bump(g), 1e-3, 2000, 100)

    def test_one_step_short_of_the_rule_is_bit_identical(self):
        # the route turns on at a step count where it is estimated to be
        # cheaper than the loop; one step fewer runs the loop, bit for bit
        g, p, K, gen = make(n=40, kernel=3.0)
        U0 = left_bump(g)

        def route(k):
            return evolve(gen, U0, 1e-3, k * 1e-3, record_every=7).route
        lo, hi = 20, 1000
        assert (route(lo), route(hi)) == ("steps", "randomized")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if route(mid) == "steps" else (lo, mid)
        traj = evolve(gen, U0, 1e-3, lo * 1e-3, record_every=7)
        assert (traj.terms, traj.tail_bound) == (None, None)
        states, sums = step_loop(gen, U0, 1e-3, lo, 7)
        assert np.array_equal(traj.records, states)
        assert np.array_equal(traj.step_phase_masses, sums * g.h)
        assert_randomized_matches_loop(gen, U0, 1e-3, hi, 7)

    @pytest.mark.parametrize("case", ["negative", "terms", "cost", "memory"])
    def test_a_run_sent_to_the_loop_takes_no_product(self, case, operations):
        # every reason to run the loop is found before the first product,
        # so such a run does its steps' solves and nothing more
        g, p, K, gen = make(n=100, kernel=3.0)
        U0 = left_bump(g)
        dt, T, every = {"negative": (5e-4, 0.5, 10),
                        "terms": (1e-2, 0.5, 10),     # q dt = 1: J > steps
                        "cost": (2e-3, 1.0, 10),      # q dt = 0.2 at n = 100
                        "memory": (2e-3, 6.0, 1)}[case]
        if case == "negative":
            U0.u2[50] = -1e-300
        traj = evolve(gen, U0, dt, T, record_every=every)
        nsteps = len(traj.step_times) - 1
        assert traj.route == "steps"
        assert operations == {"products": 0, "solves": nsteps}

    def test_dense_records_of_a_wide_window_keep_the_loop(self):
        # the weights of 3000 records of about 700 terms each are held at
        # once: past 2^19 of them the loop runs
        g, p, K, gen = make(n=100, kernel=3.0)
        U0 = left_bump(g)
        assert evolve(gen, U0, 2e-3, 6.0, record_every=1).route == "steps"
        assert evolve(gen, U0, 2e-3, 6.0,
                      record_every=100).route == "randomized"

    def test_rule_needs_nonnegative_finite_data(self):
        g, p, K, gen = make(n=100)
        U0 = left_bump(g)
        assert evolve(gen, U0, 5e-4, 0.5).route == "randomized"
        for bad in (-1e-300, np.inf):
            U = U0.copy()
            U.u2[50] = bad
            if bad < 0:
                assert evolve(gen, U, 5e-4, 0.5).route == "steps"
            else:
                with pytest.raises(StepSizeError, match="non-finite"):
                    evolve(gen, U, 5e-4, 0.5)


class TestApply:
    @pytest.mark.parametrize("kernel", sorted(ROUTE_KERNELS))
    def test_matches_the_sparse_generator(self, kernel):
        g, p, K, gen = make(n=100, kernel=ROUTE_KERNELS[kernel],
                            gamma1={"form": "expression", "name": "linear",
                                    "intercept": 1.0},
                            c1={"form": "expression", "name": "indicator",
                                "lo": 0.3, "hi": 0.8})
        x = np.random.default_rng(5).random(2 * g.n)
        ref = gen.full @ x
        assert np.abs(gen.apply(x) - ref).max() <= 1e-13 * np.abs(ref).max()
        # with a diagonal >= 0 every part is >= 0
        d = np.zeros(2 * g.n)
        y = gen.apply(x, d)
        assert y.min() >= 0
        assert np.allclose(y, ref + (gen.outflow + gen.loss).ravel() * x,
                           rtol=1e-13, atol=0)


class TestMassBalance:
    def test_closed_system_zero_drift(self):
        g, p, K, gen = make(kernel=0.0, mu=0.0, c1=0.0, c2=0.0)
        U = left_bump(g)
        traj = evolve(gen, U, 1e-3, 0.2, record_every=10)
        rep = mass_balance(traj, K, p)
        assert rep.max_abs_drift <= 1e-10

    def test_conservative_drift_bounded_by_dt(self):
        dt = 1e-3
        g, p, K, gen = make(n=300, m=30.0, kind="truncated_infinite",
                            kernel={"form": "indicator", "s_lo": 0.0,
                                    "s_hi": 1.0})
        traj = evolve(gen, left_bump(g, width=1 / 120), dt, 1.0,
                      record_every=10)
        rep = mass_balance(traj, K, p)
        assert rep.max_abs_drift <= 5 * dt

    def test_pure_mortality_decay_rate(self):
        g, p, K, gen = make(n=200, m=30.0, kind="truncated_infinite",
                            kernel=0.0, c1=0.0, c2=0.0)
        traj = evolve(gen, left_bump(g, width=1 / 120), 1e-3, 1.0)
        rate = (np.log(traj.step_masses[-1]) - np.log(traj.step_masses[0])) \
            / traj.step_times[-1]
        assert rate == pytest.approx(-1.0, rel=0.02)

    @pytest.mark.parametrize("times", [[0.0, 0.3, 0.6, 0.9, 1.3],
                                       [0.0, 0.3, 0.4, 0.7, 1.0]])
    def test_non_uniform_stride_rejected(self, times):
        # only the last stride may differ, and only by being shorter
        g, p, K, gen = make(n=20)
        traj = evolve(gen, left_bump(g), 1e-2, 1.0, record_every=30)
        assert np.allclose(np.diff(traj.times), [0.3, 0.3, 0.3, 0.1])
        mass_balance(traj, K, p)
        with pytest.raises(ConfigurationError):
            mass_balance(dataclasses.replace(traj, times=np.array(times)),
                         K, p)

    def test_insufficient_records(self):
        g, p, K, gen = make(n=20)
        traj = evolve(gen, left_bump(g), 1e-2, 0.0)
        with pytest.raises(InsufficientDataError):
            mass_balance(traj, K, p)


class TestIdealInvariance:
    def test_kernel_block_keeps_upper_ideal(self):
        g, p, K, gen = make(n=100, kernel={"form": "indicator",
                                           "relation": "s>y"})
        u = (g.centers >= 0.5).astype(float)
        U0 = StateVector(u.copy(), u.copy(), g)
        leak = ideal_invariance_probe(gen, ("both_min_size", 0.5), U0,
                                      1.0, 1e-2)
        assert leak <= 1e-10

    def test_localized_c1_keeps_phase2_ideal(self):
        g, p, K, gen = make(n=100, c1={"form": "expression",
                                       "name": "indicator",
                                       "lo": 0.5, "hi": 1.0})
        U0 = StateVector(np.ones(g.n),
                         (g.centers >= 0.5).astype(float), g)
        leak = ideal_invariance_probe(gen, ("phase2_min_size", 0.5), U0,
                                      1.0, 1e-2)
        assert leak <= 1e-10

    def test_localized_c2_keeps_phase2_only_ideal(self):
        g, p, K, gen = make(n=100, c2={"form": "expression",
                                       "name": "indicator",
                                       "lo": 0.0, "hi": 0.5})
        U0 = StateVector(np.zeros(g.n),
                         (g.centers > 0.5).astype(float), g)
        leak = ideal_invariance_probe(gen, ("phase2_only", 0.5), U0,
                                      1.0, 1e-2)
        assert leak <= 1e-10

    def test_initial_state_outside_ideal_rejected(self):
        g, p, K, gen = make(n=50)
        U0 = StateVector(np.ones(g.n), np.zeros(g.n), g)
        with pytest.raises(PreconditionError):
            ideal_invariance_probe(gen, ("both_min_size", 0.5), U0, 1.0, 1e-2)
