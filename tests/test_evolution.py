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
        assert len(traj.states) == 1
        assert np.array_equal(traj.states[0].u1, left_bump(g).u1)

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

    def test_masses_match_states(self):
        g, p, K, gen = make(n=40)
        traj = evolve(gen, left_bump(g), 1e-2, 0.5, record_every=10)
        for S, m in zip(traj.states, traj.masses):
            assert S.mass == pytest.approx(m)

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
            finals.append(traj.states[-1])
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
        assert len(traj.states) == len(states)
        for S, R in zip(traj.states, states):
            assert np.array_equal(S.stacked(), R.stacked())
        assert np.array_equal(traj.masses, [R.mass for R in states])
        assert np.array_equal(traj.step_phase_masses, sums * g.h)
        assert np.array_equal(traj.step_masses,
                              (sums[:, 0] + sums[:, 1]) * g.h)

    @pytest.mark.parametrize("T, fetches", [(0.5, 1), (0.0, 0)])
    @pytest.mark.parametrize("kernel", sorted(STEP_KERNELS))
    def test_one_factor_per_run(self, kernel, T, fetches, monkeypatch,
                                splu_calls):
        # every step of a run shares one factor fetch and one build; a run
        # of no steps fetches none
        calls, builds = [], []
        real_fact = DiscreteGenerator.factorization
        real_banded = twophase.operators._BandedFactor

        def fetching(self, *args, **kwargs):
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
        banded = kernel in ("rank1", "zero")
        assert len(builds) == fetches * banded
        assert len(splu_calls) == fetches * (not banded)

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
        for S in traj.states[1:]:
            x = ref.solve(x)
            assert S.stacked().tobytes() == x.tobytes()
        assert len(traj.states) == 51

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
