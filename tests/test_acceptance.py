"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (bypassing
pytest capture so the line always reaches the console) and then asserts
the same condition, so the printed verdicts match the pytest outcome.
"""

import math

import numpy as np
import pytest

from twophase.criteria import compute_b1_b2, full_verdict
from twophase.evolution import evolve
from twophase.model import (build_grid, build_kernel, sample_coefficient,
                            sample_params)
from twophase.operators import StateVector, assemble
from twophase.spectral import (closed_form_sB, detect_AEG, sB_probe_infinite,
                               spectral_bound, spectral_gap_lower_bound)

from oracles import (VolterraOp, closed_form_poly, ideal_invariance_probe,
                     resolvent_transport_analytic, volterra_norm_sequence)


def verdict_line(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def make(n, m=1.0, kind="finite", kernel=1.0, **over):
    g = build_grid(kind, m, n)
    spec = dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=1.0, c2=1.0, gamma0=1.0)
    spec.update(over)
    p = sample_params(spec, g)
    K = build_kernel(kernel, g)
    return g, p, K, assemble(p, K, g)


def test_criterion_01_resolvent_oracle_equivalence(capsys):
    hfuns = {
        "const": lambda s: np.ones_like(s),
        "linear": lambda s: s,
        "indicator": lambda s: ((s >= 0.3) & (s <= 0.7)).astype(float),
    }
    ok = True
    worst = 0.0
    for lam in (0.0, 1.0, 10.0):
        for hname, hfun in hfuns.items():
            errs = []
            for n in (400, 800):
                g = build_grid("finite", 1.0, n)
                p = sample_params(dict(gamma1=1.0, gamma2=1.0, mu=0.0,
                                       c1=0.0, c2=0.0, gamma0=1.0), g)
                gen = assemble(p, build_kernel(0.0, g), g)
                h = hfun(g.centers)
                u1 = gen.factorization(lam).solve(
                    np.concatenate([h, np.zeros(n)]))[:n]
                ua = resolvent_transport_analytic(
                    lam, h, sample_coefficient(1.0, g), g)
                errs.append(float(np.abs(u1 - ua).sum() * g.h))
            h400 = 1.0 / 400
            worst = max(worst, errs[0] / (0.5 * h400))
            # tiny additive slack: the bound is attained exactly at lam=0;
            # the halving ratio carries an O(h) remainder, so allow 2%
            ok &= errs[0] <= 0.5 * h400 + 1e-12
            ok &= errs[1] <= 0.51 * errs[0] + 1e-13
    verdict_line(capsys, 1, ok,
                 f"direct-vs-analytic L1 error <= 0.5h at n=400 and halves "
                 f"at n=800 (worst error/bound ratio {worst:.3f})")


def test_criterion_02_closed_form_recruitment_free_bound(capsys):
    v1 = closed_form_sB(0.0, 2.0, 1.0)
    v2 = closed_form_sB(0.0, 3.0, 0.0)
    v3 = closed_form_sB(2.0, 1.0, 0.0)
    v4 = closed_form_sB(1.0, 1.0, 1.0)
    ok = (abs(v1 - (-1.0)) <= 1e-14
          and v2 == 0.0 and v3 == 0.0
          and abs(v4 - (-3 + math.sqrt(5)) / 2) <= 1e-14
          and abs(closed_form_poly(v4, 1.0, 1.0, 1.0)) <= 1e-12)
    verdict_line(capsys, 2, ok,
                 f"closed forms: (0,2,1)->{v1:.6g}, mu=0 -> 0, "
                 f"(1,1,1)->{v4:.12g} with |P| <= 1e-12")


def test_criterion_03_spectral_gap_lower_bound(capsys):
    eps_bar, Delta, lam_star = spectral_gap_lower_bound(1.0, 1.0, 1.0, 1.0)
    golden = (-3 + math.sqrt(5)) / 2
    g, p, K, gen = make(n=1000, m=50.0, kind="truncated_infinite",
                        kernel={"form": "indicator", "s_lo": 0.0,
                                "s_hi": 1.0})
    s_A, _ = spectral_bound(gen)
    ok = (abs(lam_star - golden) <= 1e-12
          and abs(eps_bar - (3 - math.sqrt(5)) / 2) <= 1e-12
          and abs(Delta - 4.0) <= 1e-12
          and s_A >= lam_star + eps_bar - 0.05)
    verdict_line(capsys, 3, ok,
                 f"lambda*={lam_star:.6g}, eps_bar={eps_bar:.6g}, "
                 f"Delta={Delta:.3g}, measured s_A={s_A:.3e} >= -0.05")


def left_bump(g, width):
    u1 = (g.centers <= width).astype(float)
    U = StateVector(u1, np.zeros(g.n), g)
    m = U.mass
    U.u1 /= m
    return U


def test_criterion_04_mass_laws_and_no_gap_rate(capsys):
    dt, T = 1e-3, 2.0
    box = {"form": "indicator", "s_lo": 0.0, "s_hi": 1.0}
    # neutral: birth integral equals mortality for every parent size
    g, p, K, gen = make(n=600, m=30.0, kind="truncated_infinite", kernel=box)
    traj = evolve(gen, left_bump(g, 0.25), dt, T, record_every=100)
    drift = float(np.abs(traj.step_masses - traj.step_masses[0]).max())
    neutral_ok = drift <= 1e-6 * T

    # sub-conservative: mortality exceeds the birth integral
    g, p, K, gen = make(n=600, m=30.0, kind="truncated_infinite", kernel=box,
                        mu=1.5)
    traj = evolve(gen, left_bump(g, 0.25), dt, T, record_every=100)
    sub_ok = bool(np.all(np.diff(traj.step_masses) <= 1e-10))

    # conservative with vanishing return rate: growth rate must vanish
    g, p, K, gen = make(n=600, m=30.0, kind="truncated_infinite", kernel=box,
                        c2={"form": "expression", "name": "exp_decay"})
    v = full_verdict(K, p)
    traj = evolve(gen, left_bump(g, 0.25), dt, 8.0, record_every=100)
    fit = detect_AEG(traj)
    nogap_ok = (v.predicted == "no_gap" and not fit.extinct
                and -0.02 <= fit.lambda0_fit <= 0.005)
    ok = neutral_ok and sub_ok and nogap_ok
    verdict_line(capsys, 4, ok,
                 f"neutral drift {drift:.2e} <= {1e-6 * T:.0e}, "
                 f"sub-conservative mass nonincreasing: {sub_ok}, "
                 f"vanishing-rate fit {fit.lambda0_fit:.2e} in [-0.02,0.005]")


def test_criterion_05_irreducibility_iff_matrix(capsys):
    import itertools
    n = 200
    g = build_grid("finite", 1.0, n)
    kernels = {True: 1.0, False: {"form": "indicator", "relation": "s>y"}}
    c1s = {True: 1.0,
           False: {"form": "expression", "name": "indicator",
                   "lo": 0.5, "hi": 1.0}}
    c2s = {True: 1.0,
           False: {"form": "expression", "name": "indicator",
                   "lo": 0.0, "hi": 0.5}}
    iff_ok = True
    for h1, h2, h3 in itertools.product([True, False], repeat=3):
        K = build_kernel(kernels[h1], g)
        p = sample_params(dict(gamma1=1.0, gamma2=1.0, mu=1.0,
                               c1=c1s[h2], c2=c2s[h3], gamma0=1.0), g)
        v = full_verdict(K, p)
        iff_ok &= v.irreducible == (h1 and h2 and h3)

    # the three counterexample invariant subspaces, one per broken condition
    leaks = []
    _, _, _, gen = make(n=n, kernel=kernels[False])
    up = (g.centers >= 0.5).astype(float)
    leaks.append(ideal_invariance_probe(
        gen, ("both_min_size", 0.5),
        StateVector(up.copy(), up.copy(), g), 1.0, 1e-2))
    _, _, _, gen = make(n=n, c1=c1s[False])
    leaks.append(ideal_invariance_probe(
        gen, ("phase2_min_size", 0.5),
        StateVector(np.ones(n), up.copy(), g), 1.0, 1e-2))
    _, _, _, gen = make(n=n, c2=c2s[False])
    leaks.append(ideal_invariance_probe(
        gen, ("phase2_only", 0.5),
        StateVector(np.zeros(n), up.copy(), g), 1.0, 1e-2))
    leak = max(leaks)
    ok = iff_ok and leak <= 1e-10
    verdict_line(capsys, 5, ok,
                 f"irreducible == (all three conditions) in 8/8 configs, "
                 f"max counterexample-subspace leakage {leak:.2e} <= 1e-10")


def test_criterion_06_empty_spectrum_dichotomy(capsys):
    # growth-only kernel: the continuum spectrum is empty, so the
    # discrete bound must sink past -0.5*gamma0/h at every refinement
    div_ok = True
    msgs = []
    for n in (200, 400, 800):
        g, p, K, gen = make(n=n, kernel={"form": "indicator",
                                         "relation": "s>y"})
        s, _ = spectral_bound(gen, tol=1e-3)
        div_ok &= s < -0.5 * p.gamma0 / g.h
        msgs.append(f"{s:.1f}<{-0.5 * p.gamma0 / g.h:.0f}")
    # mixing kernel: finite limit, successive differences < 1e-2
    vals = []
    for n in (200, 400, 800):
        g, p, K, gen = make(n=n, m=2.0)
        s, _ = spectral_bound(gen)
        vals.append(s)
    diffs = np.abs(np.diff(vals))
    conv_ok = bool(np.all(diffs < 1e-2))
    ok = div_ok and conv_ok
    verdict_line(capsys, 6, ok,
                 f"divergent branch {', '.join(msgs)}; convergent branch "
                 f"diffs {diffs[0]:.1e}, {diffs[1]:.1e} < 1e-2")


def test_criterion_07_aeg_two_route_consistency(capsys):
    n = 800
    g, p, K, gen = make(n=n)
    s_A, eig = spectral_bound(gen)
    U0 = left_bump(g, 0.25)
    traj = evolve(gen, U0, 1e-3, 15.0, record_every=100)
    fit = detect_AEG(traj, eig_candidate=eig)
    rel = abs(fit.lambda0_fit - s_A) / max(1e-30, abs(s_A))
    ok = (rel <= 1e-3 and fit.residual <= 1e-4
          and fit.profile_decay_rate is not None
          and fit.profile_decay_rate < 0)
    verdict_line(capsys, 7, ok,
                 f"|lambda0_fit - s_A| rel {rel:.2e} <= 1e-3, final profile "
                 f"distance {fit.residual:.2e} <= 1e-4, profile decay rate "
                 f"{fit.profile_decay_rate:.3g} < 0")


def test_criterion_08_reducible_subspace_growth(capsys):
    n = 200
    g, p, K, gen = make(
        n=n,
        kernel={"form": "indicator", "s_lo": 0.2},
        c1={"form": "expression", "name": "indicator", "lo": 0.5, "hi": 1.0})
    b1, b2, reason = compute_b1_b2(K, p)
    tol = g.h * (1 + 1e-9)   # |b1 - 0.2| lands exactly on h
    b_ok = (reason is None and abs(b1 - 0.2) <= tol and abs(b2 - 0.5) <= tol)

    u1 = (g.centers >= 0.2).astype(float)
    u2 = (g.centers >= 0.5).astype(float)
    U0 = StateVector(u1, u2, g)
    m0 = U0.mass
    U0.u1 /= m0
    U0.u2 /= m0
    leak = ideal_invariance_probe(gen, ("product_min_sizes", (0.2, 0.5)),
                                  U0.copy(), 1.0, 1e-2)

    traj = evolve(gen, U0, 1e-3, 8.0, record_every=100)
    fit = detect_AEG(traj)
    ok = (b_ok and leak <= 1e-10 and not fit.extinct
          and fit.profile_decay_rate is not None
          and fit.profile_decay_rate < 0)
    verdict_line(capsys, 8, ok,
                 f"(b1,b2)=({b1:.3f},{b2:.3f}) within h of (0.2,0.5), "
                 f"subspace leakage {leak:.2e} <= 1e-10, fit rate "
                 f"{fit.lambda0_fit:.3g} with profile decay "
                 f"{fit.profile_decay_rate:.3g} < 0")


def test_criterion_09_infinite_domain_probe(capsys):
    g = build_grid("truncated_infinite", 100.0, 1000)
    p = sample_params(dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=0.0, c2=1.0,
                           gamma0=1.0), g)
    gen = assemble(p, build_kernel(0.0, g), g)
    smax_list = [25.0, 50.0, 100.0]
    r1 = sB_probe_infinite(gen, -0.5, smax_list)
    r2 = sB_probe_infinite(gen, -1.5, smax_list)
    r3 = sB_probe_infinite(gen, 0.5, smax_list)
    ok = (r1.classification == "resolvent-bounded"
          and r2.classification == "diverging"
          and r3.classification == "resolvent-bounded")
    verdict_line(capsys, 9, ok,
                 f"lambda=-0.5 -> {r1.classification}, "
                 f"-1.5 -> {r2.classification}, +0.5 -> {r3.classification}")


def test_criterion_10_volterra_decay(capsys):
    g = build_grid("finite", 1.0, 200)
    seq = volterra_norm_sequence(VolterraOp(1.0, g), 20)
    bound = 1.1 * (1.0 / math.factorial(20)) ** (1.0 / 20)
    mono = bool(np.all(np.diff(seq[1:]) < 0))
    ok = seq[19] <= bound and mono
    verdict_line(capsys, 10, ok,
                 f"||V^20||^(1/20) = {seq[19]:.4f} <= {bound:.4f}, "
                 f"monotone decreasing on n in [2,20]: {mono}")
