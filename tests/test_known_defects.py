"""Known defects, each pinned as a strict xfail on the case that shows it.

Each test asserts what the code should give, and fails today with the
exception its marker names.  The ROADMAP item named in its reason holds
the defect and the planned change; a change that mends one turns its
test into an XPASS, which fails the suite (``xfail_strict``), and then
removes its marker.
"""

import pytest

from twophase.errors import IterationError
from twophase.operators import assemble
from twophase.report import compute_spectrum, run
from twophase.scenario import scenario_from_dict
from twophase.spectral import closed_form_sB, sB_probe_infinite, spectral_bound

UNIT = {"gamma1": 1.0, "gamma2": 1.0, "mu": 1.0, "c1": 1.0, "c2": 1.0}
# truncated [0, 10], n = 200, unit rates, 0.3 on offspring s in [0, 1]
TAIL_10 = {"name": "tail", "kernel": {"form": "indicator", "value": 0.3,
                                      "s_hi": 1.0},
           "domain": {"kind": "truncated_infinite", "smax": 10.0, "n": 200},
           "coefficients": UNIT}


def growth_rate_check(doc, tmp_path) -> dict:
    rep = run(scenario_from_dict(doc), str(tmp_path))
    return next(c for c in rep.checks if c["check"] == "growth_rate_two_routes")


@pytest.mark.parametrize("offset, expected", [
    pytest.param(0.01, "resolvent-bounded", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 6", raises=AssertionError)),
    (-0.01, "diverging")])
def test_probe_classifies_lambda_next_to_threshold(offset, expected):
    # truncated [0, 40], n = 800, unit rates: just above lambda* the
    # resolvent decays too slowly for the truncation ratios, which read
    # 1.95 and 1.84, "diverging"
    scn = scenario_from_dict({
        "domain": {"kind": "truncated_infinite", "smax": 40.0, "n": 800},
        "coefficients": UNIT, "kernel": 0.0})
    gen = assemble(scn.params, scn.kernel, scn.grid)
    lam = closed_form_sB(1.0, 1.0, 1.0) + offset
    assert sB_probe_infinite(gen, lam, [10, 20, 40]).classification == \
        expected


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9",
                   raises=AssertionError)
def test_growth_check_of_datum_that_misses_the_attaining_class(tmp_path):
    # finite [0, 1], n = 100, unit rates, 5 on [0, 0.5]^2 and u1 on [0.6,
    # 0.9]: the datum never reaches the box, so it decays at -81.445,
    # not at s_A = -4.16431, and the check reads "fail"
    doc = {"domain": {"kind": "finite", "m": 1.0, "n": 100},
           "coefficients": UNIT,
           "kernel": {"form": "indicator", "value": 5.0, "s_hi": 0.5,
                      "y_hi": 0.5},
           "run": {"dt": 1e-3, "T": 3.0, "u0": {
               "u1": {"form": "expression", "name": "indicator",
                      "lo": 0.6, "hi": 0.9}, "u2": 0.0}}}
    assert growth_rate_check(doc, tmp_path)["status"] != "fail"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14",
                   raises=AssertionError)
def test_gap_on_truncated_domain_matches_eps_bar():
    # the truncation's s_A loses the mass that leaves at smax: gap reads
    # -0.02706 where eps_bar, the gap's closed form here, is 0.09145
    sp = compute_spectrum(scenario_from_dict(TAIL_10))
    assert sp.gap == pytest.approx(sp.eps_bar, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4",
                   raises=AssertionError)
def test_growth_check_of_pre_asymptotic_run(tmp_path):
    # the fit of -0.39460 is still pre-asymptotic against s_A = -0.40903
    # (tol 0.01), which the exit-mass heuristic does not see
    doc = dict(TAIL_10, run={"dt": 1e-3, "T": 10.0, "record_every": 100})
    assert growth_rate_check(doc, tmp_path)["status"] != "fail"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16",
                   raises=IterationError)
def test_power_steps_settle_on_slowly_mixing_kernel():
    # lambda_2 / rho = 0.990 at the root: the power steps run out of the
    # default max_iter and raise IterationError
    scn = scenario_from_dict({
        "domain": {"kind": "finite", "m": 30.0, "n": 79},
        "coefficients": {"gamma1": 0.335, "gamma2": 0.864,
                         "mu": {"form": "table",
                                "points": [[0.0, 0.157], [26.1, 18.27]]},
                         "c1": 0.0, "c2": 1.44},
        "kernel": {"form": "indicator", "relation": "s<y", "value": 31.57}})
    spectral_bound(assemble(scn.params, scn.kernel, scn.grid))
