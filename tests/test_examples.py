import math

import numpy as np
import pytest

import stopgame.examples as ex
from conftest import z1
from stopgame.errors import InputError
from stopgame.model import PathBlock, philox_rng

FLAT0 = PathBlock(np.zeros((1, 1)), np.zeros((1, 1), dtype=np.int64), 1e6)
FLAT1 = PathBlock(np.zeros((1, 1)), np.ones((1, 1), dtype=np.int64), 1e6)


# ---------------------------------------------------------------------------
# frozen game (example 1)


def test_value_spot_checks():
    assert ex.e1_value(0.75, 0.25) == 0.0
    assert ex.e1_value(0.75, 0.75) == pytest.approx(1.0 / 3.0)
    assert ex.e1_value(0.25, 0.50) == pytest.approx(-1.0 / 6.0)


def test_value_pieces_agree_on_overlaps():
    for q in np.linspace(0.5, 1.0, 51):  # seam p = 1 - q
        p = 1.0 - q
        upper = (2 * q - 1) / q * (p + q - 1) if q > 0 else 0.0
        lower = (1 - 2 * p) / (1 - p) * (p + q - 1) if p < 1 else 0.0
        assert upper == pytest.approx(lower, abs=1e-12)
        assert ex.e1_value(p, q) == pytest.approx(0.0, abs=1e-12)


def test_value_is_saddle_on_lattice():
    grid = np.linspace(0.0, 1.0, 401)
    V = np.array([[ex.e1_value(p, q) for q in grid] for p in grid])
    d2p = V[:-2, :] + V[2:, :] - 2.0 * V[1:-1, :]
    d2q = V[:, :-2] + V[:, 2:] - 2.0 * V[:, 1:-1]
    assert d2p.max() <= 1e-12   # concave in p
    assert d2q.min() >= -1e-12  # convex in q


def test_value_sandwich(e1_spec):
    grid = np.linspace(0.0, 1.0, 101)
    for p in grid:
        for q in grid:
            h = 3 * p + 2 * q - 4
            f = 2 * p + 3 * q - 1
            assert h - 1e-12 <= ex.e1_value(p, q) <= f + 1e-12


def test_pure_values_spot_checks():
    lo, hi = ex.e1_pure_values(0.25, 0.75)
    assert lo == pytest.approx(-1.0 / 32.0)
    assert hi == pytest.approx(1.0 / 32.0)
    assert ex.e1_pure_values(1.0, 0.3)[0] == 0.0
    assert ex.e1_pure_values(0.9, 0.9)[0] == pytest.approx(0.71)


def test_pure_value_gap_on_antidiagonal():
    for p in np.linspace(0.01, 0.49, 49):
        lo, hi = ex.e1_pure_values(p, 1.0 - p)
        v = ex.e1_value(p, 1.0 - p)
        assert lo < v < hi
        assert v == pytest.approx(0.0, abs=1e-12)
        assert hi - lo == pytest.approx(2.0 * p * p * (1.0 - 2.0 * p), abs=1e-12)


def test_dual_spot_checks():
    assert ex.e1_dual(0.7, -1.0) == (pytest.approx(0.0), "A")
    assert ex.e1_dual(0.75, 0.5) == (pytest.approx(0.25), "B")
    val, zone = ex.e1_dual(0.5, 1.25)
    assert zone == "D"
    assert val == pytest.approx(2.0 - math.sqrt(6.0) / 2.0)


def test_dual_zone_cover_and_continuity():
    rng = np.random.default_rng(0)
    for _ in range(500):
        p = rng.uniform(0.0, 1.0)
        y = rng.uniform(-2.0, 4.0)
        val, zone = ex.e1_dual(p, y)
        assert zone in "ABCDE"
        for dp, dy in [(1e-9, 0.0), (-1e-9, 0.0), (0.0, 1e-9), (0.0, -1e-9)]:
            p2 = min(max(p + dp, 0.0), 1.0)
            assert ex.e1_dual(p2, y + dy)[0] == pytest.approx(val, abs=1e-6)


def test_qslope_matches_subgradients():
    assert ex.e1_value_qslope(0.25, 0.5) == pytest.approx(2.0 / 3.0)
    assert ex.e1_value_qslope(0.75, 0.25) == 0.0
    assert ex.e1_value_qslope(0.75, 0.75) == pytest.approx(14.0 / 9.0)
    # interior kink at q = 1/2 for p > 1/2: midpoint of [0, 4p-2]
    assert ex.e1_value_qslope(0.8, 0.5) == pytest.approx(0.5 * (4 * 0.8 - 2))


def test_characteristics_fields(e1_char):
    r = 1.0
    for p in [0.1, 0.25, 0.4]:
        z = z1(p, (1 - 2 * p) / (1 - p))
        assert e1_char.lam(z) == pytest.approx(r * (1 - 2 * p) / 2)
        np.testing.assert_array_equal(e1_char.phi(z), z1(1.0, 2.0))
        # compensated drift equals the raw dual drift (0, ry)
        lhs = e1_char.alpha(z) + e1_char.lam(z) * (e1_char.phi(z) - z)
        np.testing.assert_allclose(lhs, [0.0, 0.0, r * z[2], 0.0], atol=1e-12)
    inside = z1(0.8, -0.7)
    assert e1_char.lam(inside) == 0.0
    np.testing.assert_allclose(e1_char.alpha(inside), [0, 0, r * -0.7, 0], atol=1e-15)


def test_optimal_mu_dispatch():
    assert ex.e1_optimal_mu(0.75, 0.25).case == "never"   # slope 0
    assert ex.e1_optimal_mu(0.0, 0.9).case == "never"     # p = 0 face
    assert ex.e1_optimal_mu(1.0, 0.75).case == "stop_now"  # (1, 2) absorbing
    assert ex.e1_optimal_mu(0.25, 0.5).case == "flow"     # curve point
    assert ex.e1_optimal_mu(0.75, 0.75).case == "split"   # zone D
    assert ex.e1_optimal_mu(0.8, 0.5).case == "split"     # zone B


def test_optimal_mu_zone_E_stops_iff_state0():
    strat = ex.e1_optimal_mu(0.3, 1.0)  # slope p+1 = zone-E seam
    for i in range(200):
        assert strat.stopping_time(FLAT0, philox_rng(20, i)) == 0.0
        assert strat.stopping_time(FLAT1, philox_rng(21, i)) == math.inf


def test_optimal_mu_zone_B_split_mass():
    strat = ex.e1_optimal_mu(0.8, 0.5)
    y = ex.e1_value_qslope(0.8, 0.5)
    n = 20_000
    stops = sum(strat.stopping_time(FLAT0, philox_rng(22, i)) == 0.0
                for i in range(n))
    target = y / (2 * 0.8)
    se = math.sqrt(target * (1 - target) / n)
    assert abs(stops / n - target) <= 3.0 * se


# ---------------------------------------------------------------------------
# one-sided game (example 2)


def test_params_validation():
    with pytest.raises(InputError):
        ex.Example2Params(a=1, b=1, r=0.1, h0=-0.1, h1=2, f0=1, f1=3)
    with pytest.raises(InputError):
        ex.Example2Params(a=1, b=1, r=0.1, h0=2, h1=0.5, f0=1, f1=3)
    with pytest.raises(InputError):
        ex.Example2Params(a=1, b=1, r=0.1, h0=0.5, h1=2, f0=0.4, f1=3)


def test_case_classification(e2_params):
    assert ex.e2_case(e2_params) is ex.CaseTag.I
    # b h(1)/(b+r) = 1, h(0) = 0.9 < 1 <= f(0) = 1.8
    two = ex.Example2Params(a=1, b=1, r=1.0, h0=0.9, h1=2.0, f0=1.8, f1=3.0)
    assert ex.e2_case(two) is ex.CaseTag.II
    # b h(1)/(b+r) = 0.5 <= h(0) = 0.6
    three = ex.Example2Params(a=1, b=1, r=3.0, h0=0.6, h1=2.0, f0=1.8, f1=3.0)
    assert ex.e2_case(three) is ex.CaseTag.III


def test_kink_location(e2_params):
    p0 = ex.e2_p0(e2_params)
    assert p0 == pytest.approx(1.0 / 3.0, abs=1e-9)
    # quadratic residual from eliminating the chord slope
    assert 4.2 * p0**2 - 4.1 * p0 + 0.9 == pytest.approx(0.0, abs=1e-9)
    assert ex.e2_lambda1(e2_params) == pytest.approx(1.5, abs=1e-9)
    assert ex.e2_jump_intensity(e2_params) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("params", [
    ex.Example2Params(a=1.0, b=1.0, r=0.1, h0=0.5, h1=2.0, f0=1.0, f1=3.0),
    ex.Example2Params(a=0.7, b=1.3, r=0.2, h0=0.4, h1=3.0, f0=0.8, f1=3.5),
    ex.Example2Params(a=2.0, b=1.0, r=0.05, h0=0.3, h1=2.5, f0=0.9, f1=2.6),
])
def test_kink_below_stationary_point(params):
    if ex.e2_case(params) is not ex.CaseTag.I:
        pytest.skip("parameters not in the kink case")
    p0 = ex.e2_p0(params)
    assert 0.0 < p0 < params.p_star


def test_kink_rejected_outside_case_i():
    three = ex.Example2Params(a=1, b=1, r=3.0, h0=0.6, h1=2.0, f0=1.8, f1=3.0)
    with pytest.raises(InputError):
        ex.e2_p0(three)


def test_value_case_i(e2_params):
    assert ex.e2_value(e2_params, 0.5) == pytest.approx(7.0 / 4.0, abs=1e-9)
    assert ex.e2_value(e2_params, 0.2) == pytest.approx(1.4)
    for p in np.linspace(0.0, 1.0, 101):
        v = ex.e2_value(e2_params, p)
        assert e2_h(e2_params, p) - 1e-9 <= v <= e2_f(e2_params, p) + 1e-9
    p0 = ex.e2_p0(e2_params)
    assert ex.e2_value(e2_params, p0 / 2) == e2_f(e2_params, p0 / 2)
    # affine on [p0, 1]
    v = np.array([ex.e2_value(e2_params, p) for p in np.linspace(p0, 1.0, 33)])
    assert np.abs(np.diff(v, 2)).max() <= 1e-9


def e2_h(params, p):
    return params.h(p)


def e2_f(params, p):
    return params.f(p)


def test_value_case_ii_and_iii():
    two = ex.Example2Params(a=1, b=1, r=1.0, h0=0.9, h1=2.0, f0=1.8, f1=3.0)
    base = 1.0  # b h(1)/(b+r)
    for p in [0.0, 0.4, 1.0]:
        assert ex.e2_value(two, p) == pytest.approx(base * (1 - p) + p * 2.0)
    three = ex.Example2Params(a=1, b=1, r=3.0, h0=0.6, h1=2.0, f0=1.8, f1=3.0)
    for p in [0.0, 0.4, 1.0]:
        assert ex.e2_value(three, p) == pytest.approx(three.h(p))


def test_value_concavity(e2_params):
    v = np.array([ex.e2_value(e2_params, p) for p in np.linspace(0, 1, 201)])
    assert (v[:-2] + v[2:] - 2 * v[1:-1]).max() <= 1e-9


def test_wait_and_split_formulas(e2_params):
    assert ex.e2_split_probability(e2_params, 0.5) == pytest.approx(0.5, abs=1e-9)
    assert ex.e2_wait_time(e2_params, 0.2) == pytest.approx(0.5 * math.log(1.8), abs=1e-9)


def test_optimal_mu_never_stops_at_zero_from_kink(e2_params):
    strat = ex.e2_optimal_mu(e2_params, ex.e2_p0(e2_params))
    assert strat.case == "flow"
    for i in range(100):
        assert strat.stopping_time(FLAT1, philox_rng(23, i)) == math.inf
        assert strat.stopping_time(FLAT0, philox_rng(24, i)) > 0.0


def test_characteristics_perturbed_target_not_absorbing(e2_char):
    # phi(p0) = 0.9 lands outside S = {Dirac at state 0}
    assert not e2_char.in_S(np.array([0.9, 0.1]))


def test_characteristics_case_guard():
    three = ex.Example2Params(a=1, b=1, r=3.0, h0=0.6, h1=2.0, f0=1.8, f1=3.0)
    with pytest.raises(InputError):
        ex.e2_characteristics(three)


# ---------------------------------------------------------------------------
# blind benchmark


def test_blind_junctions(e2_params):
    blind = ex.e2_blind_value(e2_params)
    p0 = ex.e2_p0(e2_params)
    assert blind.p1 < p0 < blind.p2 < e2_params.p_star
    assert abs(blind(blind.p1 - 1e-9) - blind(blind.p1 + 1e-9)) < 1e-7
    assert abs(blind(blind.p2 - 1e-9) - blind(blind.p2 + 1e-9)) < 1e-7
    assert abs(blind.arc_slope(blind.p2) - (e2_params.h1 - e2_params.h0)) < 1e-6


def test_blind_ode_residual(e2_params):
    blind = ex.e2_blind_value(e2_params)
    a, b, r = e2_params.a, e2_params.b, e2_params.r
    for p in np.linspace(blind.p1 + 1e-6, blind.p2 - 1e-6, 41):
        resid = r * blind.arc(p) + ((a + b) * p - b) * blind.arc_slope(p)
        assert resid == pytest.approx(0.0, abs=1e-10)


def test_blind_differs_from_value(e2_params):
    blind = ex.e2_blind_value(e2_params)
    gaps = [abs(blind(p) - ex.e2_value(e2_params, p))
            for p in np.linspace(blind.p1, blind.p2, 101)]
    assert max(gaps) > 0.05


def test_blind_band_between_obstacles(e2_params):
    blind = ex.e2_blind_value(e2_params)
    for p in np.linspace(0.0, 1.0, 201):
        assert e2_params.h(p) - 1e-9 <= blind(p) <= e2_params.f(p) + 1e-9
