import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.stats import ks_2samp, kstest

import stopgame.examples as ex
import stopgame.pdmp as pdmp
from conftest import flat, z1, z2
from stopgame.errors import InputError, IntegrityError
from stopgame.model import ChainSampler, PathBlock, philox_rng
from stopgame.montecarlo import _blocks, belief_consistency, survivor_counts
from stopgame.pdmp import (ConstantTimeStrategy, FlowIntensityStrategy,
                           InitialStateTimeStrategy, NeverStopStrategy, SplitThenFlowStrategy, StopNowStrategy, build_mu,
                           _z_paths, integrate_flow, sc_check, simulate_Z)


def e1_sample_points(n_each=40, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n_each):
        p = rng.uniform(0.5, 1.0)
        pts.append(z1(p, rng.uniform(-2.0, 0.0)))                   # zone A
        p = rng.uniform(0.02, 0.48)
        pts.append(z1(p, rng.uniform(-1.0, (1 - 2 * p) / (1 - p))))  # zone C
        p = rng.uniform(0.02, 0.48)
        pts.append(z1(p, (1 - 2 * p) / (1 - p)))                     # jump curve
        pts.append(z1(0.0, rng.uniform(-1.0, 3.0)))                  # p = 0 face
        pts.append(z1(1.0, rng.uniform(2.0, 4.0)))                   # absorbing set
        p = rng.uniform(0.55, 0.95)
        pts.append(z1(p, rng.uniform(1e-3, 4 * p - 2)))              # exterior B
        p = rng.uniform(0.1, 0.9)
        lo = 4 * p - 2 if p >= 0.5 else (1 - 2 * p) / (1 - p)
        pts.append(z1(p, rng.uniform(lo + 1e-3, 1 + p - 1e-3)))      # exterior D
        p = rng.uniform(0.05, 0.9)
        pts.append(z1(p, rng.uniform(1 + p + 1e-3, 4.0)))            # exterior E
    return pts


def e2_sample_points(e2_params, n_each=60, seed=1):
    rng = np.random.default_rng(seed)
    p0 = ex.e2_p0(e2_params)
    pts = []
    for _ in range(n_each):
        pts.append(z2(rng.uniform(0.0, p0)))
        pts.append(z2(p0))
        pts.append(z2(1.0))
        pts.append(z2(rng.uniform(p0 + 1e-4, 0.999)))
    return pts


# ---------------------------------------------------------------------------
# flow integration


def test_flow_rides_jump_curve(e1_char):
    orbit = integrate_flow(e1_char, z1(0.25, 2.0 / 3.0), 18.5)
    assert orbit.quiescent
    mid = orbit.zs[orbit.ts.size // 2]
    assert mid[2] == pytest.approx((1 - 2 * mid[0]) / (1 - mid[0]), abs=1e-8)
    assert orbit.zs[-1, 0] <= 1e-9  # boundary ride exhausts the belief


def test_flow_reaches_kink_and_freezes(e2_char, e2_params):
    orbit = integrate_flow(e2_char, z2(0.2), 50.0)
    assert orbit.stationary
    assert orbit.zs[-1, 0] == pytest.approx(ex.e2_p0(e2_params), abs=1e-6)
    assert orbit.t_end == pytest.approx(ex.e2_wait_time(e2_params, 0.2), abs=1e-3)


def test_flow_stall_detection(e2_char, e2_params):
    p0 = ex.e2_p0(e2_params)
    A = e2_params.R.T
    bad = dataclasses.replace(e2_char, alpha=lambda z: A @ np.asarray(z, dtype=float),
                              snap=None)
    with pytest.raises(IntegrityError):
        integrate_flow(bad, z2(p0), 1.0)


def test_flow_rejects_exterior_start(e2_char):
    with pytest.raises(InputError):
        integrate_flow(e2_char, z2(0.9), 1.0)


# ---------------------------------------------------------------------------
# auxiliary process


def test_simulate_Z_absorbing_start(e1_char):
    path = simulate_Z(e1_char, z1(1.0, 2.5), 5.0, philox_rng(0))
    assert not path.jumped
    np.testing.assert_array_equal(path.state_at(3.0), z1(1.0, 2.5))


def test_simulate_Z_pure_flow_when_silent(e2_char, e2_params):
    horizon = 0.5 * ex.e2_wait_time(e2_params, 0.2)
    path = simulate_Z(e2_char, z2(0.2), horizon, philox_rng(1))
    assert not path.jumped
    assert path.zs[-1, 0] > 0.2  # the belief genuinely moved


def test_simulate_Z_exponential_jump_law(e2_char, e2_params):
    rate = ex.e2_jump_intensity(e2_params)
    p0 = ex.e2_p0(e2_params)
    n = 100_000
    times = np.empty(n)
    jumped = 0
    for path in _z_paths(e2_char, z2(p0), 60.0, philox_rng(2), n):
        if path.jumped:
            times[jumped] = path.jump_time
            jumped += 1
            assert e2_char.in_S(path.post_jump)
    times = times[:jumped]
    assert jumped / n > 0.999
    se = times.std() / math.sqrt(jumped)
    assert abs(times.mean() - 1.0 / rate) <= 3.0 * se


def test_simulate_Z_many_paths_share_one_orbit(e2_char, e2_params):
    # n paths: one orbit, the n draws in one call; the first is the one
    # path drawn alone from the same stream
    p0 = ex.e2_p0(e2_params)
    one = simulate_Z(e2_char, z2(p0), 60.0, philox_rng(5))
    paths = _z_paths(e2_char, z2(p0), 60.0, philox_rng(5), 3)
    assert len(paths) == 3 and paths[0].jump_time == one.jump_time
    np.testing.assert_array_equal(paths[0].zs, one.zs)
    longest = max(paths, key=lambda path: path.ts.size)
    for path in paths:
        np.testing.assert_array_equal(path.ts, longest.ts[:path.ts.size])


def test_simulate_Z_single_jump_lands_in_S(e1_char):
    for path in _z_paths(e1_char, z1(0.3, 0.55), 10.0, philox_rng(3), 200):
        if path.jumped:
            assert e1_char.in_S(path.post_jump)
        for w in path.zs[:: max(1, path.zs.shape[0] // 8)]:
            assert e1_char.in_EH(w)


# ---------------------------------------------------------------------------
# structure conditions


def test_structure_dynamic_exact(e1_char, e2_char, e2_params):
    for z in e1_sample_points(20):
        if e1_char.in_EH(z):
            lhs = e1_char.alpha(z) + e1_char.lam(z) * (e1_char.phi(z) - z)
            assert np.abs(lhs - e1_char.A @ z).max() <= 1e-10
    for z in e2_sample_points(e2_params, 30):
        if e2_char.in_EH(z):
            lhs = e2_char.alpha(z) + e2_char.lam(z) * (e2_char.phi(z) - z)
            assert np.abs(lhs - e2_char.A @ z).max() <= 1e-10


def test_sc_check_passes_examples(e1_char, e2_char, e2_params):
    rep1 = sc_check(e1_char, ex.e1_vstar_full, e1_sample_points(15))
    assert rep1.passed, str(rep1)
    assert rep1.tol == 1e-6  # the tolerance is a constant, no longer an option
    rep2 = sc_check(e2_char, ex.e2_vstar_full(e2_params),
                    e2_sample_points(e2_params, 25))
    assert rep2.passed, str(rep2)


def test_sc_check_follows_jump_curve_orbits_without_bisection(e1_char, monkeypatch):
    # e1's flow rides the jump curve, at E_H's edge: at integrate_flow's step
    # no RK4 step leaves E_H, so each orbit step costs one _step call
    steps = []
    orbit_steps = []
    real_step, real_flow = pdmp._step, pdmp.integrate_flow

    def counted_step(*args):
        steps.append(1)
        return real_step(*args)

    def counted_flow(*args, **kwargs):
        orbit = real_flow(*args, **kwargs)
        orbit_steps.append(orbit.ts.size - 1)
        return orbit

    monkeypatch.setattr(pdmp, "_step", counted_step)
    monkeypatch.setattr(pdmp, "integrate_flow", counted_flow)
    samples = [z1(p, (1 - 2 * p) / (1 - p)) for p in (0.05, 0.2, 0.35, 0.45)]
    assert all(e1_char.in_EH(z) for z in samples)
    assert sc_check(e1_char, ex.e1_vstar_full, samples).passed
    assert len(orbit_steps) == len(samples) and min(orbit_steps) > 0
    assert len(steps) == sum(orbit_steps)


def test_sc_check_rejects_scaled_intensity(e1_char):
    bad = dataclasses.replace(e1_char, lam=lambda z: 1.1 * e1_char.lam(z))
    rep = sc_check(bad, ex.e1_vstar_full, e1_sample_points(10))
    assert not rep.passed_by_condition["sc4_dynamic"]


def test_sc_check_rejects_shifted_jump_target(e2_char, e2_params):
    bad = dataclasses.replace(e2_char, phi=lambda z: np.array([0.9, 0.1]))
    rep = sc_check(bad, ex.e2_vstar_full(e2_params),
                   e2_sample_points(e2_params, 10))
    assert not rep.passed_by_condition["sc3_jump"]


def test_sc_check_rejects_nonzero_drift_at_kink(e2_char, e2_params):
    A = e2_params.R.T
    bad = dataclasses.replace(e2_char, alpha=lambda z: A @ np.asarray(z, dtype=float),
                              snap=None)
    rep = sc_check(bad, ex.e2_vstar_full(e2_params),
                   e2_sample_points(e2_params, 10))
    assert not rep.passed_by_condition["sc2_invariant"]


def test_sc_check_requires_split_for_exterior(e2_char, e2_params):
    bad = dataclasses.replace(e2_char, split=None)
    with pytest.raises(InputError):
        sc_check(bad, ex.e2_vstar_full(e2_params), [z2(0.9)])


# ---------------------------------------------------------------------------
# stopping strategies


def test_kink_strategy_hazard_structure(e2_char, e2_params):
    p0 = ex.e2_p0(e2_params)
    strat = FlowIntensityStrategy(e2_char, z2(p0))
    lam1 = ex.e2_lambda1(e2_params)
    np.testing.assert_allclose(strat.hazard.tail_rate, [lam1, 0.0], atol=1e-9)
    assert strat.stopping_time(flat(1), philox_rng(0)) == math.inf


def test_flow_strategy_never_below_zero_curve(e1_char):
    strat = FlowIntensityStrategy(e1_char, z1(0.7, -0.5))  # zone A: silent forever
    assert np.all(strat.stopping_times(flat(0, 50), philox_rng(4)) == math.inf)


def test_case1_rejects_exterior_start(e1_char):
    with pytest.raises(InputError):
        FlowIntensityStrategy(e1_char, z1(0.75, 0.5))


def test_kink_rule_law_is_exponential(e2_char, e2_params):
    # before the first stop the belief stays at p0, so (p0, 1 - p0) is an
    # eigenvector of R^T - diag(lambda1, 0) with eigenvalue -lam: the rule
    # stops at an exact Exp(lam) time, cut at the horizon (KS < 0.01 at 1e5)
    p0 = ex.e2_p0(e2_params)
    lam = ex.e2_jump_intensity(e2_params)
    strat = FlowIntensityStrategy(e2_char, z2(p0))
    sampler = ChainSampler(e2_params.R, [p0, 1 - p0])
    horizon = 60.0
    n = 100_000
    mu = np.concatenate([strat.stopping_times(sampler.sample_block(horizon, rng, rows), rng)
                         for rng, rows in _blocks(n, 5)])
    assert mu.size == n
    mu = mu[np.isfinite(mu)]
    assert mu.max() < horizon
    cut = -math.expm1(-lam * horizon)
    assert kstest(mu, lambda t: -np.expm1(-lam * t) / cut).statistic < 0.01


def test_build_mu_dispatches_on_the_case(e1_char, e2_char, e2_params):
    p0 = ex.e2_p0(e2_params)
    v1, v2 = ex.e1_vstar_full, ex.e2_vstar_full(e2_params)
    cases = [
        (e1_char, z1(1.0, 2.5), v1, StopNowStrategy),              # S
        (e1_char, z1(0.25, 2.0 / 3.0), v1, FlowIntensityStrategy),  # E_H: jump curve
        (e1_char, z1(0.7, -0.5), v1, FlowIntensityStrategy),        # E_H: zone A
        (e1_char, z1(0.75, 0.5), v1, SplitThenFlowStrategy),        # zone B
        (e1_char, z1(0.75, 14.0 / 9.0), v1, SplitThenFlowStrategy),  # zone D
        (e1_char, z1(0.3, 2.0), v1, SplitThenFlowStrategy),         # zone E
        (e2_char, z2(0.15), v2, FlowIntensityStrategy),             # below the kink
        (e2_char, z2(p0), v2, FlowIntensityStrategy),               # at the kink
        (e2_char, z2(0.6), v2, SplitThenFlowStrategy),              # above the kink
        (e2_char, z2(1.0), v2, StopNowStrategy),                    # p = 1
    ]
    for char, z, vstar, cls in cases:
        assert type(build_mu(char, z, vstar=vstar)) is cls, z
    with pytest.raises(InputError):
        build_mu(dataclasses.replace(e2_char, split=None), z2(0.6))


def test_split_strategy_masses(e1_char):
    # zone D point (3/4, 14/9): flow restart at p' = 1/4, overall mass 2/3
    y = 14.0 / 9.0
    strat = build_mu(e1_char, z1(0.75, y), vstar=ex.e1_vstar_full)
    assert strat.m == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert strat.flow.z0[0] == pytest.approx(0.25, abs=1e-12)
    # conditional time-zero mass given state 0 equals (p - p')/(p (1 - p'))
    implied = strat.m * strat.z_stop[0] / strat.z[0]
    assert implied == pytest.approx((0.75 - 0.25) / (0.75 * (1 - 0.25)), abs=1e-12)
    assert "typo" in strat.note


def test_split_strategy_rejects_bad_decomposition(e1_char):
    with pytest.raises(InputError):
        SplitThenFlowStrategy(e1_char, z1(0.75, 0.5), z1(0.25, 0.0), z1(1.0, 2.0), 0.1,
                              vstar=ex.e1_vstar_full)


def test_zone_B_split_probability(e1_char):
    # (p, y) = (0.75, 0.5): stop at 0 with probability y/(2p) = 1/3 given X0=0
    strat = build_mu(e1_char, z1(0.75, 0.5), vstar=ex.e1_vstar_full)
    n = 100_000
    p_hat = np.mean(strat.stopping_times(flat(0, n), philox_rng(7)) == 0.0)
    target = 0.5 / 1.5
    se = math.sqrt(target * (1 - target) / n)
    assert abs(p_hat - target) <= 3.0 * se
    # and never stops when the chain sits in state 1
    assert np.all(strat.stopping_times(flat(1, 300), philox_rng(8)) == math.inf)


def test_split_rule_tosses_its_coin_only_for_rows_that_start_at_zero(e2_params):
    # a row continued from a later start is past the time-0 coin: the split
    # rule stops it as its flow rule does, from the same draws
    strat = ex.e2_optimal_mu(e2_params, 0.6)
    assert strat.case == "split"
    sampler = ChainSampler(e2_params.R, [0.6, 0.4])
    first = sampler.sample_block(2.0, philox_rng(9), 400)
    _, later = sampler.extend(first, np.arange(400), 40.0, philox_rng(10))
    mu = strat.stopping_times(later, philox_rng(11))
    np.testing.assert_array_equal(mu, strat.flow.stopping_times(later, philox_rng(11)))
    assert np.all(mu > 2.0)
    # while rows that start at 0 toss it
    assert np.any(strat.stopping_times(first, philox_rng(12)) == 0.0)


def test_rules_decided_at_time_zero_stop_only_rows_that_start_in_time(e2_params):
    # a continuation from t = 8 is past time 0: a stop now, a time read off
    # an initial state it does not know and a constant time before its start
    # are input errors, while a constant time from its start on and never
    # stopping still stop it
    sampler = ChainSampler(e2_params.R, [0.6, 0.4])
    first = sampler.sample_block(8.0, philox_rng(9), 50)
    _, later = sampler.extend(first, np.arange(50), 20.0, philox_rng(10))
    assert np.all(later.times[:, 0] == 8.0)
    for rule in (StopNowStrategy(), InitialStateTimeStrategy([1.0, 30.0]),
                 ConstantTimeStrategy(1.0), ConstantTimeStrategy(7.9)):
        with pytest.raises(InputError, match="decided at time 0"):
            rule.stopping_times(later, philox_rng(11))
    for time in (8.0, 12.0, math.inf):
        assert np.all(ConstantTimeStrategy(time).stopping_times(later, philox_rng(11)) == time)
    assert np.all(NeverStopStrategy().stopping_times(later, philox_rng(11)) == math.inf)
    # rows that start at 0 stop as before
    assert np.all(StopNowStrategy().stopping_times(first, philox_rng(12)) == 0.0)
    assert np.all(ConstantTimeStrategy(1.0).stopping_times(first, philox_rng(12)) == 1.0)
    np.testing.assert_array_equal(
        InitialStateTimeStrategy([1.0, 30.0]).stopping_times(first, philox_rng(12)),
        np.where(first.initial_states == 0, 1.0, 30.0))


def test_case3_stops_now():
    strat = StopNowStrategy()
    assert strat.stopping_time(flat(0), philox_rng(0)) == 0.0


def test_flow_survival_matches_quadrature_oracle(e1_char):
    # independent oracle: augmented ODE for the boundary ride and its hazard
    r = 1.0

    def rhs(t, w):
        p = w[0]
        return [-0.5 * r * (1 - 2 * p) * (1 - p), 0.5 * r * (1 - 2 * p) / p]

    sol = solve_ivp(rhs, (0.0, 0.7), [0.25, 0.0], dense_output=True,
                    rtol=1e-11, atol=1e-13)
    strat = FlowIntensityStrategy(e1_char, z1(0.25, 2.0 / 3.0))
    n = 100_000
    for t in (0.2, 0.5):
        surv_theory = math.exp(-sol.sol(t)[1])
        # a frozen chain from state 0: every path holds state 0 forever
        survivors = survivor_counts(strat, np.zeros((2, 2)), np.array([1.0, 0.0]), t, 1e6, n, 9)
        surv_hat = float(survivors.sum()) / n
        se = math.sqrt(surv_theory * (1 - surv_theory) / n)
        assert abs(surv_hat - surv_theory) <= 3.0 * se


def _perturb_after(path: PathBlock, cut: float, rng) -> PathBlock:
    """A one-row block with a fresh tail strictly after ``cut`` (same prefix, same horizon)."""
    keep = path.times[0] <= cut
    times = list(path.times[0, keep])
    states = list(path.states[0, keep])
    t = max(cut, times[-1]) + rng.uniform(0.01, 0.5)
    s = states[-1]
    while t < path.ends[0] and rng.random() < 0.7:
        s = 1 - s
        times.append(t)
        states.append(s)
        t += rng.uniform(0.01, 1.0)
    return PathBlock(np.array([times]), np.array([states]), path.ends)


@pytest.mark.parametrize("builder", ["kink", "split", "wait"])
def test_adaptedness_prefix_perturbation(builder, e2_char, e2_params):
    p0 = ex.e2_p0(e2_params)
    if builder == "kink":
        strat = FlowIntensityStrategy(e2_char, z2(p0))
        start = p0
    elif builder == "split":
        strat = build_mu(e2_char, z2(0.6), vstar=ex.e2_vstar_full(e2_params))
        start = 0.6
    else:
        strat = FlowIntensityStrategy(e2_char, z2(0.15))
        start = 0.15
    sampler = ChainSampler(e2_params.R, [start, 1 - start])
    perturb_rng = np.random.default_rng(17)
    checked = 0
    i = 0
    while checked < 1000:
        i += 1
        rng = philox_rng(10, i)
        X = sampler.sample(60.0, rng)
        mu = strat.stopping_time(X, philox_rng(11, i))
        if not math.isfinite(mu):
            continue
        X2 = _perturb_after(X, mu * (1 + 1e-12) + 1e-9, perturb_rng)
        mu2 = strat.stopping_time(X2, philox_rng(11, i))
        assert mu2 == mu
        checked += 1


def test_belief_consistency_reports(e2_char, e2_params):
    p0 = ex.e2_p0(e2_params)
    strat = FlowIntensityStrategy(e2_char, z2(p0))
    rep = belief_consistency(strat, t=1.0, n=20_000, seed=12)
    assert not rep.inconclusive
    assert rep.consistent
    assert rep.predicted[0] == pytest.approx(p0, abs=1e-6)


def test_belief_consistency_never_stop(e2_params):
    # lambda == 0: the conditional law is just the marginal flow
    strat = NeverStopStrategy(R=e2_params.R, p0=[0.2, 0.8])
    rep = belief_consistency(strat, t=0.7, n=20_000, seed=13)
    assert rep.consistent
    from stopgame.model import marginal_flow

    np.testing.assert_allclose(rep.predicted,
                               marginal_flow([0.2, 0.8], e2_params.R, 0.7),
                               atol=1e-12)


def test_belief_consistency_needs_a_start_law(e2_params):
    # a rule without a chain has no belief to check: an input error, not a crash
    for strat in (NeverStopStrategy(), ConstantTimeStrategy(1.0)):
        assert strat.initial_belief() is None
        with pytest.raises(InputError):
            belief_consistency(strat, 1.0, 200)
    # the chain comes whole or not at all
    with pytest.raises(InputError):
        NeverStopStrategy(R=e2_params.R)
    with pytest.raises(InputError):
        NeverStopStrategy(p0=[0.2, 0.8])


def test_belief_consistency_inconclusive_flag(e1_char):
    # stop-at-zero-now strategies leave (almost) no survivors
    strat = build_mu(e1_char, z1(0.4, 1.4002), vstar=ex.e1_vstar_full)
    rep = belief_consistency(strat, t=0.5, n=150, seed=14)
    assert rep.inconclusive


def test_hazard_support_violation_raises():
    from stopgame.pdmp import PdmpCharacteristics

    # intensity alive while the belief excludes the jump-target state
    A = np.zeros((2, 2))
    char = PdmpCharacteristics(
        dim_p=2, dim_y=0, r=1.0, A=A,
        alpha=lambda z: np.zeros(2), lam=lambda z: 1.0,
        phi=lambda z: np.array([1.0, 0.0]),
        in_EH=lambda z: bool(z[0] <= 0.5), in_S=lambda z: bool(z[0] > 0.5))
    with pytest.raises(IntegrityError):
        FlowIntensityStrategy(char, np.array([0.0, 1.0]), horizon=1.0)


@pytest.mark.parametrize("builder", ["kink", "wait", "split_e2", "split_e1", "ride_e1"])
def test_stopping_time_matches_per_path_reference(builder, e1_char, e2_char, e2_params):
    # the one-row view of each vectorized rule returns the time the
    # per-path rule returned from the same stream (it may draw further
    # ahead in it), and a block gives each row the law of that rule
    from per_path_reference import OnePath, reference_stopping_time

    p0 = ex.e2_p0(e2_params)
    strat, start, R, horizon = {
        "kink": lambda: (FlowIntensityStrategy(e2_char, z2(p0)), p0, e2_params.R, 60.0),
        "wait": lambda: (FlowIntensityStrategy(e2_char, z2(0.15)), 0.15, e2_params.R, 184.0),
        "split_e2": lambda: (build_mu(e2_char, z2(0.6), vstar=ex.e2_vstar_full(e2_params)),
                             0.6, e2_params.R, 184.0),
        "split_e1": lambda: (build_mu(e1_char, z1(0.75, 0.5), vstar=ex.e1_vstar_full),
                             0.75, np.zeros((2, 2)), 30.0),
        "ride_e1": lambda: (FlowIntensityStrategy(e1_char, z1(0.25, 2.0 / 3.0)), 0.25,
                            np.array([[-1.0, 1.0], [1.0, -1.0]]), 1.0),
    }[builder]()
    sampler = ChainSampler(R, [start, 1 - start])
    n = 2000
    one_row = np.empty(n)
    for i in range(n):
        X = sampler.sample(horizon, philox_rng(30, i))
        one_row[i] = strat.stopping_time(X, philox_rng(31, i))
        assert one_row[i] == reference_stopping_time(strat, OnePath.of(X), philox_rng(31, i))
    block = np.concatenate([
        strat.stopping_times(sampler.sample_block(horizon, philox_rng(32, b), 250),
                             philox_rng(33, b)) for b in range(n // 250)])
    assert np.mean(np.isinf(block)) == pytest.approx(np.mean(np.isinf(one_row)), abs=0.05)
    assert ks_2samp(block[np.isfinite(block)], one_row[np.isfinite(one_row)]).pvalue > 1e-3
