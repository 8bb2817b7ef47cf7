import dataclasses
import math

import numpy as np
import pytest

import stopgame.examples as ex
from conftest import game_at
from stopgame.errors import InputError
from stopgame.model import GameSpec, bilinear_payoff
from stopgame.montecarlo import (PureResponseFamily, belief_consistency,
                                 best_response_value, default_time_grid,
                                 estimate_payoff, exploit_gap)
from stopgame.pdmp import (ConstantTimeStrategy, InitialStateTimeStrategy,
                           NeverStopStrategy, StopNowStrategy)


def small_family(r=1.0):
    return PureResponseFamily(np.concatenate([[0.0], np.geomspace(0.05, 20.0, 40),
                                              [math.inf]]))


def test_time_grid_shape():
    grid = default_time_grid(0.1)
    assert grid[0] == 0.0 and math.isinf(grid[-1])
    assert grid.size == 202
    assert np.all(np.diff(grid[:-1]) > 0)
    with pytest.raises(InputError):
        PureResponseFamily(np.array([0.0, 1.0, 2.0]))  # no +inf tail


@pytest.mark.parametrize("times", [[0.0, math.nan, 1.0, math.inf], [0.0, 1.0, math.inf, math.inf],
                                   [0.0, 2.0, 1.0, math.inf], [0.0, 0.0, math.inf],
                                   [math.nan, 1.0, math.inf], [0.0, math.nan, math.inf]])
def test_family_times_are_finite_and_increasing_before_inf(times):
    # np.diff gives NaN at a NaN or a repeated +inf, and NaN <= 0 is false
    with pytest.raises(InputError):
        PureResponseFamily(np.array(times))


@pytest.mark.parametrize("n", [0, -5])
def test_replication_count_is_checked(n, e2_spec):
    # belief_consistency used to return an "inconclusive" report with n = -5
    spec = game_at(e2_spec, 1.0 / 3.0, None)
    never = NeverStopStrategy(spec.R, spec.p0)
    for run in (lambda: estimate_payoff(spec, never, NeverStopStrategy(), n),
                lambda: best_response_value(spec, never, small_family(), n),
                lambda: belief_consistency(never, 1.0, n)):
        with pytest.raises(InputError, match="at least one replication"):
            run()


def test_estimate_stop_now_gives_h(e1_spec):
    spec = game_at(e1_spec, 0.3, 0.7)
    est = estimate_payoff(spec, StopNowStrategy(), ConstantTimeStrategy(2.0),
                          n=20_000, seed=0)
    target = bilinear_payoff(spec.h, spec.p0, spec.q0)
    assert abs(est.mean - target) <= 3.0 * max(est.std_error, 1e-12)


def test_estimate_opponent_stop_now_gives_f(e1_spec):
    spec = game_at(e1_spec, 0.3, 0.7)
    est = estimate_payoff(spec, NeverStopStrategy(), StopNowStrategy(),
                          n=20_000, seed=1)
    target = bilinear_payoff(spec.f, spec.p0, spec.q0)
    assert abs(est.mean - target) <= 3.0 * max(est.std_error, 1e-12)


def test_estimate_nobody_stops_is_zero(e1_spec):
    spec = game_at(e1_spec, 0.3, 0.7)
    est = estimate_payoff(spec, NeverStopStrategy(), NeverStopStrategy(),
                          n=500, seed=2)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_common_random_numbers_bit_identical(e2_spec, e2_params):
    spec = game_at(e2_spec, 1.0 / 3.0, None)
    strat = ex.e2_optimal_mu(e2_params, 1.0 / 3.0)
    fam = small_family()
    a = best_response_value(spec, strat, fam, n=4000, seed=9)
    b = best_response_value(spec, strat, fam, n=4000, seed=9)
    assert a.value == b.value and a.std_error == b.std_error
    assert a.argmin == b.argmin
    c = estimate_payoff(spec, strat, ConstantTimeStrategy(1.0), n=4000, seed=9)
    d = estimate_payoff(spec, strat, ConstantTimeStrategy(1.0), n=4000, seed=9)
    assert c.mean == d.mean


def test_standard_error_scaling(e2_spec, e2_params):
    spec = game_at(e2_spec, 0.5, None)
    strat = ex.e2_optimal_mu(e2_params, 0.5)
    ses = []
    for n in (1_000, 10_000, 100_000):
        est = estimate_payoff(spec, strat, ConstantTimeStrategy(2.0), n=n, seed=3)
        ses.append(est.std_error)
    root10 = math.sqrt(10.0)
    for ratio in (ses[0] / ses[1], ses[1] / ses[2]):
        assert root10 / 1.3 <= ratio <= root10 * 1.3


def test_purification_monotone_in_family(e2_spec, e2_params):
    spec = game_at(e2_spec, 0.5, None)
    strat = ex.e2_optimal_mu(e2_params, 0.5)
    t_small = np.concatenate([[0.0], np.geomspace(0.1, 10.0, 8), [math.inf]])
    t_big = np.unique(np.concatenate([t_small, np.geomspace(0.03, 30.0, 23)]))
    small = best_response_value(spec, strat, PureResponseFamily(t_small),
                                n=4000, seed=5)
    big = best_response_value(spec, strat, PureResponseFamily(t_big),
                              n=4000, seed=5)
    assert big.value <= small.value + 1e-12  # exact with common random numbers


def test_exploit_gap_infinite_claim(e2_spec, e2_params):
    spec = game_at(e2_spec, 0.5, None)
    gap = exploit_gap(spec, NeverStopStrategy(), -math.inf, small_family(),
                      n=10, seed=0)
    assert gap.gap == math.inf
    # a -inf claim is played like any other: the report carries the best response
    br = best_response_value(spec, NeverStopStrategy(), small_family(), n=10, seed=0)
    assert (gap.best_response, gap.n, gap.stop_counts) == (br.value, 10, br.stop_counts)
    payload = gap.to_payload()
    assert (payload["value_claim"], payload["best_response"], payload["gap"]) == (
        "-inf", br.value, "inf")
    with pytest.raises(InputError, match="value claim is NaN"):
        exploit_gap(spec, NeverStopStrategy(), math.nan, small_family(), n=10, seed=0)


def test_stop_past_sampled_horizon_counts_as_never(e2_spec):
    from stopgame.pdmp import never_horizon

    spec = game_at(e2_spec, 0.5, None)
    late = ConstantTimeStrategy(2.0 * never_horizon(spec.r))
    fam = PureResponseFamily.for_game(spec, n=40)
    assert exploit_gap(spec, late, 1.0, fam, n=500, seed=4) == \
        exploit_gap(spec, NeverStopStrategy(), 1.0, fam, n=500, seed=4)
    assert estimate_payoff(spec, late, late, n=200, seed=4) == \
        estimate_payoff(spec, NeverStopStrategy(), NeverStopStrategy(), n=200, seed=4)


def test_exploit_gap_detects_suboptimal_play(e2_spec, e2_params):
    # stopping immediately at the kink belief hands the opponent h - V
    spec = game_at(e2_spec, 1.0 / 3.0, None)
    fam = PureResponseFamily.for_game(spec, n=60)
    claim = ex.e2_value(e2_params, 1.0 / 3.0)
    gap = exploit_gap(spec, StopNowStrategy(), claim, fam, n=20_000, seed=6)
    expected = e2_params.h(1.0 / 3.0) - e2_params.f(1.0 / 3.0)
    assert gap.gap == pytest.approx(expected, abs=0.05)
    assert gap.gap < -3.0 * gap.std_error - 0.05


def test_short_state_times_rule_is_an_input_error(e2_spec):
    # one time for a two-state chain: paths that start in state 1 have none
    spec = game_at(e2_spec, 1.0 / 3.0, None)
    short = InitialStateTimeStrategy([1.0])
    fam = PureResponseFamily.for_game(spec, n=20)
    with pytest.raises(InputError, match="1 stopping times"):
        exploit_gap(spec, short, 1.0, fam, n=200, seed=0)
    with pytest.raises(InputError, match="1 stopping times"):
        estimate_payoff(spec, short, ConstantTimeStrategy(1.0), n=200, seed=0)
    with pytest.raises(InputError):
        InitialStateTimeStrategy([])


def _three_state_game():
    return GameSpec(R=[[-1.0, 0.6, 0.4], [0.5, -0.8, 0.3], [1.0, 1.0, -2.0]],
                    Q=[[-0.5, 0.5], [0.9, -0.9]], r=0.4,
                    f=[[1.0, 2.0], [0.0, 1.5], [3.0, -0.5]],
                    h=[[0.5, 1.0], [-1.0, 1.0], [2.0, -2.0]],
                    p0=[0.2, 0.5, 0.3], q0=[0.6, 0.4])


def _certificates(spec, strat):
    """Every library entry point that plays ``strat`` as player 1 on ``spec``."""
    fam = PureResponseFamily.for_game(spec, n=20)
    return [lambda: exploit_gap(spec, strat, 1.0, fam, n=200, seed=0),
            lambda: exploit_gap(spec, strat, -math.inf, fam, n=200, seed=0),
            lambda: best_response_value(spec, strat, fam, n=200, seed=0),
            lambda: estimate_payoff(spec, strat, NeverStopStrategy(), n=200, seed=0)]


def test_rule_for_another_start_law_is_an_input_error(e1_spec, e2_spec, e2_params):
    # e2_game starts at p* = 0.5; the rule was built at p = 0.2
    strat = ex.e2_optimal_mu(e2_params, 0.2)
    for play in _certificates(e2_spec, strat):
        with pytest.raises(InputError, match=r"built for initial law \[0.2, 0.8\]"):
            play()
    # player 2's rule is checked against (Q, q0): e1 starts player 2 at [0.5, 0.5]
    opponent = NeverStopStrategy(R=np.zeros((2, 2)), p0=[0.3, 0.7])
    with pytest.raises(InputError, match=r"built for initial law \[0.3, 0.7\]"):
        estimate_payoff(e1_spec, StopNowStrategy(), opponent, n=200, seed=0)


def test_two_state_rule_on_a_three_state_game_is_an_input_error(e2_params):
    # the flow rule's hazard has two states, so play would index past them
    for play in _certificates(_three_state_game(), ex.e2_optimal_mu(e2_params, 0.5)):
        with pytest.raises(InputError, match="built for initial law"):
            play()


def test_too_many_state_times_is_an_input_error(e2_spec):
    spec = game_at(e2_spec, 1.0 / 3.0, None)
    for play in _certificates(spec, InitialStateTimeStrategy([1.0, 2.0, 3.0, 4.0])):
        with pytest.raises(InputError, match="4 stopping times but the game has 2 own states"):
            play()
    with pytest.raises(InputError, match="3 stopping times but the game has 1 own states"):
        estimate_payoff(spec, StopNowStrategy(), InitialStateTimeStrategy([1.0, 2.0, 3.0]),
                        n=200, seed=0)


def test_rule_for_another_own_chain_is_an_input_error(e1_spec, e2_spec, e2_params):
    # the same start law, but a rule built for a = 3: it used to certify a
    # gap of -0.165 against the reference game, where the right rule's is -0.006
    other = dataclasses.replace(e2_params, a=3.0)
    rules = [ex.e2_optimal_mu(other, p) for p in (0.2, 1.0 / 3.0)]
    assert [rule.case for rule in rules] == ["flow", "split"]
    for rule in rules:
        for play in _certificates(game_at(e2_spec, rule.initial_belief()[0], None), rule):
            with pytest.raises(InputError, match="built for the chain"):
                play()
    # a never rule carries its chain R; player 2's is checked against Q (zero in e1)
    spec = game_at(e2_spec, 0.2, None)
    for play in _certificates(spec, NeverStopStrategy(other.R, [0.2, 0.8])):
        with pytest.raises(InputError, match="built for the chain"):
            play()
    opponent = NeverStopStrategy(R=[[-1.0, 1.0], [1.0, -1.0]], p0=[0.5, 0.5])
    with pytest.raises(InputError, match="built for the chain"):
        estimate_payoff(e1_spec, StopNowStrategy(), opponent, n=200, seed=0)
    # the reference rules carry the game's own chain
    exploit_gap(spec, ex.e2_optimal_mu(e2_params, 0.2), 1.0, small_family(), n=200)
    exploit_gap(spec, NeverStopStrategy(e2_params.R, [0.2, 0.8]), 1.0, small_family(), n=200)
    exploit_gap(game_at(e1_spec, 0.75, 0.75), ex.e1_optimal_mu(0.75, 0.75), 1.0,
                small_family(), n=200)


def test_rules_are_checked_once_per_call(e2_spec, e2_params):
    # the rule check runs before the first block, not once per block
    class Counting(NeverStopStrategy):
        reads = 0

        def initial_belief(self):
            Counting.reads += 1
            return super().initial_belief()

    spec = game_at(e2_spec, 1.0 / 3.0, None)
    fam = PureResponseFamily.for_game(spec, n=20)
    n = 5 * 128 + 1  # six blocks
    own = Counting(e2_params.R, [1.0 / 3.0, 2.0 / 3.0])
    exploit_gap(spec, own, 1.0, fam, n=n, seed=0)
    assert Counting.reads == 1
    Counting.reads = 0
    estimate_payoff(spec, own, Counting(), n=n, seed=0)
    assert Counting.reads == 2  # one read per player


def test_never_stop_best_response_matches_quadrature(e2_spec, e2_params):
    # responder against silence: min over t of e^{-rt} f(p_t), p_t the flow
    from stopgame.model import marginal_flow

    spec = game_at(e2_spec, 0.8, None)
    fam = PureResponseFamily.for_game(spec, n=120)
    br = best_response_value(spec, NeverStopStrategy(), fam, n=60_000, seed=7)
    times = fam.times[:-1]
    curve = np.array([
        math.exp(-spec.r * t)
        * bilinear_payoff(spec.f, marginal_flow(spec.p0, spec.R, t), spec.q0)
        for t in times])
    direct = min(curve.min(), 0.0)
    assert abs(br.value - direct) <= 3.0 * br.std_error + 1e-9


def test_same_seed_reproduces(e2_spec, e2_params):
    from stopgame.montecarlo import BLOCK, _response_chunk, survivor_counts

    spec = game_at(e2_spec, 0.5, None)
    strat = ex.e2_optimal_mu(e2_params, 0.5)
    fam = small_family()
    n = 20_000
    assert n % BLOCK  # a partial last block
    first, again = (best_response_value(spec, strat, fam, n=n, seed=8) for _ in range(2))
    assert first == again
    assert sum(first.stop_counts.values()) == n
    _, _, counts, stops = _response_chunk(spec, strat, fam, n, 8)
    assert counts.sum() == stops.sum() == n
    assert (estimate_payoff(spec, strat, ConstantTimeStrategy(1.0), n=n, seed=8)
            == estimate_payoff(spec, strat, ConstantTimeStrategy(1.0), n=n, seed=8))
    args = (strat, e2_params.R, strat.initial_belief(), 1.0, 2.0, n, 8)
    survivors = survivor_counts(*args)
    np.testing.assert_array_equal(survivors, survivor_counts(*args))
    assert 0 < survivors.sum() <= n


def test_exploit_gap_runs_in_one_process(e2_spec, e2_params):
    spec = game_at(e2_spec, 0.5, None)
    strat = ex.e2_optimal_mu(e2_params, 0.5)
    with pytest.raises(InputError):
        exploit_gap(spec, strat, 0.0, small_family(), n=10, threads=2)


def _slow_e2(e2_params):
    """e2 slowed down tenfold: most rows of its rules stop after the first round."""
    return dataclasses.replace(e2_params, a=0.1, b=0.1, r=0.01)


def _moving_e2(e2_params):
    """e2's rule at p = 1/3 against a moving opponent whose state the payoffs read."""
    spec = GameSpec(R=e2_params.R, Q=[[-0.7, 0.7], [1.3, -1.3]], r=e2_params.r,
                    f=[[2.0, 0.5], [1.0, 3.0]], h=[[-1.0, 0.0], [0.5, 1.5]],
                    p0=[1.0 / 3.0, 2.0 / 3.0], q0=[0.3, 0.7])
    return spec, ex.e2_optimal_mu(e2_params, 1.0 / 3.0)


@pytest.mark.parametrize("point", ["e2_kink", "e1_split", "slow_e2_kink", "moving_e2_kink"])
def test_batched_responses_match_per_path_law(point, e1_spec, e2_spec, e2_params):
    # the block code has the per-candidate means of the per-replication
    # rows it replaced, which sampled every path, the opponent's too, to
    # the horizon at once
    from per_path_reference import response_sums
    from stopgame.montecarlo import _response_chunk

    if point == "e2_kink":
        spec = game_at(e2_spec, 1.0 / 3.0, None)
        strat = ex.e2_optimal_mu(e2_params, 1.0 / 3.0)
    elif point == "moving_e2_kink":
        spec, strat = _moving_e2(e2_params)
    elif point == "slow_e2_kink":
        slow = _slow_e2(e2_params)
        spec = game_at(ex.e2_game(slow), 1.0 / 3.0, None)
        strat = ex.e2_optimal_mu(slow, 1.0 / 3.0)
    else:
        spec = game_at(e1_spec, 0.75, 0.75)
        strat = ex.e1_optimal_mu(0.75, 0.75)
    fam = PureResponseFamily.for_game(spec, n=40)
    n = 3000
    batch = _response_chunk(spec, strat, fam, n, seed=40)[:3]
    ref = response_sums(spec, strat, fam, n, seed=41)
    for sums, sumsq, counts in (batch, ref):
        assert counts.sum() == n
    (s1, q1, c1), (s2, q2, c2) = batch, ref
    m1, m2 = s1 / c1[:, None], s2 / c2[:, None]
    var1 = np.maximum(q1 / c1[:, None] - m1 ** 2, 0.0) / c1[:, None]
    var2 = np.maximum(q2 / c2[:, None] - m2 ** 2, 0.0) / c2[:, None]
    assert np.all(np.abs(m1 - m2) <= 4.0 * np.sqrt(var1 + var2) + 1e-12)


@pytest.mark.parametrize("p", [1.0 / 3.0, 0.4], ids=["flow", "split"])
def test_rounds_stop_with_the_law_of_whole_paths(p, e2_params):
    # rows the first round leaves unstopped are continued and the rule
    # resumes on them: the stopping times have the law of the rule run on
    # paths sampled to the horizon at once
    from scipy.stats import ks_2samp

    from stopgame.model import ChainSampler
    from stopgame.montecarlo import FIRST_ROUND, _blocks, _plays
    from stopgame.pdmp import never_horizon

    slow = _slow_e2(e2_params)
    spec = game_at(ex.e2_game(slow), p, None)
    strat = ex.e2_optimal_mu(slow, p)
    assert strat.case == ("flow" if p < 0.35 else "split")
    horizon, n = never_horizon(slow.r), 4000
    rounds = np.concatenate([mu for *_, mu in _plays(spec, strat, horizon, n, 70)])
    sampler = ChainSampler(slow.R, spec.p0)
    whole = np.concatenate([strat.stopping_times(sampler.sample_block(horizon, rng, m), rng)
                            for rng, m in _blocks(n, 71)])
    assert np.mean(rounds > FIRST_ROUND) > 0.4
    assert np.mean(np.isinf(rounds)) == pytest.approx(np.mean(np.isinf(whole)), abs=0.02)
    assert ks_2samp(rounds[np.isfinite(rounds)], whole[np.isfinite(whole)]).pvalue > 1e-3


def test_opponent_is_sampled_as_far_as_the_play_reads_it(e2_params):
    # Y is drawn to the first round, and only the rows whose play reads it
    # further are continued, to the latest time any of them reads
    from stopgame.montecarlo import FIRST_ROUND, _plays
    from stopgame.pdmp import never_horizon

    spec, strat = _moving_e2(e2_params)
    horizon = never_horizon(spec.r)
    needed = []
    for _, X, Y, mu in _plays(spec, strat, horizon, 3000, 80):
        read = np.minimum(mu, horizon)
        assert np.all(X.ends >= read) and np.all(Y.ends >= read)
        late = read > FIRST_ROUND
        np.testing.assert_array_equal(Y.ends, np.where(late, read.max(initial=0.0), FIRST_ROUND))
        needed.append(read)
    early = np.mean(np.concatenate(needed) <= FIRST_ROUND)
    assert 0.0 < early < 1.0  # both kinds of row occur


def test_certificate_memory_reads_the_opponent_only_as_far_as_needed(e2_params):
    # the traced peak of one certificate on the moving game: opponent paths
    # sampled to the whole horizon in every row push it past the bound
    import tracemalloc

    spec, strat = _moving_e2(e2_params)
    fam = PureResponseFamily.for_game(spec)
    # the first certificate in a process allocates about 0.68 MiB once, so a
    # small one runs first and the peak is the same in any test order
    exploit_gap(spec, strat, 0.0, fam, n=16, seed=0)
    tracemalloc.start()
    try:
        exploit_gap(spec, strat, 0.0, fam, n=20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.38 MiB in blocks of 1,024 rows, after the warm-up (tracemalloc peak,
    # the test run alone and after the rest of this file: 2.376 and 2.374
    # MiB); 6.96 MiB, cold, with the opponent sampled to the horizon in every row
    assert peak < 4.5 * 2 ** 20


def test_rule_without_resume_gets_whole_paths(e2_params):
    # a rule that does not say how far it reads the path (here: stop at the
    # first jump) is given paths sampled to the horizon at once
    from stopgame.montecarlo import _capped, _plays
    from stopgame.pdmp import MixedStoppingStrategy

    class FirstJump(MixedStoppingStrategy):
        def stopping_times(self, paths, rng):
            return paths.times[:, 1]

    slow = _slow_e2(e2_params)
    spec = game_at(ex.e2_game(slow), 0.5, None)
    plays = list(_plays(spec, FirstJump(), 100.0, 1000, 72))
    for _, X, _, mu in plays:
        np.testing.assert_array_equal(X.ends, 100.0)
        np.testing.assert_array_equal(mu, _capped(X.times[:, 1], 100.0))
    assert np.mean(np.concatenate([mu for *_, mu in plays]) > 8.0) > 0.3


def _oracle_cases(e1_spec, e2_spec, e2_params):
    """``(spec, rule, family)`` for the occupancy-count oracle test."""
    import stopgame.model as model

    kink = game_at(e2_spec, 1.0 / 3.0, None)
    split = game_at(e1_spec, 0.75, 0.75)
    # both chains move: the own chain is e2's, so its kink rule applies
    both = model.GameSpec(R=e2_spec.R, Q=[[-0.7, 0.7], [1.3, -1.3]], r=0.5,
                          f=[[2.0, 0.5], [1.0, 3.0]], h=[[-1.0, 0.0], [0.5, 1.5]],
                          p0=[0.4, 0.6], q0=[0.3, 0.7])
    three = _three_state_game()
    # the constant and per-state times sit on the grid: ties pay h
    on_grid = PureResponseFamily(np.unique(np.concatenate(
        [small_family().times, [0.5, 1.0, 2.0, 12.0]])))
    # most rows stop after the first round, so the rules resume on continued
    # rows; the split one against a moving opponent
    slow = _slow_e2(e2_params)
    slow_kink = game_at(ex.e2_game(slow), 1.0 / 3.0, None)
    slow_both = model.GameSpec(R=slow.R, Q=[[-0.07, 0.07], [0.13, -0.13]], r=0.01,
                               f=[[2.0, 0.5], [1.0, 3.0]], h=[[-1.0, 0.0], [0.5, 1.5]],
                               p0=[0.4, 0.6], q0=[0.3, 0.7])
    return [
        (kink, ex.e2_optimal_mu(e2_params, 1.0 / 3.0), PureResponseFamily.for_game(kink)),
        (split, ex.e1_optimal_mu(0.75, 0.75), PureResponseFamily.for_game(split)),
        (both, ex.e2_optimal_mu(e2_params, 0.4), PureResponseFamily.for_game(both)),
        (both, NeverStopStrategy(), small_family()),
        (both, ConstantTimeStrategy(1.0), on_grid),
        (both, StopNowStrategy(), small_family()),
        (three, InitialStateTimeStrategy([0.5, 2.0, 1.0]), on_grid),
        (three, NeverStopStrategy(), PureResponseFamily.for_game(three, n=60)),
        # past the first round: X is continued to the horizon, never re-stopped
        (both, ConstantTimeStrategy(12.0), on_grid),
        (slow_kink, ex.e2_optimal_mu(slow, 1.0 / 3.0), PureResponseFamily.for_game(slow_kink)),
        (slow_both, ex.e2_optimal_mu(slow, 0.4), PureResponseFamily.for_game(slow_both, n=60)),
    ]


def test_occupancy_counts_match_response_matrix(e1_spec, e2_spec, e2_params):
    # the same blocks scored through the (replication x candidate) matrix:
    # counts are equal, sums equal up to how the float sums are grouped
    from per_path_reference import matrix_response_sums
    from stopgame.montecarlo import _response_chunk

    n = 3000  # a partial last block
    for i, (spec, strat, fam) in enumerate(_oracle_cases(e1_spec, e2_spec, e2_params)):
        sums, sumsq, counts, stops = _response_chunk(spec, strat, fam, n, seed=50 + i)
        ref = matrix_response_sums(spec, strat, fam, n, seed=50 + i)
        np.testing.assert_array_equal(counts, ref[2])
        np.testing.assert_array_equal(stops, ref[3])
        np.testing.assert_allclose(sums, ref[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(sumsq, ref[1], rtol=1e-12, atol=0.0)


def test_pair_runs_read_the_states_on_the_grid():
    # a jump on a candidate time is made by that candidate, one past the
    # last candidate by none, as the response matrix read the states
    from per_path_reference import states_on_grid
    from stopgame.model import PathBlock
    from stopgame.montecarlo import _pair_runs

    finite = np.array([0.0, 0.5, 1.0, 2.0])
    X = PathBlock(np.array([[0.0, 0.5, 1.5, math.inf], [0.0, 1.0, 2.0, 3.0]]),
                  np.array([[0, 1, 0, 0], [1, 0, 1, 0]]), 5.0)
    Y = PathBlock(np.array([[0.0, 1.0], [0.0, math.inf]]), np.array([[1, 0], [0, 0]]), 5.0)
    edges, held = _pair_runs(X, Y, np.full(2, math.inf), finite, 2)
    on_grid = np.full((2, finite.size), -1)
    for i in range(2):
        for run, pair in enumerate(held[i]):
            on_grid[i, edges[i, run]:edges[i, run + 1]] = pair
    np.testing.assert_array_equal(on_grid, 2 * states_on_grid(X, finite)
                                  + states_on_grid(Y, finite))


def test_certify_numbers_are_pinned():
    # the two certificates of the benchmark's certify-mc workload: the
    # samples, stop counts and argmins are pinned exactly, the gaps to
    # rounding
    e2 = ex.REFERENCE_E2
    e2_game = game_at(ex.e2_game(e2), 1.0 / 3.0, None)
    e1_game = game_at(ex.e1_game(1.0), 0.75, 0.75)
    certs = [
        (e2_game, ex.e2_optimal_mu(e2, 1.0 / 3.0), ex.e2_value(e2, 1.0 / 3.0), 1,
         -0.012066187762234115, {"zero": 0, "flow": 20000, "never": 0},
         {0: 0.30124863208200736}),
        (e1_game, ex.e1_optimal_mu(0.75, 0.75), ex.e1_value(0.75, 0.75), 2,
         -0.013795631366103012, {"zero": 13273, "flow": 1639, "never": 5088},
         {0: math.inf, 1: 0.21690669548529384}),
    ]
    for spec, strat, claim, seed, gap, stop_counts, argmin in certs:
        rep = exploit_gap(spec, strat, claim, PureResponseFamily.for_game(spec),
                          n=20_000, seed=seed)
        assert rep.stop_counts == stop_counts
        assert rep.argmin == argmin
        assert abs(rep.gap - gap) <= 1e-12
        assert rep.gap >= -3.0 * rep.std_error - 0.05  # the workload's floor


def test_coarse_family_flag(tmp_path):
    # responder's optimum sits beyond the truncated grid: argmin lands on the
    # largest finite time and the coarseness flag fires, in the best
    # response, the gap report and the verify JSON
    import json

    import stopgame.model as model
    from stopgame.cli import main

    R = np.array([[-1.0, 1.0], [1.0, -1.0]])
    spec = model.GameSpec(R=R, Q=np.zeros((1, 1)), r=0.01,
                          f=[[-2.0], [-1.0]], h=[[-3.0], [-2.0]],
                          p0=[0.1, 0.9], q0=[1.0])
    fam = PureResponseFamily(np.concatenate([[0.0], np.geomspace(0.01, 0.6, 12),
                                             [math.inf]]))
    br = best_response_value(spec, NeverStopStrategy(), fam, n=2000, seed=10)
    assert br.coarse_flag
    assert br.argmin[0] == pytest.approx(0.6)
    gap = exploit_gap(spec, NeverStopStrategy(), -2.0, fam, n=2000, seed=10)
    assert gap.coarse_flag and gap.to_payload()["coarse_flag"] is True
    assert gap.best_response == br.value
    # a -inf claim plays too, so its report carries the played flag
    played = best_response_value(spec, NeverStopStrategy(), fam, n=10, seed=0)
    assert exploit_gap(spec, NeverStopStrategy(), -math.inf, fam, 10).coarse_flag == \
        played.coarse_flag

    game, strat, out = tmp_path / "g.json", tmp_path / "s.json", tmp_path / "r.json"
    game.write_text(spec.to_json())
    strat.write_text(json.dumps({"strategy": {"case": "never"}, "value_claim": -2.0}))
    verify = ["verify", "optimality", "--game", str(game), "--strategy", str(strat),
              "--n", "2000", "--seed", "10", "--out", str(out)]
    # --times 1: one finite time, 1e-3/r = 0.1, short of the optimum
    assert main(verify + ["--times", "1"]) == 0
    assert json.loads(out.read_text())["coarse_flag"] is True
    assert main(verify) == 0  # the default grid reaches the discount horizon
    assert json.loads(out.read_text())["coarse_flag"] is False


def test_exhaustive_flag(e1_spec, e2_spec):
    fam = small_family()
    assert fam.exhaustive_for(e2_spec)          # singleton side
    assert fam.exhaustive_for(e1_spec)          # frozen chain
    moving = game_at(e2_spec, 0.5, None)
    spec = ex.e2_game(ex.REFERENCE_E2)
    import stopgame.model as model

    both_moving = model.GameSpec(R=spec.R, Q=spec.R, r=0.1,
                                 f=np.full((2, 2), 2.0), h=np.full((2, 2), 1.0),
                                 p0=[0.5, 0.5], q0=[0.5, 0.5])
    assert not fam.exhaustive_for(both_moving)
