import math

import numpy as np
import pytest

from stopgame.errors import InputError
from stopgame.model import (ChainSampler, GameSpec, PathBlock, as_generator,
                            as_simplex, bilinear_payoff, marginal_flow,
                            philox_rng, realized_payoffs)
from stopgame.montecarlo import _blocks

FLIP = np.array([[-1.0, 1.0], [1.0, -1.0]])


def test_simplex_validation():
    np.testing.assert_allclose(as_simplex([0.25, 0.75]), [0.25, 0.75])
    # tiny negatives clamp and renormalize
    w = as_simplex([1.0 + 5e-13, -5e-13])
    assert w[1] == 0.0 and abs(w.sum() - 1.0) < 1e-15
    with pytest.raises(InputError):
        as_simplex([1.1, -0.1])
    with pytest.raises(InputError):
        as_simplex([0.6, 0.6])
    for bad in ([math.nan, 1.0], [math.inf, 0.0], [1.0, -math.inf]):
        with pytest.raises(InputError):
            as_simplex(bad)


def test_generator_validation():
    as_generator(FLIP)
    with pytest.raises(InputError):
        as_generator([[-1.0, 0.5], [1.0, -1.0]])
    with pytest.raises(InputError):
        as_generator([[0.0, -1.0], [1.0, 0.0]])
    for bad in ([[math.nan, 1.0], [1.0, -1.0]], [[-math.inf, math.inf], [1.0, -1.0]]):
        with pytest.raises(InputError):
            as_generator(bad)


def test_gamespec_validation():
    with pytest.raises(InputError):
        GameSpec(R=np.zeros((2, 2)), Q=np.zeros((2, 2)), r=1.0,
                 f=[[0, 0], [0, 0]], h=[[1, 0], [0, 0]], p0=[1, 0], q0=[1, 0])
    with pytest.raises(InputError):
        GameSpec(R=np.zeros((2, 2)), Q=np.zeros((2, 2)), r=0.0,
                 f=[[1, 1], [1, 1]], h=[[0, 0], [0, 0]], p0=[1, 0], q0=[1, 0])


@pytest.mark.parametrize("field,value", [
    ("f", [[math.nan, 1], [1, 1]]), ("f", [[math.inf, 1], [1, 1]]),
    ("h", [[math.nan, 0], [0, 0]]), ("h", [[-math.inf, 0], [0, 0]]),
    ("R", [[math.nan, 0.0], [0.0, 0.0]]), ("r", math.inf), ("r", math.nan),
])
def test_gamespec_rejects_non_finite(field, value):
    args = dict(R=np.zeros((2, 2)), Q=np.zeros((2, 2)), r=1.0, f=[[1, 1], [1, 1]],
                h=[[0, 0], [0, 0]], p0=[1, 0], q0=[1, 0])
    args[field] = value
    with pytest.raises(InputError):
        GameSpec(**args)


def test_gamespec_json_roundtrip(e1_spec):
    again = GameSpec.from_json(e1_spec.to_json())
    np.testing.assert_array_equal(again.f, e1_spec.f)
    np.testing.assert_array_equal(again.h, e1_spec.h)
    assert again.r == e1_spec.r


def test_marginal_flow_zero_generator():
    p = np.array([0.3, 0.7])
    np.testing.assert_array_equal(marginal_flow(p, np.zeros((2, 2)), 5.0), p)


def test_marginal_flow_closed_form():
    # p_t(0) = 1/2 + (1 - 1/2) exp(-2t) for the symmetric flip chain
    got = marginal_flow([1.0, 0.0], FLIP, math.log(2.0))
    np.testing.assert_allclose(got, [0.625, 0.375], atol=1e-14)


def test_marginal_flow_ergodic_limit():
    got = marginal_flow([1.0, 0.0], FLIP, 50.0)
    np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_marginal_flow_semigroup(seed):
    rng = np.random.default_rng(seed)
    K = 3
    G = rng.uniform(0.0, 2.0, size=(K, K))
    np.fill_diagonal(G, 0.0)
    G -= np.diag(G.sum(axis=1))
    p = as_simplex(rng.dirichlet(np.ones(K)))
    s, t = rng.uniform(0.1, 2.0, size=2)
    direct = marginal_flow(p, G, s + t)
    nested = marginal_flow(marginal_flow(p, G, s), G, t)
    np.testing.assert_allclose(direct, nested, atol=1e-10)


def test_simulate_chain_zero_generator():
    paths = ChainSampler(np.zeros((2, 2)), [0.5, 0.5]).sample_block(10.0, philox_rng(0), 1)
    assert paths.n_jumps == 0 and paths.times.shape == (1, 1)
    assert paths.states_at(np.array([10.0]))[0] == paths.initial_states[0]


def test_simulate_chain_jump_count():
    # rate 1 in both states: number of jumps on [0, 10] is Poisson(10)
    sampler = ChainSampler(FLIP, [1.0, 0.0])
    n = 100_000
    counts = np.concatenate([
        np.isfinite(sampler.sample_block(10.0, rng, m).times).sum(axis=1) - 1.0
        for rng, m in _blocks(n, 1)])
    assert counts.size == n
    se = counts.std() / math.sqrt(n)
    assert abs(counts.mean() - 10.0) <= 3.0 * se


def test_simulate_chain_matches_marginal_flow():
    sampler = ChainSampler(FLIP, [1.0, 0.0])
    n = 100_000
    t = math.log(2.0)
    hits = sum(int((sampler.sample_block(1.0, rng, m).states_at(np.full(m, t)) == 0).sum())
               for rng, m in _blocks(n, 2))
    p_hat = hits / n
    se = math.sqrt(0.625 * 0.375 / n)
    assert abs(p_hat - 0.625) <= 3.0 * se


def test_simulate_chain_absorbing_state():
    G = np.array([[-1.0, 1.0], [0.0, 0.0]])  # state 1 absorbs
    paths = ChainSampler(G, [1.0, 0.0]).sample_block(50.0, philox_rng(3), 1)
    assert paths.n_jumps <= 1
    assert paths.states_at(np.array([50.0]))[0] == 1 or paths.n_jumps == 0


def test_bilinear_payoff_examples(e1_spec):
    # chart form h = 3p + 2q - 4, f = 2p + 3q - 1
    assert bilinear_payoff(e1_spec.h, [1, 0], [1, 0]) == pytest.approx(1.0)
    assert bilinear_payoff(e1_spec.f, [0, 1], [0, 1]) == pytest.approx(-1.0)
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    for k in range(2):
        for l in range(2):
            dk = np.eye(2)[k]
            dl = np.eye(2)[l]
            assert bilinear_payoff(M, dk, dl) == M[k, l]
    with pytest.raises(InputError):
        bilinear_payoff(M, [1, 0, 0], [1, 0])


def _flat(state, horizon=100.0, n=1):
    """``n`` rows that hold ``state`` on ``[0, horizon]``."""
    return PathBlock(np.zeros((n, 1)), np.full((n, 1), state), horizon)


def test_realized_payoff_conventions(e1_spec):
    # h[0, 0] = 1 and f[0, 0] = 4, so the payoff tells who stopped
    assert e1_spec.h[0, 0] != e1_spec.f[0, 0]
    X, Y = _flat(0, n=4), _flat(0, n=4)
    mu = np.array([0.0, 0.0, 3.0, math.inf])
    nu = np.array([5.0, 0.0, 0.0, math.inf])  # player 1 first, tie, player 2 first, nobody
    got = realized_payoffs(e1_spec, X, Y, mu, nu)
    np.testing.assert_array_equal(got, [e1_spec.h[0, 0], e1_spec.h[0, 0], e1_spec.f[0, 0], 0.0])


def test_realized_payoff_monotone_shift(e1_spec):
    c = 0.7
    shifted = GameSpec(R=e1_spec.R, Q=e1_spec.Q, r=e1_spec.r,
                       f=e1_spec.f + c, h=e1_spec.h + c,
                       p0=e1_spec.p0, q0=e1_spec.q0)
    X, Y = _flat(0, n=3), _flat(1, n=3)
    mu, nu = np.array([0.3, 4.0, 0.0]), np.array([2.0, 1.2, 0.0])
    base = realized_payoffs(e1_spec, X, Y, mu, nu)
    up = realized_payoffs(shifted, X, Y, mu, nu)
    for shift, first in zip(up - base, np.minimum(mu, nu)):
        assert shift == pytest.approx(c * math.exp(-e1_spec.r * first))


def test_realized_payoff_short_trajectory(e1_spec):
    X = _flat(0, horizon=1.0)
    Y = _flat(0, horizon=100.0)
    with pytest.raises(InputError):
        realized_payoffs(e1_spec, X, Y, np.array([2.0]), np.array([5.0]))
    with pytest.raises(InputError):
        realized_payoffs(e1_spec, Y, Y, np.array([-1.0]), np.array([5.0]))


def test_philox_streams_reproducible():
    a = philox_rng(7, 3).standard_normal(4)
    b = philox_rng(7, 3).standard_normal(4)
    c = philox_rng(7, 4).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


THREE = np.array([[-1.0, 0.6, 0.4], [0.3, -0.5, 0.2], [0.9, 0.9, -1.8]])
ABSORBING_THREE = np.array([[-1.0, 0.5, 0.5], [0.2, -0.3, 0.1], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("G,p,horizon", [
    (FLIP, [0.3, 0.7], 10.0),
    (np.array([[-0.3, 0.3], [0.2, -0.2]]), [1.0, 0.0], 184.0),
    (np.array([[-1.0, 1.0], [0.0, 0.0]]), [0.6, 0.4], 5.0),
    (np.array([[0.0, 0.0], [2.0, -2.0]]), [0.5, 0.5], 3.0),
    (np.zeros((2, 2)), [0.5, 0.5], 4.0),
    (THREE, [0.2, 0.5, 0.3], 20.0),
    (ABSORBING_THREE, [0.3, 0.3, 0.4], 20.0),
])
def test_sample_matches_per_path_reference(G, p, horizon):
    # a one-row view of the block sampler draws exactly what the
    # per-path sampler drew from the same stream
    from per_path_reference import sample_path

    sampler = ChainSampler(G, p)
    for i in range(200):
        rng_got, rng_want = philox_rng(21, i), philox_rng(21, i)
        got = sampler.sample(horizon, rng_got)
        want = sample_path(sampler, horizon, rng_want)
        # one row, with no +inf padding
        np.testing.assert_array_equal(got.times, want.times[None, :])
        np.testing.assert_array_equal(got.states, want.states[None, :])
        assert rng_got.random() == rng_want.random()  # and left the stream at the same place


def test_three_state_chain_law_and_invariants():
    sampler = ChainSampler(THREE, [0.2, 0.5, 0.3])
    horizon, t, blocks = 4.0, 1.3, 80
    paths = [sampler.sample_block(horizon, philox_rng(22, b), 250) for b in range(blocks)]
    n = 250 * blocks
    at_t = np.concatenate([block.states_at(np.full(block.n, t)) for block in paths])
    expected = marginal_flow([0.2, 0.5, 0.3], THREE, t)
    for k in range(3):
        se = math.sqrt(expected[k] * (1 - expected[k]) / n)
        assert abs(np.mean(at_t == k) - expected[k]) <= 3.0 * se
    for block in paths:
        times, states = block.times, block.states
        valid = np.isfinite(times)
        assert np.all(times[:, 0] == 0.0) and np.all(times[valid] <= horizon)
        # finite times form a prefix of each row, strictly increasing
        assert np.all(valid[:, 1:] <= valid[:, :-1])
        assert np.all((times[:, 1:] > times[:, :-1])[valid[:, 1:]])
        assert np.all((states[:, 1:] != states[:, :-1])[valid[:, 1:]])
