import math

import numpy as np
import pytest

from stopgame.errors import InputError
from stopgame.conjugate import dual_flow
from stopgame.model import (ChainSampler, GameSpec, PathBlock, _expm, _propagate,
                            as_generator, as_simplex, bilinear_payoff, marginal_flow,
                            philox_rng, realized_payoffs)
from stopgame.montecarlo import _blocks, belief_consistency
from stopgame.pdmp import NeverStopStrategy

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


def test_marginal_flow_rejects_negative_time():
    # a backward flow is no law; p = [1, 0] used to fail as a "negative probability"
    for p in ([0.5, 0.5], [1.0, 0.0]):
        with pytest.raises(InputError, match="nonnegative"):
            marginal_flow(p, FLIP, -0.5)


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


def test_marginal_flow_rejects_bad_generators():
    # checked before any exponential, as GameSpec checks them
    for G, match in (([[math.nan, 0.0], [0.0, 0.0]], "finite"),
                     ([[1.0, 2.0], [0.0, 0.0]], "sum to 0"),
                     ([[-1.0, 1.0], [-1.0, 1.0]], "negative off-diagonal"),
                     (np.zeros((3, 3)), "2x2"),
                     ([0.0, 0.0], "square")):
        with pytest.raises(InputError, match=match):
            marginal_flow([0.5, 0.5], G, 1.0)


def _closed_form_2x2(a, b, s):
    """``expm(s * [[-a, a], [b, -b]])`` for any real ``s``, each entry a sum
    of same-signed terms."""
    x, pi0, pi1 = -(a + b) * s, b / (a + b), a / (a + b)
    return np.array([[pi0 + math.exp(x) * pi1, -math.expm1(x) * pi1],
                     [-math.expm1(x) * pi0, pi1 + math.exp(x) * pi0]])


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_expm_against_scipy_and_closed_form(K):
    # scaling and squaring of a Taylor polynomial: on seeded generators with
    # t |G|_1 up to 1e3 it agrees with scipy to 1e-12 of the largest entry,
    # keeps the columns of e^(tG^T) stochastic and no entry negative.  The
    # slope flow t(rI - R) (not Metzler) is checked up to a 1-norm of 4: at
    # 10 scipy itself is off by up to 1.4e-12 of the largest entry against a
    # 50-digit mpmath reference, where this stays within 3e-15
    from scipy.linalg import expm

    rng = np.random.default_rng(K)
    for _ in range(150):
        G = rng.exponential(1.0, size=(K, K)) * (rng.random((K, K)) < 0.8)
        np.fill_diagonal(G, 0.0)
        G -= np.diag(G.sum(axis=1))
        norm = float(np.abs(G).sum(axis=0).max())
        if norm == 0.0:
            continue
        t = 10.0 ** rng.uniform(-6.0, 3.0) / norm
        r = rng.uniform(0.01, 2.0)
        slope_t = min(t, 4.0 / (norm + r))
        flow = _expm(t * G.T)
        slope = _expm(slope_t * (r * np.eye(K) - G))
        for got, a in ((flow, t * G.T), (slope, slope_t * (r * np.eye(K) - G))):
            want = expm(a)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert flow.min() >= 0.0
        assert np.abs(flow.sum(axis=0) - 1.0).max() <= 1e-12
        if K == 2:
            a, b = G[0, 1], G[1, 0]
            np.testing.assert_allclose(flow, _closed_form_2x2(a, b, t).T, rtol=1e-12, atol=0.0)
            want = math.exp(r * slope_t) * _closed_form_2x2(a, b, -slope_t)
            np.testing.assert_allclose(slope, want, rtol=1e-12, atol=0.0)


def test_expm_of_non_finite_or_huge_input_returns():
    # a bounded number of squarings: no hang and no OverflowError
    with np.errstate(all="ignore"):
        for a in ([[math.nan, 0.0], [0.0, 0.0]], [[math.inf, 0.0], [0.0, 0.0]],
                  [[-math.inf, 0.0], [0.0, 0.0]], [[-1e308, 1e308], [1e308, -1e308]],
                  [[1e308, 1e308], [1e308, 1e308]]):
            assert _expm(np.array(a)).shape == (2, 2)
    np.testing.assert_array_equal(_expm(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_expm_stops_squaring_at_the_stationary_law(K):
    # past the mixing time every plain squaring would double the column-sum
    # drift (1e-9 at t = 1e7, 1e-2 at 1e14); the law propagator rescales the
    # columns of each square to 1, so the law stays stochastic at any time
    rng = np.random.default_rng(100 + K)
    for _ in range(5):
        G = rng.exponential(1.0, size=(K, K))
        np.fill_diagonal(G, 0.0)
        G -= np.diag(G.sum(axis=1))
        G /= np.abs(G).sum(axis=0).max()
        p = rng.dirichlet(np.ones(K))
        # the stationary law: pi^T G = 0, sum(pi) = 1
        pi = np.linalg.lstsq(np.vstack([G.T, np.ones(K)]), np.eye(K + 1)[K], rcond=None)[0]
        for t in (1e7, 1e8, 1e14):
            # row k is the law from state k: column k of e^(tG^T)
            moved = _propagate(np.eye(K), G, t)
            assert np.abs(moved.sum(axis=1) - 1.0).max() <= 1e-12
            np.testing.assert_allclose(moved, np.tile(pi, (K, 1)), rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(marginal_flow(p, G, t), pi, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(marginal_flow([1.0, 0.0], FLIP, 1e7), [0.5, 0.5])


def _spectral_flow(eps: float, t: float) -> np.ndarray:
    """``e^(tG)`` of the symmetric ``G`` of :func:`test_nearly_decomposable_laws_stay_exact`,
    from its spectral decomposition in 80 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        e = mp.mpf(eps)
        lam, vec = mp.eigsy(mp.matrix([[-1, 1, 0], [1, -1 - e, e], [0, e, -e]]))
        out = mp.zeros(3, 3)
        for i in range(3):
            out += mp.exp(t * lam[i]) * (vec[:, i] * vec[:, i].T)
        return np.array(out.tolist(), dtype=float)


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12, 1e-20])
def test_nearly_decomposable_laws_stay_exact(eps):
    # a slow mode keeps the powers moving, so no squaring could stop early:
    # plain squarings drifted the column sums of e^(tG^T) by up to 1.5e-2
    # (eps = 1e-20, t = 1e14), the laws by up to 3e-5 after renormalizing,
    # and marginal_flow raised at eps = 1e-6, t = 1e9
    G = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0 - eps, eps], [0.0, eps, -eps]])
    p = np.array([0.2, 0.3, 0.5])
    for t in (1e3, 1e6, 1e9, 1e10, 1e12, 1e14):
        want = _spectral_flow(eps, t)
        moved = _propagate(np.eye(3), G, t)
        assert np.abs(moved.sum(axis=1) - 1.0).max() <= 1e-12
        np.testing.assert_allclose(moved, want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(marginal_flow(p, G, t), p @ want, rtol=0.0, atol=1e-12)


# every class and function that takes a chain checks it with as_chain
CHAIN_TAKERS = {
    "GameSpec.R": lambda G, p: GameSpec(R=G, Q=[[0.0]], r=1.0, f=np.ones((2, 1)),
                                        h=np.zeros((2, 1)), p0=p, q0=[1.0]),
    "GameSpec.Q": lambda G, p: GameSpec(R=[[0.0]], Q=G, r=1.0, f=np.ones((1, 2)),
                                        h=np.zeros((1, 2)), p0=[1.0], q0=p),
    "ChainSampler": ChainSampler,
    "marginal_flow": lambda G, p: marginal_flow(p, G, 1.0),
    "NeverStopStrategy": NeverStopStrategy,
    "dual_flow": lambda G, p: dual_flow([1.0, 0.0], p, FLIP, G, 0.5, 1.0),
    "belief_consistency": lambda G, p: belief_consistency(NeverStopStrategy(FLIP, p), G,
                                                          1.0, 100),
}


@pytest.mark.parametrize("take", CHAIN_TAKERS.values(), ids=CHAIN_TAKERS)
def test_chain_takers_reject_a_law_on_other_states(take):
    # ChainSampler, and so belief_consistency, used to fail with numpy's
    # "operands could not be broadcast"
    with pytest.raises(InputError, match="2x2 to match the law.s dimensions"):
        take(np.zeros((3, 3)), [0.5, 0.5])


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


def test_realized_payoffs_check_each_rows_end(e1_spec):
    # the rows of a block may end at different times, and each is read
    # only up to its own end
    X = PathBlock(np.zeros((2, 1)), np.zeros((2, 1), dtype=np.int64), np.array([10.0, 1.0]))
    Y = _flat(0, n=2)
    never = np.full(2, math.inf)
    realized_payoffs(e1_spec, X, Y, np.array([5.0, 0.5]), never)
    with pytest.raises(InputError, match="shorter than the realized stopping time"):
        realized_payoffs(e1_spec, X, Y, np.array([0.5, 5.0]), never)
    with pytest.raises(InputError, match="shorter than the realized stopping time"):
        realized_payoffs(e1_spec, Y, X, never, np.array([0.5, 5.0]))


def test_philox_keys_stay_within_64_bits():
    # the key is seed * 2^64 + stream: stream 2^64 of seed 0 would be
    # stream 0 of seed 1, and a seed of 2^64 is past numpy's 128-bit key
    for seed, stream in ((2**64, 0), (0, 2**64), (-1, 0), (0, -1)):
        with pytest.raises(InputError, match="2\\*\\*64"):
            philox_rng(seed, stream)
    philox_rng(2**64 - 1, 2**64 - 1)


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


@pytest.mark.parametrize("G,p", [(np.array([[-0.8, 0.8], [0.5, -0.5]]), [0.3, 0.7]),
                                 (THREE, [0.2, 0.5, 0.3])], ids=["two_state", "event_loop"])
def test_continued_block_has_the_law_of_a_direct_one(G, p):
    # a block sampled to H and continued from the states it holds there to
    # 2H has the law of a block sampled to 2H at once (Markov property)
    sampler = ChainSampler(G, p)
    H, n = 3.0, 20_000
    direct = sampler.sample_block(2.0 * H, philox_rng(60), n)
    rng = philox_rng(61)
    first = sampler.sample_block(H, rng, n)
    more = sampler.extend(first, 2.0 * H, rng)
    np.testing.assert_array_equal(more.times[:, 0], H)
    np.testing.assert_array_equal(more.initial_states, first.states_at(np.full(n, H)))
    joined = first.joined(np.arange(n), more)
    np.testing.assert_array_equal(joined.ends, 2.0 * H)
    # the first round's rows are a prefix of the joined ones
    width = first.times.shape[1]
    head = np.isfinite(first.times)
    np.testing.assert_array_equal(joined.times[:, :width][head], first.times[head])
    np.testing.assert_array_equal(joined.states[:, :width][head], first.states[head])
    valid = np.isfinite(joined.times)
    assert np.all(valid[:, 1:] <= valid[:, :-1])
    assert np.all((joined.times[:, 1:] > joined.times[:, :-1])[valid[:, 1:]])
    assert np.all((joined.states[:, 1:] != joined.states[:, :-1])[valid[:, 1:]])

    def close(a, b):
        # two samples of n: equal means within 4 standard errors
        se = math.sqrt((a.var() + b.var()) / n)
        assert abs(a.mean() - b.mean()) <= 4.0 * se + 1e-12

    at = {t: [block.states_at(np.full(n, t)) for block in (direct, joined)]
          for t in (0.5 * H, H, 1.5 * H, 2.0 * H)}
    for t, states in at.items():
        for k in range(len(p)):
            close(*(1.0 * (s == k) for s in states))
    # and the pair held across the cut
    for k in range(len(p)):
        for l in range(len(p)):
            close(*(1.0 * ((a == k) & (b == l)) for a, b in zip(at[H], at[2.0 * H])))
    for lo, hi in ((0.0, 2.0 * H), (H, 2.0 * H)):
        close(*(((block.times > lo) & (block.times <= hi)).sum(axis=1) * 1.0
                for block in (direct, joined)))
