"""Monte Carlo code the package replaced, kept as test oracles.

These are the one-path-at-a-time chain sampler, the segment and split
stopping rules, the per-replication response rows and the block-wise
(replication x candidate) response matrix.  On a shared stream the
batched code must return bit for bit the paths and stopping times of the
first three and match the per-replication rows in law; on the same
blocks it must count exactly what the response matrix counts and sum to
its sums up to rounding.  Paths are :class:`OnePath` records,
independent of the package's :class:`~stopgame.model.PathBlock`.
"""

import math
from dataclasses import dataclass

import numpy as np

from stopgame.model import ChainSampler, PathBlock, philox_rng
from stopgame.montecarlo import STOP_KINDS, _plays
from stopgame.pdmp import (_ZERO_P, FlowIntensityStrategy,
                           SplitThenFlowStrategy, never_horizon)


@dataclass(frozen=True)
class OnePath:
    """One path on ``[0, horizon]``: time 0 and the jump times, and the state held from each."""

    times: np.ndarray
    states: np.ndarray
    horizon: float

    @classmethod
    def of(cls, paths: PathBlock) -> "OnePath":
        """The path of a one-row block."""
        (times,), (states,) = paths.times, paths.states
        return cls(times, states.astype(np.int64), float(paths.ends[0]))

    def block(self) -> PathBlock:
        return PathBlock(self.times[None, :], self.states[None, :], self.horizon)

    @property
    def initial_state(self) -> int:
        return int(self.states[0])

    def state_at(self, t: float) -> int:
        return int(self.states[np.searchsorted(self.times, t, side="right") - 1])


def sample_path(sampler: ChainSampler, horizon: float, rng) -> OnePath:
    state = int(np.searchsorted(sampler.p_cum, rng.random(), side="right"))
    if sampler.K == 2:
        return _two_state(sampler, state, horizon, rng)
    times = [0.0]
    states = [state]
    t = 0.0
    while True:
        rate = sampler.rates[state]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t > horizon:
            break
        state = int(np.searchsorted(sampler.kernel_cum[state], rng.random(), side="right"))
        times.append(t)
        states.append(state)
    return OnePath(np.array(times), np.array(states, dtype=np.int64), horizon)


def _two_state(sampler, state: int, horizon: float, rng) -> OnePath:
    times = [np.zeros(1)]
    all_states = [np.array([state], dtype=np.int64)]
    t, s = 0.0, state
    while True:
        rate_now, rate_next = sampler.rates[s], sampler.rates[1 - s]
        if rate_now <= 0.0:
            break
        pair_mean = 1.0 / rate_now + (1.0 / rate_next if rate_next > 0 else 0.0)
        expect = (horizon - t) / pair_mean * 2.0 if pair_mean > 0 else 8.0
        n = int(expect + 10.0 * math.sqrt(expect + 1.0)) + 16
        draws = np.maximum(rng.exponential(size=n), 1e-300)
        scales = np.empty(n)
        with np.errstate(divide="ignore"):
            scales[0::2] = 1.0 / rate_now if rate_now > 0 else np.inf
            scales[1::2] = 1.0 / rate_next if rate_next > 0 else np.inf
        jumps = t + np.cumsum(draws * scales)
        cut = int(np.searchsorted(jumps, horizon, side="right"))
        seq = np.empty(min(cut, n), dtype=np.int64)
        seq[0::2] = 1 - s
        seq[1::2] = s
        times.append(jumps[:cut])
        all_states.append(seq)
        if cut < n:
            break
        t = float(jumps[-1])
        s = int(seq[-1]) if cut else s
    return OnePath(np.concatenate(times), np.concatenate(all_states), horizon)


def _cumulative(hazard, k: int, t: float) -> float:
    if t >= hazard.ts[-1]:
        return float(hazard.H[-1, k] + hazard.tail_rate[k] * (t - hazard.ts[-1]))
    return float(np.interp(t, hazard.ts, hazard.H[:, k]))


def hazard_inverse(hazard, k: int, t0: float, excess: float) -> float:
    """Smallest t >= t0 with H[k](t) - H[k](t0) >= excess (inf if never)."""
    target = _cumulative(hazard, k, t0) + excess
    Hk = hazard.H[:, k]
    if target <= Hk[-1]:
        i = int(np.searchsorted(Hk, target, side="left"))
        if i == 0:
            return float(hazard.ts[0])
        h0, h1 = Hk[i - 1], Hk[i]
        w = 0.0 if h1 == h0 else (target - h0) / (h1 - h0)
        t = float(hazard.ts[i - 1] + w * (hazard.ts[i] - hazard.ts[i - 1]))
        return max(t, t0)
    if hazard.tail_rate[k] > 0.0:
        return max(float(hazard.ts[-1] + (target - Hk[-1]) / hazard.tail_rate[k]), t0)
    return math.inf


def segment_stopping_time(flow, traj: OnePath, rng) -> float:
    """The ``segment`` mechanisation of a FlowIntensityStrategy."""
    end = min(traj.horizon, flow.t_max)
    times = traj.times
    states = traj.states
    for n in range(times.size):
        seg_start = float(times[n])
        seg_end = float(times[n + 1]) if n + 1 < times.size else end
        if seg_start >= end:
            break
        seg_end = min(seg_end, end)
        excess = rng.exponential(1.0)
        t = hazard_inverse(flow.hazard, int(states[n]), seg_start, excess)
        if t < seg_end:
            return t
    return math.inf


def split_stopping_time(split, traj: OnePath, rng) -> float:
    k = traj.initial_state
    p_k = float(split.char.p_part(split.z)[k])
    stop_k = float(split.char.p_part(split.z_stop)[k])
    prob = 0.0 if p_k <= _ZERO_P else min(1.0, split.m * stop_k / p_k)
    if rng.uniform() < prob:
        return 0.0
    return segment_stopping_time(split.flow, traj, rng)


def reference_stopping_time(strategy, traj: OnePath, rng) -> float:
    """Segment and split rules through the code above, the others as they are."""
    if isinstance(strategy, SplitThenFlowStrategy):
        return split_stopping_time(strategy, traj, rng)
    if isinstance(strategy, FlowIntensityStrategy):
        return segment_stopping_time(strategy, traj, rng)
    return float(strategy.stopping_times(traj.block(), rng)[0])


def response_sums(spec, strat1, family, n: int, seed: int):
    """Per-replication response rows on streams ``philox_rng(seed, i)``.

    Returns sums, sums of squares and counts per (opponent initial state,
    candidate), the last candidate being the never-stop response.
    """
    finite = family.times[:-1]
    g = finite.size
    horizon = max(float(finite[-1]), never_horizon(spec.r), 1.0)
    sx = ChainSampler(spec.R, spec.p0)
    sy = ChainSampler(spec.Q, spec.q0)
    L = spec.L
    sums = np.zeros((L, g + 1))
    sumsq = np.zeros((L, g + 1))
    counts = np.zeros(L)
    disc = np.exp(-spec.r * finite)
    for i in range(n):
        rng = philox_rng(seed, i)
        X = sample_path(sx, horizon, rng)
        Y = sample_path(sy, horizon, rng)
        mu = reference_stopping_time(strat1, X, rng)
        mu = mu if mu <= horizon else math.inf
        xs = X.states[np.searchsorted(X.times, finite, side="right") - 1]
        ys = Y.states[np.searchsorted(Y.times, finite, side="right") - 1]
        row = np.empty(g + 1)
        if math.isinf(mu):
            h_payoff = 0.0
            before = np.ones(g, dtype=bool)
        else:
            h_payoff = math.exp(-spec.r * mu) * spec.h[X.state_at(mu), Y.state_at(mu)]
            before = finite < mu
        row[:g] = np.where(before, disc * spec.f[xs, ys], h_payoff)
        row[g] = h_payoff
        sums[Y.initial_state] += row
        sumsq[Y.initial_state] += row * row
        counts[Y.initial_state] += 1.0
    return sums, sumsq, counts


def states_on_grid(paths: PathBlock, grid: np.ndarray) -> np.ndarray:
    """``(n, grid.size)`` states at shared increasing times inside the horizon.

    Every jump is binned at the first grid time it precedes; a running
    count of the bins is the number of jumps made by each grid time.
    """
    n, g = paths.n, grid.size
    bins = np.searchsorted(grid, paths.times[:, 1:], side="left")
    bins += np.arange(0, n * (g + 1), g + 1)[:, None]
    made = np.bincount(bins.ravel(), minlength=n * (g + 1)).reshape(n, g + 1)
    np.cumsum(made, axis=1, out=made)
    # jumps made by each grid time, as flat indices into the states
    made += np.arange(0, n * paths.states.shape[1], paths.states.shape[1])[:, None]
    return paths.states.ravel()[made[:, :g]]


def matrix_response_sums(spec, strat1, family, n: int, seed: int):
    """``montecarlo._response_chunk`` through a (replication x candidate) matrix.

    Same blocks (it plays ``montecarlo._plays``), streams and return
    values; each block scores every candidate of every row, the last
    column being the never-stop response.
    """
    finite = family.times[:-1]
    g = finite.size
    horizon = max(float(finite[-1]), never_horizon(spec.r), 1.0)
    L = spec.L
    sums = np.zeros((L, g + 1))
    sumsq = np.zeros((L, g + 1))
    counts = np.zeros(L)
    stops = np.zeros(len(STOP_KINDS), dtype=np.int64)
    disc = np.exp(-spec.r * finite)
    for _, X, Y, mu in _plays(spec, strat1, horizon, n, seed):
        m = mu.size
        stopped = np.isfinite(mu)
        zero, n_stopped = int((mu == 0.0).sum()), int(stopped.sum())
        stops += [zero, n_stopped - zero, m - n_stopped]
        h_payoff = np.zeros(m)
        h_payoff[stopped] = np.exp(-spec.r * mu[stopped]) * spec.h[
            X.states_at(mu)[stopped], Y.states_at(mu)[stopped]]
        # response[i, c]: payoff when the opponent stops at candidate c,
        # unless the strategy stopped strictly before it
        response = np.empty((m, g + 1))
        response[:, :g] = spec.f[states_on_grid(X, finite), states_on_grid(Y, finite)]
        response[:, :g] *= disc
        response[:, g] = h_payoff
        np.copyto(response[:, :g], h_payoff[:, None], where=finite >= mu[:, None])
        groups = [(Y.initial_states == j)[:, None] for j in range(L)]
        for j, mine in enumerate(groups):
            counts[j] += mine.sum()
            sums[j] += response.sum(axis=0, where=mine)
        np.square(response, out=response)
        for j, mine in enumerate(groups):
            sumsq[j] += response.sum(axis=0, where=mine)
    return sums, sumsq, counts, stops
