"""Payoff estimation, best responses over pure families, optimality gaps.

Replications run in blocks of ``BLOCK`` rows: block ``b`` holds
replications ``b * BLOCK`` up to the next multiple (or ``n``) and draws
everything from one counter-based stream, Philox keyed by ``(seed, b)``.
Within a block the chains, the stopping times and the payoffs are
computed as arrays, in this stream order: the own paths, the opponent's
paths, then the stopping times.  All blocks run in the calling process,
one after the other, so every estimate depends only on ``seed`` and ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .model import ChainSampler, GameSpec, philox_rng, realized_payoffs
from .pdmp import MixedStoppingStrategy, never_horizon

__all__ = [
    "PayoffEstimate", "PureResponseFamily", "default_time_grid",
    "estimate_payoff", "BestResponse", "best_response_value",
    "GapReport", "exploit_gap",
]

BLOCK = 128
STOP_KINDS = ("zero", "flow", "never")


@dataclass(frozen=True)
class PayoffEstimate:
    mean: float
    std_error: float
    n: int
    seed: int


def default_time_grid(r: float, n: int = 200) -> np.ndarray:
    """Log-spaced response times up to the discount horizon, plus {0, inf}."""
    t_max = never_horizon(r)
    inner = np.geomspace(1e-3 / r, t_max, n)
    return np.concatenate([[0.0], inner, [math.inf]])


@dataclass(frozen=True)
class PureResponseFamily:
    """Enumerable pure stopping times of the opponent.

    ``per_initial_state`` means one deterministic time per initial state
    of the opponent's chain (the product over states of the time grid).
    That family is exhaustive when the opponent's chain never moves
    (every stopping time of its filtration is of this form) and when the
    opponent has a single state (plain deterministic times).  For a
    moving multi-state chain it is only a relaxation, and gap reports are
    flagged as upper bounds on exploitability.
    """

    times: np.ndarray
    per_initial_state: bool = True

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size < 2 or np.any(np.diff(t) <= 0):
            raise InputError("time grid must be strictly increasing")
        if t[0] != 0.0 or not math.isinf(t[-1]):
            raise InputError("time grid must start at 0 and end at +inf")
        object.__setattr__(self, "times", t)

    @classmethod
    def for_game(cls, spec: GameSpec, n: int = 200) -> "PureResponseFamily":
        return cls(default_time_grid(spec.r, n))

    def exhaustive_for(self, spec: GameSpec) -> bool:
        return spec.L == 1 or not np.any(spec.Q)

    def descriptor(self) -> dict:
        return {"kind": "per_initial_state" if self.per_initial_state else "shared",
                "n_times": int(self.times.size),
                "t_max_finite": float(self.times[-2])}


def _blocks(n: int, seed: int):
    """``(stream, rows)`` for each block of the ``n`` replications."""
    for b in range(0, n, BLOCK):
        yield philox_rng(seed, b // BLOCK), min(BLOCK, n - b)


def _capped(t: np.ndarray, horizon: float) -> np.ndarray:
    """A stop past the sampled horizon (discount below 1e-8) counts as never."""
    return np.where(t <= horizon, t, math.inf)


def estimate_payoff(spec: GameSpec, strat1: MixedStoppingStrategy,
                    strat2: MixedStoppingStrategy, n: int, seed: int = 0) -> PayoffEstimate:
    """Mean realized payoff over ``n`` independent plays of the strategy pair."""
    if n < 1:
        raise InputError("need at least one replication")
    horizon = never_horizon(spec.r)
    sx = ChainSampler(spec.R, spec.p0)
    sy = ChainSampler(spec.Q, spec.q0)
    total = np.zeros(3)
    for rng, m in _blocks(n, seed):
        X = sx.sample_block(horizon, rng, m)
        Y = sy.sample_block(horizon, rng, m)
        mu = _capped(strat1.stopping_times(X, rng), horizon)
        nu = _capped(strat2.stopping_times(Y, rng), horizon)
        pay = realized_payoffs(spec, X, Y, mu, nu)
        total += [pay.sum(), (pay * pay).sum(), m]
    mean = total[0] / n
    var = max(total[1] / n - mean * mean, 0.0)
    return PayoffEstimate(float(mean), float(math.sqrt(var / n)), n, seed)


def _response_chunk(spec: GameSpec, strat1, family: PureResponseFamily,
                    n: int, seed: int):
    """Sums/sumsq/count per (opponent initial state, candidate time), stop counts.

    Each block builds its (replication x candidate) response matrix; the
    last candidate column is the never-stop response.
    """
    finite = family.times[:-1]
    g = finite.size
    horizon = max(float(finite[-1]), never_horizon(spec.r), 1.0)
    sx = ChainSampler(spec.R, spec.p0)
    sy = ChainSampler(spec.Q, spec.q0)
    L = spec.L if family.per_initial_state else 1
    sums = np.zeros((L, g + 1))
    sumsq = np.zeros((L, g + 1))
    counts = np.zeros(L)
    stops = np.zeros(len(STOP_KINDS), dtype=np.int64)
    disc = np.exp(-spec.r * finite)
    for rng, m in _blocks(n, seed):
        X = sx.sample_block(horizon, rng, m)
        Y = sy.sample_block(horizon, rng, m)
        mu = _capped(strat1.stopping_times(X, rng), horizon)
        stopped = np.isfinite(mu)
        zero, n_stopped = int((mu == 0.0).sum()), int(stopped.sum())
        stops += [zero, n_stopped - zero, m - n_stopped]  # in STOP_KINDS order
        h_payoff = np.zeros(m)
        h_payoff[stopped] = np.exp(-spec.r * mu[stopped]) * spec.h[
            X.states_at(mu)[stopped], Y.states_at(mu)[stopped]]
        # response[i, c]: payoff when the opponent stops at candidate c,
        # unless the strategy stopped strictly before it
        response = np.empty((m, g + 1))
        response[:, :g] = spec.f[X.states_on_grid(finite), Y.states_on_grid(finite)]
        response[:, :g] *= disc
        response[:, g] = h_payoff
        np.copyto(response[:, :g], h_payoff[:, None], where=finite >= mu[:, None])
        side = Y.initial_states if family.per_initial_state else np.zeros(m, dtype=np.int64)
        groups = [(side == j)[:, None] for j in range(L)]
        for j, mine in enumerate(groups):
            counts[j] += mine.sum()
            sums[j] += response.sum(axis=0, where=mine)
        np.square(response, out=response)
        for j, mine in enumerate(groups):
            sumsq[j] += response.sum(axis=0, where=mine)
    return sums, sumsq, counts, stops


def survivor_counts(strategy: MixedStoppingStrategy, R, p0: np.ndarray, t: float,
                    horizon: float, n: int, seed: int) -> np.ndarray:
    """Per-state counts of the ``n`` paths from ``p0`` under ``R`` not stopped by ``t``."""
    sampler = ChainSampler(R, p0)
    counts = np.zeros(p0.size, dtype=np.int64)
    for rng, m in _blocks(n, seed):
        paths = sampler.sample_block(horizon, rng, m)
        alive = strategy.stopping_times(paths, rng) > t
        counts += np.bincount(paths.states_at(np.full(m, t))[alive], minlength=p0.size)
    return counts


@dataclass(frozen=True)
class BestResponse:
    value: float
    std_error: float
    argmin: dict
    n: int
    seed: int
    coarse_flag: bool
    family: dict = field(default_factory=dict)
    stop_counts: dict = field(default_factory=dict)


def best_response_value(spec: GameSpec, strat1: MixedStoppingStrategy,
                        family: PureResponseFamily, n: int, seed: int = 0) -> BestResponse:
    """Infimum of the expected payoff over the pure response family.

    Common random numbers across candidates make the per-candidate means
    comparable; for a product family (one time per opponent initial
    state) the minimization separates exactly across states.
    """
    if n < 1:
        raise InputError("need at least one replication")
    sums, sumsq, counts, stops = _response_chunk(spec, strat1, family, n, seed)
    times = family.times
    finite_top = times[-2]
    value = 0.0
    exp_sq = 0.0
    argmin: dict = {}
    coarse = False
    for j in range(sums.shape[0]):
        if counts[j] == 0:
            continue
        means = sums[j] / counts[j]
        best = int(np.argmin(means))
        t_best = times[best] if best < times.size - 1 else math.inf
        argmin[j] = float(t_best)
        weight = counts[j] / n
        value += weight * means[best]
        exp_sq += weight * (sumsq[j, best] / counts[j])
        coarse |= math.isfinite(t_best) and t_best == finite_top
    var = max(exp_sq - value * value, 0.0)
    return BestResponse(float(value), float(math.sqrt(var / n)), argmin, n, seed,
                        coarse, family.descriptor(),
                        {kind: int(c) for kind, c in zip(STOP_KINDS, stops)})


@dataclass(frozen=True)
class GapReport:
    """Signed exploitability certificate: best response minus claimed value.

    ``stop_counts`` tallies the strategy's stopping times over the
    replications: at time zero, later (``flow``), and never.
    """

    value_claim: float
    best_response: float
    gap: float
    std_error: float
    n: int
    seed: int
    argmin: dict
    family: dict
    exhaustive: bool
    stop_counts: dict

    def to_payload(self) -> dict:
        def num(x):
            return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")
        return {"value_claim": num(self.value_claim),
                "best_response": num(self.best_response),
                "gap": num(self.gap), "std_error": self.std_error,
                "n": self.n, "seed": self.seed,
                "argmin": {str(k): num(v) for k, v in self.argmin.items()},
                "family": self.family, "exhaustive": self.exhaustive,
                "stop_counts": dict(self.stop_counts)}


def exploit_gap(spec: GameSpec, strat1: MixedStoppingStrategy, value_claim: float,
                family: PureResponseFamily, n: int, seed: int = 0,
                threads: int = 1) -> GapReport:
    """best_response_value minus the claimed value (+inf against a -inf claim).

    Monte Carlo runs in the calling process, so ``threads`` accepts only 1.
    The keyword stays because the benchmark workloads still pass
    ``threads=1``; it goes with the next change to the benchmark.
    """
    if threads != 1:
        raise InputError(f"Monte Carlo runs in one process; threads must be 1, got {threads!r}")
    if value_claim == -math.inf:
        return GapReport(value_claim, math.nan, math.inf, 0.0, 0, seed, {},
                         family.descriptor(), family.exhaustive_for(spec),
                         dict.fromkeys(STOP_KINDS, 0))
    br = best_response_value(spec, strat1, family, n, seed)
    return GapReport(value_claim, br.value, br.value - value_claim, br.std_error,
                     n, seed, br.argmin, br.family, family.exhaustive_for(spec),
                     br.stop_counts)
