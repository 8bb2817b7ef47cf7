"""Payoff estimation, best responses over pure families, optimality gaps.

Everything is driven by counter-based per-replication streams (Philox
keyed by ``(seed, replication)``), so estimates are bit-reproducible for
a given seed regardless of how replications are scheduled.  Reductions
accumulate fixed-size chunk partials that are combined in chunk order,
which keeps results identical across thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .model import ChainSampler, GameSpec, philox_rng, realized_payoff
from .pdmp import MixedStoppingStrategy, never_horizon

__all__ = [
    "PayoffEstimate", "PureResponseFamily", "default_time_grid",
    "estimate_payoff", "BestResponse", "best_response_value",
    "GapReport", "exploit_gap",
]

_CHUNK = 8192


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


def _chunks(n: int):
    return [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]


def _capped(t: float, horizon: float) -> float:
    """A stop past the sampled horizon (discount below 1e-8) counts as never."""
    return t if t <= horizon else math.inf


def _estimate_chunk(spec: GameSpec, strat1, strat2, lo: int, hi: int, seed: int):
    horizon = never_horizon(spec.r)
    sx = ChainSampler(spec.R, spec.p0)
    sy = ChainSampler(spec.Q, spec.q0)
    out = np.empty(hi - lo)
    for i in range(lo, hi):
        rng = philox_rng(seed, i)
        X = sx.sample(horizon, rng)
        Y = sy.sample(horizon, rng)
        mu = _capped(strat1.stopping_time(X, rng), horizon)
        nu = _capped(strat2.stopping_time(Y, rng), horizon)
        out[i - lo] = realized_payoff(spec, X, Y, mu, nu).payoff
    return np.array([out.sum(), (out * out).sum(), float(out.size)])


def estimate_payoff(spec: GameSpec, strat1: MixedStoppingStrategy,
                    strat2: MixedStoppingStrategy, n: int, seed: int = 0,
                    threads: int = 1) -> PayoffEstimate:
    """Mean realized payoff over ``n`` independent plays of the strategy pair."""
    if n < 1:
        raise InputError("need at least one replication")
    partials = _map_chunks(_estimate_chunk, (spec, strat1, strat2), n, seed, threads)
    total = np.sum(np.stack(partials), axis=0)
    mean = total[0] / n
    var = max(total[1] / n - mean * mean, 0.0)
    return PayoffEstimate(float(mean), float(math.sqrt(var / n)), n, seed)


def _response_chunk(spec: GameSpec, strat1, family: PureResponseFamily,
                    lo: int, hi: int, seed: int):
    """Sums/sumsq/count per (opponent initial state, candidate time).

    The last candidate column is the never-stop response.
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
    disc = np.exp(-spec.r * finite)
    for i in range(lo, hi):
        rng = philox_rng(seed, i)
        X = sx.sample(horizon, rng)
        Y = sy.sample(horizon, rng)
        mu = _capped(strat1.stopping_time(X, rng), horizon)
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
        j = Y.initial_state if family.per_initial_state else 0
        sums[j] += row
        sumsq[j] += row * row
        counts[j] += 1.0
    return sums, sumsq, counts


def _map_chunks(fn, args, n: int, seed: int, threads: int):
    spans = _chunks(n)
    if threads <= 1:
        return [fn(*args, lo, hi, seed) for lo, hi in spans]
    from concurrent.futures import ProcessPoolExecutor

    from .serialize import strategy_to_descriptor

    spec = args[0]
    # strategies carry closures; ship descriptors and rebuild in the workers
    payloads = [strategy_to_descriptor(a) if isinstance(a, MixedStoppingStrategy) else a
                for a in args[1:]]
    game = spec.to_json()
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_chunk_task, fn.__name__, game, payloads, lo, hi, seed)
                   for lo, hi in spans]
        return [f.result() for f in futures]


def _chunk_task(fn_name: str, game_json: str, payloads, lo: int, hi: int, seed: int):
    from .serialize import strategy_from_descriptor

    spec = GameSpec.from_json(game_json)
    args = [spec]
    for p in payloads:
        if isinstance(p, dict) and "case" in p:
            args.append(strategy_from_descriptor(p))
        else:
            args.append(p)
    fn = {"_estimate_chunk": _estimate_chunk, "_response_chunk": _response_chunk}[fn_name]
    return fn(*args, lo, hi, seed)


@dataclass(frozen=True)
class BestResponse:
    value: float
    std_error: float
    argmin: dict
    n: int
    seed: int
    coarse_flag: bool
    family: dict = field(default_factory=dict)


def best_response_value(spec: GameSpec, strat1: MixedStoppingStrategy,
                        family: PureResponseFamily, n: int, seed: int = 0,
                        threads: int = 1) -> BestResponse:
    """Infimum of the expected payoff over the pure response family.

    Common random numbers across candidates make the per-candidate means
    comparable; for a product family (one time per opponent initial
    state) the minimization separates exactly across states.
    """
    if n < 1:
        raise InputError("need at least one replication")
    partials = _map_chunks(_response_chunk, (spec, strat1, family), n, seed, threads)
    sums = np.sum(np.stack([p[0] for p in partials]), axis=0)
    sumsq = np.sum(np.stack([p[1] for p in partials]), axis=0)
    counts = np.sum(np.stack([p[2] for p in partials]), axis=0)
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
                        coarse, family.descriptor())


@dataclass(frozen=True)
class GapReport:
    """Signed exploitability certificate: best response minus claimed value."""

    value_claim: float
    best_response: float
    gap: float
    std_error: float
    n: int
    seed: int
    argmin: dict
    family: dict
    exhaustive: bool

    def to_payload(self) -> dict:
        def num(x):
            return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")
        return {"value_claim": num(self.value_claim),
                "best_response": num(self.best_response),
                "gap": num(self.gap), "std_error": self.std_error,
                "n": self.n, "seed": self.seed,
                "argmin": {str(k): num(v) for k, v in self.argmin.items()},
                "family": self.family, "exhaustive": self.exhaustive}


def exploit_gap(spec: GameSpec, strat1: MixedStoppingStrategy, value_claim: float,
                family: PureResponseFamily, n: int, seed: int = 0,
                threads: int = 1) -> GapReport:
    """best_response_value minus the claimed value (+inf against a -inf claim)."""
    if value_claim == -math.inf:
        return GapReport(value_claim, math.nan, math.inf, 0.0, 0, seed, {},
                         family.descriptor(), family.exhaustive_for(spec))
    br = best_response_value(spec, strat1, family, n, seed, threads)
    return GapReport(value_claim, br.value, br.value - value_claim, br.std_error,
                     n, seed, br.argmin, br.family, family.exhaustive_for(spec))
