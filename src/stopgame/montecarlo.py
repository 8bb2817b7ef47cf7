"""Payoff estimation, best responses over pure families, optimality gaps,
and the belief consistency check of a stopping rule.

Replications run in blocks of ``BLOCK`` rows: block ``b`` holds
replications ``b * BLOCK`` up to the next multiple (or ``n``) and draws
everything from one counter-based stream, Philox keyed by ``(seed, b)``.
Within a block the chains, the stopping times and the payoffs are
computed as arrays.  ``_plays`` is the one block loop of the payoff
estimate and the best responses.  Before its first block it rejects a
rule built for another start law, own chain or number of own states.
It samples both chains only as far as the play reads them, in this
stream order:

1. X to ``FIRST_ROUND``, then the rule's draws on it;
2. while the rule may still stop rows it left unstopped, those rows
   continued from their states at the last cut to twice as far (capped
   at the horizon), then the rule's draws as it stops them from the cut;
3. every row of X that needs more path continued at once to the latest
   time any of these rows reads;
4. the opponent's paths Y to ``FIRST_ROUND``, then the rows of Y that
   need more path continued at once to the latest time any of them
   reads, then (for a payoff estimate) the opponent's stopping draws.

A row needs more path while ``min(mu, horizon)`` lies past its end.
By the Markov property and the memoryless ``Exp(1)`` thresholds of the
rules, a continued row has the law of a row sampled that far at once.
The opponent's rule stops a row of Y before its end on the path so far,
and a stop of the opponent after ``mu`` does not change the payoff, so
a row of Y that ends at or after ``mu`` is long enough for a payoff
estimate as well as for a best response.  All blocks run in
the calling process, one after the other, so every estimate depends
only on ``seed`` and ``n``.  This module is the only one that knows
the block layout.

Best responses score every candidate time of the opponent without a
(replication x candidate) matrix: a row's response changes only at its
own jumps before it stops, so each block adds integer occupancy counts
(how many rows of each opponent group hold each pair of states at each
candidate) and a histogram of the stopping payoffs over the candidates;
the sums per candidate come out of both after the last block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .model import ChainSampler, GameSpec, philox_rng, realized_payoffs
from .pdmp import InitialStateTimeStrategy, MixedStoppingStrategy, never_horizon

__all__ = [
    "PayoffEstimate", "PureResponseFamily", "default_time_grid",
    "estimate_payoff", "BestResponse", "best_response_value",
    "GapReport", "exploit_gap", "BeliefReport", "belief_consistency",
]

# Rows per block.  Each block pays a fixed numpy overhead per array call,
# and its memory grows with its rows.  certify-mc (perfbench, seed 1, two
# 10 s runs per size, 2 shared Xeon cores, numpy 2.4) read wall_norm_s and
# peak_rss_mb:
#      256: 0.24-0.26 s, 40.0 MB     1024: 0.14 s, 41.4 MB
#      512: 0.17-0.19 s, 40.5 MB     2048: 0.11 s, 43.6-43.7 MB
# 1024 is the largest size within 5% of the memory of 256.
BLOCK = 1024
# how far the first round samples the own chain, before the rule runs
FIRST_ROUND = 8.0
STOP_KINDS = ("zero", "flow", "never")
# finite response times of the default pure family, between 0 and +inf
RESPONSE_TIMES = 200


@dataclass(frozen=True)
class PayoffEstimate:
    mean: float
    std_error: float
    n: int
    seed: int


def default_time_grid(r: float, n: int = RESPONSE_TIMES) -> np.ndarray:
    """Log-spaced response times up to the discount horizon, plus {0, inf}."""
    t_max = never_horizon(r)
    inner = np.geomspace(1e-3 / r, t_max, n)
    return np.concatenate([[0.0], inner, [math.inf]])


@dataclass(frozen=True)
class PureResponseFamily:
    """Enumerable pure stopping times of the opponent.

    One deterministic time from ``times`` per initial state of the
    opponent's chain (the product over states of the time grid).  The
    family is exhaustive when the opponent's chain never moves (every
    stopping time of its filtration is of this form) and when the
    opponent has a single state (plain deterministic times).  For a
    moving multi-state chain it is only a relaxation, and gap reports are
    flagged as upper bounds on exploitability.
    """

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2 or t[0] != 0.0 or t[-1] != math.inf:
            raise InputError("time grid must start at 0 and end at +inf")
        # a NaN difference is not <= 0, so the times before +inf are checked finite first
        if not np.all(np.isfinite(t[:-1])) or np.any(np.diff(t[:-1]) <= 0):
            raise InputError("time grid must be finite and strictly increasing before +inf")
        object.__setattr__(self, "times", t)

    @classmethod
    def for_game(cls, spec: GameSpec, n: int = RESPONSE_TIMES) -> "PureResponseFamily":
        return cls(default_time_grid(spec.r, n))

    def exhaustive_for(self, spec: GameSpec) -> bool:
        return spec.L == 1 or not np.any(spec.Q)

    def descriptor(self) -> dict:
        return {"kind": "per_initial_state",
                "n_times": int(self.times.size),
                "t_max_finite": float(self.times[-2])}


def _blocks(n: int, seed: int):
    """``(stream, rows)`` for each block of the ``n`` replications."""
    if n < 1:
        raise InputError("need at least one replication")
    return ((philox_rng(seed, b // BLOCK), min(BLOCK, n - b)) for b in range(0, n, BLOCK))


def _capped(t: np.ndarray, horizon: float) -> np.ndarray:
    """A stop past the sampled horizon (discount below 1e-8) counts as never."""
    return np.where(t <= horizon, t, math.inf)


def _check_rule(strategy: MixedStoppingStrategy, G: np.ndarray, law: np.ndarray) -> None:
    """Reject a rule built for another start law, own chain or number of own states."""
    belief = strategy.initial_belief()  # None: the rule carries no start law
    if belief is not None and (belief.size != law.size or np.abs(belief - law).max() > 1e-6):
        raise InputError(f"strategy was built for initial law {belief.tolist()} but the "
                         f"game starts at {law.tolist()}")
    built = strategy.generator()  # None: the rule carries no chain
    if built is not None and (built.shape != G.shape or np.abs(built - G).max()
                              > 1e-9 * max(1.0, float(np.abs(G).max()))):
        raise InputError(f"strategy was built for the chain {built.tolist()} but the "
                         f"game's is {G.tolist()}")
    if isinstance(strategy, InitialStateTimeStrategy) and strategy.times.size != law.size:
        raise InputError(f"strategy has {strategy.times.size} stopping times but the "
                         f"game has {law.size} own states")


def _plays(spec: GameSpec, strat1: MixedStoppingStrategy, horizon: float, n: int, seed: int):
    """``(stream, X, Y, mu)`` per block, after one check of ``strat1`` against the game.

    X is sampled in rounds, in the stream order of the module docstring,
    and both chains are continued only by ``ChainSampler.extend``; the
    rule stops fresh and continued rows by its one ``stopping_times``.  A
    row of X or Y needs more path while ``min(mu, horizon)`` is past its
    end (an unstopped row to the horizon, since the opponent reads it
    there), and the rows that need more are continued together to the
    latest such time.  A rule that cannot resume (``resumes_until`` is
    ``+inf``) gets X sampled to the horizon at once.
    """
    _check_rule(strat1, spec.R, spec.p0)
    sx = ChainSampler(spec.R, spec.p0)
    sy = ChainSampler(spec.Q, spec.q0)
    until = min(strat1.resumes_until, horizon)
    first = horizon if math.isinf(strat1.resumes_until) else min(FIRST_ROUND, horizon)
    for rng, m in _blocks(n, seed):
        X = sx.sample_block(first, rng, m)
        mu = _capped(strat1.stopping_times(X, rng), horizon)
        live, end = np.flatnonzero(np.isinf(mu)), first
        while live.size and end < until:
            end = min(2.0 * end, horizon)
            X, more = sx.extend(X, live, end, rng)
            mu[live] = strat1.stopping_times(more, rng)
            live = live[np.isinf(mu[live])]
        needed = np.minimum(mu, horizon)
        short = np.flatnonzero(needed > X.ends)
        if short.size:
            X = sx.extend(X, short, needed[short].max(), rng)[0]
        Y = sy.sample_block(min(FIRST_ROUND, horizon), rng, m)
        short = np.flatnonzero(needed > Y.ends)
        if short.size:
            Y = sy.extend(Y, short, needed[short].max(), rng)[0]
        yield rng, X, Y, mu


def estimate_payoff(spec: GameSpec, strat1: MixedStoppingStrategy,
                    strat2: MixedStoppingStrategy, n: int, seed: int = 0) -> PayoffEstimate:
    """Mean realized payoff over ``n`` independent plays of the strategy pair."""
    horizon = never_horizon(spec.r)
    _check_rule(strat2, spec.Q, spec.q0)
    total = np.zeros(3)
    for rng, X, Y, mu in _plays(spec, strat1, horizon, n, seed):
        nu = _capped(strat2.stopping_times(Y, rng), horizon)
        pay = realized_payoffs(spec, X, Y, mu, nu)
        total += [pay.sum(), (pay * pay).sum(), mu.size]
    mean = total[0] / n
    var = max(total[1] / n - mean * mean, 0.0)
    return PayoffEstimate(float(mean), float(math.sqrt(var / n)), n, seed)


def _response_chunk(spec: GameSpec, strat1, family: PureResponseFamily,
                    n: int, seed: int):
    """Sums/sumsq/count per (opponent initial state, candidate time), stop counts.

    The last candidate column is the never-stop response.  With ``cut``
    the number of candidates strictly before a row's stop ``mu``, the row
    pays ``disc[c] * f`` at the pair of states it holds at each candidate
    ``c < cut``, and its discounted ``h`` (0 if it never stops) at the
    later candidates and the never column.  Nothing is scored per (row,
    candidate): the ``h`` part is a histogram of the rows' cuts, and the
    ``f`` part counts, per group and pair of states, the rows holding that
    pair at each candidate.  A row holds one pair over a run of candidates
    between two of its jumps, so each run adds +1 at its first candidate
    and -1 past its last one, and a cumulative sum over the candidates
    turns these differences into the occupancy counts.
    """
    finite = family.times[:-1]
    g = finite.size
    horizon = max(float(finite[-1]), never_horizon(spec.r), 1.0)
    L = spec.L
    pairs = spec.K * L
    # occupancy differences per (group, pair k*L + l, candidate), with one
    # slot past the last candidate, and the h histogram per (group, cut)
    occupancy = np.zeros(L * pairs * (g + 1), dtype=np.int64)
    h_sums = np.zeros((2, L * (g + 1)))
    counts = np.zeros(L)
    stops = np.zeros(len(STOP_KINDS), dtype=np.int64)
    for _, X, Y, mu in _plays(spec, strat1, horizon, n, seed):
        stopped = np.isfinite(mu)
        zero, n_stopped = int((mu == 0.0).sum()), int(stopped.sum())
        stops += [zero, n_stopped - zero, mu.size - n_stopped]  # in STOP_KINDS order
        h_payoff = realized_payoffs(spec, X, Y, mu, np.full(mu.size, math.inf))
        group = Y.initial_states.astype(np.intp)
        counts += np.bincount(group, minlength=L)
        # candidates c < cut pay f, the others (finite >= mu) pay h
        cut = finite.searchsorted(mu, side="left")
        h_bins = group * (g + 1) + cut
        h_sums += [np.bincount(h_bins, h_payoff, L * (g + 1)),
                   np.bincount(h_bins, h_payoff * h_payoff, L * (g + 1))]
        occupancy += _occupancy_changes(X, Y, mu, group, cut, finite, L, pairs)
    held_by = occupancy.reshape(L, pairs, g + 1).cumsum(axis=2)[:, :, :g]
    disc = np.exp(-spec.r * finite)
    f = spec.f.ravel()
    h_sums = h_sums.reshape(2, L, g + 1).cumsum(axis=2)
    sums, sumsq = h_sums
    sums[:, :g] += disc * np.einsum("p,jpc->jc", f, held_by)
    sumsq[:, :g] += disc * disc * np.einsum("p,jpc->jc", f * f, held_by)
    return sums, sumsq, counts, stops


def _occupancy_changes(X, Y, mu, group, cut, finite: np.ndarray, L: int,
                       pairs: int) -> np.ndarray:
    """One block's occupancy differences per (group, pair, candidate), flat.

    Each run of one pair adds +1 at its first candidate and -1 past its
    last one, both cut at the row's ``cut``.  A function of its own, so
    that none of its (rows x runs) arrays is still held while the next
    block is sampled.
    """
    g = finite.size
    size = L * pairs * (g + 1)
    edges, held = _pair_runs(X, Y, mu, finite, L)
    np.minimum(edges, cut[:, None], out=edges)
    held += group[:, None] * pairs
    held *= g + 1
    return (np.bincount((held + edges[:, :-1]).ravel(), minlength=size)
            - np.bincount((held + edges[:, 1:]).ravel(), minlength=size))


def _pair_runs(X, Y, mu: np.ndarray, finite: np.ndarray, L: int):
    """Each row's runs of one pair of states over the candidate times.

    Returns ``edges`` (rows x runs + 1): a run's first candidate and the
    first one past it, where ``edges[:, 0]`` is 0 and the last edge is
    ``finite.size``, and ``held`` (rows x runs): the pair ``k * L + l``
    held over the run.  Only the jumps before ``mu`` start runs; a jump is
    made by every candidate at or after its time.
    """
    m = mu.size
    before = [paths.times[:, 1:] < mu[:, None] for paths in (X, Y)]
    w = [int(b.sum(axis=1).max(initial=0)) for b in before]
    t = np.full((m, w[0] + w[1]), math.inf)
    np.copyto(t[:, :w[0]], X.times[:, 1:w[0] + 1], where=before[0][:, :w[0]])
    np.copyto(t[:, w[0]:], Y.times[:, 1:w[1] + 1], where=before[1][:, :w[1]])
    order = t.argsort(axis=1, kind="stable")
    of_y = order >= w[0]
    edges = np.zeros((m, t.shape[1] + 2), dtype=np.intp)
    edges[:, 1:-1] = finite.searchsorted(np.take_along_axis(t, order, axis=1), side="left")
    edges[:, -1] = finite.size
    del t, order  # not held while the states are read: they raised peak memory
    # jumps of each chain made by the start of each run
    made_y = np.zeros((m, of_y.shape[1] + 1), dtype=np.intp)
    np.cumsum(of_y, axis=1, out=made_y[:, 1:])
    rows = np.arange(m)[:, None]
    held = X.states[rows, np.arange(made_y.shape[1]) - made_y].astype(np.intp)
    held *= L
    held += Y.states[rows, made_y]
    return edges, held


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


@dataclass
class BeliefReport:
    t: float
    predicted: np.ndarray
    empirical: np.ndarray
    z_scores: np.ndarray
    n_survivors: int
    n: int
    inconclusive: bool

    @property
    def consistent(self) -> bool:
        return (not self.inconclusive) and bool(np.all(np.abs(self.z_scores) <= 3.0))


def belief_consistency(strategy: MixedStoppingStrategy, t: float, n: int,
                       seed: int = 0) -> BeliefReport:
    """Estimate P(X_t = k | no stop by t) and compare with the tracked belief.

    The chain starts from the strategy's initial belief and runs under the
    rule's own generator on ``[0, max(2t, 1)]``; survivors of the stopping
    rule at ``t`` are binned by state and z-scored against the
    deterministic belief flow.
    """
    p0 = strategy.initial_belief()
    if p0 is None:
        raise InputError(f"{type(strategy).__name__} carries no initial belief")
    if not (t >= 0.0 and math.isfinite(t)):
        raise InputError(f"check time must be finite and nonnegative, got {t!r}")
    predicted = np.asarray(strategy.belief(t), dtype=float)
    K = p0.size
    counts = survivor_counts(strategy, strategy.generator(), p0, t, max(2.0 * t, 1.0),
                             n, seed).astype(float)
    survivors = int(counts.sum())
    inconclusive = survivors < 100
    empirical = counts / survivors if survivors else np.zeros(K)
    se = np.sqrt(np.maximum(predicted * (1 - predicted), 1e-12) / max(survivors, 1))
    z = (empirical - predicted) / se
    return BeliefReport(t, predicted, empirical, z, survivors, n, inconclusive)


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
        coarse |= bool(math.isfinite(t_best) and t_best == finite_top)
    var = max(exp_sq - value * value, 0.0)
    return BestResponse(float(value), float(math.sqrt(var / n)), argmin, n, seed,
                        coarse, family.descriptor(),
                        {kind: int(c) for kind, c in zip(STOP_KINDS, stops)})


@dataclass(frozen=True)
class GapReport:
    """Signed exploitability certificate: best response minus claimed value.

    ``stop_counts`` tallies the strategy's stopping times over the
    replications: at time zero, later (``flow``), and never.
    ``coarse_flag`` is set when a best response sat at the family's largest
    finite time, so a longer time grid might have found a lower one.
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
    coarse_flag: bool

    def to_payload(self) -> dict:
        def num(x):
            return x if math.isfinite(x) else str(x)  # "inf", "-inf" or "nan"
        return {"value_claim": num(self.value_claim),
                "best_response": num(self.best_response),
                "gap": num(self.gap), "std_error": self.std_error,
                "n": self.n, "seed": self.seed,
                "argmin": {str(k): num(v) for k, v in self.argmin.items()},
                "family": self.family, "exhaustive": self.exhaustive,
                "stop_counts": dict(self.stop_counts), "coarse_flag": self.coarse_flag}


def exploit_gap(spec: GameSpec, strat1: MixedStoppingStrategy, value_claim: float,
                family: PureResponseFamily, n: int, seed: int = 0,
                threads: int = 1) -> GapReport:
    """best_response_value minus the claimed value.

    Every claim is played the same way, so a ``-inf`` claim reports the
    best response with a gap of ``+inf``; a NaN claim is an input error.
    Monte Carlo runs in the calling process, so ``threads`` accepts only
    1.  The keyword stays because the benchmark workloads still pass
    ``threads=1``; it goes with the next change to the benchmark.
    """
    if threads != 1:
        raise InputError(f"Monte Carlo runs in one process; threads must be 1, got {threads!r}")
    if math.isnan(value_claim):
        raise InputError("the value claim is NaN")
    br = best_response_value(spec, strat1, family, n, seed)
    return GapReport(value_claim, br.value, br.value - value_claim, br.std_error,
                     n, seed, br.argmin, br.family, family.exhaustive_for(spec),
                     br.stop_counts, br.coarse_flag)
