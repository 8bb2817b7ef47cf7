"""Game primitives: chains, payoffs, blocks of sample paths, realized payoffs.

Conventions used throughout the package:

* A belief over a finite state set is a numpy vector on the unit simplex.
  For two-state sets we often work in the scalar chart ``p = weight of
  state 0``, so an affine payoff ``c0 + c1*p`` corresponds to the matrix
  entries ``value(state 0) = c0 + c1`` and ``value(state 1) = c0``.
* Generators are row-generator matrices ``G`` (rows sum to zero,
  off-diagonal rates nonnegative); the law of the chain evolves as
  ``p_t = expm(t * G.T) @ p``.
* Player 1 (the maximizer) stops at ``mu`` and collects ``h``; player 2
  (the minimizer) stops at ``nu`` and pays ``f``; ties go to player 1.
  :func:`realized_payoffs` is the one place this rule lives.
* Sample paths come as :class:`PathBlock` arrays, one path per row;
  there is no separate one-path type.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import InputError

SIMPLEX_CLAMP = 1e-12
SIMPLEX_SUM_TOL = 1e-9
GENERATOR_ROW_TOL = 1e-12


def as_simplex(weights, *, clamp: float = SIMPLEX_CLAMP) -> np.ndarray:
    """Validate and normalize a probability vector.

    Entries in ``[-clamp, 0)`` are rounded up to zero (arithmetic noise);
    anything more negative is an error, as is a total mass off by more
    than ``SIMPLEX_SUM_TOL``.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InputError("simplex point must be a nonempty 1-d vector")
    if not np.all(np.isfinite(w)):
        raise InputError("probabilities must be finite")
    if np.any(w < -clamp):
        raise InputError(f"negative probability {w.min():.3e} below clamp tolerance")
    total = float(w.sum())
    if abs(total - 1.0) > SIMPLEX_SUM_TOL:
        raise InputError(f"probabilities sum to {total!r}, expected 1")
    w = np.maximum(w, 0.0)
    return w / w.sum()


def as_generator(entries) -> np.ndarray:
    """Validate a square generator matrix (rates >= 0 off-diagonal, zero row sums)."""
    g = np.asarray(entries, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InputError("generator must be a square matrix")
    if not np.all(np.isfinite(g)):
        raise InputError("generator rates must be finite")
    off = g - np.diag(np.diag(g))
    if np.any(off < -GENERATOR_ROW_TOL):
        raise InputError("generator has a negative off-diagonal rate")
    rows = g.sum(axis=1)
    if np.any(np.abs(rows) > GENERATOR_ROW_TOL * max(1.0, float(np.abs(g).max()))):
        raise InputError(f"generator rows must sum to 0, worst deviation {np.abs(rows).max():.3e}")
    return g


@dataclass(frozen=True)
class GameSpec:
    """A full problem instance.

    ``f`` and ``h`` are K x L payoff matrices with ``f >= h`` entrywise,
    ``R``/``Q`` the generators of the privately observed chains, ``r`` the
    discount rate and ``p0``/``q0`` the commonly known initial laws.
    """

    R: np.ndarray
    Q: np.ndarray
    r: float
    f: np.ndarray
    h: np.ndarray
    p0: np.ndarray
    q0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R", as_generator(self.R))
        object.__setattr__(self, "Q", as_generator(self.Q))
        f = np.asarray(self.f, dtype=float)
        h = np.asarray(self.h, dtype=float)
        K, L = self.R.shape[0], self.Q.shape[0]
        if f.shape != (K, L) or h.shape != (K, L):
            raise InputError(f"payoff matrices must have shape ({K}, {L})")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(h))):
            raise InputError("payoffs must be finite")
        if np.any(f < h):
            raise InputError("payoffs must satisfy f >= h entrywise")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise InputError("discount rate must be positive and finite")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "p0", as_simplex(self.p0))
        object.__setattr__(self, "q0", as_simplex(self.q0))
        if self.p0.size != K or self.q0.size != L:
            raise InputError("initial laws must match the generator dimensions")

    @property
    def K(self) -> int:
        return self.R.shape[0]

    @property
    def L(self) -> int:
        return self.Q.shape[0]

    def payoff_scale(self) -> float:
        return float(max(np.abs(self.f).max(), np.abs(self.h).max()))

    def to_json(self) -> str:
        payload = {
            "K": self.K,
            "L": self.L,
            "R": self.R.tolist(),
            "Q": self.Q.tolist(),
            "r": self.r,
            "f": self.f.tolist(),
            "h": self.h.tolist(),
            "p": self.p0.tolist(),
            "q": self.q0.tolist(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GameSpec":
        try:
            payload = json.loads(text)
            for key in ("K", "L", "R", "Q", "r", "f", "h", "p", "q"):
                if key not in payload:
                    raise InputError(f"game JSON missing field {key!r}")
            spec = cls(
                R=payload["R"], Q=payload["Q"], r=float(payload["r"]),
                f=payload["f"], h=payload["h"], p0=payload["p"], q0=payload["q"],
            )
            shape = int(payload["K"]), int(payload["L"])
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise InputError(f"malformed game JSON: {type(exc).__name__}: {exc}") from exc
        if (spec.K, spec.L) != shape:
            raise InputError("fields K/L disagree with the matrix shapes")
        return spec


def marginal_flow(p, G, t: float) -> np.ndarray:
    """Law of the chain at time ``t``: ``expm(t * G.T) @ p``."""
    p = as_simplex(p)
    G = np.asarray(G, dtype=float)
    if not math.isfinite(t):
        raise InputError("flow time must be finite")
    if t == 0.0 or not np.any(G):
        return p
    return as_simplex(expm(t * G.T) @ p)


@dataclass(frozen=True)
class PathBlock:
    """A block of sampled paths of one chain on ``[0, horizon]``, one per row.

    ``times[i]`` is 0 followed by the jump times of path ``i``, padded with
    ``+inf`` to a common width; ``states[i, j]`` is the state held from
    ``times[i, j]`` on (entries under the padding carry no meaning).
    This is the package's only path type: samplers, stopping rules and
    :func:`realized_payoffs` all work on whole blocks.
    """

    times: np.ndarray
    states: np.ndarray
    horizon: float

    @property
    def n(self) -> int:
        return self.times.shape[0]

    @property
    def n_jumps(self) -> int:
        """Total number of jumps over all rows."""
        return int(np.isfinite(self.times).sum()) - self.n

    @property
    def initial_states(self) -> np.ndarray:
        return self.states[:, 0]

    def take(self, rows) -> "PathBlock":
        return PathBlock(self.times[rows], self.states[rows], self.horizon)

    def states_at(self, t: np.ndarray) -> np.ndarray:
        """State of row ``i`` at time ``t[i]`` (meaningless where ``t[i]`` is inf)."""
        idx = (self.times[:, 1:] <= np.asarray(t, dtype=float)[:, None]).sum(axis=1)
        return self.states[np.arange(self.n), idx]

    def states_on_grid(self, grid: np.ndarray) -> np.ndarray:
        """``(n, grid.size)`` states at shared increasing times inside the horizon.

        Every jump is binned at the first grid time it precedes; a running
        count of the bins is the number of jumps made by each grid time.
        """
        n, g = self.n, grid.size
        bins = np.searchsorted(grid, self.times[:, 1:], side="left")
        bins += np.arange(0, n * (g + 1), g + 1)[:, None]
        made = np.bincount(bins.ravel(), minlength=n * (g + 1)).reshape(n, g + 1)
        np.cumsum(made, axis=1, out=made)
        # jumps made by each grid time, as flat indices into the states
        made += np.arange(0, n * self.states.shape[1], self.states.shape[1])[:, None]
        return self.states.ravel()[made[:, :g]]


class ChainSampler:
    """Reusable path sampler: validates the generator once, then samples fast.

    :meth:`sample_block` draws a whole block of paths from one stream;
    :meth:`sample` is its one-row view.  A block draws the initial-state
    uniforms of all rows first, then each row's holding times in path
    order, so a block of one row draws what a single path always drew.
    Two-state chains draw whole blocks of holding times at once since the
    jump target is forced; larger chains run a per-event loop across the
    rows with a precomputed jump kernel.
    """

    def __init__(self, G, p):
        self.G = as_generator(G)
        self.p = as_simplex(p)
        self.K = self.p.size
        self.rates = -np.diag(self.G)
        self.mean_hold = np.full(self.K, np.inf)  # +inf in absorbing states
        np.divide(1.0, self.rates, out=self.mean_hold, where=self.rates > 0)
        self.p_cum = np.cumsum(self.p)
        self._dtype = np.min_scalar_type(self.K - 1)
        kernels = np.maximum(self.G, 0.0)
        np.fill_diagonal(kernels, 0.0)
        sums = kernels.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.kernel_cum = np.cumsum(
                np.where(sums[:, None] > 0, kernels / np.where(sums[:, None] > 0, sums[:, None], 1.0), 0.0),
                axis=1)

    def sample(self, horizon: float, rng: np.random.Generator) -> PathBlock:
        """``sample_block(horizon, rng, 1)``: one path, with no ``+inf`` padding.

        It stays only because perfbench's certify probe still replays one
        replication at a time through it; it goes with the next change to
        the benchmark.
        """
        return self.sample_block(horizon, rng, 1)

    def sample_block(self, horizon: float, rng: np.random.Generator, n: int) -> PathBlock:
        """``n`` independent paths on ``[0, horizon]``, all drawn from ``rng``."""
        if not math.isfinite(horizon) or horizon < 0:
            raise InputError("horizon must be finite and nonnegative")
        initial = np.searchsorted(self.p_cum, rng.random(n), side="right").astype(self._dtype)
        if self.K == 2:
            times = self._two_state(initial, horizon, rng)
            states = initial[:, None] ^ (np.arange(times.shape[1], dtype=self._dtype) & 1)
        else:
            times, states = self._event_loop(initial, horizon, rng)
        return PathBlock(times, states, float(horizon))

    def _event_loop(self, initial, horizon: float, rng):
        n = initial.size
        state = initial.copy()
        t = np.zeros(n)
        time_cols, state_cols = [np.zeros(n)], [initial]
        live = np.arange(n)
        while True:
            live = live[self.rates[state[live]] > 0.0]
            if not live.size:
                break
            t_next = t[live] + rng.exponential(self.mean_hold[state[live]])
            keep = t_next <= horizon
            live = live[keep]
            if not live.size:
                break
            t[live] = t_next[keep]
            u = rng.random(live.size)
            state = state.copy()
            state[live] = (self.kernel_cum[state[live]] <= u[:, None]).sum(axis=1)
            col = np.full(n, np.inf)
            col[live] = t[live]
            time_cols.append(col)
            state_cols.append(state)
        return np.stack(time_cols, axis=1), np.stack(state_cols, axis=1)

    def _two_state(self, initial, horizon: float, rng) -> np.ndarray:
        """Event times (0, then the jumps) of each row, padded with +inf."""
        # states alternate, so only the holding times are random; a row
        # draws a block sized to cover the horizon with a 10-sigma margin
        # and, in the rare case it falls short, another one from there
        n = initial.size
        rows = np.flatnonzero(self.rates[initial] > 0.0)
        t = np.zeros(rows.size)
        s = initial[rows]
        rounds = []
        while rows.size:
            hold_now, hold_next = self.mean_hold[s], self.mean_hold[1 - s]
            pair_mean = hold_now + np.where(self.rates[1 - s] > 0, hold_next, 0.0)
            expect = (horizon - t) / pair_mean * 2.0
            sizes = (expect + 10.0 * np.sqrt(expect + 1.0)).astype(np.int64) + 16
            jumps = np.full((rows.size, int(sizes.max())), np.inf)
            jumps[np.arange(jumps.shape[1]) < sizes[:, None]] = np.maximum(
                rng.exponential(size=int(sizes.sum())), 1e-300)
            jumps[:, 0::2] *= hold_now[:, None]
            jumps[:, 1::2] *= hold_next[:, None]
            np.cumsum(jumps, axis=1, out=jumps)
            jumps += t[:, None]
            cut = (jumps <= horizon).sum(axis=1)
            jumps = jumps[:, :int(cut.max(initial=0))]
            jumps[jumps > horizon] = np.inf
            rounds.append((rows, jumps))
            more = cut == sizes
            t = jumps[more, sizes[more] - 1]
            s = s[more] ^ (sizes[more] & 1)
            rows = rows[more]
        width = sum(jumps.shape[1] for _, jumps in rounds)
        times = np.full((n, 1 + width), np.inf)
        times[:, 0] = 0.0
        col = 1
        for rows, jumps in rounds:
            times[rows, col:col + jumps.shape[1]] = jumps
            col += jumps.shape[1]
        if len(rounds) > 1:
            # a row continued into a later round may hold +inf padding
            # between its rounds; sorting moves it to the end
            times.sort(axis=1)
            times = times[:, :int(np.isfinite(times).sum(axis=1).max())]
        return times


def bilinear_payoff(M, p, q) -> float:
    """Extend a payoff matrix linearly to beliefs: sum_kl p_k q_l M[k, l]."""
    M = np.asarray(M, dtype=float)
    p = as_simplex(p)
    q = as_simplex(q)
    if M.shape != (p.size, q.size):
        raise InputError(f"payoff matrix shape {M.shape} does not match beliefs ({p.size}, {q.size})")
    return float(p @ M @ q)


def realized_payoffs(spec: GameSpec, X: PathBlock, Y: PathBlock,
                     mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Discounted payoff of each row's realized play.

    Strict priority to the minimizer on ``nu < mu`` (pays ``f``); ties and
    ``mu < nu`` pay the maximizer's obstacle ``h``; nobody stopping pays
    exactly zero.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if np.any(mu < 0) or np.any(nu < 0):
        raise InputError("stopping times must be nonnegative")
    first = np.minimum(mu, nu)
    done = np.isfinite(first)
    if np.any(first[done] > min(X.horizon, Y.horizon)):
        raise InputError("paths shorter than the realized stopping time")
    k, l = X.states_at(first)[done], Y.states_at(first)[done]
    pay = np.zeros(first.shape)
    pay[done] = np.exp(-spec.r * first[done]) * np.where(
        nu[done] < mu[done], spec.f[k, l], spec.h[k, l])
    return pay


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Project-wide RNG: Philox keyed by (seed, stream).

    Counter-based, so replication streams are reproducible across
    platforms and independent of how work is scheduled.
    """
    if seed < 0 or stream < 0:
        raise InputError("seed and stream must be nonnegative")
    key = (int(seed) << 64) + int(stream)
    return np.random.Generator(np.random.Philox(key=key))
