"""Game primitives: chains, payoffs, blocks of sample paths, realized payoffs.

Conventions used throughout the package:

* A belief over a finite state set is a numpy vector on the unit simplex.
  For two-state sets we often work in the scalar chart ``p = weight of
  state 0``, so an affine payoff ``c0 + c1*p`` corresponds to the matrix
  entries ``value(state 0) = c0 + c1`` and ``value(state 1) = c0``.
* Generators are row-generator matrices ``G`` (rows sum to zero,
  off-diagonal rates nonnegative); the law of the chain evolves as
  ``p_t = expm(t * G.T) @ p``.
  Everything that takes a chain ``(G, p)`` checks it by :func:`as_chain`.
* Player 1 (the maximizer) stops at ``mu`` and collects ``h``; player 2
  (the minimizer) stops at ``nu`` and pays ``f``; ties go to player 1.
  :func:`realized_payoffs` scores this; ``montecarlo._response_chunk``
  adds only the candidate cut (candidates from ``searchsorted(finite,
  mu, "left")`` on, those with ``finite >= mu``, pay ``h``).
* Sample paths come as :class:`PathBlock` arrays, one path per row;
  there is no separate one-path type.
* :func:`_propagate` moves every law (``marginal_flow``, the solver's
  stencils); it and :func:`_expm` share one numpy scaling and squaring:
  the package needs scipy only for the qhull triangulations of 3-state charts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

SIMPLEX_CLAMP = 1e-12
SIMPLEX_SUM_TOL = 1e-9
GENERATOR_ROW_TOL = 1e-12
# remainder of the Taylor polynomial at a 1-norm of at most 1:
# sum_{k > 18} 1/k! < 1/19! * 20/19 = 8.6e-18, below the unit roundoff 2^-53
_TAYLOR_DEGREE = 18


def as_simplex(weights) -> np.ndarray:
    """Validate and normalize a probability vector.

    Entries in ``[-SIMPLEX_CLAMP, 0)`` are rounded up to zero (arithmetic noise);
    anything more negative is an error, as is a total mass off by more
    than ``SIMPLEX_SUM_TOL``.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InputError("simplex point must be a nonempty 1-d vector")
    if not np.isfinite(w).all():
        raise InputError("probabilities must be finite")
    if (w < -SIMPLEX_CLAMP).any():
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


def as_chain(G, p) -> tuple[np.ndarray, np.ndarray]:
    """Validate a generator ``G`` and a law ``p`` on the same states."""
    G, p = as_generator(G), as_simplex(p)
    if G.shape != (p.size, p.size):
        raise InputError(f"generator must be {p.size}x{p.size} to match the law's dimensions")
    return G, p


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
        R, p0 = as_chain(self.R, self.p0)
        Q, q0 = as_chain(self.Q, self.q0)
        f = np.asarray(self.f, dtype=float)
        h = np.asarray(self.h, dtype=float)
        K, L = p0.size, q0.size
        if f.shape != (K, L) or h.shape != (K, L):
            raise InputError(f"payoff matrices must have shape ({K}, {L})")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(h))):
            raise InputError("payoffs must be finite")
        if np.any(f < h):
            raise InputError("payoffs must satisfy f >= h entrywise")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise InputError("discount rate must be positive and finite")
        for name, value in (("R", R), ("Q", Q), ("f", f), ("h", h), ("p0", p0), ("q0", q0)):
            object.__setattr__(self, name, value)

    @property
    def K(self) -> int:
        return self.R.shape[0]

    @property
    def L(self) -> int:
        return self.Q.shape[0]

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


def _scaled_exp(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(e^(a / 2^s), s)``: a matrix exponential before its ``s`` squarings.

    Moler & Van Loan, "Nineteen dubious ways to compute the exponential of
    a matrix, twenty-five years later", SIAM Review 45 (2003).  With the
    shift ``c = max(0, -min a_ii)``, ``e^a = e^-c e^(a + cI)``; ``a + cI``
    is scaled by ``2^-s`` to a 1-norm below 1, and its exponential is the
    Taylor polynomial of the degree that the a-priori remainder bound asks
    for at norm 1, by Horner's rule, times ``e^(-c/2^s)``.  For ``tG^T``
    of a generator ``a + cI`` is entrywise nonnegative: nothing cancels,
    and no entry comes out negative.
    """
    a = np.asarray(a, dtype=float)
    eye = np.eye(a.shape[0])
    c = max(0.0, -float(a.diagonal().min()))
    b = a + c * eye
    norm = float(np.abs(b).sum(axis=0).max())
    s = max(0, math.frexp(norm)[1])  # 2^-s norm < 1; ldexp, unlike 2.0**s, cannot overflow
    b = np.ldexp(b, -s)
    e = eye + b / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        e = eye + (b @ e) / k
    e *= math.exp(-math.ldexp(c, -s))
    return e, s


def _expm(a: np.ndarray) -> np.ndarray:
    """``e^a`` for an ``a`` that is no generator, the dual slope flow ``t(rI - R)``."""
    e, s = _scaled_exp(a)
    for _ in range(s):
        e = e @ e
    return e


def _propagate(laws: np.ndarray, G: np.ndarray, t: float) -> np.ndarray:
    """Each row of ``laws`` moved by the chain ``G`` for a time ``t``: ``laws @ e^(tG)``.

    ``e^(tG^T)`` has unit column sums exactly, so each squaring rescales
    them to 1 and their rounding drift cannot double with each squaring.
    Rounding negatives are clamped to 0 and each law renormalized.
    """
    e, s = _scaled_exp(t * G.T)
    for _ in range(s):
        e = e @ e
        e /= e.sum(axis=0)
    flowed = np.maximum(laws @ e.T, 0.0)
    return flowed / flowed.sum(axis=1, keepdims=True)


def marginal_flow(p, G, t: float) -> np.ndarray:
    """Law of the chain at time ``t``: ``expm(t * G.T) @ p``."""
    G, p = as_chain(G, p)
    if not math.isfinite(t):
        raise InputError("flow time must be finite")
    if t < 0.0:
        raise InputError("flow time must be nonnegative")
    if t == 0.0 or not np.any(G):
        return p
    return _propagate(p[None, :], G, t)[0]


@dataclass(frozen=True)
class PathBlock:
    """A block of sampled paths of one chain, one per row, row ``i`` on ``[times[i, 0], ends[i]]``.

    ``times[i]`` is the row's start time (0 for a fresh path) followed by
    its jump times, padded with ``+inf`` to a common width;
    ``states[i, j]`` is the state held from ``times[i, j]`` on (entries
    under the padding carry no meaning).  ``ends[i]`` is how far row ``i``
    is sampled; a scalar is taken for every row.  Rows may end at
    different times, since Monte Carlo continues only the rows its
    stopping rule still reads.  This is the package's only path type:
    samplers, stopping rules and :func:`realized_payoffs` all work on
    whole blocks.
    """

    times: np.ndarray
    states: np.ndarray
    ends: np.ndarray

    def __post_init__(self):
        ends = np.asarray(self.ends, dtype=float)
        if ends.ndim == 0:
            ends = np.full(self.times.shape[0], float(ends))
        object.__setattr__(self, "ends", ends)

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
        return PathBlock(self.times[rows], self.states[rows], self.ends[rows])

    def states_at(self, t: np.ndarray) -> np.ndarray:
        """State of row ``i`` at time ``t[i]`` (meaningless where ``t[i]`` is inf)."""
        idx = (self.times[:, 1:] <= np.asarray(t, dtype=float)[:, None]).sum(axis=1)
        return self.states[np.arange(self.n), idx]

    def _joined(self, rows: np.ndarray, more: "PathBlock") -> "PathBlock":
        """This block with row ``rows[i]`` continued by row ``i`` of ``more``.

        Row ``i`` of ``more`` must start where row ``rows[i]`` ends, in the
        state it holds there: its jumps follow the row's own, and its end
        becomes the row's end.
        """
        held = np.isfinite(self.times[rows]).sum(axis=1)  # events before the cut
        added = more.times[:, 1:]
        width = max(self.times.shape[1], int(held.max(initial=0)) + added.shape[1])
        times = np.full((self.n, width), np.inf)
        states = np.zeros((self.n, width), dtype=self.states.dtype)
        times[:, :self.times.shape[1]] = self.times
        states[:, :self.states.shape[1]] = self.states
        # every column from a row's held count on is padding, so the jumps go there
        cols = held[:, None] + np.arange(added.shape[1])
        times[rows[:, None], cols] = added
        states[rows[:, None], cols] = more.states[:, 1:]
        width = int(np.isfinite(times).sum(axis=1).max(initial=1))
        ends = self.ends.copy()
        ends[rows] = more.ends
        return PathBlock(times[:, :width], states[:, :width], ends)


class ChainSampler:
    """Reusable path sampler: validates the generator once, then samples fast.

    :meth:`sample_block` draws a whole block of fresh paths from one
    stream; :meth:`sample` is its one-row view.  :meth:`extend` is the one
    continuation: it continues chosen rows of a block from their ends,
    each in the state it holds there, and by the Markov property the
    joined rows have the law of rows sampled to the later end at once.
    Both run the same two samplers from a start time and start states.  A
    fresh block draws the initial-state uniforms of all rows first, then
    each row's holding times in path order, so a block of one row draws
    what a single path always drew.  Two-state chains (``_two_state``)
    draw one sized chunk of holding times per row, since the jump target
    is forced, and the rare row that uses up its chunk is continued
    through :meth:`extend`; larger chains (``_event_loop``) run a
    per-event loop across the rows with a precomputed jump kernel.
    """

    def __init__(self, G, p):
        self.G, self.p = as_chain(G, p)
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
        return self._paths(np.zeros(n), initial, horizon, rng)

    def extend(self, paths: PathBlock, rows: np.ndarray, horizon: float,
               rng: np.random.Generator) -> tuple[PathBlock, PathBlock]:
        """Rows ``rows`` of ``paths`` continued from their ends to ``horizon``, drawn from ``rng``.

        Returns ``(joined, more)``: ``paths`` with those rows continued,
        and the continuation alone, whose row ``i`` starts at the end of
        row ``rows[i]``; a stopping rule stops it from there.
        """
        cut = paths.take(rows)
        if not np.all(cut.ends <= horizon) or not math.isfinite(horizon):
            raise InputError("a block continues to a finite horizon past its rows' ends")
        more = self._paths(cut.ends, cut.states_at(cut.ends), horizon, rng)
        return paths._joined(rows, more), more

    def _paths(self, start: np.ndarray, initial: np.ndarray, horizon: float, rng) -> PathBlock:
        if self.K != 2:
            return PathBlock(*self._event_loop(start, initial, horizon, rng), float(horizon))
        paths, short = self._two_state(start, initial, horizon, rng)
        return self.extend(paths, short, horizon, rng)[0] if short.size else paths

    def _event_loop(self, start, initial, horizon: float, rng):
        n = initial.size
        state = initial.copy()
        t = start.copy()
        time_cols, state_cols = [start], [initial]
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

    def _two_state(self, start, initial, horizon: float, rng) -> tuple[PathBlock, np.ndarray]:
        """Paths to ``horizon``, and the rows that ran out of draws.

        States alternate, so only the holding times are random: each row
        draws one chunk sized to cover the horizon with a 10-sigma margin.
        A row whose every draw lands by the horizon (``cut == sizes``,
        rare) may jump again after its last draw, so it ends there.
        """
        rows = np.flatnonzero(self.rates[initial] > 0.0)
        if not rows.size:
            return PathBlock(start[:, None].copy(), initial[:, None].copy(), float(horizon)), rows
        s = initial[rows]
        hold_now, hold_next = self.mean_hold[s], self.mean_hold[1 - s]
        pair_mean = hold_now + np.where(self.rates[1 - s] > 0, hold_next, 0.0)
        expect = (horizon - start[rows]) / pair_mean * 2.0
        sizes = (expect + 10.0 * np.sqrt(expect + 1.0)).astype(np.int64) + 16
        jumps = np.full((rows.size, int(sizes.max())), np.inf)
        jumps[np.arange(jumps.shape[1]) < sizes[:, None]] = np.maximum(
            rng.exponential(size=int(sizes.sum())), 1e-300)
        jumps[:, 0::2] *= hold_now[:, None]
        jumps[:, 1::2] *= hold_next[:, None]
        np.cumsum(jumps, axis=1, out=jumps)
        jumps += start[rows, None]
        cut = (jumps <= horizon).sum(axis=1)
        out = cut == sizes
        ends = np.full(initial.size, float(horizon))
        ends[rows[out]] = jumps[out, sizes[out] - 1]
        jumps = jumps[:, :int(cut.max())]
        jumps[jumps > horizon] = np.inf
        times = np.full((initial.size, 1 + jumps.shape[1]), np.inf)
        times[:, 0] = start
        times[rows, 1:] = jumps
        states = initial[:, None] ^ (np.arange(times.shape[1], dtype=self._dtype) & 1)
        return PathBlock(times, states, ends), rows[out]


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
    if np.any(first[done] > np.minimum(X.ends, Y.ends)[done]):
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
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise InputError("seed and stream must be nonnegative and below 2**64")
    key = (int(seed) << 64) + int(stream)
    return np.random.Generator(np.random.Philox(key=key))
