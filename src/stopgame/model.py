"""Game primitives: chains, payoffs, sample paths, and the realized payoff.

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
"""

from __future__ import annotations

import enum
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
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed game JSON: {exc}") from exc
        for key in ("K", "L", "R", "Q", "r", "f", "h", "p", "q"):
            if key not in payload:
                raise InputError(f"game JSON missing field {key!r}")
        spec = cls(
            R=payload["R"], Q=payload["Q"], r=float(payload["r"]),
            f=payload["f"], h=payload["h"], p0=payload["p"], q0=payload["q"],
        )
        if spec.K != int(payload["K"]) or spec.L != int(payload["L"]):
            raise InputError("fields K/L disagree with the matrix shapes")
        return spec


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant path of a finite-state chain on ``[0, horizon]``.

    ``times[0] == 0`` carries the initial state; later entries are jump
    times.  Lookups past the horizon fail loudly rather than extrapolate.
    """

    times: np.ndarray
    states: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=np.int64)
        if t.ndim != 1 or s.shape != t.shape or t.size == 0:
            raise InputError("trajectory needs matching 1-d times and states")
        if t[0] != 0.0:
            raise InputError("trajectory must start at time 0")
        if np.any(np.diff(t) <= 0):
            raise InputError("jump times must be strictly increasing")
        if t[-1] > self.horizon:
            raise InputError("jump time beyond the trajectory horizon")
        if np.any(s[1:] == s[:-1]):
            raise InputError("consecutive states must differ")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def initial_state(self) -> int:
        return int(self.states[0])

    @property
    def n_jumps(self) -> int:
        return self.times.size - 1

    def state_at(self, t: float) -> int:
        if t < 0 or t > self.horizon:
            raise InputError(f"time {t} outside trajectory domain [0, {self.horizon}]")
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return int(self.states[idx])


class Stopper(enum.Enum):
    P1 = "P1_stopped"
    P2 = "P2_stopped"
    NOBODY = "nobody"


@dataclass(frozen=True)
class StopOutcome:
    who: Stopper
    time: float
    payoff: float


def marginal_flow(p, G, t: float) -> np.ndarray:
    """Law of the chain at time ``t``: ``expm(t * G.T) @ p``."""
    p = as_simplex(p)
    G = np.asarray(G, dtype=float)
    if not math.isfinite(t):
        raise InputError("flow time must be finite")
    if t == 0.0 or not np.any(G):
        return p
    return as_simplex(expm(t * G.T) @ p)


class ChainSampler:
    """Reusable path sampler: validates the generator once, then samples fast.

    Two-state chains (the common case here) draw whole blocks of holding
    times at once since the jump target is forced; larger chains fall
    back to a per-event loop with a precomputed jump kernel.
    """

    def __init__(self, G, p):
        self.G = as_generator(G)
        self.p = as_simplex(p)
        self.K = self.p.size
        self.rates = -np.diag(self.G)
        self.p_cum = np.cumsum(self.p)
        kernels = np.maximum(self.G, 0.0)
        np.fill_diagonal(kernels, 0.0)
        sums = kernels.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.kernel_cum = np.cumsum(
                np.where(sums[:, None] > 0, kernels / np.where(sums[:, None] > 0, sums[:, None], 1.0), 0.0),
                axis=1)

    def sample(self, horizon: float, rng: np.random.Generator) -> Trajectory:
        if not math.isfinite(horizon) or horizon < 0:
            raise InputError("horizon must be finite and nonnegative")
        state = int(np.searchsorted(self.p_cum, rng.random(), side="right"))
        if self.K == 2:
            return self._two_state(state, horizon, rng)
        times = [0.0]
        states = [state]
        t = 0.0
        while True:
            rate = self.rates[state]
            if rate <= 0.0:
                break
            t += rng.exponential(1.0 / rate)
            if t > horizon:
                break
            state = int(np.searchsorted(self.kernel_cum[state], rng.random(), side="right"))
            times.append(t)
            states.append(state)
        return Trajectory(np.array(times), np.array(states, dtype=np.int64), horizon)

    def _two_state(self, state: int, horizon: float, rng) -> Trajectory:
        # states alternate, so only the holding times are random
        times = [np.zeros(1)]
        all_states = [np.array([state], dtype=np.int64)]
        t, s = 0.0, state
        while True:
            rate_now, rate_next = self.rates[s], self.rates[1 - s]
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
        return Trajectory(np.concatenate(times), np.concatenate(all_states), horizon)


def simulate_chain(G, p, horizon: float, rng: np.random.Generator) -> Trajectory:
    """Sample one path: exponential holding times, jump kernel from the rates.

    Absorbing states (zero exit rate) simply produce no further events.
    """
    return ChainSampler(G, p).sample(horizon, rng)


def bilinear_payoff(M, p, q) -> float:
    """Extend a payoff matrix linearly to beliefs: sum_kl p_k q_l M[k, l]."""
    M = np.asarray(M, dtype=float)
    p = as_simplex(p)
    q = as_simplex(q)
    if M.shape != (p.size, q.size):
        raise InputError(f"payoff matrix shape {M.shape} does not match beliefs ({p.size}, {q.size})")
    return float(p @ M @ q)


def realized_payoff(spec: GameSpec, X: Trajectory, Y: Trajectory,
                    mu: float, nu: float) -> StopOutcome:
    """Discounted payoff of one realized play.

    Strict priority to the minimizer on ``nu < mu``; ties and ``mu < nu``
    pay the maximizer's obstacle; nobody stopping pays exactly zero.
    """
    if mu < 0 or nu < 0:
        raise InputError("stopping times must be nonnegative")
    first = min(mu, nu)
    if math.isinf(first):
        return StopOutcome(Stopper.NOBODY, math.inf, 0.0)
    if first > X.horizon or first > Y.horizon:
        raise InputError("trajectory shorter than the realized stopping time")
    k, l = X.state_at(first), Y.state_at(first)
    disc = math.exp(-spec.r * first)
    if nu < mu:
        return StopOutcome(Stopper.P2, nu, disc * float(spec.f[k, l]))
    return StopOutcome(Stopper.P1, mu, disc * float(spec.h[k, l]))


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Project-wide RNG: Philox keyed by (seed, stream).

    Counter-based, so replication streams are reproducible across
    platforms and independent of how work is scheduled.
    """
    if seed < 0 or stream < 0:
        raise InputError("seed and stream must be nonnegative")
    key = (int(seed) << 64) + int(stream)
    return np.random.Generator(np.random.Philox(key=key))
