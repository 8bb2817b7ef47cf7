"""Piecewise-deterministic belief dynamics and optimal stopping rules.

The informed player's optimal randomized stopping is carried by a PDMP
``Z = (pi, xi)`` on a set ``E = E_H union S``: a deterministic flow with
drift ``alpha``, a single jump at intensity ``lam`` landing in the
absorbing set ``S`` through the jump map ``phi``.  States ``z`` are flat
vectors: the belief block (length ``dim_p``, a simplex point) followed by
the dual-slope block (length ``dim_y``, possibly absent).

Five structure conditions tie the characteristics to the dual value
``V_*``; :func:`sc_check` verifies them on sample sets, and
:func:`build_mu` turns admissible characteristics into the stopping rule
of the verification theorem's case for the starting point:

* ``flow`` (start in ``E_H``): stop at the conditional intensity
  ``lam(z_t) * phi_p(z_t)[k] / p_t[k]`` while the own chain sits in ``k``,
  by one exponential threshold against the cumulative hazard per
  inter-jump segment of the own chain,
* ``split`` (start outside ``E``): randomize at time zero between an
  immediate stop and a ``flow`` start,
* ``stop_now`` (start in ``S``): stop immediately.

Every rule stops a whole :class:`~stopgame.model.PathBlock` at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, IntegrityError
from .model import PathBlock, as_simplex, marginal_flow

__all__ = [
    "PdmpCharacteristics", "Orbit", "integrate_flow", "ZPath", "simulate_Z",
    "StructureReport", "sc_check",
    "MixedStoppingStrategy", "FlowIntensityStrategy", "SplitThenFlowStrategy",
    "StopNowStrategy", "NeverStopStrategy", "ConstantTimeStrategy",
    "InitialStateTimeStrategy", "build_mu",
    "BeliefReport", "belief_consistency", "never_horizon",
]

_STALL_FRACTION = 1e-6
_ZERO_P = 1e-12
# inter-jump segments a flow rule draws thresholds for at a time, per path
_SEGMENT_COLUMNS = 32

SPLIT_NOTE = ("time-0 split uses the belief-consistent conditional probability "
              "m * p''[k] / p[k] given the own state k, so that the posterior is "
              "p'' on the stop event and p' otherwise; a literal threshold on "
              "{u <= m} truncated to supp(p') would not produce that posterior "
              "and is treated as a statement typo")


def never_horizon(r: float) -> float:
    """Simulation stand-in for +infinity: discount beyond is below 1e-8."""
    return math.log(1e8) / r


@dataclass
class PdmpCharacteristics:
    """Drift / intensity / jump-map triple together with domain oracles.

    ``A`` is the linear drift of the compensated motion,
    ``blockdiag(R^T, rI - Q)``; the structure conditions require
    ``alpha(z) + lam(z) (phi(z) - z) = A z`` exactly on ``E_H``.
    """

    dim_p: int
    dim_y: int
    r: float
    A: np.ndarray
    alpha: Callable[[np.ndarray], np.ndarray]
    lam: Callable[[np.ndarray], float]
    phi: Callable[[np.ndarray], np.ndarray]
    in_EH: Callable[[np.ndarray], bool]
    in_S: Callable[[np.ndarray], bool]
    split: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, float]] | None = None
    snap: Callable[[np.ndarray], np.ndarray] | None = None
    quiescent: Callable[[np.ndarray], bool] | None = None
    label: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        dim = self.dim_p + self.dim_y
        if self.A.shape != (dim, dim):
            raise InputError(f"drift matrix must be {dim}x{dim}")

    @property
    def dim(self) -> int:
        return self.dim_p + self.dim_y

    def p_part(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float)[: self.dim_p]

    def y_part(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float)[self.dim_p:]

    def in_E(self, z: np.ndarray) -> bool:
        return self.in_EH(z) or self.in_S(z)

    def is_quiescent(self, z: np.ndarray) -> bool:
        return bool(self.quiescent(z)) if self.quiescent is not None else False


@dataclass
class Orbit:
    """Sampled solution of ``w' = alpha(w)`` from one starting point.

    ``stationary`` means the state is constant beyond ``ts[-1]``;
    ``quiescent`` means the intensity is identically zero beyond (the
    state may keep moving, but nothing observable depends on it).
    """

    ts: np.ndarray
    zs: np.ndarray
    lams: np.ndarray
    horizon: float
    stationary: bool
    quiescent: bool

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def state_at(self, t: float) -> np.ndarray:
        if t >= self.ts[-1]:
            return self.zs[-1].copy()
        return _lerp(self.ts, self.zs, t)


def _lerp(ts: np.ndarray, values: np.ndarray, t: float):
    """Linear interpolation of ``values`` sampled at ``ts``, for ``t < ts[-1]``."""
    i = int(np.searchsorted(ts, t, side="right")) - 1
    t0, t1 = ts[i], ts[i + 1]
    w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
    return (1 - w) * values[i] + w * values[i + 1]


def _rk4(alpha, z, h):
    k1 = alpha(z)
    k2 = alpha(z + 0.5 * h * k1)
    k3 = alpha(z + 0.5 * h * k2)
    k4 = alpha(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_flow(char: PdmpCharacteristics, z0, horizon: float,
                   dt: float = 1e-3, truncate_quiescent: bool = False,
                   max_steps: int = 2_000_000) -> Orbit:
    """Integrate the drift from ``z0``, never leaving ``E_H``.

    Fixed-step RK4 with a local step ``dt / max(1, |alpha|)``.  A step
    that would exit ``E_H`` is bisected onto the boundary; if the field
    keeps pushing outward there, that is a flow-invariance violation and
    an :class:`IntegrityError` is raised.  Stationary points terminate the
    sampling (exact for an autonomous field).
    """
    z = np.asarray(z0, dtype=float).copy()
    if char.in_S(z):
        return Orbit(np.array([0.0]), z[None, :], np.array([0.0]), horizon, True, True)
    if not char.in_EH(z):
        raise InputError("flow must start inside E_H")
    ts = [0.0]
    zs = [z.copy()]
    lams = [float(char.lam(z))]
    t = 0.0
    stationary = quiescent = False
    for _ in range(max_steps):
        if t >= horizon:
            break
        if truncate_quiescent and char.is_quiescent(z):
            quiescent = True
            break
        a = char.alpha(z)
        speed = float(np.abs(a).max(initial=0.0))
        if speed < 1e-13:
            stationary = True
            break
        h = min(dt / max(1.0, speed), horizon - t)
        z_new = _rk4(char.alpha, z, h)
        if char.snap is not None:
            z_new = char.snap(z_new)
        if not char.in_EH(z_new):
            lo, hi = 0.0, h
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                cand = _rk4(char.alpha, z, mid)
                if char.snap is not None:
                    cand = char.snap(cand)
                if char.in_EH(cand):
                    lo = mid
                else:
                    hi = mid
            if lo < h * _STALL_FRACTION:
                raise IntegrityError(
                    "flow exits E_H: the drift pushes outward at the boundary "
                    f"(|alpha| = {speed:.3e} at t = {t:.6f})")
            h = lo
            z_new = _rk4(char.alpha, z, h)
            if char.snap is not None:
                z_new = char.snap(z_new)
        t += h
        z = z_new
        ts.append(t)
        zs.append(z.copy())
        lams.append(float(char.lam(z)))
    else:
        raise IntegrityError("flow integration exceeded the step budget")
    return Orbit(np.array(ts), np.array(zs), np.array(lams), horizon,
                 stationary, quiescent or (stationary and lams[-1] == 0.0))


class _Hazard:
    """Cumulative hazards ``H[:, k](t) = int_0^t rho[:, k]`` along an orbit.

    The rates ``rho`` are sampled at the orbit's times and linear in
    between, so the trapezoid rule is exact; beyond the sampled orbit the
    rate is constant (stationary tail) or zero (quiescent tail).
    """

    def __init__(self, orbit: Orbit, rho: np.ndarray):
        n, K = rho.shape
        self.ts = orbit.ts
        self.H = np.zeros((n, K))
        if n > 1:
            mids = 0.5 * (rho[1:] + rho[:-1])
            self.H[1:] = np.cumsum(mids * np.diff(orbit.ts)[:, None], axis=0)
        self.tail_rate = rho[-1] if (orbit.stationary and not orbit.quiescent) else np.zeros(K)
        self.columns = [np.ascontiguousarray(self.H[:, k]) for k in range(K)]

    @classmethod
    def conditional(cls, char: PdmpCharacteristics, orbit: Orbit) -> "_Hazard":
        """Stopping hazard per own-chain state: ``lam(z) * phi_p(z)[k] / p[k]``, 0/0 = 0."""
        K = char.dim_p
        rho = np.zeros((orbit.ts.size, K))
        for i, li in enumerate(orbit.lams):
            if li <= 0.0:
                continue
            p = char.p_part(orbit.zs[i])
            phi_p = char.p_part(char.phi(orbit.zs[i]))
            for k in range(K):
                if p[k] > _ZERO_P:
                    rho[i, k] = li * phi_p[k] / p[k]
                elif phi_p[k] > 1e-9:
                    raise IntegrityError(
                        "jump target puts mass on a state the belief excludes "
                        "(support shrinkage violated along the orbit)")
        return cls(orbit, rho)

    def inverse(self, k: np.ndarray, t0: np.ndarray, excess: np.ndarray) -> np.ndarray:
        """Smallest ``t >= t0[i]`` with ``H[k](t) - H[k](t0[i]) >= excess[i]``, ``k = k[i]``.

        ``+inf`` where the hazard never accumulates that much.
        """
        ts, H, rate = self.ts, self.H, self.tail_rate[k]
        last = ts.size - 1
        target = np.empty(t0.shape)
        i = np.empty(t0.shape, dtype=np.intp)
        for kk, Hk in enumerate(self.columns):
            sel = k == kk
            a = t0[sel]
            # H[kk](a) + excess, the hazard growing at the tail rate past the orbit
            tk = np.interp(a, ts, Hk) + self.tail_rate[kk] * np.maximum(a - ts[-1], 0.0)
            tk += excess[sel]
            target[sel] = tk
            i[sel] = Hk.searchsorted(tk, side="left")
        j = np.minimum(np.maximum(i, 1), last)
        h0, h1 = H[j - 1, k], H[j, k]
        w = np.divide(target - h0, h1 - h0, out=np.zeros(t0.shape), where=h1 != h0)
        t = np.where(i == 0, ts[0], np.maximum(ts[j - 1] + w * (ts[j] - ts[j - 1]), t0))
        # past the sampled orbit the rate is the constant tail rate
        tail = np.divide(target - H[-1, k], rate, out=np.full(t0.shape, math.inf),
                         where=rate > 0.0)
        return np.where(i > last, np.maximum(ts[-1] + tail, t0), t)


@dataclass
class ZPath:
    """One sampled PDMP path: deterministic segment, at most one jump, absorption."""

    z0: np.ndarray
    ts: np.ndarray
    zs: np.ndarray
    jump_time: float
    post_jump: np.ndarray | None
    horizon: float

    @property
    def jumped(self) -> bool:
        return math.isfinite(self.jump_time)

    def state_at(self, t: float) -> np.ndarray:
        if self.jumped and t >= self.jump_time:
            return self.post_jump.copy()
        if t >= self.ts[-1]:
            return self.zs[-1].copy()
        return _lerp(self.ts, self.zs, t)


def simulate_Z(char: PdmpCharacteristics, z0, horizon: float,
               rng: np.random.Generator) -> ZPath:
    """Sample the auxiliary process: flow, one jump, absorption in S.

    The jump comes where the cumulative intensity along the orbit reaches
    one ``Exp(1)`` draw.
    """
    z0 = np.asarray(z0, dtype=float)
    if char.in_S(z0):
        return ZPath(z0, np.array([0.0]), z0[None, :], math.inf, None, horizon)
    if not char.in_EH(z0):
        raise InputError("simulate_Z starts in E (pass exterior points through a split)")
    orbit = integrate_flow(char, z0, horizon, truncate_quiescent=True)
    jump_time = float(_Hazard(orbit, orbit.lams[:, None]).inverse(
        np.zeros(1, dtype=np.intp), np.zeros(1), np.array([rng.exponential()]))[0])
    if jump_time >= horizon:
        jump_time = math.inf
    post = None
    if math.isfinite(jump_time):
        post = char.phi(orbit.state_at(jump_time))
        if not char.in_S(post):
            raise IntegrityError("jump landed outside the absorbing set S")
    keep = orbit.ts <= min(jump_time, horizon)
    return ZPath(z0, orbit.ts[keep], orbit.zs[keep], jump_time, post, horizon)


# ---------------------------------------------------------------------------
# structure conditions


@dataclass
class StructureReport:
    """Per-condition outcome of a structure check over a sample set."""

    passed_by_condition: dict
    worst: dict
    failures: list
    counts: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(self.passed_by_condition.values())

    def __str__(self):
        lines = [f"structure check (tol={self.tol:g}): "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for name in sorted(self.passed_by_condition):
            ok = self.passed_by_condition[name]
            worst = self.worst.get(name)
            extra = f" worst={worst:.3e}" if worst is not None else ""
            lines.append(f"  {name}: {'ok' if ok else 'FAIL'}{extra}")
        lines.extend(f"  ! {msg}" for msg in self.failures[:8])
        return "\n".join(lines)


def _directional(vstar, z, d, eps=1e-7):
    scale = max(1.0, float(np.abs(d).max(initial=0.0)))
    step = eps / scale
    return (vstar(z + step * d) - vstar(z)) / step


def sc_check(char: PdmpCharacteristics, vstar, samples, tol: float = 1e-6,
             flow_horizon: float = 0.2, flow_dt: float = 2e-3) -> StructureReport:
    """Machine-check the structure conditions at each sample point.

    ``vstar`` is the dual value as a callable of the flat state.  Samples
    are classified through the membership oracles; exterior points need
    the characteristics to provide a ``split``.
    """
    names = ["sc1_membership", "sc2_absorbing", "sc2_invariant", "sc3_jump",
             "sc4_flatjump", "sc4_cone", "sc4_dynamic", "sc5_split"]
    ok = {n: True for n in names}
    worst = {n: 0.0 for n in names}
    failures: list[str] = []
    counts = {"EH": 0, "S": 0, "exterior": 0}

    def record(name, value, limit, msg):
        worst[name] = max(worst[name], value)
        if value > limit:
            ok[name] = False
            if len(failures) < 64:
                failures.append(f"{name}: {msg} (excess {value:.3e})")

    for z in samples:
        z = np.asarray(z, dtype=float)
        if char.in_S(z):
            counts["S"] += 1
            record("sc1_membership", float(char.in_EH(z)), 0.5,
                   f"S point {z} also claimed by E_H")
            record("sc2_absorbing", abs(char.lam(z)), 1e-10, f"lam != 0 on S at {z}")
            record("sc2_absorbing", float(np.abs(char.alpha(z)).max(initial=0.0)),
                   1e-10, f"alpha != 0 on S at {z}")
            continue
        if char.in_EH(z):
            counts["EH"] += 1
            az = char.A @ z
            resid = char.r * vstar(z) - _directional(vstar, z, az)
            record("sc1_membership", max(0.0, -resid), tol,
                   f"dual inequality fails at {z}")
            try:
                orbit = integrate_flow(char, z, flow_horizon, dt=flow_dt,
                                       truncate_quiescent=True)
                inside = all(char.in_E(w) for w in orbit.zs[:: max(1, orbit.zs.shape[0] // 16)])
                record("sc2_invariant", 0.0 if inside else 1.0, 0.5,
                       f"orbit from {z} leaves E")
            except IntegrityError as exc:
                record("sc2_invariant", 1.0, 0.5, f"orbit from {z}: {exc}")
            lam = float(char.lam(z))
            phi = np.asarray(char.phi(z), dtype=float)
            record("sc3_jump", 0.0 if char.in_S(phi) else 1.0, 0.5,
                   f"phi({z}) = {phi} not in S")
            record("sc3_jump", 0.0 if float(np.abs(phi - z).max()) > 1e-12 else 1.0,
                   0.5, f"phi({z}) equals z")
            if lam > 0.0:
                p = char.p_part(z)
                phi_p = char.p_part(phi)
                leak = float(phi_p[p <= _ZERO_P].max(initial=0.0))
                record("sc3_jump", leak, 1e-12,
                       f"phi moves mass onto a null state at {z}")
            flat = lam * (vstar(phi) - vstar(z) - _directional(vstar, z, phi - z))
            record("sc4_flatjump", abs(flat), tol, f"jump not along a flat of V_* at {z}")
            a = np.asarray(char.alpha(z), dtype=float)
            jump_dir = lam * (phi - z)
            cone = (_directional(vstar, z, a) + _directional(vstar, z, jump_dir)
                    - _directional(vstar, z, a + jump_dir))
            record("sc4_cone", abs(cone), tol,
                   f"directional derivatives not additive at {z}")
            dyn = float(np.abs(a + jump_dir - az).max(initial=0.0))
            record("sc4_dynamic", dyn, 1e-10,
                   f"alpha + lam (phi - z) != A z at {z}")
            continue
        counts["exterior"] += 1
        if char.split is None:
            raise InputError(f"sample {z} lies outside E and no split is available")
        z_flow, z_stop, m = char.split(z)
        z_flow = np.asarray(z_flow, dtype=float)
        z_stop = np.asarray(z_stop, dtype=float)
        record("sc5_split", 0.0 if (char.in_EH(z_flow) and char.in_S(z_stop)
                                    and 0.0 <= m <= 1.0) else 1.0,
               0.5, f"split of {z} leaves its pieces outside E_H x S")
        recon = float(np.abs((1 - m) * z_flow + m * z_stop - z).max())
        record("sc5_split", recon, 1e-9, f"split of {z} does not average back")
        mix = abs(vstar(z) - (1 - m) * vstar(z_flow) - m * vstar(z_stop))
        record("sc5_split", mix, tol, f"V_* not affine along the split of {z}")

    return StructureReport(ok, worst, failures, counts, tol)


# ---------------------------------------------------------------------------
# stopping strategies


class MixedStoppingStrategy:
    """A stopping rule of the own filtration plus an exogenous random stream.

    A rule implements ``stopping_times``, which stops a whole
    :class:`PathBlock` from one stream.  A row's decision uses only its
    path up to that decision and the draws the rule takes for it, which
    is what makes the rule adapted: altering the path strictly after the
    realized stopping time cannot change it.  The other rows only move
    where a row's draws sit in the stream, so each row has the law of the
    rule on one path.
    """

    case = "abstract"

    def stopping_time(self, paths: PathBlock, rng: np.random.Generator) -> float:
        """The stopping time of a one-row block; more rows raise ``ValueError``.

        A flow rule may leave the stream further along than a one-path
        rule would, since it draws thresholds for a column block of
        segments.  It stays only because perfbench's certify probe still stops one
        replication at a time through it; it goes with the next change to
        the benchmark.
        """
        (mu,) = self.stopping_times(paths, rng)
        return float(mu)

    def stopping_times(self, paths: PathBlock, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def belief(self, t: float) -> np.ndarray:
        """Conditional law of the own chain given no stop by ``t``."""
        raise NotImplementedError(f"{type(self).__name__} does not track a belief")

    def descriptor(self) -> dict:
        return {"case": self.case}


class NeverStopStrategy(MixedStoppingStrategy):
    case = "never"

    def __init__(self, R=None, p0=None):
        self.R = None if R is None else np.asarray(R, dtype=float)
        self.p0 = None if p0 is None else as_simplex(p0)

    def stopping_times(self, paths, rng):
        return np.full(paths.n, math.inf)

    def belief(self, t):
        if self.R is None or self.p0 is None:
            raise NotImplementedError("no chain attached")
        return marginal_flow(self.p0, self.R, t)

    def initial_belief(self):
        if self.p0 is None:
            raise NotImplementedError("no chain attached")
        return self.p0

    def descriptor(self):
        out = {"case": self.case}
        if self.R is not None:
            out["R"] = self.R.tolist()
        if self.p0 is not None:
            out["p0"] = self.p0.tolist()
        return out


class StopNowStrategy(MixedStoppingStrategy):
    case = "stop_now"

    def stopping_times(self, paths, rng):
        return np.zeros(paths.n)


class ConstantTimeStrategy(MixedStoppingStrategy):
    case = "constant_time"

    def __init__(self, time: float):
        if time < 0:
            raise InputError("stopping time must be nonnegative")
        self.time = float(time)

    def stopping_times(self, paths, rng):
        return np.full(paths.n, self.time)

    def descriptor(self):
        return {"case": self.case, "time": self.time}


class InitialStateTimeStrategy(MixedStoppingStrategy):
    """One deterministic time per initial own state (a pure response)."""

    case = "state_times"

    def __init__(self, times):
        self.times = np.asarray(times, dtype=float)
        if np.any(self.times < 0):
            raise InputError("stopping times must be nonnegative")

    def stopping_times(self, paths, rng):
        return self.times[paths.initial_states]

    def descriptor(self):
        return {"case": self.case, "times": self.times.tolist()}


class FlowIntensityStrategy(MixedStoppingStrategy):
    """Stop at the conditional intensity carried by the characteristics' orbit.

    While the own chain sits in ``k`` the rule stops at rate
    ``lam(z_t) * phi_p(z_t)[k] / p_t[k]``: each inter-jump segment of the
    own chain draws one exponential threshold, and the rule stops where
    the cumulative hazard ``H[k]`` gained since the segment start reaches
    it.
    """

    case = "flow"

    def __init__(self, char: PdmpCharacteristics, z0, horizon: float | None = None):
        z0 = np.asarray(z0, dtype=float)
        if not char.in_EH(z0):
            raise InputError("flow strategies start inside E_H")
        self.char = char
        self.z0 = z0
        self.t_max = never_horizon(char.r) if horizon is None else float(horizon)
        self.orbit = integrate_flow(char, z0, self.t_max, truncate_quiescent=True)
        self.hazard = _Hazard.conditional(char, self.orbit)

    def initial_belief(self) -> np.ndarray:
        return self.char.p_part(self.z0)

    def belief(self, t):
        return self.char.p_part(self.orbit.state_at(min(t, self.t_max)))

    def stopping_times(self, paths, rng):
        """One exponential threshold per inter-jump segment.

        Rows draw thresholds for ``_SEGMENT_COLUMNS`` segments at a time,
        never for more segments than the longest row has before the
        horizon; only rows that have neither stopped nor run past the
        horizon go on to the next columns.
        """
        end = min(paths.horizon, self.t_max)
        # segment j runs from bounds[:, j] to bounds[:, j + 1]
        width = int((paths.times < end).sum(axis=1).max(initial=0))
        bounds = np.full((paths.n, width + 1), end)
        np.minimum(paths.times[:, :width], end, out=bounds[:, :width])
        mu = np.full(paths.n, math.inf)
        rows = np.arange(paths.n)
        for lo in range(0, width, _SEGMENT_COLUMNS):
            rows = rows[bounds[rows, lo] < end]
            if not rows.size:
                break
            edges = bounds[rows, lo:lo + _SEGMENT_COLUMNS + 1]
            starts = edges[:, :-1]
            t = self.hazard.inverse(paths.states[rows, lo:lo + starts.shape[1]], starts,
                                    rng.exponential(size=starts.shape))
            hit = (t < edges[:, 1:]) & (starts < end)
            stopped = hit.any(axis=1)
            first = hit.argmax(axis=1)
            mu[rows[stopped]] = t[stopped, first[stopped]]
            rows = rows[~stopped]
        return mu

    def descriptor(self):
        return {"case": self.case, "z": self.z0.tolist(), "horizon": self.t_max,
                "characteristics": dict(self.char.params)}


class SplitThenFlowStrategy(MixedStoppingStrategy):
    """Randomize at time zero between stopping (posterior in S) and a flow start."""

    case = "split"

    def __init__(self, char: PdmpCharacteristics, z, z_flow, z_stop, m: float,
                 horizon: float | None = None, vstar=None, tol: float = 1e-6):
        z = np.asarray(z, dtype=float)
        z_flow = np.asarray(z_flow, dtype=float)
        z_stop = np.asarray(z_stop, dtype=float)
        if not (0.0 <= m <= 1.0):
            raise InputError("split mass must lie in [0, 1]")
        if float(np.abs((1 - m) * z_flow + m * z_stop - z).max()) > 1e-9:
            raise InputError("split does not average back to the start point")
        if not char.in_EH(z_flow) or not char.in_S(z_stop):
            raise InputError("split pieces must lie in E_H and S")
        if vstar is not None:
            gap = abs(vstar(z) - (1 - m) * vstar(z_flow) - m * vstar(z_stop))
            if gap > tol:
                raise InputError(f"V_* is not affine along the split (gap {gap:.3e})")
        self.char = char
        self.z = z
        self.m = float(m)
        self.z_stop = z_stop
        self.flow = FlowIntensityStrategy(char, z_flow, horizon)
        self.note = SPLIT_NOTE
        # time-zero stop probability given the own initial state k
        p, stop = char.p_part(z), char.p_part(z_stop)
        self.stop_prob = np.array([0.0 if p[k] <= _ZERO_P else min(1.0, self.m * stop[k] / p[k])
                                   for k in range(char.dim_p)])

    def initial_belief(self) -> np.ndarray:
        return self.char.p_part(self.z)

    def belief(self, t):
        return self.flow.belief(t)

    def stopping_times(self, paths, rng):
        mu = np.zeros(paths.n)
        go_on = rng.uniform(size=paths.n) >= self.stop_prob[paths.initial_states]
        mu[go_on] = self.flow.stopping_times(paths.take(go_on), rng)
        return mu

    def descriptor(self):
        return {"case": self.case, "z": self.z.tolist(),
                "z_flow": self.flow.z0.tolist(), "z_stop": self.z_stop.tolist(),
                "m": self.m, "horizon": self.flow.t_max,
                "characteristics": dict(self.char.params), "note": self.note}


def build_mu(char: PdmpCharacteristics, z, horizon: float | None = None,
             vstar=None) -> MixedStoppingStrategy:
    """Optimal stopping rule from ``z``, by the case of the verification theorem.

    Stop now on ``S``, follow the flow intensity from ``E_H``, and split
    at time zero through ``char.split`` everywhere else; ``vstar``, when
    given, must be affine along that split.
    """
    z = np.asarray(z, dtype=float)
    if char.in_S(z):
        return StopNowStrategy()
    if char.in_EH(z):
        return FlowIntensityStrategy(char, z, horizon)
    if char.split is None:
        raise InputError("no split available for exterior starting points")
    z_flow, z_stop, m = char.split(z)
    return SplitThenFlowStrategy(char, z, z_flow, z_stop, m, horizon, vstar=vstar)


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


def belief_consistency(strategy: MixedStoppingStrategy, R, t: float, n: int,
                       seed: int = 0, horizon: float | None = None) -> BeliefReport:
    """Estimate P(X_t = k | no stop by t) and compare with the tracked belief.

    The chain starts from the strategy's initial belief and runs under
    generator ``R``; survivors of the stopping rule at ``t`` are binned
    by state and z-scored against the deterministic belief flow.
    Replications use the block streams of :mod:`stopgame.montecarlo`.
    """
    from .montecarlo import survivor_counts

    if not hasattr(strategy, "initial_belief"):
        raise InputError("strategy does not expose an initial belief")
    p0 = strategy.initial_belief()
    predicted = np.asarray(strategy.belief(t), dtype=float)
    K = p0.size
    horizon = horizon if horizon is not None else max(2.0 * t, 1.0)
    if not 0.0 <= t <= horizon:
        raise InputError(f"check time {t} outside the sampled horizon [0, {horizon}]")
    counts = survivor_counts(strategy, np.asarray(R, dtype=float), p0, t, horizon,
                             n, seed).astype(float)
    survivors = int(counts.sum())
    inconclusive = survivors < 100
    empirical = counts / survivors if survivors else np.zeros(K)
    se = np.sqrt(np.maximum(predicted * (1 - predicted), 1e-12) / max(survivors, 1))
    z = (empirical - predicted) / se
    return BeliefReport(t, predicted, empirical, z, survivors, n, inconclusive)
