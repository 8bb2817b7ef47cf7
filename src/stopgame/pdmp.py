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

Every rule stops a whole :class:`~stopgame.model.PathBlock` at once
through its one ``stopping_times``, fresh rows and rows continued past a
cut alike, each row from its own start; so Monte Carlo samples paths
only as far as a rule reads them.  The Monte Carlo checks that run the
rules over sampled blocks, the belief consistency check included, live
in :mod:`stopgame.montecarlo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, IntegrityError
from .model import PathBlock, as_chain, marginal_flow

__all__ = [
    "PdmpCharacteristics", "Orbit", "integrate_flow", "ZPath", "simulate_Z",
    "StructureReport", "sc_check",
    "MixedStoppingStrategy", "FlowIntensityStrategy", "SplitThenFlowStrategy",
    "StopNowStrategy", "NeverStopStrategy", "ConstantTimeStrategy",
    "InitialStateTimeStrategy", "build_mu", "never_horizon",
]

_STALL_FRACTION = 1e-6
_ZERO_P = 1e-12
_MAX_FLOW_STEPS = 2_000_000
_FLOW_DT = 1e-3  # integrate_flow's base step, for every rule and for sc_check
# sc_check follows each E_H sample's orbit this far for sc2
_SC_FLOW_HORIZON = 0.2
_SC_TOL = 1e-6  # the excess sc_check allows on sc1, sc4 and sc5's affinity
# largest distance of a split's average from its start point, and gap from
# affinity of V_* along it, that a split rule accepts
_SPLIT_RECON_TOL = 1e-9
_SPLIT_AFFINE_TOL = 1e-6

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
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        dim = self.dim_p + self.dim_y
        if self.A.shape != (dim, dim):
            raise InputError(f"drift matrix must be {dim}x{dim}")

    def p_part(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float)[: self.dim_p]

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


def _step(char: PdmpCharacteristics, z: np.ndarray, k1: np.ndarray, h: float) -> np.ndarray:
    """One RK4 step of the drift from ``z``, whose drift there is ``k1``,
    snapped by ``char.snap`` when there is one."""
    alpha = char.alpha
    k2 = alpha(z + 0.5 * h * k1)
    k3 = alpha(z + 0.5 * h * k2)
    k4 = alpha(z + h * k3)
    z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z if char.snap is None else char.snap(z)


def integrate_flow(char: PdmpCharacteristics, z0, horizon: float) -> Orbit:
    """Integrate the drift from ``z0``, never leaving ``E_H``.

    Fixed-step RK4 with a local step ``_FLOW_DT / max(1, |alpha|)``.  A step
    that would exit ``E_H`` is bisected onto the boundary; if the field
    keeps pushing outward there, that is a flow-invariance violation and
    an :class:`IntegrityError` is raised.  Sampling stops at a stationary
    point (exact for an autonomous field) and at the first quiescent
    state, where the intensity is zero from then on; more than
    ``_MAX_FLOW_STEPS`` steps is an :class:`IntegrityError`.  A start in
    ``S`` is a one-sample orbit; one outside ``E`` is an :class:`InputError`.
    """
    z = np.asarray(z0, dtype=float).copy()
    if char.in_S(z):
        return Orbit(np.array([0.0]), z[None, :], np.array([0.0]), True, True)
    if not char.in_EH(z):
        raise InputError("flow must start inside E_H")
    ts = [0.0]
    zs = [z.copy()]
    lams = [float(char.lam(z))]
    t = 0.0
    stationary = quiescent = False
    for _ in range(_MAX_FLOW_STEPS):
        if t >= horizon:
            break
        if char.is_quiescent(z):
            quiescent = True
            break
        a = char.alpha(z)
        speed = float(np.abs(a).max(initial=0.0))
        if speed < 1e-13:
            stationary = True
            break
        h = min(_FLOW_DT / max(1.0, speed), horizon - t)
        z_new = _step(char, z, a, h)
        if not char.in_EH(z_new):
            lo, hi = 0.0, h
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if char.in_EH(_step(char, z, a, mid)):
                    lo = mid
                else:
                    hi = mid
            if lo < h * _STALL_FRACTION:
                raise IntegrityError(
                    "flow exits E_H: the drift pushes outward at the boundary "
                    f"(|alpha| = {speed:.3e} at t = {t:.6f})")
            h = lo
            z_new = _step(char, z, a, h)
        t += h
        z = z_new
        ts.append(t)
        zs.append(z.copy())
        lams.append(float(char.lam(z)))
    else:
        raise IntegrityError("flow integration exceeded the step budget")
    return Orbit(np.array(ts), np.array(zs), np.array(lams), stationary,
                 quiescent or (stationary and lams[-1] == 0.0))


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
        rho = np.zeros((orbit.ts.size, char.dim_p))
        on = orbit.lams > 0.0
        p = orbit.zs[on, : char.dim_p]
        target = np.array([char.p_part(char.phi(z)) for z in orbit.zs[on]]).reshape(p.shape)
        if np.any(target[p <= _ZERO_P] > 1e-9):
            raise IntegrityError("jump target puts mass on a state the belief excludes "
                                 "(support shrinkage violated along the orbit)")
        rho[on] = _conditional_share(orbit.lams[on, None], target, p)
        return cls(orbit, rho)

    def at(self, k: int, t: np.ndarray) -> np.ndarray:
        """``H[k](t)``, growing at the tail rate past the sampled orbit."""
        ts = self.ts
        return np.interp(t, ts, self.columns[k]) + self.tail_rate[k] * np.maximum(t - ts[-1], 0.0)

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
            tk = self.at(kk, t0[sel]) + excess[sel]
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


def _conditional_share(mass, target: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Stop chance (or rate) given own state ``k``, ``mass * target[k] / p[k]``, 0/0 = 0."""
    return np.divide(mass * target, p, out=np.zeros(np.shape(p)), where=p > _ZERO_P)


@dataclass
class ZPath:
    """One sampled PDMP path: deterministic segment, at most one jump, absorption."""

    ts: np.ndarray
    zs: np.ndarray
    jump_time: float
    post_jump: np.ndarray | None

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
    one ``Exp(1)`` draw.  The start rules are :func:`integrate_flow`'s;
    pass exterior points through a split.
    """
    return _z_paths(char, z0, horizon, rng, 1)[0]


def _z_paths(char: PdmpCharacteristics, z0, horizon: float,
             rng: np.random.Generator, n: int) -> list[ZPath]:
    """``n`` independent paths of :func:`simulate_Z`'s process.

    The orbit is integrated once and the ``n`` ``Exp(1)`` draws come from
    ``rng`` in one call; the paths hold views of the orbit's arrays.
    """
    orbit = integrate_flow(char, z0, horizon)
    draws = rng.exponential(size=n)
    jump_times = _Hazard(orbit, orbit.lams[:, None]).inverse(
        np.zeros(n, dtype=np.intp), np.zeros(n), draws)
    paths = []
    for jump_time in jump_times.tolist():
        if jump_time >= horizon:
            jump_time = math.inf
        post = None
        if math.isfinite(jump_time):
            post = char.phi(orbit.state_at(jump_time))
            if not char.in_S(post):
                raise IntegrityError("jump landed outside the absorbing set S")
        keep = int(orbit.ts.searchsorted(min(jump_time, horizon), side="right"))
        paths.append(ZPath(orbit.ts[:keep], orbit.zs[:keep], jump_time, post))
    return paths


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


def _split_defects(char: PdmpCharacteristics, z, z_flow, z_stop, m: float,
                   vstar=None) -> tuple[bool, float, float]:
    """Whether the pieces lie in ``E_H x S`` with ``m`` in [0, 1], the distance of their
    average from ``z``, and the gap of ``V_*`` from affinity (0 without ``vstar``)."""
    pieces = bool(char.in_EH(z_flow) and char.in_S(z_stop) and 0.0 <= m <= 1.0)
    recon = float(np.abs((1 - m) * z_flow + m * z_stop - z).max())
    gap = 0.0 if vstar is None else abs(vstar(z) - (1 - m) * vstar(z_flow) - m * vstar(z_stop))
    return pieces, recon, gap


def _directional(vstar, z, d, eps=1e-7):
    scale = max(1.0, float(np.abs(d).max(initial=0.0)))
    step = eps / scale
    return (vstar(z + step * d) - vstar(z)) / step


def sc_check(char: PdmpCharacteristics, vstar, samples) -> StructureReport:
    """Machine-check the structure conditions at each sample point.

    ``vstar`` is the dual value as a callable of the flat state.  Samples
    are classified through the membership oracles; exterior points need
    the characteristics to provide a ``split``.  Flow invariance (sc2) is
    checked on the orbit from each ``E_H`` sample over ``_SC_FLOW_HORIZON``:
    :func:`integrate_flow` keeps every orbit point in ``E_H`` or raises
    :class:`IntegrityError`, and that error is the one way sc2 fails.
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
            record("sc1_membership", max(0.0, -resid), _SC_TOL,
                   f"dual inequality fails at {z}")
            try:
                integrate_flow(char, z, _SC_FLOW_HORIZON)
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
            record("sc4_flatjump", abs(flat), _SC_TOL, f"jump not along a flat of V_* at {z}")
            a = np.asarray(char.alpha(z), dtype=float)
            jump_dir = lam * (phi - z)
            cone = (_directional(vstar, z, a) + _directional(vstar, z, jump_dir)
                    - _directional(vstar, z, a + jump_dir))
            record("sc4_cone", abs(cone), _SC_TOL,
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
        pieces, recon, gap = _split_defects(char, z, z_flow, z_stop, m, vstar)
        record("sc5_split", 0.0 if pieces else 1.0, 0.5,
               f"split of {z} leaves its pieces outside E_H x S")
        record("sc5_split", recon, _SPLIT_RECON_TOL, f"split of {z} does not average back")
        record("sc5_split", gap, _SC_TOL, f"V_* not affine along the split of {z}")

    return StructureReport(ok, worst, failures, counts, _SC_TOL)


# ---------------------------------------------------------------------------
# stopping strategies


class MixedStoppingStrategy:
    """A stopping rule of the own filtration plus an exogenous random stream.

    A rule implements ``stopping_times``, which stops a whole
    :class:`PathBlock` from one stream, each row given no stop before the
    row's start ``paths.times[:, 0]``.  A row's decision uses only its
    path up to that decision and the draws the rule takes for it, which
    is what makes the rule adapted: altering the path strictly after the
    realized stopping time cannot change it.  The other rows only move
    where a row's draws sit in the stream, so each row has the law of the
    rule on one path.

    A rule may also stop a block that is short of the horizon and then,
    by the same ``stopping_times``, the continuations of the rows it left
    unstopped, each from where it was cut, up to ``resumes_until``.  Rules
    decided at time 0 read the initial states only and set
    ``resumes_until`` to 0; the base class sets it to ``+inf``, which asks
    for whole paths at once.
    """

    case = "abstract"
    resumes_until = math.inf

    def stopping_time(self, paths: PathBlock, rng: np.random.Generator) -> float:
        """The stopping time of a one-row block; more rows raise ``ValueError``.

        A flow rule may leave the stream further along than a one-path
        rule would, since it draws thresholds for every segment of the
        path.  It stays only because perfbench's certify probe still stops one
        replication at a time through it; it goes with the next change to
        the benchmark.
        """
        (mu,) = self.stopping_times(paths, rng)
        return float(mu)

    def stopping_times(self, paths: PathBlock, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def initial_belief(self) -> np.ndarray | None:
        """The law of the own chain at time 0, or ``None`` for a rule that carries none."""
        return None

    def generator(self) -> np.ndarray | None:
        """The generator of the own chain, or ``None`` for a rule that carries none."""
        return None

    def belief(self, t: float) -> np.ndarray:
        """Conditional law of the own chain given no stop by ``t``."""
        raise NotImplementedError(f"{type(self).__name__} does not track a belief")

    def descriptor(self) -> dict:
        return {"case": self.case}


def _starts_by(paths: PathBlock, time: float, rule: str) -> None:
    """A rule decided at time 0 stops only rows that start by ``time``."""
    if np.any(paths.times[:, 0] > time):
        raise InputError(f"{rule} is decided at time 0 and cannot stop a row "
                         f"that starts after {time}")


class NeverStopStrategy(MixedStoppingStrategy):
    """Never stop; with a chain ``(R, p0)`` attached the rule also tracks its belief."""

    case = "never"
    resumes_until = 0.0

    def __init__(self, R=None, p0=None):
        if (R is None) != (p0 is None):
            raise InputError("a never-stop rule takes the chain's R and p0 together or neither")
        self.R, self.p0 = (None, None) if R is None else as_chain(R, p0)

    def stopping_times(self, paths, rng):
        return np.full(paths.n, math.inf)

    def belief(self, t):
        if self.R is None:
            return super().belief(t)
        return marginal_flow(self.p0, self.R, t)

    def initial_belief(self):
        return self.p0

    def generator(self):
        return self.R

    def descriptor(self):
        out = {"case": self.case}
        if self.R is not None:
            out["R"] = self.R.tolist()
        if self.p0 is not None:
            out["p0"] = self.p0.tolist()
        return out


class StopNowStrategy(MixedStoppingStrategy):
    case = "stop_now"
    resumes_until = 0.0

    def stopping_times(self, paths, rng):
        _starts_by(paths, 0.0, "a stop-now rule")
        return np.zeros(paths.n)


class ConstantTimeStrategy(MixedStoppingStrategy):
    case = "constant_time"
    resumes_until = 0.0

    def __init__(self, time: float):
        if not time >= 0:  # NaN fails too; +inf means never
            raise InputError("stopping time must be nonnegative")
        self.time = float(time)

    def stopping_times(self, paths, rng):
        _starts_by(paths, self.time, "a constant-time rule")
        return np.full(paths.n, self.time)

    def descriptor(self):
        return {"case": self.case, "time": self.time}


class InitialStateTimeStrategy(MixedStoppingStrategy):
    """One deterministic time per initial own state (a pure response)."""

    case = "state_times"
    resumes_until = 0.0

    def __init__(self, times):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or self.times.size == 0:
            raise InputError("stopping times must be a nonempty list, one per initial state")
        if not np.all(self.times >= 0):  # NaN fails too; +inf means never
            raise InputError("stopping times must be nonnegative")

    def stopping_times(self, paths, rng):
        # a row that starts later has no known initial state
        _starts_by(paths, 0.0, "a rule of the initial state")
        return self.times[paths.initial_states]

    def descriptor(self):
        return {"case": self.case, "times": self.times.tolist()}


class FlowIntensityStrategy(MixedStoppingStrategy):
    """Stop at the conditional intensity carried by the characteristics' orbit.

    While the own chain sits in ``k`` the rule stops at rate
    ``lam(z_t) * phi_p(z_t)[k] / p_t[k]``: each inter-jump segment of the
    own chain draws one exponential threshold, and the rule stops where
    the cumulative hazard ``H[k]`` gained since the segment start reaches
    it.  ``horizon`` (default :func:`never_horizon`) must be positive and
    finite; the rule never stops after it.
    """

    case = "flow"

    def __init__(self, char: PdmpCharacteristics, z0, horizon: float | None = None):
        z0 = np.asarray(z0, dtype=float)
        if not char.in_EH(z0):
            raise InputError("flow strategies start inside E_H")
        t_max = never_horizon(char.r) if horizon is None else float(horizon)
        if not (t_max > 0 and math.isfinite(t_max)):
            raise InputError(f"strategy horizon must be positive and finite, got {t_max!r}")
        self.char = char
        self.z0 = z0
        self.t_max = t_max
        self.orbit = integrate_flow(char, z0, t_max)
        self.hazard = _Hazard.conditional(char, self.orbit)

    def initial_belief(self) -> np.ndarray:
        return self.char.p_part(self.z0)

    def belief(self, t):
        return self.char.p_part(self.orbit.state_at(min(t, self.t_max)))

    @property
    def resumes_until(self) -> float:
        # the hazard is zero past a quiescent orbit, and the rule is silent past t_max
        return self.orbit.t_end if self.orbit.quiescent else self.t_max

    def generator(self) -> np.ndarray:
        dim = self.char.dim_p
        return self.char.A[:dim, :dim].T

    def stopping_times(self, paths, rng):
        """One exponential threshold per inter-jump segment of each row.

        A segment runs from a row's start or jump to its next jump, cut at
        the row's end and at ``t_max``; every row draws thresholds for as
        many segments as the longest row has.  A segment stops the row
        when its threshold is below the hazard it gains, ``H[k](end) -
        H[k](start)`` (a segment past the row's end gains none), and the
        hazard is inverted on each row's first such segment only.  A
        block that continues rows from a later start stops them from
        there, which is the rule given no stop before the start: the
        thresholds are memoryless.
        """
        end = np.minimum(paths.ends, self.t_max)[:, None]
        # segment j runs from bounds[:, j] to bounds[:, j + 1]
        width = int((paths.times < end).sum(axis=1).max(initial=0))
        if not width:
            return np.full(paths.n, math.inf)
        bounds = np.full((paths.n, width + 1), end)
        np.minimum(paths.times[:, :width], end, out=bounds[:, :width])
        # every cell draws its threshold, which keeps each row's draws where they sit
        # in the stream; a cell past the row's end starts and ends there, so gains none
        excess = rng.exponential(size=(paths.n, width))
        k = paths.states[:, :width]
        hit = np.zeros(excess.shape, dtype=bool)
        for kk in range(self.char.dim_p):
            # H[kk] at every bound, plus the threshold at a start: the target inverted
            H = self.hazard.at(kk, bounds)
            hit |= (k == kk) & (H[:, :-1] + excess < H[:, 1:])
        rows = np.flatnonzero(hit.any(axis=1))
        first = hit[rows].argmax(axis=1)
        mu = np.full(paths.n, math.inf)
        t = self.hazard.inverse(k[rows, first], bounds[rows, first], excess[rows, first])
        # the test and the inversion agree up to rounding at the segment's end
        mu[rows] = np.minimum(t, bounds[rows, first + 1])
        return mu

    def descriptor(self):
        return {"case": self.case, "z": self.z0.tolist(), "horizon": self.t_max,
                "characteristics": dict(self.char.params)}


class SplitThenFlowStrategy(MixedStoppingStrategy):
    """Randomize at time zero between stopping (posterior in S) and a flow start.

    ``vstar``, when given, must be affine along the split to within
    ``_SPLIT_AFFINE_TOL``.
    """

    case = "split"

    def __init__(self, char: PdmpCharacteristics, z, z_flow, z_stop, m: float,
                 horizon: float | None = None, vstar=None):
        z = np.asarray(z, dtype=float)
        z_flow = np.asarray(z_flow, dtype=float)
        z_stop = np.asarray(z_stop, dtype=float)
        pieces, recon, gap = _split_defects(char, z, z_flow, z_stop, m, vstar)
        if not pieces:
            raise InputError("split pieces must lie in E_H and S, with mass m in [0, 1]")
        if not recon <= _SPLIT_RECON_TOL:  # NaN fails too
            raise InputError("split does not average back to the start point")
        if gap > _SPLIT_AFFINE_TOL:
            raise InputError(f"V_* is not affine along the split (gap {gap:.3e})")
        self.char = char
        self.z = z
        self.m = float(m)
        self.z_stop = z_stop
        self.flow = FlowIntensityStrategy(char, z_flow, horizon)
        self.note = SPLIT_NOTE
        # time-zero stop probability given the own initial state k
        self.stop_prob = np.minimum(1.0, _conditional_share(self.m, char.p_part(z_stop),
                                                            char.p_part(z)))

    def initial_belief(self) -> np.ndarray:
        return self.char.p_part(self.z)

    def belief(self, t):
        return self.flow.belief(t)

    @property
    def resumes_until(self) -> float:
        return self.flow.resumes_until

    def generator(self):
        return self.flow.generator()

    def stopping_times(self, paths, rng):
        """The time-0 coin for rows that start at 0, then the flow rule from each row's start."""
        go_on = paths.times[:, 0] > 0.0
        fresh = np.flatnonzero(~go_on)
        go_on[fresh] = rng.uniform(size=fresh.size) >= self.stop_prob[paths.states[fresh, 0]]
        mu = np.zeros(paths.n)
        mu[go_on] = self.flow.stopping_times(paths.take(go_on), rng)
        return mu

    def descriptor(self):
        return {"case": self.case, "z": self.z.tolist(),
                "z_flow": self.flow.z0.tolist(), "z_stop": self.z_stop.tolist(),
                "m": self.m, "horizon": self.flow.t_max,
                "characteristics": dict(self.char.params), "note": self.note}


def build_mu(char: PdmpCharacteristics, z, vstar=None) -> MixedStoppingStrategy:
    """Optimal stopping rule from ``z``, by the case of the verification theorem.

    Stop now on ``S``, follow the flow intensity from ``E_H``, and split
    at time zero through ``char.split`` everywhere else; ``vstar``, when
    given, must be affine along that split.
    """
    z = np.asarray(z, dtype=float)
    if char.in_S(z):
        return StopNowStrategy()
    if char.in_EH(z):
        return FlowIntensityStrategy(char, z)
    if char.split is None:
        raise InputError("no split available for exterior starting points")
    z_flow, z_stop, m = char.split(z)
    return SplitThenFlowStrategy(char, z, z_flow, z_stop, m, vstar=vstar)
