"""Two closed-form benchmark games used as oracles by the test harness.

Example 1 ("frozen" game): both chains are constant (zero generators),
two states each, payoffs ``h(p,q) = 3p + 2q - 4`` and
``f(p,q) = 2p + 3q - 1`` in the scalar chart where ``p`` (resp. ``q``)
is the weight of state 0.  The value, the restricted convex conjugate
``V_*(p,y) = max_q qy - V(p,q)`` with its five-zone formula, the pure
(non-randomized) stopping values, admissible PDMP characteristics and
the optimal stopping dispatch are all available in closed form.

Example 2 ("one-sided" game): only player 1 observes a two-state ergodic
chain with rates ``a`` (0 -> 1) and ``b`` (1 -> 0); player 2 has no
private state.  Obstacles are increasing affine functions of the chart
``p``.  Depending on one threshold the value is ``f`` then a chord
(case i, with an interior kink ``p0``), a single chord (case ii) or
``h`` itself (case iii).  The blind benchmark (neither player observes
the chain) is solved by smooth fit and differs visibly from the value.
"""

from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import InputError, IntegrityError
from .model import GameSpec
from .pdmp import (MixedStoppingStrategy, NeverStopStrategy,
                   PdmpCharacteristics, build_mu)

__all__ = [
    "scalar_payoff_matrix", "e1_game", "e1_value", "e1_value_qslope",
    "e1_pure_values", "e1_dual", "e1_zone", "e1_hstar", "e1_fstar",
    "e1_vstar_full", "e1_characteristics", "e1_optimal_mu",
    "Example2Params", "CaseTag", "e2_game", "e2_case", "e2_p0", "e2_value",
    "e2_lambda1", "e2_jump_intensity", "e2_wait_time", "e2_split_probability",
    "e2_vstar_full", "e2_characteristics", "e2_optimal_mu",
    "BlindSolution", "e2_blind_value",
]

_BTOL = 1e-7   # field classification tolerance (boundary bands)
_MTOL = 1e-9   # membership slack of the domain oracles
_PCORNER = 1e-9


def _check_chart(p: float, q: float = 0.0, y: float = 0.0) -> None:
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):  # NaN fails too
        raise InputError("chart coordinates must lie in [0, 1]")
    if not math.isfinite(y):
        raise InputError(f"chart coordinates must lie in [0, 1] x R, got y = {y!r}")


def _jump_characteristics(target: np.ndarray, **fields) -> PdmpCharacteristics:
    """Characteristics whose every jump lands on ``target``: the drift is
    ``A z - lam(z) (target - z)`` off ``S`` and 0 on it."""
    A, lam, in_S = fields["A"], fields["lam"], fields["in_S"]

    def alpha(z):
        z = np.asarray(z, dtype=float)
        if in_S(z):
            return np.zeros(z.size)
        return A @ z - lam(z) * (target - z)

    return PdmpCharacteristics(alpha=alpha, phi=lambda z: target.copy(), **fields)


def scalar_payoff_matrix(c0: float, cp: float, cq: float) -> np.ndarray:
    """Matrix of the bilinear extension of ``c0 + cp*p + cq*q`` (chart form).

    ``p`` and ``q`` are the weights of state 0, so entry ``(k, l)`` is the
    payoff at the Dirac pair ``p = 1-k``, ``q = 1-l``.
    """
    return np.array([[c0 + cp + cq, c0 + cp], [c0 + cq, c0]])


# ---------------------------------------------------------------------------
# Example 1: constant chains, two states per side


def e1_game(r: float = 1.0) -> GameSpec:
    return GameSpec(R=np.zeros((2, 2)), Q=np.zeros((2, 2)), r=r,
                    f=scalar_payoff_matrix(-1.0, 2.0, 3.0),
                    h=scalar_payoff_matrix(-4.0, 3.0, 2.0),
                    p0=[0.5, 0.5], q0=[0.5, 0.5])


def e1_value(p: float, q: float) -> float:
    """Closed-form value on the chart square ``[0,1]^2``."""
    _check_chart(p, q)
    if q >= 0.5 and p >= 1.0 - q:
        return (2.0 * q - 1.0) / q * (p + q - 1.0)
    if q < 0.5 and p >= 0.5:
        return 0.0
    return _curve(p) * (p + q - 1.0)


def e1_value_qslope(p: float, q: float) -> float:
    """Midpoint selection from the subgradient of the (convex) q-slice."""
    def slope(qq, right):  # one-sided; at qq = 1/2 only the right slope is on the upper piece
        if (qq >= 0.5 if right else qq > 0.5) and p >= 1.0 - qq:
            return (p + qq - 1.0) / qq**2 + 2.0 - 1.0 / qq
        if p >= 0.5:
            return 0.0
        return _curve(p)

    _check_chart(p, q)
    if q <= 0.0:
        return slope(0.0, right=True)
    if q >= 1.0:
        return slope(1.0, right=False)
    return 0.5 * (slope(q, right=False) + slope(q, right=True))


def e1_pure_values(p: float, q: float) -> tuple[float, float]:
    """(lower, upper) values when both players use classical stopping times."""
    def lower(pp, qq):
        if pp * qq > 1.0 - qq:
            return pp * qq - (1.0 - qq)
        if pp >= 0.5:
            return 0.0
        return (1.0 - 2.0 * pp) * (pp * qq - (1.0 - qq))

    _check_chart(p, q)
    return lower(p, q), -lower(1.0 - q, 1.0 - p)


def _curve(p: float) -> float:
    """Upper boundary of the flow-invariant zone C in the (p, y) chart."""
    return (1.0 - 2.0 * p) / (1.0 - p)


def e1_zone(p: float, y: float) -> str:
    _check_chart(p, y=y)
    if p >= 0.5 and y <= 0.0:
        return "A"
    if p >= 0.5 and y <= 4.0 * p - 2.0:
        return "B"
    if p <= 0.5 and y <= _curve(p):
        return "C"
    if y >= 1.0 + p:
        return "E"
    return "D"


def e1_dual(p: float, y: float) -> tuple[float, str]:
    """Restricted convex conjugate ``V_*(p, y)`` and its zone label."""
    zone = e1_zone(p, y)
    if zone == "A":
        return 0.0, zone
    if zone == "B":
        return 0.5 * y, zone
    if zone == "C":
        return 1.0 - 2.0 * p, zone
    if zone == "D":
        return -2.0 * math.sqrt(2.0 - y) * math.sqrt(1.0 - p) + 3.0 - 2.0 * p, zone
    return y - p, zone


def e1_hstar(p: float, y: float) -> float:
    """Restricted conjugate of the stop payoff h."""
    _check_chart(p, y=y)
    return 4.0 - 3.0 * p if y <= 2.0 else y + 2.0 - 3.0 * p


def e1_fstar(p: float, y: float) -> float:
    """Restricted conjugate of the counter-stop payoff f."""
    _check_chart(p, y=y)
    return 1.0 - 2.0 * p if y <= 3.0 else y - 2.0 - 2.0 * p


def _z1(p: float, y: float) -> np.ndarray:
    """(p, y) chart point embedded in full coordinates (p-block, y-block)."""
    return np.array([p, 1.0 - p, y, 0.0])


def _chart1(z) -> tuple[float, float]:
    return float(z[0]), float(z[2] - z[3])


def e1_vstar_full(z) -> float:
    """V_* as a function of the flat state, via the shift identity."""
    p = float(z[0])
    return float(z[3]) + e1_dual(min(max(p, 0.0), 1.0), float(z[2] - z[3]))[0]


def e1_characteristics(r: float = 1.0) -> PdmpCharacteristics:
    """Admissible characteristics for the frozen game.

    The jump fires only on the curve ``y = (1-2p)/(1-p)``, ``0 < p < 1/2``,
    with intensity ``r (1-2p)/2`` toward the single target ``(1, 2)``;
    everywhere else the motion is the raw dual drift ``(0, ry)``.
    """
    if not (r > 0 and math.isfinite(r)):
        raise InputError("discount rate must be positive and finite")
    A = np.zeros((4, 4))
    A[2, 2] = r
    A[3, 3] = r
    target = _z1(1.0, 2.0)

    def on_curve(z) -> bool:
        p, y = _chart1(z)
        return _PCORNER < p < 0.5 and y >= _curve(p) - _BTOL

    def lam(z) -> float:
        if on_curve(z):
            p, _ = _chart1(z)
            return 0.5 * r * (1.0 - 2.0 * p)
        return 0.0

    def sane(z) -> bool:
        return (abs(z[0] + z[1] - 1.0) <= 1e-7 and -_MTOL <= z[0] <= 1.0 + _MTOL
                and abs(z[3]) <= 1e-7)

    def in_EH(z) -> bool:
        if not sane(z):
            return False
        p, y = _chart1(z)
        if p <= _MTOL or y <= _MTOL:
            return True
        return p <= 0.5 + _MTOL and y <= _curve(min(p, 0.5)) + _MTOL

    def in_S(z) -> bool:
        if not sane(z):
            return False
        p, y = _chart1(z)
        return abs(p - 1.0) <= _MTOL and y >= 2.0 - _MTOL

    def snap(z):
        z = np.asarray(z, dtype=float).copy()
        p = min(max(z[0], 0.0), 1.0)
        z[0], z[1] = p, 1.0 - p
        if _PCORNER < p < 0.5:
            y = z[2] - z[3]
            c = _curve(p)
            if abs(y - c) <= 1e-8:
                z[2] = c + z[3]
        return z

    def quiescent(z) -> bool:
        p, y = _chart1(z)
        return p <= _PCORNER or y <= 1e-12

    def split(z):
        p, y = _chart1(z)
        zone = e1_zone(p, y)
        stop = target
        if zone == "E":
            if p >= 1.0 - _MTOL:
                raise InputError("point already lies in the absorbing set")
            y_res = (y - 2.0 * p) / (1.0 - p)
            return _z1(0.0, y_res), stop, p
        if zone == "B":
            p_res = (2.0 * p - y) / (2.0 - y)
            return _z1(p_res, 0.0), stop, 0.5 * y
        if zone == "D":
            p_res = 1.0 - math.sqrt((1.0 - p) / (2.0 - y))
            return _z1(p_res, _curve(p_res)), stop, (p - p_res) / (1.0 - p_res)
        raise InputError(f"point in zone {zone} is not exterior")

    return _jump_characteristics(
        target, dim_p=2, dim_y=2, r=r, A=A, lam=lam, in_EH=in_EH, in_S=in_S,
        split=split, snap=snap, quiescent=quiescent, params={"kind": "example1", "r": r})


def e1_optimal_mu(p: float, q: float, r: float = 1.0) -> MixedStoppingStrategy:
    """Optimal stopping rule of the informed maximizer at chart point (p, q).

    The dual coordinate is the midpoint subgradient of the q-slice; the
    dispatch follows the zone of ``(p, y)``: never stop on ``{y <= 0}``
    and ``{p = 0}``, stop now on the absorbing set, an intensity rule on
    the invariant zone, and a time-zero split elsewhere.
    """
    _check_chart(p, q)
    y = e1_value_qslope(p, q)
    char = e1_characteristics(r)
    z = _z1(p, y)
    if y <= 0.0 or p <= _MTOL:
        return NeverStopStrategy(R=np.zeros((2, 2)), p0=[p, 1.0 - p])
    return build_mu(char, z, vstar=e1_vstar_full)


# ---------------------------------------------------------------------------
# Example 2: one observed ergodic chain, no private state on the other side


class CaseTag(enum.Enum):
    I = "i"
    II = "ii"
    III = "iii"


@dataclass(frozen=True)
class Example2Params:
    """0 -> 1 rate ``a``, 1 -> 0 rate ``b``, discount ``r`` and affine
    obstacles given by their chart endpoints ``h(p) = h0 + (h1-h0) p``."""

    a: float
    b: float
    r: float
    h0: float
    h1: float
    f0: float
    f1: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise InputError("rates, discount and obstacle endpoints must be finite")
        if min(self.a, self.b, self.r) <= 0:
            raise InputError("rates a, b and discount r must be positive")
        if not (0 < self.h0 < self.f0 and 0 < self.h1 < self.f1):
            raise InputError("obstacles must satisfy 0 < h < f on [0, 1]")
        if not (self.h0 < self.h1 and self.f0 < self.f1):
            raise InputError("obstacles must be increasing in the chart")

    def h(self, p: float) -> float:
        return self.h0 + (self.h1 - self.h0) * p

    def f(self, p: float) -> float:
        return self.f0 + (self.f1 - self.f0) * p

    def drift(self, p: float) -> float:
        """Belief drift ``dp/dt = b - (a+b) p`` of the marginal flow."""
        return self.b - (self.a + self.b) * p

    @property
    def p_star(self) -> float:
        """Stationary weight of state 0."""
        return self.b / (self.a + self.b)

    @property
    def R(self) -> np.ndarray:
        return np.array([[-self.a, self.a], [self.b, -self.b]])


REFERENCE_E2 = Example2Params(a=1.0, b=1.0, r=0.1, h0=0.5, h1=2.0, f0=1.0, f1=3.0)


def e2_game(params: Example2Params) -> GameSpec:
    return GameSpec(R=params.R, Q=np.zeros((1, 1)), r=params.r,
                    f=[[params.f1], [params.f0]], h=[[params.h1], [params.h0]],
                    p0=[params.p_star, 1.0 - params.p_star], q0=[1.0])


def e2_case(params: Example2Params) -> CaseTag:
    threshold = params.b / (params.b + params.r) * params.h1
    if threshold <= params.h0:
        return CaseTag.III
    if threshold <= params.f0:
        return CaseTag.II
    return CaseTag.I


def _bisect(g, lo: float, hi: float) -> float:
    """Root of ``g`` on ``(lo, hi)``, given ``g > 0`` to the left of it."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def e2_p0(params: Example2Params) -> float:
    """Kink location in case i: root of the chord-tangency equation.

    Solves ``(h(1) - f(p)) / (1 - p) = r f(p) / (b - (a+b) p)`` by
    bisection on ``(0, p*)`` to 1e-12.
    """
    if e2_case(params) is not CaseTag.I:
        raise InputError("the interior kink exists only in case i")

    def g(p):
        return (params.h1 - params.f(p)) / (1.0 - p) * params.drift(p) - params.r * params.f(p)

    lo, hi = 0.0, params.p_star
    if not (g(lo) > 0 > g(hi - 1e-15)):
        raise IntegrityError("no sign change on (0, p*); contradicts case i")
    return _bisect(g, lo, hi)


def e2_value(params: Example2Params, p: float) -> float:
    """Closed-form value, dispatched on the case tag."""
    _check_chart(p)
    case = e2_case(params)
    if case is CaseTag.III:
        return params.h(p)
    if case is CaseTag.II:
        base = params.b / (params.b + params.r) * params.h1
        return base * (1.0 - p) + p * params.h1
    p0 = e2_p0(params)
    if p <= p0:
        return params.f(p)
    return ((p - p0) * params.h1 + (1.0 - p) * params.f(p0)) / (1.0 - p0)


def e2_lambda1(params: Example2Params) -> float:
    """Conditional stopping intensity while the chain sits in state 0."""
    p0 = e2_p0(params)
    return params.drift(p0) / (p0 * (1.0 - p0))


def e2_jump_intensity(params: Example2Params) -> float:
    """Unconditional jump intensity of the belief PDMP at the kink."""
    p0 = e2_p0(params)
    return params.drift(p0) / (1.0 - p0)


def e2_wait_time(params: Example2Params, p: float) -> float:
    """Time for the belief flow started below the kink to reach it."""
    _check_chart(p)
    p0 = e2_p0(params)
    if p >= p0:
        return 0.0
    return math.log(params.drift(p) / params.drift(p0)) / (params.a + params.b)


def e2_split_probability(params: Example2Params, p: float) -> float:
    """Time-zero stop probability given state 0, for starts above the kink."""
    _check_chart(p)
    p0 = e2_p0(params)
    if p <= p0:
        return 0.0
    return (p - p0) / (p * (1.0 - p0))


def e2_vstar_full(params: Example2Params):
    """Dual value for the one-sided game.

    With no private state on the other side the conjugate machinery
    collapses: up to an additive shift that plays no role, the dual value
    is just ``-V``, convex where ``V`` is concave.
    """
    def vstar(z):
        p = min(max(float(z[0]), 0.0), 1.0)
        return -e2_value(params, p)
    return vstar


def e2_characteristics(params: Example2Params) -> PdmpCharacteristics:
    """Admissible characteristics in case i: drift toward the kink, jump to 1.

    On ``[0, p0)`` the belief simply follows its marginal flow; at the
    kink the drift must vanish and the jump to the Dirac at state 0 fires
    with intensity ``(b - (a+b) p0) / (1 - p0)``.
    """
    if e2_case(params) is not CaseTag.I:
        raise InputError("characteristics are defined for case i only")
    p0 = e2_p0(params)
    A = params.R.T.copy()
    target = np.array([1.0, 0.0])
    lam_p0 = e2_jump_intensity(params)

    def lam(z) -> float:
        return lam_p0 if abs(float(z[0]) - p0) <= _BTOL else 0.0

    def sane(z) -> bool:
        return abs(z[0] + z[1] - 1.0) <= 1e-7 and -_MTOL <= z[0] <= 1.0 + _MTOL

    def in_EH(z) -> bool:
        return sane(z) and float(z[0]) <= p0 + _MTOL

    def in_S(z) -> bool:
        return sane(z) and abs(float(z[0]) - 1.0) <= _MTOL

    def snap(z):
        z = np.asarray(z, dtype=float).copy()
        p = min(max(float(z[0]), 0.0), 1.0)
        if p0 - _BTOL <= p <= p0 + _MTOL:
            p = p0
        z[0], z[1] = p, 1.0 - p
        return z

    def split(z):
        p = float(z[0])
        if p <= p0 + _MTOL:
            raise InputError("point is not exterior")
        m = (p - p0) / (1.0 - p0)
        return np.array([p0, 1.0 - p0]), target.copy(), m

    return _jump_characteristics(
        target, dim_p=2, dim_y=0, r=params.r, A=A, lam=lam, in_EH=in_EH, in_S=in_S,
        split=split, snap=snap,
        params={"kind": "example2", "a": params.a, "b": params.b, "r": params.r,
                "h": [params.h0, params.h1], "f": [params.f0, params.f1]})


def e2_optimal_mu(params: Example2Params, p: float) -> MixedStoppingStrategy:
    """Optimal stopping rule in case i for any starting belief.

    At the kink: stop at intensity ``lambda1`` while the chain is in
    state 0.  Above it: stop at time zero with probability ``c(p)`` given
    state 0, then run the kink rule.  Below it: the rule is silent until
    the belief flow reaches the kink.
    """
    _check_chart(p)
    return build_mu(e2_characteristics(params), np.array([p, 1.0 - p]),
                    vstar=e2_vstar_full(params))


# ---------------------------------------------------------------------------
# blind benchmark for example 2 (nobody observes the chain)


@dataclass(frozen=True)
class BlindSolution:
    """Symmetric-information value glued from f, an ODE arc, and h.

    The arc solves ``r S + ((a+b) p - b) S' = 0``, i.e.
    ``S(p) = C (b - (a+b) p)^(-r/(a+b))``, with value matching at both
    junctions and derivative matching (smooth fit) at the h-side one.
    """

    params: Example2Params
    p1: float
    p2: float
    C: float

    def __call__(self, p: float) -> float:
        _check_chart(p)
        if p <= self.p1:
            return self.params.f(p)
        if p >= self.p2:
            return self.params.h(p)
        return self.arc(p)

    def arc(self, p: float) -> float:
        return self.C * self.params.drift(p) ** (-self.params.r / (self.params.a + self.params.b))

    def arc_slope(self, p: float) -> float:
        return self.params.r * self.arc(p) / self.params.drift(p)


def e2_blind_value(params: Example2Params) -> BlindSolution:
    if e2_case(params) is not CaseTag.I:
        raise InputError("the blind benchmark is set up for case i")
    a, b, r = params.a, params.b, params.r
    sh = params.h1 - params.h0
    # smooth fit at p2: S'/S = r/(b-(a+b)p) equals h'/h
    p2 = (sh * b - r * params.h0) / (sh * (a + b + r))
    if not 0.0 < p2 < params.p_star:
        raise IntegrityError("smooth-fit point outside (0, p*)")
    C = params.h(p2) * params.drift(p2) ** (r / (a + b))
    sol = BlindSolution(params, math.nan, p2, C)

    def gap(p):  # arc minus f; positive at 0, negative at p2
        return sol.arc(p) - params.f(p)

    lo, hi = 0.0, p2
    if not (gap(lo) > 0 > gap(hi)):
        raise IntegrityError("no f-contact point below the smooth-fit point")
    p1 = _bisect(gap, lo, hi)
    p0 = e2_p0(params)
    if not p1 < p0 < p2 < params.p_star:
        raise IntegrityError("junction ordering p1 < p0 < p2 < p* failed")
    return BlindSolution(params, p1, p2, C)
