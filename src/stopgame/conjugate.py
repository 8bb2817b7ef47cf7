"""Fenchel-type conjugates of saddle functions and the dual flow objects.

Two transforms appear, one per player:

* concave conjugate in the first argument,
  ``V*(x, q) = inf_p <x, p> - V(p, q)`` for ``x`` in R^K,
* convex conjugate in the second argument,
  ``V_*(p, y) = sup_q <q, y> - V(p, q)`` for ``y`` in R^L.

Player 2's problem is player 1's with the players swapped and the payoff
negated, so the q-side objects are the p-side ones on mirrored values:
:func:`convex_conjugate_q` negates an infimum over q, and
:func:`obstacle_conjugate_q` and :func:`dual_pde_residual_lower` are
:func:`obstacle_conjugate_p` and :func:`dual_pde_residual_upper` of the
swapped game.

For two-state sides everything reduces to the scalar chart: we write
``V_*(p, y)`` for ``V_*((p, 1-p), (y, 0))`` and use the shift identity
``V_*((p,1-p), (y1,y2)) = y2 + V_*((p,1-p), (y1-y2, 0))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .grids import SimplexGrid, ValueGrid
from .model import _expm, as_chain, as_generator, as_simplex, marginal_flow

__all__ = [
    "concave_conjugate_p", "convex_conjugate_q", "convex_surface_q", "subgradient_q",
    "obstacle_conjugate_p", "obstacle_conjugate_q",
    "DualFlowState", "dual_flow",
    "dual_pde_residual_upper", "dual_pde_residual_lower",
    "pair", "ycoord",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 90  # shrinks the bracket by 0.618**90, below 1e-18 of its width


def pair(p: float) -> np.ndarray:
    """Scalar chart -> two-state simplex point."""
    return np.array([p, 1.0 - p])


def ycoord(y: float) -> np.ndarray:
    """Scalar dual chart -> two-state dual vector (second coordinate pinned to 0)."""
    return np.array([y, 0.0])


def _golden_min(f) -> float:
    """Golden-section minimum of a unimodal function on the chart ``[0, 1]``."""
    a, b = 0.0, 1.0
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_ITERS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return f(0.5 * (a + b))


def _dual_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise InputError("dual vector must be finite")
    return v


def _inf_pairing(x: np.ndarray, slice_, nodes: np.ndarray | None = None) -> float:
    """inf over a simplex of ``<x, s> - slice_(s)``.

    Grid input (``slice_`` holds the values at ``nodes``): the objective is
    affine on every cell, so the exact answer is a scan over the nodes.
    Callable input (``slice_`` maps the scalar chart to a value): one golden
    section over the whole chart; the objective is convex, so it is unimodal.
    """
    if nodes is not None:
        return float(np.min(nodes @ x - slice_))
    if x.size != 2:
        raise InputError("callable conjugation is implemented on the scalar chart")
    return float(_golden_min(lambda c: x[0] * c + x[1] * (1 - c) - slice_(c)))


def concave_conjugate_p(V, x, q) -> float:
    """inf over the p-simplex of <x, p> - V(p, q), for a value grid or a callable."""
    x = _dual_vector(x)
    q = as_simplex(q)
    if isinstance(V, ValueGrid):
        if x.size != V.p_grid.dim:
            raise InputError("dual vector dimension does not match the p-side")
        return _inf_pairing(x, V.q_grid.interpolate(q, V.values.T)[0], V.p_grid.nodes)
    return _inf_pairing(x, lambda c: V(pair(c), q))


def convex_conjugate_q(V, p, y) -> float:
    """sup over the q-simplex of <q, y> - V(p, q); dual to :func:`concave_conjugate_p`.

    Computed as ``-inf_q <q, -y> - (-V(p, q))``; on a value grid it is
    :func:`convex_surface_q` at the one pair ``(p, y)``.
    """
    if isinstance(V, ValueGrid):
        return float(convex_surface_q(V, [p], [y])[0, 0])
    p = as_simplex(p)
    y = _dual_vector(y)
    return -_inf_pairing(-y, lambda c: -V(p, pair(c)))


def convex_surface_q(V: ValueGrid, ps, ys) -> np.ndarray:
    """:func:`convex_conjugate_q` of a value grid at every pair of a row of ``ps`` and of ``ys``.

    ``ps`` holds p-side simplex points and ``ys`` q-side dual vectors, one
    per row; entry ``[i, j]`` is ``V_*(ps[i], ys[j])``.  The objective is
    affine on every cell of the q grid, so each entry is exact as a scan
    over the q nodes: ``-min_q (<q, -y> - (-V(p, q)))``.  One interpolation
    reads the grid at all p rows, and the pairings ``<q, -y>`` are taken
    once; the scan runs per p row, so no array holds every (p, q, y) triple.
    """
    ys = _dual_vector(ys)
    if ys.ndim != 2 or ys.shape[1] != V.q_grid.dim:
        raise InputError(f"dual vectors of the q side need {V.q_grid.dim} coordinates, "
                         f"got shape {ys.shape}")
    rows = V.p_grid.interpolate([as_simplex(p) for p in ps], V.values)
    pairing = V.q_grid.nodes @ -ys.T  # (q node, y)
    return -np.array([(pairing - (-row)[:, None]).min(axis=0) for row in rows])


def obstacle_conjugate_p(M, x, q) -> float:
    """Concave conjugate in p of a bilinear payoff: min_k x_k - (M q)_k."""
    M = np.asarray(M, dtype=float)
    return float(np.min(np.asarray(x, dtype=float) - M @ as_simplex(q)))


def obstacle_conjugate_q(M, p, y) -> float:
    """Convex conjugate in q of a bilinear payoff, max_l y_l - (M^T p)_l: minus the
    p-side conjugate of the swapped game, ``-obstacle_conjugate_p(-M^T, -y, p)``."""
    return -obstacle_conjugate_p(-np.asarray(M, dtype=float).T, -np.asarray(y, dtype=float), p)


def subgradient_q(V: ValueGrid, p, q) -> tuple[np.ndarray, np.ndarray]:
    """One-sided slope interval of q -> V(p, q) per chart coordinate.

    Returns ``(lo, hi)`` arrays of length ``L - 1``; any selection in
    between is a valid subgradient of the (convex) q-slice.  The usual
    selection is the midpoint unless a caller pins a face.  Where one side
    of a chart axis leaves the simplex (a face), both ends take the other
    side's slope; they are NaN where both sides do (at a vertex).
    """
    q, qg = as_simplex(q), V.q_grid
    if q.size != qg.dim:  # the two-state branch reads the row at q directly
        raise InputError(f"q has {q.size} states, the q side {qg.dim}")
    row = V.p_grid.interpolate(as_simplex(p), V.values)[0]
    if qg.dim == 1:
        z = np.zeros(0)
        return z, z
    step = qg.step
    if qg.dim == 2:
        c = float(q[0])
        pos = c * qg.resolution
        i = int(round(pos))
        if abs(pos - i) < 1e-9:  # at a node: slopes of both adjacent cells
            left = (row[i] - row[i - 1]) / step if i > 0 else None
            right = (row[i + 1] - row[i]) / step if i < qg.n_nodes - 1 else None
            lo = left if left is not None else right
            hi = right if right is not None else left
        else:  # inside a cell: the interpolant is affine there
            i = int(math.floor(pos))
            lo = hi = (row[i + 1] - row[i]) / step
        return np.array([lo]), np.array([hi])
    # higher-dimensional charts: one-sided differences along each chart axis
    lo = np.empty(qg.dim - 1)
    hi = np.empty(qg.dim - 1)
    for c in range(qg.dim - 1):
        direction = np.zeros(qg.dim)
        direction[c] = 1.0
        direction[-1] = -1.0
        hi[c] = _one_sided(qg, row, q, direction, step)
        lo[c] = -_one_sided(qg, row, q, -direction, step)
    # on a face the one feasible side's slope stands for both, as for two states
    return np.where(np.isnan(lo), hi, lo), np.where(np.isnan(hi), lo, hi)


def _one_sided(qg: SimplexGrid, row: np.ndarray, q: np.ndarray, direction: np.ndarray,
               step: float) -> float:
    eps = step
    target = q + eps * direction
    if np.any(target < -1e-12):
        eps = float(min(q[direction < 0] / -direction[direction < 0]))
        if eps <= 1e-14:
            return math.nan
        target = q + eps * direction
    ahead, base = qg.interpolate([np.maximum(target, 0.0), q], row)
    return (ahead - base) / eps


@dataclass(frozen=True)
class DualFlowState:
    x: np.ndarray
    q: np.ndarray
    t: float


def dual_flow(x, q, R, Q, r: float, t: float) -> DualFlowState:
    """Characteristic dynamics of the dual problem.

    The slope vector grows as ``x' = (rI - R)x`` while the opponent
    belief follows its marginal flow ``q' = Q^T q``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise InputError("dual slope must be a finite 1-d vector")
    R, (Q, q) = as_generator(R), as_chain(Q, q)
    if R.shape != (x.size, x.size):
        raise InputError(f"R must be {x.size}x{x.size} to match the dimensions of x")
    if not (r > 0 and math.isfinite(r)):
        raise InputError("discount rate must be positive and finite")
    if not (math.isfinite(t) and t >= 0):
        raise InputError("dual flow time must be finite and nonnegative")
    x_t = _expm(t * (r * np.eye(x.size) - R)) @ x
    q_t = marginal_flow(q, Q, t)
    return DualFlowState(x_t, q_t, t)


def dual_pde_residual_upper(vstar, hstar, x, q, R, Q, r: float) -> tuple[float, float]:
    """Residual pair for the concave conjugate V*(x, q).

    Returns ``(h*(x,q) - V*(x,q),  D V*(x,q; (rI-R)x, Q^T q) - r V*(x,q))``,
    the derivative by a forward difference of step 1e-7 over the largest
    direction entry (or 1); the minimum of the pair is <= 0 (up to
    tolerance) for the true value.
    """
    x = np.asarray(x, dtype=float)
    q = as_simplex(q)
    dx = (r * np.eye(x.size) - np.asarray(R, dtype=float)) @ x
    dq = np.asarray(Q, dtype=float).T @ q
    step = 1e-7 / max(1.0, float(np.abs(dx).max(initial=0.0)), float(np.abs(dq).max(initial=0.0)))
    base = vstar(x, q)
    ahead = vstar(x + step * dx, q + step * dq)
    return float(hstar(x, q) - base), float((ahead - base) / step - r * base)


def dual_pde_residual_lower(vstar, fstar, p, y, R, Q, r: float) -> tuple[float, float]:
    """Residual pair for the convex conjugate V_*(p, y).

    Returns ``(V_*(p,y) - f_*(p,y),  r V_*(p,y) - D V_*(p,y; R^T p, (rI-Q)y))``;
    again the minimum must be <= 0 for the true value.  Player 2's problem
    is player 1's with the players swapped and the payoff negated, so
    ``V_*(p, y) = -W*(-y, p)`` with ``W*`` the concave conjugate of the swapped
    game: this is :func:`dual_pde_residual_upper` of ``(x, p) -> -vstar(p, -x)``
    and ``-fstar(p, -x)`` at ``x = -y``, with the chains passed as ``(Q, R)``.
    """
    return dual_pde_residual_upper(lambda x, q: -vstar(q, -x), lambda x, q: -fstar(q, -x),
                                   -np.asarray(y, dtype=float), p, Q, R, r)
