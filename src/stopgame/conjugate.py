"""Fenchel-type conjugates of saddle functions and the dual flow objects.

Two transforms appear, one per player:

* concave conjugate in the first argument,
  ``V*(x, q) = inf_p <x, p> - V(p, q)`` for ``x`` in R^K,
* convex conjugate in the second argument,
  ``V_*(p, y) = sup_q <q, y> - V(p, q)`` for ``y`` in R^L.

For two-state sides everything reduces to the scalar chart: we write
``V_*(p, y)`` for ``V_*((p, 1-p), (y, 0))`` and use the shift identity
``V_*((p,1-p), (y1,y2)) = y2 + V_*((p,1-p), (y1-y2, 0))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import InputError
from .grids import SimplexGrid, ValueGrid
from .model import as_simplex, marginal_flow

__all__ = [
    "concave_conjugate_p", "convex_conjugate_q", "subgradient_q",
    "obstacle_conjugate_p", "obstacle_conjugate_q",
    "DualPoint", "DualFlowState", "dual_flow",
    "dual_pde_residual_upper", "dual_pde_residual_lower",
    "pair", "ycoord",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def pair(p: float) -> np.ndarray:
    """Scalar chart -> two-state simplex point."""
    return np.array([p, 1.0 - p])


def ycoord(y: float) -> np.ndarray:
    """Scalar dual chart -> two-state dual vector (second coordinate pinned to 0)."""
    return np.array([y, 0.0])


@dataclass(frozen=True)
class DualPoint:
    """A dual-side evaluation point: a slope vector paired with the opponent belief."""

    vector: np.ndarray
    partner: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        if not np.all(np.isfinite(v)):
            raise InputError("dual vector must be finite")
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "partner", as_simplex(self.partner))


def _golden_min(f, a: float, b: float, iters: int = 90) -> float:
    """Golden-section minimum of a unimodal function on ``[a, b]``."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return f(0.5 * (a + b))


def _grid_slice(partner: SimplexGrid, point: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Columns of ``values`` (one per ``partner`` node) interpolated at ``point``."""
    idx, w = partner.interp_weights(np.atleast_2d(point[: partner.dim - 1]))
    return sum(w[0, b] * values[:, idx[0, b]] for b in range(idx.shape[1]))


def _inf_pairing(x: np.ndarray, slice_, nodes: np.ndarray | None = None) -> float:
    """inf over a simplex of ``<x, s> - slice_(s)``.

    Grid input (``slice_`` holds the values at ``nodes``): the objective is
    affine on every cell, so the exact answer is a scan over the nodes.
    Callable input (``slice_`` maps the scalar chart to a value): coarse
    scan plus golden section; the objective is convex, so it is unimodal.
    """
    if nodes is not None:
        return float(np.min(nodes @ x - slice_))
    if x.size != 2:
        raise InputError("callable conjugation is implemented on the scalar chart")
    obj = lambda c: x[0] * c + x[1] * (1 - c) - slice_(c)
    coarse = np.linspace(0.0, 1.0, 257)
    vals = np.array([obj(c) for c in coarse])
    best = int(np.argmin(vals))
    lo, hi = coarse[max(best - 1, 0)], coarse[min(best + 1, coarse.size - 1)]
    return min(float(vals[best]), float(_golden_min(obj, lo, hi)))


def concave_conjugate_p(V, x, q) -> float:
    """inf over the p-simplex of <x, p> - V(p, q), for a value grid or a callable."""
    x = np.asarray(x, dtype=float)
    q = as_simplex(q)
    if isinstance(V, ValueGrid):
        if x.size != V.p_grid.dim:
            raise InputError("dual vector dimension does not match the p-side")
        return _inf_pairing(x, _grid_slice(V.q_grid, q, V.values), V.p_grid.nodes)
    return _inf_pairing(x, lambda c: V(pair(c), q))


def convex_conjugate_q(V, p, y) -> float:
    """sup over the q-simplex of <q, y> - V(p, q); dual to :func:`concave_conjugate_p`.

    Computed as ``-inf_q <q, -y> - (-V(p, q))``.
    """
    p = as_simplex(p)
    y = np.asarray(y, dtype=float)
    if isinstance(V, ValueGrid):
        if y.size != V.q_grid.dim:
            raise InputError("dual vector dimension does not match the q-side")
        return -_inf_pairing(-y, -_grid_slice(V.p_grid, p, V.values.T), V.q_grid.nodes)
    return -_inf_pairing(-y, lambda c: -V(p, pair(c)))


def obstacle_conjugate_p(M, x, q) -> float:
    """Concave conjugate in p of a bilinear payoff: min_k x_k - (M q)_k."""
    M = np.asarray(M, dtype=float)
    return float(np.min(np.asarray(x, dtype=float) - M @ as_simplex(q)))


def obstacle_conjugate_q(M, p, y) -> float:
    """Convex conjugate in q of a bilinear payoff: max_l y_l - (M^T p)_l."""
    M = np.asarray(M, dtype=float)
    return float(np.max(np.asarray(y, dtype=float) - M.T @ as_simplex(p)))


def subgradient_q(V: ValueGrid, p, q) -> tuple[np.ndarray, np.ndarray]:
    """One-sided slope interval of q -> V(p, q) per chart coordinate.

    Returns ``(lo, hi)`` arrays of length ``L - 1``; any selection in
    between is a valid subgradient of the (convex) q-slice.  The usual
    selection is the midpoint unless a caller pins a face.
    """
    p = as_simplex(p)
    q = as_simplex(q)
    qg = V.q_grid
    if qg.dim == 1:
        z = np.zeros(0)
        return z, z
    row = _grid_slice(V.p_grid, p, V.values.T)
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
        hi[c] = _one_sided(V, row, q, direction, step)
        lo[c] = -_one_sided(V, row, q, -direction, step)
    return lo, hi


def _one_sided(V: ValueGrid, row: np.ndarray, q: np.ndarray, direction: np.ndarray,
               step: float) -> float:
    eps = step
    target = q + eps * direction
    if np.any(target < -1e-12):
        eps = float(min(q[direction < 0] / -direction[direction < 0]))
        if eps <= 1e-14:
            return math.nan
        target = q + eps * direction
    values = row[None, :]
    return (_grid_slice(V.q_grid, np.maximum(target, 0.0), values)[0]
            - _grid_slice(V.q_grid, q, values)[0]) / eps


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
    R = np.asarray(R, dtype=float)
    if t < 0:
        raise InputError("dual flow time must be nonnegative")
    x_t = expm(t * (r * np.eye(x.size) - R)) @ x
    q_t = marginal_flow(q, Q, t)
    return DualFlowState(x_t, q_t, t)


def _flow_quotient(vstar, a, b, da, db, r: float, eps: float) -> float:
    """(directional derivative along (da, db)) - r * vstar, by a forward difference."""
    scale = max(1.0, float(np.abs(da).max(initial=0.0)), float(np.abs(db).max(initial=0.0)))
    step = eps / scale
    base = vstar(a, b)
    ahead = vstar(a + step * da, b + step * db)
    return (ahead - base) / step - r * base


def dual_pde_residual_upper(vstar, hstar, x, q, R, Q, r: float,
                            eps: float = 1e-7) -> tuple[float, float]:
    """Residual pair for the concave conjugate V*(x, q).

    Returns ``(h*(x,q) - V*(x,q),  D V*(x,q; (rI-R)x, Q^T q) - r V*(x,q))``;
    the minimum of the pair is <= 0 (up to tolerance) for the true value.
    """
    x = np.asarray(x, dtype=float)
    q = as_simplex(q)
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    gap = hstar(x, q) - vstar(x, q)
    dx = (r * np.eye(x.size) - R) @ x
    dq = Q.T @ q
    return float(gap), float(_flow_quotient(vstar, x, q, dx, dq, r, eps))


def dual_pde_residual_lower(vstar, fstar, p, y, R, Q, r: float,
                            eps: float = 1e-7) -> tuple[float, float]:
    """Residual pair for the convex conjugate V_*(p, y).

    Returns ``(V_*(p,y) - f_*(p,y),  r V_*(p,y) - D V_*(p,y; R^T p, (rI-Q)y))``;
    again the minimum must be <= 0 for the true value.
    """
    p = as_simplex(p)
    y = np.asarray(y, dtype=float)
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    gap = vstar(p, y) - fstar(p, y)
    dp = R.T @ p
    dy = (r * np.eye(y.size) - Q) @ y
    return float(gap), float(-_flow_quotient(vstar, p, y, dp, dy, r, eps))