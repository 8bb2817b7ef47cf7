"""Value computation and residual verification on the belief product.

The value is found as the fixed point of one sweep

    V  ->  vex_q( cav_p( obstacle_step(V, delta) ) )

where the obstacle step is a discounted look-ahead along the marginal
flow clipped into the obstacle band ``[h, f]``, and the two envelope
projections enforce the saddle shape.  One operator holds the step (the
obstacles, the discount, the flow stencils), built once per :func:`solve`
and per :func:`obstacle_step` call.  The residual checker then tests
the variational characterization pointwise: at extreme nodes of a slice
the obstacle/transport inequalities must hold with the right sign.

The q side is the p side on mirrored values: ``vex_q`` of ``V`` is minus
the p-style concave envelope of ``-V.T`` (transposed back), and the
checker's extreme-node flags and flow derivatives run the p-side helpers
on ``V.T``.  Negation and transposition are exact in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .grids import (SimplexGrid, ValueGrid, _concave_envelope, _is_count, concave_envelope,
                    convex_envelope, payoff_grids)
from .model import GameSpec, _propagate

__all__ = [
    "cav_p", "vex_q", "obstacle_step", "solve",
    "directional_derivative", "residual_check", "ResidualReport",
    "default_time_step",
]


def cav_p(grid: ValueGrid) -> ValueGrid:
    """Replace every q-slice by its upper concave envelope over the p-simplex."""
    return grid.with_values(concave_envelope(grid.p_grid.chart, grid.values))


def vex_q(grid: ValueGrid) -> ValueGrid:
    """Replace every p-slice by its lower convex envelope over the q-simplex."""
    return grid.with_values(convex_envelope(grid.q_grid.chart, grid.values.T).T)


def _flow_stencil(grid: SimplexGrid, G: np.ndarray, delta: float):
    """Interpolation stencil for every node displaced by the marginal flow."""
    if grid.dim == 1 or not np.any(G):
        idx = np.arange(grid.n_nodes, dtype=np.int64)[:, None]
        return idx, np.ones((grid.n_nodes, 1))
    return grid.interp_weights(_propagate(grid.nodes, G, delta)[:, : grid.dim - 1])


def _obstacle_operator(spec: GameSpec, p_grid: SimplexGrid, q_grid: SimplexGrid, delta: float):
    """``(H, F, disc, terms)``: obstacle grids, discount, and one ``(index, weight)``
    pair per pair of p- and q-stencil points, ``index`` into the flattened values."""
    H, F = payoff_grids(spec, p_grid, q_grid)
    ip, wp = _flow_stencil(p_grid, spec.R, delta)
    iq, wq = _flow_stencil(q_grid, spec.Q, delta)
    terms = [(ip[:, a, None] * q_grid.n_nodes + iq[None, :, b], wp[:, a, None] * wq[None, :, b])
             for a in range(ip.shape[1]) for b in range(iq.shape[1])]
    return H, F, math.exp(-spec.r * delta), terms


def _obstacle_apply(values, H, F, disc, terms):
    flat = values.ravel()
    flow_vals = np.zeros(values.shape)  # C order, as the terms: mixed layouts are slow
    for index, weight in terms:
        flow_vals += weight * flat.take(index)
    return np.minimum(np.maximum(disc * flow_vals, H), F)


def default_time_step(spec: GameSpec, N_p: int, N_q: int) -> float:
    """One-cell CFL-style rule: flow displacement per step at most one cell.

    The discount cap is 0.1/r; the envelope projections add an O(r*delta)
    bias near chord junctions.  With no moving chain (e1) the cap sets
    delta on every grid, and the bias is the whole error: a sup error of
    5.2e-3 at 101x101 and 201x201 nodes, first order in delta (2.7e-3 at
    0.05/r).  There the sweep count does not grow with the grid: with
    :func:`solve`'s mixing it is 58 and 73 sweeps at 101x101 and 201x201
    to ``tol = 1e-7``, about half the plain count.
    """
    delta = 0.1 / spec.r
    for G, N in ((spec.R, N_p), (spec.Q, N_q)):
        norm = float(np.abs(G).sum(axis=1).max()) if G.size else 0.0
        if norm > 0:
            delta = min(delta, 1.0 / (N * norm))
    return delta


def obstacle_step(grid: ValueGrid, delta: float) -> ValueGrid:
    """median(h, f, discounted value at the flowed point), nodewise."""
    if grid.spec is None:
        raise InputError("obstacle step needs a grid carrying its game spec")
    if not delta > 0:
        raise InputError("time step must be positive")
    operator = _obstacle_operator(grid.spec, grid.p_grid, grid.q_grid, delta)
    return grid.with_values(_obstacle_apply(grid.values, *operator))


_MIX_AFTER = 10  # plain sweeps before the mixing starts
_STALL = 30  # mixing calls without a new least change before the mixing stops for good


class _Secant:
    """Depth-one Anderson mixing of the sweep ``T``, restarted when the change does not drop.

    The first ``_MIX_AFTER - 1`` calls return the sweep image ``g`` itself:
    mixing from ``(f+h)/2`` gains little.  From then on, from an iterate
    ``x`` with image ``g = T(x)`` and change ``f = g - x``, and the
    previous pair ``(f', g')``, the next iterate is ``g - gamma (g - g')``
    with ``gamma = <df, f> / <df, df>`` and ``df = f - f'``: the combination
    of the two images whose change, extrapolated linearly, is least in the
    mean square.  A change whose sup norm does not drop below the previous
    one discards the previous pair (a restart): the next iterate is ``g``
    itself, and ``(f, g)`` is the pair the next step mixes with.  ``f`` is
    written into the array of ``x`` and the differences into the pair's
    arrays, so a mixing step allocates no full-grid array and solves no
    linear system.

    The secant can cycle: on grids where plain iteration reaches an exact
    fixed point (e2 at N = 100 and 400) it repeats with period 3 and the
    change never drops.  So once the least change so far has not dropped
    for ``_STALL`` mixing calls, the mixing stops for good (``stalled_at``
    is that call's number) and every later call returns ``g`` itself.
    """

    def __init__(self):
        self.f = self.g = None
        self.last = self.best = math.inf  # the previous change, the least one
        self.calls = self.since_best = 0
        self.accepted = self.restarts = 0
        self.stalled_at = None

    def next(self, x: np.ndarray, g: np.ndarray, change: float) -> np.ndarray:
        """The iterate after ``x`` (which it may overwrite), given ``g = T(x)`` and
        ``change = |g - x|``."""
        self.calls += 1
        if self.calls < _MIX_AFTER or self.stalled_at is not None:
            return g
        if change < self.best:
            self.best, self.since_best = change, 0
        else:
            self.since_best += 1
            if self.since_best >= _STALL:
                self.stalled_at, self.f, self.g = self.calls, None, None
                return g
        f = np.subtract(g, x, out=x)
        mixed = None
        if change >= self.last:
            self.restarts += 1
        elif self.f is not None:
            df = np.subtract(f, self.f, out=self.f).ravel()
            norm = float(np.dot(df, df))
            if norm > 0.0:
                dg = np.subtract(g, self.g, out=self.g)
                dg *= -float(np.dot(df, f.ravel())) / norm
                mixed = np.add(dg, g, out=dg)
                self.accepted += 1
        self.f, self.last = f, change
        if mixed is None:  # g is the next iterate, which the caller may overwrite
            self.g = g.copy()
            return g
        self.g = g
        return mixed


def solve(spec: GameSpec, N_p: int, N_q: int, tol: float = 1e-7,
          max_iter: int = 200_000) -> ValueGrid:
    """Iterate the sweep from ``(f+h)/2`` until the sup-norm change drops below ``tol``.

    ``tol`` bounds the last sweep's change, not the error: the sweep ``T``
    contracts by ``e^{-r delta}`` in the sup norm (the envelopes do not
    expand it), so the result lies within ``error_bound = residual *
    e^{-r delta} / (1 - e^{-r delta})`` of the discrete fixed point, about
    9.5 times the residual at ``delta = 0.1 / r``.  The result is the image
    ``T(x)`` of the last iterate ``x`` and ``residual = |T(x) - x|``, so the
    bound holds whatever ``x`` is: ``|T(x) - V*| <= e^{-r delta} |x - V*|
    <= e^{-r delta} (|x - T(x)| + |T(x) - V*|)``.

    After ``_MIX_AFTER`` plain sweeps each next iterate mixes the last
    two sweep images (depth-one Anderson mixing, restarted whenever the
    change does not drop; see :class:`_Secant`).  The first sweeps stay
    plain because mixing from ``(f+h)/2`` gains little; a solve stopped
    within them reports the plain loop's residual.  Where the least change
    has not dropped for ``_STALL`` mixing steps (the secant cycles on grids
    where plain iteration ends on an exact fixed point, as e2 at N = 100
    and 400), the mixing stops and plain sweeps finish the solve, on the
    plain loop's fixed point.  To ``tol = 1e-9`` e2 takes 261 sweeps at N =
    400 instead of 3,920 and 53 at N = 401 instead of 11,548; the
    moving-chain game of the benchmark takes 217 at 41x41 nodes instead of
    573 (``tol = 1e-8``), and e1 58 at 101x101 nodes instead of 141 (``tol
    = 1e-7``).

    Each side carries its hull record (the vertex masks and their
    neighbours) from one sweep to the next as the envelope kernel's hint:
    the same hulls as :func:`cav_p` and :func:`vex_q` give, bit for bit.
    A sweep whose vertex sets hold costs one exact test per side.
    ``metadata`` records the final sweep's vertex counts per side
    (``hull_vertices``), the number of sweeps in which each side's vertex
    set moved (``hull_moves``, the first sweep included; both ``None`` for
    charts of two or more coordinates), ``error_bound``, the nodes
    pinned to each obstacle (``pinned``), and the mixing steps taken, the
    restarts and the sweep where the mixing stopped (``mixing``:
    ``accepted``, ``restarts``, ``stalled_at``; from that sweep on each
    image is the next iterate as it is, and ``None`` means the mixing never
    stopped).

    ``N_p``, ``N_q`` and ``max_iter`` must be integers >= 1 and ``tol``
    positive and finite, else :class:`InputError`; a solve still above
    ``tol`` after ``max_iter`` sweeps raises :class:`ConvergenceError`.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise InputError("tolerance must be positive and finite")
    if not _is_count(max_iter):
        raise InputError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    p_grid = SimplexGrid(spec.K, N_p)
    q_grid = SimplexGrid(spec.L, N_q)
    delta = default_time_step(spec, N_p, N_q)
    H, F, disc, terms = _obstacle_operator(spec, p_grid, q_grid, delta)

    V = 0.5 * (H + F)
    change = math.inf
    hull_p = hull_q = None
    moves_p = moves_q = 0
    mix = _Secant()
    for it in range(1, max_iter + 1):
        new = _obstacle_apply(V, H, F, disc, terms)
        new, held_p = _concave_envelope(p_grid.chart, new, hull_p)
        # vex over q mirrored: -cav of -V^T (hull_q records that cav's vertices)
        new, held_q = _concave_envelope(q_grid.chart, -new.T, hull_q)
        new = -new.T
        moves_p += held_p is not hull_p
        moves_q += held_q is not hull_q
        hull_p, hull_q = held_p, held_q
        change = float(np.abs(new - V).max())
        if not math.isfinite(change):
            raise ConvergenceError(f"sweep {it} produced a non-finite change", change)
        if change < tol:
            V = new
            break
        V = mix.next(V, new, change)
    else:
        raise ConvergenceError(f"solver did not converge in {max_iter} sweeps", change)
    # the median semantics guarantee the band; clipping only removes
    # envelope-arithmetic rounding at the 1e-16 scale
    V = np.clip(V, H, F)
    sides = (("p", hull_p, moves_p), ("q", hull_q, moves_q))
    meta = {"iterations": it, "residual": change, "delta": delta,
            "error_bound": change * disc / (1.0 - disc),
            "N_p": N_p, "N_q": N_q, "tol": tol,
            "hull_vertices": {s: None if h is None else int(h.alive.sum()) for s, h, _ in sides},
            "hull_moves": {s: None if h is None else k for s, h, k in sides},
            "pinned": {"h": int((V == H).sum()), "f": int((V == F).sum())},
            "mixing": {"accepted": mix.accepted, "restarts": mix.restarts,
                       "stalled_at": mix.stalled_at}}
    return ValueGrid(p_grid, q_grid, V, spec, meta)


def directional_derivative(grid: ValueGrid, node, dir_p, dir_q) -> float:
    """One-sided difference quotient along ``(dir_p, dir_q)`` with a one-cell step.

    The node must be a pair of beliefs of the grid's two sides, also where
    the direction is zero, and each direction must have its side's number
    of states.
    """
    p = np.asarray(node[0], dtype=float)
    q = np.asarray(node[1], dtype=float)
    base = grid.value_at(p, q)  # checks the node
    dp = np.zeros(p.size) if dir_p is None else np.asarray(dir_p, dtype=float)
    dq = np.zeros(q.size) if dir_q is None else np.asarray(dir_q, dtype=float)
    if dp.shape != p.shape or dq.shape != q.shape:
        raise InputError(f"directions of shapes {dp.shape} and {dq.shape} do not fit the "
                         f"beliefs of shapes {p.shape} and {q.shape}")
    mag = max(float(np.abs(dp).max(initial=0.0)), float(np.abs(dq).max(initial=0.0)))
    if mag < 1e-14:
        return 0.0
    for d in (dp, dq):
        if abs(d.sum()) > 1e-9 * (1.0 + float(np.abs(d).max(initial=0.0))):
            raise InputError("direction leaves the affine hull of the simplex")
    cell = min(grid.p_grid.step, grid.q_grid.step)
    eps = cell / mag
    p2, q2 = p + eps * dp, q + eps * dq
    slack = 1e-9
    if np.any(p2 < -slack) or np.any(q2 < -slack):
        raise InputError("direction exits the simplex")
    p2, q2 = np.maximum(p2, 0.0), np.maximum(q2, 0.0)
    return (grid.value_at(p2, q2) - base) / eps


def _neighbor_pairs(grid: SimplexGrid):
    """For each node, index pairs of equidistant straddling neighbors."""
    counts = np.rint(grid.nodes * grid.resolution).astype(int)
    lookup = {tuple(c): i for i, c in enumerate(counts)}
    dim = grid.dim
    pairs = [[] for _ in range(grid.n_nodes)]
    for i, c in enumerate(counts):
        for a in range(dim):
            for b in range(a + 1, dim):
                up = list(c); up[a] += 1; up[b] -= 1
                dn = list(c); dn[a] -= 1; dn[b] += 1
                ju, jd = lookup.get(tuple(up)), lookup.get(tuple(dn))
                if ju is not None and jd is not None:
                    pairs[i].append((jd, ju))
    return pairs


def _extreme_flags(values: np.ndarray, pairs, eps: float) -> np.ndarray:
    """A row node is extreme in its column slice unless a straddling chord matches its value.

    Slices of a saddle grid are concave/convex, so the tightest chord
    through a node is the one between its immediate neighbors; testing it
    is equivalent to testing all grid chords.  Vertex nodes (Dirac
    masses) are always extreme.  The q side is ``_extreme_flags(V.T, ...).T``.
    """
    flags = np.ones(values.shape, dtype=bool)
    for i, plist in enumerate(pairs):
        if not plist:
            continue  # vertex node: always extreme
        matched = np.zeros(values.shape[1], dtype=bool)
        for (jlo, jhi) in plist:
            chord = 0.5 * (values[jlo, :] + values[jhi, :])
            matched |= np.abs(chord - values[i, :]) <= eps
        flags[i, :] = ~matched
    return flags


@dataclass
class ResidualReport:
    """Pointwise variational residuals of a grid, split by extremeness."""

    p_extreme: np.ndarray
    q_extreme: np.ndarray
    gap_low: np.ndarray       # V - h
    gap_high: np.ndarray      # f - V
    pde_residual: np.ndarray  # r V - D1 V . flow_p - D2 V . flow_q
    sub_violation: np.ndarray
    super_violation: np.ndarray
    eps_extreme: float

    @property
    def worst_sub_violation(self) -> float:
        return float(self.sub_violation.max(initial=0.0))

    @property
    def worst_super_violation(self) -> float:
        return float(self.super_violation.max(initial=0.0))


def _flow_derivative(g: SimplexGrid, G: np.ndarray, values: np.ndarray,
                     cell: float) -> np.ndarray:
    """D V(.; G^T x_i) at each row ``i`` of ``values`` (node ``x_i`` of ``g``), one-sided.

    ``D1 V(.; R^T p)`` is ``(p_grid, R, V)`` and ``D2 V(.; Q^T q)`` is ``(q_grid, Q, V.T).T``.
    """
    dirs = g.nodes @ G  # row i: G^T x_i
    mags = np.abs(dirs).max(axis=1, initial=0.0)
    if not np.any(mags > 1e-14):
        return np.zeros_like(values)
    eps = np.where(mags > 1e-14, cell / np.maximum(mags, 1e-300), 0.0)
    ahead = g.interpolate(np.maximum(g.nodes + eps[:, None] * dirs, 0.0), values)
    moving = eps[:, None] > 0
    return np.where(moving, (ahead - values) / np.where(moving, eps[:, None], 1.0), 0.0)


def residual_check(grid: ValueGrid) -> ResidualReport:
    """Evaluate the variational inequalities of the saddle characterization.

    At p-extreme nodes the max/min expression must be <= 0 (its excess is
    the subsolution violation); at q-extreme nodes it must be >= 0.  A node
    counts as extreme in its slice unless a straddling chord matches its
    value to within ``eps_extreme = 10 / N**2 * max|V|``, with ``N`` the
    finer side's resolution; the report carries that tolerance.
    """
    if grid.spec is None:
        raise InputError("residual check needs a grid carrying its game spec")
    spec = grid.spec
    H, F = payoff_grids(spec, grid.p_grid, grid.q_grid)
    V = grid.values
    scale = float(np.abs(V).max(initial=0.0)) or 1.0
    N = max(grid.p_grid.resolution, grid.q_grid.resolution)
    eps_extreme = 10.0 / N**2 * scale
    p_ext = _extreme_flags(V, _neighbor_pairs(grid.p_grid), eps_extreme)
    q_ext = _extreme_flags(V.T, _neighbor_pairs(grid.q_grid), eps_extreme).T
    cell = min(grid.p_grid.step, grid.q_grid.step)
    pde = (spec.r * V - _flow_derivative(grid.p_grid, spec.R, V, cell)
           - _flow_derivative(grid.q_grid, spec.Q, V.T, cell).T)
    if not np.all(np.isfinite(pde)):
        raise InputError("non-finite residual encountered")
    expr = np.maximum(np.minimum(pde, V - H), V - F)
    sub = np.where(p_ext, np.maximum(expr, 0.0), 0.0)
    sup = np.where(q_ext, np.maximum(-expr, 0.0), 0.0)
    return ResidualReport(p_ext, q_ext, V - H, F - V, pde, sub, sup, eps_extreme)
