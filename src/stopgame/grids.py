"""Discretized saddle functions on a product of simplices.

A ``SimplexGrid`` holds every barycentric node with coordinates that are
multiples of ``1/N``.  A ``ValueGrid`` pairs one grid per player with a
value array and supports the operations the solver is built from:
multilinear interpolation on the chart, and per-slice concave/convex
envelopes.  There is one envelope kernel: the convex envelope is the
concave one mirrored, ``-concave_envelope(chart, -v)``.

The validated path is two-state sides (1-d charts), whose nodes are
equally spaced.  There one kernel prunes every slice at once with an
exact pop test on values rounded to a dyadic integer grid, so the vertex
set is the same in any pruning order, hinted or cold, and a dropped node
lies at most one quantum above its chord (``2^-(52 - bitlen(N))`` of the
power of two above the slice's max ``|v|``, 1.1e-13 of it at N = 400).
The slices are the contiguous rows of one array, and the kernel prunes a
compact list of the alive nodes' flat positions: each round tests every
listed node against its list neighbours and compresses the list with one
mask, and one pass after the last round gives every node its chord ends.
``solve`` carries each side's hull record (the vertex mask with every
node's neighbouring vertices) from one sweep to the next.  Round one
tests every node against the chord of its recorded neighbours; when that
confirms the mask, the call only interpolates chords and returns the
same record.  That happens on 216 of 260 carried calls on e2 401x1, 284
of 432 on the moving-chain game at 41x41 and none of 114 on e1 101x101,
whose masks move every sweep.  Otherwise the compact rounds start from
the nodes round one kept (on e1 about 4,800 of 10,201, and 6 rounds to
the hull's 2,900 or so vertices).  Median cost per call in a solve (2
shared Xeon cores): 28 us confirmed and 75 us pruned on e2 401x1, 50 and
142 us on the moving game, 510 us pruned on e1 101x101.
Higher dimensions use Delaunay barycentric interpolation and qhull
envelopes; both are exact for piecewise-affine data but cost grows
quickly with dimension.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .model import SIMPLEX_CLAMP, SIMPLEX_SUM_TOL, GameSpec, as_simplex

__all__ = [
    "SimplexGrid", "ValueGrid", "payoff_grids",
    "concave_envelope", "convex_envelope",
    "write_value_csv", "read_value_csv",
]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _is_count(n) -> bool:
    """Whether ``n`` is an integer >= 1 (a bool is not one)."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1


@dataclass
class SimplexGrid:
    """All points of the ``dim``-simplex with coordinates in ``{0, 1/N, ..., 1}``."""

    dim: int
    resolution: int
    nodes: np.ndarray = field(init=False, repr=False)
    chart: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not _is_count(self.dim):
            raise InputError(f"simplex dimension must be an integer >= 1, got {self.dim!r}")
        if not _is_count(self.resolution):
            raise InputError(f"grid resolution must be an integer >= 1, got {self.resolution!r}")
        if self.dim == 1:
            self.nodes = np.array([[1.0]])
        elif self.dim == 2:
            c = np.linspace(0.0, 1.0, self.resolution + 1)
            self.nodes = np.column_stack([c, 1.0 - c])
        else:
            counts = np.array(list(_compositions(self.resolution, self.dim)), dtype=float)
            self.nodes = counts / self.resolution
        # Chart = first dim-1 coordinates (the last one is redundant).
        self.chart = self.nodes[:, : self.dim - 1]
        self._tri = None

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def step(self) -> float:
        return 1.0 / self.resolution if self.dim > 1 else 1.0

    def _triangulation(self):
        if self._tri is None:
            from scipy.spatial import Delaunay

            self._tri = Delaunay(self.chart)
        return self._tri

    def interp_weights(self, chart_points: np.ndarray):
        """Sparse interpolation stencil for chart points.

        Returns ``(idx, w)`` of shape ``(m, k)`` with
        ``value(point_i) = sum_a w[i, a] * values[idx[i, a]]``.
        """
        pts = np.atleast_2d(np.asarray(chart_points, dtype=float))
        m = pts.shape[0]
        if self.dim == 1:
            return np.zeros((m, 1), dtype=np.int64), np.ones((m, 1))
        if self.dim == 2:
            pos = pts[:, 0].clip(0.0, 1.0) * self.resolution
            lo = np.minimum(np.floor(pos).astype(np.int64), self.resolution - 1)
            w_hi = pos - lo
            return lo[:, None] + np.arange(2), np.stack((1.0 - w_hi, w_hi), axis=1)
        tri = self._triangulation()
        simplex = tri.find_simplex(pts, tol=1e-12)
        if np.any(simplex < 0):
            raise InputError("interpolation point outside the simplex chart")
        d = self.dim - 1
        trans = tri.transform[simplex]
        bary = np.einsum("nij,nj->ni", trans[:, :d, :], pts - trans[:, d, :])
        w = np.column_stack([bary, 1.0 - bary.sum(axis=1)])
        idx = tri.simplices[simplex]
        return idx.astype(np.int64), w

    def interpolate(self, points, values) -> np.ndarray:
        """The rows of ``values`` (one per node) interpolated at simplex ``points``.

        ``points`` are in full coordinates, one point or one per row; row
        ``i`` of the result is ``sum_a w[i, a] * values[idx[i, a]]`` for the
        stencil of :meth:`interp_weights`, summed in stencil order.  A
        point with another number of states, or off the simplex by more
        than the tolerances of :func:`~stopgame.model.as_simplex` (a
        coordinate that is not finite included), is an
        :class:`InputError`.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InputError(f"a point of a {self.dim}-state grid needs {self.dim} "
                             f"coordinates, got shape {np.shape(points)}")
        # NaN fails both comparisons, and an infinite coordinate the mass test
        if not ((pts >= -SIMPLEX_CLAMP).all()
                and (np.abs(pts.sum(axis=1) - 1.0) <= SIMPLEX_SUM_TOL).all()):
            raise InputError("a point of the grid needs finite coordinates on the simplex")
        idx, w = self.interp_weights(pts[:, : self.dim - 1])
        shape = (-1,) + (1,) * (values.ndim - 1)  # one weight per row of values
        out = np.zeros((idx.shape[0],) + values.shape[1:])
        for a in range(idx.shape[1]):
            out += w[:, a].reshape(shape) * values[idx[:, a]]
        return out


class _Hull(NamedTuple):
    """A vertex mask carried from one envelope call to the next.

    ``alive`` is the ``(m, n)`` mask of ``m`` slices of ``n`` nodes, end
    nodes always set; ``a`` and ``c`` hold each interior node's previous
    and next alive node as a flat position ``slice * n + node``, ``(m, n - 2)``.
    """

    alive: np.ndarray
    a: np.ndarray
    c: np.ndarray


def _neighbours(live: np.ndarray, shape) -> _Hull:
    """The record of the alive nodes at the sorted flat positions ``live``.

    Every slice end is among them.  Two ``np.repeat`` over consecutive
    alive positions give every node the alive node before it and the one
    after it.
    """
    alive = np.zeros(shape, dtype=bool)
    alive.ravel()[live] = True
    gaps = np.diff(live, append=live[-1:])
    gaps[:1] += 1
    a = np.ascontiguousarray(np.repeat(live, gaps).reshape(shape)[:, 1:-1])
    gaps = np.diff(live, prepend=live[:1])
    gaps[-1:] += 1
    c = np.ascontiguousarray(np.repeat(live, gaps).reshape(shape)[:, 1:-1])
    return _Hull(alive, a, c)


def _hull_record(alive) -> _Hull:
    """The record of an ``(m, n)`` vertex mask, end nodes set, such as a nearby slice's."""
    alive = np.array(alive, dtype=bool)
    alive[:, :1] = alive[:, -1:] = True
    return _neighbours(np.flatnonzero(alive), alive.shape)


def _upper_hull_rows(v: np.ndarray, alive: _Hull | None = None):
    """Least concave majorant of every row of ``v`` over equally spaced nodes.

    ``v`` is C-contiguous with one slice per row, on nodes ``0 .. n-1``.
    Each slice is put on a dyadic integer grid, ``q = rint(v * 2^(52 -
    bitlen(n-1) - e))`` with ``2^(e-1) <= max|v| < 2^e``, so ``|q| <= 2^(52
    - bitlen(n-1))`` and every product of the pop test ``(q_b - q_a)(c - a)
    <= (q_c - q_a)(b - a)`` is an integer below 2^53: the test is exact,
    and the vertex set is the unique one of the quantized points.  A node
    is dropped at most one quantum, ``2^(e - 52 + bitlen(n-1))``, above its
    chord.

    Round-wise pruning on a compact list: the alive nodes are held as their
    sorted flat positions ``slice * n + node`` with their quantized values.
    Each round tests every listed node ``b`` against the chord ``a -> c``
    of its neighbours in the list and compresses the list with one boolean
    mask.  Slice ends are never dropped, so the triple around an interior
    node never crosses slices and no neighbour search is needed.  A node on
    or below its chord is no vertex; once a round drops nothing, every
    slice's chain is strictly concave, hence the hull.  A concave run
    ending in a spike drops one node per round, so the worst case is ``n -
    2`` rounds over the list.  After the last round :func:`_neighbours`
    gives every node its chord ends, in one pass.

    Without a record the list starts with every node.  ``alive`` is a
    carried :class:`_Hull` record, such as the one returned for a nearby
    ``v`` or :func:`_hull_record` of a mask.  Round one then tests every
    interior node against the chord of its recorded neighbours and keeps it
    if and only if it lies above, which keeps every hull vertex (a vertex
    lies above any chord across it).  If that changes no node, the record
    is the hull's and is returned as it is, never written to; otherwise the
    list starts with the nodes round one kept.  Between vertices the
    envelope is the chord ``(1 - w) v_a + w v_c`` of the original values,
    ``w = (b - a)/(c - a)``.  Returns ``(envelope, record)``, the record of
    the hull vertices.

    A confirmed call costs the quantization, one exact test and the chords
    (28 us per call on e2 401x1 and 50 us on the moving game at 41x41 in a
    solve); a pruned one adds the rounds and the chord-end pass (75, 142
    and 510 us on those two games and on e1 101x101; see the module
    docstring).
    """
    m, n = v.shape
    if n < 3 or m == 0:
        return v.copy(), _hull_record(np.ones((m, n), dtype=bool)) if alive is None else alive
    shift = 52 - (n - 1).bit_length() - np.frexp(np.abs(v).max(axis=1))[1]
    q = np.rint(np.ldexp(v, shift[:, None])).ravel()
    inner = np.arange(m * n).reshape(m, n)[:, 1:-1]  # flat positions of the interior nodes
    if alive is None:
        live = np.arange(m * n)  # every node starts alive
    else:
        a, c = alive.a, alive.c
        qa = q.take(a)
        above = (q.reshape(m, n)[:, 1:-1] - qa) * (c - a) > (q.take(c) - qa) * (inner - a)
        del qa  # not held through the pruning rounds: it raised peak memory
        live = None  # unless round one changes a node, the record is the hull's
        if not np.array_equal(above, alive.alive[:, 1:-1]):
            keep = np.ones((m, n), dtype=bool)
            keep[:, 1:-1] = above
            live = np.flatnonzero(keep)
    if live is not None:
        node = live % n
        end = (node == 0) | (node == n - 1)
        pos, ql = live.astype(float), q[live]
        while True:
            # b is kept while (q_b - q_a)(c - b) > (q_c - q_b)(b - a): the pop
            # test with (b - a)(q_b - q_a) taken from both sides
            dp, dq = pos[1:] - pos[:-1], ql[1:] - ql[:-1]
            keep = end.copy()
            keep[1:-1] |= dq[:-1] * dp[1:] > dq[1:] * dp[:-1]
            if keep.all():
                break
            pos, ql, end = pos[keep], ql[keep], end[keep]
        alive = _neighbours(pos.astype(np.intp), (m, n))
    mask, a, c = alive
    w = (inner - a) / (c - a)
    flat = v.ravel()
    chord = flat.take(a)
    chord *= 1.0 - w
    w *= flat.take(c)
    chord += w
    env = v.copy()
    env[:, 1:-1] = np.maximum(np.where(mask[:, 1:-1], v[:, 1:-1], chord), v[:, 1:-1])
    return env, alive


def _concave_envelope(chart: np.ndarray, v: np.ndarray, alive: _Hull | None = None):
    """:func:`concave_envelope` of the slices in the rows of ``v``, with a carried record.

    Returns ``(envelope, record)``.  Only one chart coordinate reads the
    record (see :func:`_upper_hull_rows`).  With no chart coordinate every
    node is a vertex, and a given record is returned as it is; charts of
    two or more coordinates are always computed cold and return ``None``.
    """
    if chart.shape[1] == 0:
        return v.copy(), _hull_record(np.ones(v.shape, dtype=bool)) if alive is None else alive
    if chart.shape[1] == 1:
        return _upper_hull_rows(np.ascontiguousarray(v, dtype=float), alive)
    return np.array([_qhull_envelope(chart, row) for row in v]).reshape(v.shape), None


def _qhull_envelope(chart: np.ndarray, v: np.ndarray) -> np.ndarray:
    from scipy.spatial import ConvexHull
    from scipy.spatial._qhull import QhullError

    pts = np.column_stack([chart, v])
    try:
        hull = ConvexHull(pts)
    except QhullError:
        try:
            hull = ConvexHull(pts, qhull_options="QJ")
        except QhullError:
            return v.copy()  # degenerate slice: already affine
    eqs = hull.equations  # rows [normal..., offset], normal @ x + offset <= 0
    top = eqs[eqs[:, -2] > 1e-12]
    if top.size == 0:
        return v.copy()
    # plane value: w = -(offset + n_chart @ x) / n_value, envelope = min over planes
    vals = -(top[:, -1][None, :] + chart @ top[:, :-2].T) / top[:, -2][None, :]
    return np.maximum(vals.min(axis=1), v)


def concave_envelope(chart: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Upper concave envelope over ``chart`` of a slice or of every column of ``v``.

    ``chart`` has one row per node; ``v`` is a slice of node values or a
    2-d array whose columns are slices, and every value must be finite.
    One chart coordinate uses the pruning kernel on all columns in one
    call, and its nodes must be strictly increasing and equally spaced (to
    a relative 1e-9); more use qhull per column.
    """
    v = np.asarray(v, dtype=float)
    if chart.shape[1] == 1:
        h = np.diff(chart[:, 0])
        if v.shape[:1] != chart.shape[:1] or not (
                h.size == 0 or (h.min() > 0 and h.max() - h.min() <= 1e-9 * h.min())):
            raise InputError("a one-coordinate chart needs one strictly increasing, "
                             "equally spaced node per row of v")
    if not np.isfinite(v).all():
        raise InputError("an envelope needs finite values")
    rows = v.reshape(v.shape[0], math.prod(v.shape[1:])).T  # one slice per row
    return _concave_envelope(chart, rows)[0].T.reshape(v.shape)


def convex_envelope(chart: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lower convex envelope: the mirror image ``-concave_envelope(chart, -v)``."""
    return -concave_envelope(chart, -np.asarray(v, dtype=float))


@dataclass
class ValueGrid:
    """A saddle-function candidate sampled on a product of simplex grids."""

    p_grid: SimplexGrid
    q_grid: SimplexGrid
    values: np.ndarray
    spec: GameSpec | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.p_grid.n_nodes, self.q_grid.n_nodes):
            raise InputError(
                f"value array shape {self.values.shape} does not match grids "
                f"({self.p_grid.n_nodes}, {self.q_grid.n_nodes})"
            )

    def with_values(self, values: np.ndarray) -> "ValueGrid":
        return ValueGrid(self.p_grid, self.q_grid, values, self.spec, dict(self.metadata))

    @classmethod
    def from_function(cls, spec: GameSpec, fn, N_p: int, N_q: int) -> "ValueGrid":
        pg = SimplexGrid(spec.K, N_p)
        qg = SimplexGrid(spec.L, N_q)
        vals = np.empty((pg.n_nodes, qg.n_nodes))
        for i, p in enumerate(pg.nodes):
            for j, q in enumerate(qg.nodes):
                vals[i, j] = fn(p, q)
        return cls(pg, qg, vals, spec)

    def value_at(self, p, q) -> float:
        """The interpolated value at beliefs ``(p, q)`` of the two sides, read over p, then q.

        Each belief must be a simplex point (:func:`as_simplex`) with its side's number of states.
        """
        row = self.p_grid.interpolate(as_simplex(p), self.values)
        return float(self.q_grid.interpolate(as_simplex(q), row[0])[0])


def payoff_grids(spec: GameSpec, p_grid: SimplexGrid, q_grid: SimplexGrid):
    """The two obstacles evaluated at every node pair (H, F)."""
    H = p_grid.nodes @ spec.h @ q_grid.nodes.T
    F = p_grid.nodes @ spec.f @ q_grid.nodes.T
    return H, F


def write_value_csv(grid: ValueGrid, path) -> None:
    """Export as ``p,q,value`` rows (two-state charts only), 17 significant digits.

    Metadata goes to a JSON sidecar at ``<path>.meta.json``.
    """
    if grid.p_grid.dim > 2 or grid.q_grid.dim > 2:
        raise InputError("CSV export is defined for scalar charts (state sets of size <= 2)")
    path = Path(path)
    qs = [f",{q:.17g}," for q in grid.q_grid.nodes[:, 0].tolist()]
    with path.open("w") as out:  # row by row: the file is never one string
        out.write("p,q,value\n")
        for p, row in zip(grid.p_grid.nodes[:, 0].tolist(), grid.values.tolist()):
            ps = f"{p:.17g}"
            out.write("".join([f"{ps}{q}{value:.17g}\n" for q, value in zip(qs, row)]))
    sidecar = path.with_name(path.name + ".meta.json")
    sidecar.write_text(json.dumps(grid.metadata, indent=2, sort_keys=True, default=float) + "\n")


def read_value_csv(path):
    """Inverse of :func:`write_value_csv`; returns ``(p_chart, q_chart, values)``.

    Every field must be a finite number; the rows are parsed into one
    array by ``np.loadtxt``, with no per-row Python objects.
    """
    path = Path(path)
    with path.open() as fh, warnings.catch_warnings():
        if fh.readline().strip() != "p,q,value":
            raise InputError(f"{path} is not a value-grid CSV")
        warnings.simplefilter("ignore")  # loadtxt warns of no rows: the shape test below
        try:  # a non-numeric field, or rows of unequal length, is a ValueError
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = np.empty(0)
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] != 3:
        raise InputError(f"{path} needs one or more rows of three numbers")
    if not np.isfinite(data).all():
        raise InputError(f"{path} has a value that is not a finite number")
    p_chart = np.unique(data[:, 0])
    q_chart = np.unique(data[:, 1])
    if data.shape[0] != p_chart.size * q_chart.size:
        raise InputError("CSV rows do not form a full grid")
    values = np.full((p_chart.size, q_chart.size), np.nan)
    pi = np.searchsorted(p_chart, data[:, 0])
    qi = np.searchsorted(q_chart, data[:, 1])
    values[pi, qi] = data[:, 2]
    if np.any(np.isnan(values)):
        raise InputError("CSV rows do not form a full grid")
    return p_chart, q_chart, values
