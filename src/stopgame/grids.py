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
``solve`` carries each side's hull record (the vertex mask with every
node's neighbouring vertices) from one sweep to the next.  Round one
tests every node against the chord of its recorded neighbours, with no
neighbour search; when that confirms the mask, the call only
interpolates chords and returns the same record.  That happens on 216 of
260 carried calls on e2 401x1, 284 of 432 on the moving-chain game at
41x41 and none of 114 on e1 101x101, whose masks move every sweep.  A
fall-back revives the nodes above their recorded chords, then prunes,
searching after each round only the columns that round changed (a median
of 4 searches over 1.8 times the columns on e1, and of 3 over 0.6 times
them on the moving game): about five times the cost of a confirmed call.
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
from .model import GameSpec, as_simplex

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
            x = np.clip(pts[:, 0], 0.0, 1.0)
            pos = x * self.resolution
            lo = np.minimum(np.floor(pos).astype(np.int64), self.resolution - 1)
            w_hi = pos - lo
            idx = np.column_stack([lo, lo + 1])
            w = np.column_stack([1.0 - w_hi, w_hi])
            return idx, w
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
        point with another number of states is an :class:`InputError`.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InputError(f"a point of a {self.dim}-state grid needs {self.dim} "
                             f"coordinates, got shape {np.shape(points)}")
        idx, w = self.interp_weights(pts[:, : self.dim - 1])
        shape = (-1,) + (1,) * (values.ndim - 1)  # one weight per row of values
        out = np.zeros((idx.shape[0],) + values.shape[1:])
        for a in range(idx.shape[1]):
            out += w[:, a].reshape(shape) * values[idx[:, a]]
        return out


class _Hull(NamedTuple):
    """A vertex mask carried from one envelope call to the next.

    ``alive`` is the ``(n, m)`` mask, end rows always set; ``a`` and ``c``
    hold each interior row's previous and next alive row, ``(n - 2, m)``.
    """

    alive: np.ndarray
    a: np.ndarray
    c: np.ndarray


def _rows(n: int, m: int) -> np.ndarray:
    """Row numbers as a column, in int32 while every flat index ``row * m + col`` fits."""
    return np.arange(n, dtype=np.int32 if n * m < 2**31 else np.int64)[:, None]


def _neighbours(alive: np.ndarray, rows: np.ndarray):
    """Each interior row's previous and next alive row, per column of ``alive``."""
    n = alive.shape[0]
    a = np.maximum.accumulate(np.where(alive[:-2], rows[:-2], 0), axis=0)
    c = np.minimum.accumulate(np.where(alive[:1:-1], rows[:1:-1], n - 1), axis=0)[::-1]
    return a, c


def _hull_record(alive) -> _Hull:
    """The record of a vertex mask, such as one from a nearby slice; its end rows are set."""
    alive = np.array(alive, dtype=bool)
    alive[:1] = alive[-1:] = True
    return _Hull(alive, *_neighbours(alive, _rows(*alive.shape)))


def _upper_hull_columns(v: np.ndarray, alive: _Hull | None = None):
    """Least concave majorant of every column of ``v`` over equally spaced nodes.

    The nodes are rows ``0 .. n-1``.  Each column is put on a dyadic
    integer grid, ``q = rint(v * 2^(52 - bitlen(n-1) - e))`` with
    ``2^(e-1) <= max|v| < 2^e``, so ``|q| <= 2^(52 - bitlen(n-1))`` and
    every product of the pop test ``(q_b - q_a)(c - a) <= (q_c - q_a)(b - a)``
    is an integer below 2^53: the test is exact, and the vertex set is the
    unique one of the quantized points.  A node is dropped at most one
    quantum, ``2^(e - 52 + bitlen(n-1))``, above its chord.

    Round-wise pruning: each round tests every interior node ``b`` of a
    column against the chord ``a -> c`` of its alive neighbours.
    ``alive`` is a carried :class:`_Hull` record, such as the one returned
    for a nearby ``v`` or :func:`_hull_record` of a mask; without one
    every node starts alive.  Round one reads the record's neighbours and
    sets each interior node alive if and only if it lies above the chord
    of its recorded neighbours, which keeps every hull vertex (a vertex
    lies above any chord across it).  If that changes no node, the record
    is the hull's and is returned as it is.  Otherwise the record is
    copied, and each round searches the neighbours of the columns it
    changed into the copy, which so stays every column's record; later
    rounds only drop nodes on or below their chord, which are never
    vertices.  Once a round changes nothing in a column its alive chain is
    strictly concave, hence the hull, so each round after the first works
    on the columns that changed in the round before: on a view while that
    is every column and on a gathered copy otherwise.  A concave run ending
    in a spike drops one node per round, so the worst case is ``n - 2``
    rounds of O(n m).  Between vertices the envelope is the chord
    ``(1 - w) v_a + w v_c`` of the original values, ``w = (b - a)/(c - a)``.
    Returns ``(envelope, record)``, the record of the hull vertices.
    """
    n, m = v.shape
    record = _hull_record(np.ones((n, m), dtype=bool)) if alive is None else alive
    if n < 3 or m == 0:
        return v.copy(), record
    shift = 52 - (n - 1).bit_length() - np.frexp(np.abs(v).max(axis=0))[1]
    q = np.rint(np.ldexp(v, shift))
    flat, qflat = v.ravel(), q.ravel()
    rows, cols = _rows(n, m), np.arange(m)
    alive, a, c = record
    # the columns a round tests (a view while all are changing, else their
    # indices) and their neighbours
    act, idx, first, ta, tc = slice(None), cols, True, a, c
    while True:
        ia, ic, span, off = ta * m + idx, tc * m + idx, tc - ta, rows[1:-1] - ta
        # the exact pop test: b stays only while strictly above the chord a -> c
        qa = qflat.take(ia)
        above = (q[1:-1, act] - qa) * span > (qflat.take(ic) - qa) * off
        del qa  # not held through the next neighbour search: it raised peak memory
        mid = alive[1:-1, act]
        keep = above if first else mid & above
        changed = (keep != mid).any(axis=0)
        if not changed.any():
            break
        if first:  # the given record is never written to
            alive, a, c, first = alive.copy(), a.copy(), c.copy(), False
        alive[1:-1, act] = keep
        if not changed.all():
            act = idx = idx[changed]
        a[:, act], c[:, act] = ta, tc = _neighbours(alive[:, act], rows)
    if not isinstance(act, slice):  # the last round tested some columns: chords need all
        ia, ic, span, off = a * m + cols, c * m + cols, c - a, rows[1:-1] - a
    w = off / span
    chord = flat.take(ia)
    chord *= 1.0 - w
    w *= flat.take(ic)
    chord += w
    env = v.copy()
    env[1:-1] = np.maximum(np.where(alive[1:-1], v[1:-1], chord), v[1:-1])
    return env, record if first else _Hull(alive, a, c)


def _concave_envelope(chart: np.ndarray, v: np.ndarray, alive: _Hull | None = None):
    """:func:`concave_envelope` with a carried record; returns ``(envelope, record)``.

    Only one chart coordinate reads the record (see :func:`_upper_hull_columns`).
    With no chart coordinate every node is a vertex, and a given record
    is returned as it is; charts of two or more coordinates are always
    computed cold and return ``None``.
    """
    v = np.asarray(v, dtype=float)
    if chart.shape[1] == 0:
        if alive is None:
            alive = _hull_record(np.ones((v.shape[0], math.prod(v.shape[1:])), dtype=bool))
        return v.copy(), alive
    if chart.shape[1] == 1:
        env, alive = _upper_hull_columns(np.ascontiguousarray(v.reshape(v.shape[0], -1)), alive)
        return env.reshape(v.shape), alive
    if v.ndim == 2:
        return np.column_stack([_qhull_envelope(chart, col) for col in v.T]), None
    return _qhull_envelope(chart, v), None


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
    2-d array whose columns are slices.  One chart coordinate uses the
    pruning kernel on all columns in one call, and its nodes must be
    strictly increasing and equally spaced (to a relative 1e-9); more use
    qhull per column.
    """
    if chart.shape[1] == 1:
        h = np.diff(chart[:, 0])
        if np.shape(v)[:1] != chart.shape[:1] or not (
                h.size == 0 or (h.min() > 0 and h.max() - h.min() <= 1e-9 * h.min())):
            raise InputError("a one-coordinate chart needs one strictly increasing, "
                             "equally spaced node per row of v")
    return _concave_envelope(chart, v)[0]


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
