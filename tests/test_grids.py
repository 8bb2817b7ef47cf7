import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stopgame.examples as ex
from stopgame.conjugate import concave_conjugate_p, convex_conjugate_q, subgradient_q
from stopgame.errors import InputError
from stopgame.grids import (SimplexGrid, ValueGrid, _hull_record, _upper_hull_rows,
                            concave_envelope, convex_envelope, read_value_csv,
                            write_value_csv)
from stopgame.solver import cav_p, directional_derivative, vex_q


def monotone_chain_envelope(x, vals):
    """Reference: per-column monotone-chain upper hull, then chord interpolation."""
    n, m = vals.shape
    out = np.empty((n, m))
    for j in range(m):
        hull = []
        for i in range(n):
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                # drop b when it lies on or below the chord a -> i
                if (vals[b, j] - vals[a, j]) * (x[i] - x[a]) <= (vals[i, j] - vals[a, j]) * (x[b] - x[a]):
                    hull.pop()
                else:
                    break
            hull.append(i)
        seg = 0
        for i in range(n):
            while seg < len(hull) - 1 and x[hull[seg + 1]] < x[i]:
                seg += 1
            a = hull[seg]
            b = hull[seg + 1] if seg + 1 < len(hull) else a
            if b == a:
                env = vals[a, j]
            else:
                w = (x[i] - x[a]) / (x[b] - x[a])
                env = (1.0 - w) * vals[a, j] + w * vals[b, j]
            out[i, j] = max(env, vals[i, j])
    return out


def _upper(x, v):
    return concave_envelope(np.asarray(x, dtype=float)[:, None], v)


def _lower(x, v):
    return convex_envelope(np.asarray(x, dtype=float)[:, None], v)


@pytest.mark.parametrize("dim,N", [(1, 5), (2, 10), (3, 7), (4, 4)])
def test_node_count(dim, N):
    grid = SimplexGrid(dim, N)
    assert grid.n_nodes == math.comb(N + dim - 1, dim - 1)
    np.testing.assert_allclose(grid.nodes.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(grid.nodes >= 0)


def test_envelope_vee_chord():
    x = np.linspace(0.0, 1.0, 21)
    env = _upper(x, np.abs(x - 0.5))
    np.testing.assert_allclose(env, 0.5, atol=1e-15)
    env = _lower(x, -np.abs(x - 0.5))
    np.testing.assert_allclose(env, -0.5, atol=1e-15)


def test_envelope_idempotent_on_concave():
    x = np.linspace(0.0, 1.0, 33)
    v = -(x - 0.3) ** 2
    np.testing.assert_allclose(_upper(x, v), v, atol=1e-15)


def test_envelope_properties_random():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 41)
    for _ in range(20):
        v = rng.normal(size=x.size)
        env = _upper(x, v)
        assert np.all(env >= v - 1e-12)
        second = env[:-2] + env[2:] - 2.0 * env[1:-1]
        assert np.all(second <= 1e-9)  # concave
        # idempotent and monotone
        np.testing.assert_allclose(_upper(x, env), env, atol=1e-9)
        w = v + rng.uniform(0.0, 1.0, size=x.size)
        assert np.all(_upper(x, w) >= env - 1e-12)


def test_envelope_columns_match_slices():
    rng = np.random.default_rng(8)
    x = np.linspace(0.0, 1.0, 17)
    v = rng.normal(size=(17, 5))
    cols = _upper(x, v)
    for j in range(5):
        np.testing.assert_array_equal(cols[:, j], _upper(x, v[:, j]))
    np.testing.assert_array_equal(_lower(x, v), -_upper(x, -v))
    np.testing.assert_array_equal(concave_envelope(np.zeros((17, 0)), v), v)
    assert _upper(x, v[:, :0]).shape == (17, 0)  # no columns: returns, does not loop


_KINDS = ("random", "integer", "collinear", "vee", "spike")


@st.composite
def _envelope_case(draw, max_cols=8):
    kind = draw(st.sampled_from(_KINDS))
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, max_cols))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "random":
        x = np.linspace(0.0, 1.0, n)
        return kind, x, rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, m))
    x = np.arange(n, dtype=float)  # exact arithmetic below
    if kind == "integer":
        v = rng.integers(-4, 5, (n, m))
    elif kind == "collinear":
        slope, icpt = rng.integers(-3, 4, m), rng.integers(-9, 10, m)
        v = slope * x[:, None] + icpt - rng.integers(0, 2, (n, m)) * rng.integers(0, 3, (n, m))
    elif kind == "vee":
        tip = rng.integers(0, n, m)
        v = -np.abs(np.arange(n)[:, None] - tip) * rng.integers(-2, 3, m)
    else:  # concave run ending in a spike: one node per pruning round
        v = -((np.arange(n)[:, None] - rng.integers(0, n, m)) ** 2)
        v[-1] = 10 * n * n
    return kind, x, np.asarray(v, dtype=float)


@settings(max_examples=300, deadline=None)
@given(_envelope_case())
def test_envelope_matches_monotone_chain(case):
    kind, x, v = case
    ref = monotone_chain_envelope(x, v)
    got = _upper(x, v)
    if kind == "random":
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * (1 + np.abs(v).max()))
    else:
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(_lower(x, -v), -got)


def _hint(kind, cold_mask, seed):
    if kind == "random":
        return np.random.default_rng(seed).random(cold_mask.shape) < 0.5
    if kind == "none":
        return np.zeros_like(cold_mask)
    if kind == "all":
        return np.ones_like(cold_mask)
    return cold_mask


def _kernel(v, record=None):
    """The kernel on the columns of ``v``: ``(envelope, record)``, the envelope in columns."""
    env, record = _upper_hull_rows(np.ascontiguousarray(v.T), record)
    return env.T, record


def _hull(v, hint=None):
    """``(envelope, vertex mask, record)`` of the kernel on the columns of ``v``, hinted by a
    mask; the mask is in columns, the record in rows, as the kernel keeps it."""
    env, record = _kernel(v, None if hint is None else _hull_record(hint.T))
    return env, record.alive.T, record


@settings(max_examples=300, deadline=None)
@given(_envelope_case(), st.sampled_from(("random", "none", "all", "cold")),
       st.integers(0, 2**32 - 1))
def test_hinted_envelope_matches_cold(case, hint_kind, seed):
    # a vertex-mask hint changes the pruning path, never the hull
    kind, x, v = case
    cold, mask, _ = _hull(v)
    hinted, alive, _ = _hull(v, _hint(hint_kind, mask, seed))
    np.testing.assert_array_equal(hinted, cold)
    np.testing.assert_array_equal(alive, mask)
    if kind == "collinear":
        # the same runs in inexact floats: the pop test is exact on the
        # quantized values, so near-ties fall the same way in any order
        vf = v / 3.0
        cold, mask, _ = _hull(vf)
        hinted, alive, _ = _hull(vf, _hint(hint_kind, mask, seed))
        np.testing.assert_array_equal(hinted, cold)
        np.testing.assert_array_equal(alive, mask)


@settings(max_examples=300, deadline=None)
@given(_envelope_case(), st.integers(0, 2**32 - 1))
def test_carried_record_matches_cold(case, seed):
    # a carried record changes the work, never the hull: it is returned as
    # it is exactly when its mask is the hull's, and otherwise replaced
    kind, x, v = case
    n, m = v.shape
    rng = np.random.default_rng(seed)
    cold, mask, own = _hull(v)
    # nearby: the same columns plus an affine function, whose vertex sets
    # are the same in exact arithmetic; unrelated: another draw of the case
    near = v + rng.integers(-3, 4, m) + rng.integers(-3, 4, m) * x[:, None]
    # mixed: the hull's mask in some columns and a random one in the others,
    # so round one confirms those and the compact rounds drop nodes of the rest
    moved = rng.random(m) < 0.5
    records = {"own": own, "near": _kernel(near)[1],
               "unrelated": _kernel(rng.normal(size=(n, m)))[1],
               "random mask": _hull_record((rng.random((n, m)) < 0.5).T),
               "mixed": _hull_record(np.where(moved, rng.random((n, m)) < 0.5, mask).T)}
    for name, record in records.items():
        given = [part.copy() for part in record]
        env, out = _kernel(v, record)
        np.testing.assert_array_equal(env, cold)
        np.testing.assert_array_equal(out.alive.T, mask)
        for part, before in zip(record, given):  # never written to
            np.testing.assert_array_equal(part, before)
        assert (out is record) == np.array_equal(given[0].T, mask), name
        # every slice's neighbours are current, also those round one confirmed
        fresh = _hull_record(out.alive)
        np.testing.assert_array_equal(out.a, fresh.a)
        np.testing.assert_array_equal(out.c, fresh.c)
    assert _kernel(v, own)[1] is own
    if kind != "random":  # integer values: the affine shift keeps every vertex
        assert _kernel(v, records["near"])[1] is records["near"]


@settings(max_examples=200, deadline=None)
@given(_envelope_case(max_cols=64), st.integers(0, 2**32 - 1))
def test_batched_envelope_matches_column_by_column(case, seed):
    # columns never interact: which columns a pruning round touches changes
    # the work, never a column's envelope or vertex mask
    kind, x, v = case
    n, m = v.shape
    rng = np.random.default_rng(seed)
    cold_env, cold, _ = _hull(v)
    hint = np.column_stack([
        (cold[:, j], rng.random(n) < 0.5, np.zeros(n, bool), np.ones(n, bool))[rng.integers(4)]
        for j in range(m)])
    env, alive, _ = _hull(v, hint)
    for j in range(m):
        one_env, one, _ = _hull(v[:, [j]])
        np.testing.assert_array_equal(cold_env[:, [j]], one_env)
        np.testing.assert_array_equal(cold[:, [j]], one)
        one_env, one, _ = _hull(v[:, [j]], hint[:, [j]])
        np.testing.assert_array_equal(env[:, [j]], one_env)
        np.testing.assert_array_equal(alive[:, [j]], one)


def test_batched_envelope_revives_hinted_dead_node():
    # Columns 0, 2 and 4 settle in the first round (concave under their
    # own vertex masks, a line with only its ends hinted), so the compact
    # rounds drop nodes of columns 1 and 3 only.  Column 1 is a concave
    # run ending in a spike: one drop per round for n - 2 rounds.  Column
    # 3 is hinted with its peak, node 5, dead: node 5 lies above the chord
    # of its hinted neighbours, so round one revives it, and the first
    # compact round drops nodes 4 and 6, which lie above the chords across
    # a dead node 5 but below those to it.
    n = 10
    x = np.arange(n, dtype=float)
    i = np.arange(n)
    spike = -(i - 3.0) ** 2
    spike[-1] = 10.0 * n * n
    concave = -(i - 6.0) ** 2
    peak = np.array([0.0, 5.0, 9.0, 12.0, 13.0, 15.0, 13.0, 12.0, 9.0, 5.0])
    v = np.column_stack([concave, spike, 2.0 * i - 5.0, peak, concave[::-1]])
    cold_env, cold, _ = _hull(v)
    hint = cold.copy()
    hint[:, 1] = True
    hint[:, 2] = False
    hint[:, 3] = True
    hint[5, 3] = False
    env, alive, _ = _hull(v, hint)
    np.testing.assert_array_equal(env, cold_env)
    np.testing.assert_array_equal(alive, cold)
    np.testing.assert_array_equal(env, monotone_chain_envelope(x, v))
    for j in range(v.shape[1]):
        one_env, one, _ = _hull(v[:, [j]], hint[:, [j]])
        np.testing.assert_array_equal(env[:, [j]], one_env)
        np.testing.assert_array_equal(alive[:, [j]], one)
    assert alive[5, 3] and not alive[[4, 6], 3].any()
    assert alive[1:-1, 1:3].sum() == 0


def test_spike_slice_beside_confirmed_slices():
    # A worst-case slice, a concave run ending in a spike, drops one node
    # per compact round: n - 3 rounds after round one, in a block whose
    # other slices round one confirms.  Their vertices ride through every
    # round on the list and must come out as they went in.
    n = 200
    x = np.arange(n, dtype=float)
    i = np.arange(n)
    spike = -(i - 40.0) ** 2
    spike[-1] = 10.0 * n * n
    v = np.column_stack([-(i - 60.0) ** 2, spike, np.sqrt(i + 1.0), -np.abs(i - 120.0),
                         spike[::-1]])
    cold_env, cold, _ = _hull(v)
    np.testing.assert_array_equal(cold_env, monotone_chain_envelope(x, v))
    assert cold[1:-1, 1].sum() == 0 and cold[1:-1, [0, 2]].all()
    hint = cold.copy()
    hint[:, 1] = True  # every node of the spike slice alive
    given = _hull_record(hint.T)
    env, record = _kernel(v, given)
    np.testing.assert_array_equal(env, cold_env)
    np.testing.assert_array_equal(record.alive.T, cold)
    fresh = _hull_record(record.alive)
    np.testing.assert_array_equal(record.a, fresh.a)
    np.testing.assert_array_equal(record.c, fresh.c)
    assert record is not given and _kernel(v, record)[1] is record


def _exact_vertex_mask(v):
    """The monotone chain in Python integers on the kernel's quantized values."""
    n, m = v.shape
    shift = 52 - (n - 1).bit_length() - np.frexp(np.abs(v).max(axis=0))[1]
    q = np.rint(np.ldexp(v, shift))
    mask = np.zeros((n, m), dtype=bool)
    for j in range(m):
        col = [int(t) for t in q[:, j]]
        hull = []
        for i, qi in enumerate(col):
            while len(hull) >= 2 and ((col[hull[-1]] - col[hull[-2]]) * (i - hull[-2])
                                      <= (qi - col[hull[-2]]) * (hull[-1] - hull[-2])):
                hull.pop()
            hull.append(i)
        mask[hull, j] = True
    return mask


@st.composite
def _quantized_case(draw):
    n = draw(st.one_of(st.integers(1, 40), st.integers(41, 2049), st.just(2049)))
    m = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-300, 300))
    kind = draw(st.sampled_from(("random", "near-collinear", "mixed")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.linspace(0.0, 1.0, n)[:, None]
    if kind == "random":
        v = rng.normal(size=(n, m))
    elif kind == "near-collinear":  # lines with noise near the quantum
        v = rng.normal(size=m) * x + rng.normal(size=m)
        v += rng.normal(size=(n, m)) * 10.0 ** rng.integers(-17, -11, m)
    else:  # magnitudes spread over 20 decades: most round to a few quanta
        v = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-20, 1, (n, m))
    hint = rng.random((n, m)) < draw(st.sampled_from((0.0, 0.5, 1.0)))
    return v * scale, hint


@settings(max_examples=150, deadline=None)
@given(_quantized_case())
def test_envelope_vertex_mask_is_exact(case):
    # the float pop test is exact: cold and hinted masks equal the monotone
    # chain run in Python integers on the same quantized values
    v, hint = case
    exact = _exact_vertex_mask(v)
    env, alive, _ = _hull(v)
    np.testing.assert_array_equal(alive, exact)
    hinted_env, hinted, _ = _hull(v, hint)
    np.testing.assert_array_equal(hinted_env, env)
    np.testing.assert_array_equal(hinted, alive)
    assert np.all(env >= v)


def test_envelope_rejects_bad_chart():
    v = np.array([0.0, 1.0, 0.0, 0.0])
    for chart in ([0.0, 0.5, 0.2, 1.0], [0.0, 0.5, 1.0], [0.0, 0.1, 0.2, 1.0],
                  [1.0, 2 / 3, 1 / 3, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, math.nan, 2 / 3, 1.0]):
        for envelope in (concave_envelope, convex_envelope):
            with pytest.raises(InputError):
                envelope(np.array(chart)[:, None], v)
    with pytest.raises(InputError):
        concave_envelope(np.linspace(0.0, 1.0, 5)[:, None], np.zeros((4, 3)))
    # a spacing that is equal to within a relative 1e-9 passes
    chart = np.linspace(0.0, 1.0, 4)[:, None] * (1.0 + np.array([0.0, 1e-11, -1e-11, 0.0]))[:, None]
    np.testing.assert_array_equal(_upper(chart[:, 0], v), [0.0, 1.0, 0.5, 0.0])


@pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
def test_envelopes_reject_non_finite_values(bad, e1_spec):
    # a -inf node used to drag its neighbours' chords down (0.667 for 1 at
    # the middle node below); only the public entries check, the kernel is
    # left to the solve's own per-sweep check
    chart = SimplexGrid(2, 4).chart
    v = np.array([0.0, 1.0, bad, 1.0, 0.0])
    grid = ValueGrid.from_function(e1_spec, lambda p, q: 0.0, 4, 4)
    grid.values[2, 3] = bad
    for call in (lambda: concave_envelope(chart, v), lambda: convex_envelope(chart, v),
                 lambda: concave_envelope(chart, np.column_stack([v, -v])),
                 lambda: concave_envelope(SimplexGrid(3, 2).chart, np.r_[v, 0.0]),
                 lambda: cav_p(grid), lambda: vex_q(grid)):
        with pytest.raises(InputError, match="finite"):
            call()


def test_hinted_envelope_nan_columns_terminate():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 41)
    v = rng.normal(size=(41, 5))
    cold, mask, _ = _hull(v)
    dead, alive = np.flatnonzero(~mask[1:-1, 1]) + 1, np.flatnonzero(mask[1:-1, 3]) + 1
    assert dead.size and alive.size
    v[dead[0], 1] = v[alive[0], 3] = math.nan
    hinted, _, _ = _hull(v, mask)
    keep = [0, 2, 4]
    np.testing.assert_array_equal(hinted[:, keep], cold[:, keep])
    assert np.isnan(hinted[:, 1]).any() and np.isnan(hinted[:, 3]).any()


def test_envelope_three_state_slice():
    # dented affine function on the 3-simplex: envelope restores the plane
    grid = SimplexGrid(3, 12)
    plane = grid.nodes @ np.array([1.0, 2.0, 0.5])
    dent = plane.copy()
    interior = np.all(grid.nodes > 0.2, axis=1)
    dent[interior] -= 0.3
    env = concave_envelope(grid.chart, dent)
    np.testing.assert_allclose(env, plane, atol=1e-9)
    np.testing.assert_allclose(convex_envelope(grid.chart, -dent), -plane, atol=1e-9)


def test_interpolation_exact_for_bilinear(e1_spec):
    M = e1_spec.f
    grid = ValueGrid.from_function(
        e1_spec, lambda p, q: float(p @ M @ q), 20, 20)
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet([1, 1])
        q = rng.dirichlet([1, 1])
        assert grid.value_at(p, q) == pytest.approx(float(p @ M @ q), abs=1e-12)


def test_interpolation_three_state_affine(e2_spec):
    import stopgame.model as model

    spec3 = model.GameSpec(
        R=np.zeros((3, 3)), Q=np.zeros((1, 1)), r=1.0,
        f=[[2.0], [1.5], [3.0]], h=[[1.0], [0.5], [2.0]],
        p0=[1 / 3, 1 / 3, 1 / 3], q0=[1.0])
    c = np.array([0.3, -1.2, 0.8])
    grid = ValueGrid.from_function(spec3, lambda p, q: float(p @ c), 8, 1)
    rng = np.random.default_rng(1)
    for _ in range(30):
        p = rng.dirichlet([1, 1, 1])
        assert grid.value_at(p, [1.0]) == pytest.approx(float(p @ c), abs=1e-10)


THREE, HALF, OFF, DUAL = [0.2, 0.3, 0.5], [0.5, 0.5], [1.5, -0.5], [0.5, 0.0]

# every reader of a value grid between its nodes, with one bad belief: on e1
# each of these returned a number, a zero direction returned 0.0 unchecked,
# interpolate at a non-finite point raised a bare IndexError, and off the
# simplex it read a clipped value
BAD_READS = {
    "value_at-p-states": lambda g: g.value_at(THREE, HALF),
    "value_at-q-states": lambda g: g.value_at(HALF, [1.0]),
    "value_at-p-off": lambda g: g.value_at(OFF, HALF),
    "value_at-q-off": lambda g: g.value_at(HALF, OFF),
    "concave_conjugate_p-q-states": lambda g: concave_conjugate_p(g, DUAL, THREE),
    "convex_conjugate_q-p-states": lambda g: convex_conjugate_q(g, THREE, DUAL),
    "subgradient_q-p-states": lambda g: subgradient_q(g, THREE, HALF),
    "subgradient_q-q-states": lambda g: subgradient_q(g, HALF, THREE),
    "directional_derivative-p-states":
        lambda g: directional_derivative(g, (THREE, HALF), None, None),
    "directional_derivative-q-states":
        lambda g: directional_derivative(g, (HALF, THREE), None, None),
    "directional_derivative-p-off": lambda g: directional_derivative(g, (OFF, HALF), None, None),
    "directional_derivative-q-off": lambda g: directional_derivative(g, (HALF, OFF), None, None),
    "interpolate-nan": lambda g: g.p_grid.interpolate([math.nan, 0.5], g.values),
    "interpolate-inf": lambda g: g.q_grid.interpolate([[0.5, 0.5], [math.inf, 0.0]], g.values.T),
    "interpolate-off": lambda g: g.p_grid.interpolate(OFF, g.values),
    "interpolate-mass": lambda g: g.q_grid.interpolate([[0.5, 0.5], [0.25, 0.25]], g.values.T),
}


@pytest.mark.parametrize("read", BAD_READS.values(), ids=BAD_READS)
def test_grid_readers_check_their_beliefs(read, e1_spec):
    grid = ValueGrid.from_function(
        e1_spec, lambda p, q: ex.e1_value(float(p[0]), float(q[0])), 10, 10)
    with pytest.raises(InputError):
        read(grid)


def test_interpolate_reads_rows_at_points():
    # node values come back at the nodes, for one point or many, and for
    # rows of any shape; a point with another number of states is refused
    grid = SimplexGrid(2, 4)
    values = np.arange(10.0).reshape(5, 2)
    np.testing.assert_array_equal(grid.interpolate(grid.nodes, values), values)
    np.testing.assert_array_equal(grid.interpolate([0.375, 0.625], values[:, 0]), [3.0])
    np.testing.assert_array_equal(grid.interpolate(HALF, values), [[4.0, 5.0]])
    for bad in (THREE, [1.0], [[0.5, 0.5, 0.0]]):
        with pytest.raises(InputError, match="2-state grid"):
            grid.interpolate(bad, values)


def test_value_csv_roundtrip(tmp_path, e1_spec):
    grid = ValueGrid.from_function(
        e1_spec, lambda p, q: float(p @ e1_spec.h @ q), 7, 5)
    grid.metadata.update(iterations=3, residual=1e-9, delta=0.25)
    path = tmp_path / "v.csv"
    write_value_csv(grid, path)
    p_chart, q_chart, values = read_value_csv(path)
    np.testing.assert_array_equal(values, grid.values)  # bit-exact
    np.testing.assert_array_equal(p_chart, grid.p_grid.nodes[:, 0])
    assert (tmp_path / "v.csv.meta.json").exists()


def test_value_csv_exact_bytes(tmp_path):
    # p-major rows, 17 significant digits, signed zeros kept
    values = np.array([[0.1, -0.0], [0.0, 1.0 / 3.0], [-2.5e-300, 1e16 + 2.0],
                       [-1.0, 2.0 / 3.0]])
    path = tmp_path / "v.csv"
    write_value_csv(ValueGrid(SimplexGrid(2, 3), SimplexGrid(2, 1), values), path)
    assert path.read_bytes() == (
        b"p,q,value\n"
        b"0,0,0.10000000000000001\n"
        b"0,1,-0\n"
        b"0.33333333333333331,0,0\n"
        b"0.33333333333333331,1,0.33333333333333331\n"
        b"0.66666666666666663,0,-2.5e-300\n"
        b"0.66666666666666663,1,10000000000000002\n"
        b"1,0,-1\n"
        b"1,1,0.66666666666666663\n")
    write_value_csv(ValueGrid(SimplexGrid(1, 3), SimplexGrid(2, 2),
                              np.array([[1.5, -0.0, 0.7]])), path)
    assert path.read_bytes() == b"p,q,value\n1,0,1.5\n1,0.5,-0\n1,1,0.69999999999999996\n"


def test_value_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(InputError):
        read_value_csv(bad)


def test_value_csv_rejects_header_only_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("p,q,value\n")
    with pytest.raises(InputError, match="rows of three numbers"):
        read_value_csv(bad)


def test_value_csv_rejects_non_numeric_field(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("p,q,value\n0,0,1.5\n0,1,x\n")
    with pytest.raises(InputError, match="rows of three numbers"):
        read_value_csv(bad)


@pytest.mark.parametrize("field", [0, 1, 2], ids=["p", "q", "value"])
@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
def test_value_csv_rejects_non_finite_fields(tmp_path, field, text):
    rows = [["0", "0", "1.5"], ["0", "1", "2"], ["1", "0", "-1"], ["1", "1", "0.5"]]
    rows[3][field] = text
    bad = tmp_path / "bad.csv"
    bad.write_text("p,q,value\n" + "".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(InputError, match="not a finite number"):
        read_value_csv(bad)


@pytest.mark.parametrize("rows", ["0,0,1.5\n0,1\n", "0,0,1.5\n0,1,2.5,3\n", "0,0,1.5\n0\n",
                                  "0,0,1.5\n0,1,2.5,\n", "0,0\n0,1\n", "0,0,1,2\n0,1,1,2\n"])
def test_value_csv_rejects_rows_of_other_than_three_fields(tmp_path, rows):
    bad = tmp_path / "bad.csv"
    bad.write_text("p,q,value\n" + rows)
    with pytest.raises(InputError, match="rows of three numbers"):
        read_value_csv(bad)
