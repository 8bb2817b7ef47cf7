import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopgame.errors import InputError
from stopgame.grids import (SimplexGrid, ValueGrid, _upper_hull_columns,
                            concave_envelope, convex_envelope, read_value_csv,
                            write_value_csv)


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


_KINDS = ("random", "integer", "collinear", "vee", "spike")


@st.composite
def _envelope_case(draw, max_cols=8):
    kind = draw(st.sampled_from(_KINDS))
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, max_cols))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "random":
        x = np.cumsum(rng.uniform(0.01, 1.0, n))
        return kind, x, rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, m))
    x = np.cumsum(rng.integers(1, 5, n)).astype(float)  # exact arithmetic below
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


@settings(max_examples=300, deadline=None)
@given(_envelope_case(), st.sampled_from(("random", "none", "all", "cold")),
       st.integers(0, 2**32 - 1))
def test_hinted_envelope_matches_cold(case, hint_kind, seed):
    # a vertex-mask hint changes the pruning path, never the hull
    kind, x, v = case
    cold, mask = _upper_hull_columns(x, v)
    hinted, alive = _upper_hull_columns(x, v, _hint(hint_kind, mask, seed))
    np.testing.assert_array_equal(hinted, cold)
    np.testing.assert_array_equal(alive, mask)
    if kind == "collinear":
        # the same runs in inexact floats: near-ties may fall either way
        # depending on the pruning order, so only rounding may differ
        vf = v / 3.0
        cold, mask = _upper_hull_columns(x, vf)
        hinted, _ = _upper_hull_columns(x, vf, _hint(hint_kind, mask, seed))
        np.testing.assert_allclose(hinted, cold, rtol=0, atol=1e-12 * (1 + np.abs(vf).max()))


@settings(max_examples=200, deadline=None)
@given(_envelope_case(max_cols=64), st.integers(0, 2**32 - 1))
def test_batched_envelope_matches_column_by_column(case, seed):
    # columns never interact: which columns a pruning round touches changes
    # the work, never a column's envelope or vertex mask
    kind, x, v = case
    n, m = v.shape
    rng = np.random.default_rng(seed)
    cold_env, cold = _upper_hull_columns(x, v)
    hint = np.column_stack([
        (cold[:, j], rng.random(n) < 0.5, np.zeros(n, bool), np.ones(n, bool))[rng.integers(4)]
        for j in range(m)])
    env, alive = _upper_hull_columns(x, v, hint)
    for j in range(m):
        one_env, one = _upper_hull_columns(x, v[:, [j]])
        np.testing.assert_array_equal(cold_env[:, [j]], one_env)
        np.testing.assert_array_equal(cold[:, [j]], one)
        one_env, one = _upper_hull_columns(x, v[:, [j]], hint[:, [j]])
        np.testing.assert_array_equal(env[:, [j]], one_env)
        np.testing.assert_array_equal(alive[:, [j]], one)


def test_batched_envelope_late_reset():
    # Columns 0, 2 and 4 settle in the first round (concave under their
    # own vertex masks, a line with only its ends hinted), so the later
    # rounds run on a gathered copy of columns 1 and 3.  Column 1 is a
    # concave run ending in a spike: one drop per round for n - 2 rounds.
    # Column 3 is hinted with two dead nodes; the chords of its alive
    # neighbours rise as nodes drop, and in the sixth round rounding puts a
    # dead node above its chord, so the column resets while in the gathered
    # set and prunes cold after the spike column has settled.
    n = 10
    x = np.arange(n, dtype=float)
    i = np.arange(n)
    spike = -(i - 3.0) ** 2
    spike[-1] = 10.0 * n * n
    concave = -(i - 6.0) ** 2
    late = np.array([2, 3, 4, 8, 10, 12, 14, 16, 18, 20]) / 3.0
    v = np.column_stack([concave, spike, 2.0 * i - 5.0, late, concave[::-1]])
    _, cold = _upper_hull_columns(x, v)
    hint = cold.copy()
    hint[:, 1] = True
    hint[:, 2] = False
    hint[:, 3] = np.array([1, 1, 1, 1, 1, 0, 1, 1, 0, 1], dtype=bool)
    env, alive = _upper_hull_columns(x, v, hint)
    for j in range(v.shape[1]):
        one_env, one = _upper_hull_columns(x, v[:, [j]], hint[:, [j]])
        np.testing.assert_array_equal(env[:, [j]], one_env)
        np.testing.assert_array_equal(alive[:, [j]], one)
    np.testing.assert_allclose(env, monotone_chain_envelope(x, v), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(alive[:, [0, 4]], cold[:, [0, 4]])
    assert alive[1:-1, 1:4].sum() == 0


def test_hinted_envelope_nan_columns_terminate():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 41)
    v = rng.normal(size=(41, 5))
    cold, mask = _upper_hull_columns(x, v)
    dead, alive = np.flatnonzero(~mask[1:-1, 1]) + 1, np.flatnonzero(mask[1:-1, 3]) + 1
    assert dead.size and alive.size
    v[dead[0], 1] = v[alive[0], 3] = math.nan
    hinted, _ = _upper_hull_columns(x, v, mask)
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
