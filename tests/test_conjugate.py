import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import stopgame.examples as ex
from stopgame.conjugate import (_GOLDEN_ITERS, concave_conjugate_p, convex_conjugate_q,
                                convex_surface_q,
                                dual_flow, dual_pde_residual_lower,
                                dual_pde_residual_upper, obstacle_conjugate_p,
                                obstacle_conjugate_q, pair, subgradient_q,
                                ycoord)
from stopgame.errors import InputError
from stopgame.grids import ValueGrid
from stopgame.model import GameSpec


def e1_callable(p_vec, q_vec):
    return ex.e1_value(float(p_vec[0]), float(q_vec[0]))


def test_reduced_h_conjugate(e1_spec):
    # max_q q y - h(p, q) = 4 - 3p for y <= 2, else y + 2 - 3p
    for p, y in [(0.2, 1.0), (0.7, -3.0), (0.5, 2.0)]:
        expected = 4.0 - 3.0 * p
        assert obstacle_conjugate_q(e1_spec.h, pair(p), ycoord(y)) == pytest.approx(expected)
        got = convex_conjugate_q(lambda pv, qv: float(pv @ e1_spec.h @ qv),
                                 pair(p), ycoord(y))
        assert got == pytest.approx(expected, abs=1e-9)
    for p, y in [(0.2, 3.0), (0.9, 2.5)]:
        assert obstacle_conjugate_q(e1_spec.h, pair(p), ycoord(y)) == pytest.approx(y + 2.0 - 3.0 * p)


def test_conjugate_zero_function():
    assert concave_conjugate_p(lambda pv, qv: 0.0, np.zeros(2), [1.0, 0.0]) == pytest.approx(0.0)


def test_f_conjugate_at_origin(e1_spec):
    # min_p <0, p> - f(p, q=1 chart) = min_p -(2p + 2) = -4 at p = 1
    got = concave_conjugate_p(lambda pv, qv: float(pv @ e1_spec.f @ qv),
                              np.zeros(2), [1.0, 0.0])
    assert got == pytest.approx(-4.0, abs=1e-9)
    assert obstacle_conjugate_p(e1_spec.f, np.zeros(2), [1.0, 0.0]) == pytest.approx(-4.0)


def test_dual_zone_value_at_quarter_half():
    # (p, y) = (1/4, 1/2): zone C since y <= (1-2p)/(1-p) = 2/3
    got = convex_conjugate_q(e1_callable, pair(0.25), ycoord(0.5))
    assert got == pytest.approx(0.5, abs=1e-9)
    assert ex.e1_dual(0.25, 0.5) == (pytest.approx(0.5), "C")


def test_conjugate_matches_zone_formulas_lattice():
    rng = np.random.default_rng(2)
    for _ in range(120):
        p = rng.uniform(0.0, 1.0)
        y = rng.uniform(-1.0, 3.0)
        num = convex_conjugate_q(e1_callable, pair(p), ycoord(y))
        assert num == pytest.approx(ex.e1_dual(p, y)[0], abs=1e-6)


def test_conjugate_shift_identity():
    # V_*((p,1-p),(y1,y2)) = y2 + V_*((p,1-p),(y1-y2,0))
    for p, y1, y2 in [(0.3, 1.2, 0.4), (0.8, -0.5, 1.0), (0.5, 2.5, -0.7)]:
        full = convex_conjugate_q(e1_callable, pair(p), np.array([y1, y2]))
        reduced = y2 + ex.e1_dual(p, y1 - y2)[0]
        assert full == pytest.approx(reduced, abs=1e-6)
        assert ex.e1_vstar_full(np.array([p, 1 - p, y1, y2])) == pytest.approx(reduced)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("branch", ["grid", "callable"])
def test_conjugates_reject_non_finite_dual_vectors(e1_spec, branch, bad):
    V = (ValueGrid.from_function(e1_spec, e1_callable, 4, 4) if branch == "grid"
         else e1_callable)
    with pytest.raises(InputError, match="dual vector"):
        concave_conjugate_p(V, [0.5, bad], pair(0.5))
    with pytest.raises(InputError, match="dual vector"):
        convex_conjugate_q(V, pair(0.5), [bad, 0.0])


def test_callable_conjugate_is_one_golden_section():
    # one golden section over the whole chart: no scan before it
    calls = []

    def counted(p_vec, q_vec):
        calls.append(1)
        return e1_callable(p_vec, q_vec)

    for conjugate in (lambda: concave_conjugate_p(counted, ycoord(0.3), pair(0.4)),
                      lambda: convex_conjugate_q(counted, pair(0.4), ycoord(0.3))):
        calls.clear()
        conjugate()
        assert 0 < len(calls) <= _GOLDEN_ITERS + 3


def test_conjugate_sandwich(e1_spec, e1_oracle_grid):
    rng = np.random.default_rng(4)
    for _ in range(60):
        p = rng.uniform(0.0, 1.0)
        y = rng.uniform(-2.0, 4.0)
        v_star = convex_conjugate_q(e1_oracle_grid, pair(p), ycoord(y))
        f_star = obstacle_conjugate_q(e1_spec.f, pair(p), ycoord(y))
        h_star = obstacle_conjugate_q(e1_spec.h, pair(p), ycoord(y))
        assert f_star - 1e-9 <= v_star <= h_star + 1e-9
        x = rng.uniform(-2.0, 4.0)
        q = pair(rng.uniform(0.0, 1.0))
        v_up = concave_conjugate_p(e1_oracle_grid, np.array([x, 0.0]), q)
        f_up = obstacle_conjugate_p(e1_spec.f, np.array([x, 0.0]), q)
        h_up = obstacle_conjugate_p(e1_spec.h, np.array([x, 0.0]), q)
        assert f_up - 1e-9 <= v_up <= h_up + 1e-9


def test_convex_surface_is_the_scalar_conjugate_at_every_pair(e1_oracle_grid, e2_oracle_grid):
    # the surface reads each p row once and scans the q nodes per row; every
    # entry equals the scalar grid conjugate bit for bit, and the maximum of
    # <q, y> - V(p, q) over the q nodes, read node by node, to rounding
    rng = np.random.default_rng(11)
    for grid, states in ((e1_oracle_grid, 2), (e2_oracle_grid, 1)):
        ps = [pair(p) for p in np.r_[0.0, rng.uniform(0.0, 1.0, 6), 1.0]]
        ys = [np.r_[y, rng.uniform(-1.0, 1.0)][:states] for y in rng.uniform(-2.0, 4.0, 5)]
        surface = convex_surface_q(grid, ps, ys)
        assert surface.shape == (len(ps), len(ys))
        for i, p in enumerate(ps):
            row = [grid.value_at(p, q) for q in grid.q_grid.nodes]
            for j, y in enumerate(ys):
                assert surface[i, j] == convex_conjugate_q(grid, p, y)
                want = max(float(q @ y) - v for q, v in zip(grid.q_grid.nodes, row))
                assert surface[i, j] == pytest.approx(want, rel=0, abs=1e-12)
    one = convex_surface_q(e1_oracle_grid, [pair(0.3)], [ycoord(0.5)])
    assert one.shape == (1, 1) and one[0, 0] == convex_conjugate_q(e1_oracle_grid, pair(0.3),
                                                                    ycoord(0.5))


@pytest.mark.parametrize("ps,ys", [
    ([pair(0.5)], [[0.5, 0.0, 1.0]]),        # a dual vector with three coordinates
    ([pair(0.5)], [0.5, 0.0]),               # dual vectors not given one per row
    ([pair(0.5)], [[math.nan, 0.0]]),
    ([[0.5, 0.6]], [ycoord(0.5)]),           # not a simplex point
    ([[0.2, 0.3, 0.5]], [ycoord(0.5)]),      # a p point with three states
    ([[math.inf, 0.0]], [ycoord(0.5)]),
])
def test_convex_surface_rejects_bad_points(e1_oracle_grid, ps, ys):
    with pytest.raises(InputError):
        convex_surface_q(e1_oracle_grid, ps, ys)


def test_biconjugation_recovers_concave_slices(e1_oracle_grid):
    # compact simplex: conjugating twice in p reproduces a concave slice
    q = pair(0.6)
    xs = np.linspace(-6.0, 6.0, 401)  # beyond twice the payoff scale
    for p in [0.15, 0.4, 0.65, 0.9]:
        direct = e1_oracle_grid.value_at(pair(p), q)
        second = min(x * p + 0.0 * (1 - p)
                     - concave_conjugate_p(e1_oracle_grid, np.array([x, 0.0]), q)
                     for x in xs)
        assert second == pytest.approx(direct, abs=2e-3)


def test_fenchel_equality_at_subgradients():
    for p, q in [(0.25, 0.5), (0.3, 0.8), (0.7, 0.65), (0.5, 0.25)]:
        y = ex.e1_value_qslope(p, q)
        lhs = ex.e1_value(p, q)
        rhs = q * y - ex.e1_dual(p, y)[0]
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_zone_boundary_continuity():
    for p in np.linspace(0.5, 1.0, 101):
        y = 4.0 * p - 2.0  # B | D seam: both give 2p - 1
        b_val = 0.5 * y
        d_val = -2.0 * math.sqrt(2.0 - y) * math.sqrt(1.0 - p) + 3.0 - 2.0 * p
        assert b_val == pytest.approx(2.0 * p - 1.0, abs=1e-12)
        assert d_val == pytest.approx(2.0 * p - 1.0, abs=1e-12)
    for p in np.linspace(0.0, 1.0, 101):
        y = 1.0 + p  # D | E seam: both give 1
        d_val = -2.0 * math.sqrt(2.0 - y) * math.sqrt(1.0 - p) + 3.0 - 2.0 * p
        assert d_val == pytest.approx(1.0, abs=1e-12)
        assert (y - p) == pytest.approx(1.0)


def test_subgradient_on_grid(e1_oracle_grid):
    lo, hi = subgradient_q(e1_oracle_grid, pair(0.25), pair(0.5))
    assert lo[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert hi[0] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_subgradient_inside_a_cell_and_on_one_state(e1_oracle_grid, e2_oracle_grid):
    # inside a cell the q-slice is affine, so both ends are that cell's slope
    qg = e1_oracle_grid.q_grid
    row = e1_oracle_grid.p_grid.interpolate(pair(0.25), e1_oracle_grid.values)[0]
    for i in (0, 37, qg.resolution - 1):
        lo, hi = subgradient_q(e1_oracle_grid, pair(0.25), pair((i + 0.3) / qg.resolution))
        assert lo[0] == hi[0] == (row[i + 1] - row[i]) / qg.step
    # a one-state q side has no chart coordinate: two empty intervals
    lo, hi = subgradient_q(e2_oracle_grid, pair(0.3), [1.0])
    assert lo.shape == hi.shape == (0,)


def test_subgradient_bilinear_degenerate(e1_spec):
    grid = ValueGrid.from_function(
        e1_spec, lambda p, q: float(p @ e1_spec.h @ q), 40, 40)
    lo, hi = subgradient_q(grid, pair(0.3), pair(0.5))
    # chart slope of q -> h(p, q) is the coefficient 2
    assert lo[0] == pytest.approx(2.0, abs=1e-9)
    assert hi[0] == pytest.approx(2.0, abs=1e-9)


def test_subgradient_interval_width_at_kink(e2_params):
    # convex-in-q surrogate with the example-2 kink placed on the q axis
    spec = GameSpec(R=np.zeros((1, 1)), Q=np.zeros((2, 2)), r=1.0,
                    f=np.full((1, 2), 5.0), h=np.full((1, 2), -5.0),
                    p0=[1.0], q0=[0.5, 0.5])
    N = 300  # kink at 1/3 sits on the grid
    grid = ValueGrid.from_function(
        spec, lambda p, q: -ex.e2_value(e2_params, float(q[0])), 1, N)
    lo, hi = subgradient_q(grid, [1.0], pair(1.0 / 3.0))
    assert hi[0] - lo[0] > 1.0  # slopes -f' = -2 vs -chord = -0.5
    assert lo[0] == pytest.approx(-2.0, abs=1e-6)
    assert hi[0] == pytest.approx(-0.5, abs=1e-3)


def test_subgradient_q_on_a_face_of_a_three_state_slice():
    # V = p + q . (1, 3, -2): chart axis c moves weight from the last state
    # to state c, so its slope is 1 + 2 = 3 on axis 0 and 3 + 2 = 5 on axis 1
    spec = GameSpec(R=np.zeros((2, 2)), Q=np.zeros((3, 3)), r=1.0,
                    f=np.full((2, 3), 5.0), h=np.full((2, 3), -5.0),
                    p0=[0.5, 0.5], q0=[1 / 3, 1 / 3, 1 / 3])
    v = np.array([1.0, 3.0, -2.0])
    grid = ValueGrid.from_function(spec, lambda p, q: float(p[0] + q @ v), 4, 10)
    # inside, and on the face q_2 = 0 where each axis is feasible on one side only
    for q in ([0.2, 0.3, 0.5], [0.5, 0.5, 0.0]):
        lo, hi = subgradient_q(grid, pair(0.3), q)
        np.testing.assert_allclose(lo, [3.0, 5.0], atol=1e-9)
        np.testing.assert_allclose(hi, [3.0, 5.0], atol=1e-9)
    # at the vertex q = e_1 axis 0 leaves the simplex both ways, axis 1 does not
    lo, hi = subgradient_q(grid, pair(0.3), [0.0, 1.0, 0.0])
    assert math.isnan(lo[0]) and math.isnan(hi[0])
    assert lo[1] == pytest.approx(5.0, abs=1e-9) and hi[1] == pytest.approx(5.0, abs=1e-9)


def test_dual_flow_frozen_chain():
    state = dual_flow(np.array([1.0, 0.5]), [0.6, 0.4], np.zeros((2, 2)),
                      np.zeros((2, 2)), r=1.0, t=0.7)
    np.testing.assert_allclose(state.x, np.exp(0.7) * np.array([1.0, 0.5]))
    np.testing.assert_allclose(state.q, [0.6, 0.4])
    tiny = dual_flow(np.array([1.0, 0.5]), [0.6, 0.4], np.zeros((2, 2)),
                     np.zeros((2, 2)), r=1e-14, t=3.0)
    np.testing.assert_allclose(tiny.x, [1.0, 0.5], atol=1e-12)
    # checked before the exponential, not after it by marginal_flow
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(InputError, match="dual flow time"):
            dual_flow(np.array([1.0, 0.5]), [0.6, 0.4], -np.eye(2) + np.fliplr(np.eye(2)),
                      np.zeros((2, 2)), r=1.0, t=bad)


def test_dual_flow_rejects_bad_inputs():
    # the generators, their shapes and r are checked as GameSpec checks
    # them, before any exponential
    x, q, Z, FLIP = [1.0, 0.0], [0.5, 0.5], np.zeros((2, 2)), [[-1.0, 1.0], [1.0, -1.0]]
    for R, Q, r, match in (([[math.nan, 0.0], [0.0, 0.0]], Z, 0.5, "finite"),
                           ([[1.0, 2.0], [0.0, 0.0]], Z, 0.5, "sum to 0"),
                           (Z, [[1.0, 2.0], [0.0, 0.0]], 0.5, "sum to 0"),
                           (Z, 0.0, 0.5, "square"),
                           (np.zeros((3, 3)), Z, 0.5, "dimensions"),
                           (FLIP, np.zeros((3, 3)), 0.5, "dimensions"),
                           (FLIP, Z, math.inf, "discount rate"),
                           (FLIP, Z, math.nan, "discount rate"),
                           (FLIP, Z, 0.0, "discount rate"),
                           (FLIP, Z, -1.0, "discount rate")):
        with pytest.raises(InputError, match=match):
            dual_flow(x, q, R, Q, r, 1.0)
    with pytest.raises(InputError, match="slope"):
        dual_flow([math.nan, 0.0], q, FLIP, Z, 0.5, 1.0)
    with pytest.raises(InputError):
        dual_flow(x, [0.7, 0.7], FLIP, Z, 0.5, 1.0)


def test_dual_flow_against_ode_oracle():
    R = np.array([[-1.0, 1.0], [1.0, -1.0]])
    r = 1.0
    x0 = np.array([1.0, 0.0])
    t = 0.8
    got = dual_flow(x0, [0.5, 0.5], R, np.zeros((2, 2)), r, t).x
    sol = solve_ivp(lambda s, x: (r * np.eye(2) - R) @ x, (0.0, t), x0,
                    rtol=1e-12, atol=1e-14, dense_output=True)
    np.testing.assert_allclose(got, sol.y[:, -1], atol=1e-9)


def vstar_lower(pv, yv):
    return ex.e1_vstar_full(np.array([pv[0], pv[1], yv[0], yv[1]]))


def fstar_lower(pv, yv):
    return ex.e1_fstar(float(pv[0]), float(yv[0] - yv[1])) + float(yv[1])


def test_dual_residual_lower_zone_A():
    # V_* = 0 on A and the flow keeps A invariant: the derivative term vanishes
    R = Q = np.zeros((2, 2))
    _, term2 = dual_pde_residual_lower(vstar_lower, fstar_lower, pair(0.7),
                                       ycoord(-1.0), R, Q, r=1.0)
    assert term2 == pytest.approx(0.0, abs=1e-6)


def test_dual_residual_lower_everywhere():
    R = Q = np.zeros((2, 2))
    worst = -math.inf
    for p in np.linspace(0.0, 1.0, 101):
        for y in np.linspace(-1.0, 3.0, 101):
            gap, term = dual_pde_residual_lower(vstar_lower, fstar_lower,
                                                pair(p), ycoord(y), R, Q, r=1.0)
            worst = max(worst, min(gap, term))
    assert worst <= 1e-3


def _lower_reference(vstar, fstar, p, y, R, Q, r):
    """The convex-conjugate residual pair written out, not mirrored."""
    gap = vstar(p, y) - fstar(p, y)
    dp = R.T @ p
    dy = (r * np.eye(y.size) - Q) @ y
    scale = max(1.0, float(np.abs(dp).max(initial=0.0)), float(np.abs(dy).max(initial=0.0)))
    step = 1e-7 / scale
    base = vstar(p, y)
    ahead = vstar(p + step * dp, y + step * dy)
    return float(gap), float(-((ahead - base) / step - r * base))


def test_dual_residual_lower_mirror_is_bit_exact_with_moving_chains():
    # R != Q and a second dual coordinate: passing the chains unswapped, or
    # the wrong sign of y, would change the derivative term
    R = np.array([[-1.0, 1.0], [0.6, -0.6]])
    Q = np.array([[-0.8, 0.8], [1.2, -1.2]])
    got, want = [], []
    for p in np.linspace(0.0, 1.0, 9):
        for y in np.linspace(-1.0, 3.0, 9):
            pv, yv = pair(p), np.array([y, 0.25 * y - 0.5])
            got.append(dual_pde_residual_lower(vstar_lower, fstar_lower, pv, yv, R, Q, r=0.8))
            want.append(_lower_reference(vstar_lower, fstar_lower, pv, yv, R, Q, r=0.8))
    got, want = np.array(got), np.array(want)
    assert got.tobytes() == want.tobytes()  # sign bits included
    assert np.count_nonzero(got[:, 1]) > 0.9 * got.shape[0]


def test_dual_residual_first_term_on_absorbing_set():
    # on S = {(1, y >= 2)} the conjugate of h is attained: h_* - V_* = 0
    for y in [2.0, 2.5, 3.5]:
        assert ex.e1_hstar(1.0, y) - ex.e1_dual(1.0, y)[0] == pytest.approx(0.0, abs=1e-12)


def test_dual_residual_upper_side(e1_oracle_grid, e1_spec):
    # concave-conjugate side on a small lattice, numerically conjugated
    R = Q = np.zeros((2, 2))

    def vstar_up(xv, qv):
        return concave_conjugate_p(e1_oracle_grid, xv, qv)

    def hstar_up(xv, qv):
        return obstacle_conjugate_p(e1_spec.h, xv, qv)

    worst = -math.inf
    for x in np.linspace(-2.0, 3.0, 11):
        for q in np.linspace(0.05, 0.95, 7):
            gap, term = dual_pde_residual_upper(vstar_up, hstar_up,
                                                np.array([x, 0.0]), pair(q),
                                                R, Q, r=1.0)
            worst = max(worst, min(gap, term))
    assert worst <= 1e-2
