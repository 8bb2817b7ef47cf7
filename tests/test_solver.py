import json
import math

import numpy as np
import pytest

import stopgame.examples as ex
from stopgame.errors import InputError
from stopgame.grids import SimplexGrid, ValueGrid, payoff_grids, write_value_csv
from stopgame.model import GameSpec
from stopgame.solver import (cav_p, default_time_step, directional_derivative,
                             obstacle_step, residual_check, solve, vex_q)


def scalar_game(r=1.0):
    return ex.e1_game(r)


def test_time_step_rule(e1_spec, e2_spec):
    assert default_time_step(e1_spec, 200, 200) == pytest.approx(0.1)
    # flip-chain side at rate 1: row norm 2, N=400 -> 1/800 beats 0.1/r
    assert default_time_step(e2_spec, 400, 1) == pytest.approx(1.0 / 800.0)


def test_cav_idempotent_and_raising(e1_oracle_grid):
    cav = cav_p(e1_oracle_grid)
    np.testing.assert_allclose(cav.values, e1_oracle_grid.values, atol=1e-12)
    vex = vex_q(e1_oracle_grid)
    np.testing.assert_allclose(vex.values, e1_oracle_grid.values, atol=1e-12)


def test_cav_raises_pure_lower_value(e1_spec):
    # the pure-strategy lower value is not concave in p at q = 2/3
    grid = ValueGrid.from_function(
        e1_spec, lambda p, q: ex.e1_pure_values(float(p[0]), float(q[0]))[0], 60, 60)
    cav = cav_p(grid)
    j = int(np.argmin(np.abs(grid.q_grid.nodes[:, 0] - 2.0 / 3.0)))
    assert np.max(cav.values[:, j] - grid.values[:, j]) > 1e-3
    assert np.all(cav.values >= grid.values - 1e-12)


def test_vex_lowers_pure_upper_value(e1_spec):
    grid = ValueGrid.from_function(
        e1_spec, lambda p, q: ex.e1_pure_values(float(p[0]), float(q[0]))[1], 60, 60)
    vex = vex_q(grid)
    i = int(np.argmin(np.abs(grid.p_grid.nodes[:, 0] - 1.0 / 3.0)))
    assert np.min(vex.values[i, :] - grid.values[i, :]) < -1e-3
    assert np.all(vex.values <= grid.values + 1e-12)


def test_obstacle_step_bounds(e1_spec):
    pg = SimplexGrid(2, 40)
    qg = SimplexGrid(2, 40)
    H, F = payoff_grids(e1_spec, pg, qg)
    delta = 0.05
    stepped = obstacle_step(ValueGrid(pg, qg, F, e1_spec), delta)
    assert np.all(stepped.values <= F + 1e-12)
    stepped = obstacle_step(ValueGrid(pg, qg, H, e1_spec), delta)
    assert np.all(stepped.values >= H - 1e-12)


def test_obstacle_step_near_fixed_point(e1_oracle_grid):
    # R = Q = 0: the flow is the identity, no interpolation error
    delta = 0.01
    stepped = obstacle_step(e1_oracle_grid, delta)
    bound = e1_oracle_grid.spec.r * delta * np.abs(e1_oracle_grid.values).max()
    assert np.abs(stepped.values - e1_oracle_grid.values).max() <= bound + 1e-12


def test_sweep_monotone(e1_spec):
    pg = SimplexGrid(2, 25)
    qg = SimplexGrid(2, 25)
    H, F = payoff_grids(e1_spec, pg, qg)
    rng = np.random.default_rng(3)
    delta = 0.05
    for _ in range(5):
        lo = H + (F - H) * rng.uniform(0.0, 0.5, size=H.shape)
        hi = lo + (F - lo) * rng.uniform(0.0, 1.0, size=H.shape)
        out_lo = vex_q(cav_p(obstacle_step(ValueGrid(pg, qg, lo, e1_spec), delta)))
        out_hi = vex_q(cav_p(obstacle_step(ValueGrid(pg, qg, hi, e1_spec), delta)))
        assert np.all(out_hi.values >= out_lo.values - 1e-12)
        assert np.all(out_lo.values >= H - 1e-12)
        assert np.all(out_lo.values <= F + 1e-12)


def test_solve_example1(e1_solved):
    P = e1_solved.p_grid.nodes[:, 0]
    Q = e1_solved.q_grid.nodes[:, 0]
    oracle = np.array([[ex.e1_value(p, q) for q in Q] for p in P])
    assert np.abs(e1_solved.values - oracle).max() <= 0.02
    assert e1_solved.metadata["iterations"] > 1


def test_solve_example2(e2_solved, e2_params):
    P = e2_solved.p_grid.nodes[:, 0]
    oracle = np.array([ex.e2_value(e2_params, p) for p in P])
    assert np.abs(e2_solved.values[:, 0] - oracle).max() <= 0.02


def test_solve_collapsed_obstacles():
    M = np.array([[1.0, -0.5], [0.25, 2.0]])
    spec = GameSpec(R=np.zeros((2, 2)), Q=np.zeros((2, 2)), r=1.0,
                    f=M, h=M, p0=[0.5, 0.5], q0=[0.5, 0.5])
    grid = solve(spec, 30, 30, tol=1e-9)
    H, _ = payoff_grids(spec, grid.p_grid, grid.q_grid)
    np.testing.assert_allclose(grid.values, H, atol=1e-12)


@pytest.mark.parametrize("h,f,expected", [(0.5, 2.0, 0.5), (-2.0, -0.5, -0.5),
                                          (-1.0, 1.0, 0.0)])
def test_solve_degenerate_single_states(h, f, expected):
    spec = GameSpec(R=np.zeros((1, 1)), Q=np.zeros((1, 1)), r=1.0,
                    f=[[f]], h=[[h]], p0=[1.0], q0=[1.0])
    grid = solve(spec, 1, 1, tol=1e-12)
    assert grid.values[0, 0] == pytest.approx(expected, abs=1e-8)


def test_solve_nonconvergence_carries_residual(e1_spec):
    from stopgame.errors import ConvergenceError

    with pytest.raises(ConvergenceError) as err:
        solve(e1_spec, 40, 40, tol=1e-12, max_iter=3)
    assert err.value.residual > 0


def test_solve_stops_on_first_non_finite_sweep(e1_spec, monkeypatch):
    import stopgame.solver as solver
    from stopgame.errors import ConvergenceError

    # a blow-up inside the sweep must end the solve at once, not after max_iter;
    # each sweep calls the envelope twice (p side, then the mirrored q side),
    # so the third call is sweep 2's p side and the solve ends after call 4
    calls = []
    real = solver._concave_envelope

    def poisoned(chart, v, alive):
        calls.append(1)
        out, alive = real(chart, v, alive)
        if len(calls) == 3:
            out[0, 0] = math.nan
        return out, alive

    monkeypatch.setattr(solver, "_concave_envelope", poisoned)
    with pytest.raises(ConvergenceError) as err:
        solve(e1_spec, 10, 10, tol=1e-300, max_iter=1000)
    assert len(calls) == 4 and not math.isfinite(err.value.residual)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_solve_rejects_bad_tolerance(e1_spec, tol):
    with pytest.raises(InputError):
        solve(e1_spec, 5, 5, tol=tol)


def _moving_game():
    return GameSpec(R=[[-1.0, 1.0], [0.6, -0.6]], Q=[[-0.8, 0.8], [1.2, -1.2]], r=0.8,
                    f=ex.scalar_payoff_matrix(-1.0, 2.0, 3.0),
                    h=ex.scalar_payoff_matrix(-4.0, 3.0, 2.0),
                    p0=[0.5, 0.5], q0=[0.5, 0.5])


_GAMES = {"e1": lambda: ex.e1_game(1.0), "e2": lambda: ex.e2_game(ex.REFERENCE_E2),
          "moving": _moving_game,
          # frozen three-state chains with a singleton opponent (qhull envelopes)
          "spec3": lambda: GameSpec(R=np.zeros((3, 3)), Q=np.zeros((1, 1)), r=1.0,
                                    f=[[2.0], [1.5], [3.0]], h=[[1.0], [0.5], [2.0]],
                                    p0=[1 / 3, 1 / 3, 1 / 3], q0=[1.0]),
          "cav3": lambda: GameSpec(R=np.zeros((3, 3)), Q=np.zeros((1, 1)), r=1.0,
                                   f=[[2.0], [0.5], [0.1]], h=[[1.0], [-1.0], [-1.0]],
                                   p0=[1 / 3, 1 / 3, 1 / 3], q0=[1.0])}


def _public_sweep_loop(spec, N_p, N_q, tol):
    """Plain value iteration through the public functions: ``(values, sweeps, change)``."""
    p_grid, q_grid = SimplexGrid(spec.K, N_p), SimplexGrid(spec.L, N_q)
    H, F = payoff_grids(spec, p_grid, q_grid)
    delta = default_time_step(spec, N_p, N_q)
    V = ValueGrid(p_grid, q_grid, 0.5 * (H + F), spec)
    for it in range(1, 10_000):
        new = vex_q(cav_p(obstacle_step(V, delta)))
        change = float(np.abs(new.values - V.values).max())
        V = new
        if change < tol:
            break
    return np.clip(V.values, H, F), it, change


@pytest.mark.parametrize("game,N_p,N_q,tol", [("e2", 40, 1, 1e-9), ("moving", 13, 13, 1e-8)])
def test_solve_matches_public_sweep_loop(game, N_p, N_q, tol):
    # solve carries hull vertex masks between sweeps; the public, stateless
    # functions start every envelope cold.  The envelope kernel's pop test
    # is exact, so both reach the same vertex set on every slice, bit for bit.
    # With a moving chain solve does not mix: its iterates are the plain loop's.
    grid = solve(_GAMES[game](), N_p, N_q, tol=tol)
    ref, sweeps, _ = _public_sweep_loop(_GAMES[game](), N_p, N_q, tol)
    assert grid.metadata["iterations"] == sweeps
    np.testing.assert_array_equal(grid.values, ref)
    assert grid.metadata["mixing"] is None


# rounding slack of the envelope kernel (a dropped node lies up to one
# quantum, 1.1e-13 of the slice max at N = 400, above its chord)
_KERNEL_SLACK = 1e-12


@pytest.mark.parametrize("game,N_p,N_q,tol,max_sweeps", [
    ("e1", 20, 20, 1e-7, 30), ("e1", 100, 100, 1e-7, 90),  # plain loop: 141 sweeps each
    ("spec3", 4, 1, 1e-9, 8),  # converges before the mixing starts
    ("cav3", 6, 1, 1e-10, 20)])  # plain loop: 200 sweeps
def test_solve_mixes_frozen_chains(game, N_p, N_q, tol, max_sweeps):
    # frozen chains: after its first plain sweeps solve mixes the sweep, so
    # its iterates leave the plain loop's.  It returns the image T(x) of its
    # last iterate with residual |T(x) - x|, so one more sweep moves the
    # result by at most e^{-r delta} times the residual, and the result lies
    # within the summed error bounds of the plain loop's
    spec = _GAMES[game]()
    grid = solve(spec, N_p, N_q, tol=tol)
    meta = grid.metadata
    delta = default_time_step(spec, N_p, N_q)
    again = vex_q(cav_p(obstacle_step(grid, delta))).values
    disc = math.exp(-spec.r * delta)
    assert np.abs(again - grid.values).max() <= disc * meta["residual"] + _KERNEL_SLACK
    ref, _, change = _public_sweep_loop(spec, N_p, N_q, tol)
    gap = float(np.abs(grid.values - ref).max())
    assert gap <= meta["error_bound"] + change * disc / (1.0 - disc) + _KERNEL_SLACK
    assert meta["iterations"] <= max_sweeps
    mixing = meta["mixing"]
    assert set(mixing) == {"accepted", "restarts"}
    # sweep 12 is the first to start from a mixed iterate
    assert (mixing["accepted"] > 0) == (meta["iterations"] > 11)


@pytest.mark.parametrize("game,N_p,N_q", [("e1", 100, 100), ("e2", 400, 1), ("moving", 40, 40)])
def test_solve_residual_equals_public_sweeps(game, N_p, N_q):
    # the solve games of the benchmark at its sizes: after 10 sweeps from
    # (h+f)/2, the residual solve reports is the public loop's last change
    from stopgame.errors import ConvergenceError

    spec = _GAMES[game]()
    with pytest.raises(ConvergenceError) as err:
        solve(spec, N_p, N_q, tol=1e-300, max_iter=10)
    p_grid, q_grid = SimplexGrid(spec.K, N_p), SimplexGrid(spec.L, N_q)
    H, F = payoff_grids(spec, p_grid, q_grid)
    delta = default_time_step(spec, N_p, N_q)
    V = ValueGrid(p_grid, q_grid, 0.5 * (H + F), spec)
    for _ in range(10):
        new = vex_q(cav_p(obstacle_step(V, delta)))
        change = float(np.abs(new.values - V.values).max())
        V = new
    assert err.value.residual == change


def test_solve_records_vertices_and_pins(tmp_path):
    spec = _moving_game()
    grid = solve(spec, 13, 13, tol=1e-8)
    H, F = payoff_grids(spec, grid.p_grid, grid.q_grid)
    write_value_csv(grid, tmp_path / "v.csv")
    meta = json.loads((tmp_path / "v.csv.meta.json").read_text())
    assert {k: meta[k] for k in ("hull_vertices", "pinned")} == {
        k: grid.metadata[k] for k in ("hull_vertices", "pinned")}
    assert set(meta["hull_vertices"]) == {"p", "q"}
    assert all(0 < n <= grid.values.size for n in meta["hull_vertices"].values())
    assert meta["pinned"] == {"h": int((grid.values == H).sum()),
                              "f": int((grid.values == F).sum())}
    assert meta["pinned"]["h"] > 0 and meta["pinned"]["f"] > 0
    # one-state sides: every node of a one-node slice is a vertex
    single = solve(ex.e2_game(ex.REFERENCE_E2), 40, 1, tol=1e-9)
    assert single.metadata["hull_vertices"]["q"] == 41
    # charts of two coordinates are enveloped cold, without a mask
    spec3 = _GAMES["spec3"]()
    assert solve(spec3, 4, 1, tol=1e-9).metadata["hull_vertices"] == {"p": None, "q": 15}


def test_solve_confirms_carried_hulls_on_most_sweeps(tmp_path):
    # a sweep whose vertex sets hold is confirmed by one exact test and does
    # not count as a move; every sweep would count if that path were lost
    moves = {}
    for name, spec, N_p, N_q, tol in (("e2", ex.e2_game(ex.REFERENCE_E2), 40, 1, 1e-9),
                                      ("moving", _moving_game(), 13, 13, 1e-8)):
        grid = solve(spec, N_p, N_q, tol=tol)
        moves[name], sweeps = grid.metadata["hull_moves"], grid.metadata["iterations"]
        assert set(moves[name]) == {"p", "q"}
        assert all(1 <= k < sweeps for k in moves[name].values())
        write_value_csv(grid, tmp_path / "v.csv")
        meta = json.loads((tmp_path / "v.csv.meta.json").read_text())
        assert meta["hull_moves"] == moves[name]
        assert meta["error_bound"] == grid.metadata["error_bound"]
    assert max(moves["moving"].values()) < sweeps // 4  # most sweeps hold
    # a one-node slice moves only from the first sweep's cold record, and a
    # two-coordinate chart carries no record
    assert moves["e2"]["q"] == 1
    spec3 = _GAMES["spec3"]()
    assert solve(spec3, 4, 1, tol=1e-9).metadata["hull_moves"] == {"p": None, "q": 1}


def test_error_bound_covers_the_distance_to_the_fixed_point(e1_spec):
    # tol bounds the last change; the distance to the fixed point is up to
    # e^{-r delta} / (1 - e^{-r delta}) times that, 9.5 times at delta = 0.1,
    # whatever the last iterate, so also where solve mixes (frozen e1)
    grid = solve(e1_spec, 20, 20, tol=1e-6)
    tight = solve(e1_spec, 20, 20, tol=1e-12)
    meta = grid.metadata
    disc = math.exp(-e1_spec.r * meta["delta"])
    assert meta["error_bound"] == meta["residual"] * disc / (1.0 - disc)
    assert meta["error_bound"] == pytest.approx(9.508 * meta["residual"], rel=1e-3)
    gap = float(np.abs(grid.values - tight.values).max())
    assert gap <= meta["error_bound"] + tight.metadata["error_bound"]
    # plain value iteration (a moving chain): the last change alone
    # understates the error, by 0.82 of the bound's factor 38.5 here
    spec = _moving_game()
    grid = solve(spec, 13, 13, tol=1e-6)
    tight = solve(spec, 13, 13, tol=1e-12)
    meta = grid.metadata
    disc = math.exp(-spec.r * meta["delta"])
    assert meta["error_bound"] == meta["residual"] * disc / (1.0 - disc)
    gap = float(np.abs(grid.values - tight.values).max())
    assert gap <= meta["error_bound"] + tight.metadata["error_bound"]
    assert gap > 0.75 * meta["error_bound"]


def test_saddle_posteriori_stability(e1_solved):
    tol = e1_solved.metadata["tol"]
    again = vex_q(cav_p(e1_solved))
    assert np.abs(again.values - e1_solved.values).max() < 10.0 * tol


def test_directional_derivative_zero():
    spec = scalar_game()
    grid = ValueGrid.from_function(spec, lambda p, q: float(p @ spec.f @ q), 50, 50)
    node = (np.array([0.3, 0.7]), np.array([0.4, 0.6]))
    assert directional_derivative(grid, node, np.zeros(2), np.zeros(2)) == 0.0


def test_directional_derivative_bilinear():
    spec = scalar_game()
    M = spec.f
    N = 50
    grid = ValueGrid.from_function(spec, lambda p, q: float(p @ M @ q), N, N)
    p = np.array([0.3, 0.7])
    q = np.array([0.4, 0.6])
    dp = np.array([0.5, -0.5])
    dq = np.array([-0.25, 0.25])
    exact = float(dp @ M @ q + p @ M @ dq)
    got = directional_derivative(grid, (p, q), dp, dq)
    assert got == pytest.approx(exact, abs=2.0 / N)


def test_directional_derivative_affine_piece(e1_oracle_grid):
    # interior of the affine region p >= 1-q, q >= 1/2: slope (2q-1)/q in p
    q = 0.8
    p = 0.6
    node = (np.array([p, 1 - p]), np.array([q, 1 - q]))
    slope = (2 * q - 1) / q
    got = directional_derivative(e1_oracle_grid, node, np.array([1.0, -1.0]), None)
    assert got == pytest.approx(slope, abs=2.0 / 200)


def test_directional_derivative_exits_simplex(e1_oracle_grid):
    node = (np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        directional_derivative(e1_oracle_grid, node, np.array([1.0, -1.0]), None)


@pytest.mark.parametrize("dirs", [([0.5, -0.5, 0.0], None), (None, [0.5, -0.5, 0.0]),
                                  ([0.0], None), ([[1.0, -1.0]], None)],
                         ids=["dir_p-three", "dir_q-three", "dir_p-one-zero", "dir_p-2d"])
def test_directional_derivative_checks_the_direction_size(dirs, e1_oracle_grid):
    # a three-entry direction on a two-state grid raised numpy's broadcast
    # ValueError, and a zero direction of the wrong size returned 0.0
    node = (np.array([0.6, 0.4]), np.array([0.8, 0.2]))
    with pytest.raises(InputError):
        directional_derivative(e1_oracle_grid, node, *dirs)


def test_residual_trivial_constant_zero():
    spec = GameSpec(R=np.zeros((2, 2)), Q=np.zeros((2, 2)), r=1.0,
                    f=np.full((2, 2), 1.0), h=np.full((2, 2), -1.0),
                    p0=[0.5, 0.5], q0=[0.5, 0.5])
    grid = ValueGrid.from_function(spec, lambda p, q: 0.0, 30, 30)
    report = residual_check(grid)
    assert report.worst_sub_violation == 0.0
    assert report.worst_super_violation == 0.0


def test_residual_oracle_grids(e1_oracle_grid, e2_oracle_grid):
    rep1 = residual_check(e1_oracle_grid)
    assert rep1.worst_sub_violation <= 5.0 / 200
    assert rep1.worst_super_violation <= 5.0 / 200
    rep2 = residual_check(e2_oracle_grid)
    assert rep2.worst_sub_violation <= 5.0 / 400
    assert rep2.worst_super_violation <= 5.0 / 400


def test_residual_detects_f_grid(e1_spec):
    grid = ValueGrid.from_function(
        e1_spec, lambda p, q: float(p @ e1_spec.f @ q), 100, 100)
    report = residual_check(grid)
    # at the Dirac corner (p,q)=(1,1): f > h and r f(1,1) = 4 > 0, so the
    # subsolution inequality fails decisively
    assert report.worst_sub_violation > 0.1
    assert report.sub_violation[-1, 0] > 0.1  # chart p=1, q=1 corner node


def test_residual_bump_perturbation(e1_oracle_grid):
    values = e1_oracle_grid.values.copy()
    i = 50   # chart p = 0.25
    j = 140  # chart q = 0.70, strictly concave slice in p there
    values[i, j] += 0.1
    report = residual_check(e1_oracle_grid.with_values(values))
    assert report.p_extreme[i, j]
    assert report.sub_violation[i, j] >= 0.05


def test_residual_bump_on_solved_grid(e1_solved):
    # comparison-principle harness: the checker separates the solution
    # from an upward perturbation at a p-extreme node
    base = residual_check(e1_solved)
    i = int(np.argmin(np.abs(e1_solved.p_grid.nodes[:, 0] - 0.25)))
    j = int(np.argmin(np.abs(e1_solved.q_grid.nodes[:, 0] - 0.70)))
    bumped = e1_solved.values.copy()
    bumped[i, j] += 0.1
    report = residual_check(e1_solved.with_values(bumped))
    assert report.sub_violation[i, j] >= 0.05
    assert report.worst_sub_violation > base.worst_sub_violation + 0.04


def _residual_reference(grid):
    """residual_check with the p and q sides written out, not mirrored."""
    from stopgame.solver import _neighbor_pairs

    spec, V = grid.spec, grid.values
    H, F = payoff_grids(spec, grid.p_grid, grid.q_grid)
    N = max(grid.p_grid.resolution, grid.q_grid.resolution)
    eps_extreme = 10.0 / N**2 * (float(np.abs(V).max(initial=0.0)) or 1.0)
    p_ext = np.ones(V.shape, dtype=bool)
    for i, plist in enumerate(_neighbor_pairs(grid.p_grid)):
        for (jlo, jhi) in plist:
            p_ext[i, :] &= ~(np.abs(0.5 * (V[jlo, :] + V[jhi, :]) - V[i, :]) <= eps_extreme)
    q_ext = np.ones(V.shape, dtype=bool)
    for j, qlist in enumerate(_neighbor_pairs(grid.q_grid)):
        for (jlo, jhi) in qlist:
            q_ext[:, j] &= ~(np.abs(0.5 * (V[:, jlo] + V[:, jhi]) - V[:, j]) <= eps_extreme)
    cell = min(grid.p_grid.step, grid.q_grid.step)
    pde = spec.r * V
    for g, G, vals in ((grid.p_grid, spec.R, V), (grid.q_grid, spec.Q, V.T)):
        dirs = g.nodes @ G
        mags = np.abs(dirs).max(axis=1, initial=0.0)
        if not np.any(mags > 1e-14):
            continue
        eps = np.where(mags > 1e-14, cell / np.maximum(mags, 1e-300), 0.0)
        idx, w = g.interp_weights(np.maximum(g.nodes + eps[:, None] * dirs, 0.0)[:, : g.dim - 1])
        ahead = np.zeros_like(vals)
        for a in range(idx.shape[1]):
            ahead += w[:, a, None] * vals[idx[:, a], :]
        quot = np.where(eps[:, None] > 0,
                        (ahead - vals) / np.where(eps[:, None] > 0, eps[:, None], 1.0), 0.0)
        pde = pde - (quot if vals is V else quot.T)
    expr = np.maximum(np.minimum(pde, V - H), V - F)
    return {"p_extreme": p_ext, "q_extreme": q_ext, "gap_low": V - H, "gap_high": F - V,
            "pde_residual": pde, "eps_extreme": eps_extreme,
            "sub_violation": np.where(p_ext, np.maximum(expr, 0.0), 0.0),
            "super_violation": np.where(q_ext, np.maximum(-expr, 0.0), 0.0)}


@pytest.mark.parametrize("K", [2, 3])
def test_residual_check_mirror_is_bit_exact(K):
    # moving chains on both sides with N_p != N_q (13x9 nodes), and a 3-state
    # p side against a 2-state q side: the q side runs the p-side helpers on
    # V.T, and must equal the written-out q formulas bit for bit
    if K == 2:
        spec, N_p, N_q = _moving_game(), 12, 8
    else:
        spec = GameSpec(R=[[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [1.0, 1.0, -2.0]],
                        Q=[[-0.8, 0.8], [1.2, -1.2]], r=0.7,
                        f=[[2.0, 1.0], [0.5, 1.5], [0.1, 2.5]],
                        h=[[1.0, -1.0], [-1.0, 0.0], [-1.0, -0.5]],
                        p0=[1 / 3, 1 / 3, 1 / 3], q0=[0.5, 0.5])
        N_p, N_q = 6, 6
    grid = solve(spec, N_p, N_q, tol=1e-8)
    report, want = residual_check(grid), _residual_reference(grid)
    for name, value in want.items():
        got = getattr(report, name)
        assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), name
    assert report.q_extreme.sum() < report.q_extreme.size  # some q chords matched
    assert np.any(report.pde_residual != spec.r * grid.values)


def test_solve_three_state_frozen_chain():
    # K = 3, no flow, singleton opponent: the value is the concavification
    # of clip(0, h, f); checked against an independent LP oracle
    from scipy.optimize import linprog

    spec = _GAMES["cav3"]()
    N = 18
    grid = solve(spec, N, 1, tol=1e-10)
    nodes = grid.p_grid.nodes
    g = np.minimum(np.maximum(nodes @ spec.h[:, 0], 0.0), nodes @ spec.f[:, 0])

    def cav_lp(p):
        # max sum(w_i g_i) s.t. sum(w_i nodes_i) = p, w in the simplex
        res = linprog(-g, A_eq=np.vstack([nodes.T, np.ones(len(g))]),
                      b_eq=np.append(p, 1.0), bounds=(0, 1), method="highs")
        assert res.success
        return -res.fun

    rng = np.random.default_rng(8)
    for _ in range(12):
        p = rng.dirichlet([1.0, 1.0, 1.0])
        assert grid.value_at(p, [1.0]) == pytest.approx(cav_lp(p), abs=5e-2)
    for i in range(nodes.shape[0]):
        assert grid.values[i, 0] == pytest.approx(cav_lp(nodes[i]), abs=1e-6)


def test_solve_three_state_with_flow_collapsed():
    # moving 3-state chain but f == h: the sandwich pins the bilinear form,
    # exercising the barycentric flow stencil exactly (affine data)
    R = np.array([[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [1.0, 1.0, -2.0]])
    M = np.array([[1.5], [-0.25], [0.75]])
    spec = GameSpec(R=R, Q=np.zeros((1, 1)), r=0.5, f=M, h=M,
                    p0=[1 / 3, 1 / 3, 1 / 3], q0=[1.0])
    grid = solve(spec, 12, 1, tol=1e-11)
    expected = grid.p_grid.nodes @ M[:, 0]
    np.testing.assert_allclose(grid.values[:, 0], expected, atol=1e-9)


def test_solve_two_sided_moving_chains_self_consistent():
    # no closed form here: the solved grid must itself pass the residual
    # checker (violations at the grid/step error scale) and be a stable
    # point of the envelope pair
    import stopgame.examples as ex

    R = np.array([[-1.0, 1.0], [0.6, -0.6]])
    Q = np.array([[-0.8, 0.8], [1.2, -1.2]])
    spec = GameSpec(R=R, Q=Q, r=0.8,
                    f=ex.scalar_payoff_matrix(-1.0, 2.0, 3.0),
                    h=ex.scalar_payoff_matrix(-4.0, 3.0, 2.0),
                    p0=[0.5, 0.5], q0=[0.5, 0.5])
    grid = solve(spec, 100, 100, tol=1e-8)
    rep = residual_check(grid)
    assert rep.worst_sub_violation <= 0.01
    assert rep.worst_super_violation <= 0.01
    again = vex_q(cav_p(grid))
    assert np.abs(again.values - grid.values).max() < 10.0 * grid.metadata["tol"]
