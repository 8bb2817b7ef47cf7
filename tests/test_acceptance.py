"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced; every tolerance is pinned here, nothing is deferred.
"""

import dataclasses
import math
import time

import numpy as np
from scipy.integrate import solve_ivp

import stopgame.examples as ex
from conftest import game_at, z1, z2
from stopgame.conjugate import convex_conjugate_q, pair, ycoord
from stopgame.montecarlo import PureResponseFamily, exploit_gap, survivor_counts
from stopgame.pdmp import FlowIntensityStrategy, belief_consistency, sc_check
from stopgame.solver import residual_check, solve


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_example1_value_recovery(e1_spec):
    t0 = time.perf_counter()
    grid = solve(e1_spec, 200, 200, tol=1e-7)
    elapsed = time.perf_counter() - t0
    P = grid.p_grid.nodes[:, 0]
    Q = grid.q_grid.nodes[:, 0]
    oracle = np.array([[ex.e1_value(p, q) for q in Q] for p in P])
    err = float(np.abs(grid.values - oracle).max())
    report(1, err <= 0.02 and elapsed < 60.0,
           f"example-1 sup error {err:.4f} (<= 0.02), solve {elapsed:.1f}s (< 60s)")


def test_criterion_02_example2_value_recovery(e2_solved, e2_params):
    P = e2_solved.p_grid.nodes[:, 0]
    oracle = np.array([ex.e2_value(e2_params, p) for p in P])
    err = float(np.abs(e2_solved.values[:, 0] - oracle).max())
    # kink of the solved grid vs the recomputed bisection root
    second = np.diff(e2_solved.values[:, 0], 2)
    kink = P[1 + int(np.argmin(second))]
    root = ex.e2_p0(e2_params)
    report(2, err <= 0.02 and abs(kink - root) <= 0.01,
           f"example-2 sup error {err:.4f} (<= 0.02), kink {kink:.4f} vs "
           f"root {root:.4f} (within 0.01)")


def test_criterion_03_saddle_and_sandwich(e1_solved, e2_solved):
    from stopgame.grids import payoff_grids

    results = []
    for grid, N in ((e1_solved, 200), (e2_solved, 400)):
        H, F = payoff_grids(grid.spec, grid.p_grid, grid.q_grid)
        sandwich = bool(np.all(grid.values >= H) and np.all(grid.values <= F))
        V = grid.values
        conc = float((V[:-2, :] + V[2:, :] - 2 * V[1:-1, :]).max(initial=-np.inf))
        if grid.q_grid.n_nodes >= 3:
            conv = float(-(V[:, :-2] + V[:, 2:] - 2 * V[:, 1:-1]).min(initial=np.inf))
        else:
            conv = 0.0
        results.append((sandwich, max(conc, 0.0), max(conv, 0.0), 1e-7 * N))
    ok = all(s and c1 <= tol and c2 <= tol for s, c1, c2, tol in results)
    detail = "; ".join(
        f"sandwich={'exact' if s else 'VIOLATED'}, concavity slack {c1:.2e}, "
        f"convexity slack {c2:.2e} (<= {tol:.0e})" for s, c1, c2, tol in results)
    report(3, ok, detail)


def test_criterion_04_residual_characterization(e1_oracle_grid, e2_oracle_grid):
    rep1 = residual_check(e1_oracle_grid)
    rep2 = residual_check(e2_oracle_grid)
    clean = (max(rep1.worst_sub_violation, rep1.worst_super_violation) <= 5.0 / 200
             and max(rep2.worst_sub_violation, rep2.worst_super_violation) <= 5.0 / 400)
    bumped1 = e1_oracle_grid.values.copy()
    bumped1[50, 140] += 0.1  # chart (0.25, 0.70)
    viol1 = residual_check(e1_oracle_grid.with_values(bumped1)).worst_sub_violation
    bumped2 = e2_oracle_grid.values.copy()
    bumped2[200, 0] += 0.1  # chart p = 0.5
    viol2 = residual_check(e2_oracle_grid.with_values(bumped2)).worst_sub_violation
    report(4, clean and viol1 >= 0.05 and viol2 >= 0.05,
           f"oracle residuals within 5/N "
           f"(e1 {max(rep1.worst_sub_violation, rep1.worst_super_violation):.2e}, "
           f"e2 {max(rep2.worst_sub_violation, rep2.worst_super_violation):.2e}); "
           f"bump violations {viol1:.3f}, {viol2:.3f} (>= 0.05)")


def test_criterion_05_dual_equivalence():
    def value_fn(pv, qv):
        return ex.e1_value(float(pv[0]), float(qv[0]))

    worst = 0.0
    for p in np.linspace(0.0, 1.0, 200):
        for y in np.linspace(-1.0, 3.0, 200):
            num = convex_conjugate_q(value_fn, pair(p), ycoord(y))
            worst = max(worst, abs(num - ex.e1_dual(p, y)[0]))
    seams_ok = True
    for p in np.linspace(0.5, 1.0, 64):
        y = 4.0 * p - 2.0
        d_val = -2.0 * math.sqrt(2.0 - y) * math.sqrt(1.0 - p) + 3.0 - 2.0 * p
        seams_ok &= abs(0.5 * y - (2 * p - 1)) <= 1e-12
        seams_ok &= abs(d_val - (2 * p - 1)) <= 1e-12
    for p in np.linspace(0.0, 1.0, 64):
        y = 1.0 + p
        d_val = -2.0 * math.sqrt(2.0 - y) * math.sqrt(1.0 - p) + 3.0 - 2.0 * p
        seams_ok &= abs(d_val - 1.0) <= 1e-12
        seams_ok &= abs((y - p) - 1.0) <= 1e-12
    report(5, worst <= 1e-6 and seams_ok,
           f"conjugate vs zone formulas worst gap {worst:.2e} (<= 1e-6) on "
           f"200x200; seam identities exact: {seams_ok}")


def _e1_samples_1000():
    rng = np.random.default_rng(100)
    pts = []
    while len(pts) < 1000:
        p = rng.uniform(0.5, 1.0)
        pts.append(z1(p, rng.uniform(-2.0, 0.0)))
        p = rng.uniform(0.02, 0.48)
        pts.append(z1(p, rng.uniform(-1.0, (1 - 2 * p) / (1 - p))))
        p = rng.uniform(0.02, 0.48)
        pts.append(z1(p, (1 - 2 * p) / (1 - p)))
        pts.append(z1(0.0, rng.uniform(-1.0, 3.0)))
        pts.append(z1(1.0, rng.uniform(2.0, 4.0)))
        p = rng.uniform(0.55, 0.95)
        pts.append(z1(p, rng.uniform(1e-3, 4 * p - 2)))
        p = rng.uniform(0.1, 0.9)
        lo = 4 * p - 2 if p >= 0.5 else (1 - 2 * p) / (1 - p)
        pts.append(z1(p, rng.uniform(lo + 1e-3, 1 + p - 1e-3)))
        p = rng.uniform(0.05, 0.9)
        pts.append(z1(p, rng.uniform(1 + p + 1e-3, 4.0)))
    return pts[:1000]


def _e2_samples_1000(e2_params):
    rng = np.random.default_rng(101)
    p0 = ex.e2_p0(e2_params)
    pts = []
    while len(pts) < 1000:
        pts.append(z2(rng.uniform(0.0, p0)))
        pts.append(z2(p0))
        pts.append(z2(1.0))
        pts.append(z2(rng.uniform(p0 + 1e-4, 0.999)))
    return pts[:1000]


def test_criterion_06_structure_conditions(e1_char, e2_char, e2_params):
    rep1 = sc_check(e1_char, ex.e1_vstar_full, _e1_samples_1000(), tol=1e-6)
    vstar2 = ex.e2_vstar_full(e2_params)
    rep2 = sc_check(e2_char, vstar2, _e2_samples_1000(e2_params), tol=1e-6)

    small1 = _e1_samples_1000()[:240]
    small2 = _e2_samples_1000(e2_params)[:240]
    scaled = dataclasses.replace(e1_char, lam=lambda z: 1.1 * e1_char.lam(z))
    fail_a = not sc_check(scaled, ex.e1_vstar_full, small1, tol=1e-6).passed
    shifted = dataclasses.replace(e2_char, phi=lambda z: np.array([0.9, 0.1]))
    fail_b = not sc_check(shifted, vstar2, small2, tol=1e-6).passed
    A = e2_params.R.T
    drifted = dataclasses.replace(
        e2_char, alpha=lambda z: A @ np.asarray(z, dtype=float), snap=None)
    fail_c = not sc_check(drifted, vstar2, small2,
                          tol=1e-6).passed_by_condition["sc2_invariant"]
    report(6, rep1.passed and rep2.passed and fail_a and fail_b and fail_c,
           f"sc_check passes both examples on 1000 samples (tol 1e-6); "
           f"perturbations rejected: scaled lam={fail_a}, shifted phi={fail_b}, "
           f"nonzero drift at kink={fail_c}")


def test_criterion_07_optimality_by_best_response(e1_spec, e2_spec, e2_params):
    t0 = time.perf_counter()
    lines = []
    ok = True
    for p in (0.2, 1.0 / 3.0, 0.5):
        spec = game_at(e2_spec, p, None)
        strat = ex.e2_optimal_mu(e2_params, p)
        gap = exploit_gap(spec, strat, ex.e2_value(e2_params, p),
                          PureResponseFamily.for_game(spec), n=100_000,
                          seed=202)
        ok &= gap.gap >= -0.05 - 3.0 * gap.std_error
        lines.append(f"e2 p={p:.3f}: gap {gap.gap:+.4f} (se {gap.std_error:.4f})")
    for (p, q) in ((0.25, 0.5), (0.75, 0.75), (0.75, 0.25)):
        spec = game_at(e1_spec, p, q)
        strat = ex.e1_optimal_mu(p, q)
        gap = exploit_gap(spec, strat, ex.e1_value(p, q),
                          PureResponseFamily.for_game(spec), n=100_000,
                          seed=203)
        ok &= gap.gap >= -0.05 - 3.0 * gap.std_error
        lines.append(f"e1 ({p},{q}): gap {gap.gap:+.4f} (se {gap.std_error:.4f})")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(7, ok, "; ".join(lines) + f"; total {elapsed:.0f}s (< 300s)")


def test_criterion_08_suboptimality_detection(e2_spec, e2_params):
    from stopgame.pdmp import StopNowStrategy

    p = 1.0 / 3.0
    spec = game_at(e2_spec, p, None)
    claim = ex.e2_value(e2_params, p)
    gap = exploit_gap(spec, StopNowStrategy(), claim,
                      PureResponseFamily.for_game(spec), n=100_000, seed=204)
    expected = e2_params.h(p) - e2_params.f(p)
    report(8, abs(gap.gap - expected) <= 0.05 and gap.gap < -3 * gap.std_error,
           f"stop-at-0 gap {gap.gap:+.4f} vs h(1/3)-f(1/3) = {expected:+.4f} "
           f"(within 0.05), significantly negative")


def test_criterion_09_pure_strategy_gap():
    lo, hi = ex.e1_pure_values(0.25, 0.75)
    v = ex.e1_value(0.25, 0.75)
    report(9, hi - lo == 1.0 / 16.0 and lo < v < hi and v == 0.0,
           f"pure-strategy gap {hi - lo} == 1/16 exactly, straddling V = {v}")


def test_criterion_10_belief_consistency(e2_char, e2_params, e1_char):
    p0 = ex.e2_p0(e2_params)
    strat = ex.e2_optimal_mu(e2_params, p0)
    rep = belief_consistency(strat, e2_params.R, t=1.0, n=100_000, seed=205)
    ok_e2 = rep.consistent and abs(rep.predicted[0] - p0) < 1e-9

    # frozen game: belief rides p' = -(r/2)(1-2p)(1-p); compare the
    # simulated conditional law against an independent integrator
    r = 1.0
    sol = solve_ivp(lambda t, w: [-0.5 * r * (1 - 2 * w[0]) * (1 - w[0])],
                    (0.0, 0.6), [0.25], dense_output=True, rtol=1e-11, atol=1e-13)
    strat1 = FlowIntensityStrategy(e1_char, z1(0.25, 2.0 / 3.0))
    n = 100_000
    t_check = 0.5
    # frozen chain: the state at t_check is the initial state
    counts = survivor_counts(strat1, np.zeros((2, 2)), np.array([0.25, 0.75]), t_check,
                             1.0, n, 206)
    survivors, in_state0 = int(counts.sum()), int(counts[0])
    pred = float(sol.sol(t_check)[0])
    emp = in_state0 / survivors
    se = math.sqrt(pred * (1 - pred) / survivors)
    ok_e1 = abs(emp - pred) <= 3.0 * se
    report(10, ok_e2 and ok_e1,
           f"e2 belief at t=1: z={rep.z_scores[0]:+.2f} (|z|<=3); "
           f"e1 flow belief at t={t_check}: emp {emp:.4f} vs ode {pred:.4f} "
           f"(3se = {3 * se:.4f})")


def test_criterion_11_blind_benchmark(e2_params):
    blind = ex.e2_blind_value(e2_params)
    p0 = ex.e2_p0(e2_params)
    cont = max(abs(blind.arc(blind.p1) - e2_params.f(blind.p1)),
               abs(blind.arc(blind.p2) - e2_params.h(blind.p2)))
    fit = abs(blind.arc_slope(blind.p2) - (e2_params.h1 - e2_params.h0))
    order = blind.p1 < p0 < blind.p2 < e2_params.p_star
    gap = max(abs(blind(p) - ex.e2_value(e2_params, p))
              for p in np.linspace(blind.p1, blind.p2, 201))
    report(11, cont <= 1e-6 and fit <= 1e-6 and order and gap > 0.05,
           f"continuity {cont:.1e}, smooth fit {fit:.1e} (<= 1e-6), ordering "
           f"p1={blind.p1:.3f} < p0={p0:.3f} < p2={blind.p2:.3f} < "
           f"p*={e2_params.p_star}, max |S - V| = {gap:.3f} (> 0.05)")
