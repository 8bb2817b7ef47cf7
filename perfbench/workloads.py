"""The four benchmark workloads: inputs, the timed job, output checks and layer probes.

Each workload is four functions and the speed probe that suits its work
(see ``probes``):

* ``setup(size, seed, seed2, tracer)`` builds the inputs (games, strategies
  with their serialize round trip, response families).  This is what
  ``setup_s`` measures; ``stopgame.examples`` is only called here and in
  the checks, never inside a timed job.
* ``job(inputs, tracer, workdir)`` is the user-visible work that ``wall_s``
  times.  Spans wrap every call into a public function of the package.
* ``check(inputs, output, checker)`` compares the output against the closed
  forms of ``stopgame.examples`` or the residual checker.
* ``probe(inputs, output, tracer, checker)`` runs in the traced run only: it
  replays a sample of the job's inner steps through public functions so the
  per-layer costs can be read off the spans, and checks that the replay is
  faithful to the real job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import stopgame.examples as ex
from stopgame import (ChainSampler, ConvergenceError, GameSpec,
                      PureResponseFamily, SimplexGrid, ValueGrid, cav_p,
                      convex_conjugate_q, exploit_gap, obstacle_step,
                      philox_rng, read_value_csv, residual_check, solve, vex_q,
                      write_value_csv)
from stopgame.conjugate import pair, ycoord
from stopgame.grids import payoff_grids
from stopgame.serialize import strategy_from_json, strategy_to_json
from stopgame.solver import default_time_step

from probes import interpreted_probe, mixed_probe

# Sizes per workload; TINY is the harness self-test, FULL is the benchmark.
FULL = {
    "frozen-e1": {"N": 100, "tol": 1e-7, "dual_n": 21},
    "onesided-e2": {"N": 400, "tol": 1e-9},
    "moving-2d": {"N": 40, "tol": 1e-8},
    "certify-mc": {"n": 20_000},
}
TINY = {
    "frozen-e1": {"N": 20, "tol": 1e-7, "dual_n": 3},
    "onesided-e2": {"N": 40, "tol": 1e-9},
    "moving-2d": {"N": 14, "tol": 1e-8},
    "certify-mc": {"n": 400},
}

REPLAY_SWEEPS = 10        # sweeps replayed per traced solve workload
REPLAY_REPS = 1000        # replications replayed per traced certificate
GAP_SLACK = 0.05          # the same slack as `stopgame verify`


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    job: Callable
    check: Callable
    probe: Callable
    speed_probe: Callable


def _game_at(spec: GameSpec, p: float, q: float | None) -> GameSpec:
    """The same game started from chart point (p, q)."""
    q0 = [q, 1.0 - q] if spec.L == 2 else [1.0]
    return GameSpec(R=spec.R, Q=spec.Q, r=spec.r, f=spec.f, h=spec.h,
                    p0=[p, 1.0 - p], q0=q0)


def _moving_game() -> GameSpec:
    # the two-sided game of test_solve_two_sided_moving_chains_self_consistent
    return GameSpec(R=[[-1.0, 1.0], [0.6, -0.6]], Q=[[-0.8, 0.8], [1.2, -1.2]],
                    r=0.8, f=ex.scalar_payoff_matrix(-1.0, 2.0, 3.0),
                    h=ex.scalar_payoff_matrix(-4.0, 3.0, 2.0),
                    p0=[0.5, 0.5], q0=[0.5, 0.5])


# --------------------------------------------------------------------------
# solve workloads


def _solve_setup(spec_fn, N_q_fn):
    def setup(size, seed, seed2, tr):
        N = size["N"]
        return {"spec": spec_fn(), "N_p": N, "N_q": N_q_fn(N), "tol": size["tol"],
                "dual_n": size.get("dual_n", 0)}
    return setup


def _solve_job(residuals: bool):
    def job(inp, tr, workdir: Path):
        with tr.span("solver.solve"):
            grid = solve(inp["spec"], inp["N_p"], inp["N_q"], tol=inp["tol"],
                         max_iter=100_000)
        out = {"grid": grid}
        if residuals:
            with tr.span("solver.residual_check"):
                out["report"] = residual_check(grid)
        csv = workdir / "value.csv"
        with tr.span("grids.write_value_csv"):
            write_value_csv(grid, csv)
        out["csv"] = csv
        n = inp["dual_n"]
        if n:
            ps, ys = np.linspace(0.0, 1.0, n), np.linspace(-1.0, 3.0, n)
            dual = np.empty((n, n))
            for i, p in enumerate(ps):
                for j, y in enumerate(ys):
                    with tr.span("conjugate.convex_conjugate_q"):
                        dual[i, j] = convex_conjugate_q(grid, pair(p), ycoord(y))
            out["dual"] = (ps, ys, dual)
        return out
    return job


def _check_csv(out, chk):
    p_chart, q_chart, values = read_value_csv(out["csv"])
    grid = out["grid"]
    same = (np.array_equal(p_chart, grid.p_grid.nodes[:, 0])
            and np.array_equal(q_chart, grid.q_grid.nodes[:, 0])
            and np.array_equal(values, grid.values))
    chk("csv_roundtrip", 0.0 if same else 1.0, 0.0, same)


def _check_frozen(inp, out, chk):
    grid = out["grid"]
    P, Q = grid.p_grid.nodes[:, 0], grid.q_grid.nodes[:, 0]
    oracle = np.array([[ex.e1_value(p, q) for q in Q] for p in P])
    err = float(np.abs(grid.values - oracle).max())
    chk("value_err", err, 0.02, err <= 0.02)
    ps, ys, dual = out["dual"]
    exact = np.array([[ex.e1_dual(p, y)[0] for y in ys] for p in ps])
    derr = float(np.abs(dual - exact).max())
    chk("dual_err", derr, 0.02, derr <= 0.02)
    _check_csv(out, chk)


def _check_onesided(inp, out, chk):
    grid = out["grid"]
    params = ex.REFERENCE_E2
    P = grid.p_grid.nodes[:, 0]
    oracle = np.array([ex.e2_value(params, p) for p in P])
    err = float(np.abs(grid.values[:, 0] - oracle).max())
    chk("value_err", err, 0.02, err <= 0.02)
    kink = P[1 + int(np.argmin(np.diff(grid.values[:, 0], 2)))]
    miss = abs(float(kink) - ex.e2_p0(params))
    chk("kink_err", miss, 0.01, miss <= 0.01)
    _check_csv(out, chk)


def _check_moving(inp, out, chk):
    rep = out["report"]
    worst = max(rep.worst_sub_violation, rep.worst_super_violation)
    chk("residual_max", worst, 0.01, worst <= 0.01)
    grid = out["grid"]
    drift = float(np.abs(vex_q(cav_p(grid)).values - grid.values).max())
    limit = 10.0 * inp["tol"]
    chk("envelope_fixed_point", drift, limit, drift < limit)
    _check_csv(out, chk)


def _replay_sweeps(V: ValueGrid, delta: float, tr, phase: str) -> float:
    """REPLAY_SWEEPS sweeps vex_q(cav_p(obstacle_step(V, delta))); the last change."""
    change = math.nan
    for _ in range(REPLAY_SWEEPS):
        with tr.span("replay.sweep", phase=phase):
            with tr.span("solver.obstacle_step", phase=phase):
                stepped = obstacle_step(V, delta)
            with tr.span("solver.cav_p", phase=phase):
                hull = cav_p(stepped)
            with tr.span("solver.vex_q", phase=phase):
                new = vex_q(hull)
        change = float(np.abs(new.values - V.values).max())
        V = new
    return change


def _solve_probe(inp, out, tr, chk):
    """Replay sweeps through the public functions the solver is built from.

    From (h+f)/2, after REPLAY_SWEEPS sweeps the sup-norm change must equal,
    bit for bit, the residual that ``solve`` reports when stopped after as
    many sweeps.  The envelope's cost depends on the iterate (the monotone
    chain pops a point for every node of a collinear stretch), so the
    per-call times are read on sweeps replayed from the converged grid,
    which most sweeps of a solve resemble.
    """
    spec, N_p, N_q = inp["spec"], inp["N_p"], inp["N_q"]
    p_grid, q_grid = SimplexGrid(spec.K, N_p), SimplexGrid(spec.L, N_q)
    H, F = payoff_grids(spec, p_grid, q_grid)
    delta = default_time_step(spec, N_p, N_q)
    change = _replay_sweeps(ValueGrid(p_grid, q_grid, 0.5 * (H + F), spec), delta, tr, "start")
    _replay_sweeps(out["grid"], delta, tr, "converged")
    try:
        solve(spec, N_p, N_q, tol=1e-300, max_iter=REPLAY_SWEEPS)
        reported = math.nan
    except ConvergenceError as exc:
        reported = exc.residual
    chk("replay_bitwise", abs(change - reported), 0.0, change == reported)
    if "report" not in out:
        with tr.span("solver.residual_check"):
            residual_check(out["grid"])
    return {"nodes": p_grid.n_nodes * q_grid.n_nodes,
            "sweeps": out["grid"].metadata["iterations"],
            "csv_bytes": out["csv"].stat().st_size
            + out["csv"].with_name(out["csv"].name + ".meta.json").stat().st_size}


# --------------------------------------------------------------------------
# Monte Carlo certification


def _certify_setup(size, seed, seed2, tr):
    e2 = ex.REFERENCE_E2
    plans = (
        ("e2", _game_at(ex.e2_game(e2), 1.0 / 3.0, None),
         lambda: ex.e2_optimal_mu(e2, 1.0 / 3.0), ex.e2_value(e2, 1.0 / 3.0), seed),
        ("e1", _game_at(ex.e1_game(1.0), 0.75, 0.75),
         lambda: ex.e1_optimal_mu(0.75, 0.75), ex.e1_value(0.75, 0.75), seed2),
    )
    certs = []
    for tag, spec, build, claim, s in plans:
        with tr.span("pdmp.build_strategy", cert=tag):
            original = build()
        # as `stopgame strategy` writes the file and `stopgame verify` reads it
        with tr.span("serialize.roundtrip", cert=tag):
            strategy, claim = strategy_from_json(strategy_to_json(original, value_claim=claim))
        certs.append({"tag": tag, "spec": spec, "original": original, "strategy": strategy,
                      "claim": float(claim), "family": PureResponseFamily.for_game(spec),
                      "seed": s})
    return {"certs": certs, "n": size["n"]}


def _certify_job(inp, tr, workdir: Path):
    out = {}
    for c in inp["certs"]:
        with tr.span("montecarlo.exploit_gap", cert=c["tag"]):
            out[c["tag"]] = exploit_gap(c["spec"], c["strategy"], c["claim"], c["family"],
                                        inp["n"], seed=c["seed"], threads=1)
    return out


def _check_certify(inp, out, chk):
    for c in inp["certs"]:
        rep = out[c["tag"]]
        floor = -3.0 * rep.std_error - GAP_SLACK
        chk(f"gap.{c['tag']}", rep.gap, floor, rep.gap >= floor)


def _certify_probe(inp, out, tr, chk):
    """Replay replications in ``_response_chunk``'s stream order.

    Per replication: ``philox_rng(seed, i)``, then the own path X, the
    opponent path Y, then the stopping time.  The round-tripped strategy
    must stop exactly when the original does on the same streams.
    """
    extra = {}
    for c in inp["certs"]:
        tag, spec, seed = c["tag"], c["spec"], c["seed"]
        horizon = max(float(c["family"].times[-2]), 1.0)  # _response_chunk's horizon
        sx, sy = ChainSampler(spec.R, spec.p0), ChainSampler(spec.Q, spec.q0)
        stops = {"zero": 0, "flow": 0, "never": 0}
        jumps = mismatches = 0
        reps = min(REPLAY_REPS, inp["n"])
        for i in range(reps):
            with tr.span("replay.replication", cert=tag):
                with tr.span("model.philox_rng", cert=tag):
                    rng = philox_rng(seed, i)
                with tr.span("model.sample", cert=tag):
                    X = sx.sample(horizon, rng)
                    Y = sy.sample(horizon, rng)
                with tr.span("pdmp.stopping_time", cert=tag):
                    mu = c["strategy"].stopping_time(X, rng)
            rng = philox_rng(seed, i)
            X0, Y0 = sx.sample(horizon, rng), sy.sample(horizon, rng)
            mismatches += c["original"].stopping_time(X0, rng) != mu
            jumps += X.n_jumps + Y.n_jumps
            stops["zero" if mu == 0.0 else "never" if math.isinf(mu) else "flow"] += 1
        chk(f"replay_roundtrip.{tag}", float(mismatches), 0.0, mismatches == 0)
        flow = getattr(c["strategy"], "flow", c["strategy"])  # split rules wrap a flow rule
        extra[tag] = {"n": inp["n"], "reps": reps, "jumps_per_path": jumps / reps,
                      "stop_share": {k: v / reps for k, v in stops.items()},
                      "orbit_steps": int(flow.orbit.ts.size),
                      "candidates": int(c["spec"].L * c["family"].times.size)}
    return extra


WORKLOADS = {w.name: w for w in (
    Workload("frozen-e1", _solve_setup(lambda: ex.e1_game(r=1.0), lambda N: N),
             _solve_job(residuals=False), _check_frozen, _solve_probe, interpreted_probe),
    Workload("onesided-e2", _solve_setup(lambda: ex.e2_game(ex.REFERENCE_E2), lambda N: 1),
             _solve_job(residuals=False), _check_onesided, _solve_probe, interpreted_probe),
    Workload("moving-2d", _solve_setup(_moving_game, lambda N: N),
             _solve_job(residuals=True), _check_moving, _solve_probe, interpreted_probe),
    Workload("certify-mc", _certify_setup, _certify_job, _check_certify, _certify_probe,
             mixed_probe),
)}
