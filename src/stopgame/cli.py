"""Command-line entry point with reproducible, file-based workflows.

Exit codes: 0 success, 1 input error (bad flags, malformed files,
dimension mismatches), 2 integrity or convergence failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .errors import InputError, IntegrityError, StopGameError
from .grids import write_value_csv
from .model import GameSpec, philox_rng
from .montecarlo import RESPONSE_TIMES, PureResponseFamily, exploit_gap
from .pdmp import FlowIntensityStrategy, SplitThenFlowStrategy, simulate_Z
from . import examples as ex
from .serialize import strategy_from_json, strategy_to_json
from .solver import solve
from .conjugate import convex_surface_q, pair, ycoord

GAP_SLACK = 0.05
DUAL_GRID = "200"  # dual --game defaults
DUAL_TOL = 1e-7
YBOX = "-1,3"  # dual
_NUMBER = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"  # unsigned, as float() reads it


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1,3 or -1.5,-0.5 is an argument, not a flag
        self._negative_number_matcher = re.compile(rf"^-{_NUMBER}(,[-+]?{_NUMBER})*$")

    def error(self, message):  # argparse would exit(2); inputs errors are exit 1
        raise InputError(message)


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return x


def _build_parser() -> _Parser:
    p = _Parser(prog="stopgame",
                description="solve, dualize, simulate and verify two-player "
                            "stopping games with privately observed chains")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # the e2 game's parameters, for example and strategy
    e2 = argparse.ArgumentParser(add_help=False)
    e2.add_argument("--r", type=float, help="discount rate (default 0.1 for e2, 1 for an "
                                            "e1 strategy)")
    e2.add_argument("--a", type=float, help="e2 only (default 1)")
    e2.add_argument("--b", type=float, help="e2 only (default 1)")
    e2.add_argument("--h", help="e2 only: h(0),h(1) chart endpoints (default 0.5,2)")
    e2.add_argument("--f", help="e2 only: f(0),f(1) chart endpoints (default 1,3)")

    s = sub.add_parser("solve", help="compute the value grid of a game")
    s.add_argument("--game", required=True)
    s.add_argument("--grid", default="201", help="nodes per side, N or NxM: at least 2 on a "
                                                 "side with two or more states, and one node "
                                                 "(N, Nx1 or 1xM) on a one-state side")
    s.add_argument("--tol", type=_positive_float, default=1e-7)
    s.add_argument("--max-iter", type=_positive_int, default=200_000)
    s.add_argument("--out", required=True)

    d = sub.add_parser("dual", help="export a dual surface p,y,value,zone")
    source = d.add_mutually_exclusive_group()
    source.add_argument("--oracle", choices=["e1"], help="use the closed-form surface")
    source.add_argument("--game", help="or: solve this game and conjugate numerically")
    d.add_argument("--grid", help=f"--game only (default {DUAL_GRID})")
    d.add_argument("--tol", type=_positive_float, help=f"--game only (default {DUAL_TOL:g})")
    d.add_argument("--ybox", help=f"y range lo,hi with lo < hi (default {YBOX})")
    d.add_argument("--yres", type=_positive_int, default=200)
    d.add_argument("--pres", type=_positive_int, default=200)
    d.add_argument("--out", required=True)

    e = sub.add_parser("example", parents=[e2], help="emit closed-form benchmark curves")
    e.add_argument("which", choices=["e1", "e2"])
    e.add_argument("--what", default="value", choices=["value", "pure", "blind"])
    e.add_argument("--res", type=_positive_int, default=200)
    e.add_argument("--out", required=True)

    t = sub.add_parser("strategy", parents=[e2], help="build an optimal-strategy descriptor")
    t.add_argument("--family", required=True, choices=["e1", "e2"])
    t.add_argument("--p", type=float, required=True)
    t.add_argument("--q", type=float, help="e1 only (default 0.5)")
    t.add_argument("--out", required=True)

    m = sub.add_parser("simulate", help="sample one auxiliary-process path")
    m.add_argument("--strategy", required=True)
    m.add_argument("--horizon", type=_positive_float, default=10.0)
    m.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    m.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="verification reports")
    v.add_argument("what", choices=["optimality"])
    v.add_argument("--game", required=True)
    v.add_argument("--strategy", required=True)
    v.add_argument("--n", type=_positive_int, default=100_000)
    v.add_argument("--times", type=_positive_int, default=RESPONSE_TIMES)
    v.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    v.add_argument("--out")
    return p


def _parse_grid(text: str, spec: GameSpec) -> tuple[int, int]:
    """Node counts per side ("201x201" or "401") -> grid resolutions.

    A side with two or more states takes at least 2 nodes.  A one-state
    side has one node: it takes ``N`` or a count of 1, and its resolution
    is 1.
    """
    parts = text.lower().split("x")
    try:
        counts = [int(x) for x in parts]
    except ValueError:
        counts = []
    if len(counts) == 1:
        counts = [1 if states == 1 else counts[0] for states in (spec.K, spec.L)]
    if len(counts) != 2:
        raise InputError(f"bad --grid value {text!r}, expected nodes N or NxM")
    for side, states, count in (("p", spec.K, counts[0]), ("q", spec.L, counts[1])):
        if states == 1 and count != 1:
            raise InputError(f"bad --grid value {text!r}: the {side} side has one state, "
                             "so one node (N or a count of 1)")
        if states > 1 and count < 2:
            raise InputError(f"bad --grid value {text!r}: the {side} side has {states} "
                             "states, so at least 2 nodes")
    return max(counts[0] - 1, 1), max(counts[1] - 1, 1)


def _parse_pair_arg(text: str, name: str) -> tuple[float, float]:
    try:
        a, b = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad {name} value {text!r}, expected lo,hi") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError(f"bad {name} value {text!r}, expected finite numbers")
    return a, b


def _read_game(path: str) -> GameSpec:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"game file not found: {path}")
    return GameSpec.from_json(p.read_text())


def _read_strategy(path: str):
    """``(strategy, value_claim_or_None)`` from a strategy file."""
    p = Path(path)
    if not p.is_file():
        raise InputError(f"strategy file not found: {path}")
    return strategy_from_json(p.read_text())


def _check_out(path: str) -> Path:
    out = Path(path)
    if out.parent and not out.parent.exists():
        raise InputError(f"output directory does not exist: {out.parent}")
    return out


def _e2_params(args) -> ex.Example2Params:
    """The reference e2 game with the flags that were given."""
    given = {k: getattr(args, k) for k in ("a", "b", "r") if getattr(args, k) is not None}
    if args.h is not None:
        given["h0"], given["h1"] = _parse_pair_arg(args.h, "--h")
    if args.f is not None:
        given["f0"], given["f1"] = _parse_pair_arg(args.f, "--f")
    return dataclasses.replace(ex.REFERENCE_E2, **given)


def _reject_flags(args, names, owner: str) -> None:
    given = [f"--{n}" for n in names if getattr(args, n) is not None]
    if given:
        raise InputError(f"{owner} takes no {' '.join(given)}")


def _grid_csv_rows(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    spec = _read_game(args.game)
    out = _check_out(args.out)
    n_p, n_q = _parse_grid(args.grid, spec)
    grid = solve(spec, n_p, n_q, tol=args.tol, max_iter=args.max_iter)
    write_value_csv(grid, out)
    print(f"solved in {grid.metadata['iterations']} sweeps "
          f"(residual {grid.metadata['residual']:.3e}) -> {out}")
    return 0


def _cmd_dual(args) -> int:
    out = _check_out(args.out)
    ylo, yhi = _parse_pair_arg(YBOX if args.ybox is None else args.ybox, "--ybox")
    if not ylo < yhi:
        raise InputError(f"bad --ybox value {args.ybox!r}, expected lo < hi")
    ps = np.linspace(0.0, 1.0, args.pres + 1)
    ys = np.linspace(ylo, yhi, args.yres + 1)
    if args.oracle == "e1":
        _reject_flags(args, ("grid", "tol"), "--oracle e1")
        rows = [(float(p), float(y), *ex.e1_dual(float(p), float(y))) for p in ps for y in ys]
    elif args.game:
        spec = _read_game(args.game)
        if spec.L > 2:
            raise InputError("dual export needs a two-state (or singleton) q side")
        n_p, n_q = _parse_grid(DUAL_GRID if args.grid is None else args.grid, spec)
        grid = solve(spec, n_p, n_q, tol=DUAL_TOL if args.tol is None else args.tol)
        surface = convex_surface_q(grid, [pair(p) for p in ps], [ycoord(y)[: spec.L] for y in ys])
        rows = [(float(p), float(y), value, "")
                for p, line in zip(ps, surface.tolist()) for y, value in zip(ys, line)]
    else:
        raise InputError("dual needs either --oracle e1 or --game")
    out.write_text(_grid_csv_rows("p,y,value,zone", rows))
    print(f"dual surface ({len(rows)} rows) -> {out}")
    return 0


def _cmd_example(args) -> int:
    out = _check_out(args.out)
    grid = np.linspace(0.0, 1.0, args.res + 1)
    if args.which == "e1":
        _reject_flags(args, ("r", "a", "b", "h", "f"), "e1")
        if args.what == "value":
            rows = [(float(p), float(q), ex.e1_value(float(p), float(q)))
                    for p in grid for q in grid]
            out.write_text(_grid_csv_rows("p,q,value", rows))
        elif args.what == "pure":
            rows = []
            for p in grid:
                for q in grid:
                    lo, hi = ex.e1_pure_values(float(p), float(q))
                    rows.append((float(p), float(q), lo, hi))
            out.write_text(_grid_csv_rows("p,q,lower,upper", rows))
        else:
            raise InputError("e1 supports --what value|pure")
        print(f"example e1 {args.what} -> {out}")
        return 0
    params = _e2_params(args)
    if args.what not in ("value", "blind"):
        raise InputError("e2 supports --what value|blind")
    curve = ex.e2_blind_value(params) if args.what == "blind" else partial(ex.e2_value, params)
    out.write_text(_grid_csv_rows("p,value", [(float(p), curve(float(p))) for p in grid]))
    print(f"example e2 {args.what} (case {ex.e2_case(params).value}) -> {out}")
    return 0


def _cmd_strategy(args) -> int:
    out = _check_out(args.out)
    if args.family == "e1":
        _reject_flags(args, ("a", "b", "h", "f"), "e1")
        r = args.r if args.r is not None else 1.0
        q = args.q if args.q is not None else 0.5
        strat = ex.e1_optimal_mu(args.p, q, r)
        claim = ex.e1_value(args.p, q)
        point = {"p": args.p, "q": q, "r": r}
    else:
        _reject_flags(args, ("q",), "e2")
        params = _e2_params(args)
        strat = ex.e2_optimal_mu(params, args.p)
        claim = ex.e2_value(params, args.p)
        point = {"p": args.p}
    out.write_text(strategy_to_json(strat, value_claim=claim, point=point) + "\n")
    print(f"strategy ({strat.case}) with value claim {claim:.6f} -> {out}")
    return 0


def _cmd_simulate(args) -> int:
    out = _check_out(args.out)
    strat, _ = _read_strategy(args.strategy)
    # a split rule's process starts from its flow start
    flow = strat.flow if isinstance(strat, SplitThenFlowStrategy) else strat
    if not isinstance(flow, FlowIntensityStrategy):
        raise InputError(f"{strat.case!r} strategies carry no auxiliary process")
    char = flow.char
    zpath = simulate_Z(char, flow.z0, args.horizon, philox_rng(args.seed))
    rows = []
    for t, z in zip(zpath.ts, zpath.zs):
        rows.append((float(t), *map(float, z), 0))
    if zpath.jumped:
        rows.append((float(zpath.jump_time), *map(float, zpath.post_jump), 1))
    p_cols = ",".join(f"p{i}" for i in range(char.dim_p))
    y_cols = "".join(f",y{i}" for i in range(char.dim_y))
    out.write_text(_grid_csv_rows(f"t,{p_cols}{y_cols},jumped", rows))
    print(f"auxiliary path ({len(rows)} samples, jumped={zpath.jumped}) -> {out}")
    return 0


def _cmd_verify(args) -> int:
    spec = _read_game(args.game)
    strat, claim = _read_strategy(args.strategy)
    if claim is None:
        raise InputError("strategy file carries no value_claim to verify against")
    family = PureResponseFamily.for_game(spec, n=args.times)
    report = exploit_gap(spec, strat, float(claim), family, args.n,
                         seed=args.seed)
    payload = report.to_payload()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        _check_out(args.out).write_text(text)
    sys.stdout.write(text)
    failed = report.gap < -3.0 * report.std_error - GAP_SLACK
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"solve": _cmd_solve, "dual": _cmd_dual, "example": _cmd_example,
                   "strategy": _cmd_strategy, "simulate": _cmd_simulate,
                   "verify": _cmd_verify}[args.command]
        return handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (IntegrityError, StopGameError) as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
