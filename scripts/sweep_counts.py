"""Count the sweeps `solve` takes on the benchmark games, on one or more source trees.

The games are example 2 on N + 1 nodes for N in 100, 101, 200, 400, 401
and 800 at ``tol = 1e-9``, the two-sided moving-chain game of the
benchmark on 41x41 nodes at ``tol = 1e-8`` and example 1 on 101x101
nodes at ``tol = 1e-7``.  Each tree runs in a fresh interpreter that
imports ``stopgame`` from its ``src`` and prints, per game, the sweeps,
``error_bound``, the ``mixing`` record (``null`` where the tree does not
mix) and the wall time of the solve.  The last column is the first 12
hex digits of a SHA-256 of the values, so two trees that end on the same
grid bit for bit show the same digest.

    python3 scripts/sweep_counts.py                              # this checkout
    python3 scripts/sweep_counts.py --tree ../parent --tree .    # compare two trees
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve()
E2_SIZES = (100, 101, 200, 400, 401, 800)


def child(src: str) -> None:
    """Solve every game with ``stopgame`` imported from ``src``; one JSON line per game."""
    import hashlib
    import time

    sys.path.insert(0, src)
    import stopgame.examples as ex
    from stopgame.model import GameSpec
    from stopgame.solver import solve

    moving = GameSpec(R=[[-1.0, 1.0], [0.6, -0.6]], Q=[[-0.8, 0.8], [1.2, -1.2]], r=0.8,
                      f=ex.scalar_payoff_matrix(-1.0, 2.0, 3.0),
                      h=ex.scalar_payoff_matrix(-4.0, 3.0, 2.0),
                      p0=[0.5, 0.5], q0=[0.5, 0.5])
    games = [(f"e2 N = {N}", ex.e2_game(ex.REFERENCE_E2), N, 1, 1e-9) for N in E2_SIZES]
    games += [("moving 41x41", moving, 40, 40, 1e-8),
              ("e1 101x101", ex.e1_game(1.0), 100, 100, 1e-7)]
    for name, spec, N_p, N_q, tol in games:
        start = time.perf_counter()
        grid = solve(spec, N_p, N_q, tol=tol)
        wall = time.perf_counter() - start
        meta = grid.metadata
        print(json.dumps({"game": name, "sweeps": meta["iterations"],
                          "error_bound": meta["error_bound"], "mixing": meta["mixing"],
                          "wall_s": wall,
                          "digest": hashlib.sha256(grid.values.tobytes()).hexdigest()[:12]}),
              flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", type=Path,
                    help="a checkout whose src/ holds stopgame (repeatable; default: this one)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return child(args.child)
    for t in [t.resolve() for t in (args.tree or [HERE.parent.parent])]:
        print(t)
        print(f"  {'game':<14} {'sweeps':>7} {'error_bound':>11} {'wall_s':>7}  "
              f"{'digest':<12}  mixing")
        out = subprocess.run([sys.executable, str(HERE), "--child", str(t / "src")],
                             check=True, capture_output=True, text=True).stdout
        for line in out.splitlines():
            r = json.loads(line)
            print(f"  {r['game']:<14} {r['sweeps']:>7} {r['error_bound']:>11.2e} "
                  f"{r['wall_s']:>7.3f}  {r['digest']:<12}  {json.dumps(r['mixing'])}")


if __name__ == "__main__":
    main()
