"""Time one Monte Carlo certificate against a moving opponent, on one or more source trees.

The game is example 2's own chain and its optimal rule at p = 1/3,
played against an opponent chain that moves (``Q = [[-0.7, 0.7], [1.3,
-1.3]]``) with payoffs that depend on the opponent's state, so a best
response reads the opponent's paths.  Each run is a fresh interpreter
that imports ``stopgame`` from one tree's ``src``, runs one
best response (the Monte Carlo part of ``exploit_gap``) at 20,000
replications and seed 1, and reports its wall time, its ``ru_maxrss``
and the best-response value.  Runs alternate between the trees.

    python3 scripts/moving_certificate.py                      # this checkout
    python3 scripts/moving_certificate.py --tree ../parent --tree .   # compare two trees
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve()
N, SEED = 20_000, 1


def child(src: str) -> None:
    """One timed best response, with ``stopgame`` imported from ``src``."""
    import resource
    import time

    sys.path.insert(0, src)
    import stopgame.examples as ex
    from stopgame.model import GameSpec
    from stopgame.montecarlo import PureResponseFamily, best_response_value

    e2 = ex.REFERENCE_E2
    spec = GameSpec(R=e2.R, Q=[[-0.7, 0.7], [1.3, -1.3]], r=e2.r,
                    f=[[2.0, 0.5], [1.0, 3.0]], h=[[-1.0, 0.0], [0.5, 1.5]],
                    p0=[1.0 / 3.0, 2.0 / 3.0], q0=[0.3, 0.7])
    rule = ex.e2_optimal_mu(e2, 1.0 / 3.0)
    family = PureResponseFamily.for_game(spec)
    start = time.perf_counter()
    br = best_response_value(spec, rule, family, N, SEED)
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux
    print(json.dumps({"wall_s": wall, "maxrss_mb": rss, "value": br.value,
                      "std_error": br.std_error}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", type=Path,
                    help="a checkout whose src/ holds stopgame (repeatable; default: this one)")
    ap.add_argument("--runs", type=int, default=5, help="runs per tree")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return child(args.child)
    trees = [t.resolve() for t in (args.tree or [HERE.parent.parent])]
    results = {t: [] for t in trees}
    for _ in range(args.runs):
        for t in trees:
            out = subprocess.run([sys.executable, str(HERE), "--child", str(t / "src")],
                                 check=True, capture_output=True, text=True).stdout
            results[t].append(json.loads(out.splitlines()[-1]))
    for t, runs in results.items():
        walls = sorted(r["wall_s"] for r in runs)
        print(f"{t}: median {statistics.median(walls):.3f} s "
              f"(min {walls[0]:.3f}, max {walls[-1]:.3f}) over {len(runs)} runs, "
              f"max ru_maxrss {max(r['maxrss_mb'] for r in runs):.1f} MB, "
              f"best response {runs[0]['value']:+.5f} +- {runs[0]['std_error']:.5f}")


if __name__ == "__main__":
    main()
