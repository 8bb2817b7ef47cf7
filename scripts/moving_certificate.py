"""Time Monte Carlo certificates and trace their peak memory, on one or more source trees.

Three certificates run in each child:

* ``moving``: example 2's own chain and its optimal rule at p = 1/3,
  played against an opponent chain that moves (``Q = [[-0.7, 0.7],
  [1.3, -1.3]]``) with payoffs that depend on the opponent's state, so a
  best response reads the opponent's paths; one best response (the
  Monte Carlo part of ``exploit_gap``) at seed 1;
* ``e2`` and ``e1``: the two ``exploit_gap`` certificates of the
  benchmark's certify-mc workload, e2 at p = 1/3 with seed 1 and e1 at
  (0.75, 0.75) with seed 2.

All run at 20,000 replications.  Each run is a fresh interpreter that
imports ``stopgame`` from one tree's ``src``, times each certificate once,
then runs it again under ``tracemalloc`` for its traced peak (a second
run, so one-time allocations of the first call are left out), and
reports the wall times, the peaks, its ``ru_maxrss`` and each result.
Runs alternate between the trees.

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
N = 20_000
CERTS = ("moving", "e2", "e1")


def child(src: str) -> None:
    """Each certificate timed once and traced once, with ``stopgame`` imported from ``src``."""
    import resource
    import time
    import tracemalloc

    sys.path.insert(0, src)
    import stopgame.examples as ex
    from stopgame.model import GameSpec
    from stopgame.montecarlo import PureResponseFamily, best_response_value, exploit_gap

    def at(spec, p0, q0):
        return GameSpec(R=spec.R, Q=spec.Q, r=spec.r, f=spec.f, h=spec.h, p0=p0, q0=q0)

    e2 = ex.REFERENCE_E2
    moving = GameSpec(R=e2.R, Q=[[-0.7, 0.7], [1.3, -1.3]], r=e2.r,
                      f=[[2.0, 0.5], [1.0, 3.0]], h=[[-1.0, 0.0], [0.5, 1.5]],
                      p0=[1.0 / 3.0, 2.0 / 3.0], q0=[0.3, 0.7])
    e2_game = at(ex.e2_game(e2), [1.0 / 3.0, 2.0 / 3.0], [1.0])
    e1_game = at(ex.e1_game(1.0), [0.75, 0.25], [0.75, 0.25])
    plans = {
        "moving": (moving, ex.e2_optimal_mu(e2, 1.0 / 3.0), None, 1),
        "e2": (e2_game, ex.e2_optimal_mu(e2, 1.0 / 3.0), ex.e2_value(e2, 1.0 / 3.0), 1),
        "e1": (e1_game, ex.e1_optimal_mu(0.75, 0.75), ex.e1_value(0.75, 0.75), 2),
    }
    out = {}
    for name in CERTS:
        spec, rule, claim, seed = plans[name]
        family = PureResponseFamily.for_game(spec)
        if claim is None:
            def run():
                br = best_response_value(spec, rule, family, N, seed)
                return br.value, br.std_error
        else:
            def run():
                rep = exploit_gap(spec, rule, claim, family, N, seed)
                return rep.gap, rep.std_error
        start = time.perf_counter()
        value, std_error = run()
        wall = time.perf_counter() - start
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[name] = {"wall_s": wall, "peak_mib": peak / 2 ** 20, "value": value,
                     "std_error": std_error}
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux
    print(json.dumps(out))


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
        print(f"{t}: {len(runs)} runs, max ru_maxrss {max(r['maxrss_mb'] for r in runs):.1f} MB")
        for name in CERTS:
            walls = sorted(r[name]["wall_s"] for r in runs)
            first = runs[0][name]
            result = "best response" if name == "moving" else "gap"
            print(f"  {name:6s} median {statistics.median(walls):.3f} s "
                  f"(min {walls[0]:.3f}, max {walls[-1]:.3f}), "
                  f"traced peak {max(r[name]['peak_mib'] for r in runs):.2f} MiB, "
                  f"{result} {first['value']:+.5f} +- {first['std_error']:.5f}")


if __name__ == "__main__":
    main()
