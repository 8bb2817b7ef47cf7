"""stopgame benchmark: one workload run, or all four, from the root of a checkout.

    python3 perfbench/run.py --workload frozen-e1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every measurement happens in fresh single-threaded interpreters that import
the package from ``./src`` (BLAS pinned to one thread):

* ``setup_s`` is the median over SETUP_SAMPLES processes of the time from
  process start to inputs ready (import, games, strategies, response family),
  rescaled by the speed probes taken during it; as measured it is printed as
  ``setup_wall_s``;
* ``wall_norm_s`` is the median job time of one process that repeats the job
  for about ``--seconds`` and checks every output, each job's time rescaled
  by the speed probes taken while it ran (see ``probes.SpeedProbes``); the
  job times as measured are printed as ``wall_s``;
* ``peak_rss_mb`` is that process's peak resident memory.

With ``--trace 1`` the job runs once untraced and once under spans, and the
per-layer metrics named in BENCHMARK.json are printed instead.  Human-readable
lines (machine record, sample counts, every check) come first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Records and spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probes import rescale

HERE = Path(__file__).resolve().parent
WORKLOADS = ("frozen-e1", "onesided-e2", "moving-2d", "certify-mc")
SETUP_SAMPLES = 5      # the measuring process plus four set-up-only processes
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s
OUT = Path(".perfbench_out")


class BenchError(Exception):
    """The benchmark itself could not run (missing checkout, crashed worker)."""


def machine_record() -> dict:
    rec = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
           "cpu_model": platform.processor() or platform.machine(),
           "platform": platform.platform(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                    if line.startswith("model name"))
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (d / "type").read_text().strip() != "Instruction":
                rec[f"L{(d / 'level').read_text().strip()}"] = (d / "size").read_text().strip()
    except (OSError, StopIteration):
        pass  # not Linux: keep what platform reports
    return rec


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, as (pct, value)."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return math.floor(100 * rank / n), sorted(samples)[rank - 1]


def _worker(mode: str, args, deadline: float, extra=()) -> tuple[dict, float]:
    """Start one worker process; returns its result and its spawn time."""
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seed2", str(args.seed2), "--seconds", str(args.seconds), *extra]
    if args.tiny:
        cmd.append("--tiny")
    for name in args.fail_check:
        cmd += ["--fail-check", name]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not Path(result["stopgame"]).resolve().is_relative_to(Path("src").resolve()):
        raise BenchError(f"stopgame was imported from {result['stopgame']}, not ./src")
    return result, spawned


def run_one(args, spec: dict) -> dict:
    """One run of one workload; returns the contract's result object."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups, setup_walls = [], []  # rescaled, as measured

    def add_setup(res, spawned):
        wall = res["ready"] - spawned - sum(res["setup_probe_s"])
        setup_walls.append(wall)
        setups.append(rescale(wall, res["setup_probe_s"]))

    def sample_setup(k):
        for _ in range(k):
            add_setup(*_worker("setup", args, deadline))

    # machine speed drifts over seconds on shared cores: take the set-up
    # samples on both sides of the measuring process, not back to back
    before = (SETUP_SAMPLES - 1) // 2
    sample_setup(before)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    extra = ["--spans-out", str(OUT / f"spans-{tag}.jsonl")] if args.trace else []
    res, spawned = _worker("trace" if args.trace else "run", args, deadline, extra)
    add_setup(res, spawned)
    sample_setup(SETUP_SAMPLES - 1 - before)

    samples = {"wall_norm_s": res.get("wall_norm_s", []), "wall_s": res["wall_s"],
               "probe_s": res.get("probe_s", []), "setup_s": setups,
               "setup_wall_s": setup_walls, "peak_rss_mb": [res["peak_rss_mb"]]}
    samples = {k: v for k, v in samples.items() if v}  # a traced run has no probes
    units = {"wall_s": "s", "probe_s": "s", "setup_wall_s": "s",
             **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}
    if args.trace:
        unknown = set(res["layer"]) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            raise BenchError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # a layer the workload never calls reads 0
        values = {m["name"]: float(res["layer"].get(m["name"], 0.0)) for m in spec["per_layer"]}
    else:
        values = {m["name"]: statistics.median(samples[m["name"]]) for m in spec["end_to_end"]}
    checks = res["checks"]
    failed = sum(not c["ok"] for c in checks)
    attempted = max(len(checks), 1)

    print(f"perfbench workload={args.workload} seed={args.seed} seed2={args.seed2} "
          f"trace={args.trace} seconds={args.seconds}{' tiny' if args.tiny else ''}")
    machine = {**machine_record(), **res["versions"], "seed": args.seed, "seed2": args.seed2}
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, xs in samples.items():
        tail = tail_percentile(xs)
        tail_txt = (f"p{tail[0]} {tail[1]:.6g}" if tail
                    else "no tail percentile (needs >= 11 samples)")
        print(f"{name}: median {statistics.median(xs):.6g} {units.get(name, '')} "
              f"over n={len(xs)}; {tail_txt}")
    by_name: dict[str, list[dict]] = {}
    for c in checks:  # a repeated job repeats its checks: one line per check
        by_name.setdefault(c["name"], []).append(c)
    for name, cs in by_name.items():
        lo, hi = min(c["value"] for c in cs), max(c["value"] for c in cs)
        value = f"{lo:.6g}" if lo == hi else f"{lo:.6g}..{hi:.6g}"
        errors = sorted({c["error"] for c in cs if "error" in c})
        print(f"check {name}: {value} (limit {cs[0]['limit']:.6g}), "
              f"{sum(c['ok'] for c in cs)}/{len(cs)} ok{''.join(' ' + e for e in errors)}")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.6g}")
    if args.trace:
        for name, v in values.items():
            print(f"{name}: {v:.6g} {units[name]}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    record = {"args": dict(vars(args)), "machine": machine, "samples": samples,
              "checks": checks, "result": result}
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seed2", type=int, default=None,
                    help="seed of certify-mc's second (e1) certificate; default seed+1")
    ap.add_argument("--seconds", type=int, default=None,
                    help="job time per run; default run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes (harness self-test)")
    ap.add_argument("--fail-check", action="append", default=[], metavar="NAME",
                    help="force the named check (or job_exception) to fail")
    args = ap.parse_args(argv)
    if args.seed < 0 or (args.seed2 is not None and args.seed2 < 0):
        ap.error("seeds must be nonnegative")
    if args.seed2 is None:
        args.seed2 = args.seed + 1
    if not Path("src/stopgame/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("perfbench: run from the root of a stopgame checkout (needs src/stopgame "
              "and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_one(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
