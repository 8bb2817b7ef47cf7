"""One benchmark process: set up a workload, run its job, check and report.

``run.py`` starts this script in a fresh single-threaded interpreter with
``PYTHONPATH`` pointing at the checkout's ``src``.  It prints one JSON
object as its last line of standard output.  Modes:

* ``setup``: import the package and build the inputs, then report the
  monotonic clock at which the inputs were ready and the times of the speed
  probes taken since the process started importing (``setup_s`` is
  rescaled by them as the jobs are);
* ``run``: set up, then repeat the job while the summed job time plus one
  more job fits in ``--seconds`` (at least one job), checking every output.
  Speed probes taken while each job runs (``probes.SpeedProbes``) rescale
  its time to a host of fixed speed (``wall_norm_s``);
* ``trace``: set up under spans, run the job once untraced and once traced,
  check it, then replay sampled inner steps (see ``workloads``) and derive
  the per-layer metrics from the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from probes import SpeedProbes, interpreted_probe

# set-up is mostly imports: probe it from here on, before the package loads
SETUP_PROBES = SpeedProbes(interpreted_probe)
SETUP_PROBES.start()

import stopgame  # noqa: E402
from workloads import FULL, TINY, WORKLOADS  # noqa: E402

MAX_JOBS = 1000  # bounds a run of tiny jobs


class NullTracer:
    """Tracer of the untraced runs: spans cost one no-op context manager."""

    _null = contextlib.nullcontext()

    def span(self, name, **tags):
        return self._null


class Tracer:
    """Spans kept in memory: name, start, end, parent span and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name, **tags):
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "run": self.run_id, "name": name, **tags}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def select(self, name, **tags) -> list[dict]:
        return [s for s in self.spans
                if s["name"] == name and all(s.get(k) == v for k, v in tags.items())]

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


class Checker:
    """Records every check; a check named in ``forced`` is made to fail."""

    def __init__(self, forced: set[str]):
        self.forced = forced
        self.results: list[dict] = []

    def __call__(self, name: str, value: float, limit: float, ok: bool):
        ok = bool(ok) and name not in self.forced
        self.results.append({"name": name, "value": float(value), "limit": float(limit),
                             "ok": ok})

    def error(self, name: str, exc: BaseException):
        self.results.append({"name": name, "value": 1.0, "limit": 0.0, "ok": False,
                             "error": f"{type(exc).__name__}: {exc}"})


def _timed_job(w, inp, tracer, workdir, chk, during=contextlib.nullcontext):
    """Run one job; an exception is a failed check, never an aborted run."""
    out = None
    t0 = time.perf_counter()
    with during():
        try:
            if "job_exception" in chk.forced:
                raise RuntimeError("failure forced by --fail-check job_exception")
            out = w.job(inp, tracer, workdir)
        except Exception as exc:  # the run goes on and reports the failure
            chk.error("job", exc)
    return out, time.perf_counter() - t0


def _check(w, inp, out, chk):
    try:
        w.check(inp, out, chk)
    except Exception as exc:
        chk.error("check", exc)


def _ms(spans) -> float:
    return 1e3 * statistics.median(s["end"] - s["start"] for s in spans) if spans else 0.0


def _layer_metrics(tr: Tracer, probe: dict, wall_untraced: float) -> dict:
    """Per-layer metrics from the spans of the traced job and the replay."""
    m = {}
    roots = [s for s in tr.spans if s["name"] == "job"]
    traced = roots[-1]["end"] - roots[-1]["start"]
    m["trace.overhead_frac"] = traced / wall_untraced - 1.0
    if "nodes" in probe:  # solve workloads
        cav = _ms(tr.select("solver.cav_p", phase="converged"))
        vex = _ms(tr.select("solver.vex_q", phase="converged"))
        solve_s = sum(s["end"] - s["start"] for s in tr.select("solver.solve"))
        sweep = 1e3 * solve_s / probe["sweeps"]
        m.update({
            "grids.cav_ms": cav, "grids.vex_ms": vex,
            "grids.envelope_mnodes_per_s": 2 * probe["nodes"] / (cav + vex) / 1e3,
            # computed, not measured: each of the two passes reads and writes
            # the float64 grid once
            "grids.envelope_bytes": 2 * 2 * 8 * probe["nodes"],
            "grids.csv_write_ms": _ms(tr.select("grids.write_value_csv")),
            "grids.csv_bytes": probe["csv_bytes"],
            "solver.sweeps": probe["sweeps"], "solver.sweep_ms": sweep,
            "solver.loop_other_ms": sweep - cav - vex,
            "solver.obstacle_step_ms": _ms(tr.select("solver.obstacle_step")),
            "solver.envelope_share": (cav + vex) / sweep,
            "solver.residual_check_ms": _ms(tr.select("solver.residual_check")),
        })
        points = tr.select("conjugate.convex_conjugate_q")
        m["conjugate.point_ms"] = _ms(points)
        m["conjugate.points"] = len(points)
        return m
    own = tr.self_times()
    for tag, info in probe.items():  # one entry per certificate
        reps = info["reps"]

        def per_rep_us(name):
            return 1e6 * sum(own[s["id"]] for s in tr.select(name, cert=tag)) / reps

        gap_s = sum(s["end"] - s["start"] for s in tr.select("montecarlo.exploit_gap", cert=tag))
        n = info["n"]
        rng_us, sample_us = per_rep_us("model.philox_rng"), per_rep_us("model.sample")
        stop_us = per_rep_us("pdmp.stopping_time")
        m.update({
            f"model.rng_us.{tag}": rng_us, f"model.sample_us.{tag}": sample_us,
            f"model.jumps_per_path.{tag}": info["jumps_per_path"],
            f"pdmp.stop_time_us.{tag}": stop_us,
            f"pdmp.strategy_build_ms.{tag}": _ms(tr.select("pdmp.build_strategy", cert=tag)),
            f"pdmp.orbit_steps.{tag}": info["orbit_steps"],
            f"pdmp.stop_share_zero.{tag}": info["stop_share"]["zero"],
            f"pdmp.stop_share_flow.{tag}": info["stop_share"]["flow"],
            f"pdmp.stop_share_never.{tag}": info["stop_share"]["never"],
            f"montecarlo.reps_per_s.{tag}": n / gap_s,
            f"montecarlo.row_self_us.{tag}": 1e6 * gap_s / n - rng_us - sample_us - stop_us,
            f"montecarlo.candidates.{tag}": info["candidates"],
            f"serialize.roundtrip_ms.{tag}": _ms(tr.select("serialize.roundtrip", cert=tag)),
        })
    return m


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "blas_pins": {k: os.environ.get(k) for k in
                          ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seed2", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--fail-check", action="append", default=[])
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    size = (TINY if args.tiny else FULL)[w.name]
    run_id = f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    tr = Tracer(run_id) if args.mode == "trace" else NullTracer()
    with tr.span("setup"):
        inp = w.setup(size, args.seed, args.seed2, tr)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    SETUP_PROBES.stop()
    SETUP_PROBES.pad()
    result = {"ready": ready, "setup_probe_s": SETUP_PROBES.times,
              "versions": _versions(), "stopgame": stopgame.__file__}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    chk = Checker(set(args.fail_check))
    walls = []
    Path(".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench_out") as tmp:
        workdir = Path(tmp)
        if args.mode == "run":
            probes, per_job = SpeedProbes(w.speed_probe), []
            while len(walls) < MAX_JOBS:
                out, dt = _timed_job(w, inp, NullTracer(), workdir, chk, probes.during_job)
                per_job.append(probes.last)
                walls.append(dt - sum(probes.last))
                if out is not None:
                    _check(w, inp, out, chk)
                if sum(walls) + statistics.median(walls) > args.seconds:
                    break
            result["wall_norm_s"] = probes.normalized(walls, per_job)
            result["probe_s"] = probes.times
        else:
            _, wall_untraced = _timed_job(w, inp, NullTracer(), workdir, chk)
            walls.append(wall_untraced)
            with tr.span("job"):
                out, _ = _timed_job(w, inp, tr, workdir, chk)
            result["layer"] = {}
            if out is not None:
                _check(w, inp, out, chk)
                try:
                    probe = w.probe(inp, out, tr, chk)
                    result["layer"] = _layer_metrics(tr, probe, wall_untraced)
                except Exception as exc:
                    chk.error("probe", exc)
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    for s in tr.spans:
                        fh.write(json.dumps(s) + "\n")
    result.update({
        "wall_s": walls, "checks": chk.results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
