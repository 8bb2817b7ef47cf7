"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_harness.py

Runs every workload at tiny sizes, traced and untraced, from the root of
this checkout, and checks the result line against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

from probes import PROBE_NOMINAL_S, SpeedProbes  # noqa: E402
from run import WORKLOADS, tail_percentile  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == e2e["setup_s"]["bound"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    result = result_of(proc)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["failed"] == 0 and result["correct"] is True
    if not trace:  # job times as measured and the speed probes behind wall_norm_s
        assert all(any(line.startswith(f"{name}: median") for line in proc.stdout.splitlines())
                   for name in ("wall_s", "probe_s"))


@pytest.mark.parametrize("workload,forced", [("onesided-e2", "value_err"),
                                             ("certify-mc", "job_exception")])
def test_forced_failure_is_counted_not_fatal(workload, forced):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--tiny",
                 "--fail-check", forced)
    result = result_of(proc)
    assert result["failed"] >= 1 and result["correct"] is False
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    frac = next(line for line in proc.stdout.splitlines() if line.startswith("failed_frac"))
    assert not frac.endswith("= 0")


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "certify-mc", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    pct, value = tail_percentile([float(i) for i in range(20)])
    assert (pct, value) == (50, 9.0)
    assert sum(x > value for x in range(20)) == 10


def test_speed_probes_rescale_and_fall_back_to_the_run():
    probes = SpeedProbes(lambda: None)
    probes.times = [2 * PROBE_NOMINAL_S] * 12
    # probes at half the nominal speed halve a job's time; a job with too
    # few probes of its own is rescaled by those of the whole run
    walls = probes.normalized([4.0, 4.0], [[2 * PROBE_NOMINAL_S] * 10, [PROBE_NOMINAL_S]])
    assert walls == pytest.approx([2.0, 2.0])
