"""The benchmark's own tests, on the --smoke inputs.

    python3 -m pytest benchmark/test_benchmark.py -q

They show that every metric BENCHMARK.json names is emitted with its
unit, that a corrupted output is caught, and that the benchmark refuses
to run without the program's sources.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS, Checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def _corrupt(path, pick, column, change):
    """Apply `change` to `column` of the first row that `pick` accepts."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = next(r for r in rows if pick(r))
    row[column] = change(row[column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _any(row):
    return True


@pytest.mark.parametrize("workload,job,pick,column,change", [
    ("count_sieve", "count", _any, "count", lambda v: str(int(v) + 1)),
    ("count_windows", "count", _any, "count", lambda v: str(int(v) + 1)),
    ("constants_tables", "constants_12", _any, "c2",
     lambda v: repr(float(v) + 1e-3)),
    ("constants_tables", "lvalues", lambda r: r["parity"] == "1", "c_re",
     lambda v: "1e-3"),
])
def test_corrupted_output_raises_failed_frac(tmp_path, workload, job, pick,
                                            column, change):
    wl = WORKLOADS[workload](True, 3)
    runner = run.Runner(str(tmp_path))
    rep = runner.run_jobs(wl, "rep")
    clean = Checks()
    run.check_rep(wl, rep, clean, None)
    assert clean.attempted > 0 and not clean.failures, clean.failures
    _corrupt(rep["outputs"][job], pick, column, change)
    dirty = Checks()
    run.check_rep(wl, rep, dirty, None)
    assert dirty.attempted == clean.attempted
    assert run.failed_frac(dirty) > run.failed_frac(clean) == 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench("--workload", "count_sieve", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
