"""Benchmark of the primebias command line, end to end and layer by layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout; the program is imported from its `src`.
Every job is a fresh interpreter running the `primebias` console script's
entry point, because a command-line user pays the import and cold caches
on every call.  Jobs of a workload run one after another (a closed loop
with one client).

--trace 0 repeats the workload's job list while another repetition still
fits in S seconds (at least once), and reports the end-to-end metrics.
--trace 1 runs the job list once plain and once traced, then one probe per
layer (probe.py), and reports the per-layer metrics.  Either way every
output is checked (workloads.py), provenance is printed as a JSON line,
the run's record (with spans when traced) is written under
benchmark/_out/, and the last line of stdout is the result object.
--smoke swaps in tiny inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
from workloads import WORKLOADS, Checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
CLI = "import sys; from primebias.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5  # fewest fresh `import primebias` runs behind setup_s


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def provenance(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "nproc": nproc(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": versions["numpy"], "scipy": versions["scipy"],
        "git_commit": commit,
    }


class Runner:
    """Starts children from the checkout root with `src` on PYTHONPATH."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=SRC + (os.pathsep + old if old else ""))

    def spawn(self, cmd: list[str], log: str) -> tuple[float, float, int]:
        """Run cmd to completion: (wall seconds, peak RSS in MB, exit code)."""
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def run_jobs(self, workload, tag: str, traced: bool = False) -> dict:
        """One pass over the job list; outputs go to workdir/tag/."""
        d = os.path.join(self.workdir, tag)
        os.makedirs(d, exist_ok=True)
        rep = {"jobs": {}, "outputs": {}, "spans": []}
        start = time.perf_counter()
        for job in workload.jobs:
            out = os.path.join(d, job.name + ".csv")
            argv = list(job.argv) + ["--output", out]
            if traced:
                spans = os.path.join(d, job.name + ".spans.json")
                cmd = [sys.executable, os.path.join(HERE, "probe.py"), "job",
                       spans, f"{tag}:{job.name}", "--"] + argv
            else:
                cmd = [sys.executable, "-c", CLI] + argv
            wall, rss, code = self.spawn(cmd, os.path.join(d, job.name + ".err"))
            rep["jobs"][job.name] = {"wall_s": wall, "peak_rss_mb": rss,
                                     "exit_code": code}
            rep["outputs"][job.name] = out
            if traced and os.path.exists(spans):
                with open(spans) as fh:
                    rep["spans"] += json.load(fh)["spans"]
        rep["wall_s"] = time.perf_counter() - start
        return rep

    def probe(self, layer: str, spec: dict) -> dict:
        out = os.path.join(self.workdir, f"probe-{layer}.json")
        _, _, code = self.spawn(
            [sys.executable, os.path.join(HERE, "probe.py"), "layer", out,
             layer, json.dumps(spec)],
            os.path.join(self.workdir, f"probe-{layer}.err"))
        if code != 0:
            raise RuntimeError(f"{layer} probe exited {code}; see {out[:-5]}.err")
        with open(out) as fh:
            return json.load(fh)

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter that imports primebias."""
        return self.spawn([sys.executable, "-c", "import primebias"],
                          os.path.join(self.workdir, "setup.err"))[0]


def digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def failed_frac(checks: Checks) -> float:
    """Failed jobs plus failed output checks over the checks attempted."""
    return len(checks.failures) / checks.attempted


def check_rep(workload, rep: dict, checks: Checks, reference: dict | None):
    """Exit codes, then full checks, or byte equality with a checked pass.

    The program is deterministic, so a repetition that prints anything but
    the bytes of the fully checked one is wrong.
    """
    for name, job in rep["jobs"].items():
        checks.expect(f"{name} exit code", job["exit_code"] == 0,
                      str(job["exit_code"]))
    if reference is None:
        try:
            workload.check(rep["outputs"], checks)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks.expect("outputs readable", False, repr(exc))
    else:
        for name, path in rep["outputs"].items():
            checks.expect(f"{name} same bytes as checked pass",
                          digest(path) == reference[name])


def run_plain(workload, runner: Runner, seconds: float, checks: Checks):
    # import samples are spread over the run so slow spells of a shared
    # machine weigh on setup_s as they do on wall_s
    setup = []
    reps = []
    reference = None
    start = time.perf_counter()
    while True:
        setup.append(runner.setup_time())
        rep = runner.run_jobs(workload, f"rep{len(reps)}")
        reps.append(rep)
        check_rep(workload, rep, checks, reference)
        if reference is None:
            reference = {n: digest(p) for n, p in rep["outputs"].items()}
        shutil.rmtree(os.path.join(runner.workdir, f"rep{len(reps) - 1}"))
        if time.perf_counter() - start + rep["wall_s"] > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.setup_time())
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(j["peak_rss_mb"] for r in reps
                            for j in r["jobs"].values()), "MB"),
    }
    record = {"setup_s": setup, "repetitions": [
        {"wall_s": r["wall_s"], "jobs": r["jobs"]} for r in reps]}
    return metrics, record


def run_traced(workload, runner: Runner, checks: Checks):
    plain = runner.run_jobs(workload, "plain")
    check_rep(workload, plain, checks, None)
    output_bytes = sum(os.path.getsize(p) for p in plain["outputs"].values()
                       if os.path.exists(p))
    traced = runner.run_jobs(workload, "traced", traced=True)
    check_rep(workload, traced, checks,
              {n: digest(p) for n, p in plain["outputs"].items()})
    probes = {layer: runner.probe(layer, spec)
              for layer, spec in workload.probes.items()}

    def span(layer, name):
        return tracing.total(probes[layer]["spans"], name)

    def count(layer, key):
        return probes[layer]["counts"][key]

    stream_s = span("sieve", "sieve.stream")
    stream_t2_s = span("sieve", "sieve.stream_t2")
    count_s = span("sieve", "sieve.count")
    counter_base = stream_s if count("sieve", "count_threads") == 1 else stream_t2_s
    cli_spans = [s for s in traced["spans"] if s["name"] == "cli.main"]
    plain_wall = plain["wall_s"]
    c2_rows = c2_wall = 0
    for name in workload.c2_jobs:
        if plain["jobs"][name]["exit_code"] == 0:
            with open(plain["outputs"][name]) as fh:
                c2_rows += sum(1 for _ in fh) - 1
        c2_wall += plain["jobs"][name]["wall_s"]
    m = {
        "arith.primes_upto_s": (span("arith", "arith.primes_upto"), "s"),
        "sieve.stream_s": (stream_s, "s"),
        "sieve.stream_t2_s": (stream_t2_s, "s"),
        "sieve.scaling_eff": (stream_s / (2 * stream_t2_s), "ratio"),
        "sieve.segments": (count("sieve", "segments"), "count"),
        "sieve.integers": (count("sieve", "integers"), "count"),
        "sieve.count_s": (count_s, "s"),
        "sieve.counter_s": (count_s - counter_base, "s"),
        "sieve.windows": (count("sieve", "windows"), "count"),
        "characters.group_s": (span("characters", "characters.group"), "s"),
        "characters.eval_s": (span("characters", "characters.eval"), "s"),
        "characters.evals": (count("characters", "evals"), "count"),
        "lfun.ctable_s": (span("lfun", "lfun.build_ctable"), "s"),
        "lfun.tail_bound": (count("lfun", "tail_bound"), "abs"),
        "constants.c2_cold_s": (span("constants", "constants.c2_cold"), "s"),
        "constants.c2_warm_s": (span("constants", "constants.c2_warm"), "s"),
        "constants.pairs": (count("constants", "pairs"), "count"),
        "constants.form_spread_max": (count("constants", "form_spread_max"),
                                      "abs"),
        "singular.context_s": (span("singular", "singular.SingularContext"), "s"),
        "singular.s0_brute_s": (span("singular", "singular.s0_brute"), "s"),
        "predict.integral_s": (span("predict", "predict.integral_prediction"),
                               "s"),
        "predict.integrals": (count("predict", "integrals"), "count"),
        "predict.quadrature_error_max": (count("predict",
                                               "quadrature_error_max"), "abs"),
        "cli.overhead_s": (sum(tracing.self_time(s, traced["spans"])
                               for s in cli_spans), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "trace.overhead_s": (traced["wall_s"] - plain_wall, "s"),
        "sieve_integers_per_s": (workload.sieve_integers / plain_wall, "1/s"),
        "windows_per_s": (workload.windows / plain_wall, "1/s"),
        "c2_values_per_s": (c2_rows / c2_wall if c2_wall else 0.0, "1/s"),
    }
    spans = traced["spans"] + [s for p in probes.values() for s in p["spans"]]
    record = {"plain": plain["jobs"], "traced": traced["jobs"],
              "plain_wall_s": plain_wall, "traced_wall_s": traced["wall_s"],
              "probe_counts": {k: p["counts"] for k, p in probes.items()},
              "spans": spans}
    return m, record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "primebias", "__init__.py")):
        print(f"error: no primebias sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.smoke, args.seed)
    threads = [int(j.argv[j.argv.index("--threads") + 1])
               for j in workload.jobs if "--threads" in j.argv]
    if args.trace:
        threads.append(2)  # the sieve probe's two-thread stream
    if max(threads, default=1) > nproc():
        print(f"error: {args.workload} needs {max(threads)} threads but only "
              f"{nproc()} CPUs are available", file=sys.stderr)
        return 2
    prov = provenance(args)
    print(json.dumps({"provenance": prov}), flush=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir)
    checks = Checks()
    try:
        if args.trace:
            metrics, record = run_traced(workload, runner, checks)
            metrics["failed_frac"] = (failed_frac(checks), "ratio")
        else:
            metrics, record = run_plain(workload, runner, args.seconds, checks)
            # failed_frac is 0 when all is well, and a gated metric must
            # never be 0, so the end-to-end set carries its complement
            metrics["passed_frac"] = (1.0 - failed_frac(checks), "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump({"provenance": prov, "result": result,
                   "failures": checks.failures, "record": record}, fh)
    for line in checks.failures[:20]:
        print("check failed:", line, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
