"""spherediff benchmark: one workload, closed loop, fresh process per iteration.

    python3 bench/run.py --workload recover-L4 --seed 1 --seconds 15 --trace 0

The load is a closed loop with one caller: each iteration is a fresh Python
process (bench/worker.py) that runs the workload's commands through
`spherediff.cli.main`, one after another; the next iteration starts only
after the previous process has exited.  Iterations repeat until `--seconds`
have passed (at least two).  BLAS/OpenMP threads are min(nproc, 2).

`--trace 0` also times cold set-ups, runs one single-threaded iteration (the
baseline, and the thread side of the determinism check) and reports the
end-to-end metrics.  `--trace 1` alternates untraced and traced iterations
and reports the per-layer metrics; its spans go to a CSV beside the result.

Every output file is checked (see workloads.py).  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; a fuller
record, with the environment, goes to .bench_out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
MIN_ITERATIONS = 2
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# units of the report entries printed after the JSON-line metrics
REPORT_UNITS = {
    "run_s_1thread": "s", "failed_ops_frac": "frac", "nondeterministic_files": "count",
    "files_compared": "count", "path_steps_per_s": "1/s", "bound_trials_per_s": "1/s",
    "recovery_mean_rel_err": "ratio", "recovery_cov_rel_err": "ratio",
    "sw_same_law": "W2", "aborted_path_frac": "frac", "verify_max_residual": "abs",
    "covariance_rel_err": "ratio", "bound_min_slack": "abs",
}

# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(samples, beyond: int = 10):
    """Highest percentile of `samples` with at least `beyond` samples above it.

    Nearest rank: the k-th smallest value is the 100*k/n percentile.  Returns
    (percentile, value), or None when fewer than beyond + 1 samples exist.
    """
    xs = sorted(samples)
    for k in range(len(xs) - beyond, 0, -1):
        if sum(x > xs[k - 1] for x in xs) >= beyond:
            return 100.0 * k / len(xs), xs[k - 1]
    return None


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def bench_threads() -> int:
    return min(nproc(), 2)


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "spherediff").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():  # not a clone: do not let git search parent dirs
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "inherited_thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "bench_threads": bench_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "machine": platform.machine(),
        "workload_seed": seed,
    }


def _env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + str(BENCH)
    for v in THREAD_VARS:
        env[v] = str(threads)
    return env


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def time_setup(workload, run_dir: Path) -> float:
    builds = run_dir / "setup.json"
    builds.write_text(json.dumps(workload.setup_builds()))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "worker.py"), "setup", str(builds)],
                   env=_env(bench_threads()), cwd=run_dir, check=True,
                   timeout=WORKER_TIMEOUT_S, stdout=sys.stderr)
    return time.perf_counter() - t0


def _hash_outputs(workdir: Path, inputs) -> dict:
    return {
        str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.rglob("*"))
        if p.is_file() and p.name not in inputs
    }


def run_iteration(workload, inputs, commands, run_dir: Path, k: int, *,
                  threads: int, trace: bool) -> dict:
    """One iteration in a fresh worker process; returns its checked record."""
    workdir = run_dir / f"iter{k}"
    workdir.mkdir()
    for name, text in inputs.items():
        (workdir / name).write_text(text)
    plan = run_dir / f"iter{k}.plan.json"
    plan.write_text(json.dumps({"commands": commands, "trace": trace}))
    result_path = run_dir / f"iter{k}.result.json"
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "iteration", str(plan), str(result_path)],
        env=_env(threads), cwd=workdir, timeout=WORKER_TIMEOUT_S, stdout=sys.stderr,
        check=True)
    result = json.loads(result_path.read_text())
    failures, summary = workload.check(workdir, commands, result["rcs"])
    if result["tracer_loaded"] is not trace:
        failures[0].append(f"tracer loaded = {result['tracer_loaded']}, expected {trace}")
    for argv, fails in zip(commands, failures):
        if fails:
            print(f"iteration {k}: {' '.join(argv)}: {'; '.join(fails)}", file=sys.stderr)
    record = dict(result, iteration=k, threads=threads, trace=trace, failures=failures,
                  summary=summary, hashes=_hash_outputs(workdir, inputs))
    shutil.rmtree(workdir)
    return record


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _loop(workload, inputs, commands, run_dir, seconds, traces, first_k):
    """Iterations cycling through `traces` until `seconds` pass (at least
    MIN_ITERATIONS)."""
    records, t0, k = [], time.perf_counter(), first_k
    while len(records) < MIN_ITERATIONS or time.perf_counter() - t0 < seconds:
        trace = traces[len(records) % len(traces)]
        records.append(run_iteration(workload, inputs, commands, run_dir, k,
                                     threads=bench_threads(), trace=trace))
        k += 1
    return records


def _ops(records):
    attempted = sum(len(r["rcs"]) for r in records)
    failed = sum(bool(f) for r in records for f in r["failures"])
    return attempted, failed


def _differing(a: dict, b: dict) -> set:
    return {name for name in set(a) | set(b) if a.get(name) != b.get(name)}


def end_to_end(workload, setup_times, baseline, timed) -> tuple:
    """(metrics for the JSON line, the fuller report)."""
    runs = [r["run_s"] for r in timed]
    attempted, failed = _ops([baseline] + timed)
    thread_diff = _differing(baseline["hashes"], timed[0]["hashes"])
    rerun_diff = _differing(timed[0]["hashes"], timed[1]["hashes"])
    nondet = sorted(thread_diff | rerun_diff)
    compared = len(set(baseline["hashes"]) | set(timed[0]["hashes"]))
    metrics = {
        "run_s": statistics.median(runs),
        "setup_s": statistics.median(setup_times),
        "work_per_s": statistics.median(workload.work_units / s for s in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "ok_ops_frac": 1.0 - failed / attempted,
    }
    tail = tail_percentile(runs)
    report = {
        "run_s_samples": runs,
        "run_s_tail": (f"n/a: {len(runs)} iterations, the rule needs 11" if tail is None
                       else f"p{tail[0]:.1f} of {len(runs)} iterations = {tail[1]!r} s"),
        "run_s_1thread": baseline["run_s"],
        "setup_s_samples": setup_times,
        "failed_ops_frac": failed / attempted,
        "nondeterministic_files": len(nondet),
        "nondeterministic_file_names": nondet,
        "files_compared": compared,
        "files_differing_threads": sorted(thread_diff),
        "files_differing_rerun": sorted(rerun_diff),
        **timed[0]["summary"],
    }
    report[workload.work_name] = metrics["work_per_s"]
    return metrics, report


def per_layer(untraced, traced) -> tuple:
    import tracer

    rows = [tracer.layer_metrics(r["spans"], r["counters"], r["run_s"]) for r in traced]
    metrics = {m: statistics.fmean(row[m] for row in rows) for m in rows[0]}
    metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                   - statistics.median(r["run_s"] for r in untraced))
    report = {
        "absent": traced[0]["absent"],
        "hook_errors": sorted({e for r in traced for e in r["hook_errors"]}),
        "untraced_run_s_samples": [r["run_s"] for r in untraced],
        "traced_run_s_samples": [r["run_s"] for r in traced],
    }
    return {m: metrics[m] for m in tracer.LAYER_METRICS}, report


def _units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _write_spans(path: Path, traced) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "span", "parent", "name", "start_s", "end_s"])
        for r in traced:
            for i, (name, start, end, parent) in enumerate(r["spans"]):
                w.writerow([r["iteration"], i, parent, name, repr(start), repr(end)])


def _print_table(title, metrics, report, units) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:36s} {value!r:>24} {units[name]}")
    for name, value in report.items():
        if isinstance(value, str):
            print(f"  {name:36s} {value}")
        elif not isinstance(value, (list, dict)):
            print(f"  {name:36s} {value!r:>24} {REPORT_UNITS.get(name, '')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spherediff" / "__init__.py").is_file():
        print(f"no spherediff sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs, commands = workload.generate(args.seed)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commands": commands,
              "environment": environment(args.seed)}
    units = _units()

    if not trace:
        setup_times = [time_setup(workload, run_dir) for _ in range(SETUP_REPS)]
        baseline = run_iteration(workload, inputs, commands, run_dir, 0,
                                 threads=1, trace=False)
        timed = _loop(workload, inputs, commands, run_dir, args.seconds, (False,), 1)
        metrics, report = end_to_end(workload, setup_times, baseline, timed)
        records = [baseline] + timed
    else:
        records = _loop(workload, inputs, commands, run_dir, args.seconds,
                        (False, True), 0)
        untraced = [r for r in records if not r["trace"]]
        traced = [r for r in records if r["trace"]]
        metrics, report = per_layer(untraced, traced)
        _write_spans(run_dir / "spans.csv", traced)
        for r in traced:
            del r["spans"]
    attempted, failed = _ops(records)
    record.update(metrics=metrics, report=report, iterations=records)
    (OUT / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1) + "\n")

    _print_table(f"{workload.name} seed {args.seed}: {len(records)} iterations, "
                 f"{failed}/{attempted} commands failed", metrics, report, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
