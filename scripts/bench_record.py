#!/usr/bin/env python3
"""Fold paired benchmark results of two checkouts into one BENCH_<n>.json.

    python3 scripts/bench_record.py --parent ../parent/.bench_out \
        --change .bench_out --out BENCH_6.json

Each side's directory holds the `<workload>-seed<s>-trace<t>.json` files
that `bench/run.py` writes.  A pair is one workload and seed run on both
sides.  For every workload and every end-to-end metric of BENCHMARK.json the
record gives, over the `--trace 0` pairs, both sides' median and quartiles
(inclusive method), the relative change of the median, the median gap
against the parent's interquartile range, and the pairs in which the change
is better.  It also lists `nondeterministic_files` per side, and, where both
sides have `--trace 1` results, the mean of each per-layer metric.  The
environment block is the change's, with the parent's commit and source hash
beside it.
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(out_dir: Path) -> dict:
    """{(workload, seed, trace): result record} of one side."""
    runs = {}
    for path in sorted(out_dir.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        runs[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return runs


def spread(xs) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "q1": q1, "q3": q3}


def compare(parent: list, change: list, better: str) -> dict:
    p, c = spread(parent), spread(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    gap = sign * (p["median"] - c["median"])  # > 0: the change is better
    return {
        "parent": p, "change": c,
        "rel_change": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        "wins": f"{wins}/{len(parent)}",
        "median_gap": gap,
        "parent_iqr": p["q3"] - p["q1"],
        "gap_exceeds_parent_iqr": gap > p["q3"] - p["q1"],
    }


def fold(parent_runs: dict, change_runs: dict, spec: dict) -> dict:
    end_to_end = {m["name"]: m["better"] for m in spec["end_to_end"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    paired = sorted(set(parent_runs) & set(change_runs))
    workloads = {}
    for name in sorted({k[0] for k in paired}):
        keys = [k for k in paired if k[0] == name]
        timed = [k for k in keys if k[2] == 0]
        traced = [k for k in keys if k[2] == 1]
        entry = {"seeds": [k[1] for k in timed]}
        if timed:
            entry["end_to_end"] = {
                m: compare([parent_runs[k]["metrics"][m] for k in timed],
                           [change_runs[k]["metrics"][m] for k in timed], better)
                for m, better in end_to_end.items()
            }
            entry["nondeterministic_files"] = {
                side: [runs[k]["report"]["nondeterministic_files"] for k in timed]
                for side, runs in (("parent", parent_runs), ("change", change_runs))
            }
        if traced:
            entry["trace_seeds"] = [k[1] for k in traced]
            entry["per_layer_mean"] = {
                m: {side: statistics.fmean(runs[k]["metrics"][m] for k in traced)
                    for side, runs in (("parent", parent_runs), ("change", change_runs))}
                for m in per_layer
            }
        workloads[name] = entry
    env = dict(change_runs[paired[0]]["environment"])
    env.pop("workload_seed", None)
    parent_env = parent_runs[paired[0]]["environment"]
    env["parent_git_commit"] = parent_env.get("git_commit")
    env["parent_src_sha256"] = parent_env.get("src_sha256")
    return {"command": "python3 bench/run.py --workload W --seed S --seconds 15 --trace T",
            "environment": env, "workloads": workloads}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent's .bench_out")
    ap.add_argument("--change", type=Path, default=ROOT / ".bench_out",
                    help="change's .bench_out")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    parent_runs, change_runs = load(args.parent), load(args.change)
    if not (set(parent_runs) & set(change_runs)):
        ap.error("no workload and seed was run on both sides")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.out.write_text(json.dumps(fold(parent_runs, change_runs, spec), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
