#!/usr/bin/env python3
"""Empirical-vs-theoretical chart covariance panels.

Estimates the chart covariance of band-limited spherical noise two ways —
sampling directly with the per-order roots Sigma_m^{1/2}, and pushing
spatial white noise through analysis + chart — and writes both panels next
to the closed-form matrix t * Sigma for side-by-side comparison.  The relative Frobenius errors
in report.json use the CLI's norm.  Importing spherediff runs BLAS on one
thread, so every file has the same bits under any BLAS thread count.
"""

import argparse
import json
from pathlib import Path

from spherediff import chart, noise, transform
from spherediff.metrics import _rel_frobenius


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=int, default=4)
    ap.add_argument("--samples", type=int, default=50_000)
    ap.add_argument("--t", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="out/covariance_panels")
    args = ap.parse_args()

    ops = transform.build_operators(args.L)
    cov = noise.build_covariance(args.L)
    theo_blocks = args.t * cov.sigma  # the stack of the t Sigma_m
    theo = noise.build_sigma(theo_blocks)

    direct = noise.sample_mirrored_bm(cov, args.t, args.samples, args.seed)
    via_spatial = chart.to_chart(
        noise.mirrored_bm_via_spatial(ops, args.t, args.samples, args.seed + 1), args.L
    )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    panels = {
        "empirical_factor": noise.empirical_covariance(direct),
        "empirical_spatial": noise.empirical_covariance(via_spatial),
    }
    report = {"L": args.L, "samples": args.samples, "t": args.t, "seed": args.seed}
    noise.sigma_blocks_to_csv(theo_blocks, args.L, out / "theoretical.csv")
    for name, mat in panels.items():
        noise.sigma_to_csv(mat, args.L, out / f"{name}.csv")
        rel = _rel_frobenius(mat - theo, theo)
        report[f"{name}_rel_frobenius_error"] = rel
        print(f"{name}: relative Frobenius error {rel:.4f}")
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"panels written to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
