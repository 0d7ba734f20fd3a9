#!/usr/bin/env python3
"""Forward-then-reverse diffusion recovery with an analytic Gaussian score.

Draws data from a seeded Gaussian surrogate in chart coordinates, diffuses it
to the terminal time, integrates the reverse dynamics with the closed-form
score of the diffused Gaussian, and reports how well the data law is
recovered — in the frequency (chart) domain, the spatial domain, or both.
Each domain runs the chain of `spherediff diffuse --direction reverse`
(`sde.run_chain`): path seed `seed`, data draw seed + 1, reverse seed + 2.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from spherediff import chart, metrics, sde, transform


def run_domain(domain, L, schedule, law, n, seed):
    state, aborted, errors = sde.run_chain(
        L, schedule, "chart" if domain == "frequency" else "spatial", "reverse", law, n,
        seed, seed + 1,
    )
    mu, S = law
    fresh = np.random.default_rng(seed + 3).multivariate_normal(mu, S, size=min(n, 1000),
                                                               method="eigh")
    if domain == "spatial":
        fresh = fresh @ chart.synthesis_matrix(transform.build_operators(L)).T
    sw = metrics.sliced_wasserstein(state.values[: len(fresh)], fresh, n_proj=1000, seed=seed)
    return {**errors, "sliced_w_vs_fresh_data": sw.value, "sliced_w_2se": 2.0 * sw.se,
            "aborted_paths": len(aborted)}


def _f4(x) -> str:
    return "n/a (zero reference)" if x is None else f"{x:.4f}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=int, default=4)
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--domain", choices=["frequency", "spatial", "both"], default="both")
    ap.add_argument("--mean-scale", type=float, default=0.25)
    ap.add_argument("--cov-scale", type=float, default=0.04)
    ap.add_argument("--out", default="out/gaussian_recovery.json")
    args = ap.parse_args()
    if args.n < 2:
        ap.error("--n must be >= 2 (the report needs a sample covariance)")

    schedule = sde.VpSchedule(steps=args.steps)
    law = sde.surrogate_gaussian(args.L, args.mean_scale, args.cov_scale, args.seed + 100)
    domains = ["frequency", "spatial"] if args.domain == "both" else [args.domain]
    report = {
        "L": args.L, "n": args.n, "steps": args.steps, "seed": args.seed,
        "mean_scale": args.mean_scale, "cov_scale": args.cov_scale,
    }
    for d in domains:
        res = run_domain(d, args.L, schedule, law, args.n, args.seed)
        report[d] = res
        print(
            f"{d}: mean rel {_f4(res['mean_rel_error'])}, "
            f"cov rel Frobenius {_f4(res['cov_rel_frobenius_error'])}, "
            f"SW vs fresh data {res['sliced_w_vs_fresh_data']:.4f} "
            f"± {res['sliced_w_2se']:.4f}"
        )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
