"""Benchmark workloads: generated inputs, set-up builds and output checks.

Each workload turns a seed into the argv lists of one iteration (plus the
config files those argv lists name), lists the operator builds a cold
process needs before its first command, and checks the files the commands
wrote.  Every iteration of one run executes the same commands, so outputs
can also be compared byte for byte between iterations.

Accuracy thresholds come from the seed-to-seed spread of the current
implementation on workload seeds 0-9 (every diffuse, sliced-w or covariance
command of those ten iterations): each is the largest value seen, times 1.5,
rounded up.  A value above it means the numerics changed, not noise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


@dataclass(frozen=True)
class Recover:
    """Forward-then-reverse Gaussian recovery at one band limit.

    Two path seeds share one data law (one `data_seed` in a config file);
    each is run in the chart and the spatial domain, then `sliced-w`
    compares the two same-law recoveries of each domain.
    """

    name: str
    why: str
    L: int
    n: int
    steps: int
    n_proj: int
    max_mean_rel_err: float
    max_cov_rel_err: float
    max_sw_same_law: float

    domains = ("frequency", "spatial")
    work_name = "path_steps_per_s"

    def generate(self, seed: int):
        rng = random.Random(seed)
        data_seed = rng.randrange(2**31)
        s1 = rng.randrange(2**31)
        s2 = (s1 + 1000 + rng.randrange(2**20)) % 2**31  # never s1 or s1 +/- 2
        sw_seed = rng.randrange(2**31)
        inputs = {"law.json": json.dumps({"data_seed": data_seed}) + "\n"}
        commands = []
        for domain in self.domains:
            for tag, s in (("a", s1), ("b", s2)):
                commands.append([
                    "diffuse", "--config", "law.json", "--direction", "reverse",
                    "--score", "gaussian-analytic", "--domain", domain,
                    "--L", str(self.L), "--n", str(self.n), "--steps", str(self.steps),
                    "--seed", str(s), "--out", f"{domain}_{tag}.csv",
                ])
        for domain in self.domains:
            commands.append([
                "sliced-w", "--a", f"{domain}_a.csv", "--b", f"{domain}_b.csv",
                "--n-proj", str(self.n_proj), "--seed", str(sw_seed),
                "--out", f"sw_{domain}.json",
            ])
        return inputs, commands

    def setup_builds(self):
        return [(self.L, ("synthesis_matrix",))]

    def check(self, workdir: Path, commands, rcs):
        """Per-command failure lists and the accuracy summary."""
        failures = [[] if rc == 0 else [f"exit code {rc}"] for rc in rcs]
        mean_errs, cov_errs, sws = [], [], []
        aborted = paths = 0
        for i, argv in enumerate(commands):
            out = workdir / argv[argv.index("--out") + 1]
            if argv[0] == "diffuse":
                paths += self.n
                diag = _load(Path(str(out) + ".diagnostics.json"))
                if diag is None:
                    failures[i].append("no diagnostics file")
                    continue
                aborted += len(diag["aborted_paths"])
                if diag["aborted_paths"]:
                    failures[i].append(f"{len(diag['aborted_paths'])} aborted paths")
                mean_errs.append(diag["mean_rel_error"])
                cov_errs.append(diag["cov_rel_frobenius_error"])
                if not diag["mean_rel_error"] <= self.max_mean_rel_err:
                    failures[i].append(f"mean_rel_error {diag['mean_rel_error']:.4g}")
                if not diag["cov_rel_frobenius_error"] <= self.max_cov_rel_err:
                    failures[i].append(
                        f"cov_rel_frobenius_error {diag['cov_rel_frobenius_error']:.4g}")
            else:
                rep = _load(out)
                if rep is None:
                    failures[i].append("no sliced-w report")
                    continue
                sws.append(rep["sw"])
                if not rep["sw"] <= self.max_sw_same_law:
                    failures[i].append(f"sliced-W {rep['sw']:.4g}")
        summary = {
            "recovery_mean_rel_err": _mean(mean_errs),
            "recovery_cov_rel_err": _mean(cov_errs),
            "sw_same_law": _mean(sws),
            "aborted_path_frac": aborted / paths,
        }
        return failures, summary

    @property
    def work_units(self) -> int:
        """Path-steps per iteration: four diffuse runs, each integrating n
        paths forward and then back, `steps` steps each way."""
        return 2 * len(self.domains) * 2 * self.n * self.steps


@dataclass(frozen=True)
class Operators:
    """Operator builds and identity checks at a large band limit; no diffusion."""

    name: str
    why: str
    L: int
    L_bound: int
    samples: int
    trials: int
    max_cov_rel_err: float

    work_name = "bound_trials_per_s"

    def generate(self, seed: int):
        rng = random.Random(seed)
        s = [rng.randrange(2**31) for _ in range(3)]
        commands = [
            ["verify-operators", "--L", str(self.L), "--seed", str(s[0]),
             "--out", "verify.json"],
            ["covariance", "--L", str(self.L), "--samples", str(self.samples),
             "--seed", str(s[1]), "--out-dir", "covariance"],
            ["bound-check", "--L", str(self.L_bound), "--trials", str(self.trials),
             "--seed", str(s[2]), "--out", "bound.json"],
        ]
        return {}, commands

    def setup_builds(self):
        return [
            (self.L, ("chart_linear_map", "bound_operators")),
            (self.L_bound, ("bound_operators",)),
        ]

    def check(self, workdir: Path, commands, rcs):
        failures = [[] if rc == 0 else [f"exit code {rc}"] for rc in rcs]
        verify = _load(workdir / "verify.json")
        if verify is None or verify.get("pass") is not True:
            failures[0].append("verify-operators did not report pass")
        cov = _load(workdir / "covariance" / "summary.json")
        cov_err = None if cov is None else cov["rel_frobenius_error"]
        if cov_err is None or not cov_err <= self.max_cov_rel_err:
            failures[1].append(f"covariance rel_frobenius_error {cov_err}")
        bound = _load(workdir / "bound.json")
        if bound is None or bound.get("violations") != 0:
            failures[2].append("bound-check reported violations")
        summary = {
            "verify_max_residual": None if verify is None else max(verify["residuals"].values()),
            "covariance_rel_err": cov_err,
            "bound_min_slack": None if bound is None else bound["min_slack"],
        }
        return failures, summary

    @property
    def work_units(self) -> int:
        """Bound-check trials per iteration."""
        return self.trials


def _mean(values):
    return sum(values) / len(values) if values else None


WORKLOADS = {
    w.name: w
    for w in (
        Recover(
            name="recover-L4",
            why="L=4 recovery: tiny operators, so RNG draws, elementwise EM updates "
                "and per-step scores dominate; set-up is near zero",
            L=4, n=1000, steps=100, n_proj=500,
            max_mean_rel_err=0.1, max_cov_rel_err=0.22, max_sw_same_law=0.05,
        ),
        Recover(
            name="recover-L12",
            why="L=12 recovery: dense per-step matmuls and solves dominate and BLAS "
                "threads; its outputs depend on the thread count",
            L=12, n=250, steps=40, n_proj=500,
            max_mean_rel_err=0.13, max_cov_rel_err=1.1, max_sw_same_law=0.3,
        ),
        Operators(
            name="operators-L32",
            why="L=32 operator, covariance and bound builds with identity checks and "
                "1024x1024 CSV writes; no diffusion, so sde does nothing",
            L=32, L_bound=16, samples=2000, trials=500,
            max_cov_rel_err=1.03,
        ),
    )
}
