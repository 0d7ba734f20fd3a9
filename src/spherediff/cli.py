"""Experiment-runner CLI.

Subcommands: verify-operators, covariance, diffuse, bound-check, sliced-w.
Exit codes: 0 success / all checks pass, 1 usage error (or an output path
that cannot be written), 2 numerical-check failure, 3 runtime abort
(non-finite paths).

Every run is determined by (config, seed); outputs carry no timestamps and
JSON keys are sorted, so re-runs are byte-identical.  Option precedence:
built-in defaults < command-line flags < JSON config file.  The environment
variable SPHEREDIFF_OUT_DIR sets the directory used when an output path is
not given.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, chart, indexing, lossmap, metrics, noise, sde, transform
from .metrics import _frobenius_parts, _frobenius_ratio

ENV_OUT_DIR = "SPHEREDIFF_OUT_DIR"
_PAIR_BLOCK = 1 << 17  # spatial values per block of verify-operators' isometry pairs


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_dir() -> Path:
    return Path(os.environ.get(ENV_OUT_DIR, "."))


def _out_path(given, default_name: str) -> Path:
    path = Path(given) if given else _out_dir() / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _settings(args) -> dict:
    """The command and its parsed options but the output paths: what `config_hash` covers."""
    return {k: v for k, v in vars(args).items() if k not in ("fn", "out", "out_dir")}


def _provenance(config: dict) -> dict:
    return {
        "tool_version": __version__,
        "config_hash": hashlib.sha256(_canonical(config).encode()).hexdigest(),
        "seed": config.get("seed"),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _require_finite(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise UsageError(f"--{name} must be a finite number, got {value!r}")


def _require_min(name: str, value, low) -> None:
    if value < low:
        raise UsageError(f"--{name} must be >= {low}, got {value}")


# ---------------------------------------------------------------------------
# verify-operators
# ---------------------------------------------------------------------------

def cmd_verify_operators(args) -> int:
    _require_min("L", args.L, 1)
    _require_finite("tol", args.tol)
    _require_min("seed", args.seed, 0)
    ops = transform.build_operators(args.L)
    rng = np.random.default_rng(args.seed)
    L2 = ops.d_spectral
    bops = lossmap.bound_operators(ops, noise.build_covariance(args.L))
    checks = lossmap.order_residuals(bops)  # UY - I, PP - P, T T^T - Sigma, T Z, T T^+ - I

    # 100 pairs (z1, z2): rows 0, 2, 4, ... and 1, 3, 5, ... of one batch, in blocks
    # of pairs; each block's round trip analysis(synthesis(a)) - a comes with it
    z, step = rng.standard_normal((200, L2)), max(1, _PAIR_BLOCK // (2 * ops.d_spatial)) * 2
    resid, trip = [], []
    for i in range(0, len(z), step):
        a = chart.from_chart(z[i:i + step], args.L)
        X = transform.synthesis(ops, a)
        A = transform.analysis(ops, X)
        lhs = np.einsum("ij,ij->i", X[0::2] * ops.q, X[1::2])
        rhs = np.einsum("ij,ij->i", A[0::2].conj(), A[1::2]).real
        resid.append(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))
        trip.append(np.max(np.abs(A - a)))
    checks["isometry_relative"] = float(np.max(np.concatenate(resid)))
    checks["analysis_synthesis_round_trip"] = float(np.max(trip))

    failures = sorted(k for k, v in checks.items() if not v < args.tol)
    report = {
        "L": args.L,
        "tol": args.tol,
        "residuals": checks,
        "failures": failures,
        "pass": not failures,
        "provenance": _provenance(_settings(args)),
    }
    _write_json(_out_path(args.out, f"verify_operators_L{args.L}.json"), report)
    if failures:
        print(f"spherediff verify-operators: failed: {failures}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def cmd_covariance(args) -> int:
    _require_min("L", args.L, 1)
    _require_min("samples", args.samples, 2)  # a covariance needs two samples
    _require_finite("t", args.t)
    if args.t <= 0:
        raise UsageError("--t must be > 0")
    _require_min("seed", args.seed, 0)
    cov = noise.build_covariance(args.L)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        emp = noise.mirrored_bm_covariance(cov, args.t, args.samples, args.seed)
        theo = cov.sigma * args.t  # the stack of the t Sigma_m
    if not (np.all(np.isfinite(emp)) and np.all(np.isfinite(theo))):
        raise UsageError(f"--t {args.t!r} is too large: the covariance overflows")

    out_dir = Path(args.out_dir) if args.out_dir else _out_dir() / f"covariance_L{args.L}"
    out_dir.mkdir(parents=True, exist_ok=True)
    noise.sigma_to_csv(emp, args.L, out_dir / "covariance_empirical.csv")
    err = emp  # emp - t Sigma in place; t Sigma is zero off its (m, part) blocks
    for m, rows in indexing.block_slots(args.L):
        err[np.ix_(rows, rows)] -= theo[m, m:, m:]
    err_parts = _frobenius_parts(err, overwrite=True)  # max |err| is its scale
    del emp, err  # before the dense t Sigma is built
    noise.sigma_blocks_to_csv(theo, args.L, out_dir / "covariance_theoretical.csv")
    theo = noise.build_sigma(theo)  # for its norm only
    rel = _frobenius_ratio(err_parts, _frobenius_parts(theo, overwrite=True))
    summary = {
        "L": args.L,
        "samples": args.samples,
        "t": args.t,
        "rel_frobenius_error": rel,
        "max_abs_entry_error": float(err_parts[1]),
        "provenance": _provenance(_settings(args)),
    }
    _write_json(out_dir / "summary.json", summary)
    return 0


# ---------------------------------------------------------------------------
# diffuse
# ---------------------------------------------------------------------------

_DIFFUSE_DEFAULTS = {
    "L": 4, "n": 1000, "seed": 0, "domain": "frequency", "direction": "forward",
    "score": "none", "raw": False,
    "data_seed": None, "data_mean_scale": 0.25, "data_cov_scale": 0.04,
    **{f.name: f.default for f in dataclasses.fields(sde.VpSchedule)},
}


def _resolve_diffuse_config(args) -> dict:
    cfg = dict(_DIFFUSE_DEFAULTS)
    cfg.update((k, v) for k, v in vars(args).items() if k in cfg and v is not None)
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        section = loaded.pop("diffuse", {}) if isinstance(loaded, dict) else None
        if not (isinstance(loaded, dict) and isinstance(section, dict)):
            raise UsageError(f"config file {args.config}: expected a JSON object "
                             "with an optional \"diffuse\" object")
        unknown = sorted((set(loaded) | set(section)) - set(_DIFFUSE_DEFAULTS))
        if unknown:
            raise UsageError(f"config file {args.config}: unknown key(s) {', '.join(unknown)}")
        cfg.update(loaded)
        cfg.update(section)
    _check_diffuse_config(cfg)
    return cfg


def _check_diffuse_config(cfg: dict) -> None:
    """Reject values of the wrong type or range with a one-line UsageError."""
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    for key, low in (("L", 1), ("steps", 1), ("n", 0), ("seed", 0), ("data_seed", 0)):
        v = cfg[key]
        if not (is_int(v) and v >= low or key == "data_seed" and v is None):
            raise UsageError(f"{key} must be an integer >= {low}, got {v!r}")
    for key in ("beta_min", "beta_max", "T", "data_mean_scale", "data_cov_scale"):
        v = cfg[key]
        if not ((is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max):
            raise UsageError(f"{key} must be a finite number, got {v!r}")
    cov_floor = np.sqrt(sys.float_info.min)  # below it the covariance's squares underflow
    if not (cfg["data_mean_scale"] >= 0 and cfg["data_cov_scale"] >= cov_floor):
        raise UsageError(f"need data_mean_scale >= 0 and data_cov_scale >= {cov_floor:.3g}")
    cap = np.sqrt(sys.float_info.max)  # above it the data's squares overflow
    if not (cfg["data_mean_scale"] <= cap and cfg["data_cov_scale"] <= cap):
        raise UsageError(f"need data_mean_scale and data_cov_scale <= {cap:.3g}")
    if not isinstance(cfg["raw"], bool):
        raise UsageError(f"raw must be true or false, got {cfg['raw']!r}")
    if cfg["direction"] not in ("forward", "reverse"):
        raise UsageError(f"unknown direction {cfg['direction']!r}")
    if cfg["domain"] not in ("spatial", "frequency"):
        raise UsageError(f"unknown domain {cfg['domain']!r}")
    if cfg["score"] not in ("none", "gaussian-analytic"):
        raise UsageError(f"unknown score {cfg['score']!r}")
    if cfg["direction"] == "reverse" and cfg["score"] == "none":
        raise UsageError("reverse integration requires --score gaussian-analytic")
    seed = cfg["seed"]  # the legs draw from seed and seed + 2, the data from data_seed
    if cfg["data_seed"] in (seed, seed + 2):
        raise UsageError(f"data_seed {cfg['data_seed']} is a path seed of --seed {seed} "
                         f"(seed or seed + 2); its normals would be reused")


def cmd_diffuse(args) -> int:
    cfg = _resolve_diffuse_config(args)
    L, n, seed = cfg["L"], cfg["n"], cfg["seed"]
    try:  # VpSchedule owns the beta and T ranges
        schedule = sde.VpSchedule(
            beta_min=float(cfg["beta_min"]), beta_max=float(cfg["beta_max"]),
            T=float(cfg["T"]), steps=cfg["steps"],
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    data_seed = seed + 1 if cfg["data_seed"] is None else cfg["data_seed"]
    law = None
    if cfg["score"] == "gaussian-analytic":  # run_chain draws the data from data_seed itself
        law = sde.surrogate_gaussian(
            L, float(cfg["data_mean_scale"]), float(cfg["data_cov_scale"]),
            np.random.SeedSequence(data_seed).spawn(1)[0],
        )
    domain = "chart" if cfg["domain"] == "frequency" else "spatial"
    state, aborted, errors = sde.run_chain(L, schedule, domain, cfg["direction"], law, n,
                                           seed, data_seed)

    out = _out_path(args.out, f"diffuse_{cfg['direction']}_{cfg['domain']}_L{L}.csv")
    meta = {
        "L": L, "t": state.time, "n": n, "seed": seed,
        "domain": cfg["domain"], "direction": cfg["direction"],
        "provenance": _provenance(cfg),
    }
    noise.save_samples(out, state.values, meta, raw=bool(cfg["raw"]))
    if errors is not None:
        _write_json(Path(str(out) + ".diagnostics.json"),
                    {**errors, "aborted_paths": aborted, "provenance": _provenance(cfg)})

    if aborted:
        print(f"spherediff diffuse: {len(aborted)} path(s) aborted (non-finite or above the "
              f"blow-up limit), kept at their start rows: {aborted[:10]}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# bound-check
# ---------------------------------------------------------------------------

def cmd_bound_check(args) -> int:
    _require_min("L", args.L, 1)
    _require_min("trials", args.trials, 1)
    _require_min("seed", args.seed, 0)
    ops = transform.build_operators(args.L)
    bops = lossmap.bound_operators(ops, noise.build_covariance(args.L))
    report = lossmap.check_theorem2_bound(bops, sde.VpSchedule(), args.trials, args.seed)
    report["identity_residuals"] = lossmap.identity_residuals(bops)
    report["provenance"] = _provenance(_settings(args))
    _write_json(_out_path(args.out, f"bound_check_L{args.L}.json"), report)
    if report["violations"]:
        print(f"spherediff bound-check: failed: {report['violations']} violation(s), "
              f"min slack {report['min_slack']:.3e}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# sliced-w
# ---------------------------------------------------------------------------

def cmd_sliced_w(args) -> int:
    _require_min("n-proj", args.n_proj, 1)
    _require_finite("p", args.p)
    _require_min("p", args.p, 1)
    _require_min("seed", args.seed, 0)
    try:
        A, meta_a = noise.load_samples(args.a)
        B, meta_b = noise.load_samples(args.b)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load sample files: {exc}")
    for path, X in ((args.a, A), (args.b, B)):
        if X.shape[0] == 0:
            raise UsageError(f"sample file {path} holds no samples")
    if A.shape[1] != B.shape[1]:
        raise UsageError(
            f"sample sets are not comparable: d={A.shape[1]} vs d={B.shape[1]} "
            f"(domains {meta_a.get('domain')!r} vs {meta_b.get('domain')!r})"
        )
    res = metrics.sliced_wasserstein(A, B, p=args.p, n_proj=args.n_proj, seed=args.seed)
    payload = {
        "sw": res.value,
        "se": res.se,
        "ci2se": list(res.ci2se),
        "n_proj": res.n_proj,
        "p": res.p,
        "seed": args.seed,
        "provenance": _provenance(_settings(args)),
    }
    _write_json(_out_path(args.out, "sliced_w.json"), payload)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spherediff", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("verify-operators", help="operator identity residual suite")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify_operators)

    p = sub.add_parser("covariance", help="empirical vs theoretical chart covariance")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir")
    p.set_defaults(fn=cmd_covariance)

    p = sub.add_parser("diffuse", help="forward/reverse diffusion sampling")
    p.add_argument("--config", help="JSON config; overrides flags")
    p.add_argument("--direction", choices=["forward", "reverse"])
    p.add_argument("--domain", choices=["spatial", "frequency"])
    p.add_argument("--score", choices=["none", "gaussian-analytic"])
    p.add_argument("--L", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_diffuse)

    p = sub.add_parser("bound-check", help="frequency-vs-spatial loss bound trials")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bound_check)

    p = sub.add_parser("sliced-w", help="sliced Wasserstein distance between sample files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n-proj", type=int, default=1000)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sliced_w)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"spherediff {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except sde.BlowUpError as exc:
        print(f"spherediff {args.command}: aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
