"""One benchmark process: an iteration of commands, or a cold set-up.

    python3 bench/worker.py iteration PLAN.json RESULT.json
    python3 bench/worker.py setup BUILDS.json

An iteration runs each argv list of the plan through `spherediff.cli.main`
in this process, one after another, timing each call.  With `"trace": true`
in the plan it first installs the tracer; otherwise the tracer module is
never imported.  The result holds exit codes, per-command seconds, the peak
resident set size and, when traced, the spans and counters.

Set-up imports the package and performs the operator builds the plan's
commands would need; the parent times the whole process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _call(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse errors and --help exit this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command is a failed operation; keep going
        traceback.print_exc()
        return -1


def iteration(plan: dict) -> dict:
    from spherediff import cli

    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.package_modules())
    rcs, seconds = [], []
    for argv in plan["commands"]:
        t0 = time.perf_counter()
        if tracer:
            idx = tracer.begin("cli." + argv[0].replace("-", "_"))
        rc = _call(cli, argv)
        if tracer:
            tracer.end(idx)
        seconds.append(time.perf_counter() - t0)
        rcs.append(rc)
    result = {
        "rcs": rcs,
        "seconds": seconds,
        "run_s": sum(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "tracer_loaded": "tracer" in sys.modules,
    }
    if tracer:
        result.update(spans=tracer.spans, counters=dict(tracer.counters),
                      absent=tracer.absent, hook_errors=tracer.hook_errors)
    return result


def setup(builds) -> None:
    """Run the builds [(L, extras), ...]: operators and covariance at each L,
    then the extra matrices named in `extras`."""
    from spherediff import chart, lossmap, noise, transform

    for L, extras in builds:
        ops = transform.build_operators(L)
        cov = noise.build_covariance(L)
        if "synthesis_matrix" in extras:
            chart.synthesis_matrix(ops)
        if "chart_linear_map" in extras:
            chart.chart_linear_map(ops)
        if "bound_operators" in extras:
            lossmap.build_bound_operators(ops, cov.Sigma)


def main(argv) -> int:
    mode = argv[0]
    if mode == "iteration":
        result = iteration(json.loads(Path(argv[1]).read_text()))
        Path(argv[2]).write_text(json.dumps(result))
        return 0
    if mode == "setup":
        setup(json.loads(Path(argv[1]).read_text()))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
