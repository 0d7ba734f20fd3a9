#!/usr/bin/env python3
"""Measure the working set of each command in README's "Working sets" table.

    python3 scripts/working_sets.py --L 32 [--out working_sets.json]

Each row runs one `spherediff` command in a fresh child process, in a
scratch directory that also holds its outputs; the last row runs the three
commands of the benchmark's operators workload one after another in one
child, whose peak RSS depends on where the heap lies after each command, not
only on the largest one.  The child imports the package, starts
`tracemalloc`, runs the commands in-process and reports the traced peak
(NumPy's arrays and Python's objects, the import not included) and its
`VmHWM` from `/proc/self/status` (the peak RSS of the whole process, import
included, or null where that line is absent).  `VmHWM` starts afresh at
`exec`, so unlike `ru_maxrss` it does not carry over the peak of this
script, which starts each child with `vfork` and `exec`.  `sliced-w` reads
two sample files of 1000 and of 1000 or 700 rows of L^2 standard normals,
written before its child starts.  The table is printed as Markdown; `--out`
also writes it as JSON, with the machine it ran on.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from spherediff import noise
from spherediff.cli import ENV_OUT_DIR

CHILD = """
import json, sys, tracemalloc
from spherediff.cli import main


def peak_rss_mb():  # this process image's own peak, or None where the kernel does not say
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1e3
    except OSError:
        pass
    return None


tracemalloc.start()
rc = 0
for argv in json.loads(sys.argv[1]):
    rc = rc or main(argv)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"traced_mb": peak / 1e6, "rss_mb": peak_rss_mb()}))
sys.exit(rc)
"""

REVERSE = ["--direction", "reverse", "--score", "gaussian-analytic"]


def rows(L: int) -> list:
    """(label, argv) of each row at band limit L; the argv of the last row is
    a list of three argvs, run in one process."""
    diffuse = ["diffuse", "--L", str(L)]
    sliced = ["sliced-w", "--a", "a.csv", "--n-proj", "500"]
    sequence = [["verify-operators", "--L", str(L)],
                ["covariance", "--L", str(L), "--samples", "2000"],
                ["bound-check", "--L", str(max(1, L // 2)), "--trials", "500"]]
    return [
        (f"`verify-operators --L {L}`", ["verify-operators", "--L", str(L)]),
        (f"`covariance --L {L} --samples 2000`",
         ["covariance", "--L", str(L), "--samples", "2000"]),
        (f"`covariance --L {L} --samples 50000`",
         ["covariance", "--L", str(L), "--samples", "50000"]),
        (f"`bound-check --L {L} --trials 500`",
         ["bound-check", "--L", str(L), "--trials", "500"]),
        (f"`diffuse --L {L} --n 1000 --steps 100` (chart, forward)",
         diffuse + ["--n", "1000", "--steps", "100"]),
        (f"`diffuse --L {L} --n 1000 --steps 100 --domain spatial`",
         diffuse + ["--n", "1000", "--steps", "100", "--domain", "spatial"]),
        (f"`diffuse --L {L} --n 200 --steps 20`, reverse, chart",
         diffuse + ["--n", "200", "--steps", "20", *REVERSE]),
        (f"`diffuse --L {L} --n 200 --steps 20`, reverse, spatial",
         diffuse + ["--n", "200", "--steps", "20", "--domain", "spatial", *REVERSE]),
        (f"`sliced-w`, 1000 against 1000 rows of {L * L} values, 500 projections",
         sliced + ["--b", "b.csv"]),
        (f"`sliced-w`, 1000 against 700 rows of {L * L} values, 500 projections",
         sliced + ["--b", "c.csv"]),
        ("the operators workload in one process: "
         + ", then ".join(f"`{' '.join(a)}`" for a in sequence), sequence),
    ]


def measure(argv, work_dir: Path) -> dict:
    """The child's report of one command, or of a list of commands run one
    after another, in work_dir."""
    env = dict(os.environ, **{ENV_OUT_DIR: str(work_dir)})
    # the directory of the spherediff imported here goes first, so the child
    # runs this package even from an uninstalled checkout
    pkg_root = str(Path(noise.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    commands = argv if isinstance(argv[0], list) else [argv]
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], cwd=work_dir,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{commands} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--L", type=int, default=32)
    parser.add_argument("--out", help="also write the table as JSON here")
    args = parser.parse_args()
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        work_dir = Path(tmp)
        rng = np.random.default_rng(0)
        for name, n in (("a.csv", 1000), ("b.csv", 1000), ("c.csv", 700)):
            noise.save_samples(work_dir / name, rng.standard_normal((n, args.L ** 2)),
                               {"L": args.L})
        for label, argv in rows(args.L):
            results.append({"command": label, "argv": argv, **measure(argv, work_dir)})
    print("| command | traced peak | peak RSS |\n|---|---|---|")
    for r in results:
        rss = "n/a" if r["rss_mb"] is None else f"{r['rss_mb']:.0f} MB"
        print(f"| {r['command']} | {r['traced_mb']:.1f} MB | {rss} |")
    if args.out:
        machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
                   "numpy": np.__version__, "machine": platform.machine()}
        Path(args.out).write_text(json.dumps({"L": args.L, "machine": machine,
                                              "rows": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
