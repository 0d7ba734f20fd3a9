"""Operator-suite outputs do not depend on the BLAS thread count.

The three operator commands run at L = 16, where BLAS and LAPACK split
their work among threads, in child processes under one and two threads;
every output file must be byte-identical.
"""

import os
import subprocess
import sys
from pathlib import Path

import spherediff
from spherediff.cli import ENV_OUT_DIR

COMMANDS = [
    ["verify-operators", "--L", "16", "--seed", "7"],
    ["covariance", "--L", "16", "--samples", "500", "--seed", "8"],
    ["bound-check", "--L", "16", "--trials", "50", "--seed", "9"],
]


def _run(out_dir: Path, threads: str) -> None:
    env = dict(os.environ)
    env[ENV_OUT_DIR] = str(out_dir)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # the child runs with cwd=out_dir, so a relative PYTHONPATH entry would
    # point nowhere; put the directory of the spherediff imported here first
    pkg_root = str(Path(spherediff.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + os.pathsep + inherited if inherited else pkg_root
    for cmd in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "spherediff.cli", *cmd],
            env=env, cwd=str(out_dir), capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"{cmd}: rc={proc.returncode}\n{proc.stderr}"


def test_operator_outputs_byte_identical_under_one_and_two_threads(tmp_path):
    one, two = tmp_path / "threads1", tmp_path / "threads2"
    one.mkdir()
    two.mkdir()
    _run(one, "1")
    _run(two, "2")
    names = sorted(str(p.relative_to(one)) for p in one.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(two)) for p in two.rglob("*") if p.is_file())
    assert len(names) == 5  # verify json, two covariance CSVs, summary, bound json
    diffs = [n for n in names if (one / n).read_bytes() != (two / n).read_bytes()]
    assert diffs == []
