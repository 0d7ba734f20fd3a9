"""Smoke runs of the scripts under scripts/ at a tiny size."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spherediff

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, *args):
    env = dict(os.environ)
    # the absolute directory of the spherediff imported here goes first, as
    # in the thread-count test, so the script runs this package uninstalled
    pkg_root = str(Path(spherediff.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + os.pathsep + inherited if inherited else pkg_root
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _numbers(report):
    for v in report.values():
        if isinstance(v, dict):
            yield from _numbers(v)
        else:
            yield v


@pytest.mark.parametrize("script, args, report", [
    ("gaussian_recovery.py", ["--L", "2", "--n", "200", "--steps", "20", "--out", "{out}/r.json"],
     "r.json"),
    ("covariance_panels.py", ["--L", "2", "--samples", "200", "--out-dir", "{out}"],
     "report.json"),
])
def test_script_runs_and_reports_finite_values(tmp_path, script, args, report):
    _run(script, *(a.format(out=tmp_path) for a in args))
    values = list(_numbers(json.loads((tmp_path / report).read_text())))
    assert values and all(math.isfinite(v) for v in values)
