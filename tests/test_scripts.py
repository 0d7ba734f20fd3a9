"""Smoke runs of the scripts under scripts/ at a tiny size."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_working_sets_measures_every_row_in_a_child(tmp_path):
    _run("working_sets.py", "--L", "2", "--out", str(tmp_path / "ws.json"))
    report = json.loads((tmp_path / "ws.json").read_text())
    rows = _load_script("working_sets.py").rows(2)
    assert report["L"] == 2 and [r["argv"] for r in report["rows"]] == [a for _, a in rows]
    # the last row runs the operators workload's three commands in one child
    assert [a[0] for a in report["rows"][-1]["argv"]] == ["verify-operators", "covariance",
                                                          "bound-check"]
    # each child traces its own command only; its RSS includes the import
    assert all(0 < r["traced_mb"] < r["rss_mb"] for r in report["rows"])


def test_working_sets_reads_each_childs_own_peak(tmp_path):
    # a parent that has touched 150 MB starts the child; the child's peak leaves it out
    touched = np.ones(150_000_000 // 8)
    report = _load_script("working_sets.py").measure(["verify-operators", "--L", "2"], tmp_path)
    del touched
    assert report["rss_mb"] < 100, report


def _load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_names_a_commit_only_where_its_sources_match(tmp_path):
    record = _load_script("bench_record.py")
    repo, src = tmp_path / "repo", tmp_path / "repo" / "src" / "spherediff"
    src.mkdir(parents=True)

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=repo, check=True, capture_output=True, text=True).stdout.strip()

    def tree_digest():  # bench/run.py's src_sha256 of the working tree
        h = hashlib.sha256()
        for path in sorted(src.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    git("init", "-q")
    (src / "b.py").write_text("B = 1\n")
    (src / "a.py").write_text("A = 1\n")
    (src / "notes.txt").write_text("not a source\n")
    git("add", "-A")
    git("commit", "-qm", "one")
    first, first_digest = git("rev-parse", "HEAD"), tree_digest()
    (src / "a.py").write_text("A = 2\n")  # a run from this tree still records `first`
    dirty_digest = tree_digest()
    git("commit", "-qam", "two")
    second = git("rev-parse", "HEAD")

    assert record.src_digest_at(repo, first) == first_digest
    assert record.src_digest_at(repo, second) == dirty_digest != first_digest
    assert record.src_digest_at(repo, "0" * 40) is None

    def runs(commit, digest):  # two timed runs of one workload, as bench/run.py records them
        env = {"git_commit": commit, "src_sha256": digest}
        return {("w", seed, 0): {"metrics": {"run_s": 1.0 + seed}, "environment": env,
                                 "report": {"nondeterministic_files": 0}} for seed in (1, 2)}

    spec = {"end_to_end": [{"name": "run_s", "better": "lower"}], "per_layer": []}
    env = record.fold(runs(first, first_digest), runs(first, dirty_digest), spec, repo)
    assert (env["environment"]["parent_git_commit"], env["environment"]["git_commit"]) == (
        first, None)
    env = record.fold(runs(first, first_digest), runs(second, dirty_digest), spec, repo)
    assert (env["environment"]["parent_git_commit"], env["environment"]["git_commit"]) == (
        first, second)
    env = record.fold(runs(None, first_digest), runs(second, first_digest), spec, repo)
    assert (env["environment"]["parent_git_commit"], env["environment"]["git_commit"]) == (
        None, None)
