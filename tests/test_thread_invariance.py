"""Command outputs do not depend on the BLAS thread count.

Importing `spherediff` sets NumPy's OpenBLAS to one thread, whatever
OPENBLAS_NUM_THREADS asks for; a test checks that the setting took.  The
three operator commands run at L = 16, `verify-operators` and `bound-check`
also at L = 20, and the recovery path (reverse `diffuse` in both domains,
then `sliced-w`) at L = 12, where BLAS and LAPACK would split their work
among threads.  A sweep runs reverse `diffuse` at every L = 1 ... 13, on
the grid at L = 20 and in the chart at L = 32, `covariance` up to L = 32
and `verify-operators` at L = 32, whose transforms run over several FFT
blocks of rows there.  Each runs in child processes under one and two threads; every
output file must be byte-identical.
"""

import json
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

COMMANDS_L20 = [
    ["verify-operators", "--L", "20", "--seed", "7"],
    ["bound-check", "--L", "20", "--trials", "50", "--seed", "9"],
]


RECOVERY = [
    ["diffuse", "--config", "law.json", "--direction", "reverse",
     "--score", "gaussian-analytic", "--domain", domain, "--L", "12", "--n", "250",
     "--steps", "40", "--seed", seed, "--out", f"{domain}_{seed}.csv"]
    for domain, seed in (("frequency", "3"), ("spatial", "3"), ("spatial", "4"))
] + [["sliced-w", "--a", "spatial_3.csv", "--b", "spatial_4.csv", "--n-proj", "500",
      "--seed", "5", "--out", "sw_spatial.json"]]


# (rows, inner, columns): the spatial score's projection r @ Q at L = 12, and
# sliced-w's 500 projections of chart and grid samples at L = 12 and L = 4;
# without the one-thread setting, products of these shapes differ under one
# and two threads
PRODUCTS = [(250, 552, 144), (250, 552, 500), (250, 144, 500), (1000, 56, 500)]
PRODUCT_SCRIPT = f"""
import hashlib, numpy as np
import spherediff
rng = np.random.default_rng(0)
for m, k, n in {PRODUCTS}:
    a, b = rng.standard_normal((m, k)), rng.standard_normal((n, k)).T
    print(hashlib.sha256((a @ b).tobytes()).hexdigest())
"""

# the thread count NumPy's OpenBLAS runs on after `import spherediff`
PIN_SCRIPT = """
import spherediff
from spherediff.metrics import _blas_thread_controls
controls = _blas_thread_controls()
assert controls is not None, "NumPy's bundled OpenBLAS not found"
print(controls[0]())
"""


# reverse diffuse in both domains at every L = 1 ... 13, on the grid at L = 20 and
# in the chart at L = 32 (a 1024 x 1024 eigh), covariance at L = 9, 17 and 32,
# verify-operators at L = 32 (FFT blocks of 32 rows), and sliced-w on 306-wide grid samples
SWEEP = [
    ["diffuse", "--config", "law.json", "--direction", "reverse",
     "--score", "gaussian-analytic", "--domain", domain, "--L", str(L), "--n", "40",
     "--steps", "5", "--seed", seed, "--out", f"{domain}_L{L}_{seed}.csv"]
    for L in range(1, 14) for domain in ("frequency", "spatial")
    for seed in (("3", "4") if (L, domain) == (9, "spatial") else ("3",))
] + [
    ["diffuse", "--direction", "reverse", "--score", "gaussian-analytic", "--domain",
     "spatial", "--L", "20", "--n", "20", "--steps", "5", "--seed", "3",
     "--out", "spatial_L20_3.csv"],
    ["diffuse", "--direction", "reverse", "--score", "gaussian-analytic", "--domain",
     "frequency", "--L", "32", "--n", "20", "--steps", "5", "--seed", "3",
     "--out", "frequency_L32_3.csv"],
] + [
    ["covariance", "--L", str(L), "--samples", "20", "--seed", "8", "--out-dir", f"cov_L{L}"]
    for L in (9, 17)
] + [
    ["covariance", "--L", "32", "--samples", "50", "--seed", "8", "--out-dir", "cov_L32"],
    ["verify-operators", "--L", "32", "--seed", "7", "--out", "verify_L32.json"],
] + [["sliced-w", "--a", "spatial_L9_3.csv", "--b", "spatial_L9_4.csv",
      "--n-proj", "50", "--seed", "5", "--out", "sw_spatial_L9.json"]]
# one child per thread count runs the whole sweep in-process and prints
# {file name: sha256 of its bytes}
SWEEP_SCRIPT = """
import hashlib, json, os, sys
from pathlib import Path
from spherediff.cli import main
out = Path(sys.argv[1])
os.chdir(out)
(out / "law.json").write_text('{"data_seed": 7}\\n')
for cmd in json.loads(sys.argv[2]):
    assert main(cmd) == 0, cmd
print(json.dumps({str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.rglob("*")) if p.is_file()}))
"""


def _env(threads: str) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # the child runs with cwd=out_dir, so a relative PYTHONPATH entry would
    # point nowhere; put the directory of the spherediff imported here first
    pkg_root = str(Path(spherediff.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + os.pathsep + inherited if inherited else pkg_root
    return env


def _run(out_dir: Path, threads: str, commands=COMMANDS) -> None:
    env = _env(threads)
    env[ENV_OUT_DIR] = str(out_dir)
    for cmd in commands:
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


def test_operator_outputs_at_L20_byte_identical_under_one_and_two_threads(tmp_path):
    # L^2 = 400 and d_X = 1560 exceed the 288 inner terms that a plain BLAS
    # product keeps thread-invariant, in the bound operators and identity checks
    one, two = tmp_path / "threads1", tmp_path / "threads2"
    one.mkdir()
    two.mkdir()
    _run(one, "1", COMMANDS_L20)
    _run(two, "2", COMMANDS_L20)
    names = sorted(str(p.relative_to(one)) for p in one.rglob("*") if p.is_file())
    assert names == ["bound_check_L20.json", "verify_operators_L20.json"]
    diffs = [n for n in names if (one / n).read_bytes() != (two / n).read_bytes()]
    assert diffs == []


def test_recovery_outputs_byte_identical_under_one_and_two_threads(tmp_path):
    one, two = tmp_path / "threads1", tmp_path / "threads2"
    for out_dir in (one, two):
        out_dir.mkdir()
        (out_dir / "law.json").write_text('{"data_seed": 7}\n')
    _run(one, "1", RECOVERY)
    _run(two, "2", RECOVERY)
    names = sorted(str(p.relative_to(one)) for p in one.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(two)) for p in two.rglob("*") if p.is_file())
    assert len(names) == 11  # law, three (csv, sidecar, diagnostics) triples, sw json
    diffs = [n for n in names if (one / n).read_bytes() != (two / n).read_bytes()]
    assert diffs == []


def test_importing_spherediff_pins_blas_to_one_thread():
    proc = subprocess.run([sys.executable, "-c", PIN_SCRIPT], env=_env("2"),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


def test_plain_products_byte_identical_under_one_and_two_threads():
    hashes = [
        subprocess.run([sys.executable, "-c", PRODUCT_SCRIPT], env=_env(threads),
                       capture_output=True, text=True, check=True).stdout.split()
        for threads in ("1", "2")
    ]
    assert len(hashes[0]) == len(PRODUCTS)
    assert hashes[0] == hashes[1]


def test_data_draw_sweep_byte_identical_under_one_and_two_threads(tmp_path):
    hashes = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        out_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", SWEEP_SCRIPT, str(out_dir), json.dumps(SWEEP)],
            env=_env(threads), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        hashes.append(json.loads(proc.stdout.splitlines()[-1]))
    # law.json, 29 (csv, sidecar, diagnostics) triples, 3 x 3 covariance files, the
    # verify-operators report, sw json
    assert len(hashes[0]) == 1 + 29 * 3 + 9 + 1 + 1
    assert hashes[0].keys() == hashes[1].keys()
    assert sorted(n for n in hashes[0] if hashes[0][n] != hashes[1][n]) == []


def test_covariance_panels_byte_identical_under_one_and_two_threads(tmp_path):
    # at L = 12 a BLAS norm of the spatial panel's error changes its last bits
    script = Path(__file__).resolve().parents[1] / "scripts" / "covariance_panels.py"
    for threads in ("1", "2"):
        subprocess.run([sys.executable, str(script), "--L", "12", "--samples", "2000",
                        "--out-dir", str(tmp_path / threads)],
                       env=_env(threads), capture_output=True, check=True)
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == ["empirical_factor.csv", "empirical_spatial.csv", "report.json",
                     "theoretical.csv"]
    assert [n for n in names if (tmp_path / "1" / n).read_bytes()
            != (tmp_path / "2" / n).read_bytes()] == []


def test_gaussian_recovery_report_byte_identical_under_one_and_two_threads(tmp_path):
    # without the one-thread setting, the fresh data's eigh and products change
    # their last bits with the thread count from L = 13 on
    script = Path(__file__).resolve().parents[1] / "scripts" / "gaussian_recovery.py"
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, str(script), "--L", "13", "--n", "200",
                               "--steps", "20", "--out", str(tmp_path / f"{threads}.json")],
                              env=_env(threads), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()
