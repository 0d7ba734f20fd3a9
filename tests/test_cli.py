import argparse
import ast
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dense_reference import sigma_csv, sliced_wasserstein_in_logs
import spherediff
from spherediff import chart, cli, lossmap, metrics, noise, sde, transform
from spherediff.cli import ENV_OUT_DIR, main


@pytest.fixture(autouse=True)
def _isolated_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path))
    return tmp_path


def _read_json(path):
    return json.loads(path.read_text())


def _run_cli(argv, cwd):
    """(exit code, stderr) of `python -m spherediff.cli argv` in a child process, where
    Python's warnings reach stderr as they do for a user."""
    env = dict(os.environ)
    pkg_root = str(Path(spherediff.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "spherediff.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == cli.__version__


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify-operators"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["diffuse", "--direction", "sideways"],
    ["frobnicate"],
    ["verify-operators"],
], ids=["bad-choice", "unknown-command", "missing-required-flag"])
def test_parser_errors_are_one_stderr_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("spherediff"), err


def test_help_prints_the_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diffuse", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spherediff diffuse")


def test_verify_operators_success(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify-operators", "--L", "2", "--out", str(out)]) == 0
    rep = _read_json(out)
    assert rep["pass"] is True and rep["failures"] == []
    for v in rep["residuals"].values():
        assert v < 1e-10
    prov = rep["provenance"]
    assert prov["tool_version"] == cli.__version__
    assert len(prov["config_hash"]) == 64
    assert prov["seed"] == 0


def test_verify_operators_default_out_respects_env(tmp_path):
    assert main(["verify-operators", "--L", "1"]) == 0
    assert (tmp_path / "verify_operators_L1.json").exists()


def test_verify_operators_impossible_tolerance_fails(tmp_path, capsys):
    assert main(["verify-operators", "--L", "2", "--tol", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spherediff verify-operators: failed: ")
    assert _read_json(tmp_path / "verify_operators_L2.json")["pass"] is False


def test_verify_operators_rejects_bad_band_limit():
    assert main(["verify-operators", "--L", "0"]) == 1


def _dense_verify_residuals(L, seed):
    """verify-operators' seven residuals from the dense Y, U, T and M."""
    ops = transform.build_operators(L)
    Sigma = noise.build_covariance(L).Sigma
    T, M = chart.chart_linear_map(ops), chart.synthesis_matrix(ops)
    w, V = np.linalg.eigh(Sigma)
    keep = w > 1e-10
    Tplus = T.T @ ((V[:, keep] / w[keep]) @ V[:, keep].T)
    eye, P = np.eye(L * L), M @ T
    res = {
        "uy_minus_identity": np.linalg.norm(ops.U @ ops.Y - eye),
        "projector_idempotence": np.linalg.norm(P @ P - P),
        "tt_transpose_minus_sigma": np.max(np.abs(T @ T.T - Sigma)),
        "t_z": np.max(np.abs(T @ (M - Tplus))),
        "t_tplus_minus_identity": np.max(np.abs(T @ Tplus - eye)),
    }
    a = chart.from_chart(np.random.default_rng(seed).standard_normal((200, L * L)), L)
    X = (a @ ops.Y.T).real
    A = X @ ops.U.T
    lhs = np.sum(X[0::2] * ops.q * X[1::2], axis=1)
    rhs = np.sum(A[0::2].conj() * A[1::2], axis=1).real
    res["isometry_relative"] = np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))
    res["analysis_synthesis_round_trip"] = np.max(np.abs(A - a))
    return res


@pytest.mark.parametrize("L", [1, 2, 3, 8, 16])
def test_verify_operators_per_order_residuals_match_a_dense_oracle(tmp_path, L):
    out = tmp_path / "verify.json"
    assert main(["verify-operators", "--L", str(L), "--out", str(out)]) == 0
    got = _read_json(out)["residuals"]
    want = _dense_verify_residuals(L, 0)
    assert got.keys() == want.keys()
    # the dense Y's phases exp(i m phi_k) round m * phi_k, so at L = 16 dense
    # synthesis is off the exact-angle values by 1.4e-13 against 8e-15 for the
    # ring FFT; the isometry residual measures that round-off, and the
    # per-order one may therefore be the smaller by more than 1e-13
    assert got["isometry_relative"] <= want.pop("isometry_relative") + 1e-13
    assert all(abs(got[k] - want[k]) <= 1e-13 for k in want), (got, want)


def test_verify_operators_fails_when_a_ring_weight_is_off(tmp_path, monkeypatch, capsys):
    build_grid = transform.build_grid

    def off_grid(L):
        grid = build_grid(L)
        weights = grid.weights.copy()
        weights[1] *= 1 + 1e-6
        return dataclasses.replace(grid, weights=weights)

    monkeypatch.setattr(transform, "build_grid", off_grid)
    assert main(["verify-operators", "--L", "4"]) == 2
    assert capsys.readouterr().err.startswith("spherediff verify-operators: failed: ")
    assert "uy_minus_identity" in _read_json(tmp_path / "verify_operators_L4.json")["failures"]


def test_verify_operators_at_L64_builds_no_dense_operator(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("the dense Y or U was built")

    monkeypatch.setattr(transform.OperatorSet, "Y", property(refuse))
    monkeypatch.setattr(transform.OperatorSet, "U", property(refuse))
    assert main(["verify-operators", "--L", "64"]) == 0
    assert _read_json(tmp_path / "verify_operators_L64.json")["pass"] is True


def _verify_in_blocks(L, rows, tmp_path, monkeypatch):
    """verify-operators' report at L (seed 0) with the isometry pairs
    transformed `rows` rows at a time (the default blocks if None), and the
    number of rows each `analysis` call transformed."""
    seen, analysis = [], transform.analysis

    def spy(ops, x):
        seen.append(len(x))
        return analysis(ops, x)

    with monkeypatch.context() as mp:
        mp.setattr(transform, "analysis", spy)
        if rows:
            mp.setattr(cli, "_PAIR_BLOCK", rows * transform.build_operators(L).d_spatial)
        assert main(["verify-operators", "--L", str(L), "--out", str(tmp_path / "v.json")]) == 0
    return _read_json(tmp_path / "v.json"), seen


# blocks of 2 rows, of 6 (and a last one of 2), and one block of the whole batch
@pytest.mark.parametrize("rows", [2, 6, 200])
def test_verify_operators_in_pair_blocks_keeps_its_report(rows, tmp_path, monkeypatch):
    want, _ = _verify_in_blocks(8, 200, tmp_path, monkeypatch)
    got, seen = _verify_in_blocks(8, rows, tmp_path, monkeypatch)
    assert got == want and got["pass"] is True
    assert seen == [rows] * (200 // rows) + [200 % rows] * (200 % rows > 0)


def test_verify_operators_at_L32_in_blocks_of_any_size_agrees(tmp_path, monkeypatch):
    # the default blocks of 32 rows keep the bits of one block; blocks of 2 rows
    # multiply the Legendre blocks in other products, whose last bits differ
    want, _ = _verify_in_blocks(32, 200, tmp_path, monkeypatch)
    got, seen = _verify_in_blocks(32, None, tmp_path, monkeypatch)
    assert got == want and seen == [32] * 6 + [8]
    got, _ = _verify_in_blocks(32, 2, tmp_path, monkeypatch)
    assert got["pass"] is True
    for key, value in want["residuals"].items():
        assert abs(got["residuals"][key] - value) <= 1e-13, key


# Measured peaks in a fresh process.  verify-operators: 11.6 MB, with its
# 200-row batch transformed 32 rows (whole pairs) at a time (27.0 MB with the
# whole batch at once).  covariance holds one L^2 x L^2 array at a time, one
# block of its samples and a panel of L^2 / 8 columns: 15.5 MB at L = 32 with
# blocks of 512 rows (23.2 MB with an L^2 x L^2 product buffer and a dense
# t Sigma beside the estimate), 12.1 MB with 100 samples, one block (20.3 MB
# with t Sigma and the estimate both dense), and 6.8 MB at L = 16 with blocks
# of 2048 rows (46.2 MB with all 20 000 samples held).  bound-check draws its
# 500 trials up front (16.4 MB) and evaluates 32 at a time: 24.7 MB (93.7 MB
# as one batch).
@pytest.mark.parametrize("argv,bound", [
    (["verify-operators", "--L", "32"], 15e6),
    (["covariance", "--L", "32", "--samples", "2000"], 20e6),
    (["covariance", "--L", "16", "--samples", "20000"], 8e6),
    (["covariance", "--L", "32", "--samples", "100"], 14e6),
    (["bound-check", "--L", "32", "--trials", "500"], 30e6),
])
def test_L32_checks_run_within_a_memory_bound(argv, bound):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def _refuse_dense_operators(monkeypatch, *, bound):
    """Make the dense Y and U raise, and with `bound` also the dense Sigma and
    the chart matrices (from which any dense T, T^+, Z or M is built),
    wherever bound."""
    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator was built")

    for name in ("Y", "U"):
        monkeypatch.setattr(transform.OperatorSet, name, property(refuse))
    if not bound:
        return
    monkeypatch.setattr(noise.CovarianceSet, "Sigma", property(refuse))
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "spherediff"]
    for module in modules:
        for name in ("chart_linear_map", "synthesis_matrix", "build_sigma"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("argv,bound", [
    (["diffuse", "--L", "4", "--n", "20", "--steps", "5", "--direction", "reverse",
      "--score", "gaussian-analytic", "--domain", "frequency"], False),
    (["diffuse", "--L", "4", "--n", "20", "--steps", "5", "--direction", "reverse",
      "--score", "gaussian-analytic", "--domain", "spatial"], False),
    (["bound-check", "--L", "4", "--trials", "20"], False),
    (["bound-check", "--L", "4", "--trials", "20"], True),
    (["verify-operators", "--L", "4"], True),
    (["covariance", "--L", "32", "--samples", "100"], True),
], ids=["diffuse-frequency", "diffuse-spatial", "bound-check", "bound-check-per-order",
        "verify-operators-per-order", "covariance"])
def test_commands_build_no_dense_operator(argv, bound, monkeypatch):
    _refuse_dense_operators(monkeypatch, bound=bound)
    assert main(argv) == 0


@pytest.mark.parametrize("domain", ["frequency", "spatial"])
def test_reverse_diffuse_steps_no_euler_maruyama_update(domain, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a reverse diffuse stepped its chain")

    monkeypatch.setattr(sde, "integrate", refuse)
    monkeypatch.setattr(sde, "_em_update", refuse)
    assert main(["diffuse", "--L", "4", "--n", "20", "--steps", "50", "--direction", "reverse",
                 "--score", "gaussian-analytic", "--domain", domain,
                 "--out", str(tmp_path / "rev.csv")]) == 0
    assert _read_json(tmp_path / "rev.csv.diagnostics.json")["aborted_paths"] == []


def test_chart_forward_diffuse_draws_its_noise_through_the_sampler(tmp_path, monkeypatch):
    calls, sample = [], noise.sample_mirrored_bm
    monkeypatch.setattr(noise, "sample_mirrored_bm",
                        lambda cov, t, n, seed: calls.append((t, n)) or sample(cov, t, n, seed))
    assert main(["diffuse", "--L", "4", "--n", "20", "--steps", "50",
                 "--out", str(tmp_path / "fwd.csv")]) == 0
    assert calls == [(1.0, 20)]


def test_bound_check_at_L64_builds_no_dense_operator(tmp_path, monkeypatch):
    _refuse_dense_operators(monkeypatch, bound=True)
    assert main(["bound-check", "--L", "64", "--trials", "100"]) == 0
    assert _read_json(tmp_path / "bound_check_L64.json")["violations"] == 0


def test_covariance_outputs(tmp_path):
    out_dir = tmp_path / "cov"
    rc = main(["covariance", "--L", "2", "--samples", "2000", "--seed", "3",
               "--out-dir", str(out_dir)])
    assert rc == 0
    emp = (out_dir / "covariance_empirical.csv").read_text()
    assert emp.splitlines()[0].startswith("index,")  # chart-slot labelled header
    summary = _read_json(out_dir / "summary.json")
    assert summary["rel_frobenius_error"] < 0.3
    assert summary["samples"] == 2000


def test_covariance_at_a_subnormal_time_reports_no_relative_error(tmp_path):
    # t Sigma is subnormal, so its squares and its Frobenius norm are exactly 0
    out_dir = tmp_path / "cov"
    assert main(["covariance", "--L", "2", "--samples", "10", "--t", "1e-320",
                 "--out-dir", str(out_dir)]) == 0
    assert _read_json(out_dir / "summary.json")["rel_frobenius_error"] is None


def test_covariance_at_a_tiny_normal_time_reports_its_relative_error(tmp_path):
    # the squares of t Sigma underflow, but its entries are normal floats: the error is
    # the one at t = 1 with the same draws, not null
    got = {}
    for t in ("1", "1e-300"):
        assert main(["covariance", "--L", "2", "--samples", "10", "--t", t,
                     "--out-dir", str(tmp_path / t)]) == 0
        got[t] = _read_json(tmp_path / t / "summary.json")["rel_frobenius_error"]
    assert got["1e-300"] == pytest.approx(got["1"], rel=1e-12)


def test_covariance_at_a_power_of_two_time_reports_the_same_relative_error(tmp_path):
    # t = 2^-600 scales the draws by 2^-300 and both covariances by 2^-600, all exactly,
    # and the ratio of the two norms takes its powers of 2 back exactly
    got = {}
    for t in (repr(2.0 ** -600), "1"):
        assert main(["covariance", "--L", "2", "--samples", "10", "--t", t,
                     "--out-dir", str(tmp_path / t)]) == 0
        got[t] = _read_json(tmp_path / t / "summary.json")["rel_frobenius_error"]
    assert got[repr(2.0 ** -600)] == got["1"]


def test_covariance_csvs_at_L32_equal_the_per_value_formatter(tmp_path):
    out_dir = tmp_path / "cov"
    assert main(["covariance", "--L", "32", "--samples", "100", "--t", "0.7", "--seed", "4",
                 "--out-dir", str(out_dir)]) == 0
    cov = noise.build_covariance(32)
    emp = noise.empirical_covariance(noise.sample_mirrored_bm(cov, 0.7, 100, 4))
    assert np.array_equal(emp.view(np.uint64), emp.T.view(np.uint64))  # mirror cells reused
    for name, X in (("empirical", emp), ("theoretical", 0.7 * cov.Sigma)):
        assert (out_dir / f"covariance_{name}.csv").read_text() == sigma_csv(X, 32), name


@pytest.mark.parametrize("t", ["1e300", "1e307"])
def test_covariance_at_a_huge_time_writes_json_numbers(t, tmp_path):
    # the squares of t Sigma overflow, so the norms are taken over scaled entries
    out_dir = tmp_path / "cov"
    assert main(["covariance", "--L", "2", "--samples", "10", "--t", t,
                 "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text(),
                         parse_constant=lambda c: pytest.fail(f"non-JSON token {c}"))
    assert 0 < summary["rel_frobenius_error"] < 10


def test_covariance_that_overflows_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "cov"
    assert main(["covariance", "--L", "2", "--samples", "10", "--t", "1e308",
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == ("spherediff covariance: error: --t 1e+308 is too "
                                       "large: the covariance overflows\n")
    assert not out_dir.exists()


def test_covariance_that_overflows_in_later_blocks_prints_one_line(tmp_path):
    # blocks of 512 samples: the Grams and merge terms overflow, and NumPy does not warn
    rc, err = _run_cli(["covariance", "--L", "2", "--samples", "3000", "--t", "1e307",
                        "--out-dir", "cov"], tmp_path)
    assert rc == 1
    assert err == "spherediff covariance: error: --t 1e+307 is too large: the covariance overflows\n"


def test_covariance_usage_errors():
    assert main(["covariance", "--L", "2", "--samples", "1"]) == 1
    assert main(["covariance", "--L", "2", "--t", "0"]) == 1
    assert main(["covariance", "--L", "0"]) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["verify-operators", "--L", "2", "--tol"],
    ["covariance", "--L", "2", "--samples", "10", "--t"],
    ["sliced-w", "--a", "a.csv", "--b", "a.csv", "--n-proj", "4", "--p"],
], ids=["tol", "t", "p"])
def test_non_finite_float_flags_are_usage_errors(argv, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    noise.save_samples(tmp_path / "a.csv", np.ones((3, 4)), {"L": 2, "t": 1.0, "seed": 0})
    assert main(argv + [value]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{argv[-1]} must be a finite number" in err


def test_diffuse_forward_writes_samples_and_sidecar(tmp_path):
    out = tmp_path / "fwd.csv"
    rc = main(["diffuse", "--L", "2", "--n", "5", "--steps", "3",
               "--domain", "frequency", "--direction", "forward",
               "--seed", "11", "--out", str(out)])
    assert rc == 0
    X, meta = noise.load_samples(out)
    assert X.shape == (5, 4)
    assert meta["t"] == 1.0 and meta["domain"] == "frequency"
    assert meta["provenance"]["seed"] == 11


def test_diffuse_reverse_requires_score():
    assert main(["diffuse", "--L", "2", "--direction", "reverse",
                 "--score", "none"]) == 1


def test_diffuse_reverse_recovers_and_reports(tmp_path):
    out = tmp_path / "rev.csv"
    rc = main(["diffuse", "--L", "2", "--n", "200", "--steps", "60",
               "--domain", "frequency", "--direction", "reverse",
               "--score", "gaussian-analytic", "--seed", "4", "--out", str(out)])
    assert rc == 0
    diag = _read_json(tmp_path / "rev.csv.diagnostics.json")
    assert diag["aborted_paths"] == []
    assert diag["mean_rel_error"] < 0.5  # tiny run; acceptance suite is strict
    X, _ = noise.load_samples(out)
    assert X.shape == (200, 4)


def test_diffuse_runs_are_byte_identical(tmp_path):
    args = ["diffuse", "--L", "2", "--n", "8", "--steps", "5", "--seed", "9"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    side1 = (tmp_path / "a.csv.json").read_bytes()
    side2 = (tmp_path / "b.csv.json").read_bytes()
    assert side1 == side2


def test_diffuse_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 7}))
    out = tmp_path / "cfg_run.csv"
    rc = main(["diffuse", "--L", "2", "--n", "3", "--steps", "2",
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    X, _ = noise.load_samples(out)
    assert X.shape[0] == 7  # config file wins over the --n 3 flag


def test_diffuse_config_section_and_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"diffuse": {"steps": 2, "n": 4, "L": 2}}))
    out = tmp_path / "sec.csv"
    assert main(["diffuse", "--config", str(cfg), "--out", str(out)]) == 0
    X, meta = noise.load_samples(out)
    assert X.shape == (4, 4)
    assert meta["domain"] == "frequency"  # built-in default survives


def test_diffuse_rejects_bad_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["diffuse", "--config", str(bad)]) == 1
    assert main(["diffuse", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("cfg", [
    {"stpes": 5},
    {"diffuse": {"n": 4, "stpes": 5}},
])
def test_diffuse_rejects_unknown_config_keys(tmp_path, capsys, cfg):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    assert main(["diffuse", "--L", "2", "--n", "3", "--steps", "2",
                 "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip()
    assert "stpes" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "diffuse_forward_frequency_L2.csv").exists()


@pytest.mark.parametrize("cfg", [
    {"L": "abc"},
    {"beta_min": -1},
    {"beta_min": 5.0, "beta_max": 1.0},
    {"T": "x"},
    {"n": 2.5},
    {"seed": -3},
    {"data_cov_scale": 0},
    {"raw": "yes"},
    {"diffuse": {"steps": None}},
    ["not", "an", "object"],
    {"diffuse": [1, 2]},
    {"direction": "sideways"},  # argparse checks the choices of the flags only
    {"domain": "x"},
    {"score": "x"},
])
def test_diffuse_rejects_bad_config_values(tmp_path, capsys, cfg):
    path = tmp_path / "bad_values.json"
    path.write_text(json.dumps(cfg))
    assert main(["diffuse", "--L", "2", "--n", "3", "--steps", "2",
                 "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("spherediff diffuse: error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("domain", ["frequency", "spatial"])
@pytest.mark.parametrize("law,rc", [
    ({"data_mean_scale": 0}, 0),       # zero mean: its relative error has no reference
    ({"data_cov_scale": 1e-200}, 1),   # the covariance's norm underflows to 0
    ({"data_cov_scale": 1e-310}, 1),   # subnormal: its eigendecomposition fails
], ids=["zero-mean", "cov-1e-200", "cov-1e-310"])
def test_reverse_diffuse_on_degenerate_laws(law, rc, domain, tmp_path, capsys):
    cfg = tmp_path / "law.json"
    cfg.write_text(json.dumps(law))
    out = tmp_path / "rev.csv"
    capsys.readouterr()
    assert main(["diffuse", "--config", str(cfg), "--direction", "reverse",
                 "--score", "gaussian-analytic", "--domain", domain, "--L", "3", "--n", "50",
                 "--steps", "20", "--out", str(out)]) == rc
    err = capsys.readouterr().err
    if rc:
        assert err == ("spherediff diffuse: error: need data_mean_scale >= 0 and "
                       "data_cov_scale >= 1.49e-154\n")
        assert not out.exists()
        return
    diag = _read_json(tmp_path / "rev.csv.diagnostics.json")
    assert diag["mean_rel_error"] is None and np.isfinite(diag["cov_rel_frobenius_error"])


def test_reverse_diffuse_reports_the_relative_error_of_a_tiny_mean(tmp_path):
    # the mean's squares underflow, its entries do not: mean_rel_error is a number
    cfg = tmp_path / "law.json"
    cfg.write_text(json.dumps({"data_mean_scale": 1e-170}))
    out = tmp_path / "rev.csv"
    assert main(["diffuse", "--config", str(cfg), "--direction", "reverse", "--L", "2",
                 "--n", "50", "--steps", "10", "--score", "gaussian-analytic",
                 "--out", str(out)]) == 0
    got = _read_json(tmp_path / "rev.csv.diagnostics.json")["mean_rel_error"]
    mu, _ = sde.surrogate_gaussian(2, 1e-170, 0.04, np.random.SeedSequence(1).spawn(1)[0])
    X, _ = noise.load_samples(out)
    want = np.linalg.norm(X.mean(axis=0) - mu) / np.linalg.norm(1e170 * mu) * 1e170
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("domain", ["frequency", "spatial"])
@pytest.mark.parametrize("law", [{"data_mean_scale": 1e7}, {"data_cov_scale": 1e14}],
                         ids=["mean-1e7", "cov-1e14"])
def test_reverse_diffuse_recovers_data_far_above_the_blow_up_limit(law, domain, tmp_path):
    # the data lie above BLOWUP_LIMIT, so the limit scales with the start
    cfg = tmp_path / "law.json"
    cfg.write_text(json.dumps(law))
    out = tmp_path / "rev.csv"
    assert main(["diffuse", "--config", str(cfg), "--direction", "reverse",
                 "--score", "gaussian-analytic", "--domain", domain, "--L", "2", "--n", "10",
                 "--steps", "10", "--out", str(out)]) == 0
    X, _ = noise.load_samples(out)
    assert np.abs(X).max() > sde.BLOWUP_LIMIT
    diag = _read_json(tmp_path / "rev.csv.diagnostics.json")
    assert diag["aborted_paths"] == [] and diag["cov_rel_frobenius_error"] < 10


@pytest.mark.parametrize("law,domain", [
    ({"data_cov_scale": 1e308}, "spatial"),
    ({"data_cov_scale": 1e308}, "frequency"),
    ({"data_mean_scale": 1e308}, "spatial"),
    ({"data_mean_scale": 1e308}, "frequency"),
    ({"data_mean_scale": 1e300}, "spatial"),
    ({"data_mean_scale": 1e300}, "frequency"),
], ids=["cov-1e308-spatial", "cov-1e308-frequency", "mean-1e308-spatial",
        "mean-1e308-frequency", "mean-1e300-spatial", "mean-1e300-frequency"])
def test_reverse_diffuse_on_huge_data_scales_is_usage_error(law, domain, tmp_path, capsys):
    # the data's squares (or the draws themselves) would overflow
    cfg = tmp_path / "law.json"
    cfg.write_text(json.dumps(law))
    out = tmp_path / "rev.csv"
    capsys.readouterr()
    assert main(["diffuse", "--config", str(cfg), "--direction", "reverse",
                 "--score", "gaussian-analytic", "--domain", domain, "--L", "2", "--n", "10",
                 "--steps", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("spherediff diffuse: error: need data_mean_scale and "
                                       "data_cov_scale <= 1.34e+154\n")
    assert not out.exists()


@pytest.mark.parametrize("domain", ["frequency", "spatial"])
def test_reverse_diffuse_at_the_data_scale_bound_writes_finite_numbers(domain, tmp_path):
    cap = float(np.sqrt(sys.float_info.max))
    cfg = tmp_path / "law.json"
    cfg.write_text(json.dumps({"data_mean_scale": cap, "data_cov_scale": cap}))
    out = tmp_path / "rev.csv"
    assert main(["diffuse", "--config", str(cfg), "--direction", "reverse",
                 "--score", "gaussian-analytic", "--domain", domain, "--L", "2", "--n", "10",
                 "--steps", "10", "--out", str(out)]) == 0
    X, _ = noise.load_samples(out)  # rejects non-finite entries
    diag = json.loads((tmp_path / "rev.csv.diagnostics.json").read_text(),
                      parse_constant=lambda c: pytest.fail(f"non-finite JSON token {c}"))
    assert diag["aborted_paths"] == []
    assert np.isfinite(diag["mean_rel_error"]) and np.isfinite(diag["cov_rel_frobenius_error"])


@pytest.mark.parametrize("domain", ["frequency", "spatial"])
def test_reverse_diffuse_reports_the_mean_error_in_units_of_the_spread(domain, tmp_path):
    # a spread far above the mean: relative to the mean alone, the error reads as a failure
    cfg = tmp_path / "law.json"
    cfg.write_text(json.dumps({"data_cov_scale": 1e14}))
    out = tmp_path / "rev.csv"
    assert main(["diffuse", "--config", str(cfg), "--direction", "reverse",
                 "--score", "gaussian-analytic", "--domain", domain, "--L", "2", "--n", "10",
                 "--steps", "10", "--out", str(out)]) == 0
    diag = _read_json(tmp_path / "rev.csv.diagnostics.json")
    assert diag["mean_rel_error"] > 1e3
    assert diag["mean_err_over_sd"] <= 1.0


def _spy_on_law(monkeypatch):
    """Record the seed and the result of every sde.surrogate_gaussian call."""
    calls, real = [], sde.surrogate_gaussian

    def spy(L, mean_scale, cov_scale, seed):
        calls.append((seed, real(L, mean_scale, cov_scale, seed)))
        return calls[-1][1]

    monkeypatch.setattr(sde, "surrogate_gaussian", spy)
    return calls


@pytest.mark.parametrize("domain", ["frequency", "spatial"])
def test_reverse_diffuse_covariance_error_at_the_mean_scale_bound(domain, tmp_path, monkeypatch):
    # the error's squares overflow and the reference's underflow under one
    # shared scale; each sum scaled by its own argument's largest magnitude
    # gives the ratio, while a ratio beyond the float range stays null
    laws = _spy_on_law(monkeypatch)
    for law, finite in (({"data_mean_scale": 1.34e154}, True),
                        ({"data_mean_scale": 1.34e154, "data_cov_scale": 1.5e-154}, False)):
        cfg = tmp_path / "law.json"
        cfg.write_text(json.dumps(law))
        out = tmp_path / "rev.csv"
        assert main(["diffuse", "--config", str(cfg), "--direction", "reverse",
                     "--score", "gaussian-analytic", "--domain", domain, "--L", "2",
                     "--n", "10", "--steps", "10", "--out", str(out)]) == 0
        got = _read_json(tmp_path / "rev.csv.diagnostics.json")["cov_rel_frobenius_error"]
        if not finite:
            assert got is None
            continue
        X, _ = noise.load_samples(out)
        S = laws[-1][1][1]
        if domain == "spatial":
            M = chart.synthesis_matrix(transform.build_operators(2))
            S = M @ S @ M.T
        err = noise.empirical_covariance(X) - S
        assert np.abs(err).max() > 1e155  # the error's squares overflow
        # math.hypot scales its sum, so this reference cannot overflow
        want = math.hypot(*err.ravel()) / math.hypot(*S.ravel())
        assert got == pytest.approx(want, rel=0.01)


@pytest.mark.parametrize("domain", ["frequency", "spatial"])
def test_diffuse_draws_its_data_from_another_stream_than_its_law(domain, tmp_path,
                                                                 monkeypatch):
    laws, seeds, rng = _spy_on_law(monkeypatch), [], sde.np.random.default_rng
    monkeypatch.setattr(sde.np.random, "default_rng", lambda seed: seeds.append(seed) or rng(seed))
    assert main(["diffuse", "--direction", "reverse", "--score", "gaussian-analytic",
                 "--domain", domain, "--L", "3", "--n", "20", "--steps", "5", "--seed", "4",
                 "--out", str(tmp_path / "rev.csv")]) == 0
    # every stream but the law's and the two legs' (seed, seed + 2) is the data's
    data_seeds = [s for s in seeds if s is not laws[0][0] and s not in (4, 6)]
    assert data_seeds == [5]  # the data stream starts at default_rng(seed + 1)
    law_normals = np.random.default_rng(laws[0][0]).standard_normal(4000)
    data_normals = np.random.default_rng(data_seeds[0]).standard_normal(4000)
    assert not np.isin(law_normals, data_normals).any()


def test_reverse_diffuse_at_a_huge_covariance_scale_prints_nothing(tmp_path):
    # the error's and the reference's sums of squares are finite, but their sum overflows
    (tmp_path / "law.json").write_text(json.dumps(
        {"L": 1, "n": 3, "steps": 2, "T": 0.5, "data_cov_scale": 1e154, "beta_min": 1e-12}))
    rc, err = _run_cli(["diffuse", "--config", "law.json", "--direction", "reverse",
                        "--score", "gaussian-analytic", "--domain", "frequency",
                        "--out", "rev.csv"], tmp_path)
    assert rc == 0 and err == ""
    diag = _read_json(tmp_path / "rev.csv.diagnostics.json")
    assert np.isfinite(diag["cov_rel_frobenius_error"])


def test_diffuse_config_accepts_data_seed(tmp_path):
    cfg = tmp_path / "law.json"
    cfg.write_text(json.dumps({"data_seed": 5}))
    out = tmp_path / "law.csv"
    assert main(["diffuse", "--config", str(cfg), "--direction", "reverse",
                 "--score", "gaussian-analytic", "--L", "2", "--n", "4",
                 "--steps", "2", "--seed", "1", "--out", str(out)]) == 0


def test_diffuse_usage_validation():
    assert main(["diffuse", "--L", "2", "--steps", "0"]) == 1
    assert main(["diffuse", "--L", "0"]) == 1
    with pytest.raises(SystemExit) as exc:  # argparse rejects the choice itself
        main(["diffuse", "--direction", "sideways"])
    assert exc.value.code == 1


def test_diffuse_blowup_exits_3(tmp_path, capsys):
    cfg = tmp_path / "explode.json"
    # a huge rate with a coarse grid makes Euler-Maruyama overshoot past the
    # non-finite guard within a few steps
    cfg.write_text(json.dumps({
        "beta_max": 2e4, "steps": 4, "n": 3, "L": 2, "domain": "spatial",
    }))
    rc = main(["diffuse", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "aborted" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [{}, {"domain": "spatial"},
                                   {"direction": "reverse", "score": "gaussian-analytic"}],
                         ids=["frequency", "spatial", "reverse"])
def test_diffuse_schedule_that_overflows_aborts_on_one_line(extra, tmp_path):
    # the endpoint's products overflow; the blow-up guard reports it, NumPy does not warn
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"beta_max": 1e300, "steps": 3, **extra}))
    rc, err = _run_cli(["diffuse", "--config", str(cfg), "--L", "2", "--n", "5"], tmp_path)
    assert rc == 3
    assert err.startswith("spherediff diffuse: aborted:") and err.count("\n") == 1, err


def test_diffuse_partial_abort_writes_every_row_and_reports_on_one_line(tmp_path):
    # a coarse, fast schedule sends a few of 200 finite paths above the blow-up limit
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"beta_max": 2000.0, "steps": 4, "n": 200, "L": 2}))
    out = tmp_path / "x.csv"
    rc, err = _run_cli(["diffuse", "--config", str(cfg), "--out", str(out)], tmp_path)
    assert rc == 3
    assert err.startswith("spherediff diffuse: 3 path(s) aborted (non-finite or above the "
                          "blow-up limit)") and err.count("\n") == 1, err
    X, meta = noise.load_samples(out)
    assert X.shape == (200, 4) and meta["n"] == 200
    dead = np.zeros(200, dtype=bool)
    dead[[a["path"] for a in ast.literal_eval(err.split("start rows: ")[1])]] = True
    assert dead.sum() == 3
    assert np.all(X[dead] == 0.0)  # a score-free run starts at 0 and keeps its start row
    assert np.all(np.any(X[~dead] != 0.0, axis=1))


def test_reverse_diffuse_of_one_path_writes_no_diagnostics(tmp_path):
    out = tmp_path / "rev.csv"
    assert main(["diffuse", "--direction", "reverse", "--score", "gaussian-analytic",
                 "--L", "2", "--n", "1", "--steps", "5", "--out", str(out)]) == 0
    assert noise.load_samples(out)[0].shape == (1, 4)
    assert not (tmp_path / "rev.csv.diagnostics.json").exists()


def test_bound_check_success(tmp_path):
    out = tmp_path / "bound.json"
    rc = main(["bound-check", "--L", "2", "--trials", "50", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    rep = _read_json(out)
    assert rep["violations"] == 0
    assert rep["n_trials"] == 50
    assert rep["min_slack"] > 0
    for v in rep["identity_residuals"].values():
        assert np.isfinite(v)


def test_bound_check_violation_prints_one_line(tmp_path, monkeypatch, capsys):
    check = lossmap.check_theorem2_bound

    def violated(*args):
        return {**check(*args), "violations": 3}

    monkeypatch.setattr(lossmap, "check_theorem2_bound", violated)
    assert main(["bound-check", "--L", "2", "--trials", "20"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spherediff bound-check: failed: 3 violation(s)")
    assert _read_json(tmp_path / "bound_check_L2.json")["violations"] == 3


def test_bound_check_usage_errors():
    assert main(["bound-check", "--L", "0"]) == 1
    assert main(["bound-check", "--L", "2", "--trials", "0"]) == 1


def test_sliced_w_identical_files(tmp_path):
    src = tmp_path / "s.csv"
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 4))
    noise.save_samples(src, X, {"L": 2, "t": 1.0, "n": 50, "seed": 0})
    out = tmp_path / "sw.json"
    rc = main(["sliced-w", "--a", str(src), "--b", str(src),
               "--n-proj", "10", "--out", str(out)])
    assert rc == 0
    rep = _read_json(out)
    assert rep["sw"] == 0.0 and rep["n_proj"] == 10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [50.0, 1e-3])
@pytest.mark.parametrize("m", [60, 45], ids=["equal-counts", "unequal-counts"])
def test_sliced_w_at_a_large_order_writes_finite_strict_json(scale, m, tmp_path):
    # |difference|^300 overflows at scale 50 and underflows to 0 at scale 1e-3
    rng = np.random.default_rng(19)
    A = rng.standard_normal((60, 4)) * scale
    B = (rng.standard_normal((m, 4)) + 0.5) * scale
    a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "sw.json"
    noise.save_samples(a, A, {"L": 2, "t": 1.0, "seed": 0})
    noise.save_samples(b, B, {"L": 2, "t": 1.0, "seed": 0})
    assert main(["sliced-w", "--a", str(a), "--b", str(b), "--n-proj", "8", "--p", "300",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text(),
                     parse_constant=lambda c: pytest.fail(f"non-finite JSON token {c}"))
    per = sliced_wasserstein_in_logs(A, B, 300.0, 8, 0)
    assert rep["sw"] == pytest.approx(per.mean(), rel=1e-12)
    assert rep["ci2se"][0] < rep["sw"] < rep["ci2se"][1]


@pytest.mark.filterwarnings("error")
def test_sliced_w_summary_of_huge_distances_writes_finite_strict_json(tmp_path):
    # the squares in the standard deviation of distances near 1e307 overflow;
    # scaling by a power of two is exact, so the result is the scaled one
    rng = np.random.default_rng(46)
    A, B = rng.standard_normal((50, 4)), rng.standard_normal((50, 4))
    a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "sw.json"
    noise.save_samples(a, A * 2.0 ** 1020, {"L": 2, "t": 1.0, "seed": 0})
    noise.save_samples(b, B * 2.0 ** 1020, {"L": 2, "t": 1.0, "seed": 0})
    assert main(["sliced-w", "--a", str(a), "--b", str(b), "--n-proj", "20",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text(),
                     parse_constant=lambda c: pytest.fail(f"non-finite JSON token {c}"))
    want = metrics.sliced_wasserstein(A, B, n_proj=20, seed=0)
    assert rep["sw"] == pytest.approx(want.value * 2.0 ** 1020, rel=1e-12)
    assert rep["se"] == pytest.approx(want.se * 2.0 ** 1020, rel=1e-12)
    assert rep["ci2se"][0] < rep["sw"] < rep["ci2se"][1]


def test_sliced_w_dimension_mismatch_is_usage_error(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    noise.save_samples(a, np.zeros((5, 4)), {"L": 2, "t": 1.0, "n": 5, "seed": 0})
    noise.save_samples(b, np.zeros((5, 9)), {"L": 3, "t": 1.0, "n": 5, "seed": 0})
    assert main(["sliced-w", "--a", str(a), "--b", str(b)]) == 1


def test_sliced_w_missing_file_is_usage_error(tmp_path):
    assert main(["sliced-w", "--a", str(tmp_path / "no.csv"),
                 "--b", str(tmp_path / "no.csv")]) == 1


def test_sliced_w_reads_raw_samples(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    rng = np.random.default_rng(5)
    noise.save_samples(a, rng.standard_normal((30, 4)),
                       {"L": 2, "t": 1.0, "n": 30, "seed": 0}, raw=True)
    noise.save_samples(b, rng.standard_normal((30, 4)) + 1.0,
                       {"L": 2, "t": 1.0, "n": 30, "seed": 0}, raw=True)
    out = tmp_path / "sw.json"
    assert main(["sliced-w", "--a", str(a), "--b", str(b), "--n-proj", "8",
                 "--out", str(out)]) == 0
    assert _read_json(out)["sw"] > 0.5


def test_sliced_w_on_an_empty_sample_file_is_usage_error(tmp_path, capsys):
    empty, full = tmp_path / "empty.csv", tmp_path / "full.csv"
    assert main(["diffuse", "--L", "2", "--n", "0", "--steps", "5", "--seed", "1",
                 "--out", str(empty)]) == 0
    assert main(["diffuse", "--L", "2", "--n", "8", "--steps", "5", "--seed", "1",
                 "--out", str(full)]) == 0
    capsys.readouterr()
    for a, b in ((empty, full), (full, empty), (empty, empty)):
        assert main(["sliced-w", "--a", str(a), "--b", str(b), "--n-proj", "4"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "holds no samples" in err


@pytest.mark.parametrize("text, sidecar", [("", {}), ("\n\n\n", {"n": 3})],
                         ids=["empty-no-n", "blank-lines-n3"])
def test_sliced_w_on_a_file_with_no_data_prints_one_line(tmp_path, text, sidecar):
    # a file with no data reads as 0 rows, without loadtxt's "no data" warning
    good = tmp_path / "good.csv"
    noise.save_samples(good, np.ones((3, 4)), {"L": 2, "t": 1.0, "seed": 0})
    (tmp_path / "bad.csv").write_text(text)
    (tmp_path / "bad.csv.json").write_text(json.dumps(sidecar))
    rc, err = _run_cli(["sliced-w", "--a", "bad.csv", "--b", "good.csv", "--n-proj", "4",
                        "--out", "sw.json"], tmp_path)
    assert rc == 1 and err.count("\n") == 1 and err.startswith("spherediff sliced-w: error:")


def test_sliced_w_on_a_sidecar_with_the_wrong_width_is_usage_error(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        noise.save_samples(path, np.ones((3, 4)), {"L": 2, "t": 1.0, "seed": 0})
    sidecar = tmp_path / "b.csv.json"
    sidecar.write_text(sidecar.read_text().replace('"d": 4', '"d": 9'))
    capsys.readouterr()
    assert main(["sliced-w", "--a", str(a), "--b", str(b), "--n-proj", "4"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "sidecar says d = 9" in err


@pytest.mark.parametrize("raw", [False, True], ids=["csv", "raw"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_sliced_w_on_a_non_finite_sample_is_usage_error(tmp_path, capsys, value, raw):
    good, bad = tmp_path / "good.dat", tmp_path / "bad.dat"
    X = np.random.default_rng(2).standard_normal((5, 4))
    noise.save_samples(good, X, {"L": 2, "t": 1.0, "seed": 0}, raw=raw)
    X[3, 1] = value
    noise.save_samples(bad, X, {"L": 2, "t": 1.0, "seed": 0}, raw=raw)
    capsys.readouterr()
    assert main(["sliced-w", "--a", str(bad), "--b", str(good), "--n-proj", "4"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite" in err


@pytest.mark.parametrize("raw, sidecar, message", [
    (False, None, "not a JSON object"),
    (False, [1], "not a JSON object"),
    (False, "s", "not a JSON object"),
    (True, {"raw": True, "n": 5}, "raw must be true (with a d) or false"),
    (True, {"raw": True, "n": 5, "d": 2.5}, "d must be an integer >= 0"),
    (False, {"raw": "yes", "n": 5, "d": 4}, "raw must be true (with a d) or false"),
    (False, {"n": True, "d": 4}, "n must be an integer >= 0"),
    (False, {"n": -1, "d": 4}, "n must be an integer >= 0"),
    (False, {"n": 5, "d": "4"}, "d must be an integer >= 0"),
], ids=["null", "list", "string", "raw-without-d", "fractional-d", "raw-string",
        "bool-n", "negative-n", "string-d"])
def test_sliced_w_on_a_malformed_sidecar_is_usage_error(tmp_path, capsys, raw, sidecar,
                                                         message):
    good, bad = tmp_path / "good.dat", tmp_path / "bad.dat"
    X = np.random.default_rng(3).standard_normal((5, 4))
    noise.save_samples(good, X, {"L": 2, "t": 1.0, "seed": 0})
    noise.save_samples(bad, X, {"L": 2, "t": 1.0, "seed": 0}, raw=raw)
    (tmp_path / "bad.dat.json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert main(["sliced-w", "--a", str(bad), "--b", str(good), "--n-proj", "4"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_bound_check_runs_one_eigh_per_order_and_never_factors_sigma(tmp_path, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the dense Sigma was built")

    factored = []
    factor_sigma = noise.factor_sigma

    def factor_counted(eig):
        factored.append(eig[1].shape)
        return factor_sigma(eig)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(noise, "factor_sigma", factor_counted)
    monkeypatch.setattr(noise.CovarianceSet, "Sigma", property(refuse))
    out = tmp_path / "bound.json"
    assert main(["bound-check", "--L", "8", "--trials", "50", "--out", str(out)]) == 0
    assert _read_json(out)["violations"] == 0
    assert calls == [(8, 8, 8)]  # one batched call on the stack of the Sigma_m
    assert factored == [(8, 8, 8)]  # the kit reads the roots Sigma_m^{1/2} of the covariance set


@pytest.mark.parametrize("argv,count", [
    # one of the stack of the Sigma_m and one of the whitened S, (L^2, L^2)
    (["diffuse", "--domain", "frequency"], 2),
    # one of the stack of the blocks of M^T M and one of the whitened S, (L^2, L^2)
    (["diffuse", "--domain", "spatial"], 2),
    (["verify-operators"], 1),  # one of the stack of the Sigma_m
], ids=["diffuse-frequency", "diffuse-spatial", "verify-operators"])
def test_commands_eigendecompose_each_matrix_once(argv, count, tmp_path, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the dense Sigma was built")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    if argv[0] == "diffuse":
        argv = argv + ["--direction", "reverse", "--score", "gaussian-analytic",
                       "--n", "20", "--steps", "20"]
    else:
        monkeypatch.setattr(noise.CovarianceSet, "Sigma", property(refuse))
    assert main(argv + ["--L", "8", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == count, calls
    if argv[0] == "diffuse":  # exactly one of size L^2 and one of an (L, L, L) stack
        assert sorted(calls) == [(8, 8, 8), (64, 64)], calls


def test_bound_check_builds_the_bound_operators_once(tmp_path, monkeypatch):
    from spherediff import lossmap

    calls = []
    build = lossmap.bound_operators
    monkeypatch.setattr(lossmap, "bound_operators",
                        lambda *a, **k: calls.append(1) or build(*a, **k))
    out = tmp_path / "bound.json"
    assert main(["bound-check", "--L", "2", "--trials", "20", "--seed", "3",
                 "--out", str(out)]) == 0
    assert len(calls) == 1
    rep = _read_json(out)
    assert set(rep) == {"n_trials", "violations", "min_slack", "mean_lhs", "mean_rhs",
                        "mean_gap_term", "identity_residuals", "provenance"}
    assert set(rep["identity_residuals"]) == {
        "t_tplus_minus_identity", "t_z", "m_minus_tplus_plus_z", "sigma_condition_number"}


def test_reports_are_byte_identical_across_runs(tmp_path):
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for o in (o1, o2):
        assert main(["bound-check", "--L", "2", "--trials", "20",
                     "--seed", "7", "--out", str(o)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def _option_dests(command):
    """The dest of every option of one subcommand's parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def _sha256_of(settings):
    canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# per command: the base options, one other value per option, the output flag,
# and the settings dict whose canonical JSON the base run's config_hash hashes
_PROVENANCE_RUNS = {
    "verify-operators": (
        {"--L": "2", "--tol": "1e-10", "--seed": "0"},
        {"--L": "3", "--tol": "1e-9", "--seed": "1"},
        "--out", {"command": "verify-operators", "L": 2, "tol": 1e-10, "seed": 0},
    ),
    "covariance": (
        {"--L": "2", "--samples": "10", "--t": "1", "--seed": "0"},
        {"--L": "3", "--samples": "11", "--t": "0.5", "--seed": "1"},
        "--out-dir", {"command": "covariance", "L": 2, "samples": 10, "t": 1.0, "seed": 0},
    ),
    "bound-check": (
        {"--L": "2", "--trials": "5", "--seed": "0"},
        {"--L": "3", "--trials": "6", "--seed": "1"},
        "--out", {"command": "bound-check", "L": 2, "trials": 5, "seed": 0},
    ),
    "sliced-w": (
        {"--a": "a.csv", "--b": "b.csv", "--n-proj": "4", "--p": "2", "--seed": "0"},
        {"--a": "c.csv", "--b": "c.csv", "--n-proj": "5", "--p": "3", "--seed": "1"},
        "--out", {"command": "sliced-w", "a": "a.csv", "b": "b.csv", "n_proj": 4, "p": 2.0,
                  "seed": 0},
    ),
    # diffuse hashes its resolved configuration, without the command
    "diffuse": (
        {"--direction": "forward", "--domain": "frequency", "--score": "gaussian-analytic",
         "--L": "2", "--n": "3", "--steps": "2", "--seed": "0"},
        {"--direction": "reverse", "--domain": "spatial", "--score": "none",
         "--L": "3", "--n": "4", "--steps": "3", "--seed": "1"},
        "--out", {"direction": "forward", "domain": "frequency", "score": "gaussian-analytic",
                  "L": 2, "n": 3, "steps": 2, "seed": 0, "beta_min": 0.1, "beta_max": 10.0,
                  "T": 1.0, "raw": False, "data_seed": None, "data_mean_scale": 0.25,
                  "data_cov_scale": 0.04},
    ),
}
# diffuse's settings that only a config file sets, each with another value
_DIFFUSE_CONFIG_ONLY = {"beta_min": 0.2, "beta_max": 9.0, "T": 0.9, "raw": True,
                        "data_seed": 3, "data_mean_scale": 0.3, "data_cov_scale": 0.05}


def _config_hash(command, out):
    if command == "covariance":
        out = out / "summary.json"
    elif command == "diffuse":
        out = out.with_name(out.name + ".json")
    return _read_json(out)["provenance"]["config_hash"]


@pytest.mark.parametrize("command", list(_PROVENANCE_RUNS))
def test_config_hash_covers_every_setting_but_the_output_path(command, tmp_path,
                                                              monkeypatch):
    base, other, out_flag, settings = _PROVENANCE_RUNS[command]
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    for name in ("a.csv", "b.csv", "c.csv"):
        noise.save_samples(tmp_path / name, rng.standard_normal((6, 4)),
                           {"L": 2, "t": 1.0, "seed": 0})
    dests = _option_dests(command) - {out_flag.lstrip("-").replace("-", "_"), "config"}
    assert {flag.lstrip("-").replace("-", "_") for flag in other} == dests

    def run(options, out, *extra):
        argv = [command, *(x for item in options.items() for x in item), *extra]
        assert main(argv + [out_flag, str(tmp_path / out)]) == 0
        return _config_hash(command, tmp_path / out)

    want = run(base, "out_base")
    assert want == _sha256_of(settings)
    assert run(base, "out_moved") == want
    for flag, value in other.items():
        assert run({**base, flag: value}, f"out_{flag.strip('-')}") != want, flag
    if command == "diffuse":
        assert set(_DIFFUSE_CONFIG_ONLY) | {k for k in settings if f"--{k}" in base} == set(
            cli._DIFFUSE_DEFAULTS)
        for key, value in _DIFFUSE_CONFIG_ONLY.items():
            (tmp_path / f"{key}.json").write_text(json.dumps({key: value}))
            got = run(base, f"out_cfg_{key}", "--config", f"{key}.json")
            assert got != want, key
        # a config that restates the resolved values hashes like the flags alone
        (tmp_path / "same.json").write_text(json.dumps({"beta_max": 10.0, "T": 1.0}))
        assert run(base, "out_same", "--config", "same.json") == want


_FLOOR, _CAP = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)


# (key, a value that `_check_diffuse_config` accepts, one beside it that it rejects)
@pytest.mark.parametrize("key,good,bad", [
    *[(key, low, low - 1) for key, low in
      (("L", 1), ("steps", 1), ("n", 0), ("seed", 0), ("data_seed", 0))],
    *[(key, sys.float_info.max, bad) for key in ("beta_min", "beta_max", "T")
      for bad in (math.inf, -math.inf, math.nan)],
    *[(key, _CAP, bad) for key in ("data_mean_scale", "data_cov_scale")
      for bad in (math.inf, -math.inf, math.nan)],
    ("data_mean_scale", 0.0, -5e-324),
    ("data_cov_scale", _FLOOR, math.nextafter(_FLOOR, 0.0)),
    ("data_mean_scale", _CAP, math.nextafter(_CAP, math.inf)),
    ("data_cov_scale", _CAP, math.nextafter(_CAP, math.inf)),
], ids=lambda v: v if isinstance(v, str) else repr(v))
def test_diffuse_config_range_checks_sit_at_their_bounds(key, good, bad, tmp_path, capsys):
    base = {"seed": 5} if key == "data_seed" else {}  # data_seed 0 is no path seed of seed 5
    cli._check_diffuse_config({**cli._DIFFUSE_DEFAULTS, **base, key: good})
    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps({**base, key: bad}))
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert main(["diffuse", "--config", str(cfg), "--L", "2", "--n", "3", "--steps", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spherediff diffuse: error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("seed", [None, "0", 1.0, True], ids=repr)
def test_diffuse_config_seed_must_be_an_integer(seed, tmp_path, capsys):
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"seed": seed}))
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert main(["diffuse", "--config", str(cfg), "--L", "2", "--n", "3", "--steps", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"spherediff diffuse: error: seed must be an integer >= 0, got {seed!r}\n"
    assert not out.exists()


def _sample_pair(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rng = np.random.default_rng(4)
    for path in (a, b):
        noise.save_samples(path, rng.standard_normal((6, 4)), {"L": 2, "t": 1.0, "seed": 0})
    return ["--a", str(a), "--b", str(b), "--n-proj", "4"]


@pytest.mark.parametrize("argv", [
    ["verify-operators", "--L", "2"],
    ["covariance", "--L", "2", "--samples", "10"],
    ["bound-check", "--L", "2", "--trials", "5"],
    ["sliced-w"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_usage_error(argv, tmp_path, capsys):
    if argv[0] == "sliced-w":
        argv = argv + _sample_pair(tmp_path)
    capsys.readouterr()
    assert main(argv + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == f"spherediff {argv[0]}: error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("argv", [
    ["verify-operators", "--L", "2"],
    ["bound-check", "--L", "2", "--trials", "5"],
    ["diffuse", "--L", "2", "--n", "3", "--steps", "2"],
    ["sliced-w"],
], ids=lambda argv: argv[0])
def test_output_path_that_is_a_directory_is_usage_error(argv, tmp_path, capsys):
    if argv[0] == "sliced-w":
        argv = argv + _sample_pair(tmp_path)
    taken = tmp_path / "taken"
    taken.mkdir()
    capsys.readouterr()
    assert main(argv + ["--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"spherediff {argv[0]}: error: ")
    assert "Is a directory" in err


def test_covariance_out_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["covariance", "--L", "2", "--samples", "10", "--out-dir", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("spherediff covariance: error: ")
    assert "File exists" in err
