"""End-to-end acceptance suite.

Each test prints a single ``[criterion N] name: PASS/FAIL (...)`` line so a
plain test run doubles as a checklist.  Tolerances, sample counts, and seeds
are pinned; every check is deterministic.
"""

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import dense_reference
import spherediff
from dense_reference import chart_index, spectral_index
from spherediff import chart, lossmap, metrics, noise, sde, transform
from spherediff.cli import ENV_OUT_DIR
from spherediff.indexing import chart_entries, mirror_permutation
from spherediff.sde import surrogate_gaussian as _surrogate_gaussian


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} — {name}: {detail}"


@pytest.fixture(scope="module")
def ops4():
    return transform.build_operators(4)


@pytest.fixture(scope="module")
def cov4():
    return noise.build_covariance(4)


def _symmetric_coeffs(L, rng):
    a = rng.standard_normal(L * L) + 1j * rng.standard_normal(L * L)
    perm, signs = mirror_permutation(L)
    return 0.5 * (a + signs * np.conj(a[perm]))


def _chart_of_coeff_samples(A, L):
    """Apply the chart row-wise to complex coefficient samples (vectorized)."""
    Z = np.empty((A.shape[0], L * L))
    for ell in range(L):
        Z[:, chart_index(ell, 0)] = A[:, spectral_index(ell, 0)].real
        for m in range(1, ell + 1):
            Z[:, chart_index(ell, m, "re")] = A[:, spectral_index(ell, m)].real
            Z[:, chart_index(ell, m, "im")] = A[:, spectral_index(ell, m)].imag
    return Z


# ---------------------------------------------------------------------------
# 1. operator identities across band limits
# ---------------------------------------------------------------------------

def test_operator_identities_across_band_limits():
    tol = 1e-10
    worst = 0.0
    for L in (1, 2, 4, 8, 16):
        ops = transform.build_operators(L)
        eye = np.eye(L * L)
        P = dense_reference.projector(ops)
        worst = max(worst, float(np.linalg.norm(ops.U @ ops.Y - eye)))
        worst = max(worst, float(np.linalg.norm(P @ P - P)))
        rng = np.random.default_rng(100 + L)
        for _ in range(100):
            x1 = transform.synthesis(ops, _symmetric_coeffs(L, rng))
            x2 = transform.synthesis(ops, _symmetric_coeffs(L, rng))
            lhs = transform.q_inner(ops, x1, x2)
            rhs = float(
                np.vdot(transform.analysis(ops, x1), transform.analysis(ops, x2)).real
            )
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        for _ in range(20):
            a = _symmetric_coeffs(L, rng)
            rt = transform.analysis(ops, transform.synthesis(ops, a))
            worst = max(worst, float(np.max(np.abs(rt - a))))
    _report(
        1,
        "operator identities (pseudoinverse, projector, isometry, round trip)",
        worst < tol,
        f"max residual {worst:.2e} over L in {{1,2,4,8,16}}, tol {tol:.0e}",
    )


# ---------------------------------------------------------------------------
# 2. chart bijectivity
# ---------------------------------------------------------------------------

def test_chart_bijection_both_ways():
    rng = np.random.default_rng(2)
    exact = True
    worst = 0.0
    for _ in range(1000):
        L = int(rng.integers(1, 7))
        z = rng.standard_normal(L * L)
        exact &= bool(np.array_equal(chart.to_chart(chart.from_chart(z, L), L), z))
        a = _symmetric_coeffs(L, rng)
        back = chart.from_chart(chart.to_chart(a, L), L)
        worst = max(worst, float(np.max(np.abs(back - a))))
    _report(
        2,
        "chart bijectivity",
        exact and worst < 1e-12,
        f"to∘from exact: {exact}; from∘to max residual {worst:.2e} < 1e-12",
    )


# ---------------------------------------------------------------------------
# 3. covariance pipeline at L=4
# ---------------------------------------------------------------------------

def test_covariance_of_charted_spatial_noise(ops4, cov4):
    L, n, t = 4, 50_000, 1.0
    A = noise.mirrored_bm_via_spatial(ops4, t, n, seed=33)
    Z = _chart_of_coeff_samples(A, L)
    emp = noise.empirical_covariance(Z)
    rel = float(np.linalg.norm(emp - t * cov4.Sigma) / np.linalg.norm(t * cov4.Sigma))

    labels = chart_entries(L)
    zero_ok = True
    for i, (li, mi, pi) in enumerate(labels):
        for j, (lj, mj, pj) in enumerate(labels):
            if (mi, pi) != (mj, pj) and cov4.Sigma[i, j] != 0.0:
                zero_ok = False

    T = chart.chart_linear_map(ops4)
    anchor = float(np.max(np.abs(T @ T.T - cov4.Sigma)))

    ok = rel < 0.05 and zero_ok and anchor < 1e-10
    _report(
        3,
        "chart covariance of analyzed spatial noise",
        ok,
        f"rel Frobenius {rel:.3f} < 0.05 at n={n}; cross-block zeros exact: "
        f"{zero_ok}; TT^T anchor {anchor:.2e} < 1e-10",
    )


# ---------------------------------------------------------------------------
# 4. mirrored-noise component structure
# ---------------------------------------------------------------------------

def test_mirrored_noise_component_structure(cov4):
    L, n, t = 4, 50_000, 1.0
    Z = noise.sample_mirrored_bm(cov4, t, n, seed=44)

    var_ok = True
    worst_sigmas = 0.0
    for i, (ell, m, part) in enumerate(chart_entries(L)):
        theo = t * cov4.sigma[m, ell, ell]
        emp = float(np.var(Z[:, i], ddof=1))
        se = theo * np.sqrt(2.0 / (n - 1))
        pull = abs(emp - theo) / se
        worst_sigmas = max(worst_sigmas, pull)
        var_ok &= pull < 3.0

    A = chart.from_chart(Z, L)
    perm, signs = mirror_permutation(L)
    sym = float(np.max(np.abs(A - signs * np.conj(A[:, perm]))))

    rho_max = 0.0
    for ell in range(L):
        for m in range(1, ell + 1):
            re = Z[:, chart_index(ell, m, "re")]
            im = Z[:, chart_index(ell, m, "im")]
            rho_max = max(rho_max, abs(float(np.corrcoef(re, im)[0, 1])))
    rho_lim = 3.0 / np.sqrt(n)

    ok = var_ok and sym < 1e-12 and rho_max < rho_lim
    _report(
        4,
        "mirrored-noise variances, symmetry, and re/im independence",
        ok,
        f"variance pulls <= {worst_sigmas:.2f} sigma (< 3); per-sample "
        f"symmetry {sym:.2e} < 1e-12; max |rho| {rho_max:.4f} < {rho_lim:.4f}",
    )


# ---------------------------------------------------------------------------
# 5. frequency-domain forward law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DriftlessUnitSchedule:
    T: float = 1.0
    steps: int = 100

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def drift(self, x, t):
        return np.zeros_like(x)

    def g(self, t) -> float:
        return 1.0


def test_frequency_forward_marginal_and_drift_identity(ops4, cov4):
    L, n = 4, 50_000
    sch = _DriftlessUnitSchedule()
    start = sde.DiffusionState(time=0.0, values=np.zeros((n, L * L)), domain="chart")
    stepper = sde.frequency_forward_stepper(sch, dense_reference.sigma_root(cov4))
    final, aborted = sde.integrate(start, sch, "forward", stepper, seed=55)
    emp = noise.empirical_covariance(final.values)
    theo = sch.T * cov4.Sigma
    rel = float(np.linalg.norm(emp - theo) / np.linalg.norm(theo))

    vp = sde.VpSchedule()
    drift_err = max(
        dense_reference.vp_drift_identity_error(ops4, vp, t) for t in (0.0, 0.3, 0.7, 1.0)
    )

    ok = rel < 0.05 and not aborted and drift_err < 1e-12
    _report(
        5,
        "driftless frequency marginal t*Sigma and VP drift commutation",
        ok,
        f"rel Frobenius {rel:.3f} < 0.05 at n={n}; drift identity "
        f"{drift_err:.2e} < 1e-12",
    )


# ---------------------------------------------------------------------------
# 6. forward-then-reverse recovery with the analytic Gaussian score
# ---------------------------------------------------------------------------

def _roundtrip_chart(ops, cov, schedule, mu, S, n, seed):
    z0 = np.random.default_rng(seed).multivariate_normal(mu, S, size=n, method="eigh")
    state = sde.DiffusionState(time=0.0, values=z0, domain="chart")
    root = dense_reference.sigma_root(cov)
    fwd = sde.frequency_forward_stepper(schedule, root)
    state, ab1 = sde.integrate(state, schedule, "forward", fwd, seed + 1)
    score = sde.gaussian_chart_score(mu, S, cov.Sigma, schedule)
    rev = sde.frequency_reverse_stepper(schedule, cov.Sigma, root, score)
    state, ab2 = sde.integrate(state, schedule, "reverse", rev, seed + 2)
    return state.values, ab1 + ab2


def _roundtrip_spatial(ops, cov, schedule, mu, S, n, seed):
    M = chart.synthesis_matrix(ops)
    z0 = np.random.default_rng(seed).multivariate_normal(mu, S, size=n, method="eigh")
    state = sde.DiffusionState(time=0.0, values=z0 @ M.T, domain="spatial")
    fwd = sde.spatial_forward_stepper(schedule)
    state, ab1 = sde.integrate(state, schedule, "forward", fwd, seed + 1)
    score = sde.gaussian_spatial_score(mu, S, M, schedule)
    rev = sde.spatial_reverse_stepper(schedule, score)
    state, ab2 = sde.integrate(state, schedule, "reverse", rev, seed + 2)
    return state.values, ab1 + ab2


def test_gaussian_roundtrip_recovery_both_domains(ops4, cov4):
    L, n = 4, 10_000
    schedule = sde.VpSchedule(steps=1000)
    mu, S = _surrogate_gaussian(L, 0.25, 0.04, seed=66)
    M = chart.synthesis_matrix(ops4)

    fresh = np.random.default_rng(67).multivariate_normal(mu, S, size=1000, method="eigh")
    results = {}
    for domain, runner, t_mu, t_cov, fresh_dom in (
        ("frequency", _roundtrip_chart, mu, S, fresh),
        ("spatial", _roundtrip_spatial, M @ mu, M @ S @ M.T, fresh @ M.T),
    ):
        rec, aborted = runner(ops4, cov4, schedule, mu, S, n, seed=70)
        mean_rel = float(np.linalg.norm(rec.mean(axis=0) - t_mu) / np.linalg.norm(t_mu))
        cov_rel = float(
            np.linalg.norm(noise.empirical_covariance(rec) - t_cov)
            / np.linalg.norm(t_cov)
        )
        sw = metrics.sliced_wasserstein(rec[:1000], fresh_dom, n_proj=1000, seed=68)
        results[domain] = (mean_rel, cov_rel, sw.value, aborted)

    ok = all(
        m < 0.05 and c < 0.10 and s < 0.05 and not ab
        for m, c, s, ab in results.values()
    )
    detail = "; ".join(
        f"{d}: mean {m:.3f}<0.05, cov {c:.3f}<0.10, SW {s:.4f}<0.05"
        for d, (m, c, s, _) in results.items()
    )
    _report(6, "forward-then-reverse Gaussian recovery in both domains", ok, detail)


# ---------------------------------------------------------------------------
# 7. frequency-vs-spatial loss bound
# ---------------------------------------------------------------------------

def test_loss_bound_trials_and_supporting_identities(ops4, cov4):
    rep = lossmap.check_theorem2_bound(lossmap.build_bound_operators(ops4, cov4.Sigma),
                                       sde.VpSchedule(), 1000, seed=77)

    bops = lossmap.build_bound_operators(ops4, cov4.Sigma)
    T, Tplus = dense_reference.T(bops), dense_reference.Tplus(bops)
    eye = np.eye(16)
    rng = np.random.default_rng(78)
    idents = {
        "TZ": float(np.max(np.abs(T @ dense_reference.Z(bops)))),
        "TT+": float(np.max(np.abs(T @ Tplus - eye))),
    }
    res2 = 0.0
    for _ in range(100):
        y = rng.standard_normal(16)
        res2 = max(res2, float(np.max(np.abs(T.T @ y - Tplus @ (cov4.Sigma @ y)))))
    idents["T^T=T+Sigma"] = res2
    res0 = 0.0
    for _ in range(100):
        d = rng.standard_normal(ops4.d_spatial)
        gap = float(np.vdot(ops4.U @ d, ops4.U @ d).real) - transform.q_norm_sq(ops4, d)
        res0 = max(res0, gap)  # must be <= 0 up to round-off
    idents["contraction"] = max(res0, 0.0)

    ident_worst = max(idents.values())
    ok = rep["violations"] == 0 and rep["min_slack"] > 0 and ident_worst < 1e-10
    _report(
        7,
        "frequency loss bounded by twice the spatial loss",
        ok,
        f"{rep['n_trials']} trials, {rep['violations']} violations, min slack "
        f"{rep['min_slack']:.3e}; supporting identities max {ident_worst:.2e} < 1e-10",
    )


# ---------------------------------------------------------------------------
# 8. sliced Wasserstein estimator
# ---------------------------------------------------------------------------

def test_sliced_wasserstein_oracle_and_conventions():
    rng = np.random.default_rng(88)
    d, n = 16, 10_000
    A = rng.standard_normal((n, d))
    zero = metrics.sliced_wasserstein(A, A.copy(), n_proj=1000, seed=89)

    delta = np.zeros(d)
    delta[0] = 1.5
    B = rng.standard_normal((n, d)) + delta
    res = metrics.sliced_wasserstein(A, B, n_proj=1000, p=2.0, seed=89)
    # projections of equal-covariance Gaussians differ only in mean, so the
    # per-direction distance is |<u, delta>| and its sphere average is
    # ||delta|| * E|u_1|
    oracle = 1.5 * math.gamma(d / 2) / (math.sqrt(math.pi) * math.gamma((d + 1) / 2))
    rel = abs(res.value - oracle) / oracle
    lo, hi = res.ci2se
    ci_ok = (
        lo <= res.value <= hi
        and res.se > 0
        and abs((hi - lo) - 4 * res.se) < 1e-12 * res.se
    )

    ok = zero.value == 0.0 and rel < 0.10 and ci_ok
    _report(
        8,
        "sliced Wasserstein estimator",
        ok,
        f"SW(A,A)={zero.value}; shifted-Gaussian estimate {res.value:.4f} vs "
        f"oracle {oracle:.4f} (rel {rel:.3f} < 0.10); mean±2SE interval well-formed",
    )


# ---------------------------------------------------------------------------
# 9. byte determinism across thread counts
# ---------------------------------------------------------------------------

def _run_all_commands(out_dir: Path, threads: str) -> None:
    env = dict(os.environ)
    env[ENV_OUT_DIR] = str(out_dir)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # cwd=out_dir must stay (see below), so a relative inherited PYTHONPATH
    # entry such as `src` points nowhere in the child; put the absolute
    # directory of the spherediff imported here first, so the child runs
    # the same package rather than some other installed copy
    pkg_root = str(Path(spherediff.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        pkg_root + os.pathsep + inherited if inherited else pkg_root
    )
    # bare file names + cwd=out_dir keep the recorded configs (and hence the
    # provenance hashes) identical between the two runs
    cmds = [
        ["verify-operators", "--L", "2", "--seed", "1"],
        ["covariance", "--L", "2", "--samples", "2000", "--seed", "2"],
        ["diffuse", "--L", "2", "--n", "64", "--steps", "25", "--seed", "3"],
        ["diffuse", "--L", "2", "--n", "64", "--steps", "25", "--seed", "3",
         "--direction", "reverse", "--score", "gaussian-analytic",
         "--out", "rev.csv"],
        ["bound-check", "--L", "2", "--trials", "100", "--seed", "4"],
        ["sliced-w", "--a", "diffuse_forward_frequency_L2.csv",
         "--b", "rev.csv", "--n-proj", "64", "--seed", "5"],
    ]
    for cmd in cmds:
        proc = subprocess.run(
            [sys.executable, "-m", "spherediff.cli", *cmd],
            env=env, cwd=str(out_dir), capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"{cmd}: rc={proc.returncode}\n{proc.stderr}"


def test_outputs_byte_identical_across_thread_counts(tmp_path):
    one = tmp_path / "threads1"
    four = tmp_path / "threads4"
    one.mkdir()
    four.mkdir()
    _run_all_commands(one, "1")
    _run_all_commands(four, "4")

    names = sorted(
        str(p.relative_to(one)) for p in one.rglob("*") if p.is_file()
    )
    assert names == sorted(
        str(p.relative_to(four)) for p in four.rglob("*") if p.is_file()
    )
    diffs = [n for n in names if (one / n).read_bytes() != (four / n).read_bytes()]
    _report(
        9,
        "byte-identical outputs across thread counts",
        not diffs,
        f"{len(names)} files from 6 command runs compared; mismatches: {diffs or 'none'}",
    )
