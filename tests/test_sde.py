import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import dense_reference
from spherediff import chart, cli, noise, sde, transform
from spherediff.indexing import block_slots


def test_schedule_validation():
    with pytest.raises(ValueError):
        sde.VpSchedule(beta_min=0.0)
    with pytest.raises(ValueError):
        sde.VpSchedule(beta_min=2.0, beta_max=1.0)
    with pytest.raises(ValueError):
        sde.VpSchedule(steps=0)
    with pytest.raises(ValueError):
        sde.VpSchedule(T=0.0)


def test_schedule_closed_forms():
    s = sde.VpSchedule()
    assert s.beta(0.0) == 0.1 and s.beta(1.0) == 10.0
    np.testing.assert_allclose(s.beta_integral(1.0), 5.05)
    # B(t) against numerical quadrature of beta
    ts = np.linspace(0, 1, 11)
    for t in ts:
        grid = np.linspace(0, t, 20001)
        np.testing.assert_allclose(
            s.beta_integral(t), np.trapezoid([s.beta(u) for u in grid], grid), rtol=1e-8
        )
    np.testing.assert_allclose(s.mean_coeff(1.0), np.exp(-5.05 / 2))
    np.testing.assert_allclose(s.marginal_var(1.0), 1 - np.exp(-5.05))
    assert s.g(0.5) == np.sqrt(s.beta(0.5))


def test_state_and_score_domain_validation():
    with pytest.raises(ValueError):
        sde.DiffusionState(time=0.0, values=np.zeros((1, 2)), domain="fourier")
    st = sde.DiffusionState(time=1.0, values=np.zeros((3, 4)), domain="chart")
    wrong = sde.ScoreField(fn=lambda x, t: x, domain="chart")
    with pytest.raises(ValueError):
        sde.reverse_step_spatial(st, sde.VpSchedule(), -0.1, wrong, np.zeros((3, 4)))


def test_zero_is_fixed_point_of_drift():
    s = sde.VpSchedule()
    st = sde.DiffusionState(time=0.0, values=np.zeros((2, 6)), domain="spatial")
    out = sde.forward_step_spatial(st, s, s.dt, np.zeros((2, 6)))
    assert np.all(out.values == 0.0)
    assert out.time == s.dt
    stz = sde.DiffusionState(time=0.0, values=np.zeros((2, 4)), domain="chart")
    outz = sde.forward_step_frequency(stz, s, s.dt, np.eye(4), np.zeros((2, 4)))
    assert np.all(outz.values == 0.0)


def test_forward_marginal_matches_closed_form():
    # x(0) = x0 fixed: mean m(t) x0, variance v(t) per coordinate
    s = sde.VpSchedule(steps=1000)
    n, d = 10_000, 2
    x0 = np.array([0.4, -0.25])  # small enough that m(1) x0 clears the 0.05 gate
    st = sde.DiffusionState(time=0.0, values=np.tile(x0, (n, 1)), domain="spatial")
    final, aborted = sde.integrate(st, s, "forward", sde.spatial_forward_stepper(s), seed=5)
    assert not aborted
    m, v = s.mean_coeff(1.0), s.marginal_var(1.0)
    se_mean = np.sqrt(v / n)
    assert np.all(np.abs(final.values.mean(axis=0) - m * x0) < 3.5 * se_mean)
    se_var = v * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(final.values.var(axis=0, ddof=1) - v) < 3.5 * se_var)
    # terminal law is near standard normal
    assert np.all(np.abs(final.values.mean(axis=0)) < 0.05)
    assert np.all((final.values.var(axis=0, ddof=1) > 0.9) & (final.values.var(axis=0, ddof=1) < 1.1))


def test_frequency_path_commutes_with_analysis():
    # analysis of the spatial path == chart path driven by the transformed noise
    L = 3
    ops = transform.build_operators(L)
    T = chart.chart_linear_map(ops)
    s = sde.VpSchedule(steps=40)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, ops.d_spatial))
    z = x @ T.T
    st_x = sde.DiffusionState(time=0.0, values=x, domain="spatial")
    st_z = sde.DiffusionState(time=0.0, values=z, domain="chart")
    for _ in range(s.steps):
        xi = rng.standard_normal(x.shape)
        st_x = sde.forward_step_spatial(st_x, s, s.dt, xi)
        # same noise, pushed through T; Lambda = identity keeps it untouched
        st_z = sde.forward_step_frequency(st_z, s, s.dt, np.eye(L * L), xi @ T.T)
        assert np.max(np.abs(st_x.values @ T.T - st_z.values)) < 1e-10


def test_deterministic_round_trip_constant_beta():
    # with score = 0 and no noise, reverse is drift reversal; constant beta
    # aligns the forward/reverse time grids so EM cancels to O(dt^2) per step
    s = sde.VpSchedule(beta_min=0.1, beta_max=0.1, steps=8000)
    x0 = np.array([[1.0, -2.0, 0.5]])
    st = sde.DiffusionState(time=0.0, values=x0.copy(), domain="spatial")
    zero = np.zeros_like(x0)
    for _ in range(s.steps):
        st = sde.forward_step_spatial(st, s, s.dt, zero)
    score0 = sde.ScoreField(fn=lambda x, t: np.zeros_like(x), domain="spatial")
    for _ in range(s.steps):
        st = sde.reverse_step_spatial(st, s, -s.dt, score0, zero)
    assert np.max(np.abs(st.values - x0)) < 1e-6


def test_reverse_drift_correction_matches_closed_form():
    # Sigma s for a Gaussian marginal equals -Sigma A_t^{-1} (z - m mu) entrywise
    L = 2
    cov = noise.build_covariance(L)
    s = sde.VpSchedule()
    rng = np.random.default_rng(13)
    d = L * L
    mu = rng.standard_normal(d)
    A = rng.normal(0, 0.4, (d, d))
    S = A @ A.T + 0.3 * np.eye(d)
    score = sde.gaussian_chart_score(mu, S, cov.Sigma, s)
    t = 0.42
    z = rng.standard_normal(d)
    m, v = s.mean_coeff(t), s.marginal_var(t)
    At = m * m * S + v * cov.Sigma
    expected = cov.Sigma @ (-np.linalg.solve(At, z - m * mu))
    np.testing.assert_allclose(cov.Sigma @ score(z, t), expected, atol=1e-8)


def test_gaussian_spatial_score_matches_direct_inverse():
    L = 2
    ops = transform.build_operators(L)
    M = chart.synthesis_matrix(ops)
    s = sde.VpSchedule()
    rng = np.random.default_rng(17)
    mu = rng.standard_normal(L * L)
    S = np.eye(L * L) * 0.5
    cov_x = M @ S @ M.T  # singular spatial covariance
    score = sde.gaussian_spatial_score(mu, S, M, s)
    t = 0.6
    x = rng.standard_normal(ops.d_spatial)
    m, v = s.mean_coeff(t), s.marginal_var(t)
    At = m * m * cov_x + v * np.eye(ops.d_spatial)
    np.testing.assert_allclose(
        score(x, t), -np.linalg.solve(At, x - m * (M @ mu)), atol=1e-10
    )


def test_gaussian_recovery_chart_domain_reduced():
    # reduced-size regression guard; the acceptance suite runs the full protocol
    L = 2
    cov = noise.build_covariance(L)
    s = sde.VpSchedule(steps=500)
    rng = np.random.default_rng(23)
    d = L * L
    mu = rng.normal(0, 0.5, d)
    A = rng.normal(0, 0.2, (d, d))
    S = A @ A.T + 0.1 * np.eye(d)
    z0 = rng.multivariate_normal(mu, S, size=4000, method="eigh")
    st = sde.DiffusionState(time=0.0, values=z0, domain="chart")
    root = dense_reference.sigma_root(cov)
    st, ab1 = sde.integrate(st, s, "forward", sde.frequency_forward_stepper(s, root), seed=1)
    score = sde.gaussian_chart_score(mu, S, cov.Sigma, s)
    st, ab2 = sde.integrate(
        st, s, "reverse", sde.frequency_reverse_stepper(s, cov.Sigma, root, score), seed=2
    )
    assert not ab1 and not ab2
    assert abs(st.time) < 1e-12
    assert np.linalg.norm(st.values.mean(0) - mu) / np.linalg.norm(mu) < 0.08
    S_rec = noise.empirical_covariance(st.values)
    assert np.linalg.norm(S_rec - S) / np.linalg.norm(S) < 0.15


def test_integrate_empty_and_direction_validation():
    s = sde.VpSchedule(steps=3)
    st = sde.DiffusionState(time=0.0, values=np.zeros((0, 4)), domain="chart")
    final, aborted = sde.integrate(st, s, "forward", sde.frequency_forward_stepper(s, np.eye(4)), seed=0)
    assert final.values.shape == (0, 4)
    assert aborted == []
    with pytest.raises(ValueError):
        sde.integrate(st, s, "sideways", sde.frequency_forward_stepper(s, np.eye(4)), seed=0)


def test_integrate_blowup_detection_and_freezing():
    s = sde.VpSchedule(steps=5)
    # score that catapults the first path beyond the blow-up limit at step 2
    def bad_fn(x, t):
        out = np.zeros_like(x)
        out[0] = 1e9
        return out

    score = sde.ScoreField(fn=bad_fn, domain="spatial")
    st = sde.DiffusionState(time=1.0, values=np.ones((3, 2)), domain="spatial")
    final, aborted = sde.integrate(
        st, s, "reverse", sde.spatial_reverse_stepper(s, score), seed=0
    )
    assert [a["path"] for a in aborted] == [0]
    assert aborted[0]["step"] == 0
    assert np.all(np.isfinite(final.values))
    assert np.all(np.abs(final.values[0]) <= 1.0 + 1e-12)  # frozen at the initial value


def test_integrate_all_paths_diverged_raises():
    s = sde.VpSchedule(steps=3)
    score = sde.ScoreField(fn=lambda x, t: np.full_like(x, 1e9), domain="spatial")
    st = sde.DiffusionState(time=1.0, values=np.ones((2, 2)), domain="spatial")
    with pytest.raises(sde.BlowUpError):
        sde.integrate(st, s, "reverse", sde.spatial_reverse_stepper(s, score), seed=0)


def test_replay_is_bit_identical():
    s = sde.VpSchedule(steps=50)
    st = sde.DiffusionState(time=0.0, values=np.zeros((8, 4)), domain="chart")
    Lam = dense_reference.sigma_root(noise.build_covariance(2))
    a, _ = sde.integrate(st, s, "forward", sde.frequency_forward_stepper(s, Lam), seed=77)
    b, _ = sde.integrate(st, s, "forward", sde.frequency_forward_stepper(s, Lam), seed=77)
    assert np.array_equal(a.values, b.values)


def test_drift_identity(ops_cache):
    err = dense_reference.vp_drift_identity_error(ops_cache[4], sde.VpSchedule(), 0.3)
    assert err < 1e-12


# ---------------------------------------------------------------------------
# the Euler-Maruyama kernel and the fixed-basis Gaussian scores
# ---------------------------------------------------------------------------

SCORE_TIMES = (sde.VpSchedule(steps=1000).dt, 0.3, 1.0)  # smallest: v(t) ~ 1e-4


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("L", [2, 4, 12])
def test_fixed_basis_chart_score_matches_solve(L):
    from spherediff.sde import surrogate_gaussian as _surrogate_gaussian

    cov = noise.build_covariance(L)
    s = sde.VpSchedule()
    mu, S = _surrogate_gaussian(L, 0.25, 0.04, seed=31)
    score = sde.gaussian_chart_score(mu, S, cov.Sigma, s)
    z = np.random.default_rng(32).standard_normal((9, L * L))
    for t in SCORE_TIMES:
        m, v = s.mean_coeff(t), s.marginal_var(t)
        ref = -np.linalg.solve(m * m * S + v * cov.Sigma, (z - m * mu).T).T
        assert _rel(score(z, t), ref) <= 1e-10, t
        assert _rel(score(z[0], t), ref[0]) <= 1e-10, t  # one unbatched vector


@pytest.mark.parametrize("L", [4, 12])
def test_factor_built_spatial_score_matches_direct_inverse(L):
    from spherediff.sde import surrogate_gaussian as _surrogate_gaussian

    ops = transform.build_operators(L)
    M = chart.synthesis_matrix(ops)
    s = sde.VpSchedule()
    mu, S = _surrogate_gaussian(L, 0.25, 0.04, seed=41)
    cov_x = M @ S @ M.T
    by_factor = sde.gaussian_spatial_score(mu, S, M, s)
    x = np.random.default_rng(42).standard_normal((9, ops.d_spatial))
    for t in SCORE_TIMES:
        m, v = s.mean_coeff(t), s.marginal_var(t)
        At = m * m * cov_x + v * np.eye(ops.d_spatial)
        ref = -np.linalg.solve(At, (x - m * (M @ mu)).T).T
        assert _rel(by_factor(x, t), ref) <= 1e-10, t


def test_blow_up_check_flags_exactly_the_bad_rows():
    x = np.zeros((7, 3))
    x[1, 2] = np.nan
    x[2, 0] = np.inf
    x[3, 1] = -np.inf
    x[4, 0] = np.nextafter(sde.BLOWUP_LIMIT, np.inf)
    x[5, 2] = -2 * sde.BLOWUP_LIMIT
    x[6, 1] = -sde.BLOWUP_LIMIT  # at the limit is still good
    assert sde._blown_up(x).tolist() == [False, True, True, True, True, True, False]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_blow_up_check_flags_an_edge_entry_in_a_finite_array(sign):
    # no NaN or infinity: the whole array's max and min alone send it to the row-wise test
    x = np.random.default_rng(2).uniform(-1.0, 1.0, (5, 3))
    for edge, flagged in ((np.nextafter(sde.BLOWUP_LIMIT, np.inf), True),
                          (sde.BLOWUP_LIMIT, False)):
        y = x.copy()
        y[3, 1] = sign * edge
        assert sde._blown_up(y).tolist() == [False, False, False, flagged, False], edge


def test_integrate_draws_the_same_noise_as_fresh_draws():
    s = sde.VpSchedule(steps=20)
    Lam = dense_reference.sigma_root(noise.build_covariance(2))
    st = sde.DiffusionState(time=0.0, values=np.ones((6, 4)), domain="chart")
    got, _ = sde.integrate(st, s, "forward", sde.frequency_forward_stepper(s, Lam), seed=9)
    rng = np.random.default_rng(9)
    ref = st
    for _ in range(s.steps):
        ref = sde.forward_step_frequency(ref, s, s.dt, Lam, rng.standard_normal((6, 4)))
    assert np.array_equal(got.values, ref.values)
    assert np.array_equal(st.values, np.ones((6, 4)))  # the start state is untouched


@pytest.mark.parametrize("config", [{}, {"beta_min": 0.5, "beta_max": 20.0, "T": 2.0}],
                         ids=["default", "config"])
@pytest.mark.parametrize("steps", [1, 4, 100, 1000])
def test_forward_law_is_the_law_of_the_euler_maruyama_steppers(steps, config):
    """The forward steppers are affine in (x, xi), so their K-step law is read
    off them without a draw: rows 0 .. d-1 start at the basis with zero noise
    (giving a I), every further row starts at zero and gets one unit normal at
    one step (their Gram matrix gives s^2 F F^T)."""
    s = sde.VpSchedule(steps=steps, **config)
    a, s2, t = sde.forward_law(s)
    Lam = dense_reference.sigma_root(noise.build_covariance(2))
    for F, domain, step in (
        (np.eye(1), "spatial", lambda st, xi: sde.forward_step_spatial(st, s, s.dt, xi)),
        (Lam, "chart", lambda st, xi: sde.forward_step_frequency(st, s, s.dt, Lam, xi)),
    ):
        d = len(F)
        x = np.zeros((d + steps * d, d))
        x[:d] = np.eye(d)
        state = sde.DiffusionState(time=0.0, values=x, domain=domain)
        for k in range(steps):
            xi = np.zeros_like(x)
            xi[d * (k + 1):d * (k + 2)] = np.eye(d)
            state = step(state, xi)
        A, N = state.values[:d], state.values[d:]
        assert state.time == t  # bit for bit
        assert np.max(np.abs(A - a * np.eye(d))) <= 1e-12 * abs(a)
        target = s2 * (F @ F.T)
        assert np.max(np.abs(N.T @ N - target)) <= 1e-12 * np.max(np.abs(target))


def _spy_on_draws(monkeypatch) -> dict:
    """{seed: [size of each standard_normal draw]} of every default_rng from here on."""
    real, draws = np.random.default_rng, {}

    class CountingRng:
        def __init__(self, rng_seed):
            self.seed, self.rng = rng_seed, real(rng_seed)

        def standard_normal(self, size=None, out=None):
            draws.setdefault(self.seed, []).append(np.size(out) if size is None
                                                   else int(np.prod(size)))
            return self.rng.standard_normal(size, out=out)

        def normal(self, *args, **kwargs):  # the surrogate law's draws
            return self.rng.normal(*args, **kwargs)

    monkeypatch.setattr(sde.np.random, "default_rng", CountingRng)
    return draws


@pytest.mark.parametrize("domain", ["chart", "spatial"])
def test_reverse_chain_draws_one_block_per_leg(monkeypatch, domain):
    L, n, steps, seed, data_seed = 4, 30, 7, 20, 99
    law = sde.surrogate_gaussian(L, 0.25, 0.04, 3)
    draws = _spy_on_draws(monkeypatch)
    state, aborted, errors = sde.run_chain(L, sde.VpSchedule(steps=steps), domain, "reverse",
                                           law, n, seed, data_seed)
    d = L * L if domain == "chart" else 2 * L * (2 * L - 1)
    assert draws == {data_seed: [n * L * L], seed: [n * d], seed + 2: [n * d]}
    assert state.values.shape == (n, d) and aborted == [] and errors is not None


@pytest.mark.parametrize("domain", ["frequency", "spatial"])
def test_diffuse_draws_data_and_both_legs_from_distinct_seeds(monkeypatch, tmp_path, capsys,
                                                              domain):
    # data_seed defaults to seed + 1; seed (forward) and seed + 2 (reverse) are rejected,
    # since each would make one leg's normals the data's
    L, n, seed = 3, 20, 4
    d = L * L if domain == "frequency" else 2 * L * (2 * L - 1)
    argv = ["diffuse", "--direction", "reverse", "--score", "gaussian-analytic",
            "--domain", domain, "--L", str(L), "--n", str(n), "--steps", "5",
            "--seed", str(seed)]
    draws = _spy_on_draws(monkeypatch)
    assert cli.main([*argv, "--out", str(tmp_path / "rev.csv")]) == 0
    # keyed by seed, so three keys are three distinct streams
    assert draws == {seed + 1: [n * L * L], seed: [n * d], seed + 2: [n * d]}
    capsys.readouterr()
    for data_seed in (seed, seed + 2):
        draws.clear()
        cfg = tmp_path / "law.json"
        cfg.write_text(json.dumps({"data_seed": data_seed}))
        assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spherediff diffuse: error: data_seed") and err.count("\n") == 1
        assert draws == {} and not (tmp_path / "x.csv").exists()


# d_X = 12, 56 and 552: n on both sides of it, so |A| comes from either Gram
@pytest.mark.parametrize("L,n", [(2, 5), (2, 50), (4, 30), (4, 200), (12, 100), (12, 1000)])
def test_spatial_diagnostics_match_the_dense_form_without_a_grid_covariance(monkeypatch, L, n):
    law = sde.surrogate_gaussian(L, 0.25, 0.04, 3)
    real = noise.empirical_covariance

    def chart_wide_only(X, **kwargs):
        assert X.shape[1] <= L * L, "a d_X x d_X covariance"
        return real(X, **kwargs)

    monkeypatch.setattr(noise, "empirical_covariance", chart_wide_only)
    state, _, errors = sde.run_chain(L, sde.VpSchedule(steps=20), "spatial", "reverse", law, n,
                                     5, 6)
    monkeypatch.undo()
    M = chart.synthesis_matrix(transform.build_operators(L))
    want = dense_reference.grid_diagnostics(state.values, *law, M)
    assert errors.keys() == want.keys()
    for key, value in want.items():
        assert errors[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


# Measured: 30.0 MB; one d_X x d_X array at L = 24 (d_X = 2256) is 40.7 MB.
def test_spatial_reverse_diffuse_at_L24_runs_within_a_memory_bound(tmp_path):
    tracemalloc.start()
    try:
        rc = cli.main(["diffuse", "--direction", "reverse", "--score", "gaussian-analytic",
                       "--domain", "spatial", "--L", "24", "--n", "200", "--steps", "20",
                       "--out", str(tmp_path / "rev.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and peak <= 40e6, peak


def test_forward_exact_keeps_a_blown_up_start_row_and_reports_it():
    s = sde.VpSchedule(steps=6)
    a, s2, t = sde.forward_law(s)
    x = np.ones((3, 4))
    x[1, 2] = np.nan
    state = sde.DiffusionState(time=0.0, values=x.copy(), domain="spatial")
    out, aborted = sde.forward_exact(state, s, 5)
    assert aborted == [{"path": 1, "step": 5}]
    assert np.array_equal(out.values[1], x[1], equal_nan=True)  # the start row is kept
    xi = np.random.default_rng(5).standard_normal((3, 4))
    assert np.array_equal(out.values[[0, 2]], a * x[[0, 2]] + np.sqrt(s2) * xi[[0, 2]])
    assert out.time == t and np.array_equal(state.values, x, equal_nan=True)

    dead = dataclasses.replace(state, values=np.full((3, 4), np.nan))
    with pytest.raises(sde.BlowUpError):
        sde.forward_exact(dead, s, 5)
    empty, aborted = sde.forward_exact(dataclasses.replace(state, values=np.zeros((0, 4))),
                                       s, 5)  # no rows is not all rows dead
    assert empty.values.shape == (0, 4) and aborted == []


# Measured: 1.16 (spatial) and 1.13 (chart) times the paths' size; holding a x as a
# whole (n, d) array besides the normals made it 2.09 and 2.00.
@pytest.mark.parametrize("domain", ["spatial", "chart"])
def test_forward_exact_holds_the_normals_and_no_third_path_array(domain):
    cov = noise.build_covariance(16) if domain == "chart" else None
    x = np.random.default_rng(1).standard_normal((1000, 1000) if cov is None else (2000, 256))
    if cov is not None:
        cov.root  # built before tracing
    state = sde.DiffusionState(time=0.0, values=x, domain=domain)
    tracemalloc.start()
    try:
        out, _ = sde.forward_exact(state, sde.VpSchedule(steps=100), 3, cov=cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * x.nbytes, peak / x.nbytes
    xi = np.random.default_rng(3).standard_normal(x.shape)
    if cov is not None:
        xi = dense_reference.times_root(cov, xi)
    a, s2, _ = sde.forward_law(sde.VpSchedule(steps=100))
    assert np.array_equal(out.values, a * x + np.sqrt(s2) * xi)


def test_chart_basis_from_one_whitened_eigh_at_L32():
    # B^T S B = I, B^T Sigma B = diag(kappa), the third entry is S B, and F F^T = S
    L = 32
    cov = noise.build_covariance(L)
    mu, S = sde.surrogate_gaussian(L, 0.25, 0.04, 7)
    (kappa, B, SB), F = sde._gaussian_basis(S, cov.eig, "chart")
    assert np.abs(B.T @ S @ B - np.eye(L * L)).max() <= 1e-13
    assert np.abs(B.T @ cov.Sigma @ B - np.diag(kappa)).max() <= 1e-13 * kappa.max()
    assert _rel(SB, S @ B) <= 1e-13 and F is SB
    assert _rel(F @ F.T, S) <= 1e-13


def test_grid_basis_from_one_whitened_eigh_at_L16():
    # Q = M C has Q^T Q = I and Q diag(e) Q^T = M S M^T, and F F^T = S
    L = 16
    ops = transform.build_operators(L)
    M = chart.synthesis_matrix(ops)
    mu, S = sde.surrogate_gaussian(L, 0.25, 0.04, 7)
    (e, C), F = sde._gaussian_basis(S, sde._grid_eig(ops.legendre), "spatial")
    Q = M @ C
    assert np.abs(Q.T @ Q - np.eye(L * L)).max() <= 1e-13
    assert _rel((Q * e) @ Q.T, M @ S @ M.T) <= 1e-13
    assert _rel(F @ F.T, S) <= 1e-13


@pytest.mark.parametrize("L", [1, 2, 5, 16, 32])
def test_grid_eig_gives_the_blocks_of_m_transpose_m(L):
    # M^T M is (M^T M)_m = N_phi mult_m Pbar_m^T Pbar_m in both parts of each m, and round-off
    # elsewhere: the closed form needs no gather of M
    ops = transform.build_operators(L)
    M = chart.synthesis_matrix(ops)
    G = M.T @ M
    w, V = sde._grid_eig(ops.legendre)
    blocks = np.zeros_like(G)
    for m, rows in block_slots(L):
        blocks[np.ix_(rows, rows)] = (V[m, m:, m:] * w[m, m:]) @ V[m, m:, m:].T
        assert np.all(w[m, :m] == -1.0) and not V[m, :m, m:].any() and not V[m, m:, :m].any()
    assert np.abs(G - blocks).max() <= 1e-13 * np.abs(G).max()


def _stepped_law(step, domain, d, t, steps):
    """Mean map, offset and noise covariance of `steps` affine steps read off `step`
    with no draw: row 0 starts at zero, rows 1 .. d at the basis (both with zero
    noise), rows d + 1 .. 2d at zero with one unit normal each."""
    A, b, C = np.eye(d), np.zeros(d), np.zeros((d, d))
    x, xi = np.zeros((1 + 2 * d, d)), np.zeros((1 + 2 * d, d))
    x[1:d + 1], xi[d + 1:] = np.eye(d), np.eye(d)
    for _ in range(steps):
        out = step(sde.DiffusionState(time=t, values=x, domain=domain), xi)
        b_k = out.values[0]
        A_k, C_k = (out.values[1:d + 1] - b_k).T, (out.values[d + 1:] - b_k).T
        A, b, C, t = A_k @ A, A_k @ b + b_k, A_k @ C @ A_k.T + C_k @ C_k.T, out.time
    return A, b, C, t


@pytest.mark.parametrize("config", [{}, {"beta_min": 0.5, "beta_max": 20.0, "T": 2.0}],
                         ids=["default", "config"])
@pytest.mark.parametrize("L,steps", [(2, 1), (2, 4), (2, 100), (4, 1), (4, 4), (4, 100),
                                     (12, 4)])
@pytest.mark.parametrize("domain", ["chart", "spatial"])
def test_reverse_law_is_the_law_of_the_euler_maruyama_steppers(domain, L, steps, config):
    """The reverse steppers with the Gaussian score are affine in (x, xi), so their
    K-step law is read off them: mean map, offset and covariance against
    `reverse_law`'s W diag(A) V^T, W b and W diag(s^2) W^T (plus a and r^2 on the
    complement of Q on the grid), and the end time bit for bit."""
    s = sde.VpSchedule(steps=steps, **config)
    t0 = sde.forward_law(s)[2]  # where run_chain starts the reverse leg
    mu, S = sde.surrogate_gaussian(L, 0.25, 0.04, 5)
    if domain == "chart":
        cov = noise.build_covariance(L)
        basis, _ = sde._gaussian_basis(S, cov.eig, "chart")
        mean, (_, V, W) = mu, basis
        score = sde.gaussian_chart_score(mu, S, cov.Sigma, s)
        root = dense_reference.sigma_root(cov)
        step = lambda st, xi: sde.reverse_step_frequency(st, s, -s.dt, cov.Sigma, root,
                                                         score, xi)
    else:
        ops = transform.build_operators(L)
        M = chart.synthesis_matrix(ops)
        (e, C), _ = sde._gaussian_basis(S, sde._grid_eig(ops.legendre), "spatial")
        mean, basis = M @ mu, (e, M @ C)  # the grid basis (e, Q = M C)
        V = W = basis[1]
        score = sde.gaussian_spatial_score(mu, S, M, s)
        step = lambda st, xi: sde.reverse_step_spatial(st, s, -s.dt, score, xi)
    A, b, s2, t = sde.reverse_law(s, t0, domain, mean, basis)
    d, r = len(V), V.shape[1]
    ref_A, ref_b, ref_C = (W * A[:r]) @ V.T, W @ b[:r], (W * s2[:r]) @ W.T
    if domain == "spatial":  # the complement of Q: one entry of A and s^2
        P = np.eye(d) - V @ V.T
        ref_A, ref_C = ref_A + A[-1] * P, ref_C + s2[-1] * P
    got_A, got_b, got_C, got_t = _stepped_law(step, domain, d, t0, steps)
    assert got_t == t  # bit for bit
    assert _rel(got_A, ref_A) <= 1e-12
    assert _rel(got_b, ref_b) <= 1e-12
    assert _rel(got_C, ref_C) <= 1e-12


@pytest.mark.parametrize("domain", ["chart", "spatial"])
def test_reverse_exact_keeps_a_blown_up_start_row_and_reports_it(domain):
    L, s = 2, sde.VpSchedule(steps=6)
    mu, S = sde.surrogate_gaussian(L, 0.25, 0.04, 3)
    if domain == "chart":
        eig = noise.build_covariance(L).eig
        mean, (basis, _) = mu, sde._gaussian_basis(S, eig, "chart")
    else:
        ops = transform.build_operators(L)
        M = chart.synthesis_matrix(ops)
        (e, C), _ = sde._gaussian_basis(S, sde._grid_eig(ops.legendre), "spatial")
        mean, basis = M @ mu, (e, M @ C)
    A, b, s2, t = sde.reverse_law(s, 1.0, domain, mean, basis)
    d = len(basis[1])
    x = np.ones((3, d))
    x[1, 2] = np.nan
    state = sde.DiffusionState(time=1.0, values=x.copy(), domain=domain)
    out, aborted = sde.reverse_exact(state, s, 5, mean, basis)
    assert aborted == [{"path": 1, "step": 5}]
    assert np.array_equal(out.values[1], x[1], equal_nan=True)  # the start row is kept
    assert np.all(np.isfinite(out.values[[0, 2]]))
    if domain == "chart":
        zeta = np.random.default_rng(5).standard_normal((3, d))
        y = A * (x[[0, 2]] @ basis[1]) + b + np.sqrt(s2) * zeta[[0, 2]]
        assert np.array_equal(out.values[[0, 2]], y @ basis[2].T)
    assert out.time == t and np.array_equal(state.values, x, equal_nan=True)

    dead = dataclasses.replace(state, values=np.full((3, d), np.nan))
    with pytest.raises(sde.BlowUpError):
        sde.reverse_exact(dead, s, 5, mean, basis)
    empty, aborted = sde.reverse_exact(dataclasses.replace(state, values=np.zeros((0, d))),
                                       s, 5, mean, basis)  # no rows is not all rows dead
    assert empty.values.shape == (0, d) and aborted == []
