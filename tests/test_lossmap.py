import tracemalloc

import numpy as np
import pytest

import dense_reference as dense
from sphere_helpers import BAND_LIMITS, random_symmetric_coeffs
from spherediff import chart, lossmap, noise, sde, transform
from spherediff.grid import ring_weights_flat
from spherediff.transform import ConstraintViolation


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_bound_operator_identities(L, ops_cache, cov_cache):
    b = lossmap.build_bound_operators(ops_cache[L], cov_cache[L].Sigma)
    T, M, Tplus, Z = dense.T(b), dense.M(b), dense.Tplus(b), dense.Z(b)
    eye = np.eye(L * L)
    assert np.max(np.abs(T @ Tplus - eye)) < 1e-10
    assert np.max(np.abs(T @ Z)) < 1e-10
    assert np.max(np.abs(M - (Tplus + Z))) < 1e-10
    assert np.isfinite(b.sigma_cond) and b.sigma_cond >= 1.0


@pytest.mark.parametrize("L", [2, 4, 8])
def test_transpose_pseudoinverse_identity(L, ops_cache, cov_cache):
    # T^T y = T+ Sigma y for random y
    b = lossmap.build_bound_operators(ops_cache[L], cov_cache[L].Sigma)
    T, Tplus = dense.T(b), dense.Tplus(b)
    rng = np.random.default_rng(L)
    for _ in range(100):
        y = rng.standard_normal(L * L)
        assert np.max(np.abs(T.T @ y - Tplus @ (cov_cache[L].Sigma @ y))) < 1e-10


@pytest.mark.parametrize("L", [2, 4, 8])
def test_analysis_contracts_q_norm(L, ops_cache):
    # ||U d||_2^2 <= ||d||_Q^2 for arbitrary real d
    ops = ops_cache[L]
    rng = np.random.default_rng(L + 40)
    for _ in range(250):
        d = rng.standard_normal(ops.d_spatial)
        lhs = float(np.vdot(ops.U @ d, ops.U @ d).real)
        rhs = transform.q_norm_sq(ops, d)
        assert lhs <= rhs + 1e-10 * max(1.0, rhs)


def test_loss_spatial_basic(ops_cache):
    ops = ops_cache[2]
    rng = np.random.default_rng(1)
    s = rng.standard_normal(ops.d_spatial)
    assert dense.loss_spatial(s, s, ops) == 0.0
    d = rng.standard_normal(ops.d_spatial)
    base = dense.loss_spatial(s + d, s, ops)
    np.testing.assert_allclose(dense.loss_spatial(s + 3 * d, s, ops), 9 * base, rtol=1e-12)
    # unit difference at one grid point weighs exactly the ring weight
    e = np.zeros(ops.d_spatial)
    e[5] = 1.0
    q = ring_weights_flat(ops.grid)
    np.testing.assert_allclose(dense.loss_spatial(s + e, s, ops), q[5], rtol=1e-14)


def test_loss_spatial_accepts_callable(ops_cache):
    ops = ops_cache[2]
    x = np.zeros(ops.d_spatial)
    score = sde.ScoreField(fn=lambda v, t: v + 1.0, domain="spatial")
    assert dense.loss_spatial(score, np.ones(ops.d_spatial), ops, x=x, t=0.1) == 0.0


def test_loss_frequency_zero_at_oracle_and_identity_reduction(cov_cache):
    L = 2
    Sigma = cov_cache[L].Sigma
    rng = np.random.default_rng(2)
    s_ref = rng.standard_normal(L * L)
    assert dense.loss_frequency(Sigma @ s_ref, s_ref, Sigma, L) == 0.0
    # Sigma = I reduces to the plain weighted score-matching distance
    sh = rng.standard_normal(L * L)
    direct = dense.chart_sq_norm(sh - s_ref, L)
    np.testing.assert_allclose(
        dense.loss_frequency(sh, s_ref, np.eye(L * L), L), direct, rtol=1e-14
    )


def test_loss_frequency_two_evaluations_agree(cov_cache):
    L = 4
    Sigma = cov_cache[L].Sigma
    rng = np.random.default_rng(3)
    for _ in range(25):
        sh = rng.standard_normal(L * L)
        sr = rng.standard_normal(L * L)
        a = dense.loss_frequency(sh, sr, Sigma, L)
        b = dense.loss_frequency_complex(sh, sr, Sigma, L)
        assert abs(a - b) < 1e-10 * max(1.0, a)


def test_loss_frequency_accepts_symmetric_complex_and_rejects_asymmetric(cov_cache):
    L = 2
    Sigma = cov_cache[L].Sigma
    rng = np.random.default_rng(4)
    a = random_symmetric_coeffs(L, rng)
    z = chart.to_chart(a, L)
    s_ref = rng.standard_normal(L * L)
    np.testing.assert_allclose(
        dense.loss_frequency(a, s_ref, Sigma, L),
        dense.loss_frequency(z, s_ref, Sigma, L),
        rtol=1e-14,
    )
    bad = a.copy()
    bad[2] += 1.0  # break the (1,1)/(1,-1) mirror pairing
    with pytest.raises(ConstraintViolation):
        dense.loss_frequency(bad, s_ref, Sigma, L)


@pytest.mark.parametrize("L", [1, 2, 4, 8])
def test_batched_losses_match_the_per_vector_oracle(L, ops_cache, cov_cache):
    ops, Sigma = ops_cache[L], cov_cache[L].Sigma
    bops = lossmap.build_bound_operators(ops, Sigma)
    T, M = dense.T(bops), dense.M(bops)
    rng = np.random.default_rng(L + 60)
    s_hat, s_ref = rng.standard_normal((2, 12, L * L))
    freq = lossmap.loss_frequency(bops, lossmap._by_order(s_hat, L),
                                  lossmap._by_order(s_ref @ Sigma, L))
    spat = lossmap.loss_spatial(bops, lossmap._by_order(s_hat, L), lossmap._by_order(s_ref, L))
    assert freq.shape == spat.shape == (12,)
    for i in range(12):
        ref_freq = dense.loss_frequency(s_hat[i], s_ref[i], Sigma, L)
        ref_spat = dense.loss_spatial(M @ s_hat[i], T.T @ s_ref[i], ops)
        assert abs(freq[i] - ref_freq) <= 1e-12 * max(1.0, ref_freq)
        assert abs(spat[i] - ref_spat) <= 1e-12 * max(1.0, ref_spat)


def test_auxiliary_score_zero_and_projector(ops_cache):
    ops = ops_cache[4]
    zero = sde.ScoreField(fn=lambda z, t: np.zeros_like(z), domain="chart")
    aux0 = dense.auxiliary_spatial_score(zero, ops)
    x = np.random.default_rng(5).standard_normal(ops.d_spatial)
    assert np.all(aux0(x, 0.0) == 0.0)

    ident = sde.ScoreField(fn=lambda z, t: z, domain="chart")
    aux = dense.auxiliary_spatial_score(ident, ops)
    np.testing.assert_allclose(
        aux(x, 0.0), transform.project_bandlimited(ops, x), atol=1e-12
    )


def test_auxiliary_score_real_on_bandlimited_inputs(ops_cache):
    ops = ops_cache[4]
    rng = np.random.default_rng(6)
    G = rng.standard_normal((16, 16))
    linear = sde.ScoreField(fn=lambda z, t: z @ G.T, domain="chart")
    aux = dense.auxiliary_spatial_score(linear, ops)  # residue checked inside
    for _ in range(100):
        x = transform.synthesis(ops, random_symmetric_coeffs(4, rng))
        out = aux(x, 0.0)
        assert out.shape == x.shape and np.all(np.isfinite(out))
    with pytest.raises(ValueError):
        dense.auxiliary_spatial_score(
            sde.ScoreField(fn=lambda z, t: z, domain="spatial"), ops
        )


def test_bound_holds_over_trials(ops_cache, cov_cache):
    rep = lossmap.check_theorem2_bound(
        lossmap.build_bound_operators(ops_cache[2], cov_cache[2].Sigma), sde.VpSchedule(), 500,
        seed=123
    )
    assert rep["violations"] == 0
    assert rep["min_slack"] > 0
    assert rep["mean_rhs"] >= rep["mean_lhs"]
    # the kernel-score gap term vanishes for this operator family: columns of
    # Z lie in ker(T), and on real vectors ker(T) = ker(U)
    assert rep["mean_gap_term"] < 1e-20


def test_uz_vanishes_identically(ops_cache, cov_cache):
    # the geometric reason the gap term is zero here
    for L in (2, 4):
        b = lossmap.build_bound_operators(ops_cache[L], cov_cache[L].Sigma)
        assert np.max(np.abs(ops_cache[L].U @ dense.Z(b))) < 1e-13


def _loop_terms(ops, bops, schedule, draws):
    """Reference: the inequality's terms one trial at a time, with plain
    matrix-vector products and the complex U Z."""
    L, d = ops.L, ops.L * ops.L
    T, M = dense.T(bops), dense.M(bops)
    w, V = np.linalg.eigh(T @ T.T)  # of Sigma = T T^T
    keep = w > 1e-10
    root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T  # the symmetric root of Sigma
    UZ = ops.U @ dense.Z(bops)
    terms = []
    for i, t in enumerate(draws["t"]):
        m, v = schedule.mean_coeff(t), schedule.marginal_var(t)
        z0 = draws["z0"][i]
        z_t = m * z0 + np.sqrt(v) * (root @ draws["xi"][i])
        sigma_s_ref = -(z_t - m * z0) / v
        s_ref = (V[:, keep] / w[keep]) @ (V[:, keep].T @ sigma_s_ref)
        g_z = np.sqrt(0.25 * (z_t @ z_t) / d) * draws["g"][i]  # G z_t, G_ij ~ N(0, 0.25/d)
        s_hat = g_z + draws["offset"][i] + draws["alpha"][i] * sigma_s_ref
        lhs = dense.chart_sq_norm(s_hat - sigma_s_ref, L)
        term_q = transform.q_norm_sq(ops, M @ s_hat - T.T @ s_ref)
        gap = UZ @ sigma_s_ref
        terms.append((lhs, term_q, float(np.vdot(gap, gap).real)))
    return np.array(terms).T


@pytest.mark.parametrize("L", [2, 4, 16])
def test_batched_bound_terms_match_a_per_trial_loop(L, ops_cache, cov_cache):
    if L in ops_cache:
        ops, Sigma = ops_cache[L], cov_cache[L].Sigma
    else:
        ops, Sigma = transform.build_operators(L), noise.build_covariance(L).Sigma
    bops = lossmap.build_bound_operators(ops, Sigma)
    schedule, n, seed = sde.VpSchedule(), 60, 31 + L
    draws = lossmap._draw_trials(np.random.default_rng(seed), n, L * L, schedule, 1e-3)
    lhs, term_q, gap = lossmap._trial_terms(bops, schedule, draws)
    ref_lhs, ref_q, ref_gap = _loop_terms(ops, bops, schedule, draws)
    rhs, ref_rhs = 2.0 * (term_q + gap), 2.0 * (ref_q + ref_gap)

    def close(a, b):
        # relative, on the scale max(1, |b|): the gap term is round-off
        # (about 1e-28) in both evaluations
        return np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))

    assert close(lhs, ref_lhs) <= 1e-12
    assert close(rhs, ref_rhs) <= 1e-12
    assert close(gap, ref_gap) <= 1e-12
    assert close(rhs - lhs, ref_rhs - ref_lhs) <= 1e-12
    # the check reads exactly these draws from its seed
    rep = lossmap.check_theorem2_bound(bops, schedule, n, seed)
    ref_slack = ref_rhs - ref_lhs
    assert rep["n_trials"] == n and rep["violations"] == 0
    assert abs(rep["min_slack"] - ref_slack.min()) <= 1e-12 * max(1.0, abs(ref_slack.min()))
    assert abs(rep["mean_lhs"] - ref_lhs.mean()) <= 1e-12 * ref_lhs.mean()
    assert abs(rep["mean_rhs"] - ref_rhs.mean()) <= 1e-12 * ref_rhs.mean()


@pytest.mark.parametrize("L,n", [(1, 200), (2, 200), (3, 200), (4, 200), (5, 200), (6, 200),
                                 (7, 200), (8, 200), (16, 50), (64, 10)])
def test_spatial_loss_is_frequency_loss_plus_an_out_of_band_term(L, n, ops_cache, cov_cache,
                                                                 monkeypatch):
    # ||M s_hat - T^T s_ref||_Q^2 = ||s_hat - Sigma s_ref||^2 + ||(I - P) T^T s_ref||_Q^2
    # for every trial: P = M T is the Q-orthogonal projector onto band-limited
    # fields, M s_hat lies in its range and T T^T = Sigma.  The last term is
    # loss_spatial(Sigma s_ref, s_ref), whatever s_hat is.
    seen = {}
    frequency, spatial = lossmap.loss_frequency, lossmap.loss_spatial

    def seen_frequency(bops, s_hat, sigma_s_ref):
        seen["sigma_s_ref"] = sigma_s_ref
        return frequency(bops, s_hat, sigma_s_ref)

    def seen_spatial(bops, s_hat, s_ref):
        seen["s_ref"] = s_ref
        return spatial(bops, s_hat, s_ref)

    monkeypatch.setattr(lossmap, "loss_frequency", seen_frequency)
    monkeypatch.setattr(lossmap, "loss_spatial", seen_spatial)
    ops = ops_cache[L] if L in ops_cache else transform.build_operators(L)
    cov = cov_cache[L] if L in cov_cache else noise.build_covariance(L)
    bops, schedule = lossmap.bound_operators(ops, cov), sde.VpSchedule()
    draws = lossmap._draw_trials(np.random.default_rng(L), n, L * L, schedule, 1e-3)
    lhs, term_q, _ = lossmap._trial_terms(bops, schedule, draws)
    out_of_band = spatial(bops, seen["sigma_s_ref"], seen["s_ref"])
    assert np.all(out_of_band >= 0.0)
    assert np.all(np.abs(term_q - lhs - out_of_band) <= 1e-12 * term_q)


def test_bound_kit_reads_the_stacks_of_the_covariance_set(ops_cache, cov_cache):
    cov = cov_cache[8]
    bops = lossmap.bound_operators(ops_cache[8], cov)
    assert np.shares_memory(bops.sigma_root, cov.root)
    assert np.shares_memory(bops.sigma, cov.sigma)


def test_bound_check_runs_no_eigendecomposition_given_the_operators(
        ops_cache, cov_cache, monkeypatch):
    ops, Sigma = ops_cache[4], cov_cache[4].Sigma
    bops = lossmap.build_bound_operators(ops, Sigma)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition called")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    rep = lossmap.check_theorem2_bound(bops, sde.VpSchedule(), 30, seed=9)
    assert rep["n_trials"] == 30 and rep["violations"] == 0


def test_bound_check_memory_at_L64():
    # the trials are drawn at once (13.1 MB for 100 trials at L = 64) and
    # evaluated 8 at a time, each per-order [part, m, trial, ell] array dropped
    # after its last use: 20.7 MiB, against 69.5 MiB as one batch of 100
    L = 64
    bops = lossmap.bound_operators(transform.build_operators(L), noise.build_covariance(L))
    tracemalloc.start()
    try:
        rep = lossmap.check_theorem2_bound(bops, sde.VpSchedule(), 100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["n_trials"] == 100 and rep["violations"] == 0
    assert peak <= 27 * 2**20


def _bound_in_blocks(bops, n, per_block, monkeypatch):
    """check_theorem2_bound's report (seed 3) with `per_block` trials per batch,
    and the number of trials each batch evaluated."""
    seen, terms = [], lossmap._trial_terms

    def spy(bops, schedule, draws):
        seen.append(len(draws["t"]))
        return terms(bops, schedule, draws)

    with monkeypatch.context() as mp:
        mp.setattr(lossmap, "_trial_terms", spy)
        mp.setattr(lossmap, "_TRIAL_BLOCK", per_block * bops.L * bops.L)
        return lossmap.check_theorem2_bound(bops, sde.VpSchedule(), n, 3), seen


# batches of 1 trial, of 7 (and a last one of 2), and one batch of all 30; the
# bits of one batch held for every batch but of 1 trial at L = 4 and 16, and for
# none at L = 32, whose per-order products round differently with fewer rows
@pytest.mark.parametrize("L,per_block,same_bits", [
    (4, 1, False), (4, 7, True), (4, 30, True), (16, 7, True), (32, 1, False), (32, 7, False),
])
def test_bound_check_in_trial_batches_keeps_its_report(L, per_block, same_bits, ops_cache,
                                                        cov_cache, monkeypatch):
    ops = ops_cache[L] if L in ops_cache else transform.build_operators(L)
    cov = cov_cache[L] if L in cov_cache else noise.build_covariance(L)
    bops = lossmap.bound_operators(ops, cov)
    want, _ = _bound_in_blocks(bops, 30, 30, monkeypatch)
    got, seen = _bound_in_blocks(bops, 30, per_block, monkeypatch)
    assert seen == [per_block] * (30 // per_block) + [30 % per_block] * (30 % per_block > 0)
    assert got["violations"] == 0 and got["n_trials"] == 30
    if same_bits:
        assert got == want
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-13, abs=0), key
