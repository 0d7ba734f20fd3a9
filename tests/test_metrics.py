import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import sliced_wasserstein_in_logs, wasserstein_in_logs
from spherediff import metrics


def test_identical_samples_give_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 6))
    res = metrics.sliced_wasserstein(a, a.copy(), n_proj=64, seed=1)
    assert res.value == 0.0
    assert res.se == 0.0


def test_argument_order_symmetry():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((150, 4))
    b = rng.standard_normal((150, 4)) + 0.3
    r1 = metrics.sliced_wasserstein(a, b, n_proj=32, seed=7)
    r2 = metrics.sliced_wasserstein(b, a, n_proj=32, seed=7)
    np.testing.assert_allclose(r1.value, r2.value, rtol=1e-12)


def test_one_dimensional_point_masses():
    # W_p between point masses at 0 and c is exactly |c|
    a = np.zeros((5, 1))
    b = np.full((5, 1), 3.0)
    for p in (1.0, 2.0):
        res = metrics.sliced_wasserstein(a, b, n_proj=16, p=p, seed=2)
        # each projection contributes |<e,3>| = 3|u| for unit u in 1-D => u = +-1
        np.testing.assert_allclose(res.value, 3.0, rtol=1e-12)


def test_wasserstein_1d_equal_counts_closed_form():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([0.5, 1.5, 2.5])
    np.testing.assert_allclose(metrics.wasserstein_1d(a, b, p=1.0), 0.5)
    np.testing.assert_allclose(metrics.wasserstein_1d(a, b, p=2.0), 0.5)


def test_wasserstein_1d_unequal_counts_matches_order_statistic_grid():
    # exact value via common refinement onto the m*n order-statistic grid
    rng = np.random.default_rng(3)
    for n, m in [(3, 5), (7, 4), (10, 9), (2, 11)]:
        a = np.sort(rng.standard_normal(n))
        b = np.sort(rng.standard_normal(m))
        lcm_grid_a = np.repeat(a, m)  # quantile function sampled on k/(n*m)
        lcm_grid_b = np.repeat(b, n)
        for p in (1.0, 2.0, 3.0):
            exact = (np.mean(np.abs(lcm_grid_a - lcm_grid_b) ** p)) ** (1.0 / p)
            got = metrics.wasserstein_1d(a, b, p=p)
            np.testing.assert_allclose(got, exact, rtol=1e-10)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n,m", [(250, 1000), (37, 53)])
def test_sliced_wasserstein_at_unequal_counts_is_the_mean_of_the_1d_distances(n, m, p):
    # all projections share one merged-CDF segment walk; each equals its own 1-D distance
    rng = np.random.default_rng(23)
    A, B = rng.standard_normal((n, 3)), rng.standard_normal((m, 3)) + 0.2
    res = metrics.sliced_wasserstein(A, B, p=p, n_proj=40, seed=4)
    dirs = np.random.default_rng(4).standard_normal((40, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    PA, PB = A @ dirs.T, B @ dirs.T
    per = [metrics.wasserstein_1d(PA[:, i], PB[:, i], p) for i in range(40)]
    assert res.value == pytest.approx(np.mean(per), rel=1e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [50.0, 1e-3])
@pytest.mark.parametrize("m", [200, 150], ids=["equal-counts", "unequal-counts"])
def test_wasserstein_at_a_large_order_matches_the_log_scaled_reference(scale, m):
    # at p = 300, |difference|^p overflows at scale 50 and underflows to 0 at
    # scale 1e-3; at p = 100 the plain sums stay in range, but for some
    # projections at scale 1e-3
    rng = np.random.default_rng(19)
    A = rng.standard_normal((200, 4)) * scale
    B = (rng.standard_normal((m, 4)) + 0.5) * scale
    for p in (100.0, 300.0):
        got = metrics.wasserstein_1d(A[:, 0], B[:, 0], p=p)
        assert got == pytest.approx(wasserstein_in_logs(A[:, 0], B[:, 0], p), rel=1e-12)
        per = sliced_wasserstein_in_logs(A, B, p, 16, 3)
        res = metrics.sliced_wasserstein(A, B, p=p, n_proj=16, seed=3)
        assert res.value == pytest.approx(per.mean(), rel=1e-12)
        assert res.se == pytest.approx(per.std(ddof=1) / 4.0, rel=1e-9)
    # at p = 2 the sums are in range and keep the plain form's bits
    D = np.sort(A[:100, 0]) - np.sort(B[:100, 0])
    assert metrics.wasserstein_1d(A[:100, 0], B[:100, 0]) == float(np.mean(D**2.0) ** 0.5)


def test_wasserstein_1d_shift_invariance_of_mass():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(40)
    np.testing.assert_allclose(metrics.wasserstein_1d(a, a + 2.0, p=1.0), 2.0, rtol=1e-12)


def test_gaussian_shift_oracle_small():
    # SW_2 between N(mu1, I) and N(mu2, I) in d dims: projections give 1-D
    # Gaussians with equal variance, so W_2 per direction ~ |<u, dmu>| plus
    # sampling noise; the analytic mean over the sphere is E|<u, dmu>|.
    rng = np.random.default_rng(5)
    d, n = 8, 4000
    dmu = np.zeros(d)
    dmu[0] = 1.0
    a = rng.standard_normal((n, d))
    b = rng.standard_normal((n, d)) + dmu
    res = metrics.sliced_wasserstein(a, b, n_proj=600, p=2.0, seed=6)
    # E|u_1| for a uniform unit vector in R^d
    expected = math.gamma(d / 2) / (math.sqrt(math.pi) * math.gamma((d + 1) / 2))
    assert abs(res.value - expected) / expected < 0.15
    assert res.se < 0.05 * res.value


def test_result_confidence_interval_field():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((100, 3))
    b = rng.standard_normal((100, 3)) + 1.0
    res = metrics.sliced_wasserstein(a, b, n_proj=50, seed=9)
    lo, hi = res.ci2se
    np.testing.assert_allclose(hi - lo, 4.0 * res.se)
    np.testing.assert_allclose(0.5 * (hi + lo), res.value)
    assert res.n_proj == 50 and res.p == 2.0


def test_validation_errors():
    a = np.zeros((10, 3))
    b = np.zeros((10, 4))
    with pytest.raises(ValueError):
        metrics.sliced_wasserstein(a, b)
    with pytest.raises(ValueError):
        metrics.sliced_wasserstein(np.zeros((0, 3)), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        metrics.sliced_wasserstein(np.zeros((5, 3)), np.zeros((5, 3)), p=0.5)
    with pytest.raises(ValueError):
        metrics.sliced_wasserstein(np.zeros((5, 3)), np.zeros((5, 3)), n_proj=0)
    bad = np.zeros((5, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        metrics.sliced_wasserstein(bad, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        metrics.wasserstein_1d(np.array([]), np.array([1.0]))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    m=st.integers(2, 30),
    p=st.sampled_from([1.0, 2.0]),
)
def test_wasserstein_1d_properties(seed, n, m, p):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = rng.standard_normal(m)
    val = metrics.wasserstein_1d(a, b, p=p)
    assert val >= 0.0
    np.testing.assert_allclose(val, metrics.wasserstein_1d(b, a, p=p), rtol=1e-12)
    assert metrics.wasserstein_1d(a, a, p=p) == 0.0


def test_rel_frobenius_scales_sums_of_squares_that_overflow():
    rng = np.random.default_rng(3)
    err, ref = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    plain = math.sqrt(np.sum(err * err)) / math.sqrt(np.sum(ref * ref))
    assert metrics._rel_frobenius(err, ref) == pytest.approx(plain, rel=1e-15)
    for big in (1e200, 1e306):
        assert metrics._rel_frobenius(big * err, big * ref) == pytest.approx(plain, rel=1e-15)
    assert metrics._rel_frobenius(1e300 * err, np.zeros(3)) is None
    # each sum has its own scale: a tiny reference's squares do not vanish
    # beside an error whose squares overflow, and an overflowing ratio is None
    got = metrics._rel_frobenius(1e276 * err, 1e-2 * ref)
    assert got == pytest.approx(1e278 * plain, rel=1e-14)
    assert metrics._rel_frobenius(1e300 * err, 1e-10 * ref) is None
    assert metrics._rel_frobenius(np.array([np.inf, 1e300]), np.ones(2)) == math.inf


def test_rel_frobenius_scales_sums_of_squares_that_underflow():
    # squares below the smallest normal float are summed again over each argument divided
    # by its largest magnitude, as `_power_mean_root` does
    got = metrics._rel_frobenius(np.array([1e-200]), np.array([3e-160]))
    assert got == pytest.approx(1e-200 / 3e-160, rel=1e-15)
    rng = np.random.default_rng(4)
    err, ref = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    plain = metrics._rel_frobenius(err, ref)
    for small in (1e-160, 1e-200, 1e-300):
        assert metrics._rel_frobenius(small * err, small * ref) == pytest.approx(plain, rel=1e-15)
        assert metrics._rel_frobenius(small * err, ref) == pytest.approx(small * plain, rel=1e-15)
    # a reference whose largest magnitude is subnormal, or 0, has no norm to divide by
    assert metrics._rel_frobenius(err, 1e-320 * np.ones(3)) is None
    assert metrics._rel_frobenius(1e-200 * err, np.zeros(3)) is None
    assert metrics._rel_frobenius(np.zeros(3), ref) == 0.0
