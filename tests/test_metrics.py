import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
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


def test_rel_frobenius_from_parts_keeps_the_bits_of_both_arrays_at_once():
    # every branch: sums in range, an err or a ref whose squares overflow or
    # underflow (alone or both), subnormal, zero and non-finite arguments
    rng = np.random.default_rng(5)
    e, r = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    e[0, 0] = -0.0
    cases = [(e, r), (1e200 * e, 1e200 * r), (1e276 * e, 1e-2 * r), (e, 1e200 * r),
             (e, 1e-170 * r), (1e-170 * e, r), (1e-300 * e, 1e-300 * r), (1e300 * e, 1e-10 * r),
             (np.array([5e-324]), np.ones(1)), (np.array([3e-320, -4e-320]), np.array([1.0, 0.0])),
             (e, np.zeros(3)), (e, 1e-320 * np.ones(3)), (np.zeros(3), r), (-0.0 * e, r),
             (np.array([np.inf, 1e300]), np.ones(2)), (np.array([np.nan, 1.0]), np.ones(2)),
             (e, np.array([np.inf, 1.0]))]
    for err, ref in cases:
        want = dense.rel_frobenius(err, ref)
        got = metrics._rel_frobenius(err, ref)
        assert got is None if want is None else repr(got) == repr(want), (err, ref)
    # each array alone: the sum of squares of x 2^-h, max |x 2^-h| in [1/2, 1)
    for x in (e, 1e200 * e, 1e-170 * e, 1e-300 * e, np.array([5e-324]),
              np.array([3e-320, -4e-320])):
        t, h = metrics._sumsq(x)
        w = np.ldexp(np.ravel(x), -h)
        assert 0.5 <= np.max(np.abs(w)) < 1 and t == np.einsum("i,i->", w, w), x
    assert metrics._sumsq(np.array([-0.0, 0.0])) == (0.0, 0)
    assert metrics._sumsq(-0.0 * e) == (0.0, 0)


@pytest.mark.parametrize("k", [520, -520, 700, -700, 900, -900, 1000, -1000, 0])
def test_rel_frobenius_is_exactly_equivariant_under_powers_of_two(k):
    # scaling either argument by a power of 2 is exact, and so is the ratio's
    # response to it, wherever the scaled ratio is a normal float
    rng = np.random.default_rng(5)
    e, r = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    base = metrics._rel_frobenius(e, r)
    for j in (520, -520, 700, -700, 900, -900, 1000, -1000, 0):
        with np.errstate(over="ignore"):
            want = np.ldexp(base, k - j)
        if np.finfo(float).tiny <= want < np.inf:
            assert metrics._rel_frobenius(np.ldexp(e, k), np.ldexp(r, j)) == want, j


def test_rel_frobenius_scales_an_error_whose_largest_magnitude_is_subnormal():
    # its squares are 0, so it is summed again over err / max|err|, as a normal one is
    assert metrics._rel_frobenius(np.array([5e-324]), np.ones(1)) == 5e-324
    got = metrics._rel_frobenius(np.array([3e-320, -4e-320]), np.array([1.0, 0.0]))
    assert got == pytest.approx(5e-320, rel=1e-3)  # subnormals carry few digits
    assert metrics._rel_frobenius(np.array([5e-324]), np.array([5e-324])) is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [200, 150], ids=["equal-counts", "unequal-counts"])
def test_wasserstein_above_order_1075_matches_the_log_scaled_reference(m):
    # there (1/2)^p underflows: each row is divided by its largest |difference|,
    # which must then be exactly 1 for the sum to keep a nonzero term
    rng = np.random.default_rng(29)
    A, B = rng.standard_normal((200, 4)), rng.standard_normal((m, 4)) + 0.5
    got = {p: (metrics.wasserstein_1d(A[:, 0], B[:, 0], p=p),
               metrics.sliced_wasserstein(A, B, p=p, n_proj=16, seed=3).value)
           for p in (2000.0, 1e15, 1e308)}
    for p in (2000.0, 1e15):
        assert got[p][0] == pytest.approx(wasserstein_in_logs(A[:, 0], B[:, 0], p), rel=1e-12)
        assert got[p][1] == pytest.approx(sliced_wasserstein_in_logs(A, B, p, 16, 3).mean(),
                                          rel=1e-12)
    assert all(map(math.isfinite, got[1e308]))
    assert got[1e308] == pytest.approx(got[1e15], rel=1e-12)


# Measured peaks (1000 rows of 16 coordinates, 500 projections, blocks of 65
# directions): 1.6 MB at equal counts and 2.6 MB at 1000 against 700; with all
# 500 projections at once they were 12.1 and 15.5 MB.  The bounds were set at
# 1.5 times 1.6 MB and 3.8 MB, when the unequal-count breakpoints came from
# np.union1d, whose first call imports numpy.ma (1.2 MB), which the merge of
# the breakpoints no longer does.
@pytest.mark.parametrize("m,bound", [(1000, 2.4e6), (700, 5.7e6)])
def test_sliced_wasserstein_runs_within_a_memory_bound(m, bound):
    rng = np.random.default_rng(8)
    A, B = rng.standard_normal((1000, 16)), rng.standard_normal((m, 16))
    tracemalloc.start()
    try:
        metrics.sliced_wasserstein(A, B, n_proj=500, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def test_unequal_counts_do_not_import_numpy_ma():
    # np.union1d would import numpy.ma (about 11 ms and 1.2 MB) on its first call
    code = ("import sys, numpy as np; from spherediff import metrics; "
            "rng = np.random.default_rng(0); "
            "metrics.sliced_wasserstein(rng.standard_normal((30, 3)), "
            "rng.standard_normal((20, 3)), n_proj=5, seed=1); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ)
    pkg_root = str(Path(metrics.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("n,m", [(2, 3), (1, 5), (6, 4), (700, 1000), (999, 333), (7, 91)])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_unequal_count_distance_keeps_the_union1d_breakpoints(n, m, p):
    rng = np.random.default_rng(n * m)
    a, b = np.sort(rng.standard_normal((2, n))), np.sort(rng.standard_normal((2, m)))
    edges = np.concatenate([[0.0], np.union1d(np.arange(1, n) / n, np.arange(1, m) / m), [1.0]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    ia = np.minimum((mids * n).astype(np.intp), n - 1)
    ib = np.minimum((mids * m).astype(np.intp), m - 1)
    want = metrics._power_mean_root(lambda: a[:, ia] - b[:, ib], p, np.diff(edges))
    assert metrics._sorted_wasserstein(a, b, p).tobytes() == want.tobytes()
