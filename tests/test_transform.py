import dataclasses

import numpy as np
import pytest

import dense_reference
from sphere_helpers import BAND_LIMITS, random_symmetric_coeffs
from spherediff import chart, transform
from spherediff.transform import ConstraintViolation


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_analysis_right_inverse_of_synthesis(L, ops_cache):
    ops = ops_cache[L]
    assert np.linalg.norm(ops.U @ ops.Y - np.eye(L * L)) < 1e-12


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_projector_idempotent(L, ops_cache):
    P = dense_reference.projector(ops_cache[L])
    assert np.linalg.norm(P @ P - P) < 1e-12


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_isometry_on_bandlimited(L, ops_cache):
    ops = ops_cache[L]
    rng = np.random.default_rng(L)
    for _ in range(20):
        a1 = random_symmetric_coeffs(L, rng)
        a2 = random_symmetric_coeffs(L, rng)
        x1 = transform.synthesis(ops, a1)
        x2 = transform.synthesis(ops, a2)
        lhs = transform.q_inner(ops, x1, x2)
        rhs = np.vdot(transform.analysis(ops, x1), transform.analysis(ops, x2)).real
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_round_trip(L, ops_cache):
    ops = ops_cache[L]
    rng = np.random.default_rng(2 * L + 1)
    a = random_symmetric_coeffs(L, rng)
    back = transform.analysis(ops, transform.synthesis(ops, a))
    assert np.max(np.abs(back - a)) < 1e-12


def test_analysis_output_exactly_mirror_symmetric(ops_cache):
    ops = ops_cache[4]
    x = np.random.default_rng(3).standard_normal(ops.d_spatial)
    a = transform.analysis(ops, x)
    assert transform.mirror_residual(a, 4) == 0.0


def test_synthesis_rejects_asymmetric_coefficients(ops_cache):
    ops = ops_cache[2]
    a = np.zeros(4, dtype=complex)
    a[1] = 1.0 + 1.0j  # (1, 0) slot gains an imaginary part -> complex field
    with pytest.raises(ConstraintViolation):
        transform.synthesis(ops, a)


def test_projection_fixes_bandlimited_vectors(ops_cache):
    ops = ops_cache[4]
    rng = np.random.default_rng(7)
    x = transform.synthesis(ops, random_symmetric_coeffs(4, rng))
    np.testing.assert_allclose(transform.project_bandlimited(ops, x), x, atol=1e-12)
    y = rng.standard_normal(ops.d_spatial)
    py = transform.project_bandlimited(ops, y)
    np.testing.assert_allclose(transform.project_bandlimited(ops, py), py, atol=1e-12)


def test_q_inner_is_positive_on_nonzero(ops_cache):
    ops = ops_cache[2]
    rng = np.random.default_rng(11)
    x = rng.standard_normal(ops.d_spatial)
    assert transform.q_norm_sq(ops, x) > 0


def test_dimension_checks(ops_cache):
    ops = ops_cache[2]
    with pytest.raises(ValueError):
        transform.analysis(ops, np.zeros(5))
    with pytest.raises(ValueError):
        transform.synthesis(ops, np.zeros(5, dtype=complex))
    with pytest.raises(ValueError):
        transform.q_inner(ops, np.zeros(ops.d_spatial), np.zeros(3))
    with pytest.raises(ValueError):
        transform.analysis(ops, np.full(ops.d_spatial, np.nan))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_synthesis_rejects_non_finite_coefficients(ops_cache, bad):
    with pytest.raises(ValueError, match="non-finite"):
        transform.synthesis(ops_cache[2], np.full(4, bad, dtype=complex))
    a = np.zeros((3, 4), dtype=complex)
    a[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        transform.synthesis(ops_cache[2], a)


# six rows at each L; 777 rows at L = 20 and 200 at L = 32 (verify-operators'
# batch) run the stacked products on other BLAS kernels than six rows
@pytest.mark.parametrize("L,n", [pytest.param(L, 6, id=str(L)) for L in (1, 2, 4, 12, 32)]
                         + [(20, 777), (32, 200)])
def test_per_order_transforms_match_the_dense_matrices(L, n):
    ops = transform.build_operators(L)
    rng = np.random.default_rng(40 + L)
    x = rng.standard_normal((n, ops.d_spatial))
    a = np.stack([random_symmetric_coeffs(L, rng) for _ in range(n)])
    dense_a, dense_x = x @ ops.U.T, a @ ops.Y.T
    assert np.max(np.abs(dense_x.imag)) < 1e-12
    for got, want in ((transform.analysis(ops, x), dense_a),
                      (transform.analysis(ops, x[2]), dense_a[2]),
                      (transform.synthesis(ops, a), dense_x.real),
                      (transform.synthesis(ops, a[2]), dense_x[2].real)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12
    assert transform.mirror_residual(transform.analysis(ops, x), L) == 0.0
    assert transform.analysis(ops, x[:0]).shape == (0, L * L)
    assert transform.synthesis(ops, a[:0]).shape == (0, ops.d_spatial)


def test_dense_operators_are_built_on_first_access_only():
    ops = transform.build_operators(3)
    assert "Y" not in vars(ops) and "U" not in vars(ops)
    transform.synthesis(ops, transform.analysis(ops, np.ones(ops.d_spatial)))
    assert "Y" not in vars(ops) and "U" not in vars(ops)
    assert ops.U is ops.U and not ops.Y.flags.writeable


# 200 rows at L = 32 is verify-operators' batch; 777 rows at L = 20 and 200 at
# L = 36 are batches where products of blocks of rows would run on other BLAS
# kernels than the whole batch and move bits; 20 rows at L = 64 are 2.5 * 2^17
# spatial values
@pytest.mark.parametrize("L,n", [(1, 3), (2, 1), (5, 40), (13, 200), (20, 777), (32, 200),
                                 (32, 20), (36, 200), (64, 20)])
def test_per_order_transforms_keep_the_bits_of_one_stacked_product(L, n):
    # the loop over orders in dense_reference is the reference of the stacked products
    ops = transform.build_operators(L)
    a = chart.from_chart(np.random.default_rng(L).standard_normal((n, L * L)), L)
    x = dense_reference.per_order_synthesis(ops, a)
    y = dense_reference.per_order_analysis(ops, x)
    got = transform.synthesis(ops, a)
    assert got.tobytes() == x.tobytes() and got.strides == x.strides
    assert transform.analysis(ops, x).tobytes() == y.tobytes()
    x1 = dense_reference.per_order_synthesis(ops, a[:1])  # one vector
    y1 = dense_reference.per_order_analysis(ops, x1)
    assert transform.synthesis(ops, a[0]).tobytes() == x1.tobytes()
    assert transform.analysis(ops, x1[0]).tobytes() == y1.tobytes()


def test_each_transform_call_takes_one_fft_over_its_batch(monkeypatch):
    ops = transform.build_operators(64)
    a = chart.from_chart(np.random.default_rng(0).standard_normal((20, 64 * 64)), 64)
    seen = []

    def spy(fft):
        def call(x, *args, **kwargs):
            seen.append((fft.__name__, x.shape))
            return fft(x, *args, **kwargs)
        return call

    for name in ("rfft", "ifft"):
        monkeypatch.setattr(np.fft, name, spy(getattr(np.fft, name)))
    x = transform.synthesis(ops, a)
    assert seen == [("ifft", (20, 128, 127))]
    transform.analysis(ops, x)
    assert seen[1:] == [("rfft", (20, 128, 127))]


def test_each_transform_call_makes_one_stacked_legendre_product():
    seen = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            seen.append(ufunc.__name__)
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    plain = transform.build_operators(64)
    ops = dataclasses.replace(plain, legendre=plain.legendre.view(Counting))
    a = chart.from_chart(np.random.default_rng(0).standard_normal((20, 64 * 64)), 64)
    x = transform.synthesis(ops, a)
    assert seen == ["matmul"]
    assert transform.analysis(ops, x).tobytes() == transform.analysis(plain, x).tobytes()
    assert seen == ["matmul", "matmul"]
