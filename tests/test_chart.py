import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
from dense_reference import spectral_index
from sphere_helpers import BAND_LIMITS, random_symmetric_coeffs
from spherediff import chart, transform
from spherediff.transform import ConstraintViolation


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_to_chart_after_from_chart_is_bitwise_identity(L, seed):
    z = np.random.default_rng(seed).standard_normal(L * L)
    assert np.array_equal(chart.to_chart(chart.from_chart(z, L), L), z)


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_from_chart_after_to_chart_on_constrained_vectors(L):
    rng = np.random.default_rng(L + 100)
    for _ in range(50):
        a = random_symmetric_coeffs(L, rng)
        back = chart.from_chart(chart.to_chart(a, L), L)
        assert np.max(np.abs(back - a)) < 1e-12


def test_from_chart_output_exactly_symmetric():
    z = np.random.default_rng(0).standard_normal(16)
    assert transform.mirror_residual(chart.from_chart(z, 4), 4) == 0.0


def test_to_chart_rejects_asymmetric_input():
    a = np.zeros(4, dtype=complex)
    a[1] = 1.0  # (1,0) fine
    a[2] = 1.0  # (1,1) with no mirrored (1,-1) partner
    with pytest.raises(ConstraintViolation):
        chart.to_chart(a, 2)


def test_chart_layout_slots():
    # z = [Re a00 | Re a10, Re a11, Im a11, ...] per the ell^2-offset layout
    a = chart.from_chart(np.arange(1.0, 10.0), 3)
    assert a[0] == 1.0  # (0,0)
    assert a[1] == 2.0  # (1,0)
    assert a[2] == complex(3.0, 4.0)  # (1,1)
    assert a[3] == -complex(3.0, -4.0)  # (1,-1) = -conj((1,1))


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_linear_maps_agree_with_function_forms(L, ops_cache):
    ops = ops_cache[L]
    T = chart.chart_linear_map(ops)
    M = chart.synthesis_matrix(ops)
    rng = np.random.default_rng(L)
    x = rng.standard_normal(ops.d_spatial)
    np.testing.assert_allclose(
        T @ x, chart.to_chart(transform.analysis(ops, x), L), atol=1e-12
    )
    z = rng.standard_normal(L * L)
    np.testing.assert_allclose(
        M @ z, transform.synthesis(ops, chart.from_chart(z, L)), atol=1e-12
    )
    assert np.max(np.abs(T @ M - np.eye(L * L))) < 1e-12


def test_chart_weights_norm_identity():
    L = 5
    rng = np.random.default_rng(9)
    z = rng.standard_normal(L * L)
    a = chart.from_chart(z, L)
    w = chart.chart_weights(L)
    np.testing.assert_allclose(np.sum(w * z * z), np.vdot(a, a).real, rtol=1e-14)


def test_dimension_validation():
    with pytest.raises(ValueError):
        chart.from_chart(np.zeros(5), 2)
    with pytest.raises(ValueError):
        chart.to_chart(np.zeros(5, dtype=complex), 2)


def _to_chart_loop(a, L):
    """Per-(ell, m) reference for one coefficient vector."""
    z = np.empty(L * L)
    for ell in range(L):
        z[ell * ell] = a[spectral_index(ell, 0)].real
        for m in range(1, ell + 1):
            c = a[spectral_index(ell, m)]
            z[ell * ell + 2 * m - 1] = c.real
            z[ell * ell + 2 * m] = c.imag
    return z


def _from_chart_loop(z, L):
    """Per-(ell, m) reference for one chart vector."""
    a = np.empty(L * L, dtype=complex)
    for ell in range(L):
        a[spectral_index(ell, 0)] = z[ell * ell]
        for m in range(1, ell + 1):
            c = complex(z[ell * ell + 2 * m - 1], z[ell * ell + 2 * m])
            a[spectral_index(ell, m)] = c
            a[spectral_index(ell, -m)] = (-1.0 if m % 2 else 1.0) * np.conj(c)
    return a


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_real_projector_is_the_complex_projector(L, ops_cache):
    ops = ops_cache[L]
    P = dense_reference.projector(ops)
    MT = chart.synthesis_matrix(ops) @ chart.chart_linear_map(ops)
    assert np.max(np.abs(MT - P)) <= 1e-14
    assert np.max(np.abs(P.imag)) <= 1e-14


@pytest.mark.parametrize("L", BAND_LIMITS + (32,))
def test_batched_chart_maps_equal_row_by_row(L):
    Z = np.random.default_rng(L + 7).standard_normal((6, L * L))
    A = chart.from_chart(Z, L)
    assert A.shape == Z.shape
    assert np.array_equal(A, np.stack([chart.from_chart(z, L) for z in Z]))
    assert np.array_equal(A, np.stack([_from_chart_loop(z, L) for z in Z]))
    back = chart.to_chart(A, L)
    assert np.array_equal(back, np.stack([chart.to_chart(a, L) for a in A]))
    assert np.array_equal(back, np.stack([_to_chart_loop(a, L) for a in A]))
    assert np.array_equal(back, Z)


def _chart_matrices_loop(ops):
    """Per-(ell, m) reference T and M from the rows of the dense U and the
    columns of the dense Y."""
    L = ops.L
    T, M = np.empty((L * L, ops.d_spatial)), np.empty((ops.d_spatial, L * L))
    for ell in range(L):
        T[ell * ell] = ops.U[spectral_index(ell, 0)].real
        M[:, ell * ell] = ops.Y[:, spectral_index(ell, 0)].real
        for m in range(1, ell + 1):
            row, col = ops.U[spectral_index(ell, m)], ops.Y[:, spectral_index(ell, m)]
            T[ell * ell + 2 * m - 1], T[ell * ell + 2 * m] = row.real, row.imag
            M[:, ell * ell + 2 * m - 1], M[:, ell * ell + 2 * m] = 2.0 * col.real, -2.0 * col.imag
    return T, M


@pytest.mark.parametrize("L", BAND_LIMITS + (12, 32))
def test_chart_matrices_from_the_legendre_table_equal_the_dense_loop(L):
    ops = transform.build_operators(L)
    T, M = chart.chart_linear_map(ops), chart.synthesis_matrix(ops)
    T_ref, M_ref = _chart_matrices_loop(ops)
    assert np.array_equal(T, T_ref) and np.array_equal(M, M_ref)
    assert M.flags.c_contiguous and T.flags.c_contiguous  # the layout the products saw


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_batched_transforms_match_row_by_row(L, ops_cache):
    ops = ops_cache[L]
    rng = np.random.default_rng(L + 11)
    X = rng.standard_normal((5, ops.d_spatial))
    A = transform.analysis(ops, X)
    assert A.shape == (5, L * L)
    assert np.max(np.abs(A - np.stack([transform.analysis(ops, x) for x in X]))) <= 1e-13
    S = chart.from_chart(rng.standard_normal((5, L * L)), L)
    Xs = transform.synthesis(ops, S)
    assert Xs.shape == (5, ops.d_spatial)
    assert np.max(np.abs(Xs - np.stack([transform.synthesis(ops, a) for a in S]))) <= 1e-13


def test_batches_with_one_bad_row_are_rejected(ops_cache):
    L = 4
    ops = ops_cache[L]
    A = chart.from_chart(np.random.default_rng(12).standard_normal((5, L * L)), L)
    A[3, 2] += 1.0  # (1,1) loses its mirrored (1,-1) partner in row 3 only
    with pytest.raises(ConstraintViolation):
        chart.to_chart(A, L)
    with pytest.raises(ConstraintViolation):
        transform.synthesis(ops, A)
    X = np.random.default_rng(13).standard_normal((5, ops.d_spatial))
    X[1, 7] = np.inf
    with pytest.raises(ValueError):
        transform.analysis(ops, X)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0.0, np.nan)])
def test_to_chart_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="non-finite"):
        chart.to_chart(np.full(4, bad, dtype=complex), 2)
    with pytest.raises(ValueError, match="non-finite"):
        chart.to_chart(np.full(4, bad, dtype=complex), 2, tol=np.inf)
