import numpy as np
import pytest

from conftest import BAND_LIMITS, random_symmetric_coeffs
from spherediff import transform
from spherediff.transform import ConstraintViolation


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_analysis_right_inverse_of_synthesis(L, ops_cache):
    ops = ops_cache[L]
    assert np.linalg.norm(ops.U @ ops.Y - np.eye(L * L)) < 1e-12


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_projector_idempotent(L, ops_cache):
    P = ops_cache[L].projector()
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
    assert transform.is_mirror_symmetric(a, 4)


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


def test_field_csv_round_trip():
    L = 3
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2 * L * (2 * L - 1))
    text = transform.field_to_csv(x, L)
    assert text.splitlines()[0] == "j,k,value"
    np.testing.assert_array_equal(transform.field_from_csv(text, L), x)


def test_field_csv_rejects_bad_header_and_gaps():
    with pytest.raises(ValueError):
        transform.field_from_csv("a,b,c\n0,0,1.0\n", 1)
    with pytest.raises(ValueError):
        transform.field_from_csv("j,k,value\n0,0,1.0\n", 1)  # missing points


def test_field_csv_rejects_out_of_range_and_duplicate_cells():
    L = 2  # 4 x 3 grid
    full = transform.field_to_csv(np.arange(12.0), L)
    lines = full.strip().splitlines()
    # k = 5 >= 2L-1 would land in the next ring; j = 4 >= 2L; negative indices wrap
    for bad in ("0,5,9.0", "4,0,9.0", "0,-1,9.0", "-1,0,9.0"):
        with pytest.raises(ValueError):
            transform.field_from_csv("\n".join(lines + [bad]) + "\n", L)
        with pytest.raises(ValueError):  # also when the cell it aliases is left out
            transform.field_from_csv("\n".join(lines[:-1] + [bad]) + "\n", L)
    with pytest.raises(ValueError):
        transform.field_from_csv("\n".join(lines + ["1,2,9.0"]) + "\n", L)


def test_field_raw_round_trip():
    x = np.random.default_rng(6).standard_normal(2 * 2 * 3)
    np.testing.assert_array_equal(transform.field_from_raw(transform.field_to_raw(x), 2), x)


def test_coeffs_csv_round_trip_and_order_independence():
    L = 3
    a = random_symmetric_coeffs(L, np.random.default_rng(8))
    text = transform.coeffs_to_csv(a, L)
    assert text.splitlines()[0] == "ell,m,re,im"
    np.testing.assert_array_equal(transform.coeffs_from_csv(text), a)
    # rows may arrive in any order; (ell, m) keys define the layout
    lines = text.strip().splitlines()
    shuffled = "\n".join([lines[0]] + lines[:0:-1]) + "\n"
    np.testing.assert_array_equal(transform.coeffs_from_csv(shuffled), a)


def test_coeffs_csv_rejects_partial_files():
    with pytest.raises(ValueError):
        transform.coeffs_from_csv("ell,m,re,im\n0,0,1.0,0.0\n1,0,0.5,0.0\n")


def test_coeffs_csv_rejects_duplicate_rows():
    text = transform.coeffs_to_csv(random_symmetric_coeffs(2, np.random.default_rng(3)), 2)
    with pytest.raises(ValueError):
        transform.coeffs_from_csv(text + "1,1,9.0,9.0\n")


def test_matrix_csv_complex_interleaving():
    mat = np.array([[1 + 2j, 3 - 1j]])
    text = transform.matrix_to_csv(mat, col_labels=["a", "b"])
    lines = text.splitlines()
    assert lines[0] == "a:re,a:im,b:re,b:im"
    assert [float(v) for v in lines[1].split(",")] == [1.0, 2.0, 3.0, -1.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_synthesis_rejects_non_finite_coefficients(ops_cache, bad):
    with pytest.raises(ValueError, match="non-finite"):
        transform.synthesis(ops_cache[2], np.full(4, bad, dtype=complex))
    a = np.zeros((3, 4), dtype=complex)
    a[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        transform.synthesis(ops_cache[2], a)
