import numpy as np
import pytest
from scipy.special import lpmv, sph_harm_y

from dense_reference import legendre, norm_constant, norm_legendre, sh_eval
from spherediff.grid import build_grid, ring_weights_flat
from spherediff.harmonics import norm_legendre_table


def test_raw_legendre_matches_scipy():
    x = np.linspace(-1, 1, 41)
    for ell in range(6):
        for m in range(ell + 1):
            np.testing.assert_allclose(
                legendre(ell, m, x), lpmv(m, ell, x), rtol=1e-12, atol=1e-12
            )


def test_norm_constant_low_orders():
    # N_{0,0} = 1/sqrt(4 pi); N_{1,1} = sqrt(3/(8 pi))
    np.testing.assert_allclose(norm_constant(0, 0), 1 / np.sqrt(4 * np.pi))
    np.testing.assert_allclose(norm_constant(1, 1), np.sqrt(3 / (8 * np.pi)))


@pytest.mark.parametrize("L", [2, 4, 8, 16])
def test_norm_table_matches_scipy_harmonics(L):
    theta = build_grid(L).theta
    table = norm_legendre_table(L, np.cos(theta))
    for ell in range(L):
        for m in range(ell + 1):
            ref = sph_harm_y(ell, m, theta, 0.0).real  # phi = 0 isolates the latitude part
            np.testing.assert_allclose(table[ell, m], ref, rtol=0, atol=1e-12)


def test_norm_table_agrees_with_single_eval():
    for L, x in ((5, np.cos(np.linspace(0.1, 3.0, 7))), (32, np.cos(build_grid(32).theta))):
        table = norm_legendre_table(L, x)
        for ell in range(L):
            for m in range(ell + 1):
                np.testing.assert_array_equal(norm_legendre(ell, m, x), table[ell, m])


def test_stable_at_high_degree():
    # log-space seeding keeps the sectoral terms finite far beyond where
    # naive factorial prefactors overflow
    theta = build_grid(64).theta
    table = norm_legendre_table(64, np.cos(theta))
    assert np.all(np.isfinite(table))
    ref = sph_harm_y(63, 63, theta, 0.0).real
    np.testing.assert_allclose(table[63, 63], ref, atol=1e-14)


def test_pole_values():
    # at theta = 0 only m = 0 survives, with value sqrt((2l+1)/4pi)
    table = norm_legendre_table(4, np.array([1.0]))
    for ell in range(4):
        np.testing.assert_allclose(
            table[ell, 0, 0], np.sqrt((2 * ell + 1) / (4 * np.pi)), rtol=1e-14
        )
        for m in range(1, ell + 1):
            assert table[ell, m, 0] == 0.0


def test_sh_eval_matches_scipy_and_mirror_symmetry():
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.05, np.pi - 0.05, 9)
    phi = rng.uniform(0, 2 * np.pi, 9)
    for ell in range(4):
        for m in range(-ell, ell + 1):
            ours = sh_eval(ell, m, theta, phi)
            ref = sph_harm_y(ell, m, theta, phi)
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)
    # conjugate symmetry is exact by construction
    for ell in range(1, 4):
        for m in range(1, ell + 1):
            plus = sh_eval(ell, m, theta, phi)
            minus = sh_eval(ell, -m, theta, phi)
            sign = -1.0 if m % 2 else 1.0
            assert np.array_equal(minus, sign * np.conj(plus))


def test_grid_orthonormality():
    # <Y_{lm}, Y_{l'm'}>_Q = delta on the quadrature grid
    L = 4
    g = build_grid(L)
    q = ring_weights_flat(g)
    th = np.repeat(g.theta, len(g.phi))
    ph = np.tile(g.phi, len(g.theta))
    basis = {
        (ell, m): sh_eval(ell, m, th, ph) for ell in range(L) for m in range(-ell, ell + 1)
    }
    for (l1, m1), y1 in basis.items():
        for (l2, m2), y2 in basis.items():
            inner = np.sum(q * np.conj(y1) * y2)
            expected = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert abs(inner - expected) < 1e-12


def test_argument_validation():
    with pytest.raises(ValueError):
        legendre(2, 3, np.array([0.0]))
    with pytest.raises(ValueError):
        norm_legendre_table(0, np.array([0.0]))
    with pytest.raises(ValueError, match="out of domain"):
        norm_legendre_table(3, 1.5)
