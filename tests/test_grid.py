import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherediff.grid import BandLimit, GridSpec, build_grid, ring_weights_flat


def test_band_limit_dimensions():
    b = BandLimit(4)
    assert b.n_theta == 8
    assert b.n_phi == 7
    assert b.d_spatial == 56
    assert b.d_spectral == 16
    with pytest.raises(ValueError):
        BandLimit(0)


def test_grid_nodes():
    g = build_grid(4)
    L = 4
    np.testing.assert_allclose(g.theta, (2 * np.arange(2 * L) + 1) * np.pi / (4 * L))
    np.testing.assert_allclose(g.phi, 2 * np.pi * np.arange(2 * L - 1) / (2 * L - 1))
    assert g.theta.flags.writeable is False
    assert g.weights.flags.writeable is False


@pytest.mark.parametrize("L", [1, 2, 3, 4, 8, 16])
def test_weights_positive_and_sum_to_sphere_area(L):
    g = build_grid(L)
    assert np.all(g.weights > 0)
    total = g.weights.sum() * (2 * L - 1)  # same weight on every ring point
    np.testing.assert_allclose(total, 4 * np.pi, rtol=1e-13)


@pytest.mark.parametrize("L", [2, 4, 8])
def test_quadrature_exact_on_low_degree_polynomials(L):
    # the weights integrate cos^k(theta) over the sphere exactly for k <= 2L-2
    g = build_grid(L)
    q = ring_weights_flat(g)
    x = np.repeat(np.cos(g.theta), 2 * L - 1)
    for k in range(0, 2 * L - 1):
        exact = 4 * np.pi / (k + 1) if k % 2 == 0 else 0.0
        np.testing.assert_allclose(np.dot(q, x**k), exact, atol=1e-12)


def test_ring_weights_flat_layout():
    g = build_grid(3)
    q = ring_weights_flat(g)
    assert q.shape == (g.band.d_spatial,)
    # theta-major: first n_phi entries all equal the first ring weight
    np.testing.assert_array_equal(q[: g.band.n_phi], np.full(g.band.n_phi, g.weights[0]))


@settings(max_examples=25, deadline=None)
@given(L=st.integers(min_value=1, max_value=32))
def test_weights_property(L):
    g = build_grid(L)
    assert np.all(g.weights > 0)
    assert abs(g.weights.sum() * (2 * L - 1) - 4 * np.pi) < 1e-9
