"""Equiangular sampling grid and exact quadrature weights for band limit L.

The grid has N_theta = 2L colatitude rings at theta_j = (2j+1)pi/(4L) and
N_phi = 2L-1 uniform longitudes phi_k = 2pi k/(2L-1).  The per-ring weights

    q_j = (2pi/(2L-1)) * (2/L) * sin(theta_j) * sum_{l<L} sin((2l+1)theta_j)/(2l+1)

carry the 2pi/(2L-1) longitude prefactor already folded in, so downstream
code never re-multiplies it.  This rule integrates sin(theta) * p(cos(theta))
exactly for every polynomial p of degree <= 2L-2, which is what makes the
discrete analysis/synthesis pair exact on band-limited signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Immutable node/weight set for one band limit."""

    L: int
    theta: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.theta, self.phi, self.weights):
            arr.setflags(write=False)


def build_grid(L: int) -> GridSpec:
    """Construct nodes and quadrature weights for band limit L.

    Angles come straight from the closed forms in double precision; the
    weight sum over degrees is evaluated per ring without cumulative tricks.
    Raises ValueError unless L is a positive integer (L < 1 is an empty harmonic space).
    """
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError(f"band limit must be a positive integer, got {L!r}")
    theta = (2 * np.arange(2 * L) + 1) * np.pi / (4 * L)
    phi = 2 * np.pi * np.arange(2 * L - 1) / (2 * L - 1)

    ells = np.arange(L)
    # sum_{l<L} sin((2l+1) theta_j) / (2l+1), shape (n_theta,)
    ring_sum = np.sin(np.outer(theta, 2 * ells + 1)) @ (1.0 / (2 * ells + 1))
    weights = (2 * np.pi / (2 * L - 1)) * (2.0 / L) * np.sin(theta) * ring_sum
    return GridSpec(L=L, theta=theta, phi=phi, weights=weights)


def ring_weights_flat(grid: GridSpec) -> np.ndarray:
    """Diagonal of Q = Q_theta (x) I_{N_phi} as a length-d_X vector.

    Spatial layout is theta-major: flat index = j * N_phi + k.
    """
    return np.repeat(grid.weights, len(grid.phi))

