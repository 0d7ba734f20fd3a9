"""Real chart on conjugate-symmetric coefficient vectors.

A real field's coefficients satisfy a_{ell,-m} = (-1)^m conj(a_{ell,m}), so
they carry exactly L^2 real degrees of freedom.  The chart stacks, per ell:

    z[ell^2]          = Re(a_{ell,0})
    z[ell^2 + 2m - 1] = Re(a_{ell,m})   m = 1..ell
    z[ell^2 + 2m]     = Im(a_{ell,m})

`to_chart` reads only the m >= 0 slots (after validating symmetry), so
`to_chart(from_chart(z)) == z` bit-exactly.  Both act on the last axis as
index gathers, so (n, L^2) batches convert in one call.  `chart_linear_map` and
`synthesis_matrix` give the real matrices T and M with

    T x = to_chart(U x),    M z = Y from_chart(z)   (real),    T M = I.
"""

from __future__ import annotations

import numpy as np

from . import indexing
from .transform import ConstraintViolation, OperatorSet, mirror_residual


def to_chart(a: np.ndarray, L: int, *, tol: float = 1e-8) -> np.ndarray:
    """Real chart vectors of conjugate-symmetric coefficients, shape (..., L^2)."""
    a = np.asarray(a, dtype=complex)
    if a.shape[-1] != L * L:
        raise ValueError(f"expected {L * L} coefficients, got {a.shape[-1]}")
    if not np.all(np.isfinite(a)):  # a NaN residual would pass `resid > tol`
        raise ValueError("coefficients contain non-finite entries")
    resid = mirror_residual(a, L)
    if resid > tol:
        raise ConstraintViolation(
            f"coefficients break conjugate symmetry by {resid:.3e} (tol {tol:.1e})"
        )
    perm, _ = indexing.mirror_permutation(L)
    # Im(a_{ell,m}) sits in the chart slot that the spectral order gives (ell,-m)
    return np.where(indexing.spectral_ms(L) < 0, a[..., perm].imag, a.real)


def from_chart(z: np.ndarray, L: int) -> np.ndarray:
    """Coefficient vectors of chart points, shape (..., L^2); symmetric by construction."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != L * L:
        raise ValueError(f"expected {L * L} chart entries, got {z.shape[-1]}")
    perm, sign = indexing.mirror_permutation(L)
    m = indexing.spectral_ms(L)
    zp = z[..., perm]
    a = np.empty(z.shape, dtype=complex)
    # slot (ell,m>=0) holds Re z[i] + i z[perm i]; slot (ell,-m) its mirror (-1)^m conj
    a.real = np.where(m < 0, sign * zp, z)
    a.imag = np.where(m < 0, -sign * z, np.where(m > 0, zp, 0.0))
    return a


def chart_linear_map(ops: OperatorSet) -> np.ndarray:
    """Real matrix T (L^2 x d_X) with T x = to_chart(analysis(x)).

    U = Y^H Q, so T = W^{-1} M^T Q with W = diag(chart_weights): scaling by
    1 or 2 is exact, so T has the bits of the real and imaginary rows of U.
    """
    T = np.ascontiguousarray(synthesis_matrix(ops).T)
    T *= ops.q
    T /= chart_weights(ops.L)[:, None]
    return T


def synthesis_matrix(ops: OperatorSet) -> np.ndarray:
    """Real matrix M (d_X x L^2) with M z = synthesis(from_chart(z)).

    Column (ell, m) is w Pbar_{ell,m}(cos theta_j) times cos(m phi_k) in a Re
    slot and -sin(m phi_k) in an Im slot, read from the per-order Legendre
    table, with w = chart_weights (the -m coefficient adds the same column
    for m > 0).  The phases are computed as in `OperatorSet.Y`, so M has the
    bits of the dense real form 2 Re/-2 Im of Y's columns.
    """
    L = ops.L
    m, im = indexing.chart_ms(L), indexing.chart_is_im(L)
    phase = np.exp(1j * np.outer(np.arange(L), ops.grid.phi))  # (L, n_phi), row m
    trig = np.where(im[:, None], -phase.imag[m], phase.real[m])  # (L^2, n_phi)
    leg = ops.legendre[m, :, indexing.spectral_ells(L)] * chart_weights(L)[:, None]
    return np.multiply(leg.T[:, None, :], trig.T, order="C").reshape(ops.d_spatial, L * L)


def chart_weights(L: int) -> np.ndarray:
    """Multiplicity weights: 1 on m=0 slots, 2 elsewhere.

    For symmetric coefficients a = from_chart(z), the complex squared norm
    sum_{ell,m} |a_{ell,m}|^2 equals sum_i w_i z_i^2 with these weights.
    """
    return np.where(indexing.chart_ms(L) == 0, 1.0, 2.0)
