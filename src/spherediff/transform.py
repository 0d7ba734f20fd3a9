"""Spherical analysis/synthesis on the equiangular grid: one FFT, one Legendre product.

The grid has 2L colatitude rings of N_phi = 2L-1 longitudes, so the orders
m = -(L-1) ... L-1 are exactly the N_phi bins of a DFT along a ring and do
not alias.  `analysis` (a = U x) takes a real FFT of every ring, contracts
bin m >= 0 with the ring weights q_j and the Legendre block
Pbar_{ell,m}(cos theta_j), and fills the -m slots by a real field's mirror
rule a_{ell,-m} = (-1)^m conj(a_{ell,m}), so its output is
conjugate-symmetric to the last bit.  `synthesis` (x = Y a) checks that rule
as `chart.to_chart` does, contracts each order's (ell, m >= 0) coefficients
with the same block into bin m, fills bin N_phi - m with its conjugate and
takes a complex inverse FFT.  Spatial vectors are real, theta-major (index
j*N_phi + k); spectral vectors are complex in the canonical ordering of
`indexing`.

Each transform takes one FFT over the batch it is given and one stacked
product of every order's Legendre block with the whole batch (analysis
(L, 2n, 2L) @ (L, 2L, L), synthesis (L, 2n, L) @ (L, L, 2L)), gathering or
scattering the (ell, m >= 0) pairs of `indexing.order_slots`.  So synthesis
holds the padded coefficient stack, its products and its complex output, and
analysis the batch's weighted FFT bins, their products and its output; a
caller whose batch grows with an input passes it in blocks of rows.

The dense Y (harmonics on the grid, d_X x L^2) and U = Y^H Q are built only
on first access: the tests use them, no command does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import indexing
from .grid import GridSpec, build_grid, ring_weights_flat
from .harmonics import norm_legendre_table


class ConstraintViolation(ValueError):
    """Input violates the conjugate-symmetry (real field) constraint."""


def _check_length(name: str, vec: np.ndarray, expected: int) -> np.ndarray:
    vec = np.asarray(vec)
    if vec.shape[-1] != expected:
        raise ValueError(f"{name} has length {vec.shape[-1]}, expected {expected}")
    return vec


@dataclass(frozen=True)
class OperatorSet:
    """Transforms for one band limit: the grid, the ring weights and the
    per-order Legendre table, O(L^3) numbers.

    `legendre[m, j, ell]` is Pbar_{ell,m}(cos theta_j), zero where ell < m.
    The dense `Y` and `U` are built on first access, bit for bit as the columns Pbar_{ell,m} e^{i m phi} with the
    -m columns (-1)^m times their conjugates, and U = Y^H Q.
    """

    L: int
    grid: GridSpec
    q: np.ndarray = field(repr=False)         # real, diag of Q, length d_X
    legendre: np.ndarray = field(repr=False)  # (L, 2L, L), [m, ring, ell]

    def __post_init__(self):
        for arr in (self.q, self.legendre):
            arr.setflags(write=False)

    @property
    def d_spatial(self) -> int:
        return self.q.size

    @property
    def d_spectral(self) -> int:
        return self.L * self.L

    @cached_property
    def Y(self) -> np.ndarray:
        """Harmonics evaluated on the grid, complex d_X x L^2."""
        L = self.L
        m, ell, plus, minus, sign = indexing.order_slots(L)
        phase = np.exp(1j * np.outer(np.arange(L), self.grid.phi))  # (L, n_phi), row m
        cols = (self.legendre[m, :, ell][:, :, None] * phase[m, None, :]).reshape(len(m), -1)
        Y = np.empty((self.d_spatial, self.d_spectral), dtype=complex)
        Y[:, plus] = cols.T
        neg = m > 0  # column (ell, -m) is (-1)^m times the conjugate of (ell, m)
        Y[:, minus[neg]] = (sign[neg, None] * np.conj(cols[neg])).T
        Y.setflags(write=False)
        return Y

    @cached_property
    def U(self) -> np.ndarray:
        """Analysis matrix Y^H Q, complex L^2 x d_X."""
        U = self.Y.conj().T * self.q  # scaling columns of Y^H by the weights
        U.setflags(write=False)
        return U


def build_operators(L: int) -> OperatorSet:
    """Grid, ring weights and the per-order Legendre table."""
    grid = build_grid(L)
    plm = norm_legendre_table(L, np.cos(grid.theta))  # (L, L, n_theta): [ell, m, ring]
    legendre = np.ascontiguousarray(plm.transpose(1, 2, 0))
    return OperatorSet(L=L, grid=grid, q=ring_weights_flat(grid), legendre=legendre)


def analysis(ops: OperatorSet, x: np.ndarray) -> np.ndarray:
    """Harmonic coefficients a = U x of real sampled fields, x of shape (d_X,) or (n, d_X)."""
    x = _check_length("spatial field", x, ops.d_spatial)
    if not np.all(np.isfinite(x)):
        raise ValueError("spatial field contains non-finite entries")
    L, n_theta = ops.L, 2 * ops.L
    fields = np.asarray(x, dtype=float).reshape(-1, n_theta, 2 * L - 1)
    n = len(fields)
    # per order m: [Re F; Im F] (2n x rings), F the weighted FFT bin m of each ring
    R = np.empty((L, 2 * n, n_theta))
    F = np.fft.rfft(fields, axis=-1)  # bins 0 .. L-1
    F *= ops.grid.weights[:, None]
    R[:, :n], R[:, n:] = F.real.transpose(2, 0, 1), F.imag.transpose(2, 0, 1)
    del F
    C = R @ ops.legendre  # (L, 2n, L): [m, Re/Im x n, ell], 0 where ell < m
    del R
    m, ell, plus, minus, sign = indexing.order_slots(L)
    re, im = C[m, :n, ell].T, C[m, n:, ell].T  # (n, pairs)
    a = np.empty((n, L * L), dtype=complex)
    a.real[:, plus], a.imag[:, plus] = re, im
    neg = m > 0  # a_{ell,-m} = (-1)^m conj(a_{ell,m})
    a.real[:, minus[neg]], a.imag[:, minus[neg]] = sign[neg] * re[:, neg], -sign[neg] * im[:, neg]
    return a.reshape(np.shape(x)[:-1] + (L * L,))


def synthesis(ops: OperatorSet, a: np.ndarray) -> np.ndarray:
    """Grid samples x = Y a of conjugate-symmetric coefficients, a of shape (L^2,) or (n, L^2).

    Coefficients with a non-finite entry or a mirror residual above 1e-8 are
    rejected, as `chart.to_chart` rejects them; the product reads only the
    (ell, m >= 0) half, and bin N_phi - m is the conjugate of bin m, so the
    samples are real.
    """
    a = _check_length("spectral coefficients", a, ops.d_spectral)
    L, n_theta, n_phi = ops.L, 2 * ops.L, 2 * ops.L - 1
    A = np.asarray(a, dtype=complex).reshape(-1, L * L)
    _check_mirror(A, L)
    n = A.shape[0]
    # per order m: rows Re/Im of a_{ell,m}; columns ell, 0 where ell < m
    m, ell, plus, _, _ = indexing.order_slots(L)
    S = np.zeros((L, 2 * n, L))
    S[m, :n, ell], S[m, n:, ell] = A[:, plus].real.T, A[:, plus].imag.T
    G = S @ ops.legendre.transpose(0, 2, 1)  # (L, 2n, rings)
    del S
    x = np.empty((n, n_theta, n_phi), dtype=complex)  # the ring spectra, then the samples
    G = G.transpose(1, 2, 0)  # (2n, rings, L)
    # bins m = 0 .. L-1, each Re + 1j * Im formed in place; bin n_phi - m holds their conjugates
    bins = x[..., :L]
    np.add(G[:n], np.multiply(1j, G[n:], out=bins), out=bins)
    del G
    np.conjugate(x[..., L - 1:0:-1], out=x[..., L:])
    np.fft.ifft(x, axis=-1, norm="forward", out=x)  # irfft is slower where n_phi is prime
    return x.reshape(n, ops.d_spatial).real.reshape(np.shape(a)[:-1] + (ops.d_spatial,))


def project_bandlimited(ops: OperatorSet, x: np.ndarray) -> np.ndarray:
    """Q-orthogonal projection P x = Y U x onto the band-limited subspace."""
    return synthesis(ops, analysis(ops, x))


def q_inner(ops: OperatorSet, x1: np.ndarray, x2: np.ndarray) -> float:
    """Q-weighted inner product <x1, x2>_Q = sum_i q_i x1_i x2_i."""
    x1 = _check_length("x1", x1, ops.d_spatial)
    x2 = _check_length("x2", x2, ops.d_spatial)
    return float(np.dot(ops.q * np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)))


def q_norm_sq(ops: OperatorSet, x: np.ndarray) -> float:
    """Squared Q-norm of a real spatial vector."""
    return q_inner(ops, x, x)


def mirror_residual(a: np.ndarray, L: int) -> float:
    """Max deviation from a_{ell,m} = (-1)^m conj(a_{ell,-m}), incl. Im(a_{ell,0}),
    over every vector of a (..., L^2) stack."""
    a = _check_length("spectral coefficients", np.asarray(a, dtype=complex), L * L)
    _, _, plus, minus, sign = indexing.order_slots(L)  # each (ell, m >= 0) pair once
    return float(np.max(np.abs(a[..., plus] - sign * np.conj(a[..., minus])), initial=0.0))


def _check_mirror(a: np.ndarray, L: int, tol: float = 1e-8) -> None:
    """Reject coefficients (..., L^2) with a non-finite entry or a mirror residual above `tol`."""
    if not np.all(np.isfinite(a)):  # a NaN residual would pass `resid > tol`
        raise ValueError("coefficients contain non-finite entries")
    resid = mirror_residual(a, L)
    if resid > tol:
        raise ConstraintViolation(
            f"coefficients break conjugate symmetry by {resid:.3e} (tol {tol:.1e})"
        )
