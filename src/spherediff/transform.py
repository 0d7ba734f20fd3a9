"""Dense spherical analysis/synthesis operators and their actions.

Builds Y (harmonics evaluated on the grid, d_X x L^2), the diagonal weight
matrix Q (stored as a length-d_X vector), U = Y^H Q, and the band-limit
projector P = YU.  Spatial vectors are real, theta-major (index j*N_phi + k);
spectral vectors are complex in the canonical ordering of `indexing`.

Negative-m columns of Y are constructed as (-1)^m conj of the +m columns, so
analysis output of a real field is conjugate-symmetric to the last bit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

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
    """Dense operators for one band limit, immutable after construction."""

    L: int
    grid: GridSpec
    Y: np.ndarray = field(repr=False)       # complex, d_X x L^2
    q: np.ndarray = field(repr=False)       # real, diag of Q, length d_X
    U: np.ndarray = field(repr=False)       # complex, L^2 x d_X

    def __post_init__(self):
        for arr in (self.Y, self.q, self.U):
            arr.setflags(write=False)

    @property
    def d_spatial(self) -> int:
        return self.Y.shape[0]

    @property
    def d_spectral(self) -> int:
        return self.Y.shape[1]

    def projector(self) -> np.ndarray:
        """P = YU, materialized on demand (d_X x d_X)."""
        return self.Y @ self.U


def build_operators(L: int) -> OperatorSet:
    """Evaluate Y on the grid and assemble U = Y^H Q."""
    grid = build_grid(L)
    n_phi = grid.band.n_phi
    d_x, d_hat = grid.band.d_spatial, grid.band.d_spectral

    # normalized Legendre values per ring: (L, L, n_theta)
    plm = norm_legendre_table(L, np.cos(grid.theta))
    phase = np.exp(1j * np.outer(np.arange(L), grid.phi))  # (L, n_phi), row m

    Y = np.empty((d_x, d_hat), dtype=complex)
    for ell in range(L):
        for m in range(ell + 1):
            col = np.outer(plm[ell, m], phase[m]).reshape(d_x)
            Y[:, indexing.spectral_index(ell, m)] = col
            if m > 0:
                sign = -1.0 if m % 2 else 1.0
                Y[:, indexing.spectral_index(ell, -m)] = sign * np.conj(col)

    q = ring_weights_flat(grid)
    U = Y.conj().T * q  # Y^H Q, scaling columns of Y^H by the weights
    return OperatorSet(L=L, grid=grid, Y=Y, q=q, U=U)


def analysis(ops: OperatorSet, x: np.ndarray) -> np.ndarray:
    """Harmonic coefficients a = U x of real sampled fields, x of shape (d_X,) or (n, d_X)."""
    x = _check_length("spatial field", x, ops.d_spatial)
    if not np.all(np.isfinite(x)):
        raise ValueError("spatial field contains non-finite entries")
    return np.asarray(x, dtype=float) @ ops.U.T


def synthesis(ops: OperatorSet, a: np.ndarray, *, imag_tol: float = 1e-8) -> np.ndarray:
    """Grid samples x = Y a of conjugate-symmetric coefficients, a of shape (L^2,) or (n, L^2).

    The imaginary residue of Y a is checked (constraint violation above
    `imag_tol`) and stripped, rather than trusting the caller.
    """
    a = _check_length("spectral coefficients", a, ops.d_spectral)
    if not np.all(np.isfinite(a)):
        raise ValueError("spectral coefficients contain non-finite entries")
    x = np.asarray(a, dtype=complex) @ ops.Y.T
    resid = float(np.max(np.abs(x.imag), initial=0.0))
    if resid > imag_tol:
        raise ConstraintViolation(
            f"synthesis imaginary residual {resid:.3e} exceeds {imag_tol:.1e}; "
            "coefficients are not conjugate-symmetric"
        )
    return x.real


def project_bandlimited(ops: OperatorSet, x: np.ndarray) -> np.ndarray:
    """Q-orthogonal projection P x = Y U x onto the band-limited subspace."""
    return (ops.Y @ analysis(ops, x)).real


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
    perm, sign = indexing.mirror_permutation(L)
    return float(np.max(np.abs(a - sign * np.conj(a[..., perm])), initial=0.0))


def is_mirror_symmetric(a: np.ndarray, L: int, tol: float = 1e-12) -> bool:
    return mirror_residual(a, L) <= tol


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

FMT = "%.17g"


def field_to_csv(x: np.ndarray, L: int) -> str:
    """Spatial field as CSV with header j,k,value (theta-major order)."""
    n_phi = 2 * L - 1
    x = _check_length("spatial field", x, 2 * L * n_phi)
    lines = ["j,k,value"]
    for i, v in enumerate(np.asarray(x, dtype=float)):
        lines.append(f"{i // n_phi},{i % n_phi},{FMT % v}")
    return "\n".join(lines) + "\n"


def field_from_csv(text: str, L: int) -> np.ndarray:
    n_phi = 2 * L - 1
    d_x = 2 * L * n_phi
    out = np.full(d_x, np.nan)
    rows = text.strip().splitlines()
    if rows and rows[0].strip() != "j,k,value":
        raise ValueError("expected header 'j,k,value'")
    seen = np.zeros(d_x, dtype=bool)
    for row in rows[1:]:
        j, k, v = row.split(",")
        j, k = int(j), int(k)
        if not (0 <= j < 2 * L and 0 <= k < n_phi):
            raise ValueError(f"cell ({j},{k}) is outside the {2 * L} x {n_phi} grid")
        i = j * n_phi + k
        if seen[i]:
            raise ValueError(f"cell ({j},{k}) appears more than once")
        seen[i] = True
        out[i] = float(v)
    if np.any(np.isnan(out)):
        raise ValueError("field file does not cover the full grid")
    return out


def field_to_raw(x: np.ndarray) -> bytes:
    """Raw little-endian float64, theta-major."""
    return np.asarray(x, dtype="<f8").tobytes()


def field_from_raw(data: bytes, L: int) -> np.ndarray:
    x = np.frombuffer(data, dtype="<f8")
    return _check_length("spatial field", x, 2 * L * (2 * L - 1)).copy()


def coeffs_to_csv(a: np.ndarray, L: int) -> str:
    """Spectral coefficients as CSV with header ell,m,re,im (canonical order)."""
    a = _check_length("spectral coefficients", np.asarray(a, dtype=complex), L * L)
    lines = ["ell,m,re,im"]
    for (ell, m), v in zip(indexing.spectral_entries(L), a):
        lines.append(f"{ell},{m},{FMT % v.real},{FMT % v.imag}")
    return "\n".join(lines) + "\n"


def coeffs_from_csv(text: str) -> np.ndarray:
    rows = text.strip().splitlines()
    if rows and rows[0].strip() != "ell,m,re,im":
        raise ValueError("expected header 'ell,m,re,im'")
    vals = {}
    for row in rows[1:]:
        ell, m, re, im = row.split(",")
        i = indexing.spectral_index(int(ell), int(m))
        if i in vals:
            raise ValueError(f"coefficient ({ell},{m}) appears more than once")
        vals[i] = float(re) + 1j * float(im)
    n = len(vals)
    L = int(round(np.sqrt(n)))
    if L * L != n or set(vals) != set(range(n)):
        raise ValueError("coefficient file does not cover a full 0..L^2-1 index set")
    return np.array([vals[i] for i in range(n)])


def matrix_to_csv(mat: np.ndarray, row_labels=None, col_labels=None) -> str:
    """Dense matrix CSV; complex matrices get re/im interleaved columns."""
    mat = np.asarray(mat)
    buf = io.StringIO()
    is_complex = np.iscomplexobj(mat)
    if col_labels is not None:
        cols = []
        for c in col_labels:
            cols.extend([f"{c}:re", f"{c}:im"] if is_complex else [str(c)])
        buf.write(("row," if row_labels is not None else "") + ",".join(cols) + "\n")
    for i in range(mat.shape[0]):
        cells = []
        for v in mat[i]:
            if is_complex:
                cells.extend([FMT % v.real, FMT % v.imag])
            else:
                cells.append(FMT % v)
        prefix = f"{row_labels[i]}," if row_labels is not None else ""
        buf.write(prefix + ",".join(cells) + "\n")
    return buf.getvalue()
