"""Dense and scalar reference forms that only the tests use.

They check the library's identities through the dense operators `ops.Y` and
`ops.U`, which no command builds, and through per-entry evaluations of the
harmonics and the chart slots.
"""

import numpy as np

from spherediff.harmonics import FOUR_PI, _check_args, norm_legendre_table
from spherediff.indexing import IM, RE


def vp_drift_identity_error(ops, schedule, t: float) -> float:
    """Max abs deviation of U f(Y ., t) from -beta(t)/2 * identity."""
    L2 = ops.d_spectral
    composed = ops.U @ (-0.5 * schedule.beta(t) * ops.Y)
    return float(np.max(np.abs(composed - (-0.5 * schedule.beta(t)) * np.eye(L2))))


def projector(ops) -> np.ndarray:
    """P = YU, materialized on demand (d_X x d_X)."""
    return ops.Y @ ops.U


def legendre(ell: int, m: int, x):
    """Associated Legendre function P_{ell,m}(x), Condon-Shortley phase.

    Standard upward recurrence; values can be large for high (ell, m) but
    stay finite in double precision for ell < 64.
    """
    x = _check_args(ell, m, x)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    # diagonal: P_{m,m} = (-1)^m (2m-1)!! s^m
    p_mm = np.ones_like(x)
    for k in range(1, m + 1):
        p_mm = p_mm * (-(2 * k - 1)) * s
    if ell == m:
        out = p_mm
    else:
        p_prev, p_curr = p_mm, x * (2 * m + 1) * p_mm
        for k in range(m + 2, ell + 1):
            p_prev, p_curr = p_curr, ((2 * k - 1) * x * p_curr - (k + m - 1) * p_prev) / (k - m)
        out = p_curr
    return out if out.ndim else float(out)


def norm_constant(ell: int, m: int) -> float:
    """N_{ell,m} = sqrt((2ell+1)/(4pi) (ell-m)!/(ell+m)!), in log space."""
    if m < 0 or m > ell:
        raise ValueError(f"need 0 <= m <= ell, got ell={ell}, m={m}")
    log_ratio = 0.0
    for k in range(ell - m + 1, ell + m + 1):
        log_ratio -= np.log(k)
    return float(np.exp(0.5 * (np.log(2 * ell + 1) - np.log(FOUR_PI) + log_ratio)))


def norm_legendre(ell: int, m: int, x):
    """Single normalized value N_{ell,m} P_{ell,m}(x)."""
    _check_args(ell, m, x)
    out = norm_legendre_table(ell + 1, x)[ell, m]
    return float(out) if np.ndim(out) == 0 else out


def sh_eval(ell: int, m: int, theta, phi):
    """Spherical harmonic Y_{ell,m}(theta, phi).

    m < 0 is returned as (-1)^m conj(Y_{ell,-m}) by construction.
    """
    if abs(m) > ell:
        raise ValueError(f"order |m|={abs(m)} exceeds degree ell={ell}")
    if m < 0:
        sign = -1.0 if m % 2 else 1.0
        return sign * np.conjugate(sh_eval(ell, -m, theta, phi))
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    val = norm_legendre(ell, m, np.cos(theta)) * np.exp(1j * m * phi)
    return complex(val) if np.ndim(val) == 0 else val


def chart_index(ell: int, m: int, part: str = RE) -> int:
    """Flat chart position of the given real degree of freedom (m >= 0)."""
    if m < 0 or m > ell:
        raise ValueError(f"chart slots are indexed by 0 <= m <= ell, got m={m}, ell={ell}")
    if part not in (RE, IM):
        raise ValueError(f"part must be {RE!r} or {IM!r}, got {part!r}")
    if m == 0:
        if part != RE:
            raise ValueError("a_{ell,0} has no imaginary chart slot")
        return ell * ell
    return ell * ell + 2 * m - (1 if part == RE else 0)
