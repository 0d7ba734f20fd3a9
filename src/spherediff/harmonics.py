"""Fully normalized associated Legendre functions, the table behind the transforms.

Conventions, fixed globally:

* Condon-Shortley phase lives inside P_{ell,m} (so P_{1,1}(x) = -sqrt(1-x^2)).
* Orthonormal normalization N_{ell,m} = sqrt((2ell+1)/(4pi) (ell-m)!/(ell+m)!),
  giving <Y_{ell,m}, Y_{ell',m'}> = delta delta on the sphere.
* Only m >= 0 is tabulated.  The transforms produce the negative orders from
  the conjugate symmetry Y_{ell,-m} = (-1)^m conj(Y_{ell,m}), so the symmetry
  holds bit-for-bit.

The normalized values are computed with a fully-normalized three-term
recurrence in ell at fixed m, seeded by the diagonal term in log space; no
raw factorial ratios appear, so there is no overflow for ell <= 63.
"""

from __future__ import annotations

import numpy as np

FOUR_PI = 4.0 * np.pi


def _check_args(ell: int, m: int, x) -> np.ndarray:
    if ell < 0:
        raise ValueError(f"degree must be nonnegative, got ell={ell}")
    if m < 0 or m > ell:
        raise ValueError(f"need 0 <= m <= ell, got ell={ell}, m={m}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("argument out of domain: |x| must be <= 1")
    return x


def norm_legendre_table(L: int, x) -> np.ndarray:
    """Normalized N_{ell,m} P_{ell,m}(x) for all ell < L, 0 <= m <= ell.

    Returns an array of shape (L, L) + x.shape with entry [ell, m] holding
    the values at the given arguments (zero where m > ell).
    """
    if L < 1:
        raise ValueError(f"band limit must be >= 1, got {L}")
    x = _check_args(0, 0, x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    table = np.zeros((L, L) + x.shape)

    # log of the m-dependent diagonal prefactor sqrt((2m+1)/(4pi) (2m-1)!!/(2m)!!)
    log_pref = 0.5 * (np.log(1.0) - np.log(FOUR_PI))
    with np.errstate(divide="ignore"):
        log_s = np.where(s > 0.0, np.log(np.where(s > 0.0, s, 1.0)), -np.inf)
    for m in range(L):
        if m == 0:
            p_mm = np.full(x.shape, np.exp(log_pref))
        else:
            log_pref += 0.5 * (np.log(2 * m + 1) - np.log(2 * m))
            sign = -1.0 if m % 2 else 1.0
            with np.errstate(invalid="ignore"):
                p_mm = sign * np.exp(log_pref + m * log_s)
            p_mm = np.where(s > 0.0, p_mm, 0.0)
        table[m, m] = p_mm
        if m + 1 < L:
            table[m + 1, m] = np.sqrt(2 * m + 3.0) * x * p_mm
        for ell in range(m + 2, L):
            a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = np.sqrt(
                (2.0 * ell + 1.0)
                * ((ell - 1.0) ** 2 - m * m)
                / ((2.0 * ell - 3.0) * (ell * ell - m * m))
            )
            table[ell, m] = a * x * table[ell - 1, m] - b * table[ell - 2, m]
    return table[..., 0] if scalar else table
