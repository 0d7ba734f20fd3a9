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
    shape, x = x.shape, x.reshape(-1)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    table = np.zeros((L, L, x.size))
    ms = np.arange(L)

    # the diagonal P_mm: (-1)^m s^m times the prefactor sqrt((2m+1)/(4pi) (2m-1)!!/(2m)!!),
    # whose log is summed in m order; zero at the poles but for m = 0
    log_pref = np.cumsum(0.5 * (np.log(2 * ms + 1.0) - np.log(np.where(ms > 0, 2 * ms, FOUR_PI))))
    with np.errstate(divide="ignore", invalid="ignore"):
        p_mm = np.exp(log_pref[:, None] + ms[:, None] * np.log(s))
    table[ms, ms] = np.where(s > 0.0, np.where(ms % 2, -1.0, 1.0)[:, None] * p_mm, 0.0)
    table[0, 0] = np.exp(log_pref[0])
    table[ms[1:], ms[:-1]] = np.sqrt(2 * ms[:-1] + 3.0)[:, None] * x * table[ms[:-1], ms[:-1]]
    for ell in range(2, L):  # the three-term recurrence in ell, for all m < ell - 1 at once
        m = ms[:ell - 1]
        a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))[:, None]
        b = np.sqrt((2.0 * ell + 1.0) * ((ell - 1.0) ** 2 - m * m)
                    / ((2.0 * ell - 3.0) * (ell * ell - m * m)))[:, None]
        table[ell, m] = a * x * table[ell - 1, m] - b * table[ell - 2, m]
    return table.reshape((L, L) + shape)
