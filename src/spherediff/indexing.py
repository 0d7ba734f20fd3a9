"""Canonical index layouts for spectral coefficients and chart coordinates.

Two flat orderings are used everywhere in this package and must agree
bit-for-bit across modules, so they are defined once here, in closed form.

Spectral ordering (complex coefficient vector, length L^2): degrees ascend,
and within degree ell the orders run m = 0, +1, -1, +2, -2, ..., +ell, -ell.
The coefficient (ell, m) therefore sits at

    ell^2 + (0 if m == 0 else 2m - 1 if m > 0 else -2m).

Chart ordering (real vector, length L^2): per degree, Re(a_{ell,0}) at ell^2,
then Re(a_{ell,m}) at ell^2 + 2m - 1 and Im(a_{ell,m}) at ell^2 + 2m for
m = 1..ell.  Note the convenient coincidence: the chart slot of Re(a_{ell,m})
equals the spectral slot of (ell, m), and the chart slot of Im(a_{ell,m})
equals the spectral slot of (ell, -m).
"""

from __future__ import annotations

import numpy as np

RE = "re"
IM = "im"


def spectral_ells(L: int) -> np.ndarray:
    """Degree of each spectral slot, shape (L^2,)."""
    return np.repeat(np.arange(L), 2 * np.arange(L) + 1)


def spectral_ms(L: int) -> np.ndarray:
    """Signed order of each spectral slot, shape (L^2,), from its offset k = slot - ell^2."""
    k = np.arange(L * L) - spectral_ells(L) ** 2
    return np.where(k % 2, (k + 1) // 2, -(k // 2))


def chart_ms(L: int) -> np.ndarray:
    """Order m (>= 0) of each chart slot, shape (L^2,)."""
    return np.abs(spectral_ms(L))


def chart_is_im(L: int) -> np.ndarray:
    """Boolean mask of imaginary-part chart slots, shape (L^2,): those of (ell, -m)."""
    return spectral_ms(L) < 0


def chart_entries(L: int) -> list[tuple[int, int, str]]:
    """(ell, m, part) labels of the chart coordinates in flat order."""
    parts = np.where(chart_is_im(L), IM, RE).tolist()
    return list(zip(spectral_ells(L).tolist(), chart_ms(L).tolist(), parts))


def mirror_permutation(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Index map and sign implementing a -> (-1)^m conj(a) slot swaps.

    Returns (perm, sign) such that a vector a in the canonical spectral
    ordering is conjugate-symmetric iff a[i] == sign[i] * conj(a[perm[i]])
    for every slot i, where perm swaps (ell, m) with (ell, -m), one slot on.
    """
    m = spectral_ms(L)
    return np.arange(L * L) + np.sign(m), np.where(m % 2, -1.0, 1.0)


def order_slots(L: int):
    """(m, ell, +m slot, -m slot, (-1)^m) over the pairs ell >= m >= 0; the
    chart slots of Re(a_{ell,m}) and (m > 0) Im(a_{ell,m}) are the same two."""
    ell, m = np.tril_indices(L)
    plus = ell * ell + np.where(m > 0, 2 * m - 1, 0)
    return m, ell, plus, ell * ell + 2 * m, np.where(m % 2, -1.0, 1.0)


def block_slots(L: int) -> list:
    """(m, chart rows by degree) of each (m, part) block of Sigma, in (m, part) order."""
    m, _, re, im, _ = order_slots(L)
    key = np.concatenate([2 * m, 2 * m[m > 0] + 1])  # 2m + part (Re 0, Im 1)
    rows = np.concatenate([re, im[m > 0]])[np.argsort(key, kind="stable")]
    sizes = np.bincount(key)
    blocks = np.flatnonzero(sizes)  # every key but the Im part of m = 0
    return list(zip((blocks // 2).tolist(), np.split(rows, np.cumsum(sizes[blocks])[:-1])))

