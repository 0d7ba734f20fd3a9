"""Band limits and random conjugate-symmetric coefficients shared by the tests.

A module of its own, not `conftest.py`: `bench/tests` holds a `conftest.py`
too, and pytest imports each as the module `conftest`, so names imported
from there would depend on the order the directories are collected in.
"""

import numpy as np

from spherediff.indexing import mirror_permutation

BAND_LIMITS = (1, 2, 4, 8)


def symmetrize(a: np.ndarray, L: int) -> np.ndarray:
    """Project a complex coefficient vector onto the conjugate-symmetric set."""
    perm, sign = mirror_permutation(L)
    return 0.5 * (a + sign * np.conj(a[perm]))


def random_symmetric_coeffs(L: int, rng) -> np.ndarray:
    a = rng.standard_normal(L * L) + 1j * rng.standard_normal(L * L)
    return symmetrize(a, L)
