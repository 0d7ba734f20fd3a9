"""Sliced Wasserstein distance between empirical sample sets.

Projects both sets onto random unit directions (normalized Gaussian draws)
and averages the exact 1-D order-p Wasserstein distance over projections.
Equal sample counts pair sorted samples directly; unequal counts use the
exact merged-CDF segment walk over the union of quantile breakpoints.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SlicedWassersteinResult:
    value: float          # mean over projections
    se: float             # standard error of that mean
    n_proj: int
    p: float

    @property
    def ci2se(self) -> tuple:
        """(low, high) of the mean +/- 2 standard errors interval."""
        return (self.value - 2.0 * self.se, self.value + 2.0 * self.se)


def _rel_frobenius(err: np.ndarray, ref: np.ndarray):
    """|err| / |ref| in the Frobenius norm, None where ref is 0 or its largest
    magnitude is subnormal.

    Each sum of squares is one einsum, which needs no temporary the size of
    its argument.  As in `_power_mean_root`, where a sum leaves the normal
    float range (its squares overflow, or underflow below the smallest normal
    float), each argument whose largest magnitude is a normal float is summed
    again divided by that magnitude, and the magnitudes scale the ratio back;
    a ratio that itself overflows is None too.  Sums inside the range keep
    the bits of the plain form.
    """
    def sumsq(x, scale=1.0):
        v = np.ravel(x) if scale == 1.0 else np.ravel(x) / scale
        return np.einsum("i,i->", v, v)

    tiny = np.finfo(float).tiny
    num, den = sumsq(err), sumsq(ref)
    if not (tiny <= num < np.inf and tiny <= den < np.inf):  # else no magnitude is read
        s_err, s_ref = (np.max(np.abs(x), initial=0.0) for x in (err, ref))
        normal = tiny <= s_err < np.inf, tiny <= s_ref < np.inf
        if any(ok and not tiny <= s < np.inf for ok, s in zip(normal, (num, den))):
            if not normal[1]:  # ref is 0, subnormal or not finite
                return None
            s_err = s_err if normal[0] else 1.0
            with np.errstate(over="ignore"):
                ratio = s_err / s_ref * (np.sqrt(sumsq(err, s_err)) / np.sqrt(sumsq(ref, s_ref)))
            return float(ratio) if np.isfinite(ratio) else None
    return float(np.sqrt(num)) / float(np.sqrt(den)) if den else None


@functools.cache
def _blas_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS bundled with NumPy,
    or None when NumPy links some other BLAS.  Importing `spherediff` sets
    one thread through them (see the package's `__init__`)."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy NumPy already loaded
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _as_samples(name: str, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"{name} must be a nonempty n x d matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite entries")
    return X


def _power_mean_root(D: np.ndarray, p: float, w=None) -> np.ndarray:
    """(sum_i w_i |D_i|^p)^(1/p) down each column of D (w_i = 1/n unless
    given), as a 1-D array with one entry per column (one for a 1-D D).

    Where that sum leaves the normal float range (|D_i|^p overflows, or the
    sum falls among the subnormals or to 0), the column is summed again over
    |D| / M, M its largest |D_i|, and M scales the root back.  Sums inside
    the range keep the bits of the plain form.
    """
    D = np.abs(D)
    with np.errstate(over="ignore"):
        s = np.mean(D ** p, axis=0) if w is None else w @ D ** p
    root = np.atleast_1d(s ** (1.0 / p))
    cols = np.flatnonzero(~((s >= np.finfo(float).tiny) & (s < np.inf)))
    D = D.reshape(len(D), -1)[:, cols]
    M = D.max(axis=0)
    cols, D, M = cols[M > 0], D[:, M > 0], M[M > 0]  # an all-zero column's root is 0
    if cols.size:
        D = (D / M) ** p
        root[cols] = M * (np.mean(D, axis=0) if w is None else w @ D) ** (1.0 / p)
    return root


def _sorted_wasserstein(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Order-p Wasserstein distances between the columns of a and b, each sorted
    down axis 0, as `_power_mean_root` gives them: equal counts pair the sorted
    samples, unequal counts the quantiles on the merged-CDF segments, weighted
    by the segment widths (one segment walk serves every column).  Each
    difference array goes straight into `_power_mean_root`, which drops it."""
    n, m = len(a), len(b)
    if n == m:
        return _power_mean_root(a - b, p)
    edges = np.concatenate(
        [[0.0], np.union1d(np.arange(1, n) / n, np.arange(1, m) / m), [1.0]]
    )
    mids = 0.5 * (edges[:-1] + edges[1:])
    ia = np.minimum((mids * n).astype(np.intp), n - 1)
    ib = np.minimum((mids * m).astype(np.intp), m - 1)
    return _power_mean_root(a[ia] - b[ib], p, np.diff(edges))


def wasserstein_1d(a: np.ndarray, b: np.ndarray, p: float = 2.0) -> float:
    """Exact order-p Wasserstein distance between 1-D empirical measures."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample set")
    return float(_sorted_wasserstein(a, b, p)[0])


def sliced_wasserstein(A, B, p: float = 2.0, n_proj: int = 1000,
                       seed=None) -> SlicedWassersteinResult:
    """Monte Carlo sliced Wasserstein distance between sample sets A and B."""
    A = _as_samples("A", A)
    B = _as_samples("B", B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"dimension mismatch: A has d={A.shape[1]}, B has d={B.shape[1]}"
        )
    if p < 1:
        raise ValueError("order p must be >= 1")
    if n_proj < 1:
        raise ValueError("need at least one projection")

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_proj, A.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    PA = A @ dirs.T  # (n, n_proj)
    PB = B @ dirs.T
    PA.sort(axis=0)
    PB.sort(axis=0)
    per = _sorted_wasserstein(PA, PB, p)  # all projections at once

    with np.errstate(over="ignore"):  # an overflow is summed again below
        value, sd = per.mean(), per.std(ddof=1) if n_proj > 1 else 0.0
    if not (np.isfinite(value) and np.isfinite(sd)):  # over per / max(per), scaled back
        top, per = per.max(), per / per.max()
        value, sd = top * per.mean(), top * per.std(ddof=1) if n_proj > 1 else 0.0
    return SlicedWassersteinResult(value=float(value), se=float(sd / np.sqrt(n_proj)),
                                   n_proj=n_proj, p=p)
