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


def _fixed_order_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with the same bits under any BLAS thread count.

    Measured with OpenBLAS 0.3.31 under one, two and four threads: a product
    gives the same bits when its inner dimension is at most 288 and its
    column count is a multiple of 8.  A longer inner dimension (552) changes
    the last bits almost everywhere, and other column counts change the last
    columns (threads end on different edge tiles).  So the inner dimension is
    summed in chunks of at most 256, in one fixed order, and b gets zero
    columns up to a multiple of 8, dropped from the result.  Inside those
    limits this is the plain product, bit for bit.
    """
    k, n = b.shape
    pad = -n % 8
    if pad:
        b = np.concatenate([b, np.zeros((k, pad))], axis=1)
    out = a[..., :256] @ b[:256]
    for j in range(256, k, 256):
        out += a[..., j:j + 256] @ b[j:j + 256]
    return out[..., :n] if pad else out


def _rel_frobenius(err: np.ndarray, ref: np.ndarray):
    """|err| / |ref| in the Frobenius norm, None where |ref| is exactly 0.

    Each sum of squares is one einsum, in a fixed order without BLAS, so it
    does not depend on the BLAS thread count (np.linalg.norm reduces with a
    threaded BLAS dot), and needs no temporary the size of its argument.
    Where a sum of finite squares overflows, each sum is taken again over its
    argument divided by that argument's own largest magnitude, and the scales
    multiply the ratio back; a ratio that itself overflows is None too.
    """
    def sumsq(x, scale=None):
        v = np.ravel(x) if scale is None else np.ravel(x) / scale
        return np.einsum("i,i->", v, v)

    num, den = sumsq(err), sumsq(ref)
    if not np.isfinite(num + den):
        s_err, s_ref = (np.max(np.abs(x), initial=0.0) for x in (err, ref))
        if np.isfinite(s_err + s_ref) and s_err and s_ref:
            with np.errstate(over="ignore"):
                ratio = s_err / s_ref * (np.sqrt(sumsq(err, s_err)) / np.sqrt(sumsq(ref, s_ref)))
            return float(ratio) if np.isfinite(ratio) else None
    return float(np.sqrt(num)) / float(np.sqrt(den)) if den else None


@functools.cache
def _blas_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS bundled with NumPy,
    or None when NumPy links some other BLAS."""
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


def _fixed_order_eigh(a: np.ndarray):
    """np.linalg.eigh(a) with the same bits under any BLAS thread count.

    LAPACK's tridiagonal reduction calls threaded BLAS.  Measured with
    OpenBLAS 0.3.31 at n = 2, 5, ..., 299 and 1024, eigh of an n x n matrix
    differs between one and two threads from n = 146 on, at every n that is
    not a multiple of 8 and at every n tried above 220.  So BLAS runs on one
    thread for the call (the setting is process-wide, so this is not for
    concurrent use from several Python threads).  Where NumPy's OpenBLAS
    cannot be found this is the plain eigh.
    """
    controls = _blas_thread_controls()
    if controls is None:
        return np.linalg.eigh(a)
    get, put = controls
    threads = get()
    put(1)
    try:
        return np.linalg.eigh(a)
    finally:
        put(threads)


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


def wasserstein_1d(a: np.ndarray, b: np.ndarray, p: float = 2.0) -> float:
    """Exact order-p Wasserstein distance between 1-D empirical measures."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise ValueError("empty sample set")
    if n == m:
        return float(_power_mean_root(a - b, p)[0])
    edges = np.concatenate(
        [[0.0], np.union1d(np.arange(1, n) / n, np.arange(1, m) / m), [1.0]]
    )
    mids = 0.5 * (edges[:-1] + edges[1:])
    ia = np.minimum((mids * n).astype(np.intp), n - 1)
    ib = np.minimum((mids * m).astype(np.intp), m - 1)
    return float(_power_mean_root(a[ia] - b[ib], p, np.diff(edges))[0])


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

    PA = _fixed_order_matmul(A, dirs.T)  # (n, n_proj)
    PB = _fixed_order_matmul(B, dirs.T)
    if A.shape[0] == B.shape[0]:
        PA.sort(axis=0)
        PB.sort(axis=0)
        per = _power_mean_root(PA - PB, p)
    else:
        per = np.array(
            [wasserstein_1d(PA[:, i], PB[:, i], p) for i in range(n_proj)]
        )

    with np.errstate(over="ignore"):  # an overflow is summed again below
        value, sd = per.mean(), per.std(ddof=1) if n_proj > 1 else 0.0
    if not (np.isfinite(value) and np.isfinite(sd)):  # over per / max(per), scaled back
        top, per = per.max(), per / per.max()
        value, sd = top * per.mean(), top * per.std(ddof=1) if n_proj > 1 else 0.0
    return SlicedWassersteinResult(value=float(value), se=float(sd / np.sqrt(n_proj)),
                                   n_proj=n_proj, p=p)
