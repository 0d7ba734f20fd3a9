"""Sliced Wasserstein distance between empirical sample sets.

Projects both sets onto random unit directions (normalized Gaussian draws)
and averages the exact 1-D order-p Wasserstein distance over projections.
Equal sample counts pair sorted samples directly; unequal counts use the
exact merged-CDF segment walk over the union of quantile breakpoints.
The directions are drawn, projected on and compared one block at a time.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_PROJ_BLOCK = 1 << 16  # values per array of projected samples in `sliced_wasserstein`


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


def _sumsq(x: np.ndarray) -> tuple:
    """(t, h): t the sum of squares of x 2^-h, h = frexp(max |x|)[1], so that
    max |x 2^-h| lies in [1/2, 1) (h = 0 where x is 0 or not finite).  Where the
    plain sum of squares is a normal float, t is that one einsum times 4^-h,
    exact and with no copy; else the sum is taken over an ldexp copy of x."""
    v = np.ravel(x)
    h = np.frexp(np.maximum(v.max(initial=0.0), -v.min(initial=0.0)))[1]
    t = np.einsum("i,i->", v, v)
    if np.finfo(float).tiny <= t < np.inf:
        return np.ldexp(t, -2 * h), h
    w = np.ldexp(v, -h)
    return np.einsum("i,i->", w, w), h


def _rel_frobenius(err: np.ndarray, ref: np.ndarray):
    """|err| / |ref| in the Frobenius norm from the `_sumsq` of each, scaled back
    by 2^(h_err - h_ref) (exact); None where ref's largest magnitude is 0 or
    subnormal, or where the ratio of finite arrays overflows."""
    (t_e, h_e), (t_r, h_r) = _sumsq(err), _sumsq(ref)
    if t_r == 0 or h_r <= np.finfo(float).minexp:
        return None
    with np.errstate(over="ignore"):
        ratio = np.ldexp(np.sqrt(t_e) / np.sqrt(t_r), h_e - h_r)
    return None if np.isinf(ratio) and t_e < np.inf else float(ratio)


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


def _power_mean_root(diff, p: float, w=None) -> np.ndarray:
    """(sum_i w_i |D_i|^p)^(1/p) along the last axis of D = diff(), a new float
    array (w_i = 1/n unless given), as a 1-D array with one entry per row (one
    for a 1-D D).  |D|^p overwrites D, so one array of D's size is held.

    Where that sum leaves the normal float range (|D_i|^p overflows, or the
    sum falls among the subnormals or to 0), the row is summed again over
    |D| / M, M its largest |D_i|, from a second diff(), and M scales the root
    back.  Sums inside the range keep the bits of the plain form.  The row is
    divided by M itself, not scaled by a power of 2 as `_sumsq` scales: the
    largest term must be exactly 1, since any smaller one, raised to a large
    enough p (above about 1075 for 1/2), underflows to 0 with every other term.
    """
    P = diff()
    np.abs(P, out=P)
    with np.errstate(over="ignore"):
        P **= p  # the bits of P ** p
        s = np.mean(P, axis=-1) if w is None else P @ w
    del P
    root = np.atleast_1d(s ** (1.0 / p))
    rows = np.flatnonzero(~((s >= np.finfo(float).tiny) & (s < np.inf)))
    if rows.size:
        D = diff()
        D = np.abs(D, out=D).reshape(-1, D.shape[-1])[rows]
        M = D.max(axis=1)
        rows, D, M = rows[M > 0], D[M > 0], M[M > 0]  # an all-zero row's root is 0
        D = (D / M[:, None]) ** p
        root[rows] = M * (np.mean(D, axis=1) if w is None else D @ w) ** (1.0 / p)
    return root


def _sorted_wasserstein(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Order-p Wasserstein distances between the rows of a and b, each sorted
    along the last axis, as `_power_mean_root` gives them: equal counts pair
    the sorted samples, unequal counts the quantiles on the merged-CDF
    segments, weighted by the segment widths (one segment walk serves every
    row)."""
    n, m = a.shape[-1], b.shape[-1]
    if n == m:
        return _power_mean_root(lambda: a - b, p)
    # the merged breakpoints k/n and k/m, sorted, each value once, as np.union1d
    # gives them (which would import numpy.ma, through np.unique)
    edges = np.concatenate([[0.0], np.arange(1, n) / n, np.arange(1, m) / m, [1.0]])
    edges.sort()
    edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
    mids = 0.5 * (edges[:-1] + edges[1:])
    ia = np.minimum((mids * n).astype(np.intp), n - 1)
    ib = np.minimum((mids * m).astype(np.intp), m - 1)

    def diff():
        D = a[..., ia]
        D -= b[..., ib]
        return D

    return _power_mean_root(diff, p, np.diff(edges))


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

    # Blocks of directions, cut from one (n_proj, d) normal stream, keep each
    # array near _PROJ_BLOCK values: no (n, n_proj) projections are held.
    rng, d = np.random.default_rng(seed), A.shape[1]
    step = max(1, _PROJ_BLOCK // max(len(A), len(B), d))
    per = np.empty(n_proj)
    for i in range(0, n_proj, step):
        dirs = rng.standard_normal((min(step, n_proj - i), d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        PA, PB = dirs @ A.T, dirs @ B.T  # (block, n) and (block, m)
        PA.sort(axis=1)
        PB.sort(axis=1)
        per[i:i + len(dirs)] = _sorted_wasserstein(PA, PB, p)
        del PA, PB  # before the next block's products are made

    # over per 2^-h (exact), h = frexp(max(per))[1], so that no square overflows
    h = np.frexp(per.max())[1]
    np.ldexp(per, -h, out=per)
    value, sd = per.mean(), per.std(ddof=1) if n_proj > 1 else 0.0
    return SlicedWassersteinResult(value=float(np.ldexp(value, h)),
                                   se=float(np.ldexp(sd, h) / np.sqrt(n_proj)),
                                   n_proj=n_proj, p=p)
