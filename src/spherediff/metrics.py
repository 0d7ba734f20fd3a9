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


def _rel_frobenius(err: np.ndarray, ref: np.ndarray):
    """|err| / |ref| in the Frobenius norm (see `_frobenius_ratio`)."""
    return _frobenius_ratio(_frobenius_parts(err), _frobenius_parts(ref))


def _frobenius_parts(x: np.ndarray, *, overwrite: bool = False) -> tuple:
    """(sum of squares, s = max |x|, sum of squares of x / s where 0 < s < inf)
    of x, each sum one einsum.  With `overwrite` the last is taken at once,
    dividing x in place; else it is a function, called only where needed."""
    v = np.ravel(x)
    sumsq = np.einsum("i,i->", v, v)
    s = np.maximum(v.max(initial=0.0), -v.min(initial=0.0)) + 0.0  # max |x|, as +0.0 at 0

    def scaled():
        w = np.divide(v, s, out=v if overwrite else None)
        return np.einsum("i,i->", w, w)

    return sumsq, s, (scaled() if overwrite else scaled) if 0 < s < np.inf else None


def _frobenius_ratio(err_parts: tuple, ref_parts: tuple):
    """|err| / |ref| from `_frobenius_parts` of each, None where ref is 0 or
    its largest magnitude is subnormal.

    As in `_power_mean_root`, where a sum of squares leaves the normal float
    range (its squares overflow, or underflow below the smallest normal
    float), the sums over each argument divided by its largest magnitude are
    used, and the magnitudes scale the ratio back: for ref when that
    magnitude is a normal float, for err when it is finite and not 0 (a
    subnormal one too); a ratio that itself overflows is None too.
    """
    (num, s_err, num_scaled), (den, s_ref, den_scaled) = err_parts, ref_parts
    tiny = np.finfo(float).tiny
    if not (tiny <= num < np.inf and tiny <= den < np.inf):
        scalable = 0 < s_err < np.inf, tiny <= s_ref < np.inf
        if any(ok and not tiny <= s < np.inf for ok, s in zip(scalable, (num, den))):
            if not scalable[1]:  # ref is 0, subnormal or not finite
                return None
            s_err, num_scaled = (s_err, num_scaled) if scalable[0] else (1.0, num)
            num_scaled, den_scaled = (f() if callable(f) else f for f in (num_scaled, den_scaled))
            with np.errstate(over="ignore"):
                ratio = s_err / s_ref * (np.sqrt(num_scaled) / np.sqrt(den_scaled))
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


def _power_mean_root(diff, p: float, w=None) -> np.ndarray:
    """(sum_i w_i |D_i|^p)^(1/p) along the last axis of D = diff(), a new float
    array (w_i = 1/n unless given), as a 1-D array with one entry per row (one
    for a 1-D D).  |D|^p overwrites D, so one array of D's size is held.

    Where that sum leaves the normal float range (|D_i|^p overflows, or the
    sum falls among the subnormals or to 0), the row is summed again over
    |D| / M, M its largest |D_i|, from a second diff(), and M scales the root
    back.  Sums inside the range keep the bits of the plain form.
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

    with np.errstate(over="ignore"):  # an overflow is summed again below
        value, sd = per.mean(), per.std(ddof=1) if n_proj > 1 else 0.0
    if not (np.isfinite(value) and np.isfinite(sd)):  # over per / max(per), scaled back
        top, per = per.max(), per / per.max()
        value, sd = top * per.mean(), top * per.std(ddof=1) if n_proj > 1 else 0.0
    return SlicedWassersteinResult(value=float(value), se=float(sd / np.sqrt(n_proj)),
                                   n_proj=n_proj, p=p)
