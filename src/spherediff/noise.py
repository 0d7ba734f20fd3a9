"""Chart covariance of spherical mirrored Brownian motion, and samplers.

The image v = U w of spatial Brownian motion has per-order covariance

    C_m[ell, ell'] = (2L-1)/2 * sum_j q_j^2 Pbar_{ell,m}(cos theta_j)
                                          Pbar_{ell',m}(cos theta_j)

(q_j the absorbed ring weights, Pbar the fully normalized Legendre values);
cross-m and Re/Im cross-covariances vanish.  In chart coordinates the
covariance assembles into Sigma with the m = 0 block doubled, and the
normative identity Sigma = T T^T ties the convention to the actual operators
(the prefactor above makes the match exact; no rescaling is applied).

Lambda, a fixed factor with Lambda Lambda^T = Sigma from one eigh per order,
makes sqrt(t) * Lambda g, g ~ N(0, I), a sample of the time-t marginal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import indexing
# unused here: bench/tests/test_harness.py checks that the tracer wraps this binding too
from .chart import from_chart  # noqa: F401
from .grid import build_grid
from .harmonics import norm_legendre_table
from .metrics import _fixed_order_eigh, _fixed_order_matmul
from .transform import FMT, OperatorSet, analysis


class IndefiniteCovariance(ValueError):
    """Sigma has an eigenvalue below the indefiniteness threshold."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CovarianceSet:
    """Covariance data for one band limit: the C blocks, and on first access
    the per-order eigenpairs of Sigma, Sigma itself and its factor Lambda."""

    L: int
    blocks: tuple = field(repr=False)  # blocks[m]: (L-m, L-m), index ell-m

    def __post_init__(self):
        for b in self.blocks:
            b.setflags(write=False)

    @cached_property
    def eig(self) -> tuple:  # (w_m, V_m) of each Sigma_m, like np.linalg.eigh
        return tuple(tuple(map(_frozen, _fixed_order_eigh(S)))
                     for S in sigma_blocks(self.blocks))

    @cached_property
    def Sigma(self) -> np.ndarray:  # real symmetric, L^2 x L^2
        return _frozen(build_sigma(self.blocks, self.L))

    @cached_property
    def Lambda(self) -> np.ndarray:  # Lambda @ Lambda.T == Sigma
        return _frozen(factor_sigma(self.eig)[0])


def covariance_blocks(L: int) -> tuple:
    """Per-order covariance blocks C_m, m = 0..L-1."""
    grid = build_grid(L)
    plm = norm_legendre_table(L, np.cos(grid.theta))  # (L, L, 2L)
    w2 = grid.weights ** 2
    pref = (2 * L - 1) / 2.0
    blocks = []
    for m in range(L):
        V = plm[m:, m, :]  # rows ell = m..L-1, cols theta rings
        B = pref * ((V * w2) @ V.T)
        blocks.append(0.5 * (B + B.T))  # exactly symmetric (B is up to round-off)
    return tuple(blocks)


def sigma_blocks(blocks: tuple) -> tuple:
    """Sigma_m, the block of Sigma in each chart part of order m: C_m, doubled at m = 0."""
    return tuple(2.0 * B if m == 0 else B for m, B in enumerate(blocks))


def build_sigma(blocks: tuple, L: int) -> np.ndarray:
    """Chart-coordinate covariance; entries off the (m, part) blocks exactly zero."""
    Sigma, S = np.zeros((L * L, L * L)), sigma_blocks(blocks)
    for m, rows in indexing.block_slots(L):
        Sigma[np.ix_(rows, rows)] = S[m]
    return Sigma


def factor_sigma(eig):
    """Fixed factor Lambda = V sqrt(diag(w)) with Lambda Lambda^T = Sigma.

    `eig` holds the eigenpairs (w_m, V_m) of Sigma_m, m = 0..L-1; V scatters
    them into the (m, part) blocks of Sigma.  Columns run by eigenvalue
    descending, ties in (m, part) block order, then in eigh's order; an
    eigenvalue below -1e-8 raises IndefiniteCovariance, those below 1e-12 are
    clipped to zero, and each eigenvector's largest-magnitude entry is made
    positive.  Returns (Lambda, min_eigenvalue).
    """
    slots = indexing.block_slots(len(eig))
    w = np.concatenate([eig[m][0] for m, _ in slots])
    min_eig = float(w.min())
    if min_eig < -1e-8:
        raise IndefiniteCovariance(f"Sigma indefinite: min eigenvalue {min_eig:.3e}")
    col = np.argsort(np.argsort(-w, kind="stable"))  # the Lambda column of each pair
    scale = np.sqrt(np.where(w < 1e-12, 0.0, w))
    Lambda, start = np.zeros((w.size, w.size)), 0
    for m, rows in slots:
        V, end = eig[m][1], start + len(rows)
        sign = np.where(V[np.argmax(np.abs(V), axis=0), np.arange(len(rows))] < 0, -1.0, 1.0)
        Lambda[np.ix_(rows, col[start:end])] = V * sign * scale[start:end]
        start = end
    return Lambda, min_eig


def build_covariance(L: int) -> CovarianceSet:
    """The C blocks of one band limit; Sigma and Lambda follow on first access."""
    return CovarianceSet(L=L, blocks=covariance_blocks(L))


def sample_mirrored_bm(Lambda: np.ndarray, t: float, n: int, seed) -> np.ndarray:
    """n chart samples of the time-t mirrored-BM marginal: sqrt(t) Lambda g."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = Lambda.shape[0]
    g = np.random.default_rng(seed).standard_normal((n, d))
    Z = _fixed_order_matmul(g, Lambda.T)
    Z *= np.sqrt(t)
    return Z


def mirrored_bm_via_spatial(ops: OperatorSet, t: float, n: int, seed) -> np.ndarray:
    """n coefficient samples U w with spatial Brownian w ~ N(0, t I)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    g = np.random.default_rng(seed).standard_normal((n, ops.d_spatial))
    return np.sqrt(t) * analysis(ops, g)


def empirical_covariance(X: np.ndarray) -> np.ndarray:
    """Sample covariance as the BLAS Gram product R^T R / (n - 1), R = X - mean.

    BLAS threads split the output into blocks, not the sum over samples that
    makes each entry, so every entry is reduced in the same order whatever
    the thread count.  Threads end on different edge tiles, so R gets zero
    columns up to a multiple of 8 (dropped from the result); then the result
    is bit-identical across thread counts.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 samples to estimate a covariance")
    R = np.zeros((n, d + -d % 8))
    np.subtract(X, X.mean(axis=0), out=R[:, :d])
    return (R.T @ R)[:d, :d] / (n - 1)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def chart_labels(L: int):
    """Row/column annotations '(ell,m,part)' in chart order."""
    return [f"({ell},{m},{part})" for ell, m, part in indexing.chart_entries(L)]


# FMT % v, exactly, for a whole array at once.  With X the decimal exponent of
# |v| and p = 16 - X, |v| 10^p = hi + r, where hi = fl(|v| 10^p) and r is the
# rest: Dekker's two-product with 10^p a double-double (Dekker 1971) gives r
# to about 1e-14, so N = hi + round(r) holds the 17 significant digits,
# correctly rounded.  FMT itself formats the values where that is in doubt
# (Grisu's rule; Loitsch 2010): r within 1e-6 of a rounding tie, hi not
# strictly between 1e16 and 1e17, non-finite values and |v| outside
# [1e-280, 1e280], where 10^p or the split could leave the normal range.
_X0 = -281  # least decimal exponent on the fast path; 281 is the greatest
_BLOCK = 8192  # cells formatted per call, which bounds the formatter's temporaries


def _words(cell: bytes) -> np.ndarray:
    """A 24-byte cell, nul-padded, as its 3 little-endian uint64 words."""
    return np.frombuffer(cell.ljust(24, b"\0"), dtype="<u8")


@cache
def _pow10():
    """10^(16 - X) for X = -281 ... 281 as hi + lo, built exactly from integers
    (int / int is correctly rounded), with hi also split into two 26-bit
    halves (Veltkamp)."""
    hi, lo = [], []
    for p in range(16 + _X0, 17 - _X0)[::-1]:
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi, lo = np.array(hi), np.array(lo)
    c = 134217729.0 * hi
    return hi, c - (c - hi), hi - (c - (c - hi)), lo


@cache
def _layouts():
    """The cell layout of each X, built on first use.  A cell starts as the
    sign (byte 0) and the 17 digits (bytes 1-17).  The bytes from `cut` on
    move up by the length of a gap, which is filled with the point (left
    out when no digit follows it) or with the "0." and zeros of the fixed
    form below 1; the scientific form ends in "e+XX" or "e+XXX" at byte 23.
    Returns, per X, the mask of the bytes that stay, the shift in bits and
    the fill without and with the point; and the masks that keep the sign
    and the first k digits, k = 0 ... 17."""
    n = 1 - 2 * _X0
    stay, shift = np.zeros((n, 3), np.uint64), np.zeros(n, np.uint64)
    fill = np.zeros((2, n, 3), np.uint64)
    for i, X in enumerate(range(_X0, 1 - _X0)):
        if -4 <= X < 0:
            cut, gap, tail = 1, b"0." + b"0" * (-X - 1), b""
            bare = gap  # digits always follow
        else:
            fixed = 0 <= X <= 16
            cut, gap, bare = X + 2 if fixed else 2, b".", b""
            tail = b"" if fixed else b"e%+03d" % X
        stay[i], shift[i] = _words(b"\xff" * cut), 8 * len(gap)
        end = _words(tail.rjust(24, b"\0"))
        fill[0, i] = _words(b"\0" * cut + bare) | end
        fill[1, i] = _words(b"\0" * cut + gap) | end
    return stay, shift, fill, np.stack([_words(b"\xff" * (1 + k)) for k in range(18)])


def _scaled(a: np.ndarray, X: np.ndarray):
    """(hi, r): a 10^(16 - X) = hi + r to about 1e-14, with hi = fl(a 10^(16 - X))."""
    p_hi, p_hh, p_hl, p_lo = (t[X - _X0] for t in _pow10())
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    hi = a * p_hi
    return hi, (((ah * p_hh - hi) + ah * p_hl + al * p_hh) + al * p_hl) + a * p_lo


def _format_cells(x: np.ndarray) -> np.ndarray:
    """(n, 24) uint8 cells of the n float64 values x: cell i with its nul
    bytes dropped is the text FMT % x[i]."""
    x = np.ravel(x)
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    X = np.floor(np.log10(a)).astype(np.intp)
    hi, r = _scaled(a, X)
    off = np.flatnonzero((hi < 1e16) | (hi >= 1e17))  # log10 rounded across a power of 10
    X[off] += np.where(hi[off] < 1e16, -1, 1)
    hi[off], r[off] = _scaled(a[off], X[off])
    fast &= (hi > 1e16) & (hi < 1e17) & (np.abs(r - np.floor(r) - 0.5) > 1e-6)
    N = hi.astype(np.int64) + np.rint(r).astype(np.int64)

    D = np.empty((18, x.size), np.uint8)  # D[1:] the digits of N, most significant first
    top = N // 10**9
    V = np.stack([top, N - top * 10**9]).astype(np.uint32)
    for j in range(9):  # digit 8 - j of the top 8 and 17 - j of the low 9 (D[0] gets 0)
        q = V // 10
        D[8 - j::9] = V - q * 10
        V = q
    nsig = ((D[1:] != 0) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    whole = np.where((X >= 0) & (X <= 16), X + 1, 1)  # digits before the point
    keep = np.maximum(nsig, whole)  # %g drops the trailing zeros after the point
    D[1:] += ord("0")
    D[0] = np.where(np.signbit(x), ord("-"), 0)

    stay, shift, fill, kept = _layouts()
    cells = np.zeros((x.size, 24), np.uint8)
    cells[:, :18] = D.T
    W, i = cells.view("<u8"), X - _X0
    W &= kept[keep]
    up = W & ~stay[i]
    W &= stay[i]
    W |= fill[(keep > whole).astype(np.intp), i]
    b = shift[i][:, None]
    W |= up << b
    W[:, 1:] |= up[:, :-1] >> (64 - b)

    text = cells.view("S24")[:, 0]
    zero = x == 0
    text[zero] = np.where(np.signbit(x[zero]), b"-0", b"0")
    slow = np.flatnonzero(~fast & ~zero)
    text[slow] = [(FMT % v).encode() for v in x[slow].tolist()]
    return cells


def _write_rows(f, X: np.ndarray, heads=None) -> None:
    """Write the rows of X to the binary file f as CSV lines: the row's head
    (bytes, from `heads` when given), then each cell as FMT % value.

    The cells of a block of whole rows, at most 8192 (one row, if a row is
    longer), whose bits are not +0.0 go through one `_format_cells` call;
    +0.0 is written as "0", as FMT gives it.  Each cell is nul-padded to 24
    bytes (the longest FMT text, "-2.2250738585072014e-308", has 24
    characters) in the block's buffer, which is written without its nuls.
    """
    n, d = X.shape
    w = 0 if heads is None else heads.itemsize
    rows = max(1, _BLOCK // d)
    line = np.zeros((min(rows, n), w + 25 * d), dtype=np.uint8)
    line[:, w + 24::25] = ord(",")
    line[:, -1] = ord("\n")
    for i0 in range(0, n, rows):
        block = X[i0:i0 + rows]
        out = line[:len(block)]
        if heads is not None:
            out[:, :w] = heads[i0:i0 + rows, None].view(np.uint8)
        cells = out[:, w:].reshape(len(block), d, 25)[:, :, :24].view("S24")[:, :, 0]
        cells[:] = b"0"
        nonzero = block.view(np.uint64) != 0
        cells[nonzero] = _format_cells(block[nonzero]).view("S24")[:, 0]
        f.write(out.tobytes().translate(None, b"\0"))


def sigma_to_csv(mat: np.ndarray, L: int, path) -> None:
    """Write a chart-indexed L^2 x L^2 matrix to `path` as annotated CSV:
    a header of the '(ell,m,part)' labels, then each row after its label,
    each cell FMT % value, streamed in blocks of rows."""
    labels = chart_labels(L)
    mat = np.asarray(mat, dtype=float)
    d = len(labels)
    if mat.shape != (d, d):
        raise ValueError(f"need a {d} x {d} matrix at L = {L}, got shape {mat.shape}")
    with open(path, "wb") as f:
        f.write(("index," + ",".join(f'"{c}"' for c in labels) + "\n").encode())
        _write_rows(f, mat, np.array([f'"{c}",'.encode() for c in labels]))


def save_samples(path, X: np.ndarray, meta: dict, *, raw: bool = False) -> None:
    """Write an n x d sample matrix (CSV rows or raw little-endian float64)
    plus a JSON sidecar `<path>.json` with at least {"L", "t", "n", "seed"}.
    CSV cells are FMT % value, streamed in blocks of rows."""
    path = Path(path)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if raw:
        path.write_bytes(np.ascontiguousarray(X, dtype="<f8").tobytes())
    elif X.size == 0:
        path.write_bytes(b"\n" * max(n, 1))  # n empty rows, or one empty line
    else:
        with open(path, "wb") as f:
            _write_rows(f, X)
    sidecar = dict(meta)
    sidecar.setdefault("n", int(n))
    sidecar["raw"] = bool(raw)
    sidecar["d"] = int(d)
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    )


def load_samples(path):
    """Read a sample matrix and its sidecar; returns (X, meta)."""
    path = Path(path)
    meta = json.loads(Path(str(path) + ".json").read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar of {path} is not a JSON object")
    if not isinstance(meta.get("raw", False), bool) or meta.get("raw") and "d" not in meta:
        raise ValueError(f"sidecar of {path}: raw must be true (with a d) or false")
    for key in ("n", "d"):
        if type(meta.get(key, 0)) is not int or meta.get(key, 0) < 0:
            raise ValueError(f"sidecar of {path}: {key} must be an integer >= 0")
    if meta.get("raw"):
        X = np.frombuffer(path.read_bytes(), dtype="<f8").reshape(-1, meta["d"]).copy()
    elif meta.get("n") == 0 and not path.read_text().strip():
        X = np.empty((0, meta.get("d", 0)))  # loadtxt would warn and guess d = 1
    else:
        X = np.loadtxt(path, delimiter=",", ndmin=2)
    if "n" in meta and X.shape[0] != meta["n"]:
        raise ValueError(f"sample file has {X.shape[0]} rows, sidecar says {meta['n']}")
    if "d" in meta and X.shape[1] != meta["d"]:
        raise ValueError(f"sample file {path} has {X.shape[1]} columns, "
                         f"sidecar says d = {meta['d']}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"sample file {path} holds non-finite entries")
    return X, meta
