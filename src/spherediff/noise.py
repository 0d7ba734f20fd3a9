"""Chart covariance of spherical mirrored Brownian motion, and samplers.

The image v = U w of spatial Brownian motion has per-order covariance

    C_m[ell, ell'] = (2L-1)/2 * sum_j q_j^2 Pbar_{ell,m}(cos theta_j)
                                          Pbar_{ell',m}(cos theta_j)

(q_j the absorbed ring weights, Pbar the fully normalized Legendre values);
cross-m and Re/Im cross-covariances vanish.  In chart coordinates the
covariance assembles into Sigma with the m = 0 block doubled, and the
normative identity Sigma = T T^T ties the convention to the actual operators
(the prefactor above makes the match exact; no rescaling is applied).

The Sigma_m are one (L, L, L) stack [m, ell, ell'], zero where ell or ell' < m.
Their symmetric roots, from one batched eigh, make sqrt(t) * Sigma^{1/2} g,
g ~ N(0, I), a sample of the time-t marginal; they are applied one (m, part)
block at a time and Sigma^{1/2} is never formed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import indexing
# unused here: bench/tests/test_harness.py checks that the tracer wraps this binding too
from .chart import from_chart  # noqa: F401
from .grid import build_grid
from .harmonics import norm_legendre_table
from .transform import OperatorSet, analysis


_DRAW_BLOCK = 1 << 17  # normals per block of rows drawn by the two samplers
_PANEL_SHARE = 8  # a later covariance block's terms enter through panels of L^2 // 8 columns


class IndefiniteCovariance(ValueError):
    """Sigma has an eigenvalue below the indefiniteness threshold."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CovarianceSet:
    """Covariance data for one band limit: the stack of the Sigma_m, and on first
    access its eigenpairs, Sigma itself and the stack of the roots Sigma_m^{1/2}."""

    L: int
    sigma: np.ndarray = field(repr=False)  # (L, L, L): Sigma_m, zero where ell or ell' < m

    def __post_init__(self):
        self.sigma.setflags(write=False)

    @cached_property
    def eig(self) -> tuple:  # (w, V) of `_stack_eigh`: Sigma_m's eigenpairs in slots k >= m
        return tuple(map(_frozen, _stack_eigh(self.sigma)))

    @cached_property
    def Sigma(self) -> np.ndarray:  # real symmetric, L^2 x L^2
        return _frozen(build_sigma(self.sigma))

    @cached_property
    def root(self) -> np.ndarray:  # root[m] @ root[m] == Sigma_m, symmetric
        return _frozen(factor_sigma(self.eig)[0])


def covariance_blocks(L: int) -> np.ndarray:
    """The stack of the Sigma_m (C_m, doubled at m = 0) from one stacked Legendre product."""
    grid = build_grid(L)
    P = norm_legendre_table(L, np.cos(grid.theta)).transpose(1, 0, 2)  # [m, ell, ring]
    B = (2 * L - 1) / 2.0 * ((P * grid.weights ** 2) @ P.transpose(0, 2, 1))
    B[0] *= 2.0
    return 0.5 * (B + B.transpose(0, 2, 1))  # exactly symmetric (B is up to round-off)


def sigma_covariance(Sigma) -> CovarianceSet:
    """The covariance set of a dense chart-coordinate Sigma: its (m, Re) blocks, gathered."""
    m, ell, re, _, _ = indexing.order_slots(L := math.isqrt(len(Sigma)))
    slot, real = np.zeros((L, L), dtype=np.intp), np.zeros((L, L), dtype=bool)
    slot[m, ell], real[m, ell] = re, True
    S = np.asarray(Sigma, dtype=float)[slot[:, :, None], slot[:, None, :]]
    return CovarianceSet(L=L, sigma=np.where(real[:, :, None] & real[:, None, :], S, 0.0))


def build_sigma(sigma: np.ndarray) -> np.ndarray:
    """The chart-coordinate Sigma of the stack of the Sigma_m; zero off the (m, part) blocks."""
    L = len(sigma)
    Sigma = np.zeros((L * L, L * L))
    for m, rows in indexing.block_slots(L):
        Sigma[np.ix_(rows, rows)] = sigma[m, m:, m:]
    return Sigma


def _stack_eigh(S):
    """np.linalg.eigh of the semidefinite blocks S[m, m:, m:] of a stack, zero elsewhere,
    in one batched call: the pads ell < m get the diagonal -1, below every eigenvalue, so
    order m's eigenpairs fill the slots k >= m and each pad's is (-1, its unit vector)."""
    S, (m, ell) = np.array(S, dtype=float), np.tril_indices(len(S), -1)
    S[m, ell, ell] = -1.0
    return np.linalg.eigh(S)


def factor_sigma(eig):
    """The stack of the roots Sigma_m^{1/2} = V_m sqrt(diag(w_m)) V_m^T of an eigenpair stack
    (`_stack_eigh`): an eigenvalue of a slot k >= m below -1e-8 raises IndefiniteCovariance,
    and the others and the pads are clipped at zero.  Returns (roots, min_eigenvalue)."""
    w, V = eig
    min_eig = float(w[np.triu_indices(len(w))].min())
    if min_eig < -1e-8:
        raise IndefiniteCovariance(f"Sigma indefinite: min eigenvalue {min_eig:.3e}")
    return (V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ V.transpose(0, 2, 1), min_eig


def _block_matmul(K, X, out=None):
    """K X for the block-diagonal K with (m, part) blocks K[m, m:, m:] of a stack, X with L^2
    chart rows, into `out` (new if None), which may be X: each block reads only its own rows."""
    out = np.empty(X.shape) if out is None else out
    for m, rows in indexing.block_slots(len(K)):
        out[rows] = K[m, m:, m:] @ X[rows]
    return out


def build_covariance(L: int) -> CovarianceSet:
    """The stack of the Sigma_m of one band limit; Sigma and its roots follow on first access."""
    return CovarianceSet(L=L, sigma=covariance_blocks(L))


def sample_mirrored_bm(cov: CovarianceSet, t: float, n: int, seed) -> np.ndarray:
    """n chart samples of the time-t mirrored-BM marginal: sqrt(t) Sigma^{1/2} g.

    The normals g, one (n, L^2) stream, are drawn in blocks of rows into an
    (L^2, n) buffer, and each (m, part) block of Sigma^{1/2} multiplies its
    rows of that buffer in place; the samples are the transposed buffer, so
    the working set is one copy of them.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng, d = np.random.default_rng(seed), cov.L * cov.L
    G = np.empty((d, n))
    step = max(1, _DRAW_BLOCK // d)
    for i in range(0, n, step):
        G[:, i:i + step] = rng.standard_normal((min(step, n - i), d)).T
    Z = _block_matmul(cov.root, G, out=G).T
    Z *= np.sqrt(t)
    return Z


def mirrored_bm_via_spatial(ops: OperatorSet, t: float, n: int, seed) -> np.ndarray:
    """n coefficient samples U w with spatial Brownian w ~ N(0, t I); the normals,
    one (n, d_X) stream, are drawn and analysed in blocks of rows."""
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng, d = np.random.default_rng(seed), ops.d_spatial
    A, step = np.empty((n, ops.d_spectral), dtype=complex), max(1, _DRAW_BLOCK // d)
    for i in range(0, n, step):
        A[i:i + step] = np.sqrt(t) * analysis(ops, rng.standard_normal((min(step, n - i), d)))
    return A


def empirical_covariance(X: np.ndarray) -> np.ndarray:
    """Sample covariance R^T R / (n - 1), R = X - mean."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to estimate a covariance")
    R = X - X.mean(axis=0)
    C = R.T @ R
    C /= n - 1
    return C


def _covariance_rows(n: int, d: int) -> int:
    """Rows per block of `mirrored_bm_covariance` for n samples of d coordinates.

    min(max(512, n // 4), max(2048, d)): a moderate n is split into about
    four blocks, which frees most of its samples' memory, and no block grows
    past max(2048, d) rows whatever n is.  Each later block also costs two
    passes over the accumulator's upper triangle (its Gram and merge term),
    which 2048 rows, or d where more, make a small share of its product's
    work.  Where n is at most such a block and d more, blocks would save at
    most d rows, the accumulator's size, so all n rows are one block.
    """
    rows = min(max(512, n // 4), max(2048, d))
    return n if n <= rows + d else rows


def mirrored_bm_covariance(cov: CovarianceSet, t: float, n: int, seed) -> np.ndarray:
    """`empirical_covariance(sample_mirrored_bm(cov, t, n, seed))`, to round-off,
    without the n x L^2 samples: they are drawn and folded in blocks of rows.

    Every block is drawn by `sample_mirrored_bm` from one Generator, so the
    blocks continue one normal stream, and is centred on its own mean in
    place.  The first block's Gram is the accumulator (the bits of the dense
    estimator when it is the only block).  Each later one adds its Gram and
    the rank-1 term (a b / (a + b)) delta delta^T of the pairwise merge of
    Chan, Golub & LeVeque (1983), delta the block's mean less the running one
    (a rows so far, b in the block), into the upper triangle only, one panel
    of about L^2 / 8 columns at a time; the upper triangle is mirrored into
    the lower one at the end, so the result is exactly symmetric.  The block
    size is `_covariance_rows`.
    """
    if n < 2:
        raise ValueError("need at least 2 samples to estimate a covariance")
    rng, d = np.random.default_rng(seed), cov.L * cov.L
    rows, w = _covariance_rows(n, d), max(1, d // _PANEL_SHARE)
    C, mean = np.empty((d, d)), None
    for a in range(0, n, rows):
        Z = sample_mirrored_bm(cov, t, min(rows, n - a), rng)
        m = Z.mean(axis=0)
        Z -= m
        if mean is None:
            np.matmul(Z.T, Z, out=C)  # the bits of Z.T @ Z
            mean = m
        else:
            b, delta = len(Z), m - mean
            u, panel = delta * np.sqrt(a * b / (a + b)), np.empty(d * w)
            for j0 in range(0, d, w):  # Z^T Z + u u^T into rows 0:j1 of columns j0:j1
                j1 = min(j0 + w, d)
                P = panel[:j1 * (j1 - j0)].reshape(j1, j1 - j0)
                np.matmul(Z[:, :j1].T, Z[:, j0:j1], out=P)
                C[:j1, j0:j1] += P
                np.multiply.outer(u[:j1], u[j0:j1], out=P)
                C[:j1, j0:j1] += P
            mean += delta * (b / (a + b))
            del panel, P
        del Z  # before the next block is drawn
    if rows < n:  # the lower triangle from the upper one
        for j0 in range(0, d, w):
            low = np.tri(d - j0, min(w, d - j0), -1, dtype=bool)
            np.copyto(C[j0:, j0:j0 + w], C[j0:j0 + w, j0:].T, where=low)
    C /= n - 1
    return C


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

FMT = "%.17g"  # the 17-significant-digit format of every CSV value


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
    Returns, per X, the mask of the bytes that move and the shift in bits;
    the fill without the point (row i of X = _X0 + i) and with it (row
    i + 563); and the masks that keep the sign and the first k digits,
    k = 0 ... 17."""
    n = 1 - 2 * _X0
    move, shift = np.zeros((n, 3), np.uint64), np.zeros(n, np.uint64)
    fill = np.zeros((2 * n, 3), np.uint64)
    for i, X in enumerate(range(_X0, 1 - _X0)):
        if -4 <= X < 0:
            cut, gap, tail = 1, b"0." + b"0" * (-X - 1), b""
            bare = gap  # digits always follow
        else:
            fixed = 0 <= X <= 16
            cut, gap, bare = X + 2 if fixed else 2, b".", b""
            tail = b"" if fixed else b"e%+03d" % X
        move[i], shift[i] = ~_words(b"\xff" * cut), 8 * len(gap)
        end = _words(tail.rjust(24, b"\0"))
        fill[i] = _words(b"\0" * cut + bare) | end
        fill[n + i] = _words(b"\0" * cut + gap) | end
    return move, shift, fill, np.stack([_words(b"\xff" * (1 + k)) for k in range(18)])


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

    move, shift, fill, kept = _layouts()
    cells = np.zeros((x.size, 24), np.uint8)
    cells[:, :18] = D.T
    W, i = cells.view("<u8"), X - _X0  # each gather: one np.take of whole rows
    W &= np.take(kept, keep, axis=0)
    up = np.take(move, i, axis=0)  # the mask of the bytes that move, then those bytes
    up &= W
    W ^= up
    W |= np.take(fill, (keep > whole) * len(move) + i, axis=0)
    # shift and carry on the flat words; word 2's top bytes are empty (the 17
    # digits and a gap of at most 6 bytes end by byte 23), so it carries nothing
    b = np.repeat(np.take(shift, i), 3)
    W, up = W.reshape(-1), up.reshape(-1)
    carry = np.right_shift(up, 64 - b)
    W |= np.left_shift(up, b, out=up)
    W[1:] |= carry[:-1]

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


def _blank(path) -> bool:
    """Whether a file holds only ASCII whitespace (what bytes.strip removes),
    read 64 KiB at a time: a file with data stops at its first block."""
    with open(path, "rb") as f:
        while block := f.read(1 << 16):
            if not block.isspace():
                return False
    return True


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
    elif _blank(path):  # no data: loadtxt would warn and guess d = 1
        X = np.empty((0, meta.get("d", 0)))
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
