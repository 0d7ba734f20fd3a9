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
from functools import cached_property
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


def sigma_to_csv(mat: np.ndarray, L: int, path) -> None:
    """Write a chart-indexed L^2 x L^2 matrix to `path` as annotated CSV, row by row.

    Each cell is FMT % value, which writes +0.0 as "0".  The text of every
    upper-triangle cell is kept, packed in 24-byte slots (the longest FMT
    text, "-2.2250738585072014e-308", has 24 characters); a cell below the
    diagonal whose bits equal its mirror's reuses that text, so a symmetric
    matrix formats each mirror pair once.  Any other cell is formatted alone.
    """
    labels = chart_labels(L)
    mat = np.ascontiguousarray(mat, dtype=float)
    d = len(labels)
    if mat.shape != (d, d):
        raise ValueError(f"need a {d} x {d} matrix at L = {L}, got shape {mat.shape}")
    bits = mat.view(np.uint64)
    start = np.concatenate([[0], np.cumsum(np.arange(d, 0, -1))])  # row i's cells i..d-1
    mirror = start[:-1] - np.arange(d)  # cell (j, i), j <= i, is upper[mirror[j] + i]
    upper = np.full(start[-1], b"0", dtype="S24")
    line = np.zeros((d, 25), dtype=np.uint8)  # each cell nul-padded, then "," (last "\n")
    line[:, 24] = ord(",")
    line[-1, 24] = ord("\n")
    cells = line[:, :24].view("S24")[:, 0]
    with open(path, "wb") as f:
        f.write(("index," + ",".join(f'"{c}"' for c in labels) + "\n").encode())
        for i, lab in enumerate(labels):
            nz = np.flatnonzero(bits[i, i:])  # cells whose bits are not +0.0
            if nz.size:  # one % call formats them all
                text = ",".join([FMT] * nz.size) % tuple(mat[i, i + nz].tolist())
                upper[start[i] + nz] = text.encode().split(b",")
            cells[:i] = upper[mirror[:i] + i]
            cells[i:] = upper[start[i]:start[i + 1]]
            for j in np.flatnonzero(bits[i, :i] != bits[:i, i]).tolist():
                cells[j] = FMT % mat[i, j]
            f.write(f'"{lab}",'.encode())
            f.write(line.tobytes().translate(None, b"\0"))


def save_samples(path, X: np.ndarray, meta: dict, *, raw: bool = False) -> None:
    """Write an n x d sample matrix (CSV rows or raw little-endian float64)
    plus a JSON sidecar `<path>.json` with at least {"L", "t", "n", "seed"}."""
    path = Path(path)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if raw:
        path.write_bytes(np.ascontiguousarray(X, dtype="<f8").tobytes())
    else:
        row_fmt = ",".join([FMT] * X.shape[1])  # one % call formats a whole row
        lines = [row_fmt % tuple(row.tolist()) for row in X]
        path.write_text("\n".join(lines) + "\n")
    sidecar = dict(meta)
    sidecar.setdefault("n", int(X.shape[0]))
    sidecar["raw"] = bool(raw)
    sidecar["d"] = int(X.shape[1])
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
