"""Chart covariance of spherical mirrored Brownian motion, and samplers.

The image v = U w of spatial Brownian motion has per-order covariance

    C_m[ell, ell'] = (2L-1)/2 * sum_j q_j^2 Pbar_{ell,m}(cos theta_j)
                                          Pbar_{ell',m}(cos theta_j)

(q_j the absorbed ring weights, Pbar the fully normalized Legendre values);
cross-m and Re/Im cross-covariances vanish.  In chart coordinates the
covariance assembles into Sigma with the m = 0 block doubled, and the
normative identity Sigma = T T^T ties the convention to the actual operators
(the prefactor above makes the match exact; no rescaling is applied).

Lambda is a fixed symmetric-eigendecomposition factor with Lambda Lambda^T =
Sigma, so sqrt(t) * Lambda g, g ~ N(0, I), samples the time-t marginal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import indexing
from .chart import from_chart
from .grid import build_grid
from .harmonics import norm_legendre_table
from .metrics import _fixed_order_eigh, _fixed_order_matmul
from .transform import FMT, OperatorSet, analysis


class IndefiniteCovariance(ValueError):
    """Sigma has an eigenvalue below the indefiniteness threshold."""


@dataclass(frozen=True)
class CovarianceSet:
    """Covariance data for one band limit: C blocks, Sigma, and its factor."""

    L: int
    blocks: tuple = field(repr=False)        # blocks[m]: (L-m, L-m), index ell-m
    Sigma: np.ndarray = field(repr=False)    # real symmetric, L^2 x L^2
    Lambda: np.ndarray = field(repr=False)   # Lambda @ Lambda.T == Sigma

    def __post_init__(self):
        for b in self.blocks:
            b.setflags(write=False)
        self.Sigma.setflags(write=False)
        self.Lambda.setflags(write=False)

    def C(self, ell: int, m: int, ellp: int) -> float:
        """Covariance coefficient C[(ell,m),(ellp,m)]; m must not exceed ell, ellp."""
        if not (0 <= m <= min(ell, ellp) and max(ell, ellp) < self.L):
            raise ValueError(f"invalid C index (ell={ell}, m={m}, ell'={ellp})")
        return float(self.blocks[m][ell - m, ellp - m])


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


def build_sigma(blocks: tuple, L: int) -> np.ndarray:
    """Chart-coordinate covariance; entries off the (m, part) blocks exactly zero."""
    Sigma = np.zeros((L * L, L * L))
    for m, B in enumerate(blocks):
        ells = np.arange(m, L)
        if m == 0:
            Sigma[np.ix_(ells * ells, ells * ells)] = 2.0 * B
        else:
            for i in ells * ells + 2 * m - 1, ells * ells + 2 * m:  # the Re, then the Im slots
                Sigma[np.ix_(i, i)] = B
    return Sigma


def block_eigh(A: np.ndarray):
    """Eigendecomposition of a real symmetric matrix, one `eigh` per block.

    The blocks are the connected components of the symmetrised nonzero
    pattern of A; permuted to them, A is block-diagonal, so the union of the
    block eigenpairs is an eigendecomposition of A.  For `build_sigma`'s
    output these are the (m, part) blocks; a dense A is one block and goes to
    `eigh` whole.  Returns (w, V) like `np.linalg.eigh`: w ascending
    (ties in block order), V's columns the matching orthonormal eigenvectors.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    linked = A != 0
    linked |= linked.T
    blocks = []
    seen = np.zeros(n, dtype=bool)
    for i in range(n):
        if seen[i]:
            continue
        members = np.zeros(n, dtype=bool)
        members[i] = True
        frontier = members.copy()
        while frontier.any():  # breadth-first: every index linked to the block so far
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        blocks.append(np.flatnonzero(members))
    if len(blocks) <= 1:
        return _fixed_order_eigh(A)
    pairs = [_fixed_order_eigh(A[np.ix_(idx, idx)]) for idx in blocks]
    w = np.concatenate([wb for wb, _ in pairs])
    order = np.argsort(w, kind="stable")
    col = np.empty(n, dtype=np.intp)
    col[order] = np.arange(n)  # output column of each eigenpair in block order
    V = np.zeros((n, n))
    start = 0
    for idx, (_, Vb) in zip(blocks, pairs):
        V[np.ix_(idx, col[start:start + idx.size])] = Vb
        start += idx.size
    return w[order], V


def factor_sigma(Sigma: np.ndarray):
    """Fixed factor Lambda = V sqrt(diag(w)) with Lambda Lambda^T = Sigma.

    The eigenpairs come from `block_eigh`, so Sigma is factored per (m, part)
    block.  Eigenvalues are sorted descending; one below -1e-8 raises
    IndefiniteCovariance and those below 1e-12 are clipped to zero.  Each
    eigenvector's sign is fixed so its largest-magnitude entry is positive.
    Returns (Lambda, min_eigenvalue).
    """
    Sigma = np.asarray(Sigma, dtype=float)
    sym_err = float(np.max(np.abs(Sigma - Sigma.T)))
    if sym_err > 1e-12:
        raise ValueError(f"Sigma asymmetric by {sym_err:.3e}")
    w, V = block_eigh(Sigma)
    min_eig = float(w.min())
    if min_eig < -1e-8:
        raise IndefiniteCovariance(f"Sigma indefinite: min eigenvalue {min_eig:.3e}")
    order = np.argsort(-w, kind="stable")  # descending, ties keep block_eigh's order
    w, V = w[order], V[:, order]
    w = np.where(w < 1e-12, 0.0, w)
    peak = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    V[:, peak < 0] *= -1.0
    return V * np.sqrt(w), min_eig


def build_covariance(L: int) -> CovarianceSet:
    """Compute C blocks, Sigma, and Lambda for one band limit."""
    blocks = covariance_blocks(L)
    Sigma = build_sigma(blocks, L)
    Lambda, _ = factor_sigma(Sigma)
    return CovarianceSet(L=L, blocks=blocks, Sigma=Sigma, Lambda=Lambda)


def sample_mirrored_bm(Lambda: np.ndarray, t: float, n: int, seed) -> np.ndarray:
    """n chart samples of the time-t mirrored-BM marginal: sqrt(t) Lambda g."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = Lambda.shape[0]
    g = np.random.default_rng(seed).standard_normal((n, d))
    return np.sqrt(t) * _fixed_order_matmul(g, Lambda.T)


def lift_samples(Z: np.ndarray, L: int) -> np.ndarray:
    """Chart samples (n, L^2) -> constrained coefficient samples (n, L^2) complex."""
    return from_chart(np.atleast_2d(np.asarray(Z, dtype=float)), L)


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


def sigma_to_csv(mat: np.ndarray, L: int) -> str:
    """Chart-indexed matrix as annotated CSV."""
    labels = chart_labels(L)
    mat = np.asarray(mat, dtype=float)
    row_fmt = ",".join([FMT] * mat.shape[1])  # one % call formats a whole row
    lines = ["index," + ",".join(f'"{c}"' for c in labels)]
    for lab, row in zip(labels, mat):
        lines.append(f'"{lab}",' + row_fmt % tuple(row.tolist()))
    return "\n".join(lines) + "\n"


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
    if meta.get("raw"):
        X = np.frombuffer(path.read_bytes(), dtype="<f8").reshape(-1, meta["d"])
        X = X.copy()
    elif meta.get("n") == 0 and not path.read_text().strip():
        X = np.empty((0, int(meta.get("d", 0))))  # loadtxt would warn and guess d = 1
    else:
        X = np.loadtxt(path, delimiter=",", ndmin=2)
    if "n" in meta and X.shape[0] != meta["n"]:
        raise ValueError(f"sample file has {X.shape[0]} rows, sidecar says {meta['n']}")
    if "d" in meta and X.shape[1] != meta["d"]:
        raise ValueError(f"sample file {path} has {X.shape[1]} columns, "
                         f"sidecar says d = {meta['d']}")
    return X, meta
