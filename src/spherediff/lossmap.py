"""Score-matching losses in both domains and the frequency/spatial bound.

The frequency loss ||s_hat - Sigma s_ref||^2 uses the complex 2-norm over
coefficient space; for chart-represented scores (lifted via the chart
bijection) this equals a weighted quadratic form with weight 1 on m = 0 slots
and 2 elsewhere.  The spatial loss is the Q-weighted squared norm.

The bound machinery decomposes the chart-to-grid synthesis map M into the
pseudoinverse part T+ = T^T Sigma^{-1} (a right inverse of T, since
T T^T = Sigma) and a kernel part Z = M - T+ with T Z = 0.  The inequality
checked by `check_theorem2_bound` is, per trial,

    ||s_hat - Sigma s_ref||^2  <=  2 ( ||s' - T^T s_ref||_Q^2
                                       + ||U Z Sigma s_ref||^2 )

with s_ref the Gaussian transition-kernel chart score and s' the auxiliary
spatial score x -> Y s_hat(U x).  Everything is evaluated on closed-form
VP-schedule kernels, so no training is involved.  The test score s_hat
contains a random linear map G applied at the one point z_t, so each trial
draws G z_t from its exact law N(0, 0.25 |z_t|^2 / d I), not a d x d
matrix, and all trials are evaluated together as row-batched products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import chart_linear_map, chart_weights, from_chart, synthesis_matrix, to_chart
from .metrics import _fixed_order_matmul
from .noise import block_eigh
from .sde import ScoreField, VpSchedule
from .transform import (ConstraintViolation, OperatorSet, analysis, mirror_residual, q_norm_sq,
                        synthesis)


@dataclass(frozen=True)
class BoundOperators:
    """T, its right pseudoinverse, the kernel part of the synthesis map, and
    the eigenpairs of Sigma the pseudoinverse came from."""

    L: int
    T: np.ndarray = field(repr=False)        # L^2 x d_X
    Tplus: np.ndarray = field(repr=False)    # d_X x L^2
    Z: np.ndarray = field(repr=False)        # d_X x L^2
    M: np.ndarray = field(repr=False)        # d_X x L^2, M = Tplus + Z
    w: np.ndarray = field(repr=False)        # eigenvalues of Sigma, ascending
    V: np.ndarray = field(repr=False)        # L^2 x L^2, the matching eigenvectors
    sigma_cond: float                        # condition number of Sigma

    def __post_init__(self):
        for arr in (self.T, self.Tplus, self.Z, self.M, self.w, self.V):
            arr.setflags(write=False)


def build_bound_operators(ops: OperatorSet, Sigma: np.ndarray) -> BoundOperators:
    """Assemble T+ = T^T Sigma^{-1} and Z = M - T+ (eigen pseudoinverse)."""
    T = chart_linear_map(ops)
    M = synthesis_matrix(ops)
    w, V = block_eigh(Sigma)
    keep = w > 1e-10
    if not np.any(keep):
        raise ValueError("Sigma has no eigenvalue above the pseudoinverse threshold")
    cond = float(w.max() / w[keep].min()) if np.all(keep) else float("inf")
    Sigma_pinv = _fixed_order_matmul(V[:, keep] / w[keep], V[:, keep].T)
    Tplus = _fixed_order_matmul(T.T, Sigma_pinv)
    return BoundOperators(L=ops.L, T=T, Tplus=Tplus, Z=M - Tplus, M=M, w=w, V=V,
                          sigma_cond=cond)


def _eval(score, x, t):
    return score(x, t) if callable(score) else np.asarray(score)


def loss_spatial(s_hat, s_ref, ops: OperatorSet, x=None, t=None) -> float:
    """||s_hat - s_ref||_Q^2; score arguments may be vectors or callables."""
    d = np.asarray(_eval(s_hat, x, t), dtype=float) - np.asarray(s_ref, dtype=float)
    return q_norm_sq(ops, d)


def chart_sq_norm(dz: np.ndarray, L: int) -> float:
    """Complex squared 2-norm of the lifted chart vector (m > 0 counted twice)."""
    dz = np.asarray(dz, dtype=float)
    return float(np.sum(chart_weights(L) * dz * dz))


def coerce_chart_score(s, L: int, *, tol: float = 1e-8) -> np.ndarray:
    """Accept a chart vector or a mirror-symmetric complex coefficient vector."""
    s = np.asarray(s)
    if np.iscomplexobj(s):
        resid = mirror_residual(s, L)
        if resid > tol:
            raise ConstraintViolation(
                f"frequency score breaks conjugate symmetry by {resid:.3e}"
            )
        return to_chart(s, L, tol=tol)
    return s.astype(float)


def loss_frequency(s_hat, s_ref, Sigma: np.ndarray, L: int, a=None, t=None) -> float:
    """||s_hat - Sigma s_ref||^2 in the complex norm, via chart coordinates.

    `s_ref` is the transition-kernel chart score (Sigma is applied here);
    either score may be a complex coefficient vector (symmetry enforced).
    """
    sh = coerce_chart_score(_eval(s_hat, a, t), L)
    sr = coerce_chart_score(_eval(s_ref, a, t), L)
    return chart_sq_norm(sh - np.asarray(Sigma, dtype=float) @ sr, L)


def loss_frequency_complex(s_hat, s_ref, Sigma: np.ndarray, L: int) -> float:
    """Same loss evaluated through the explicit complex lift (cross-check)."""
    sh = coerce_chart_score(s_hat, L)
    sr = coerce_chart_score(s_ref, L)
    diff = from_chart(sh - Sigma @ sr, L)
    return float(np.vdot(diff, diff).real)


def auxiliary_spatial_score(s_hat_chart: ScoreField, ops: OperatorSet) -> ScoreField:
    """Spatial score x -> Y s_hat(U x), lifted through the chart.

    Mirror symmetry of the lifted score makes the output real; the imaginary
    residue is checked against 1e-10 and stripped.
    """
    if s_hat_chart.domain != "chart":
        raise ValueError("auxiliary score requires a chart-domain score field")
    L = ops.L

    def fn(x, t):
        z = to_chart(analysis(ops, np.atleast_2d(x)), L)
        s_complex = from_chart(np.asarray(s_hat_chart(z, t), dtype=float), L)
        return synthesis(ops, s_complex, imag_tol=1e-10).reshape(np.shape(x))

    return ScoreField(fn=fn, domain="spatial")


def _draw_trials(rng, n_trials: int, d: int, schedule: VpSchedule, t_floor: float) -> dict:
    """The random inputs of n_trials bound trials, one row (or entry) per trial."""
    return {
        "t": rng.uniform(t_floor, schedule.T, n_trials),
        "z0": rng.standard_normal((n_trials, d)),
        "xi": rng.standard_normal((n_trials, d)),      # kernel noise behind z_t
        "g": rng.standard_normal((n_trials, d)),       # normals behind G z_t
        "alpha": rng.uniform(0.0, 2.0, n_trials),
        "offset": rng.normal(0.0, 0.5, (n_trials, d)),
    }


def _trial_terms(ops: OperatorSet, bops: BoundOperators, schedule: VpSchedule,
                 draws: dict):
    """Per-trial (LHS, Q-norm term, gap term) of the inequality, row-batched.

    Every product goes through `_fixed_order_matmul` and every per-trial
    quadratic form is one einsum row reduction, so the terms have the same
    bits under any BLAS thread count.
    """
    t, z0 = draws["t"], draws["z0"]
    d = z0.shape[1]
    m = np.array([schedule.mean_coeff(s) for s in t])[:, None]
    v = np.array([schedule.marginal_var(s) for s in t])[:, None]
    lam = np.sqrt(np.clip(bops.w, 0.0, None))  # V diag(lam) is a square root of Sigma
    z_t = m * z0 + np.sqrt(v) * _fixed_order_matmul(draws["xi"] * lam, bops.V.T)

    # kernel score of N(m z0, v Sigma): Sigma s_ref = -(z_t - m z0)/v needs no
    # inverse; s_ref = Sigma^+ (Sigma s_ref) through the eigenpairs of Sigma
    sigma_s_ref = -(z_t - m * z0) / v
    keep = bops.w > 1e-10
    Vk = bops.V[:, keep]
    s_ref = _fixed_order_matmul(_fixed_order_matmul(sigma_s_ref, Vk) / bops.w[keep], Vk.T)

    # test score s_hat = G z_t + offset + alpha Sigma s_ref with G_ij ~ N(0, 0.25/d)
    # i.i.d.; given z_t, G z_t ~ N(0, 0.25 |z_t|^2 / d I), drawn as such
    g_z = np.sqrt(0.25 / d * np.einsum("ij,ij->i", z_t, z_t))[:, None] * draws["g"]
    s_hat = g_z + draws["offset"] + draws["alpha"][:, None] * sigma_s_ref
    e = s_hat - sigma_s_ref
    lhs = np.einsum("ij,j,ij->i", e, chart_weights(ops.L), e)

    # auxiliary spatial score at x_t = M z_t: U x_t lifts back to z_t, so
    # s'(x_t) = Y from_chart(s_hat) = M s_hat; it is compared with T^T s_ref
    r = _fixed_order_matmul(s_hat, bops.M.T) - _fixed_order_matmul(s_ref, bops.T)
    term_q = np.einsum("ij,j,ij->i", r, ops.q, r)

    # U x is conjugate-symmetric for real x = Z Sigma s_ref, so its squared
    # norm is the chart-weighted one of T x = to_chart(U x)
    gap = _fixed_order_matmul(sigma_s_ref, _fixed_order_matmul(bops.T, bops.Z).T)
    return lhs, term_q, np.einsum("ij,j,ij->i", gap, chart_weights(ops.L), gap)


def check_theorem2_bound(ops: OperatorSet, Sigma: np.ndarray, schedule: VpSchedule,
                         n_trials: int, seed, *, bops: BoundOperators | None = None) -> dict:
    """Monte Carlo check of the frequency-vs-spatial loss inequality.

    Each trial draws t ~ U(1e-3, T), z0 ~ N(0, I), z_t from the VP kernel
    N(m(t) z0, v(t) Sigma) and a test score s_hat = G z_t + offset +
    alpha Sigma s_ref, with G_ij ~ N(0, 0.25/d) i.i.d., offset ~ N(0, 0.25 I)
    and alpha ~ U(0, 2): near-oracle and far-off scores alike.  Only G z_t
    enters, so it is drawn from its exact law N(0, 0.25 |z_t|^2/d I) with d
    normals instead of a d x d matrix.  All trials are drawn as arrays and
    evaluated as one batch (memory O(n_trials * d_X)); a trial is a
    violation when slack = RHS - LHS < -1e-8 * max(1, RHS).  `bops` are
    the bound operators of (ops, Sigma), built here when not given; their
    eigenpairs of Sigma are reused, so no eigendecomposition runs here.
    """
    if bops is None:
        bops = build_bound_operators(ops, Sigma)
    draws = _draw_trials(np.random.default_rng(seed), n_trials, ops.L * ops.L, schedule, 1e-3)
    lhs, term_q, gap_sq = _trial_terms(ops, bops, schedule, draws)
    rhs = 2.0 * (term_q + gap_sq)
    slack = rhs - lhs
    violations = int(np.sum(slack < -1e-8 * np.maximum(1.0, rhs)))
    return {
        "n_trials": int(n_trials),
        "violations": violations,
        "min_slack": float(slack.min()),
        "mean_lhs": float(lhs.mean()),
        "mean_rhs": float(rhs.mean()),
        "mean_gap_term": float(gap_sq.mean()),
    }
