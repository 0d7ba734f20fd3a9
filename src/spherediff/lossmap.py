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
VP-schedule kernels, so no training is involved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .chart import chart_linear_map, chart_weights, from_chart, synthesis_matrix, to_chart
from .noise import block_eigh
from .sde import ScoreField, VpSchedule
from .transform import ConstraintViolation, OperatorSet, mirror_residual, q_norm_sq


@dataclass(frozen=True)
class BoundOperators:
    """T, its right pseudoinverse, and the kernel part of the synthesis map."""

    L: int
    T: np.ndarray = field(repr=False)        # L^2 x d_X
    Tplus: np.ndarray = field(repr=False)    # d_X x L^2
    Z: np.ndarray = field(repr=False)        # d_X x L^2
    M: np.ndarray = field(repr=False)        # d_X x L^2, M = Tplus + Z
    sigma_cond: float                        # condition number of Sigma

    def __post_init__(self):
        for arr in (self.T, self.Tplus, self.Z, self.M):
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
    Sigma_pinv = (V[:, keep] / w[keep]) @ V[:, keep].T
    Tplus = T.T @ Sigma_pinv
    return BoundOperators(L=ops.L, T=T, Tplus=Tplus, Z=M - Tplus, M=M, sigma_cond=cond)


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


def auxiliary_spatial_score(s_hat_chart: ScoreField, ops: OperatorSet, *,
                            imag_tol: float = 1e-10) -> ScoreField:
    """Spatial score x -> Y s_hat(U x), lifted through the chart.

    Mirror symmetry of the lifted score makes the output real; the imaginary
    residue is checked against `imag_tol` and stripped.
    """
    if s_hat_chart.domain != "chart":
        raise ValueError("auxiliary score requires a chart-domain score field")
    L = ops.L

    def fn(x, t):
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        z = to_chart(x2 @ ops.U.T, L, tol=np.inf)  # Ux may be off-manifold; read m>=0 slots
        s_complex = from_chart(np.asarray(s_hat_chart(z, t), dtype=float), L)
        y = s_complex @ ops.Y.T
        resid = float(np.max(np.abs(y.imag), initial=0.0))
        if resid > imag_tol:
            raise ConstraintViolation(
                f"auxiliary score imaginary residue {resid:.3e} > {imag_tol:.1e}"
            )
        return y.real.reshape(np.shape(x))

    return ScoreField(fn=fn, domain="spatial")


def kernel_chart_score(z, z0, t: float, schedule: VpSchedule, Sigma_pinv_apply):
    """Chart score of the VP transition kernel N(m(t) z0, v(t) Sigma).

    Returns (score, Sigma @ score); the latter is -(z - m z0)/v and needs no
    inverse, which is why both are exposed.
    """
    m, v = schedule.mean_coeff(t), schedule.marginal_var(t)
    sigma_s = -(np.asarray(z) - m * np.asarray(z0)) / v
    return Sigma_pinv_apply(sigma_s), sigma_s


def check_theorem2_bound(ops: OperatorSet, Sigma: np.ndarray, schedule: VpSchedule,
                         n_trials: int, seed, *, t_floor: float = 1e-3,
                         rel_tol: float = 1e-8, bops: BoundOperators | None = None) -> dict:
    """Monte Carlo check of the frequency-vs-spatial loss inequality.

    Each trial draws (z0, t, z_t, test score), evaluates both sides, and
    counts a violation when slack = RHS - LHS < -rel_tol * max(1, RHS).
    Test scores are random linear maps plus randomly scaled oracle scores,
    covering near-optimal and far-off regimes.  `bops` are the bound
    operators of (ops, Sigma), built here when not given.
    """
    L = ops.L
    d = L * L
    w, V = block_eigh(Sigma)
    keep = w > 1e-10
    pinv_apply = lambda r: (V[:, keep] / w[keep]) @ (V[:, keep].T @ r)
    if bops is None:
        bops = build_bound_operators(ops, Sigma)
    Lam_w = np.sqrt(np.clip(w, 0.0, None))
    UZ = ops.U @ bops.Z  # complex L^2 x L^2

    rng = np.random.default_rng(seed)
    lhs_v = np.empty(n_trials)
    rhs_v = np.empty(n_trials)
    gap_v = np.empty(n_trials)
    slack_v = np.empty(n_trials)

    for i in range(n_trials):
        t = rng.uniform(t_floor, schedule.T)
        m, v = schedule.mean_coeff(t), schedule.marginal_var(t)
        z0 = rng.standard_normal(d)
        z_t = m * z0 + np.sqrt(v) * (V @ (Lam_w * rng.standard_normal(d)))

        s_ref, sigma_s_ref = kernel_chart_score(z_t, z0, t, schedule, pinv_apply)

        G = rng.normal(0.0, 0.5 / np.sqrt(d), (d, d))
        alpha = rng.uniform(0.0, 2.0)
        s_hat_vec = G @ z_t + rng.normal(0.0, 0.5, d) + alpha * sigma_s_ref

        lhs = chart_sq_norm(s_hat_vec - sigma_s_ref, L)

        # auxiliary spatial score at x_t = M z_t: U x_t lifts back to z_t,
        # so s'(x_t) = Y from_chart(s_hat_vec) = M s_hat_vec.
        s_prime = bops.M @ s_hat_vec
        s_pullback = bops.T.T @ s_ref
        term_q = q_norm_sq(ops, s_prime - s_pullback)

        gap = UZ @ sigma_s_ref
        gap_sq = float(np.vdot(gap, gap).real)

        rhs = 2.0 * (term_q + gap_sq)
        slack = rhs - lhs
        lhs_v[i], rhs_v[i], gap_v[i], slack_v[i] = lhs, rhs, gap_sq, slack

    violations = int(np.sum(slack_v < -rel_tol * np.maximum(1.0, rhs_v)))
    return {
        "n_trials": int(n_trials),
        "violations": violations,
        "min_slack": float(slack_v.min()),
        "mean_lhs": float(lhs_v.mean()),
        "mean_rhs": float(rhs_v.mean()),
        "mean_gap_term": float(gap_v.mean()),
    }


def bound_report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
