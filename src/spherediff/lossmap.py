"""Score-matching losses in both domains and the frequency/spatial bound.

`loss_frequency` and `loss_spatial` take chart vectors held one order at a
time (`_by_order`) and give one value per row.

The bound machinery decomposes the chart-to-grid synthesis map M into the
pseudoinverse part T+ = T^T Sigma^{-1} (a right inverse of T, since
T T^T = Sigma) and a kernel part Z = M - T+ with T Z = 0.  The inequality
checked by `check_theorem2_bound` is, per trial,

    ||s_hat - Sigma s_ref||^2  <=  2 ( ||s' - T^T s_ref||_Q^2
                                       + ||U Z Sigma s_ref||^2 )

with s' = Y s_hat(U .) the auxiliary spatial score and s_ref the Gaussian
transition-kernel chart score, on closed-form VP-schedule kernels, so no
training is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# unused here: bench/tests/test_harness.py checks that the tracer wraps this binding too
from .chart import from_chart  # noqa: F401
from .indexing import order_slots
from .noise import CovarianceSet, sigma_covariance
from .sde import VpSchedule
from .transform import OperatorSet

_TRIAL_BLOCK = 1 << 15  # chart values per batch of trials in `check_theorem2_bound`


@dataclass(frozen=True)
class BoundOperators:
    """T, M, Sigma and the bound's products one order at a time, O(L^3) numbers.

    With 2L-1 longitudes the ring DFT makes all of them block-diagonal over
    m.  Per order, with V the Legendre block (rings x ell) and Q the ring
    weights, the chart rows of T are q_j Pbar_{ell,m}(theta_j) times
    cos(m phi_k) (Re) and -sin(m phi_k) (Im), and the columns of M are `mult`
    times the same.  With g = [[cc, cs], [cs, ss]] the Gram matrix of these
    trig rows over a ring, T T^T = B (x) g and T M = mult A (x) g; Sigma has
    the block Sigma_m in both parts, so with T+ = T^T Sigma^+ and Z = M - T+,
    T T^+ = H (x) g and T Z = K (x) g.  Arrays are (L, L, L), [m, ell, ell'],
    zero off ell >= m.
    """

    L: int
    ops: OperatorSet = field(repr=False)
    sigma_cond: float       # condition number of Sigma
    q: np.ndarray           # ring weights
    mult: np.ndarray        # (L,): 1 for m = 0, else 2
    A: np.ndarray           # V^T Q V
    B: np.ndarray           # V^T Q^2 V
    sigma: np.ndarray       # Sigma_m
    sigma_root: np.ndarray  # its symmetric square root Sigma_m^{1/2}
    sigma_pinv: np.ndarray  # its eigen pseudoinverse Sigma_m^+
    H: np.ndarray           # B Sigma_m^+
    K: np.ndarray           # mult A - H
    eye: np.ndarray         # the identity on the slots ell >= m
    gram: tuple             # (cc, cs, ss), each (L, 1, 1)


def bound_operators(ops: OperatorSet, cov: CovarianceSet) -> BoundOperators:
    """The kit of one band limit, with the stacks Sigma_m, their eigenpairs and roots from `cov`."""
    L, leg, q, (w, V) = ops.L, ops.legendre, ops.grid.weights, cov.eig
    ev = w[np.triu_indices(L)]  # Sigma's eigenvalues, in the slots k >= m; the pads are -1
    if not ev.max() > 1e-10:
        raise ValueError("Sigma has no eigenvalue above the pseudoinverse threshold")
    cond = float(ev.max() / ev.min()) if ev.min() > 1e-10 else float("inf")
    ms = np.arange(L)
    mult = np.where(ms > 0, 2.0, 1.0)
    A = (leg * q[:, None]).transpose(0, 2, 1) @ leg
    B = (leg * (q * q)[:, None]).transpose(0, 2, 1) @ leg
    keep = (w > 1e-10)[:, None, :]  # not the pads
    pinv = np.divide(V, w[:, None, :], out=np.zeros_like(V), where=keep) @ V.transpose(0, 2, 1)
    H = B @ pinv
    trig = np.outer(ms, ops.grid.phi)
    cos, sin = np.cos(trig), -np.sin(trig)  # the Re and Im chart rows along a ring
    gram = tuple(np.einsum("mk,mk->m", u, v)[:, None, None]
                 for u, v in ((cos, cos), (cos, sin), (sin, sin)))
    eye = np.eye(L) * (ms >= ms[:, None])[:, None]  # ell >= m
    return BoundOperators(L=L, ops=ops, sigma_cond=cond, q=q, mult=mult, A=A, B=B,
                          sigma=cov.sigma, sigma_root=cov.root, sigma_pinv=pinv, H=H,
                          K=mult[:, None, None] * A - H, eye=eye, gram=gram)


def build_bound_operators(ops: OperatorSet, Sigma: np.ndarray) -> BoundOperators:
    """The kit of a dense Sigma, whose (m, Re) blocks are the Sigma_m."""
    return bound_operators(ops, sigma_covariance(Sigma))


def order_residuals(bops: BoundOperators) -> dict:
    """Max |T T^T - Sigma|, |T Z| and |T T^+ - I| over the orders, and the
    Frobenius norms of UY - I and of PP - P (P = YU the real projector)."""
    cc, cs, ss = bops.gram
    im = (bops.mult > 1)[:, None, None]  # m = 0 has no Im chart rows
    # per order, UY = N V^T Q V (N = 2L-1, once for each of +-m) and the real
    # projector is P_m = N V V^T Q, so PP - P = N V (UY - I) V^T Q; the ring DFT
    # is unitary, so the Frobenius norms add over the bins (one einsum each)
    leg, n_phi = bops.ops.legendre, 2 * bops.L - 1
    D = n_phi * bops.A - bops.eye
    E = n_phi * ((leg @ D) @ (leg * bops.q[:, None]).transpose(0, 2, 1))

    def max_abs(*mats):
        return float(max(np.max(np.abs(x)) for x in mats))

    return {
        "uy_minus_identity": float(np.sqrt(np.einsum("m,mij,mij->", bops.mult, D, D))),
        "projector_idempotence": float(np.sqrt(np.einsum("m,mij,mij->", bops.mult, E, E))),
        "tt_transpose_minus_sigma": max_abs(cc * bops.B - bops.sigma, cs * bops.B,
                                            ss * bops.B - bops.sigma * im),
        "t_z": max_abs(cc * bops.K, cs * bops.K, ss * bops.K),
        "t_tplus_minus_identity": max_abs(cc * bops.H - bops.eye, cs * bops.H,
                                          ss * bops.H - bops.eye * im),
    }


def identity_residuals(bops: BoundOperators) -> dict:
    """bound-check's |T T^+ - I|, |T Z|, |M - (T+ + Z)| per order, and cond(Sigma)."""
    leg = bops.ops.legendre
    res = order_residuals(bops)
    M = bops.mult[:, None, None] * leg  # M and T+ per order, up to the trig rows
    Tplus = (leg * bops.q[:, None]) @ bops.sigma_pinv
    return {"t_tplus_minus_identity": res["t_tplus_minus_identity"], "t_z": res["t_z"],
            "m_minus_tplus_plus_z": float(np.max(np.abs(M - (Tplus + (M - Tplus))))),
            "sigma_condition_number": bops.sigma_cond}


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


def _by_order(x: np.ndarray, L: int) -> np.ndarray:
    """Chart rows (n, L^2) as [part (Re, Im), m, row, ell], zero where ell < m."""
    ms, ell, re, im, _ = order_slots(L)
    y = np.zeros((2, L, len(x), L))
    y[0, ms, :, ell] = x[:, re].T
    y[1, ms[ms > 0], :, ell[ms > 0]] = x[:, im[ms > 0]].T
    return y


def _gram(bops: BoundOperators, v: np.ndarray) -> np.ndarray:
    """g (x) I applied to per-order values [part (Re, Im), m, ...]."""
    cc, cs, ss = bops.gram
    return np.stack([cc * v[0] + cs * v[1], cs * v[0] + ss * v[1]])


def _chart_sq_norm(bops: BoundOperators, x: np.ndarray) -> np.ndarray:
    """Per row, the complex squared 2-norm of the lifted chart vectors x: the
    chart form with weight 1 on m = 0 slots and 2 elsewhere (x is zero in the
    m = 0 Im slots, so both parts weigh `mult`)."""
    return np.einsum("m,pmij,pmij->i", bops.mult, x, x)


def loss_frequency(bops: BoundOperators, s_hat: np.ndarray, sigma_s_ref: np.ndarray):
    """||s_hat - Sigma s_ref||^2 per row in the complex 2-norm, given Sigma s_ref."""
    return _chart_sq_norm(bops, s_hat - sigma_s_ref)


def loss_spatial(bops: BoundOperators, s_hat: np.ndarray, s_ref: np.ndarray):
    """||M s_hat - T^T s_ref||_Q^2 per row: at x = M z, U x lifts back to z, so
    the auxiliary spatial score Y s_hat(U x) is M s_hat.

    T^T = Q M W^{-1} (W = diag(chart_weights)).  Per order, the columns of M
    are mult Pbar_{ell,m}(theta_j) times the trig rows, and the trig rows of
    different orders are orthogonal over a ring, so the Q-norm sums the
    ring-weighted g-forms of the orders.
    """
    leg = bops.ops.legendre.transpose(0, 2, 1)  # [m, ell, ring]
    r = (s_hat * bops.mult[:, None, None]) @ leg
    r -= s_ref @ (leg * bops.q)
    return np.einsum("j,pmij,pmij->i", bops.q, _gram(bops, r), r)


def _trial_terms(bops: BoundOperators, schedule: VpSchedule, draws: dict):
    """Per-trial (LHS, Q-norm term, gap term) of the inequality, row-batched.

    Each per-order array is dropped after its last use, and every per-trial
    form is one einsum row reduction.
    """
    t, L, d = draws["t"], bops.L, draws["z0"].shape[1]
    m = np.array([schedule.mean_coeff(s) for s in t])[:, None]
    v = np.array([schedule.marginal_var(s) for s in t])[:, None]
    m_z0 = m * _by_order(draws["z0"], L)
    z_t = m_z0 + np.sqrt(v) * (_by_order(draws["xi"], L) @ bops.sigma_root.transpose(0, 2, 1))

    # kernel score of N(m z0, v Sigma): Sigma s_ref = -(z_t - m z0)/v needs no
    # inverse; s_ref = Sigma^+ (Sigma s_ref) through the blocks Sigma_m^+
    sigma_s_ref = -(z_t - m_z0) / v
    del m_z0

    # test score s_hat = G z_t + offset + alpha Sigma s_ref with G_ij ~ N(0, 0.25/d)
    # i.i.d.; given z_t, G z_t ~ N(0, 0.25 |z_t|^2 / d I), drawn as such
    sd = np.sqrt(0.25 / d * np.einsum("pmij,pmij->i", z_t, z_t))[:, None]
    del z_t
    s_hat = (sd * _by_order(draws["g"], L) + _by_order(draws["offset"], L)
             + draws["alpha"][:, None] * sigma_s_ref)
    lhs = loss_frequency(bops, s_hat, sigma_s_ref)
    term_q = loss_spatial(bops, s_hat, sigma_s_ref @ bops.sigma_pinv.transpose(0, 2, 1))
    del s_hat

    # U x is conjugate-symmetric for real x = Z Sigma s_ref, so its squared
    # norm is the chart-weighted one of T x = to_chart(U x); T Z is K (x) g
    return lhs, term_q, _chart_sq_norm(bops, _gram(bops, sigma_s_ref @ bops.K.transpose(0, 2, 1)))


def check_theorem2_bound(bops: BoundOperators, schedule: VpSchedule, n_trials: int,
                         seed) -> dict:
    """Monte Carlo check of the frequency-vs-spatial loss inequality.

    Each trial draws t ~ U(1e-3, T), z0 ~ N(0, I), z_t ~ N(m(t) z0, v(t) Sigma)
    and a test score s_hat = G z_t + offset + alpha Sigma s_ref, with
    G_ij ~ N(0, 0.25/d) i.i.d., offset ~ N(0, 0.25 I) and alpha ~ U(0, 2):
    near-oracle and far-off scores alike.  Only G z_t enters, so it is drawn
    from its exact law N(0, 0.25 |z_t|^2/d I), not as a d x d matrix.  All
    trials are drawn at once and evaluated in batches of about _TRIAL_BLOCK
    chart values; a trial is a violation when
    slack = RHS - LHS < -1e-8 * max(1, RHS).
    """
    draws = _draw_trials(np.random.default_rng(seed), n_trials, bops.L * bops.L, schedule, 1e-3)
    step = max(1, _TRIAL_BLOCK // (bops.L * bops.L))
    terms = [_trial_terms(bops, schedule, {k: v[i:i + step] for k, v in draws.items()})
             for i in range(0, n_trials, step)]
    lhs, term_q, gap_sq = map(np.concatenate, zip(*terms))
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
