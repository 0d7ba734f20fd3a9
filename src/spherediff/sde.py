"""Forward and reverse diffusion in spatial and chart coordinates.

Variance-preserving schedule: beta(t) = beta_min + (t/T)(beta_max - beta_min),
drift f(x,t) = -beta(t) x / 2, g(t) = sqrt(beta(t)).  The transition kernel is
Gaussian with mean coefficient m(t) = exp(-B(t)/2) and per-coordinate variance
v(t) = 1 - exp(-B(t)), B(t) the integral of beta; in chart coordinates the
noise covariance is v(t) Sigma instead of v(t) I.

Chart-domain paths stay on the real chart, so lifted coefficients satisfy
conjugate symmetry exactly.  All four steppers are one Euler-Maruyama update;
reverse steppers take dt < 0 and use the score-corrected drift
f - g^2 * (Sigma) * score.  `run_chain` draws each leg in one step from the
Gaussian law of its K steps (`forward_law`/`reverse_law`, `*_exact`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import chart, noise, transform
from .metrics import _rel_frobenius
from .noise import _block_matmul

BLOWUP_LIMIT = 1e6
_ADD_BLOCK = 1 << 16  # values of a x added at a time by `forward_exact`


class BlowUpError(RuntimeError):
    """Raised when every path has gone non-finite."""


@dataclass(frozen=True)
class VpSchedule:
    """Affine variance-preserving noise schedule."""

    beta_min: float = 0.1
    beta_max: float = 10.0
    T: float = 1.0
    steps: int = 1000

    def __post_init__(self):
        if not (0 < self.beta_min <= self.beta_max):
            raise ValueError("need 0 < beta_min <= beta_max")
        if self.T <= 0:
            raise ValueError("need T > 0")
        if self.steps < 1:
            raise ValueError("need steps >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def beta(self, t: float) -> float:
        return self.beta_min + (t / self.T) * (self.beta_max - self.beta_min)

    def g(self, t: float) -> float:
        return float(np.sqrt(self.beta(t)))

    def drift(self, x: np.ndarray, t: float) -> np.ndarray:
        return -0.5 * self.beta(t) * x

    def beta_integral(self, t: float) -> float:
        return self.beta_min * t + 0.5 * (self.beta_max - self.beta_min) * t * t / self.T

    def mean_coeff(self, t: float) -> float:
        return float(np.exp(-0.5 * self.beta_integral(t)))

    def marginal_var(self, t: float) -> float:
        return float(-np.expm1(-self.beta_integral(t)))


@dataclass(frozen=True)
class DiffusionState:
    """A batch of paths at one time; values is (n_paths, d)."""

    time: float
    values: np.ndarray
    domain: str  # "spatial" or "chart"

    def __post_init__(self):
        if self.domain not in ("spatial", "chart"):
            raise ValueError(f"unknown domain {self.domain!r}")


@dataclass(frozen=True)
class ScoreField:
    """Score function in one domain: (values (n,d), t) -> (n,d)."""

    fn: object
    domain: str

    def __call__(self, values: np.ndarray, t: float) -> np.ndarray:
        return self.fn(values, t)


def _drift(schedule, x, t, g, score, precond):
    """f(x,t) - g^2 P s(x,t), or f(x,t) alone without a score.  Each branch is one
    expression of fresh temporaries, which NumPy reuses in place."""
    if score is None:
        return schedule.drift(x, t)
    if precond is None:
        return schedule.drift(x, t) - g * g * score(x, t)
    return schedule.drift(x, t) - g * g * (score(x, t) @ precond.T)


def _em_update(state, schedule, dt, xi, *, noise_factor=None, score=None, precond=None):
    """The one Euler-Maruyama update x + (f - g^2 P s) dt + g sqrt(|dt|) F xi.

    F is `noise_factor` (a dense Sigma^{1/2}) or I when None; P is `precond`
    (Sigma) or I when None; without a score the drift is f alone.  f and g come
    from `schedule.drift` and `schedule.g`, so any schedule providing those works.
    """
    expected = "spatial" if precond is None else "chart"  # P = Sigma only in the chart
    if score is not None and score.domain != expected:
        raise ValueError(f"score domain {score.domain!r}, expected {expected!r}")
    x, t = state.values, state.time
    g = schedule.g(t)
    new = (x + _drift(schedule, x, t, g, score, precond) * dt
           + g * np.sqrt(abs(dt))
           * (xi if noise_factor is None else xi @ noise_factor.T))
    return dataclasses.replace(state, time=state.time + dt, values=new)


def forward_step_spatial(state, schedule, dt, noise_draw):
    """x <- x + f(x,t) dt + g(t) sqrt(dt) xi."""
    return _em_update(state, schedule, dt, noise_draw)


def forward_step_frequency(state, schedule, dt, Lambda, noise_draw):
    """z <- z + f(z,t) dt + g(t) sqrt(dt) Lambda xi in chart coordinates, with the
    spatial VP drift: U f(Y a, t) = -beta(t)/2 * a (UY = I)."""
    return _em_update(state, schedule, dt, noise_draw, noise_factor=Lambda)


def reverse_step_spatial(state, schedule, dt, score, noise_draw):
    """x <- x + (f - g^2 s) dt + g sqrt(|dt|) xi, with dt < 0."""
    return _em_update(state, schedule, dt, noise_draw, score=score)


def reverse_step_frequency(state, schedule, dt, Sigma, Lambda, score, noise_draw):
    """z <- z + (f - g^2 Sigma s) dt + g sqrt(|dt|) Lambda xi, with dt < 0."""
    return _em_update(state, schedule, dt, noise_draw,
                      noise_factor=Lambda, score=score, precond=Sigma)


def spatial_forward_stepper(schedule):
    return lambda state, dt, xi: forward_step_spatial(state, schedule, dt, xi)


def frequency_forward_stepper(schedule, Lambda):
    return lambda state, dt, xi: forward_step_frequency(state, schedule, dt, Lambda, xi)


def spatial_reverse_stepper(schedule, score):
    return lambda state, dt, xi: reverse_step_spatial(state, schedule, dt, score, xi)


def frequency_reverse_stepper(schedule, Sigma, Lambda, score):
    return lambda state, dt, xi: reverse_step_frequency(
        state, schedule, dt, Sigma, Lambda, score, xi
    )


def _blown_up(x: np.ndarray, limit: float = BLOWUP_LIMIT) -> np.ndarray:
    """Rows of x holding a NaN, an infinity or a magnitude above limit.  The
    whole array's max and min are read first; only when they leave the limit
    (a NaN fails both tests) is each row's largest magnitude taken."""
    if -limit <= x.min(initial=0.0) and x.max(initial=0.0) <= limit:
        return np.zeros(len(x), dtype=bool)
    return ~(np.abs(x).max(axis=1) <= limit)


def integrate(state, schedule, direction, stepper, seed):
    """Run `schedule.steps` uniform Euler-Maruyama steps.

    direction "forward" runs time up from state.time; "reverse" runs it down.
    Paths whose coordinates go non-finite or exceed BLOWUP_LIMIT are frozen at
    their last good value and reported as {"path": i, "step": k}.

    The noise of every step is drawn into one reused (n, d) buffer, so a
    stepper must not return or keep a view of it.

    Returns (final_state, aborted).
    """
    if direction not in ("forward", "reverse"):
        raise ValueError(f"unknown direction {direction!r}")
    dt = schedule.dt if direction == "forward" else -schedule.dt
    rng = np.random.default_rng(seed)
    n, d = state.values.shape
    xi = np.empty((n, d))
    dead = np.zeros(n, dtype=bool)
    aborted = []

    for k in range(schedule.steps):
        rng.standard_normal(out=xi)
        prev = state.values
        state = stepper(state, dt, xi)
        newly = _blown_up(state.values) & ~dead
        if newly.any():
            aborted.extend({"path": int(i), "step": k} for i in np.flatnonzero(newly))
            dead |= newly
            if dead.all():
                raise BlowUpError(f"all {n} paths diverged by step {k}")
        if dead.any():
            vals = state.values.copy()
            vals[dead] = prev[dead]  # freeze at the last good value
            state = dataclasses.replace(state, values=vals)
    return state, aborted


def _em_law(schedule, t, dt, scale=1.0, data_var=None, nu=0.0):
    """(A, b, s^2, end time) of K Euler-Maruyama steps of size dt from t (t as in `integrate`)
    per decoupled coordinate y <- c y - dt h m nu + g sqrt(|dt| scale) zeta, c = 1 + dt (h -
    beta/2), with the Gaussian score's gain h = g^2 scale / (m^2 data_var + v scale) or 0."""
    A, b, s2 = 1.0, 0.0, 0.0
    for _ in range(schedule.steps):
        g2, m, v = schedule.g(t) ** 2, schedule.mean_coeff(t), schedule.marginal_var(t)
        h = 0.0 if data_var is None else g2 * scale / (m * m * data_var + v * scale)
        c = 1.0 + dt * (h - 0.5 * schedule.beta(t))
        A, b, s2, t = c * A, c * b - dt * h * m * nu, c * c * s2 + g2 * abs(dt) * scale, t + dt
    return A, b, s2, t


def forward_law(schedule, t=0.0):
    """(a, s^2, end time) of the forward steps from t: x -> a x + s F zeta, zeta ~ N(0, I)."""
    a, _, s2, t = _em_law(schedule, t, schedule.dt)
    return a, s2, t


def reverse_law(schedule, t, domain, mean, basis):
    """(A, b, s^2, end time) of the Gaussian-score reverse steps from t per coordinate of
    y = B^T z, or of y = Q^T x and one last entry for Q's complement (`_gaussian_basis`)."""
    lam, nu = basis[0], mean @ basis[1]
    if domain == "chart":  # B^T S B = I, B^T Sigma B = diag(kappa)
        return _em_law(schedule, t, -schedule.dt, lam, 1.0, nu)
    return _em_law(schedule, t, -schedule.dt, 1.0, np.append(lam, 0.0), np.append(nu, 0.0))


def _endpoint(state, new, t, steps, limit):
    """Blow-up guard of a one-draw leg: a row of `new` that is blown up keeps its start row
    and is reported at step steps - 1; all rows dead (n >= 1) raises BlowUpError."""
    x, k, dead = state.values, steps - 1, _blown_up(new, limit)
    if dead.all() and len(x):
        raise BlowUpError(f"all {len(x)} paths diverged by step {k}")
    new[dead] = x[dead]
    return (dataclasses.replace(state, time=t, values=new),
            [{"path": int(i), "step": k} for i in np.flatnonzero(dead)])


def forward_exact(state, schedule, seed, *, cov=None, limit=BLOWUP_LIMIT):
    """`integrate`'s forward endpoint as one draw a x + s F xi (F xi drawn by
    `noise.sample_mirrored_bm` from the covariance set `cov`, or xi when None)."""
    a, s2, t = forward_law(schedule, state.time)
    x = state.values
    if cov is None:
        xi = np.random.default_rng(seed).standard_normal(x.shape)
    else:  # F xi at t = 1, so that an overflowing s^2 reaches `_endpoint`
        xi = noise.sample_mirrored_bm(cov, 1.0, len(x), seed)
    rows = max(1, _ADD_BLOCK // x.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # `_endpoint` reports such rows
        xi *= np.sqrt(s2)  # in place, with the bits of a x + sqrt(s2) F xi
        for i in range(0, len(x), rows):  # a x a block of rows at a time: no third (n, d) array
            xi[i:i + rows] += a * x[i:i + rows]
    return _endpoint(state, xi, t, schedule.steps, limit)


def reverse_exact(state, schedule, seed, mean, basis, *, limit=BLOWUP_LIMIT):
    """`integrate`'s Gaussian-score reverse endpoint as one draw: S B (A B^T z + b + s zeta),
    or a x + r zeta + Q((A - a) Q^T x + b + (s - r) Q^T zeta) with a, r Q-perp's entries."""
    A, b, s2, t = reverse_law(schedule, state.time, state.domain, mean, basis)
    x, V, s = state.values, basis[1], np.sqrt(s2)
    zeta = np.random.default_rng(seed).standard_normal(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # `_endpoint` reports such rows
        y = x @ V  # scaled and summed in place, with the bits of the plain expressions
        if state.domain == "chart":
            y *= A
            y += b
            zeta *= s
            y += zeta
            new = y @ basis[2].T
        else:
            y *= A[:-1] - A[-1]
            y += b[:-1]
            y += (s[:-1] - s[-1]) * (zeta @ V)
            new = zeta
            new *= s[-1]
            new += A[-1] * x
            new += y @ V.T
    return _endpoint(state, new, t, schedule.steps, limit)


# ---------------------------------------------------------------------------
# analytic Gaussian scores (closed-form, no training): a fixed basis, no LAPACK per call
# ---------------------------------------------------------------------------

def _whitened_eig(S, eig, p):
    """(lam, P, K, K^-1) from one eigh K S K = P diag(lam) P^T (of K (K S)^T's lower triangle),
    K = N^p, S and N PD, N with the block N_m in both parts of each m (`eig` their eigenpair
    stack); the stacks K and K^-1 are formed at each use, so none is held through the eigh."""
    w, V = eig
    if not w[np.triu_indices(len(w))].min() > 0:  # the slots k >= m
        raise ValueError("the whitening matrix is not positive definite")
    # |w| is 1 on the pads, whose unit eigenvectors leave the blocks K[m, m:, m:] untouched
    K = lambda q: (V * np.abs(w)[:, None, :] ** q) @ V.transpose(0, 2, 1)
    lam, P = np.linalg.eigh(_block_matmul(K(p), _block_matmul(K(p), np.asarray(S, dtype=float)).T))
    if not lam[0] > 0:
        raise ValueError(f"data covariance S is not positive definite ({lam[0]:.3e})")
    return lam, P, K(p), K(-p)


def _grid_eig(leg):
    """The eigenpair stack of (M^T M)_m = N_phi mult_m Pbar_m^T Pbar_m, M the grid's synthesis
    matrix and leg[m, ring, ell] its Legendre table: the orders' trig rows are orthogonal over
    the N_phi = 2L - 1 longitudes (Driscoll & Healy 1994), each of squared norm N_phi / mult_m."""
    n_phi_mult = (2 * len(leg) - 1) * np.where(np.arange(len(leg)) > 0, 2.0, 1.0)
    return noise._stack_eigh(n_phi_mult[:, None, None] * (leg.transpose(0, 2, 1) @ leg))


def _gaussian_basis(S, eig, domain):
    """(basis, F F^T = S) for N(mu, S) from one `_whitened_eig` of the eigenpair stack `eig`.
    Chart (`CovarianceSet.eig`), K = Sigma^-1/2: (kappa, B, S B = F) = (1/lam, K P lam^-1/2,
    K^-1 P lam^1/2), B^T S B = I, B^T Sigma B = diag(kappa).  Grid (`_grid_eig`),
    K = (M^T M)^1/2: (e, C) = (lam, K^-1 P), F = C lam^1/2; Q = M C, Q e Q^T = M S M^T."""
    lam, P, K, K_inv = _whitened_eig(S, eig, -0.5 if domain == "chart" else 0.5)
    F = _block_matmul(K_inv, P)
    if domain == "chart":
        F *= np.sqrt(lam)
        return (1.0 / lam, _block_matmul(K, P) / np.sqrt(lam), F), F
    return (lam, F), F * np.sqrt(lam)


def gaussian_chart_score(mu, S, Sigma, schedule) -> ScoreField:
    """Score of the time-t chart marginal for data z(0) ~ N(mu, S).

    Marginal: N(m(t) mu, A_t), A_t = m(t)^2 S + v(t) Sigma, and
    score(z) = -A_t^{-1}(z - m mu).  With B from `_gaussian_basis` (Sigma positive definite
    with one block Sigma_m in both parts of each m), A_t^{-1} = B diag(1 / (m^2 + v kappa)) B^T.
    """
    mu = np.asarray(mu, dtype=float)
    (kappa, B, _), _ = _gaussian_basis(S, noise.sigma_covariance(Sigma).eig, "chart")

    def fn(z, t):
        m, v = schedule.mean_coeff(t), schedule.marginal_var(t)
        r = z - m * mu  # one (d,) vector or an (n, d) batch
        w = (r @ B) / -(m * m + v * kappa)
        return w @ B.T

    return ScoreField(fn=fn, domain="chart")


def gaussian_spatial_score(mu, S, M, schedule) -> ScoreField:
    """Score of the time-t spatial marginal for data x(0) = M z(0), z(0) ~ N(mu, S).

    M (d_X x L^2, the grid's `chart.synthesis_matrix`) has full column rank; M S M^T is singular
    (band-limited data).  With M S M^T = Q diag(e) Q^T (`_gaussian_basis`),
    A_t = m^2 M S M^T + v I inverts as A_t^{-1} = (I - Q diag(m^2 e / (m^2 e + v)) Q^T) / v.
    """
    mu_x = M @ np.asarray(mu, dtype=float)
    leg = transform.build_operators(math.isqrt(M.shape[1])).legendre
    (e, C), _ = _gaussian_basis(S, _grid_eig(leg), "spatial")
    Q = M @ C

    def fn(x, t):
        m, v = schedule.mean_coeff(t), schedule.marginal_var(t)
        r = x - m * mu_x  # one (d,) vector or an (n, d) batch
        m2e = m * m * e
        w = (r @ Q) * (m2e / (m2e + v))
        return (w @ Q.T - r) / v

    return ScoreField(fn=fn, domain="spatial")


# ---------------------------------------------------------------------------
# the Gaussian recovery chain
# ---------------------------------------------------------------------------

def surrogate_gaussian(L: int, mean_scale: float, cov_scale: float, seed):
    """Seeded data Gaussian N(mu, S) in chart coordinates, S symmetric PD."""
    d = L * L
    rng = np.random.default_rng(seed)
    mu = rng.normal(0.0, mean_scale, d)
    A = rng.normal(0.0, np.sqrt(cov_scale) / np.sqrt(d), (d, d))
    S = A @ A.T + cov_scale * np.eye(d)
    return mu, S


def _grid_cov_error(x, e, Q):
    """(diag B, |A - B| / |B|) in the Frobenius norm for the sample covariance A of the
    rows of x (n >= 2) and B = Q diag(e) Q^T (Q^T Q = I, e > 0), with no d_X x d_X matrix
    where n <= d_X; the ratio is None where B's largest entry (on its diagonal) is
    subnormal, or where the ratio overflows.

    The centred rows R split into Y Q^T + Z, Y = R Q and Z = R - Y Q^T, so A - B splits
    into three Frobenius-orthogonal parts whose squares add with no cancellation:
    |A - B|^2 = |Y^T Y / (n - 1) - diag(e)|^2 + (2 |Y^T Z|^2 + |Z^T Z|^2) / (n - 1)^2,
    the last two from the smaller Grams of Y and Z.  R and e are first scaled by 2^-h and
    4^-h (exact) so that max|R| and max e^1/2 are at most 1, and |B| = |e| by its own
    power of 2, which the ratio takes back: no sum of squares overflows, and only terms
    too small to count underflow.
    """
    n, d = x.shape
    var = np.einsum("ij,ij,j->i", Q, Q, e)
    if not var.max() >= np.finfo(float).tiny:
        return var, None
    R = x - x.mean(axis=0)
    h = max(np.frexp(max(R.max(), -R.min()))[1], -(-np.frexp(e.max())[1] // 2))
    np.ldexp(R, -h, out=R)
    Y = R @ Q
    R -= Y @ Q.T  # Z, over R
    D = Y.T @ Y
    D /= n - 1
    D[np.diag_indices_from(D)] -= np.ldexp(e, -2 * h)
    if n <= d:
        GZ = R @ R.T
        cross = np.einsum("ij,ij->", Y @ Y.T, GZ)
    else:
        GZ, YZ = R.T @ R, Y.T @ R
        cross = np.einsum("ij,ij->", YZ, YZ)
    num = np.einsum("ij,ij->", D, D) + (2.0 * cross + np.einsum("ij,ij->", GZ, GZ)) / (n - 1) ** 2
    j = np.frexp(e.max())[1]
    e_j = np.ldexp(e, -j)
    with np.errstate(over="ignore"):
        ratio = np.ldexp(np.sqrt(num / (e_j @ e_j)), 2 * h - j)
    return var, float(ratio) if np.isfinite(ratio) else None


def run_chain(L: int, schedule, domain: str, direction: str, law, n: int, seed, data_seed):
    """n Euler-Maruyama paths over [0, T] in the "chart" or "spatial" domain;
    direction "reverse" then runs them back with the analytic Gaussian score.

    Without a law (None) the paths start at zero and only run forward.  With law = (mu, S),
    a chart Gaussian, one `_gaussian_basis` gives the reverse basis and S's factor F: paths
    start at z0 = mu + g F^T, g one (n, L^2) normal block from data_seed, or at x0 = z0 M^T
    on the grid.  Each leg is one exact draw of its Euler-Maruyama law: forward from seed
    (`forward_exact`), reverse from seed + 2 (`reverse_exact`).  A path blows up above
    BLOWUP_LIMIT times the start's largest magnitude, where that exceeds 1 (data at any scale
    comes back at its own scale).  Returns (final_state, aborted, errors); errors are the
    relative mean and covariance Frobenius errors against the law in the run's domain after
    a reverse run of n >= 2 paths (each None where the law's norm is 0), and the mean error
    over the law's spread sqrt(tr C), C = S or M S M^T, else None.
    """
    if direction != "forward" and (direction != "reverse" or law is None):
        raise ValueError(f"direction {direction!r}: need forward, or reverse with a law")
    in_chart = domain == "chart"  # the chart domain needs Sigma, the spatial one the grid
    cov = noise.build_covariance(L) if in_chart else None
    ops = None if in_chart else transform.build_operators(L)
    if law is None:
        start = np.zeros((n, L * L if in_chart else ops.d_spatial))
    else:
        mu, S = law
        M = None if in_chart else chart.synthesis_matrix(ops)
        basis, F = _gaussian_basis(S, cov.eig if in_chart else _grid_eig(ops.legendre), domain)
        z0 = mu + np.random.default_rng(data_seed).standard_normal((n, L * L)) @ F.T
        start, mean = (z0, mu) if in_chart else (z0 @ M.T, M @ mu)
        del z0, F
    limit = BLOWUP_LIMIT * max(1.0, -start.min(initial=0.0), start.max(initial=0.0))
    state, aborted = forward_exact(DiffusionState(time=0.0, values=start, domain=domain),
                                   schedule, seed, cov=cov, limit=limit)
    del start  # each leg's endpoint is a new array
    if direction == "forward":
        return state, aborted, None
    if not in_chart:  # the reverse leg's grid basis Q = M K^-1 P; a forward run needs only F
        basis, M = (basis[0], M @ basis[1]), None  # M is not needed past Q
    state, more = reverse_exact(state, schedule, seed + 2, mean, basis, limit=limit)
    if n < 2:
        return state, aborted + more, None
    x = state.values
    mean_err = x.mean(axis=0) - mean
    if in_chart:
        var, cov_err = np.diag(S), _rel_frobenius(noise.empirical_covariance(x) - S, S)
    else:
        var, cov_err = _grid_cov_error(x, *basis)
    return state, aborted + more, {
        "mean_rel_error": _rel_frobenius(mean_err, mean),
        "mean_err_over_sd": _rel_frobenius(mean_err, np.sqrt(var)),
        "cov_rel_frobenius_error": cov_err,
    }

