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

from . import chart, indexing, noise, transform
from .metrics import _rel_frobenius
from .noise import _block_matmul

BLOWUP_LIMIT = 1e6


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
    """Rows of x holding a NaN, an infinity or a magnitude above limit, in
    one pass: a NaN makes the row maximum NaN, and NaN <= limit is False."""
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
    """`integrate`'s forward endpoint as one draw a x + s F xi (F = Sigma^{1/2} of the
    covariance set `cov`, applied per block, or I when None)."""
    a, s2, t = forward_law(schedule, state.time)
    xi = np.random.default_rng(seed).standard_normal(state.values.shape)
    F_xi = xi if cov is None else noise._times_root(cov, xi)
    with np.errstate(over="ignore", invalid="ignore"):  # `_endpoint` reports such rows
        new = a * state.values + np.sqrt(s2) * F_xi
    return _endpoint(state, new, t, schedule.steps, limit)


def reverse_exact(state, schedule, seed, mean, basis, *, limit=BLOWUP_LIMIT):
    """`integrate`'s Gaussian-score reverse endpoint as one draw: S B (A B^T z + b + s zeta),
    or a x + r zeta + Q((A - a) Q^T x + b + (s - r) Q^T zeta) with a, r Q-perp's entries."""
    A, b, s2, t = reverse_law(schedule, state.time, state.domain, mean, basis)
    x, V, s = state.values, basis[1], np.sqrt(s2)
    zeta = np.random.default_rng(seed).standard_normal(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # `_endpoint` reports such rows
        if state.domain == "chart":
            new = (A * (x @ V) + b + s * zeta) @ basis[2].T
        else:
            y = (A[:-1] - A[-1]) * (x @ V) + b[:-1] + (s[:-1] - s[-1]) * (zeta @ V)
            new = A[-1] * x + s[-1] * zeta + y @ V.T
    return _endpoint(state, new, t, schedule.steps, limit)


# ---------------------------------------------------------------------------
# analytic Gaussian scores (closed-form, no training): a fixed basis, no LAPACK per call
# ---------------------------------------------------------------------------

def _whitened_eig(S, block_eig, p):
    """(lam, P, K, K^-1) from one eigh K S K = P diag(lam) P^T (of K (K S)^T's lower triangle),
    K = N^p, N PD and zero off the (m, part) blocks of `indexing.block_slots`; block_eig(m, rows)
    gives the eigenpairs of N[rows, rows], K and K^-1 are (rows, block) lists, and S is PD."""
    eig = [(rows, block_eig(m, rows)) for m, rows in indexing.block_slots(math.isqrt(len(S)))]
    if not min(w[0] for _, (w, _) in eig) > 0:
        raise ValueError("the whitening matrix is not positive definite")
    K, K_inv = ([(r, (V * w ** q) @ V.T) for r, (w, V) in eig] for q in (p, -p))
    lam, P = np.linalg.eigh(_block_matmul(K, _block_matmul(K, np.asarray(S, dtype=float)).T))
    if not lam[0] > 0:
        raise ValueError(f"data covariance S is not positive definite ({lam[0]:.3e})")
    return lam, P, K, K_inv


def _gaussian_basis(S, block_eig=None, M=None):
    """(basis, F F^T = S) for N(mu, S) from one `_whitened_eig`.  Chart (`block_eig` of Sigma),
    K = Sigma^-1/2: (kappa, B, S B = F) = (1/lam, K P lam^-1/2, K^-1 P lam^1/2), B^T S B = I,
    B^T Sigma B = diag(kappa).  Grid (M), K = (M^T M)^1/2 (block-diagonal: orders are orthogonal
    over the longitudes): (e, C) = (lam, K^-1 P), F = C lam^1/2; Q = M C, Q e Q^T = M S M^T."""
    if M is not None:  # one gather per block
        block_eig = lambda m, r: np.linalg.eigh((G := M[:, r]).T @ G)
    lam, P, K, K_inv = _whitened_eig(S, block_eig, -0.5 if M is None else 0.5)
    F = _block_matmul(K_inv, P)
    if M is None:
        F *= np.sqrt(lam)
        return (1.0 / lam, _block_matmul(K, P) / np.sqrt(lam), F), F
    return (lam, F), F * np.sqrt(lam)


def gaussian_chart_score(mu, S, Sigma, schedule) -> ScoreField:
    """Score of the time-t chart marginal for data z(0) ~ N(mu, S).

    Marginal: N(m(t) mu, A_t), A_t = m(t)^2 S + v(t) Sigma, and
    score(z) = -A_t^{-1}(z - m mu).  With B from `_gaussian_basis` (Sigma positive
    definite, zero off its (m, part) blocks), A_t^{-1} = B diag(1 / (m^2 + v kappa)) B^T.
    """
    mu, Sigma = np.asarray(mu, dtype=float), np.asarray(Sigma, dtype=float)
    (kappa, B, _), _ = _gaussian_basis(S, lambda m, r: np.linalg.eigh(Sigma[np.ix_(r, r)]))

    def fn(z, t):
        m, v = schedule.mean_coeff(t), schedule.marginal_var(t)
        r = z - m * mu  # one (d,) vector or an (n, d) batch
        w = (r @ B) / -(m * m + v * kappa)
        return w @ B.T

    return ScoreField(fn=fn, domain="chart")


def gaussian_spatial_score(mu, S, M, schedule) -> ScoreField:
    """Score of the time-t spatial marginal for data x(0) = M z(0), z(0) ~ N(mu, S).

    M (d_X x L^2, `chart.synthesis_matrix`) has full column rank; M S M^T is singular
    (band-limited data).  With M S M^T = Q diag(e) Q^T (`_gaussian_basis`),
    A_t = m^2 M S M^T + v I inverts as A_t^{-1} = (I - Q diag(m^2 e / (m^2 e + v)) Q^T) / v.
    """
    mu_x = M @ np.asarray(mu, dtype=float)
    (e, C), _ = _gaussian_basis(S, M=M)
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
        basis, F = _gaussian_basis(S, (lambda m, r: cov.eig[m]) if in_chart else None, M)
        g = np.random.default_rng(data_seed).standard_normal((n, L * L))
        z0 = mu + g @ F.T
        start, mean = (z0, mu) if in_chart else (z0 @ M.T, M @ mu)
    limit = BLOWUP_LIMIT * max(1.0, -start.min(initial=0.0), start.max(initial=0.0))
    state, aborted = forward_exact(DiffusionState(time=0.0, values=start, domain=domain),
                                   schedule, seed, cov=cov, limit=limit)
    if direction == "forward":
        return state, aborted, None
    if not in_chart:  # the reverse leg's grid basis Q = M K^-1 P; a forward run needs only F
        basis = (basis[0], M @ basis[1])
    state, more = reverse_exact(state, schedule, seed + 2, mean, basis, limit=limit)
    if n < 2:
        return state, aborted + more, None
    target = S if in_chart else M @ S @ M.T
    mean_err = state.values.mean(axis=0) - mean
    return state, aborted + more, {
        "mean_rel_error": _rel_frobenius(mean_err, mean),
        "mean_err_over_sd": _rel_frobenius(mean_err, np.sqrt(np.diag(target))),
        "cov_rel_frobenius_error": _rel_frobenius(
            noise.empirical_covariance(state.values) - target, target),
    }
