"""Dense and scalar reference forms that only the tests use.

They check the library's identities through the dense operators `ops.Y` and
`ops.U`, and the dense T, M, T+ and Z of a bound kit, which no command
builds; through per-entry evaluations of the harmonics and the chart slots;
and through the score-matching losses of one score vector at a time, the
oracle of the batched per-order `lossmap.loss_frequency` and
`lossmap.loss_spatial`; through a covariance CSV built cell by cell, the
oracle of the streaming `noise.sigma_to_csv`; through a sample CSV built
with one % call per row, the oracle of the block-formatting
`noise.save_samples`; and through order-p Wasserstein distances summed in
logs, the oracle of `metrics.wasserstein_1d` and
`metrics.sliced_wasserstein` at orders where |x|^p leaves the float range;
and through the dense Sigma^{1/2} of a covariance set, the oracle of the
per-block roots and the noise factor of the reference steppers; through the
rows of a draw times Sigma^{1/2}, one (m, part) block at a time, the
bit-for-bit oracle of `noise.sample_mirrored_bm` and the chart forward leg;
through the transforms with one Legendre product per order, the bit-for-bit
oracle of the one stacked product of `transform.synthesis` and `analysis`;
through the flat spectral slot of each (ell, m), the closed-form inverse of
`indexing.spectral_ells` and `spectral_ms`; and through the d_X x d_X target
M S M^T and sample covariance of the paths, the oracle of the spatial
diagnostics of `sde.run_chain`; and through the relative Frobenius error of
both arrays at once, the bit-for-bit oracle of `metrics._frobenius_ratio` of
each array's `_frobenius_parts`; and through the per-exponent loops that
built the CSV formatter's tables, the bit-for-bit oracles of
`noise._pow10` and `noise._layouts`.
"""

import math

import numpy as np

from spherediff.chart import chart_linear_map, chart_weights, from_chart, synthesis_matrix, to_chart
from spherediff.harmonics import FOUR_PI, _check_args, norm_legendre_table
from spherediff.indexing import IM, RE, block_slots, order_slots, spectral_ells, spectral_ms
from spherediff.metrics import _rel_frobenius
from spherediff.noise import FMT, _block_matmul, chart_labels, empirical_covariance
from spherediff.sde import ScoreField
from spherediff.transform import (ConstraintViolation, OperatorSet, analysis, mirror_residual,
                                  q_norm_sq, synthesis)


def vp_drift_identity_error(ops, schedule, t: float) -> float:
    """Max abs deviation of U f(Y ., t) from -beta(t)/2 * identity."""
    L2 = ops.d_spectral
    composed = ops.U @ (-0.5 * schedule.beta(t) * ops.Y)
    return float(np.max(np.abs(composed - (-0.5 * schedule.beta(t)) * np.eye(L2))))


def projector(ops) -> np.ndarray:
    """P = YU, materialized on demand (d_X x d_X)."""
    return ops.Y @ ops.U


def _orders(L: int):
    """(m, +m slots, -m slots, (-1)^m) of each order m = 0 .. L-1, over ell = m .. L-1."""
    m, _, plus, minus, _ = order_slots(L)
    for k in range(L):
        yield k, plus[m == k], minus[m == k], (-1.0) ** k


def per_order_synthesis(ops, A: np.ndarray) -> np.ndarray:
    """Real grid samples of the rows of A, (n, L^2) complex, with one Legendre
    product per order and one FFT of all rows."""
    L, n = ops.L, len(A)
    x = np.empty((n, 2 * L, 2 * L - 1), dtype=complex)
    for m, plus, minus, sign in _orders(L):
        # rows Re/Im of a_{ell,m}, then of (-1)^m a_{ell,-m}; columns ell, 0 where ell < m
        S = np.zeros((4 * n, L))
        S[:n, m:], S[n:2 * n, m:] = A[:, plus].real, A[:, plus].imag
        if m:
            S[2 * n:3 * n, m:], S[3 * n:, m:] = sign * A[:, minus].real, sign * A[:, minus].imag
        G = S @ ops.legendre[m].T
        x[..., m] = G[:n] + 1j * G[n:2 * n]
        if m:  # bin n_phi - m holds order -m
            x[..., -m] = G[2 * n:3 * n] + 1j * G[3 * n:]
    return np.fft.ifft(x, axis=-1, norm="forward").reshape(n, -1).real


def per_order_analysis(ops, x: np.ndarray) -> np.ndarray:
    """Coefficients of the rows of x, (n, d_X) real, with one FFT of all rows
    and one Legendre product per order."""
    L, n = ops.L, len(x)
    F = np.fft.rfft(x.reshape(n, 2 * L, 2 * L - 1), axis=-1) * ops.grid.weights[:, None]
    a = np.empty((n, L * L), dtype=complex)
    for m, plus, minus, sign in _orders(L):
        C = np.concatenate([F[..., m].real, F[..., m].imag]) @ ops.legendre[m]
        re, im = C[:n, m:], C[n:, m:]
        a.real[:, plus], a.imag[:, plus] = re, im
        if m:  # a_{ell,-m} = (-1)^m conj(a_{ell,m})
            a.real[:, minus], a.imag[:, minus] = sign * re, -sign * im
    return a


def legendre(ell: int, m: int, x):
    """Associated Legendre function P_{ell,m}(x), Condon-Shortley phase.

    Standard upward recurrence; values can be large for high (ell, m) but
    stay finite in double precision for ell < 64.
    """
    x = _check_args(ell, m, x)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    # diagonal: P_{m,m} = (-1)^m (2m-1)!! s^m
    p_mm = np.ones_like(x)
    for k in range(1, m + 1):
        p_mm = p_mm * (-(2 * k - 1)) * s
    if ell == m:
        out = p_mm
    else:
        p_prev, p_curr = p_mm, x * (2 * m + 1) * p_mm
        for k in range(m + 2, ell + 1):
            p_prev, p_curr = p_curr, ((2 * k - 1) * x * p_curr - (k + m - 1) * p_prev) / (k - m)
        out = p_curr
    return out if out.ndim else float(out)


def norm_constant(ell: int, m: int) -> float:
    """N_{ell,m} = sqrt((2ell+1)/(4pi) (ell-m)!/(ell+m)!), in log space."""
    if m < 0 or m > ell:
        raise ValueError(f"need 0 <= m <= ell, got ell={ell}, m={m}")
    log_ratio = 0.0
    for k in range(ell - m + 1, ell + m + 1):
        log_ratio -= np.log(k)
    return float(np.exp(0.5 * (np.log(2 * ell + 1) - np.log(FOUR_PI) + log_ratio)))


def norm_legendre(ell: int, m: int, x):
    """Single normalized value N_{ell,m} P_{ell,m}(x)."""
    _check_args(ell, m, x)
    out = norm_legendre_table(ell + 1, x)[ell, m]
    return float(out) if np.ndim(out) == 0 else out


def sh_eval(ell: int, m: int, theta, phi):
    """Spherical harmonic Y_{ell,m}(theta, phi).

    m < 0 is returned as (-1)^m conj(Y_{ell,-m}) by construction.
    """
    if abs(m) > ell:
        raise ValueError(f"order |m|={abs(m)} exceeds degree ell={ell}")
    if m < 0:
        sign = -1.0 if m % 2 else 1.0
        return sign * np.conjugate(sh_eval(ell, -m, theta, phi))
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    val = norm_legendre(ell, m, np.cos(theta)) * np.exp(1j * m * phi)
    return complex(val) if np.ndim(val) == 0 else val


def spectral_index(ell: int, m: int) -> int:
    """Flat position of coefficient (ell, m) in the canonical ordering."""
    if abs(m) > ell:
        raise ValueError(f"order m={m} exceeds degree ell={ell}")
    if m == 0:
        return ell * ell
    if m > 0:
        return ell * ell + 2 * m - 1
    return ell * ell - 2 * m


def spectral_entries(L: int) -> list[tuple[int, int]]:
    """(ell, m) pairs in flat order, length L^2."""
    return list(zip(spectral_ells(L).tolist(), spectral_ms(L).tolist()))


def chart_index(ell: int, m: int, part: str = RE) -> int:
    """Flat chart position of the given real degree of freedom (m >= 0)."""
    if m < 0 or m > ell:
        raise ValueError(f"chart slots are indexed by 0 <= m <= ell, got m={m}, ell={ell}")
    if part not in (RE, IM):
        raise ValueError(f"part must be {RE!r} or {IM!r}, got {part!r}")
    if m == 0:
        if part != RE:
            raise ValueError("a_{ell,0} has no imaginary chart slot")
        return ell * ell
    return ell * ell + 2 * m - (1 if part == RE else 0)


def sigma_root(cov) -> np.ndarray:
    """The dense Sigma^{1/2} (L^2 x L^2): the stack `cov.root` scattered over the (m, part) blocks."""
    out = np.zeros((cov.L * cov.L,) * 2)
    for m, rows in block_slots(cov.L):
        out[np.ix_(rows, rows)] = cov.root[m, m:, m:]
    return out


def times_root(cov, g: np.ndarray) -> np.ndarray:
    """The rows of g times Sigma^{1/2}, one (m, part) block at a time."""
    return _block_matmul(cov.root, g.T).T


def T(bops) -> np.ndarray:
    """The dense chart map T (L^2 x d_X) of a bound kit."""
    return chart_linear_map(bops.ops)


def M(bops) -> np.ndarray:
    """The dense chart-to-grid synthesis map M (d_X x L^2) of a bound kit."""
    return synthesis_matrix(bops.ops)


def Tplus(bops) -> np.ndarray:
    """T+ = T^T Sigma^+, one (m, part) block of Sigma at a time."""
    Tt = T(bops).T
    out = np.empty_like(Tt)
    for m, i in block_slots(bops.L):
        out[:, i] = Tt[:, i] @ bops.sigma_pinv[m, m:bops.L, m:bops.L]
    return out


def Z(bops) -> np.ndarray:
    """The kernel part Z = M - T+, with T Z = 0."""
    return M(bops) - Tplus(bops)


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

    The lifted score comes from `from_chart`, so it is conjugate-symmetric
    and its synthesis is real.
    """
    if s_hat_chart.domain != "chart":
        raise ValueError("auxiliary score requires a chart-domain score field")
    L = ops.L

    def fn(x, t):
        z = to_chart(analysis(ops, np.atleast_2d(x)), L)
        s_complex = from_chart(np.asarray(s_hat_chart(z, t), dtype=float), L)
        return synthesis(ops, s_complex).reshape(np.shape(x))

    return ScoreField(fn=fn, domain="spatial")


def sigma_csv(X, L: int) -> str:
    """The annotated CSV of X with every cell formatted on its own."""
    labels = chart_labels(L)
    lines = ["index," + ",".join(f'"{c}"' for c in labels)]
    lines += [f'"{lab}",' + ",".join(FMT % v for v in row) for lab, row in zip(labels, X)]
    return "\n".join(lines) + "\n"


def sample_csv(X) -> bytes:
    """The sample CSV of X with one % call per row."""
    row_fmt = ",".join([FMT] * X.shape[1])
    return ("\n".join(row_fmt % tuple(row.tolist()) for row in X) + "\n").encode()


def pow10_table(x0: int = -281):
    """(hi, hi's upper and lower 26-bit halves, lo) of 10^(16 - X) = hi + lo for
    X = x0 ... -x0, one exponent at a time from Python integers."""
    hi, lo = [], []
    for p in range(16 + x0, 17 - x0)[::-1]:
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi, lo = np.array(hi), np.array(lo)
    c = 134217729.0 * hi
    return hi, c - (c - hi), hi - (c - (c - hi)), lo


def _cell_words(cell: bytes) -> np.ndarray:
    """A 24-byte cell, nul-padded, as its 3 little-endian uint64 words."""
    return np.frombuffer(cell.ljust(24, b"\0"), dtype="<u8")


def layout_tables(x0: int = -281):
    """The formatter's cell layouts, one exponent X = x0 ... -x0 at a time,
    cell-major: the mask of the bytes that move and the shift in bits, row
    i of X = x0 + i; the fill without the point (row i) and with it (row
    i + n); and the masks that keep the sign and the first k digits."""
    n = 1 - 2 * x0
    move, shift = np.zeros((n, 3), np.uint64), np.zeros(n, np.uint64)
    fill = np.zeros((2 * n, 3), np.uint64)
    for i, X in enumerate(range(x0, 1 - x0)):
        if -4 <= X < 0:
            cut, gap, tail = 1, b"0." + b"0" * (-X - 1), b""
            bare = gap  # digits always follow
        else:
            fixed = 0 <= X <= 16
            cut, gap, bare = X + 2 if fixed else 2, b".", b""
            tail = b"" if fixed else b"e%+03d" % X
        move[i], shift[i] = ~_cell_words(b"\xff" * cut), 8 * len(gap)
        end = _cell_words(tail.rjust(24, b"\0"))
        fill[i] = _cell_words(b"\0" * cut + bare) | end
        fill[n + i] = _cell_words(b"\0" * cut + gap) | end
    return move, shift, fill, np.stack([_cell_words(b"\xff" * (1 + k)) for k in range(18)])


def wasserstein_in_logs(a, b, p: float) -> float:
    """Order-p Wasserstein distance of two 1-D empirical measures on their
    common grid of lcm(n, m) quantiles, the p-th powers summed in logs, so
    that no finite sample overflows or underflows."""
    k = math.lcm(len(a), len(b))
    D = np.abs(np.repeat(np.sort(a), k // len(a)) - np.repeat(np.sort(b), k // len(b)))
    logs = p * np.log(D[D > 0])
    if not logs.size:
        return 0.0
    top = logs.max()
    return float(np.exp((top + np.log(np.sum(np.exp(logs - top)) / k)) / p))


def sliced_wasserstein_in_logs(A, B, p: float, n_proj: int, seed) -> np.ndarray:
    """`wasserstein_in_logs` of A and B projected on each direction that
    `metrics.sliced_wasserstein` draws with the same seed."""
    dirs = np.random.default_rng(seed).standard_normal((n_proj, A.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.array([wasserstein_in_logs(A @ u, B @ u, p) for u in dirs])


def grid_diagnostics(x, mu, S, M) -> dict:
    """`sde.run_chain`'s diagnostics of spatial paths x against N(M mu, M S M^T),
    from the dense d_X x d_X target and sample covariance."""
    target, mean = M @ S @ M.T, M @ mu
    mean_err = x.mean(axis=0) - mean
    return {
        "mean_rel_error": _rel_frobenius(mean_err, mean),
        "mean_err_over_sd": _rel_frobenius(mean_err, np.sqrt(np.diag(target))),
        "cov_rel_frobenius_error": _rel_frobenius(empirical_covariance(x) - target, target),
    }


def rel_frobenius(err, ref):
    """|err| / |ref| in the Frobenius norm with both arrays at hand: each sum
    of squares is summed again over its array divided by its largest
    magnitude only where a sum leaves the normal float range (the rules of
    `metrics._frobenius_ratio`)."""
    def sumsq(x, scale=1.0):
        v = np.ravel(x) if scale == 1.0 else np.ravel(x) / scale
        return np.einsum("i,i->", v, v)

    tiny = np.finfo(float).tiny
    num, den = sumsq(err), sumsq(ref)
    if not (tiny <= num < np.inf and tiny <= den < np.inf):
        s_err, s_ref = (np.max(np.abs(x), initial=0.0) for x in (err, ref))
        scalable = 0 < s_err < np.inf, tiny <= s_ref < np.inf
        if any(ok and not tiny <= s < np.inf for ok, s in zip(scalable, (num, den))):
            if not scalable[1]:
                return None
            s_err = s_err if scalable[0] else 1.0
            with np.errstate(over="ignore"):
                ratio = s_err / s_ref * (np.sqrt(sumsq(err, s_err)) / np.sqrt(sumsq(ref, s_ref)))
            return float(ratio) if np.isfinite(ratio) else None
    return float(np.sqrt(num)) / float(np.sqrt(den)) if den else None
