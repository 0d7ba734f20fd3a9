import tracemalloc
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import chart_index, sample_csv, sigma_csv, sigma_root, times_root
from sphere_helpers import BAND_LIMITS
from spherediff import chart, noise, sde, transform
from spherediff.indexing import chart_is_im, chart_ms


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_covariance_blocks_symmetric(L, cov_cache):
    sigma = cov_cache[L].sigma
    assert sigma.shape == (L, L, L)
    for m, B in enumerate(sigma):
        np.testing.assert_allclose(B, B.T, atol=1e-15)
        assert not B[:m].any() and not B[:, :m].any()  # zero where ell or ell' < m


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_sigma_structure(L, cov_cache):
    Sigma = cov_cache[L].Sigma
    assert np.max(np.abs(Sigma - Sigma.T)) < 1e-12
    assert np.linalg.eigvalsh(Sigma).min() > -1e-10
    ms, im = chart_ms(L), chart_is_im(L)
    off_block = (ms[:, None] != ms[None, :]) | (im[:, None] != im[None, :])
    assert np.all(Sigma[off_block] == 0.0)  # cross entries exactly zero
    # the m = 0 block is Sigma_0 = 2 C_0, held doubled in the stack
    cov = cov_cache[L]
    assert Sigma[0, 0] == cov.sigma[0, 0, 0]


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_sigma_matches_the_per_entry_loop(L, cov_cache):
    cov = cov_cache[L]
    ref = np.zeros((L * L, L * L))
    for ell in range(L):
        for ellp in range(L):
            for m in range(min(ell, ellp) + 1):
                c = cov.sigma[m, ell, ellp]
                if m == 0:
                    ref[ell * ell, ellp * ellp] = c
                else:
                    i, j = chart_index(ell, m, "re"), chart_index(ellp, m, "re")
                    ref[i, j] = ref[i + 1, j + 1] = c
    assert np.array_equal(cov.Sigma, ref)


@pytest.mark.parametrize("L", BAND_LIMITS)
def test_sigma_equals_tt_transpose(L, ops_cache, cov_cache):
    T = chart.chart_linear_map(ops_cache[L])
    assert np.max(np.abs(cov_cache[L].Sigma - T @ T.T)) < 1e-10


@pytest.mark.parametrize("L", BAND_LIMITS + (32,))
def test_factor_reproduces_sigma(L, cov_cache):
    cov = cov_cache[L] if L in cov_cache else noise.build_covariance(L)
    root = sigma_root(cov)
    assert np.linalg.norm(root @ root.T - cov.Sigma) < 1e-10


def _eig(*sigma_blocks):
    """The eigenpair stack of the blocks Sigma_0, Sigma_1, ... (test helper)."""
    L = len(sigma_blocks)
    S = np.zeros((L, L, L))
    for m, B in enumerate(sigma_blocks):
        S[m, m:, m:] = B
    return noise._stack_eigh(S)


def test_factor_identity_convention():
    roots, min_eig = noise.factor_sigma(_eig(np.eye(2), np.eye(1)))  # Sigma = I at L = 2
    assert len(roots) == 2
    np.testing.assert_array_equal(roots[0], np.eye(2))
    np.testing.assert_array_equal(roots[1], np.diag([0.0, 1.0]))  # zero on the pad ell < 1
    assert min_eig == 1.0


def test_factor_clips_tiny_negatives_and_rejects_indefinite():
    roots, _ = noise.factor_sigma(_eig(np.diag([1.0, -1e-13]), [[1.0]]))
    np.testing.assert_allclose(roots[0] @ roots[0].T, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(roots[1] @ roots[1].T, np.diag([0.0, 1.0]), atol=1e-15)
    with pytest.raises(noise.IndefiniteCovariance):
        noise.factor_sigma(_eig(np.diag([1.0, -1e-3]), [[1.0]]))
    with pytest.raises(noise.IndefiniteCovariance):
        noise.factor_sigma(_eig(np.diag([1.0, 2.0]), [[-1e-3]]))  # in an m > 0 block


def test_factor_deterministic():
    a, _ = noise.factor_sigma(noise.build_covariance(3).eig)
    b, _ = noise.factor_sigma(noise.build_covariance(3).eig)
    assert len(a) == len(b) == 3
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("L", BAND_LIMITS + (32,))
def test_covariance_eigenpairs_are_one_eigh_per_order(L, cov_cache):
    cov = cov_cache[L] if L in cov_cache else noise.build_covariance(L)
    w_all, V_all = cov.eig
    assert w_all.shape == (L, L) and V_all.shape == (L, L, L)
    for m in range(L):  # Sigma_m's eigenpairs in the slots k >= m
        S, w, V = cov.sigma[m, m:, m:], w_all[m, m:], V_all[m, m:, m:]
        assert np.all(np.diff(w) >= 0)  # ascending, like np.linalg.eigh
        assert np.max(np.abs((V * w) @ V.T - S)) <= 1e-13
        assert np.max(np.abs(V.T @ V - np.eye(L - m))) <= 1e-13
        # the pads' eigenvalues lie below, and no eigenvector mixes pads and slots
        assert np.all(w_all[m, :m] < w.min())
        assert not V_all[m, :m, m:].any() and not V_all[m, m:, :m].any()


def test_sampler_zero_time_and_shapes(cov_cache):
    cov = cov_cache[2]
    Z = noise.sample_mirrored_bm(cov, 0.0, 5, seed=1)
    assert Z.shape == (5, 4)
    assert np.all(Z == 0.0)
    with pytest.raises(ValueError):
        noise.sample_mirrored_bm(cov, -1.0, 5, seed=1)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        noise.sample_mirrored_bm(cov, 1.0, -1, 0)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        noise.mirrored_bm_via_spatial(transform.build_operators(2), 1.0, -1, 0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
def test_samplers_reject_a_time_that_is_not_finite_and_nonnegative(t, ops_cache, cov_cache):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        noise.sample_mirrored_bm(cov_cache[2], t, 2, seed=0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        noise.mirrored_bm_via_spatial(ops_cache[2], t, 2, seed=0)


@pytest.mark.parametrize("L", list(range(1, 14)) + [16, 32])
def test_per_block_roots_equal_the_dense_root(L, cov_cache):
    # the sampler and the chart forward leg apply Sigma^{1/2} one (m, part)
    # block at a time; both equal the dense root times the same normals
    cov = cov_cache[L] if L in cov_cache else noise.build_covariance(L)
    root, n = sigma_root(cov), 7

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    g = np.random.default_rng(3).standard_normal((n, L * L))
    assert rel(noise.sample_mirrored_bm(cov, 0.6, n, seed=3), np.sqrt(0.6) * g @ root.T) <= 1e-14
    s = sde.VpSchedule(steps=10)
    a, s2, _ = sde.forward_law(s)
    x = np.random.default_rng(4).standard_normal((n, L * L))
    state = sde.DiffusionState(time=0.0, values=x, domain="chart")
    out, aborted = sde.forward_exact(state, s, 5, cov=cov)
    xi = np.random.default_rng(5).standard_normal((n, L * L))
    assert not aborted
    assert rel(out.values, a * x + np.sqrt(s2) * (xi @ root.T)) <= 1e-14


def test_chart_and_spatial_samplers_agree_in_law(ops_cache, cov_cache):
    L, n, t = 2, 20_000, 0.7
    cov = cov_cache[L]
    Z1 = noise.sample_mirrored_bm(cov, t, n, seed=11)
    V = noise.mirrored_bm_via_spatial(ops_cache[L], t, n, seed=12)
    Z2 = (V @ _chart_extraction_matrix(L).T).real
    c1 = noise.empirical_covariance(Z1)
    c2 = noise.empirical_covariance(Z2)
    rel = np.linalg.norm(c1 - c2) / np.linalg.norm(t * cov.Sigma)
    assert rel < 0.08


def _chart_extraction_matrix(L):
    """Complex matrix E with Re(E a) = to_chart(a) for symmetric a (test helper)."""
    from dense_reference import spectral_index
    from spherediff.indexing import chart_entries

    E = np.zeros((L * L, L * L), dtype=complex)
    for i, (ell, m, part) in enumerate(chart_entries(L)):
        E[i, spectral_index(ell, m)] = 1.0 if part == "re" else -1.0j
    return E


def test_spatial_route_sample_symmetry_exact(ops_cache):
    V = noise.mirrored_bm_via_spatial(ops_cache[4], 1.0, 50, seed=3)
    for v in V:
        assert transform.mirror_residual(v, 4) == 0.0


def test_disjoint_increments_uncorrelated(cov_cache):
    cov = cov_cache[2]
    n = 20_000
    Z1 = noise.sample_mirrored_bm(cov, 0.5, n, seed=21)
    dZ = noise.sample_mirrored_bm(cov, 0.3, n, seed=22)
    r1 = Z1 - Z1.mean(axis=0)
    r2 = dZ - dZ.mean(axis=0)
    cross = r1.T @ r2 / (n - 1)
    scale = np.sqrt(np.outer(np.diag(cov.Sigma) * 0.5, np.diag(cov.Sigma) * 0.3))
    assert np.max(np.abs(cross / scale)) < 3 / np.sqrt(n) * 3  # 3-sigma with a margin


def test_lift_samples_symmetry(cov_cache):
    cov = cov_cache[2]
    Z = noise.sample_mirrored_bm(cov, 1.0, 4, seed=2)
    A = chart.from_chart(Z, 2)
    for a in A:
        assert transform.mirror_residual(a, 2) == 0.0


def test_empirical_covariance_needs_two_samples():
    with pytest.raises(ValueError):
        noise.empirical_covariance(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="2 samples"):
        noise.mirrored_bm_covariance(noise.build_covariance(2), 1.0, 1, 0)


def test_sample_files_round_trip(tmp_path):
    X = np.random.default_rng(0).standard_normal((7, 4))
    meta = {"L": 2, "t": 1.0, "seed": 5}
    p = tmp_path / "samples.csv"
    noise.save_samples(p, X, meta)
    Y, m = noise.load_samples(p)
    np.testing.assert_array_equal(Y, X)
    assert m["L"] == 2 and m["n"] == 7 and m["d"] == 4

    p2 = tmp_path / "samples.f64"
    noise.save_samples(p2, X, meta, raw=True)
    Y2, m2 = noise.load_samples(p2)
    np.testing.assert_array_equal(Y2, X)
    assert m2["raw"] is True


def test_sample_sidecar_mismatch_detected(tmp_path):
    X = np.zeros((3, 2))
    p = tmp_path / "s.csv"
    noise.save_samples(p, X, {"L": 1, "t": 1.0, "seed": 0})
    sidecar = p.with_name("s.csv.json")
    sidecar.write_text(sidecar.read_text().replace('"n": 3', '"n": 4'))
    with pytest.raises(ValueError):
        noise.load_samples(p)


def test_sample_sidecar_width_mismatch_detected(tmp_path):
    p = tmp_path / "s.csv"
    noise.save_samples(p, np.ones((3, 4)), {"L": 2, "t": 1.0, "seed": 0})
    sidecar = p.with_name("s.csv.json")
    sidecar.write_text(sidecar.read_text().replace('"d": 4', '"d": 9'))
    with pytest.raises(ValueError, match="4 columns"):
        noise.load_samples(p)


def test_sigma_csv_annotations(cov_cache, tmp_path):
    noise.sigma_to_csv(cov_cache[2].Sigma, 2, tmp_path / "s.csv")
    text = (tmp_path / "s.csv").read_text()
    header = text.splitlines()[0]
    assert header.startswith('index,"(0,0,re)","(1,0,re)","(1,1,re)","(1,1,im)"')


@pytest.mark.parametrize("L", BAND_LIMITS + (32,))
def test_factor_roots_are_symmetric_positive_definite_square_roots(L, cov_cache):
    cov = cov_cache[L] if L in cov_cache else noise.build_covariance(L)
    assert cov.root.shape == (L, L, L)
    for m in range(L):
        R, S = cov.root[m, m:, m:], cov.sigma[m, m:, m:]  # Sigma_m
        assert not cov.root[m, :m].any() and not cov.root[m, :, :m].any()  # zero pads
        # symmetric up to round-off: V sqrt(w) V^T is not summed symmetrically
        assert np.max(np.abs(R - R.T)) <= 1e-15 * np.max(np.abs(R))
        assert np.max(np.abs(R @ R - S)) <= 1e-13
        assert np.linalg.eigvalsh(R).min() > 0


def test_empirical_covariance_matches_the_einsum_reference():
    X = np.random.default_rng(4).standard_normal((500, 64)) * np.linspace(0.1, 3.0, 64)
    R = X - X.mean(axis=0)
    ref = np.einsum("ni,nj->ij", R, R) / (X.shape[0] - 1)
    got = noise.empirical_covariance(X)
    assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)


def _one_block_limit(d):
    """The largest n that `mirrored_bm_covariance` draws as one block."""
    n = 2
    while noise._covariance_rows(n + 1, d) == n + 1:
        n += 1
    return n


@pytest.mark.parametrize("L", [*range(1, 14), 16, 32])
def test_streamed_covariance_matches_the_dense_estimator(L):
    cov = noise.build_covariance(L)
    k = _one_block_limit(L * L)
    for n in (2, k - 1, k, k + 1, 3001):
        want = noise.empirical_covariance(noise.sample_mirrored_bm(cov, 0.8, n, 21))
        got = noise.mirrored_bm_covariance(cov, 0.8, n, 21)
        if n <= k:  # one block: the same bits
            assert got.tobytes() == want.tobytes(), n
        else:  # merged blocks: round-off, and still exactly symmetric
            assert noise._covariance_rows(n, L * L) < n
            assert np.linalg.norm(got - want) <= 2e-15 * np.linalg.norm(want), n
            assert got.tobytes() == got.T.copy().tobytes(), n


# panels of one column, of 33 columns (and a last one of 4), of 21 (the default
# L^2 // 8, and a last one of 1) and one panel of every column
@pytest.mark.parametrize("share", [10**6, 5, 8, 1])
def test_streamed_covariance_in_panels_of_any_width_agrees(share, monkeypatch):
    cov, n = noise.build_covariance(13), 3001
    want = noise.empirical_covariance(noise.sample_mirrored_bm(cov, 0.8, n, 21))
    monkeypatch.setattr(noise, "_PANEL_SHARE", share)
    got = noise.mirrored_bm_covariance(cov, 0.8, n, 21)
    assert np.linalg.norm(got - want) <= 2e-15 * np.linalg.norm(want)
    assert got.tobytes() == got.T.copy().tobytes()


def test_streamed_covariance_of_large_counts_holds_bounded_blocks():
    for d in (1, 256, 1024, 4096):
        for n in (10**5, 10**7):
            assert noise._covariance_rows(n, d) == max(2048, d)
    assert noise._covariance_rows(2000, 1024) == 512  # four blocks of at most 512 rows
    assert noise._covariance_rows(2000, 4096) == 2000  # blocks would hold more values


# one block of draws; blocks of 7 rows and a shorter last one; the covariance
# command at L = 32 (blocks of 128 rows)
@pytest.mark.parametrize("L,n,rows", [(1, 5, None), (4, 300, None), (4, 300, 7), (13, 200, 7),
                                      (32, 2000, None)])
def test_sampler_draws_in_blocks_the_bits_of_one_draw(L, n, rows, monkeypatch):
    cov = noise.build_covariance(L)
    want = times_root(cov, np.random.default_rng(9).standard_normal((n, L * L)))
    want *= np.sqrt(0.7)
    if rows:
        monkeypatch.setattr(noise, "_DRAW_BLOCK", rows * L * L)
    got = noise.sample_mirrored_bm(cov, 0.7, n, 9)
    assert got.tobytes() == want.tobytes() and got.strides == want.strides


# blocks of 7 rows and a shorter last one
@pytest.mark.parametrize("L", [2, 4, 13])
def test_spatial_sampler_draws_in_blocks_the_bits_of_one_draw(L, monkeypatch):
    ops = transform.build_operators(L)
    g = np.random.default_rng(9).standard_normal((40, ops.d_spatial))
    want = np.sqrt(0.7) * transform.analysis(ops, g)
    monkeypatch.setattr(noise, "_DRAW_BLOCK", 7 * ops.d_spatial)
    got = noise.mirrored_bm_via_spatial(ops, 0.7, 40, 9)
    assert got.tobytes() == want.tobytes() and got.strides == want.strides


def _awkward_matrix():
    X = np.random.default_rng(6).standard_normal((5, 7)) * 10.0 ** np.arange(-3, 4)
    X[0, 0], X[1, 2], X[2, 4], X[4, 6] = 0.0, -0.0, 1e-300, -1e-300
    return X


def test_sample_csv_matches_the_per_value_formatter(tmp_path):
    X = _awkward_matrix()
    p = tmp_path / "s.csv"
    noise.save_samples(p, X, {"L": 2, "t": 1.0, "seed": 0})
    ref = "\n".join(",".join(noise.FMT % v for v in row) for row in X) + "\n"
    assert p.read_text() == ref
    assert "-0," in ref and "1e-300" in ref


def _texts(x):
    """The texts of `noise._format_cells`, nul bytes dropped."""
    return [c.tobytes().replace(b"\0", b"") for c in noise._format_cells(np.asarray(x))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(lambda b: np.array([b], dtype=np.uint64).view(float)[0]),
), min_size=1, max_size=50))
def test_cells_match_fmt_on_any_float64(values):
    x = np.array(values, dtype=float)
    assert _texts(x) == [(noise.FMT % v).encode() for v in x.tolist()]


def test_cells_match_fmt_over_a_sweep_of_a_million_values():
    rng = np.random.default_rng(18)
    # powers of ten, with 1e-5, 1e-4, 1e16 and 1e17, where %g changes form
    edges = np.array([float(f"1e{p}") for p in range(-300, 301)])
    # 18 significant digits ending in 5: within an ulp of a tie at the 17th
    ties = [float(f"{d}.{m:016d}5e{k}") for d, m, k in zip(
        rng.integers(1, 10, 100_000), rng.integers(0, 10**16, 100_000),
        rng.integers(-300, 301, 100_000))]
    x = np.concatenate([
        rng.integers(0, 2**64, 600_000, dtype=np.uint64).view(float),  # any bit pattern
        rng.standard_normal(200_000) * np.exp(rng.uniform(-700, 700, 200_000)),
        np.round(rng.standard_normal(100_000) * 10.0 ** rng.integers(-6, 18, 100_000)),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), ties,
    ])
    x = np.concatenate([x, -x[-len(ties) - 3 * len(edges):]])
    assert x.size >= 1_000_000
    lines = np.full((x.size, 25), ord("\n"), dtype=np.uint8)
    lines[:, :24] = noise._format_cells(x)
    got = lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    ref = [noise.FMT % v for v in x.tolist()]
    bad = [(v, g, r) for v, g, r in zip(x.tolist(), got, ref) if g != r]
    assert not bad, bad[:5]


def test_cells_fall_back_to_fmt_only_where_in_doubt(monkeypatch):
    calls = []

    class CountingFormat(str):
        def __mod__(self, value):
            calls.append(value)
            return str.__mod__(self, value)

    fmt = noise.FMT
    monkeypatch.setattr(noise, "FMT", CountingFormat(fmt))
    ordinary = [1.5, -0.0, 0.0, 3e-5, 123456789.125, -2.5e-200, 7e279]
    assert _texts(ordinary) == [(fmt % v).encode() for v in ordinary]
    assert calls == []
    huge = [1.0000000000000001e281, -3.3e300, 1.7976931348623157e308, np.inf]
    assert _texts(huge) == [(fmt % v).encode() for v in huge]
    assert calls == huge


@pytest.mark.parametrize("shape", [(250, 552), (1000, 56)])
def test_sample_csv_at_diffuse_size_matches_the_per_row_oracle(shape, tmp_path):
    X = np.random.default_rng(shape[1]).standard_normal(shape)
    noise.save_samples(tmp_path / "s.csv", X, {"L": 2, "t": 1.0, "seed": 0})
    assert (tmp_path / "s.csv").read_bytes() == sample_csv(X)


@pytest.mark.parametrize("X,text", [
    (np.zeros((0, 4)), b"\n"),
    (np.zeros((3, 0)), b"\n\n\n"),
    (np.array([[-0.0]]), b"-0\n"),
], ids=["no-rows", "no-columns", "minus-zero"])
def test_sample_csv_of_edge_shapes(X, text, tmp_path):
    noise.save_samples(tmp_path / "s.csv", X, {"L": 2, "t": 1.0, "seed": 0})
    assert (tmp_path / "s.csv").read_bytes() == text


def test_sigma_csv_matches_the_per_value_formatter(tmp_path):
    X = np.zeros((4, 4))
    X[:, :3] = _awkward_matrix()[:4, :3]
    X[3, 3] = -0.0
    noise.sigma_to_csv(X, 2, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_text() == sigma_csv(X, 2)


def test_sigma_csv_with_zero_cells_matches_the_per_value_formatter(tmp_path):
    X = np.zeros((9, 9))
    X[0, :6] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]  # -0.0 stays "-0"
    X[1, 4] = 1.0 / 3.0
    X[3] = np.random.default_rng(8).standard_normal(9) * 10.0 ** np.arange(-4, 5)  # dense
    X[4, :3] = [-1e-300, 2.5, 0.0]  # rows 2 and 5 .. 8 are all zeros
    noise.sigma_to_csv(X, 3, tmp_path / "s.csv")
    text = (tmp_path / "s.csv").read_text()
    assert text == sigma_csv(X, 3)
    assert ",0,-0,nan,inf,-inf,4.9406564584124654e-324," in text


def _nan(sign, payload):
    return np.array([(sign << 63) | (0x7FF << 52) | payload], dtype=np.uint64).view(float)[0]


@pytest.mark.parametrize("upper,lower", [
    (1.0 / 3.0, np.nextafter(1.0 / 3.0, 1.0)),  # the last bit
    (-2.5e-300, np.nextafter(-2.5e-300, 0.0)),
    (0.0, -0.0),
    (-0.0, 0.0),
    (_nan(0, 1 << 51), _nan(1, 1 << 51)),  # the sign of a NaN
    (_nan(0, 1 << 51), _nan(0, 1 << 51 | 5)),  # its payload
], ids=["last-bit", "last-bit-tiny", "+0/-0", "-0/+0", "nan-sign", "nan-payload"])
def test_sigma_csv_reuses_a_mirror_cell_only_where_the_bits_agree(upper, lower, tmp_path):
    A = np.random.default_rng(9).standard_normal((9, 9)) * 10.0 ** np.arange(-4, 5)
    X = A + A.T
    X[0, 1:4] = X[1:4, 0] = 0.0  # mirror pairs that do agree
    X[5, 7] = X[7, 5] = np.nan
    X[6, 6] = -0.0
    X[1, 6], X[6, 1] = upper, lower
    X[8, 4], X[4, 8] = upper, lower  # and the other way round
    assert np.count_nonzero(X.view(np.uint64) != X.T.view(np.uint64)) == 4
    noise.sigma_to_csv(X, 3, tmp_path / "s.csv")
    text = (tmp_path / "s.csv").read_text()
    assert text == sigma_csv(X, 3)
    rows = [line.partition('",')[2].split(",") for line in text.splitlines()[1:]]
    assert (rows[1][6] == rows[6][1]) == (noise.FMT % upper == noise.FMT % lower)


def _first_difference(got: str, want: str):
    """(line, cell, got, want) at the first CSV cell where two texts differ,
    or None: a short failure message, where pytest's diff of texts of many
    megabytes takes minutes."""
    for i, (g, w) in enumerate(zip_longest(got.split("\n"), want.split("\n"))):
        if g != w:
            cells = zip_longest((g or "").split(","), (w or "").split(","))
            return next((i, j, a, b) for j, (a, b) in enumerate(cells) if a != b)
    return None


@pytest.mark.parametrize("L", [10, 32])  # blocks of 81 rows and a last of 19; of 8 rows
def test_sigma_csv_across_row_blocks_matches_the_per_value_formatter(L, tmp_path):
    d = L * L
    rng = np.random.default_rng(L)
    X = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-20, 21, (d, d))
    kind = rng.integers(0, 64, (d, d))
    X[kind < 32] = 0.0  # half the cells, as in the block-sparse Sigma
    X[kind == 32] = -0.0
    X[kind == 33] = np.nan
    subnormal = rng.integers(1, 2**52, (d, d), dtype=np.uint64).view(float)
    X[kind == 34] = (subnormal * np.sign(X))[kind == 34]
    X[d // 2:d // 2 + 8] = 0.0  # at L = 32, a block with no cell to format
    p = tmp_path / "s.csv"
    noise.sigma_to_csv(X, L, p)
    assert _first_difference(p.read_text(), sigma_csv(X, L)) is None
    wide = np.zeros((d, 2 * d))
    wide[:, ::2] = X.T
    text, rows = sigma_csv(X.T, L), sample_csv(X.T).decode()
    for Y in (X.T, wide[:, ::2]):  # a transposed view, and a strided slice of its values
        noise.sigma_to_csv(Y, L, p)
        assert _first_difference(p.read_text(), text) is None
        noise.save_samples(p, Y, {"L": L, "t": 1.0, "seed": 0})
        assert _first_difference(p.read_text(), rows) is None


def test_sigma_csv_at_L32_streams_within_a_memory_bound(tmp_path):
    # Measured: a 2.0 MB peak, the buffer and temporaries of one block of 8
    # rows; the bound is about 1.5 times that.  Building the whole text
    # first, as a list of lines and then one string, peaked at 73.9 MB.
    cov = noise.build_covariance(32)
    E = noise.empirical_covariance(noise.sample_mirrored_bm(cov, 1.0, 300, 12))
    tracemalloc.start()
    try:
        noise.sigma_to_csv(E, 32, tmp_path / "e.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6, peak


def test_sigma_csv_rejects_a_matrix_of_the_wrong_shape(tmp_path):
    with pytest.raises(ValueError, match="4 x 4"):
        noise.sigma_to_csv(np.zeros((4, 3)), 2, tmp_path / "s.csv")


def test_empty_sample_file_round_trips(tmp_path):
    p = tmp_path / "empty.csv"
    noise.save_samples(p, np.zeros((0, 9)), {"L": 3, "t": 1.0, "seed": 0})
    X, meta = noise.load_samples(p)
    assert X.shape == (0, 9) and meta["n"] == 0


@pytest.mark.parametrize("body", [b"", b"\n\n\n", b" \t\r\n"])
def test_a_sample_file_of_whitespace_loads_as_no_rows(tmp_path, body):
    p = tmp_path / "blank.csv"
    noise.save_samples(p, np.zeros((0, 9)), {"L": 3, "t": 1.0, "seed": 0})
    p.write_bytes(body)
    X, meta = noise.load_samples(p)
    assert X.shape == (0, 9) and meta["n"] == 0


def test_a_sample_file_whose_data_follow_a_block_of_whitespace_loads_them(tmp_path):
    # the blank check reads 64 KiB at a time; the row lies past the first block
    p = tmp_path / "late.csv"
    noise.save_samples(p, np.ones((1, 3)), {"L": 1, "t": 1.0, "seed": 0})
    p.write_bytes(b"\n" * 70_000 + p.read_bytes())
    X, _ = noise.load_samples(p)
    assert np.array_equal(X, np.ones((1, 3)))


# Measured: 1.47 MB, of which 1.1 MB is the loaded matrix; reading the whole
# 2.8 MB file into memory for the blank check made it 5.6 MB.
def test_loading_a_sample_file_runs_within_a_memory_bound(tmp_path):
    p = tmp_path / "s.csv"
    noise.save_samples(p, np.random.default_rng(0).standard_normal((250, 552)), {"L": 12})
    tracemalloc.start()
    try:
        X, _ = noise.load_samples(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (250, 552) and peak <= 2.2e6, peak
