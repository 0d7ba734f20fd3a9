import numpy as np
import pytest

import dense_reference
from dense_reference import spectral_entries, spectral_index
from spherediff import indexing


@pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 17, 64])
def test_spectral_entries_match_index(L):
    entries = spectral_entries(L)
    assert len(entries) == L * L
    for slot, (ell, m) in enumerate(entries):
        assert spectral_index(ell, m) == slot


@pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 17, 64])
def test_chart_entries_match_index(L):
    entries = indexing.chart_entries(L)
    assert len(entries) == L * L
    for slot, (ell, m, part) in enumerate(entries):
        assert dense_reference.chart_index(ell, m, part) == slot


def test_spectral_ordering_per_degree():
    # within each degree: m = 0, +1, -1, +2, -2, ...
    assert spectral_entries(3) == [
        (0, 0),
        (1, 0), (1, 1), (1, -1),
        (2, 0), (2, 1), (2, -1), (2, 2), (2, -2),
    ]


def test_chart_slot_coincidence():
    # chart Re(a_{ell,m}) shares its slot with spectral (ell, m); Im with (ell, -m)
    for L in (2, 4, 6, 17, 64):
        for ell in range(L):
            assert dense_reference.chart_index(ell, 0, "re") == spectral_index(ell, 0)
            for m in range(1, ell + 1):
                assert dense_reference.chart_index(ell, m, "re") == spectral_index(ell, m)
                assert dense_reference.chart_index(ell, m, "im") == spectral_index(ell, -m)


def test_index_validation():
    with pytest.raises(ValueError):
        spectral_index(1, 2)
    with pytest.raises(ValueError):
        dense_reference.chart_index(1, 0, "im")  # m = 0 has no imaginary slot
    with pytest.raises(ValueError):
        dense_reference.chart_index(2, 1, "abs")


@pytest.mark.parametrize("L", [1, 2, 4, 8, 17, 64])
def test_mirror_permutation_involution(L):
    perm, sign = indexing.mirror_permutation(L)
    assert np.array_equal(perm[perm], np.arange(L * L))
    assert set(np.unique(sign)) <= {-1.0, 1.0}
    # applying the mirror map twice is the identity on any vector
    rng = np.random.default_rng(0)
    a = rng.standard_normal(L * L) + 1j * rng.standard_normal(L * L)
    mirrored = sign * np.conj(a[perm])
    twice = sign * np.conj(mirrored[perm])
    assert np.array_equal(twice, a)


def test_helper_arrays_consistent():
    for L in (4, 17, 64):
        ells = indexing.spectral_ells(L)
        ms = indexing.spectral_ms(L)
        for slot, (ell, m) in enumerate(spectral_entries(L)):
            assert ells[slot] == ell and ms[slot] == m
        cms = indexing.chart_ms(L)
        cim = indexing.chart_is_im(L)
        for slot, (ell, m, part) in enumerate(indexing.chart_entries(L)):
            assert cms[slot] == m
            assert cim[slot] == (part == "im")


@pytest.mark.parametrize("L", [1, 2, 5, 17, 64])
def test_order_and_block_slots_match_the_chart_layout(L):
    m, ell, plus, minus, sign = indexing.order_slots(L)
    assert np.array_equal(plus, [spectral_index(e, k) for e, k in zip(ell, m)])
    assert np.array_equal(minus, [spectral_index(e, -k) for e, k in zip(ell, m)])
    assert np.array_equal(sign, (-1.0) ** m)
    blocks = indexing.block_slots(L)
    assert [k for k, _ in blocks] == [k for k in range(L) for _ in range(2 if k else 1)]
    cms, cim = indexing.chart_ms(L), indexing.chart_is_im(L)
    for i, (k, rows) in enumerate(blocks):
        part = i > 0 and k == blocks[i - 1][0]  # the second block of an order is Im
        assert np.all(cms[rows] == k) and np.all(cim[rows] == part)
        assert np.array_equal(indexing.spectral_ells(L)[rows], np.arange(k, L))
    assert np.array_equal(np.sort(np.concatenate([r for _, r in blocks])), np.arange(L * L))
