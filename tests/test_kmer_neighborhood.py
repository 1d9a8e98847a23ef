"""Tests for Hamming-ball enumeration and neighbor indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import ReadSet
from repro.kmer import (
    KmerSpectrum,
    PrecomputedNeighborIndex,
    ProbingNeighborIndex,
    complete_neighbors,
    neighborhood_size,
    neighbors_d1,
    neighbors_d1_batch,
    spectrum_from_reads,
    xor_patterns,
)
from repro.seq import kmer_hamming_scalar, string_to_kmer

kcodes = st.integers(0, 2**20 - 1)  # k = 10


def test_neighbors_d1_count_and_distance():
    code = string_to_kmer("ACGTA")
    nb = neighbors_d1(code, 5)
    assert nb.size == 15
    assert len(set(nb.tolist())) == 15
    for x in nb.tolist():
        assert kmer_hamming_scalar(code, x) == 1


def test_neighbors_d1_batch_matches_single():
    codes = np.array([0, 5, 999], dtype=np.uint64)
    batch = neighbors_d1_batch(codes, 5)
    for i, c in enumerate(codes.tolist()):
        assert set(batch[i].tolist()) == set(neighbors_d1(c, 5).tolist())


def test_complete_neighbors_d2_size():
    k = 6
    ball = complete_neighbors(0, k, 2)
    assert ball.size == neighborhood_size(k, 2)
    assert len(set(ball.tolist())) == ball.size


@settings(max_examples=25)
@given(kcodes, st.integers(0, 2))
def test_complete_neighbors_exact_ball(code, d):
    k = 10
    # Default excludes self (unified include_self=False defaults).
    ball = set(complete_neighbors(code, k, d).tolist())
    assert code not in ball
    for x in list(ball)[:50]:
        assert 1 <= kmer_hamming_scalar(code, x) <= d or d == 0
    assert len(ball) == neighborhood_size(k, d)
    with_self = set(complete_neighbors(code, k, d, include_self=True).tolist())
    assert code in with_self
    assert with_self == ball | {code}


def test_xor_patterns_give_distances():
    k, d = 8, 2
    pats = xor_patterns(k, d)
    dists = [kmer_hamming_scalar(0, int(p)) for p in pats.tolist()]
    assert min(dists) == 1 and max(dists) == 2
    assert len(pats) == neighborhood_size(k, d)


def _spectrum(seqs, k):
    return spectrum_from_reads(ReadSet.from_strings(seqs), k, both_strands=False)


def test_probing_index_basic():
    spec = _spectrum(["AAAAA", "AAAAT", "AAATT", "TTTTT"], 5)
    idx = ProbingNeighborIndex(spec, 1)
    nb = idx.neighbors(string_to_kmer("AAAAA"))
    assert set(nb.tolist()) == {string_to_kmer("AAAAT")}
    nb2 = idx.neighbors(string_to_kmer("AAAAA"), include_self=True)
    assert string_to_kmer("AAAAA") in set(nb2.tolist())


def test_precomputed_matches_probing_d1():
    rng = np.random.default_rng(0)
    seqs = ["".join("ACGT"[c] for c in rng.integers(0, 4, 30)) for _ in range(40)]
    k = 7
    spec = _spectrum(seqs, k)
    probe = ProbingNeighborIndex(spec, 1)
    pre = PrecomputedNeighborIndex(spec, 1)
    for code in spec.kmers[::17].tolist():
        assert probe.neighbors(code).tolist() == pre.neighbors(code).tolist()


def test_precomputed_include_self():
    spec = _spectrum(["AAAAA", "AAAAT"], 5)
    pre = PrecomputedNeighborIndex(spec, 1, include_self=True)
    i = int(spec.index_of(np.array([string_to_kmer("AAAAA")], dtype=np.uint64))[0])
    nbrs = pre.neighbors_of(i)
    assert i in nbrs.tolist()
    # include_self adjacency strips self when asked not to include it.
    out = pre.neighbors(string_to_kmer("AAAAA"), include_self=False)
    assert string_to_kmer("AAAAA") not in out.tolist()


def test_precomputed_absent_code_falls_back():
    spec = _spectrum(["AAAAA", "AAAAT", "CCCCC"], 5)
    pre = PrecomputedNeighborIndex(spec, 1)
    nb = pre.neighbors(string_to_kmer("AAAAG"))
    assert nb.tolist() == [string_to_kmer("AAAAA"), string_to_kmer("AAAAT")]
    # A batch interleaving absent and present codes answers row by row
    # like neighbors(): CSR rows for the present, probing for the absent.
    queries = ["AAAAG", "AAAAA", "GGGGG", "CCCCA", "AAAAT", "AAAAC", "CCCCC"]
    codes = np.array([string_to_kmer(q) for q in queries], dtype=np.uint64)
    assert (spec.index_of(codes) >= 0).tolist() == [
        False, True, False, False, True, False, True,
    ]
    for include_self in (False, True):
        vals, indptr = pre.neighbors_batch(codes, include_self=include_self)
        assert indptr.size == codes.size + 1 and indptr[-1] == vals.size
        for i, code in enumerate(codes.tolist()):
            row = vals[indptr[i] : indptr[i + 1]]
            expected = pre.neighbors(code, include_self=include_self)
            assert row.tolist() == expected.tolist()


def _probe_oracle(spec, d, include_self):
    """The adjacency by definition: probe ``code ^ xor_patterns`` row by
    row and keep the hits in pattern order (self first if asked)."""
    rows = []
    for i, code in enumerate(spec.kmers):
        idx = spec.index_of(code ^ xor_patterns(spec.k, d))
        rows.append([i] * include_self + idx[idx >= 0].tolist())
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return indptr, [j for r in rows for j in r]


def _assert_build_is_oracle(spec, d, include_self):
    pre = PrecomputedNeighborIndex(spec, d, include_self=include_self)
    indptr, indices = _probe_oracle(spec, d, include_self)
    assert pre.indptr.dtype == pre.indices.dtype == np.int64
    assert pre.indptr.tolist() == indptr.tolist()
    assert pre.indices.tolist() == indices
    assert pre.n_edges == len(indices)
    return pre


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.text(alphabet="ACGT", min_size=12, max_size=12), min_size=3, max_size=30),
    st.integers(1, 2),
    st.booleans(),
    st.booleans(),
)
def test_masked_sort_build_matches_probe_oracle(seqs, d, include_self, clustered):
    """The masked-sort CSR equals probing every pattern of every k-mer,
    row order included."""
    k = 12
    if clustered:
        # Independent random 12-mers are rarely neighbors; squeeze them
        # onto a 3-letter, 4-position family so rows fill up.
        seqs = ["ACGTACGT" + s[:4].replace("T", "A") for s in seqs]
    _assert_build_is_oracle(_spectrum(seqs, k), d, include_self)


@pytest.mark.parametrize("include_self", [False, True])
@pytest.mark.parametrize(
    "seqs,k,d",
    [
        ([], 5, 1),  # empty spectrum
        (["ACGTA"], 5, 1),  # one k-mer
        (["ACGTA"], 5, 2),
        # A full run: all 4 (16) k-mers that agree outside 1 (2) positions.
        (["AC" + x + "TA" for x in "ACGT"], 5, 1),
        (["A" + x + "G" + y + "A" for x in "ACGT" for y in "ACGT"], 5, 2),
        (["A" + x + "G" + y + "A" for x in "ACGT" for y in "ACGT"], 5, 1),
        (["ACGTA", "ACGTC", "TTTTT"], 5, 0),  # d = 0: no neighbors but self
        (["ACG", "ACT", "TTT", "TGT"], 3, 5),  # d > k is the whole spectrum
    ],
)
def test_masked_sort_build_explicit_cases(seqs, k, d, include_self):
    spec = _spectrum(seqs, k)
    assert spec.n_kmers == len(set(seqs))
    pre = _assert_build_is_oracle(spec, d, include_self)
    probe = ProbingNeighborIndex(spec, d)
    for code in spec.kmers.tolist():
        for want_self in (False, True):
            assert (
                pre.neighbors(code, include_self=want_self).tolist()
                == probe.neighbors(code, include_self=want_self).tolist()
            )


@pytest.mark.parametrize("include_self", [False, True])
@pytest.mark.parametrize("d", [1, 2])
def test_masked_sort_build_k32(d, include_self):
    """k = 32 is past what the string packers accept but not past the
    index: the keep-mask is all 64 bits and position 0 is bits 62-63."""
    top, ones = 1 << 62, (1 << 64) - 1
    codes = [0, 1, top, top | 1, 3 * top, ones, ones ^ 2, ones ^ (2 * top)]
    kmers = np.array(sorted(codes), dtype=np.uint64)
    spec = KmerSpectrum(32, kmers, np.ones(kmers.size, dtype=np.int64))
    pre = _assert_build_is_oracle(spec, d, include_self)
    assert np.diff(pre.indptr).min() >= 1 + include_self  # no empty row


def test_neighborhood_size_formula():
    # Self is excluded by default (unified include_self=False).
    assert neighborhood_size(5, 0) == 0
    assert neighborhood_size(5, 1) == 15
    assert neighborhood_size(5, 2) == 15 + 10 * 9
    assert neighborhood_size(5, 0, include_self=True) == 1
    assert neighborhood_size(5, 1, include_self=True) == 16
    assert neighborhood_size(5, 2, include_self=True) == 1 + 15 + 10 * 9


@pytest.mark.parametrize("k,d", [(3, 0), (3, 1), (4, 2), (5, 1), (6, 2)])
@pytest.mark.parametrize("include_self", [False, True])
def test_complete_neighbors_size_pins_formula(k, d, include_self):
    """Regression for the unified include_self defaults: enumeration and
    closed form agree under BOTH flag values for small (k, d)."""
    ball = complete_neighbors(1, k, d, include_self=include_self)
    assert len(ball) == neighborhood_size(k, d, include_self=include_self)
    assert len(set(ball.tolist())) == ball.size


@settings(max_examples=20, deadline=None)
@given(st.data())
@pytest.mark.parametrize("k", [8, 16, 24, 31])
def test_neighbors_d1_batch_matches_scalar_large_k(k, data):
    """Batch and scalar d1 enumeration agree element-wise for random
    codes at every supported k — guards uint64 bit-width overflow at
    k near the 31-base packing limit."""
    n = data.draw(st.integers(1, 8))
    codes = np.array(
        [data.draw(st.integers(0, 4**k - 1)) for _ in range(n)],
        dtype=np.uint64,
    )
    for include_self in (False, True):
        batch = neighbors_d1_batch(codes, k, include_self=include_self)
        assert batch.shape == (n, 3 * k + (1 if include_self else 0))
        for i, c in enumerate(codes.tolist()):
            single = neighbors_d1(int(c), k, include_self=include_self)
            assert batch[i].tolist() == single.tolist()
