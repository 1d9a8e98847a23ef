"""Tests for tile composition and the tile table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import ReadSet
from repro.kmer import (
    compose_tile,
    compose_tiles_batch,
    split_tile,
    tile_table_from_reads,
)
from repro.seq import string_to_kmer


def test_compose_split_roundtrip_zero_overlap():
    a = string_to_kmer("ACGTA")
    b = string_to_kmer("TTTTT")
    t = compose_tile(a, b, 5, 0)
    assert t == string_to_kmer("ACGTATTTTT")
    assert split_tile(t, 5, 0) == (a, b)


def test_compose_with_overlap():
    a = string_to_kmer("ACGTA")
    b = string_to_kmer("TAGGG")
    t = compose_tile(a, b, 5, 2)
    assert t == string_to_kmer("ACGTAGGG")
    ra, rb = split_tile(t, 5, 2)
    assert ra == a and rb == b


def test_compose_overlap_mismatch_raises():
    a = string_to_kmer("ACGTA")
    b = string_to_kmer("GGGGG")
    with pytest.raises(ValueError):
        compose_tile(a, b, 5, 2)


def test_compose_invalid_overlap():
    with pytest.raises(ValueError):
        compose_tile(0, 0, 5, 5)


@settings(max_examples=40)
@given(
    st.text(alphabet="ACGT", min_size=6, max_size=6),
    st.text(alphabet="ACGT", min_size=6, max_size=6),
    st.integers(0, 3),
)
def test_compose_split_property(sa, sb, overlap):
    if overlap:
        sb = sa[-overlap:] + sb[overlap:]
    a, b = string_to_kmer(sa), string_to_kmer(sb)
    t = compose_tile(a, b, 6, overlap)
    assert split_tile(t, 6, overlap) == (a, b)
    assert t == string_to_kmer(sa + sb[overlap:])


def test_compose_batch_matches_scalar():
    a = np.array([string_to_kmer("ACGTA"), string_to_kmer("AAAAA")], dtype=np.uint64)
    b = np.array([string_to_kmer("TTTTT"), string_to_kmer("CCCCC")], dtype=np.uint64)
    out = compose_tiles_batch(a, b, 5, 0)
    assert out[0] == compose_tile(int(a[0]), int(b[0]), 5, 0)
    assert out[1] == compose_tile(int(a[1]), int(b[1]), 5, 0)


def test_tile_table_counts():
    rs = ReadSet.from_strings(["ACGTACGTAC"])
    tt = tile_table_from_reads(rs, k=4, overlap=0, both_strands=False)
    assert tt.tile_length == 8
    # Windows: ACGTACGT, CGTACGTA, GTACGTAC
    oc, og = tt.lookup(np.array([string_to_kmer("ACGTACGT")], dtype=np.uint64))
    assert oc[0] == 1 and og[0] == 1


def test_tile_table_quality_gating():
    quals = [np.array([40] * 7 + [5] + [40] * 2)]
    rs = ReadSet.from_strings(["ACGTACGTAC"], quals=quals)
    tt = tile_table_from_reads(rs, k=4, overlap=0, quality_cutoff=20, both_strands=False)
    # Tiles covering position 7 (the low-quality base) have Og=0, Oc=1.
    t0 = string_to_kmer("ACGTACGT")
    oc, og = tt.lookup(np.array([t0], dtype=np.uint64))
    assert oc[0] == 1 and og[0] == 0
    # The last tile (positions 2..9) also covers position 7.
    t2 = string_to_kmer("GTACGTAC")
    oc2, og2 = tt.lookup(np.array([t2], dtype=np.uint64))
    assert oc2[0] == 1 and og2[0] == 0


def test_tile_table_no_quals_og_equals_oc():
    rs = ReadSet.from_strings(["ACGTACGTAC", "ACGTACGTAC"])
    tt = tile_table_from_reads(rs, k=4, quality_cutoff=20, both_strands=False)
    assert (tt.og == tt.oc).all()


def test_tile_table_both_strands_doubles():
    rs = ReadSet.from_strings(["ACGTACGTAC"])
    tt1 = tile_table_from_reads(rs, k=4, both_strands=False)
    tt2 = tile_table_from_reads(rs, k=4, both_strands=True)
    assert tt2.oc.sum() == 2 * tt1.oc.sum()


def test_tile_table_skips_n():
    rs = ReadSet.from_strings(["ACGTNCGTAC"])
    tt = tile_table_from_reads(rs, k=4, both_strands=False)
    assert tt.n_tiles == 0


def test_tile_table_lookup_absent():
    rs = ReadSet.from_strings(["ACGTACGTAC"])
    tt = tile_table_from_reads(rs, k=4, both_strands=False)
    oc, og = tt.lookup(np.array([string_to_kmer("TTTTTTTT")], dtype=np.uint64))
    assert oc[0] == 0 and og[0] == 0
    assert tt.og_scalar(string_to_kmer("TTTTTTTT")) == 0


def test_tile_table_lookup_empty_table():
    """Regression: lookup on an empty table used to index tiles[idx]
    with idx == 0 on a zero-length array and raise IndexError."""
    rs = ReadSet.from_strings(["ACGT"])  # too short to yield any tile
    tt = tile_table_from_reads(rs, k=4, both_strands=False)
    assert tt.n_tiles == 0
    codes = np.array([string_to_kmer("ACGTACGT"), 0], dtype=np.uint64)
    oc, og = tt.lookup(codes)
    assert oc.tolist() == [0, 0] and og.tolist() == [0, 0]
    assert oc is not og  # callers may mutate one without aliasing
    assert tt.og_scalar(string_to_kmer("ACGTACGT")) == 0


def test_tile_table_as_dict():
    rs = ReadSet.from_strings(["ACGTACGTAC"])
    tt = tile_table_from_reads(rs, k=4, both_strands=False)
    d = tt.as_dict()
    assert len(d) == tt.n_tiles
    assert d[string_to_kmer("ACGTACGT")] == (1, 1)


def test_tile_length_packing_limit():
    rs = ReadSet.from_strings(["A" * 40])
    with pytest.raises(ValueError):
        tile_table_from_reads(rs, k=16, overlap=0)
