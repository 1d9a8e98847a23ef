"""Tests for out-of-core construction and CLOSET grid search."""

import numpy as np
import pytest

from repro.core.closet import grid_search_parameters
from repro.core.reptile import ReptileCorrector
from repro.core.reptile.params import count_histogram_thresholds
from repro.eval import evaluate_correction
from repro.kmer import (
    iter_read_chunks,
    merge_spectra,
    merge_tile_tables,
    spectrum_from_chunks,
    spectrum_from_reads,
    tile_table_from_chunks,
    tile_table_from_reads,
)
from repro.io import ReadSet
from repro.simulate import (
    TaxonomySpec,
    UniformErrorModel,
    random_genome,
    simulate_metagenome,
    simulate_reads,
    simulate_taxonomy,
)


@pytest.fixture(scope="module")
def sim():
    g = random_genome(6000, np.random.default_rng(0))
    return simulate_reads(
        g, 36, UniformErrorModel(36, 0.008), np.random.default_rng(1),
        coverage=40.0,
    )


# -- streaming merges ---------------------------------------------------------
def test_merge_spectra_equals_monolithic(sim):
    k = 9
    chunks = list(iter_read_chunks(sim.reads, 1000))
    streamed = spectrum_from_chunks(iter(chunks), k)
    mono = spectrum_from_reads(sim.reads, k)
    assert (streamed.kmers == mono.kmers).all()
    assert (streamed.counts == mono.counts).all()


def test_merge_tiles_equals_monolithic(sim):
    chunks = list(iter_read_chunks(sim.reads, 700))
    streamed = tile_table_from_chunks(iter(chunks), k=9, quality_cutoff=15)
    mono = tile_table_from_reads(sim.reads, k=9, quality_cutoff=15)
    assert (streamed.tiles == mono.tiles).all()
    assert (streamed.oc == mono.oc).all()
    assert (streamed.og == mono.og).all()


def test_merge_validation_errors():
    a = spectrum_from_reads(ReadSet.from_strings(["ACGTACGT"]), 4)
    b = spectrum_from_reads(ReadSet.from_strings(["ACGTACGT"]), 5)
    with pytest.raises(ValueError):
        merge_spectra(a, b)
    ta = tile_table_from_reads(ReadSet.from_strings(["ACGTACGTAC"]), k=4)
    tb = tile_table_from_reads(ReadSet.from_strings(["ACGTACGTAC"]), k=5)
    with pytest.raises(ValueError):
        merge_tile_tables(ta, tb)


def test_streaming_empty():
    spec = spectrum_from_chunks(iter([]), 9)
    assert spec.n_kmers == 0
    tt = tile_table_from_chunks(iter([]), k=9)
    assert tt.n_tiles == 0


# -- merge algebra ------------------------------------------------------------
def _spectrum_parts(sim, k=9, chunk=400):
    return [
        spectrum_from_reads(c, k) for c in iter_read_chunks(sim.reads, chunk)
    ]


def _tile_parts(sim, k=9, chunk=400):
    return [
        tile_table_from_reads(c, k=k, quality_cutoff=15)
        for c in iter_read_chunks(sim.reads, chunk)
    ]


def _spectra_equal(a, b):
    return (a.kmers == b.kmers).all() and (a.counts == b.counts).all()


def _tables_equal(a, b):
    return (
        (a.tiles == b.tiles).all()
        and (a.oc == b.oc).all()
        and (a.og == b.og).all()
    )


def test_merge_spectra_associative(sim):
    a, b, c = _spectrum_parts(sim, chunk=sim.reads.n_reads // 3 + 1)[:3]
    left = merge_spectra(merge_spectra(a, b), c)
    right = merge_spectra(a, merge_spectra(b, c))
    assert _spectra_equal(left, right)


def test_merge_tile_tables_associative(sim):
    a, b, c = _tile_parts(sim, chunk=sim.reads.n_reads // 3 + 1)[:3]
    left = merge_tile_tables(merge_tile_tables(a, b), c)
    right = merge_tile_tables(a, merge_tile_tables(b, c))
    assert _tables_equal(left, right)


def test_merge_order_independent(sim):
    """Any chunk order and any merge tree give identical sorted arrays."""
    from functools import reduce

    from repro.kmer import balanced_merge

    parts = _spectrum_parts(sim)
    rng = np.random.default_rng(5)
    reference = reduce(merge_spectra, parts)
    for _ in range(4):
        order = rng.permutation(len(parts))
        shuffled = [parts[i] for i in order]
        assert _spectra_equal(reference, reduce(merge_spectra, shuffled))
        assert _spectra_equal(
            reference, balanced_merge(shuffled, merge_spectra)
        )
    tparts = _tile_parts(sim)
    treference = reduce(merge_tile_tables, tparts)
    assert _tables_equal(
        treference, balanced_merge(tparts[::-1], merge_tile_tables)
    )


def test_balanced_merge_arbitrary_tree_counts():
    """Balanced fold over scalar addition hits every input exactly once
    at any input count (the binary-counter carry logic)."""
    from repro.kmer import balanced_merge

    assert balanced_merge([], lambda a, b: a + b) is None
    for n in range(1, 40):
        assert balanced_merge(range(n), lambda a, b: a + b) == sum(range(n))


def test_streaming_with_empty_chunks(sim):
    """Empty chunks anywhere in the stream are harmless."""
    empty = ReadSet.from_strings([])
    chunks = list(iter_read_chunks(sim.reads, 700))
    padded = [empty, chunks[0], empty, *chunks[1:], empty]
    streamed = spectrum_from_chunks(iter(padded), 9)
    mono = spectrum_from_reads(sim.reads, 9)
    assert _spectra_equal(streamed, mono)
    t_streamed = tile_table_from_chunks(iter(padded), k=9, quality_cutoff=15)
    t_mono = tile_table_from_reads(sim.reads, k=9, quality_cutoff=15)
    assert _tables_equal(t_streamed, t_mono)


def test_streaming_all_short_reads():
    """Chunks whose reads are all shorter than k (or the tile length)
    contribute empty partials, not errors."""
    short = ReadSet.from_strings(["ACGT", "GGTT", "AC"])
    spec = spectrum_from_chunks(iter([short, short]), 9)
    assert spec.n_kmers == 0
    table = tile_table_from_chunks(iter([short, short]), k=9)
    assert table.n_tiles == 0
    # Empty streamed structures answer queries, never raise.
    assert spec.count(np.array([5], dtype=np.uint64)).tolist() == [0]
    oc, og = table.lookup(np.array([5], dtype=np.uint64))
    assert oc.tolist() == [0] and og.tolist() == [0]


def test_iter_read_chunks_rejects_bad_chunk_size(sim):
    for bad in (0, -3):
        with pytest.raises(ValueError, match="chunk_size"):
            next(iter_read_chunks(sim.reads, bad))


def test_fit_streaming_matches_monolithic(sim):
    """Divide-and-merge yields the whole-set structures (Sec. 2.3),
    with select-then-replace k: thresholds chosen on the tile table at
    the data-driven k=12, tables built at the k asked for."""
    streamed, meta = ReptileCorrector.fit_streaming(
        lambda: iter_read_chunks(sim.reads, 800), k=9
    )
    assert meta["n_reads"] == sim.reads.n_reads
    assert meta["spill_bytes"] == 0
    p = streamed.params
    selection = tile_table_from_reads(sim.reads, k=12, quality_cutoff=p.qc)
    assert (p.k, (p.cm, p.cg)) == (9, count_histogram_thresholds(selection.og))
    spectrum = spectrum_from_reads(sim.reads, 9)
    tiles = tile_table_from_reads(sim.reads, k=9, quality_cutoff=p.qc)
    assert (streamed.spectrum.kmers == spectrum.kmers).all()
    assert (streamed.spectrum.counts == spectrum.counts).all()
    assert (streamed.tiles.og == tiles.og).all()
    sub = sim.reads.subset(np.arange(300))
    out_a = ReptileCorrector(p, spectrum, tiles).correct(sub)
    out_b = streamed.correct(sub)
    assert (out_a.codes == out_b.codes).all()
    m = evaluate_correction(sub.codes, out_b.codes, sim.true_codes[:300])
    assert m.gain > 0.3


# -- grid search ------------------------------------------------------------
def test_grid_search_parameters():
    spec = TaxonomySpec(
        gene_length=600,
        branching={"phylum": 2, "family": 2, "genus": 2, "species": 2},
    )
    tax = simulate_taxonomy(spec, np.random.default_rng(2))
    sample = simulate_metagenome(
        tax, 250, np.random.default_rng(3),
        read_length_mean=250, read_length_sd=30, min_length=180,
        max_length=350, error_rate=0.005, abundance_sigma=0.3,
    )
    result = grid_search_parameters(
        sample.reads,
        sample.true_labels("genus"),
        ks=(12, 15),
        thresholds=(0.7, 0.4),
        gammas=(2.0 / 3.0,),
    )
    assert len(result.points) == 4  # 2 ks x 1 gamma x 2 thresholds
    assert result.best.ari == max(p.ari for p in result.points)
    assert result.best.ari > 0.0
    rows = result.as_rows()
    assert {"k", "t", "gamma", "ARI", "clusters"} <= set(rows[0])
