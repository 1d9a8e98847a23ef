"""Tests for disk-spill external counting and streamed parameter
selection (the out-of-core pipeline's phase 1)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.reptile import ReptileCorrector, ReptileParams
from repro.core.reptile.params import (
    add_histograms,
    count_histogram_thresholds,
    qc_qm_from_quality_histogram,
    quality_histogram,
    quantile_int_from_histogram,
    select_parameters,
    select_parameters_streaming,
)
from repro.io import ReadSet
from repro.kmer import (
    ExternalCodeCounter,
    SpectrumAccumulator,
    TileAccumulator,
    build_from_chunks,
    iter_read_chunks,
    spectrum_from_chunks,
    spectrum_from_reads,
    tile_table_from_chunks,
    tile_table_from_reads,
)
from repro.simulate import UniformErrorModel, random_genome, simulate_reads


@pytest.fixture(scope="module")
def sim():
    g = random_genome(5000, np.random.default_rng(0))
    return simulate_reads(
        g, 36, UniformErrorModel(36, 0.01), np.random.default_rng(1),
        coverage=30.0,
    )


@pytest.fixture(scope="module")
def deep_sim():
    """Deep enough that the Cg/Cm read off the k=12 tile table differ
    from those at k=9, so a selection done at the wrong k shows."""
    g = random_genome(6000, np.random.default_rng(0))
    return simulate_reads(
        g, 36, UniformErrorModel(36, 0.008), np.random.default_rng(1),
        coverage=40.0,
    )


# -- raw external counter -----------------------------------------------------
def _brute_force(codes_list, values_list, n_values):
    codes = np.concatenate(codes_list) if codes_list else np.empty(0, np.uint64)
    values = (
        np.concatenate(values_list, axis=0)
        if values_list
        else np.empty((0, n_values), np.int64)
    )
    uniq, inverse = np.unique(codes, return_inverse=True)
    summed = np.zeros((uniq.size, n_values), dtype=np.int64)
    np.add.at(summed, inverse, values)
    return uniq, summed


@pytest.mark.parametrize("n_values", [1, 2])
@pytest.mark.parametrize("budget", [4096, 1 << 20])
def test_external_counter_matches_brute_force(n_values, budget, tmp_path):
    rng = np.random.default_rng(42 + n_values)
    counter = ExternalCodeCounter(
        code_bits=14,
        n_values=n_values,
        max_memory_bytes=budget,
        partition_bits=3,
        tmp_dir=tmp_path,
    )
    allc, allv = [], []
    for _ in range(40):
        codes = rng.integers(
            0, 1 << 14, size=int(rng.integers(0, 400)), dtype=np.uint64
        )
        values = rng.integers(1, 7, size=(codes.size, n_values)).astype(
            np.int64
        )
        counter.add(codes, values)
        allc.append(codes)
        allv.append(values)
    got_codes, got_values = counter.finalize()
    exp_codes, exp_values = _brute_force(allc, allv, n_values)
    assert np.array_equal(got_codes, exp_codes)
    assert np.array_equal(got_values, exp_values)
    if budget == 4096:
        assert counter.n_spills > 0
        assert counter.spill_bytes > 0
    # Sorted unique output.
    assert (np.diff(got_codes.astype(np.int64)) > 0).all()


def test_external_counter_default_values_and_empty(tmp_path):
    counter = ExternalCodeCounter(
        code_bits=8, max_memory_bytes=4096, tmp_dir=tmp_path
    )
    counter.add(np.array([3, 3, 7], dtype=np.uint64))
    counter.add(np.empty(0, dtype=np.uint64))
    codes, values = counter.finalize()
    assert codes.tolist() == [3, 7]
    assert values[:, 0].tolist() == [2, 1]


def test_external_counter_empty_finalize(tmp_path):
    counter = ExternalCodeCounter(
        code_bits=8, max_memory_bytes=4096, tmp_dir=tmp_path
    )
    codes, values = counter.finalize()
    assert codes.size == 0 and values.shape == (0, 1)
    with pytest.raises(RuntimeError):
        counter.finalize()
    with pytest.raises(RuntimeError):
        counter.add(np.array([1], dtype=np.uint64))


def test_external_counter_validation(tmp_path):
    with pytest.raises(ValueError):
        ExternalCodeCounter(code_bits=0)
    with pytest.raises(ValueError):
        ExternalCodeCounter(code_bits=8, n_values=0)
    with pytest.raises(ValueError):
        ExternalCodeCounter(code_bits=8, max_memory_bytes=16)
    counter = ExternalCodeCounter(
        code_bits=8, n_values=2, max_memory_bytes=4096, tmp_dir=tmp_path
    )
    with pytest.raises(ValueError):
        counter.add(
            np.array([1, 2], dtype=np.uint64),
            np.ones((3, 2), dtype=np.int64),
        )
    counter.finalize()


def test_external_counter_temp_files_cleaned(tmp_path):
    counter = ExternalCodeCounter(
        code_bits=10, max_memory_bytes=4096, tmp_dir=tmp_path
    )
    rng = np.random.default_rng(0)
    for _ in range(20):
        counter.add(rng.integers(0, 1024, size=300, dtype=np.uint64))
    assert counter.n_spills > 0
    assert any(tmp_path.iterdir())
    counter.finalize()
    assert not any(tmp_path.iterdir())


# -- streamed structures under a budget --------------------------------------
def test_external_spectrum_matches_monolithic(sim, tmp_path):
    chunks = list(iter_read_chunks(sim.reads, 300))
    mono = spectrum_from_reads(sim.reads, 9)
    ext = spectrum_from_chunks(
        iter(chunks), 9, max_memory_bytes=8192, tmp_dir=tmp_path
    )
    assert np.array_equal(ext.kmers, mono.kmers)
    assert np.array_equal(ext.counts, mono.counts)


def test_external_tiles_match_monolithic(sim, tmp_path):
    chunks = list(iter_read_chunks(sim.reads, 250))
    mono = tile_table_from_reads(sim.reads, k=9, quality_cutoff=15)
    ext = tile_table_from_chunks(
        iter(chunks),
        k=9,
        quality_cutoff=15,
        max_memory_bytes=8192,
        tmp_dir=tmp_path,
    )
    assert np.array_equal(ext.tiles, mono.tiles)
    assert np.array_equal(ext.oc, mono.oc)
    assert np.array_equal(ext.og, mono.og)


def test_accumulators_report_spill_and_peak(sim, tmp_path):
    mono = spectrum_from_reads(sim.reads, 9)
    peaks = []
    for chunk_size in (300, 75):
        acc = SpectrumAccumulator(
            9, max_memory_bytes=8192, tmp_dir=tmp_path, prefilter_fp_rate=0.01
        )
        for chunk in iter_read_chunks(sim.reads, chunk_size):
            acc.add_chunk(chunk)
        out = acc.finalize()
        assert acc.spill_bytes > 0
        assert acc.peak_bytes <= 8192 + acc.max_add_bytes
        peaks.append(acc.peak_bytes)
        # The prefilter asked for rides along without changing a count
        # or a membership answer.
        assert out.prefilter is not None
        assert np.array_equal(out.kmers, mono.kmers)
        assert np.array_equal(out.counts, mono.counts)
        probe = np.concatenate([mono.kmers[:64], mono.kmers[:64] ^ np.uint64(3)])
        assert np.array_equal(out.index_of(probe), mono.index_of(probe))
    # Flat memory: four times the chunks does not raise the buffer peak.
    assert peaks[1] <= peaks[0]
    # In-memory accumulators spill nothing but still track peaks.
    mem = TileAccumulator(9)
    for chunk in iter_read_chunks(sim.reads, 300):
        mem.add_chunk(chunk)
    mem.finalize()
    assert mem.spill_bytes == 0
    assert mem.peak_bytes > 0


def test_build_from_chunks_single_pass(sim):
    """One traversal must feed every accumulator (the chunk stream is
    consumed exactly once)."""
    seen = []

    def chunk_stream():
        for chunk in iter_read_chunks(sim.reads, 400):
            seen.append(chunk.n_reads)
            yield chunk

    spec_acc = SpectrumAccumulator(9)
    tile_acc = TileAccumulator(9, quality_cutoff=15)
    spectrum, tiles = build_from_chunks(chunk_stream(), [spec_acc, tile_acc])
    assert sum(seen) == sim.reads.n_reads
    mono_s = spectrum_from_reads(sim.reads, 9)
    mono_t = tile_table_from_reads(sim.reads, k=9, quality_cutoff=15)
    assert np.array_equal(spectrum.kmers, mono_s.kmers)
    assert np.array_equal(tiles.og, mono_t.og)


# -- the one phase 1 against a first-principles oracle ------------------------
def _expected_phase1(reads, params=None, **overrides):
    """Phase 1 rebuilt without the code under test: numpy quantiles
    over the in-read scores, thresholds at the data-driven (k, Qc),
    overrides replaced in afterwards, then one whole-set tabulation per
    final structure."""
    if params is None:
        qc, qm = 0, 1_000_000
        if reads.quals is not None:
            in_read = np.arange(reads.max_length)[None, :] < reads.lengths[:, None]
            qvals = reads.quals[in_read]
            qc = int(np.quantile(qvals, 0.175))
            qm = max(int(np.quantile(qvals, 0.35)), qc + 1)
        sel = tile_table_from_reads(reads, k=12, quality_cutoff=qc)
        cm, cg = count_histogram_thresholds(sel.og)
        params = ReptileParams(k=12, qc=qc, qm=qm, cg=cg, cm=cm)
    params = replace(params, **overrides)
    spectrum = spectrum_from_reads(reads, params.k)
    tiles = tile_table_from_reads(
        reads, k=params.k, overlap=params.overlap, quality_cutoff=params.qc
    )
    return params, spectrum, tiles


def _assert_phase1(corrector, expected):
    params, spectrum, tiles = expected
    assert corrector.params == params
    assert np.array_equal(corrector.spectrum.kmers, spectrum.kmers)
    assert np.array_equal(corrector.spectrum.counts, spectrum.counts)
    assert np.array_equal(corrector.tiles.tiles, tiles.tiles)
    assert np.array_equal(corrector.tiles.oc, tiles.oc)
    assert np.array_equal(corrector.tiles.og, tiles.og)


def _fit_kwargs(sim, override):
    selected_qc = _expected_phase1(sim.reads)[0].qc
    return {
        "none": {},
        "k9": {"k": 9},
        "qc": {"qc": selected_qc + 3},
        "params": {"params": ReptileParams(k=10, qc=selected_qc + 3, cg=9, cm=3)},
    }[override]


@pytest.mark.parametrize("override", ["none", "k9", "qc", "params"])
@pytest.mark.parametrize("chunking", ["one", "many", "budget"])
def test_phase1_matches_first_principles(deep_sim, tmp_path, chunking, override):
    sim = deep_sim
    kwargs = _fit_kwargs(sim, override)
    expected = _expected_phase1(sim.reads, **kwargs)
    if chunking == "one":
        corrector, meta = ReptileCorrector.fit_streaming(
            lambda: (sim.reads,), **kwargs
        )
    else:
        budget = {"max_memory_bytes": 8192, "tmp_dir": tmp_path}
        corrector, meta = ReptileCorrector.fit_streaming(
            lambda: iter_read_chunks(sim.reads, 500),
            **(budget if chunking == "budget" else {}),
            **kwargs,
        )
    assert meta["n_reads"] == sim.reads.n_reads
    assert (meta["spill_bytes"] > 0) == (chunking == "budget")
    _assert_phase1(corrector, expected)


@pytest.mark.parametrize(
    "override, n_tile_tables", [("none", 1), ("params", 1), ("k9", 2), ("qc", 2)]
)
def test_fit_is_the_one_chunk_case(deep_sim, monkeypatch, override, n_tile_tables):
    """``fit`` equals a chunked ``fit_streaming``, and tabulates the
    tile table once unless an override moved (k, overlap, Qc) away
    from the values the thresholds are selected at."""
    sim = deep_sim
    import repro.core.reptile.corrector as corrector_mod
    import repro.kmer.streaming as streaming_mod
    import repro.kmer.tiles as tiles_mod

    real = tiles_mod.tile_table_from_reads
    calls = []

    def counting(*args, **kw):
        calls.append(kw)
        return real(*args, **kw)

    for mod in (tiles_mod, streaming_mod, corrector_mod):
        monkeypatch.setattr(mod, "tile_table_from_reads", counting, raising=False)
    kwargs = _fit_kwargs(sim, override)
    fitted = ReptileCorrector.fit(sim.reads, **kwargs)
    assert len(calls) == n_tile_tables
    monkeypatch.undo()
    streamed, meta = ReptileCorrector.fit_streaming(
        lambda: iter_read_chunks(sim.reads, 500), **kwargs
    )
    assert meta["n_reads"] == sim.reads.n_reads
    _assert_phase1(streamed, (fitted.params, fitted.spectrum, fitted.tiles))
    assert fitted.flexible_tiling and streamed.flexible_tiling
    rigid = ReptileCorrector.fit(sim.reads, flexible_tiling=False, **kwargs)
    assert not rigid.flexible_tiling


def test_fit_streaming_external_matches_monolithic(sim, tmp_path):
    expected = _expected_phase1(sim.reads)
    ticks = []
    streamed, meta = ReptileCorrector.fit_streaming(
        lambda: iter_read_chunks(sim.reads, 500),
        max_memory_bytes=8192,
        tmp_dir=tmp_path,
        between_passes=lambda: ticks.append(1),
    )
    assert ticks == [1]
    assert meta["n_reads"] == sim.reads.n_reads
    assert meta["spill_bytes"] > 0  # the 8 KiB budget forces spills
    assert 0 < meta["counting_peak_bytes"]
    _assert_phase1(streamed, expected)
    mono = ReptileCorrector(*expected)
    sub = sim.reads.subset(np.arange(200))
    assert np.array_equal(mono.correct(sub).codes, streamed.correct(sub).codes)


# -- streamed parameter selection ---------------------------------------------
@pytest.mark.parametrize("q", [0.175, 0.35, 0.5, 0.02, 0.98])
def test_quantile_from_histogram_matches_numpy(q):
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 10, 997):
        values = rng.integers(0, 45, size=n)
        hist = np.bincount(values)
        assert quantile_int_from_histogram(hist, q) == int(
            np.quantile(values, q)
        ), (q, n)


def test_quantile_from_empty_histogram():
    with pytest.raises(ValueError):
        quantile_int_from_histogram(np.zeros(5, dtype=np.int64), 0.5)


def test_qc_qm_scoreless_fallback():
    assert qc_qm_from_quality_histogram(np.zeros(0, dtype=np.int64)) == (
        0,
        1_000_000,
    )


def test_quality_histogram_merge(sim):
    chunks = list(iter_read_chunks(sim.reads, 333))
    streamed = np.zeros(0, dtype=np.int64)
    for chunk in chunks:
        streamed = add_histograms(streamed, quality_histogram(chunk))
    whole = quality_histogram(sim.reads)
    assert np.array_equal(streamed, whole)


def test_select_parameters_streaming_matches_monolithic(sim):
    # Three reads' worth of scores too: few enough that a quantile
    # index off by one lands on a different Qc.
    for reads in (sim.reads, sim.reads.subset(np.arange(3))):
        expected = _expected_phase1(reads)[0]
        assert select_parameters(reads) == expected
        qhist = quality_histogram(reads)
        # The streamed handshake: qc from the histogram first, then the
        # tile table at that cutoff supplies the Og histogram.
        first = select_parameters_streaming(qhist, np.zeros(0, dtype=np.int64))
        table = tile_table_from_chunks(
            iter_read_chunks(reads, 400),
            k=first.k,
            overlap=first.overlap,
            quality_cutoff=first.qc,
        )
        assert select_parameters_streaming(qhist, table.og) == expected


def test_select_parameters_streaming_scoreless():
    reads = ReadSet.from_strings(["ACGTACGTACGTACGTACGTACGTA"] * 8)
    expected = _expected_phase1(reads)[0]
    assert (expected.qc, expected.qm) == (0, 1_000_000)
    assert select_parameters(reads) == expected
    table = tile_table_from_chunks(
        iter_read_chunks(reads, 3), k=expected.k, quality_cutoff=expected.qc
    )
    streamed = select_parameters_streaming(quality_histogram(reads), table.og)
    assert streamed == expected
