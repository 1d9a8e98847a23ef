"""Tests for the Chapter 5 extensions: partitioned EM, quality-
weighted counts, SNP detection, hybrid corrector, gamma schedules."""

import numpy as np
import pytest

from repro.core.hybrid import HybridCorrector
from repro.core.closet import cluster_at_thresholds
from repro.core.redeem import (
    RedeemCorrector,
    component_summary,
    estimate_attempts,
    estimate_attempts_partitioned,
    kmer_error_model_from_read_model,
    uniform_kmer_error_model,
    weighted_spectrum_from_reads,
)
from repro.core.reptile import (
    detect_polymorphic_pairs,
    polymorphic_sites,
)
from repro.eval import evaluate_correction
from repro.io import ReadSet
from repro.kmer import spectrum_from_reads
from repro.simulate import (
    UniformErrorModel,
    illumina_like_model,
    random_genome,
    repeat_spec,
    simulate_genome,
    simulate_reads,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# -- partitioned EM -----------------------------------------------------------
@pytest.fixture(scope="module")
def small_sim():
    g = random_genome(8000, rng(1))
    return simulate_reads(
        g, 36, UniformErrorModel(36, 0.01), rng(2), coverage=40.0
    )


def test_partitioned_em_matches_global(small_sim):
    spec = spectrum_from_reads(small_sim.reads, 9, both_strands=False)
    model = uniform_kmer_error_model(9, 0.01)
    global_fit = estimate_attempts(spec, model, max_iter=150, tol=1e-12)
    part_fit = estimate_attempts_partitioned(
        spec, model, max_iter=150, tol=1e-12
    )
    # Components are independent, so the estimates agree closely
    # (exact equality would need both EMs run to full convergence;
    # stopping rules differ between global and per-component runs).
    rel = np.abs(global_fit.T - part_fit.T) / (np.abs(global_fit.T) + 1e-6)
    assert np.median(rel) < 0.01
    assert np.quantile(rel, 0.95) < 0.08
    assert part_fit.T.sum() == pytest.approx(float(spec.counts.sum()), rel=1e-6)


def test_partitioned_em_parallel_matches_serial(small_sim):
    spec = spectrum_from_reads(small_sim.reads, 9, both_strands=False)
    model = uniform_kmer_error_model(9, 0.01)
    serial = estimate_attempts_partitioned(spec, model, n_workers=1)
    parallel = estimate_attempts_partitioned(spec, model, n_workers=3)
    assert np.allclose(serial.T, parallel.T)


def test_component_summary(small_sim):
    spec = spectrum_from_reads(small_sim.reads, 9, both_strands=False)
    s = component_summary(spec)
    assert s["n_kmers"] == spec.n_kmers
    assert 1 <= s["n_components"] <= spec.n_kmers
    assert s["largest"] >= 1
    # Errors create satellite kmers attached to genomic ones; there
    # must be many components (the distributability claim).
    assert s["n_components"] > 10


# -- quality-weighted counts -------------------------------------------------
def test_weighted_spectrum_basics(small_sim):
    spec, weighted = weighted_spectrum_from_reads(small_sim.reads, 9)
    assert weighted.shape == spec.counts.shape
    assert (weighted <= spec.counts + 1e-9).all()
    assert (weighted > 0).all()


def test_weighted_spectrum_downweights_errors():
    g = random_genome(6000, rng(3))
    sim = simulate_reads(
        g,
        36,
        UniformErrorModel(36, 0.02),
        rng(4),
        coverage=40.0,
        quality_informativeness=1.0,  # every error gets a low score
    )
    spec, weighted = weighted_spectrum_from_reads(sim.reads, 9)
    from repro.kmer import spectrum_from_sequence
    from repro.eval import genomic_truth

    gspec = spectrum_from_sequence(g.codes, 9, both_strands=True)
    truth = genomic_truth(spec.kmers, gspec)
    ratio = weighted / np.maximum(spec.counts, 1)
    # Error kmers carry low-quality bases -> their weight ratio drops.
    assert ratio[~truth].mean() < ratio[truth].mean() - 0.1


def test_weighted_spectrum_no_quality():
    rs = ReadSet.from_strings(["ACGTACGTACGT"])
    spec, weighted = weighted_spectrum_from_reads(rs, 5)
    assert np.allclose(weighted, spec.counts)


# -- polymorphism detection ----------------------------------------------------
def _diploid_reads(n_copies=60, snp_pos=25):
    """Reads from two 'haplotypes' differing at one position."""
    g = random_genome(60, rng(5))
    hap_a = g.codes.copy()
    hap_b = g.codes.copy()
    hap_b[snp_pos] = (hap_b[snp_pos] + 1) % 4
    from repro.seq import decode

    seqs = []
    r = rng(6)
    for hap in (hap_a, hap_b):
        for _ in range(n_copies):
            start = int(r.integers(0, 60 - 36 + 1))
            seqs.append(decode(hap[start : start + 36]))
    return ReadSet.from_strings(seqs), hap_a, hap_b


def test_detect_polymorphic_pairs_finds_snp():
    reads, hap_a, hap_b = _diploid_reads()
    spec = spectrum_from_reads(reads, 9, both_strands=False)
    pairs = detect_polymorphic_pairs(spec, min_count=10)
    assert len(pairs) >= 3  # several k-mer offsets witness the SNP
    for p in pairs:
        assert p.count_a >= 10 and p.count_b >= 10
        assert 0 <= p.position < 9
        assert 0.25 <= p.balance <= 1.0


def test_detect_polymorphic_pairs_ignores_errors():
    """Sequencing errors are too rare to masquerade as alleles."""
    g = random_genome(6000, rng(7))
    sim = simulate_reads(
        g, 36, UniformErrorModel(36, 0.01), rng(8), coverage=50.0
    )
    # k must satisfy 4^k >> 3k|G| or coincidental genomic neighbor
    # pairs dominate; at k=13 a few dozen such pairs remain on a 6 kbp
    # genome.  The actual claim: no *error* k-mer survives the count
    # filter — every reported pair joins two genuinely genomic k-mers.
    spec = spectrum_from_reads(sim.reads, 13, both_strands=False)
    pairs = detect_polymorphic_pairs(spec, min_count=8, max_ratio=3.0)
    from repro.kmer import spectrum_from_sequence
    from repro.eval import genomic_truth

    gspec = spectrum_from_sequence(g.codes, 13, both_strands=True)
    for p in pairs:
        both = np.array([p.kmer_a, p.kmer_b], dtype=np.uint64)
        assert genomic_truth(both, gspec).all()


def test_polymorphic_sites_grouping():
    reads, _, _ = _diploid_reads(n_copies=80)
    spec = spectrum_from_reads(reads, 9, both_strands=False)
    pairs = detect_polymorphic_pairs(spec, min_count=10)
    sites = polymorphic_sites(pairs, spec, min_pairs=2)
    assert len(sites) >= 1
    s = sites[0]
    assert s.n_supporting_pairs >= 2
    # The two contexts differ at exactly one base.
    diffs = sum(a != b for a, b in zip(s.context_a, s.context_b))
    assert diffs == 1


def test_polymorphic_pair_describe():
    reads, _, _ = _diploid_reads()
    spec = spectrum_from_reads(reads, 9, both_strands=False)
    pairs = detect_polymorphic_pairs(spec, min_count=10)
    text = pairs[0].describe(9)
    assert "@ pos" in text


# -- hybrid corrector --------------------------------------------------------
def test_hybrid_beats_or_matches_parts_on_repeats():
    # The regime the thesis's combination remark targets: repeats so
    # frequent (~130 copies) that erroneous k-mers reach moderate
    # counts and Reptile alone degrades (Table 3.4's D3).
    spec = repeat_spec(50_000, 0.8, unit_length=150)
    g = simulate_genome(spec, rng(9))
    model = illumina_like_model(36, base_rate=0.008, end_multiplier=3.0)
    sim = simulate_reads(g, 36, model, rng(10), coverage=80.0)
    sub = sim.reads.subset(np.arange(3000))
    true = sim.true_codes[:3000]

    km = kmer_error_model_from_read_model(model, 10)
    hybrid = HybridCorrector.fit(
        sim.reads, k_redeem=10, error_model=km, k=10,
        genome_length_estimate=50_000,
    )
    result = hybrid.run(sub)
    mh = evaluate_correction(sub.codes, result.reads.codes, true)

    redeem_only = RedeemCorrector.fit(sim.reads, k=10, error_model=km)
    mr = evaluate_correction(
        sub.codes, redeem_only.correct(sub).codes, true
    )
    from repro.core.reptile import ReptileCorrector

    reptile_only = ReptileCorrector.fit(
        sim.reads, genome_length_estimate=50_000, k=10
    )
    mp = evaluate_correction(
        sub.codes, reptile_only.correct(sub).codes, true
    )
    # On a repeat-heavy genome the REDEEM stage lifts the pipeline
    # well above Reptile alone, and the Reptile stage recovers errors
    # REDEEM's k-mer-local vote misses.
    assert mh.gain > mp.gain + 0.05, (mh.gain, mp.gain)
    assert mh.gain >= mr.gain - 0.05, (mh.gain, mr.gain)
    assert mh.sensitivity >= max(mp.sensitivity, mr.sensitivity) - 0.02
    assert result.redeem_stats["n_bases_changed"] > 0
    assert mh.specificity > 0.995


# -- gamma schedules -----------------------------------------------------------
def test_cluster_at_thresholds_gamma_schedule():
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    sims = np.array([0.95, 0.9, 0.85])
    out = cluster_at_thresholds(
        edges,
        sims,
        [0.9, 0.8],
        gamma={0.9: 1.0, 0.8: 2.0 / 3.0},
    )
    # At gamma=1 the two edges stay separate; relaxing at 0.8 merges.
    assert all(len(c) == 2 for c in out[0.9])
    assert any(len(c) == 3 for c in out[0.8])
