"""Tests for the scaled dataset builders in repro.experiments."""

import numpy as np
import pytest

from repro.experiments import (
    chapter2_datasets,
    chapter2_genomes,
    chapter3_datasets,
    chapter4_samples,
)


def test_chapter2_genomes_sizes():
    g = chapter2_genomes(scale=4000)
    assert len(g["ecoli"]) == 4000
    assert len(g["asp"]) == 3120  # 0.78 ratio of the paper's genomes
    # Low-repetitive but not repeat-free.
    assert 0 < g["ecoli"].spec.repeat_fraction < 0.1


def test_chapter2_dataset_properties():
    ds = chapter2_datasets(names=["D1", "D4"], scale=3000, coverage_scale=0.5)
    d1, d4 = ds["D1"], ds["D4"]
    assert d1.read_length == 36
    assert d1.coverage == pytest.approx(80.0)
    assert d4.coverage == pytest.approx(20.0)
    # D1 carries N reads and a small junk tail; D4 has neither Ns nor
    # (almost) junk.
    assert d1.sim.reads.has_ambiguous().any()
    assert not d4.sim.reads.has_ambiguous().any()
    assert d1.junk_mask.sum() < 0.05 * d1.sim.n_reads


def test_chapter2_junk_reads_noisy():
    ds = chapter2_datasets(names=["D5"], scale=3000, coverage_scale=0.5)["D5"]
    junk = ds.junk_mask
    assert 0.2 < junk.mean() < 0.5
    err = ds.sim.error_mask()
    junk_err = err[junk].mean()
    clean_err = err[~junk].mean()
    assert junk_err > 5 * clean_err


def test_chapter2_evaluable_mask():
    ds = chapter2_datasets(names=["D6"], scale=3000, coverage_scale=0.3)["D6"]
    mask = ds.evaluable_mask()
    assert mask.sum() < ds.sim.n_reads
    # Evaluable reads are N-free and not junk.
    assert not ds.sim.reads.has_ambiguous()[mask].any()
    assert not ds.junk_mask[mask].any()


def test_chapter3_repeat_fractions():
    ds = chapter3_datasets(names=["D1", "D3", "D6"], scale=10_000)
    assert ds["D1"].repeat_fraction == 0.2
    assert ds["D3"].repeat_fraction == 0.8
    assert ds["D6"].repeat_fraction == 0.0
    assert ds["D6"].sim.genome.length == 40_000  # 4x multiplier
    # Coverage per Table 3.1: 80x for D1-D3, deeper for D6.
    assert ds["D1"].sim.reads.coverage(10_000) == pytest.approx(80.0, rel=0.02)


def test_chapter3_repeats_have_high_multiplicity():
    ds = chapter3_datasets(names=["D3"], scale=20_000)["D3"]
    fams = ds.sim.genome.spec.repeat_families
    assert max(f.multiplicity for f in fams) >= 20


def test_wrong_illumina_model_differs():
    from repro.experiments.datasets import wrong_illumina_model as wim
    from repro.simulate import illumina_like_model

    w = wim(36)
    t = illumina_like_model(36)
    assert w.read_length == 36
    assert np.abs(w.matrices - t.matrices).max() > 1e-4
    # ...and so is the k-mer model derived from it (Table 3.2's two
    # datasets differ, which is what makes wIED 'wrong').
    from repro.core.redeem import kmer_error_model_from_read_model as kmer_model
    from repro.experiments import chapter3_datasets

    true_model = chapter3_datasets(names=["D1"], scale=2000)["D1"].read_model
    assert np.abs(kmer_model(true_model, 10).q - kmer_model(w, 10).q).max() > 0.001


def test_chapter4_sample_ratios():
    samples = chapter4_samples(base_reads=100)
    assert samples["small"].n_reads == 100
    assert samples["medium"].n_reads == 560
    assert samples["large"].n_reads == 1800
    # All three share one taxonomy (nested samples of one pool).
    assert samples["small"].taxonomy is samples["large"].taxonomy
    for s in samples.values():
        assert s.reads.lengths.min() >= 167
        assert s.reads.lengths.max() <= 894


def test_chapter4_subset_sizes():
    samples = chapter4_samples(sizes=["small"], base_reads=50)
    assert list(samples) == ["small"]
