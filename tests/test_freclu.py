"""Tests for the FreClu baseline and the transcriptome simulator."""

import numpy as np
import pytest

from repro.baselines import FrecluCorrector
from repro.eval import evaluate_correction
from repro.io import ReadSet
from repro.simulate import simulate_transcriptome


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def sample():
    return simulate_transcriptome(
        n_transcripts=12,
        n_reads=4000,
        rng=rng(1),
        length=22,
        error_rate=0.01,
        abundance_sigma=1.0,
    )


# -- simulator ----------------------------------------------------------------
def test_transcriptome_shapes(sample):
    assert sample.n_reads == 4000
    assert len(sample.transcripts) == 12
    assert sample.true_counts().sum() == 4000
    assert sample.abundance.sum() == pytest.approx(1.0)


def test_transcripts_well_separated(sample):
    from repro.seq import hamming

    ts = sample.transcripts
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            assert hamming(ts[i], ts[j]) >= 3


def test_transcriptome_error_rate(sample):
    err = (sample.reads.codes != sample.true_codes()).mean()
    assert 0.006 < err < 0.015


def test_min_distance_unachievable():
    with pytest.raises(ValueError):
        simulate_transcriptome(
            n_transcripts=300, n_reads=10, rng=rng(2), length=4,
            min_distance=4,
        )


# -- corrector ------------------------------------------------------------------
def test_freclu_corrects_most_errors(sample):
    result = FrecluCorrector().correct(sample.reads)
    m = evaluate_correction(
        sample.reads.codes, result.reads.codes, sample.true_codes()
    )
    assert m.gain > 0.7, m.as_dict()
    assert m.specificity > 0.999


def test_freclu_corrected_counts_recover_truth(sample):
    """The per-molecule counts after correction approach the true
    counts (the FreClu/RECOUNT objective)."""
    from repro.seq import pack_kmer

    result = FrecluCorrector().correct(sample.reads)
    corrected = result.corrected_counts()
    true_counts = sample.true_counts()
    recovered = 0
    for t, tc in enumerate(true_counts.tolist()):
        key = pack_kmer(sample.transcripts[t])
        got = corrected.get(int(key), 0)
        if tc > 0 and abs(got - tc) <= max(3, 0.1 * tc):
            recovered += 1
    assert recovered >= 9  # most of the 12 molecules


def test_freclu_roots_are_frequent(sample):
    result = FrecluCorrector().correct(sample.reads)
    roots = np.unique(result.root_of)
    # Roots carry (weakly) more counts than their tree members.
    for r in roots.tolist():
        members = np.flatnonzero(result.root_of == r)
        assert result.counts[r] == result.counts[members].max()


def test_freclu_requires_uniform_length():
    rs = ReadSet.from_strings(["ACGT", "ACGTA"])
    with pytest.raises(ValueError):
        FrecluCorrector().correct(rs)


def test_freclu_rejects_ambiguous():
    rs = ReadSet.from_strings(["ACGN", "ACGT"])
    with pytest.raises(ValueError):
        FrecluCorrector().correct(rs)


def test_freclu_rejects_overlong():
    rs = ReadSet.from_strings(["A" * 40])
    with pytest.raises(ValueError):
        FrecluCorrector().correct(rs)


def test_freclu_no_errors_no_changes():
    sample = simulate_transcriptome(
        n_transcripts=5, n_reads=300, rng=rng(3), error_rate=0.0
    )
    result = FrecluCorrector().correct(sample.reads)
    assert (result.reads.codes == sample.reads.codes).all()


def test_freclu_tie_goes_to_the_first_neighbor_in_pattern_order():
    """Two equally frequent distance-1 parents: the one the neighbor
    index lists first wins, and the index lists rows in `xor_patterns`
    order (leftmost position first), not by code.  Here the leftmost
    substitution is the *larger* code, so a row sorted by index would
    pick the other parent."""
    child, left, right = "CAAAAAAA", "TAAAAAAA", "CAAAAAAC"
    reads = ReadSet.from_strings([child] + [left] * 6 + [right] * 6)
    result = FrecluCorrector().correct(reads)
    assert result.reads.sequence(0) == left
    assert sorted(result.corrected_counts().values()) == [6, 7]
