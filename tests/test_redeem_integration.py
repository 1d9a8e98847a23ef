"""Integration tests: REDEEM end to end on repeat-rich simulated data."""

import numpy as np
import pytest

from repro.core.redeem import (
    RedeemCorrector,
    kmer_error_model_from_read_model,
    uniform_kmer_error_model,
)
from repro.eval import detection_curve, evaluate_correction, genomic_truth
from repro.kmer import spectrum_from_sequence
from repro.simulate import (
    illumina_like_model,
    repeat_spec,
    simulate_genome,
    simulate_reads,
)

K = 10


@pytest.fixture(scope="module")
def repeat_dataset():
    spec = repeat_spec(length=40_000, repeat_fraction=0.5, unit_length=400)
    g = simulate_genome(spec, np.random.default_rng(1))
    read_model = illumina_like_model(36, base_rate=0.01, end_multiplier=3.0)
    sim = simulate_reads(g, 36, read_model, np.random.default_rng(2), coverage=70.0)
    return sim, read_model


@pytest.fixture(scope="module")
def fitted(repeat_dataset):
    sim, read_model = repeat_dataset
    km = kmer_error_model_from_read_model(read_model, K)
    return RedeemCorrector.fit(sim.reads, k=K, error_model=km)


def test_em_converges(fitted):
    assert fitted.model.n_iter >= 2
    ll = np.array(fitted.model.log_likelihood)
    assert (np.diff(ll) >= -1e-6).all()


def test_t_thresholding_beats_y(repeat_dataset, fitted):
    """Table 3.3's core claim: min FP+FN is lower on T than on Y."""
    sim, _ = repeat_dataset
    gspec = spectrum_from_sequence(sim.genome.codes, K, both_strands=True)
    truth = genomic_truth(fitted.spectrum.kmers, gspec)
    thrs = np.linspace(0.0, 60.0, 121)
    min_y = detection_curve(fitted.Y.astype(float), truth, thrs).min_wrong_predictions()
    min_t = detection_curve(fitted.T, truth, thrs).min_wrong_predictions()
    assert min_t < 0.5 * min_y, (min_t, min_y)


def test_t_curve_flatter_than_y(repeat_dataset, fitted):
    """Fig. 3.2: the T curve's U is wider — more thresholds near-optimal."""
    sim, _ = repeat_dataset
    gspec = spectrum_from_sequence(sim.genome.codes, K, both_strands=True)
    truth = genomic_truth(fitted.spectrum.kmers, gspec)
    thrs = np.linspace(0.5, 40.0, 80)
    cy = detection_curve(fitted.Y.astype(float), truth, thrs)
    ct = detection_curve(fitted.T, truth, thrs)
    tol_y = 2 * cy.min_wrong_predictions() + 100
    tol_t = 2 * ct.min_wrong_predictions() + 100
    near_y = int((cy.wrong_predictions <= tol_y).sum())
    near_t = int((ct.wrong_predictions <= tol_t).sum())
    assert near_t >= near_y


def test_detect_flags_nongenomic(repeat_dataset, fitted):
    sim, _ = repeat_dataset
    gspec = spectrum_from_sequence(sim.genome.codes, K, both_strands=True)
    truth = genomic_truth(fitted.spectrum.kmers, gspec)
    flagged = fitted.detect()
    # Most flagged kmers are truly non-genomic and vice versa.
    precision = (~truth[flagged]).mean()
    recall = flagged[~truth].mean()
    assert precision > 0.95
    assert recall > 0.9


def test_mixture_threshold_between_peaks(fitted):
    thr, fit = fitted.infer_threshold()
    assert 0.5 < thr < fit.coverage_peak


def test_correction_gain_on_repeats(repeat_dataset, fitted):
    sim, _ = repeat_dataset
    sub = sim.reads.subset(np.arange(10_000))
    out, stats = fitted.correct_with_stats(sub)
    assert stats["n_flagged_reads"] > 0
    m = evaluate_correction(sub.codes, out.codes, sim.true_codes[:10_000])
    assert m.gain > 0.3, m.as_dict()
    assert m.specificity > 0.999


def test_correction_preserves_input(repeat_dataset, fitted):
    sim, _ = repeat_dataset
    sub = sim.reads.subset(np.arange(200))
    before = sub.codes.copy()
    fitted.correct(sub)
    assert (sub.codes == before).all()


def test_default_error_model_fit(repeat_dataset):
    """Fitting with the default (uniform) error model still works —
    the tUED row of Table 3.3."""
    sim, _ = repeat_dataset
    sub = sim.reads.subset(np.arange(5000))
    c = RedeemCorrector.fit(sub, k=K)
    assert c.T.shape == c.Y.shape
    assert c.T.sum() == pytest.approx(float(c.Y.sum()), rel=1e-9)


def test_wrong_error_model_still_beats_y(repeat_dataset):
    """Table 3.3: even the *wrong* uniform distribution (wUED-style)
    often beats raw Y thresholding on repetitive genomes."""
    sim, _ = repeat_dataset
    km = uniform_kmer_error_model(K, 0.02)  # inflated rate
    c = RedeemCorrector.fit(sim.reads, k=K, error_model=km)
    gspec = spectrum_from_sequence(sim.genome.codes, K, both_strands=True)
    truth = genomic_truth(c.spectrum.kmers, gspec)
    thrs = np.linspace(0.0, 60.0, 121)
    min_y = detection_curve(c.Y.astype(float), truth, thrs).min_wrong_predictions()
    min_t = detection_curve(c.T, truth, thrs).min_wrong_predictions()
    assert min_t < min_y


def test_correction_screens_each_chunk_once(repeat_dataset, fitted, monkeypatch):
    """One ``flag_suspicious_reads`` pass per chunk: ``correct_reads``
    returns the flag count, so the corrector never screens again."""
    import repro.core.redeem.correct as correct_mod
    import repro.core.redeem.corrector as corrector_mod

    calls = []
    real = correct_mod.flag_suspicious_reads

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # Patch the corrector's own binding too, in case it screens directly.
    monkeypatch.setattr(correct_mod, "flag_suspicious_reads", counting)
    monkeypatch.setattr(corrector_mod, "flag_suspicious_reads", counting, raising=False)
    sim, _ = repeat_dataset
    n_chunks, size = 4, 250
    for c in range(n_chunks):
        fitted.correct_chunk(sim.reads.subset(np.arange(c * size, (c + 1) * size)))
    assert len(calls) == n_chunks
    calls.clear()
    _, stats = fitted.correct_with_stats(sim.reads.subset(np.arange(size)))
    assert len(calls) == 1
    assert stats["n_flagged_reads"] == int(
        real(fitted.model, sim.reads.subset(np.arange(size)),
             stats["liberal_threshold"]).sum()
    )
