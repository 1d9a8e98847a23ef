"""Experiment runners for Chapter 3 (REDEEM): Tables 3.1–3.4,
Figs 3.2 & 3.3."""

from __future__ import annotations

import time

import numpy as np

from ..baselines.shrec import ShrecCorrector, ShrecParams
from ..core.redeem import (
    RedeemCorrector,
    estimate_kmer_error_model,
    kmer_error_model_from_read_model,
    uniform_kmer_error_model,
)
from ..core.reptile import ReptileCorrector
from ..eval.correction import evaluate_correction
from ..eval.datasets import summarize_reads
from ..eval.detection import detection_curve, genomic_truth
from ..kmer.spectrum import spectrum_from_sequence
from ..mapping.rmap import aligned_true_codes, map_reads
from .datasets import Chapter3Dataset, wrong_illumina_model

#: k-mer length of every Chapter 3 run.
K = 10


def run_table_3_1(datasets: dict[str, Chapter3Dataset]) -> list[dict]:
    """Dataset characteristics (Table 3.1)."""
    rows = []
    for name, ds in datasets.items():
        row = summarize_reads(
            name,
            ds.sim.reads,
            genome_length=ds.sim.genome.length,
            error_rate=ds.sim.observed_error_rate(),
        ).as_dict()
        row["repeat_pct"] = round(100 * ds.repeat_fraction, 1)
        rows.append(row)
    return rows


def run_table_3_2(ds: Chapter3Dataset) -> list[dict]:
    """Estimated error probabilities q_i(a, b) at the middle k-mer
    position (Table 3.2 reports i = 11 for two datasets), with the
    truth from mapping the reads back to the reference with RMAP (the
    paper's estimation pipeline)."""
    reads = ds.sim.reads
    res = map_reads(reads, ds.sim.genome.codes, max_mismatches=3)
    rows_idx, true = aligned_true_codes(reads, ds.sim.genome.codes, res)
    observed = reads.codes[rows_idx]
    est = estimate_kmer_error_model(observed, true, K)
    from ..seq.alphabet import BASES

    rows = []
    for a in range(4):
        row = {"true_base": BASES[a]}
        for b in range(4):
            row[BASES[b]] = round(float(est.q[K // 2, a, b]), 5)
        rows.append(row)
    return rows


#: Thresholds swept on Y and T (Table 3.3, Fig. 3.2).
THRESHOLDS = np.linspace(0.0, 80.0, 161)


def _error_distributions(ds: Chapter3Dataset) -> dict:
    """The four distributions of Sec. 3.4.2."""
    true_rate = ds.read_model.error_rate()
    return {
        "tIED": kmer_error_model_from_read_model(ds.read_model, K),
        "wIED": kmer_error_model_from_read_model(
            wrong_illumina_model(ds.read_model.read_length), K
        ),
        "tUED": uniform_kmer_error_model(K, true_rate),
        "wUED": uniform_kmer_error_model(K, min(0.02, 3 * true_rate)),
    }


def run_table_3_3(datasets: dict[str, Chapter3Dataset]) -> list[dict]:
    """Minimum FP+FN of thresholding Y vs thresholding T under each
    error distribution (Table 3.3)."""
    rows = []
    for name, curves in _detection_curves(datasets).items():
        rows.append({"data": name, **{label: c.min_wrong_predictions()
                                      for label, c in curves.items()}})
    return rows


def run_fig_3_2(datasets: dict[str, Chapter3Dataset]) -> dict[str, dict[str, np.ndarray]]:
    """log10(FP+FN) curves vs threshold, per dataset and score
    (Fig. 3.2).  Returns ``{dataset: {score_label: curve array}}``
    plus the threshold grid under key ``_thresholds``."""
    return {
        name: {"_thresholds": THRESHOLDS,
               **{label: c.log_wrong_predictions() for label, c in curves.items()}}
        for name, curves in _detection_curves(datasets).items()
    }


def _detection_curves(datasets: dict[str, Chapter3Dataset]) -> dict[str, dict]:
    """Per dataset: the detection curve of thresholding Y, then of
    thresholding T under each of the four error distributions."""
    out = {}
    for name, ds in datasets.items():
        gspec = spectrum_from_sequence(ds.sim.genome.codes, K, both_strands=True)
        curves = {}
        for label, model in _error_distributions(ds).items():
            corr = RedeemCorrector.fit(ds.sim.reads, k=K, error_model=model)
            if not curves:
                truth = genomic_truth(corr.spectrum.kmers, gspec)
                curves["Y"] = detection_curve(corr.Y.astype(float), truth, THRESHOLDS)
            curves[label] = detection_curve(corr.T, truth, THRESHOLDS)
        out[name] = curves
    return out


def run_fig_3_3(ds: Chapter3Dataset) -> dict:
    """Histogram of estimated T_l (Fig. 3.3) plus the inferred
    mixture threshold — peaks at alpha = 0, 1, 2 should be visible."""
    corr = RedeemCorrector.fit(ds.sim.reads, k=K, error_model=None)
    thr, fit = corr.infer_threshold()
    hist, edges = np.histogram(corr.T, bins=60)
    return {
        "hist": hist,
        "bin_edges": edges,
        "threshold": thr,
        "coverage_peak": fit.coverage_peak,
        "n_groups": fit.n_groups,
        "T": corr.T,
    }


def run_table_3_4(
    datasets: dict[str, Chapter3Dataset], max_reads: int | None = None
) -> list[dict]:
    """SHREC vs Reptile vs REDEEM correction on increasingly
    repetitive genomes (Table 3.4), with time and memory notes."""
    rows = []
    for name, ds in datasets.items():
        reads = ds.sim.reads
        true = ds.sim.true_codes
        if max_reads is not None and reads.n_reads > max_reads:
            sub = reads.subset(np.arange(max_reads))
            true_sub = true[:max_reads]
        else:
            sub, true_sub = reads, true

        def record(method: str, corrected, secs: float) -> None:
            m = evaluate_correction(
                sub.codes, corrected.codes, true_sub, lengths=sub.lengths
            )
            rows.append(
                {
                    "data": name,
                    "repeat_pct": round(100 * ds.repeat_fraction, 1),
                    "method": method,
                    "sensitivity": round(m.sensitivity, 3),
                    "specificity": round(m.specificity, 4),
                    "gain": round(m.gain, 3),
                    "seconds": round(secs, 2),
                }
            )

        t0 = time.perf_counter()
        shrec = ShrecCorrector(
            reads,
            ShrecParams(
                levels=(2 * K - 1,), alpha=4.0, genome_length=ds.sim.genome.length
            ),
        )
        record("SHREC", shrec.correct(sub), time.perf_counter() - t0)

        t0 = time.perf_counter()
        reptile = ReptileCorrector.fit(
            reads, genome_length_estimate=ds.sim.genome.length, k=K
        )
        record("Reptile", reptile.correct(sub), time.perf_counter() - t0)

        t0 = time.perf_counter()
        redeem = RedeemCorrector.fit(
            reads,
            k=K,
            error_model=kmer_error_model_from_read_model(ds.read_model, K),
        )
        record("REDEEM", redeem.correct(sub), time.perf_counter() - t0)
    return rows
