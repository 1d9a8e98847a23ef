"""Experiment runners for Chapter 2 (Reptile): Tables 2.1–2.4, Fig 2.3.

Every function returns a list of row dicts mirroring the paper table's
columns; :mod:`repro.experiments.grid` declares their cells and floors.
"""

from __future__ import annotations

import time

import numpy as np

from ..baselines.shrec import ShrecCorrector, ShrecParams
from ..core.reptile import ReptileCorrector
from ..core.reptile.params import quality_histogram, quantile_int_from_histogram
from ..eval.correction import ambiguous_base_accuracy, evaluate_correction
from ..eval.datasets import summarize_reads
from ..mapping.rmap import map_reads
from .datasets import Chapter2Dataset


def _k_for(dataset: Chapter2Dataset) -> int:
    from ..core.reptile.params import default_k_for_genome

    return max(9, default_k_for_genome(dataset.sim.genome.length))


def run_table_2_1(datasets: dict[str, Chapter2Dataset]) -> list[dict]:
    """Dataset characteristics (Table 2.1).

    Per the paper's footnote, the error rate is estimated from the
    mismatches of *uniquely mapped* reads (junk reads never map and so
    never contribute), not from simulator ground truth.
    """
    rows = []
    for name, ds in datasets.items():
        discarded = int(ds.sim.reads.has_ambiguous().sum())
        clean = ds.sim.reads.subset(~ds.sim.reads.has_ambiguous())
        res = map_reads(clean, ds.sim.genome.codes, max_mismatches=5)
        unique = res.status == 1
        err = None
        if unique.any():
            err = float(res.mismatches[unique].sum()) / float(
                clean.lengths[unique].sum()
            )
        rows.append(
            summarize_reads(
                name,
                ds.sim.reads,
                genome_length=ds.sim.genome.length,
                error_rate=err,
                discarded_reads=discarded,
            ).as_dict()
        )
    return rows


def run_table_2_2(datasets: dict[str, Chapter2Dataset]) -> list[dict]:
    """RMAP mapping rates (Table 2.2)."""
    rows = []
    for name, ds in datasets.items():
        mism = {36: 5, 47: 10, 101: 15}.get(ds.read_length, 5)
        clean = ds.sim.reads.subset(~ds.sim.reads.has_ambiguous())
        res = map_reads(clean, ds.sim.genome.codes, max_mismatches=mism)
        rows.append(
            {
                "data": name,
                "allowed_mismatches": mism,
                "n_reads": clean.n_reads,
                "unique_pct": round(100 * res.fraction_unique(), 1),
                "ambiguous_pct": round(100 * res.fraction_ambiguous(), 1),
                "unmapped_pct": round(100 * res.fraction_unmapped(), 1),
            }
        )
    return rows


def _score_correction(ds: Chapter2Dataset, corrected) -> dict:
    clean_mask = ds.evaluable_mask()
    m = evaluate_correction(
        ds.sim.reads.codes[clean_mask],
        corrected.codes[clean_mask],
        ds.sim.true_codes[clean_mask],
        lengths=ds.sim.reads.lengths[clean_mask],
    )
    return m.as_dict()


def run_table_2_3(
    datasets: dict[str, Chapter2Dataset], max_reads: int | None = None
) -> list[dict]:
    """Reptile vs SHREC correction quality, time and memory (Table 2.3).

    Reads containing ambiguous bases are excluded, as the paper does
    for the SHREC comparison.  ``max_reads`` caps the corrected subset
    (structures are still built from the full dataset).
    """
    rows = []
    for name, ds in datasets.items():
        mask = ds.evaluable_mask()
        reads = ds.sim.reads.subset(mask)
        true = ds.sim.true_codes[mask]
        if max_reads is not None and reads.n_reads > max_reads:
            reads_sub = reads.subset(np.arange(max_reads))
            true_sub = true[:max_reads]
        else:
            reads_sub, true_sub = reads, true

        t0 = time.perf_counter()
        level = min(17, 2 * _k_for(ds) - 1)
        shrec = ShrecCorrector(
            reads,
            ShrecParams(
                levels=(level,),
                alpha=4.0,
                genome_length=ds.sim.genome.length,
            ),
        )
        out = shrec.correct(reads_sub)
        secs = time.perf_counter() - t0
        m = evaluate_correction(
            reads_sub.codes, out.codes, true_sub, lengths=reads_sub.lengths
        )
        rows.append(
            {"data": name, "method": "SHREC", **m.as_dict(), "seconds": round(secs, 2)}
        )

        for d in (1, 2):
            t0 = time.perf_counter()
            corr = ReptileCorrector.fit(
                reads,
                genome_length_estimate=ds.sim.genome.length,
                k=_k_for(ds),
                d=d,
            )
            out = corr.correct(reads_sub)
            secs = time.perf_counter() - t0
            m = evaluate_correction(
                reads_sub.codes, out.codes, true_sub, lengths=reads_sub.lengths
            )
            rows.append(
                {
                    "data": name,
                    "method": f"Reptile(d={d})",
                    **m.as_dict(),
                    "seconds": round(secs, 2),
                    "memory_mb": round(corr.memory_estimate_bytes() / 2**20, 2),
                }
            )
    return rows


def run_fig_2_3(ds: Chapter2Dataset, max_reads: int | None = None) -> list[dict]:
    """Gain & Sensitivity across parameter choices on D3 (Fig. 2.3).

    The paper's 12 sample points sweep (Cm, Qc) at k=11/d=1 and end
    with a (k=12, d=2) point; we sweep the same shape scaled to the
    bench genome (small k keeps the spectra meaningful).
    """
    k = _k_for(ds)
    # The paper's Qc values (60..45) are absolute scores on its
    # quality scale; we translate them to quantiles of this
    # dataset's own quality distribution (strict ~35% of bases
    # below Qc down to lenient ~10%) so the sweep spans the same
    # strict-to-permissive range whatever the simulator's scale.
    qhist = quality_histogram(ds.sim.reads)
    q = lambda frac: quantile_int_from_histogram(qhist, frac)
    param_points = [
        {"cm": 14, "qc": q(0.35)},
        {"cm": 12, "qc": q(0.35)},
        {"cm": 10, "qc": q(0.35)},
        {"cm": 10, "qc": q(0.28)},
        {"cm": 8, "qc": q(0.35)},
        {"cm": 8, "qc": q(0.28)},
        {"cm": 8, "qc": q(0.21)},
        {"cm": 8, "qc": q(0.12)},
        {"cm": 7, "qc": q(0.12)},
        {"cm": 6, "qc": q(0.12)},
        {"cm": 5, "qc": q(0.12)},
        {"cm": 8, "qc": q(0.12), "k": k + 1, "d": 2},
    ]
    mask = ds.evaluable_mask()
    reads = ds.sim.reads.subset(mask)
    true = ds.sim.true_codes[mask]
    if max_reads is not None and reads.n_reads > max_reads:
        sub = reads.subset(np.arange(max_reads))
        true = true[:max_reads]
    else:
        sub = reads
    rows = []
    for i, pt in enumerate(param_points):
        kwargs = dict(pt)
        corr = ReptileCorrector.fit(
            reads,
            genome_length_estimate=ds.sim.genome.length,
            k=kwargs.pop("k", k),
            d=kwargs.pop("d", 1),
            **kwargs,
        )
        out = corr.correct(sub)
        m = evaluate_correction(sub.codes, out.codes, true, lengths=sub.lengths)
        rows.append(
            {
                "point": i + 1,
                **pt,
                "sensitivity": round(m.sensitivity, 3),
                "gain": round(m.gain, 3),
            }
        )
    return rows


def run_table_2_4(
    datasets: dict[str, Chapter2Dataset],
    default_bases: str = "ACGT",
    max_reads: int | None = None,
) -> list[dict]:
    """Ambiguous-base correction accuracy per default base (Table 2.4)."""
    from ..seq.alphabet import BASES, N_CODE

    rows = []
    for name, ds in datasets.items():
        # Keep the N-containing reads (they are the subject here) but
        # drop junk reads, which the paper's RMAP-based scoring never
        # saw.
        keep = (
            ~ds.junk_mask
            if ds.junk_mask is not None
            else np.ones(ds.sim.n_reads, dtype=bool)
        )
        reads = ds.sim.reads.subset(keep)
        true = ds.sim.true_codes[keep]
        if max_reads is not None and reads.n_reads > max_reads:
            reads = reads.subset(np.arange(max_reads))
            true = true[:max_reads]
        n_mask = reads.codes == N_CODE
        corr = ReptileCorrector.fit(
            ds.sim.reads,
            genome_length_estimate=ds.sim.genome.length,
            k=_k_for(ds),
        )
        for base in default_bases:
            result = corr.run(
                reads,
                ambiguous_default=BASES.index(base),
                track_validated=True,
            )
            # Score only N positions actually resolved by a validated
            # or corrected tile — unvalidated default placeholders are
            # not corrections (the paper's 'successfully corrected').
            resolved = n_mask & result.validated
            acc = ambiguous_base_accuracy(
                reads.codes, result.reads.codes, true, resolved
            )
            m = evaluate_correction(
                reads.codes, result.reads.codes, true, lengths=reads.lengths
            )
            rows.append(
                {
                    "data": name,
                    "N": base,
                    "n_resolved": int(resolved.sum()),
                    "accuracy": round(acc, 4),
                    "sensitivity": round(m.sensitivity, 3),
                    "specificity": round(m.specificity, 4),
                    "gain": round(m.gain, 3),
                    "EBA": round(m.eba, 4),
                }
            )
    return rows
