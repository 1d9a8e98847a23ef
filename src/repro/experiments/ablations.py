"""Runners for the ablations and extensions of the experiment grid.

Each probes one design choice of Chapters 2–4 (flexible tiling,
quality gating, REDEEM's dmax / EM budget / quality weights, sketch
rounds) or one argument of Chapters 1 and 5 (assembly validation,
clustering vs classification, FreClu, 454 indels), and returns row
dicts like the chapter runners.
"""

from __future__ import annotations

import numpy as np

from ..assembly import assembly_stats, build_debruijn_graph, extract_unitigs, genome_recovery
from ..baselines import (
    FrecluCorrector,
    ReferenceDatabase,
    Shrec454Corrector,
    ShrecCorrector,
    ShrecParams,
    classification_report,
    classify_reads,
    greedy_length_clustering,
)
from ..core.closet import (
    ClosetClusterer,
    ClosetParams,
    SketchParams,
    build_edges,
    kmer_containment,
    read_hash_sets,
)
from ..core.redeem import RedeemCorrector, kmer_error_model_from_read_model
from ..core.reptile import ReptileCorrector
from ..eval import cluster_purity, detection_curve, evaluate_correction, genomic_truth
from ..kmer import spectrum_from_sequence
from ..seq import mean_edit_distance, pack_kmer
from ..simulate import random_genome, simulate_454_reads, simulate_transcriptome
from .chapter3 import K, THRESHOLDS
from .datasets import Chapter2Dataset, Chapter3Dataset


def _reptile_subset(ds: Chapter2Dataset, max_reads: int):
    mask = ds.evaluable_mask()
    reads = ds.sim.reads.subset(mask)
    sub = reads.subset(np.arange(min(max_reads, reads.n_reads)))
    return reads, sub, ds.sim.true_codes[mask][: sub.n_reads]


def run_ablation_tiling(ds: Chapter2Dataset, max_reads: int) -> list[dict]:
    """Flexible tiling (decisions D3a/D3b) vs a fixed left-to-right
    tiling: what Chapter 2's central algorithmic idea buys."""
    reads, sub, true = _reptile_subset(ds, max_reads)
    rows = []
    for flexible in (True, False):
        corr = ReptileCorrector.fit(
            reads, genome_length_estimate=ds.sim.genome.length, k=9,
            flexible_tiling=flexible,
        )
        result = corr.run(sub)
        m = evaluate_correction(sub.codes, result.reads.codes, true, lengths=sub.lengths)
        rows.append({
            "tiling": "flexible" if flexible else "fixed",
            "sensitivity": round(m.sensitivity, 3),
            "gain": round(m.gain, 3),
            "EBA": round(m.eba, 4),
            "tiles_examined": result.stats.tiles_examined,
        })
    return rows


def run_ablation_quality(ds: Chapter2Dataset, max_reads: int) -> list[dict]:
    """Quality-gated tile counts (Og) vs raw counts (Oc): Qc = 0
    collapses Og to Oc, the score-less fallback of Sec. 2.5."""
    reads, sub, true = _reptile_subset(ds, max_reads)
    rows = []
    for gated in (True, False):
        kwargs = {} if gated else {"qc": 0, "qm": 1_000_000}
        corr = ReptileCorrector.fit(
            reads, genome_length_estimate=ds.sim.genome.length, k=9, **kwargs
        )
        m = evaluate_correction(sub.codes, corr.correct(sub).codes, true, lengths=sub.lengths)
        rows.append({
            "counts": "quality-gated (Og)" if gated else "raw (Oc)",
            "sensitivity": round(m.sensitivity, 3),
            "specificity": round(m.specificity, 5),
            "gain": round(m.gain, 3),
            "FP": m.fp,
            "EBA": round(m.eba, 4),
        })
    return rows


def _redeem_sweep(ds: Chapter3Dataset, label: str, values, fit_kwarg, extra) -> list[dict]:
    """Fit REDEEM once per value of one knob; score min FP+FN of T."""
    km = kmer_error_model_from_read_model(ds.read_model, K)
    gspec = spectrum_from_sequence(ds.sim.genome.codes, K, both_strands=True)
    rows = []
    for v in values:
        corr = RedeemCorrector.fit(ds.sim.reads, k=K, error_model=km, **fit_kwarg(v))
        truth = genomic_truth(corr.spectrum.kmers, gspec)
        wp = detection_curve(corr.T, truth, THRESHOLDS).min_wrong_predictions()
        rows.append({label: v, "min_FP+FN": wp, **extra(corr)})
    return rows


def run_ablation_dmax(ds: Chapter3Dataset) -> list[dict]:
    """REDEEM's misread-graph radius dmax ∈ {1, 2} (Sec. 3.5)."""
    return _redeem_sweep(
        ds, "dmax", (1, 2), lambda v: {"dmax": v},
        lambda c: {"edges": int(c.model.P.nnz), "em_iters": c.model.n_iter},
    )


def run_ablation_em_iterations(ds: Chapter3Dataset) -> list[dict]:
    """Detection and log-likelihood against the EM iteration budget."""
    return _redeem_sweep(
        ds, "max_iter", (1, 3, 10, 40), lambda v: {"max_iter": v},
        lambda c: {"loglik": round(c.model.log_likelihood[-1], 1)},
    )


def run_ablation_qweights(ds: Chapter3Dataset) -> list[dict]:
    """Raw multiplicities Y vs quality-weighted q-mer counts feeding
    the EM (Chapter 5's 'quality scores could be incorporated')."""
    rows = _redeem_sweep(
        ds, "counts", (False, True), lambda v: {"use_quality_weights": v},
        lambda c: {"total_mass": round(float(c.T.sum()), 0)},
    )
    for r in rows:
        r["counts"] = "quality-weighted" if r["counts"] else "raw Y"
    return rows


def run_ablation_sketch(sample, n_reads: int) -> list[dict]:
    """Sketch rounds and density vs candidate recall against
    exhaustive all-pairs containment (Sec. 4.5.2)."""
    k, cmin = 15, 0.6
    reads = sample.reads.subset(np.arange(n_reads))
    hsets = read_hash_sets(reads, k)
    truth = {
        (i, j)
        for i in range(len(hsets))
        for j in range(i + 1, len(hsets))
        if kmer_containment(hsets[i], hsets[j]) >= cmin
    }
    rows = []
    for rounds in (1, 2, 3):
        for modulus in (12, 24):
            res = build_edges(
                reads, SketchParams(k=k, modulus=modulus, rounds=rounds, cmax=200, cmin=cmin)
            )
            found = set(map(tuple, res.edges.tolist()))
            rows.append({
                "rounds": rounds,
                "modulus": modulus,
                "candidates": res.n_unique,
                "confirmed": res.n_confirmed,
                "true_edges": len(truth),
                "recall": round(len(found & truth) / max(len(truth), 1), 4),
            })
    return rows


def run_assembly_validation(ds: Chapter2Dataset) -> list[dict]:
    """De Bruijn assembly of raw vs Reptile-corrected reads: the
    assembly-improvement validation of Sec. 1.2."""
    k_asm = 15
    reads = ds.sim.reads.subset(ds.evaluable_mask())
    genome = ds.sim.genome
    corrected = ReptileCorrector.fit(
        reads, genome_length_estimate=genome.length, k=9
    ).correct(reads)
    rows = []
    for label, rs in (("raw", reads), ("corrected", corrected)):
        g = build_debruijn_graph(rs, k_asm)
        unitigs = extract_unitigs(g, min_length=2 * k_asm)
        rec = genome_recovery(unitigs, genome.codes, k_asm)
        rows.append({
            "reads": label,
            "graph_edges": g.n_edges,
            **assembly_stats(unitigs),
            "genome_covered": round(rec["covered"], 3),
            "spurious_kmers": round(rec["spurious"], 4),
        })
    return rows


def run_clustering_vs_classification(sample) -> list[dict]:
    """Classification against a half-complete database vs de-novo
    clustering (Sec. 1.3): who handles reads of novel species."""
    k = 15
    tax = sample.taxonomy
    keep = np.arange(tax.n_species) < tax.n_species // 2
    db = ReferenceDatabase.from_sequences(
        [g for g, kp in zip(tax.genes, keep) if kp],
        tax.units_at_rank("species")[keep],
        k=k,
    )
    predicted = classify_reads(sample.reads, db, min_similarity=0.5)
    truth = sample.true_labels("species")
    known = keep[sample.species_of_read]
    rep_all = classification_report(predicted, truth)
    rep_novel = classification_report(predicted[~known], truth[~known])
    rows = [{
        "method": "classification (half DB)",
        "handled_fraction": round(rep_all["classified_fraction"], 3),
        "novel_handled": round(rep_novel["classified_fraction"], 3),
        "quality": round(rep_all["accuracy_on_classified"], 3),
    }]
    params = ClosetParams(sketch=SketchParams(k=k, modulus=24, rounds=3, cmax=200, cmin=0.5))
    closet = ClosetClusterer(params).run(sample.reads, thresholds=[0.6]).clusters[0.6]
    greedy = [c for c in greedy_length_clustering(sample.reads, k=k, threshold=0.6).clusters
              if len(c) >= 2]
    for method, clusters in (("CLOSET clustering", closet), ("greedy (Cd-hit-like)", greedy)):
        handled = np.zeros(sample.n_reads, dtype=bool)
        for c in clusters:
            handled[c] = True
        rows.append({
            "method": method,
            "handled_fraction": round(float(handled.mean()), 3),
            "novel_handled": round(float(handled[~known].mean()), 3),
            "quality": round(cluster_purity(clusters, truth), 3),
        })
    return rows


def run_freclu_transcriptome(_ds, n_reads: int) -> list[dict]:
    """FreClu's frequency trees on small-RNA reads (Sec. 1.2): errors
    removed and per-molecule counts recovered."""
    sample = simulate_transcriptome(
        n_transcripts=40, n_reads=n_reads, rng=np.random.default_rng(0),
        length=22, error_rate=0.012, abundance_sigma=1.2,
    )
    result = FrecluCorrector().correct(sample.reads)
    m = evaluate_correction(sample.reads.codes, result.reads.codes, sample.true_codes())
    corrected = result.corrected_counts()
    raw: dict[int, int] = {}
    for i in range(sample.n_reads):
        key = int(pack_kmer(sample.reads.read_codes(i)))
        raw[key] = raw.get(key, 0) + 1
    raw_err = corr_err = 0
    for t, tc in enumerate(sample.true_counts().tolist()):
        key = int(pack_kmer(sample.transcripts[t]))
        raw_err += abs(raw.get(key, 0) - tc)
        corr_err += abs(corrected.get(key, 0) - tc)
    return [{
        "gain": round(m.gain, 3), "count_error_raw": raw_err, "count_error_corrected": corr_err,
    }]


def run_454_indels(_ds, genome_length: int, n_reads: int, n_score: int) -> list[dict]:
    """Indel-aware SHREC-454 vs substitution-only SHREC on 454 reads
    (the fourth open problem of Sec. 1.2).  Only the indel-aware
    repair can restore a read's true length, so the discriminating
    metric is the exact fraction."""
    genome = random_genome(genome_length, np.random.default_rng(0))
    sim = simulate_454_reads(genome, n_reads, np.random.default_rng(1), read_length_mean=110)
    params = ShrecParams(levels=(17,), alpha=4.0, genome_length=genome_length)
    scored = sim.reads.subset(np.arange(n_score))
    rows = []
    for label, out in (
        ("raw 454", sim.reads),
        ("substitution-only SHREC", ShrecCorrector(sim.reads, params).correct(scored)),
        ("indel-aware SHREC-454", Shrec454Corrector(sim.reads, params).correct_variable(scored)),
    ):
        pairs = [(out.read_codes(i), sim.true_fragments[i]) for i in range(n_score)]
        exact = sum(1 for a, b in pairs if a.size == b.size and (a == b).all())
        rows.append({
            "reads": label,
            "mean_edit_distance": round(mean_edit_distance(pairs), 3),
            "exact_fraction": round(exact / n_score, 3),
        })
    return rows
