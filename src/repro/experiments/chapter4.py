"""Experiment runners for Chapter 4 (CLOSET): Tables 4.1–4.4."""

from __future__ import annotations

from ..core.closet import ClosetClusterer, ClosetParams, SketchParams
from ..eval.clustering import clustering_ari, cluster_purity
from ..eval.datasets import summarize_reads
from ..simulate.metagenome import RANKS, MetagenomeSample

#: Default similarity thresholds (Sec. 4.5.2 uses 95/92/90%; our
#: simulated divergences justify a wider sweep for the ARI study).
DEFAULT_THRESHOLDS = (0.95, 0.92, 0.90)

#: Table 4.4's threshold sweep, most stringent first.
ARI_THRESHOLDS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4)


def default_params() -> ClosetParams:
    """Paper-flavored defaults: k=15, ~5-16 sketches/read, 3 rounds."""
    return ClosetParams(
        sketch=SketchParams(k=15, modulus=24, rounds=3, cmax=200, cmin=0.6)
    )


def run_table_4_1(samples: dict[str, MetagenomeSample]) -> list[dict]:
    """Metagenomic dataset characteristics (Table 4.1)."""
    rows = []
    for name, sample in samples.items():
        row = summarize_reads(name, sample.reads).as_dict()
        row["size_mb"] = round(sample.reads.total_bases / 1e6, 2)
        row["n_species"] = sample.taxonomy.n_species
        rows.append(row)
    return rows


def run_table_4_2(samples: dict[str, MetagenomeSample]) -> list[dict]:
    """Edge and cluster quantities per stage (Table 4.2)."""
    rows = []
    for name, sample in samples.items():
        res = ClosetClusterer(default_params()).run(
            sample.reads, thresholds=list(DEFAULT_THRESHOLDS)
        )
        er = res.edge_result
        row = {
            "data": name,
            "n_reads": sample.n_reads,
            "predicted_edges": er.n_predicted,
            "unique_edges": er.n_unique,
            "confirmed_edges": er.n_confirmed,
            "pair_fraction": f"{er.fraction_of_all_pairs(sample.n_reads):.2e}",
        }
        for t in DEFAULT_THRESHOLDS:
            row[f"clusters@{t}"] = len(res.clusters[t])
            row[f"processed@{t}"] = res.clusters_processed[t]
        rows.append(row)
    return rows


def run_table_4_3(samples: dict[str, MetagenomeSample]) -> list[dict]:
    """Per-stage run time (Table 4.3): sketching, validation,
    filtering, clustering — across input sizes, on the MapReduce
    backend the paper's stages run on."""
    rows = []
    for name, sample in samples.items():
        res = ClosetClusterer(default_params()).run(
            sample.reads, thresholds=list(DEFAULT_THRESHOLDS), backend="mapreduce"
        )
        row = {"data": name, "n_reads": sample.n_reads}
        for stage, secs in res.stage_seconds.items():
            row[stage] = round(secs, 3)
        row["total"] = round(sum(res.stage_seconds.values()), 3)
        rows.append(row)
    return rows


def run_table_4_4_ari(sample: MetagenomeSample) -> list[dict]:
    """ARI of CLOSET clusters against the canonical clusters of every
    taxonomic rank, across thresholds (the Sec. 4.5.2 methodology made
    concrete — simulation supplies the expert labels).

    Rows run from the most stringent threshold down; the row
    maximizing ARI for a rank identifies the similarity level that
    best separates that rank.
    """
    res = ClosetClusterer(default_params()).run(sample.reads, thresholds=list(ARI_THRESHOLDS))
    rows = []
    for t in ARI_THRESHOLDS:
        clusters = res.clusters[t]
        row = {"threshold": t, "n_clusters": len(clusters)}
        for rank in RANKS:
            labels = sample.true_labels(rank)
            row[f"ARI_{rank}"] = round(clustering_ari(clusters, labels), 4)
            row[f"purity_{rank}"] = round(cluster_purity(clusters, labels), 3)
        rows.append(row)
    return rows


def best_threshold_per_rank(rows: list[dict]) -> dict[str, float]:
    """From Table 4.4 rows: the ARI-maximizing threshold per rank."""
    out = {}
    for rank in RANKS:
        key = f"ARI_{rank}"
        best = max(rows, key=lambda r: r[key])
        out[rank] = best["threshold"]
    return out
