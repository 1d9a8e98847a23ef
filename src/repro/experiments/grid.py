"""The paper's tables, figures, ablations and extensions as one
declared experiment grid.

Each :class:`Table` names its runner, the datasets it runs on (one
*cell* per dataset), its arguments per scale, and its floors — named
predicates over its rows, each citing the paper claim it encodes.
:func:`run_grid` makes one runner call per cell, appends one JSON line
per cell to a rows file (``status`` ``ok`` or ``error``), skips cells
already ``ok`` there, and checks every floor; :func:`render` rewrites
the generated blocks of EXPERIMENTS.md from those rows.

``smoke`` is sized for the tier-1 suite; ``bench`` is the size the
reproduction tables are reported at.  A floor marked ``smoke=False``
only holds at ``bench`` size and is skipped at ``smoke``.

    python -m repro.experiments --scale bench --out grid.jsonl
    python -m repro.experiments --scale bench --out grid.jsonl --render EXPERIMENTS.md
"""

from __future__ import annotations

import functools
import json
import logging
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from ..eval import format_table
from . import ablations as ab
from . import chapter2 as c2
from . import chapter3 as c3
from . import chapter4 as c4
from .datasets import CH2_SPECS, chapter2_datasets, chapter3_datasets, chapter4_samples

_LOG = logging.getLogger(__name__)

Rows = list[dict]

SCALES = ("smoke", "bench")

#: Dataset groups: a builder and its size per scale — genome length
#: for Chapters 2 and 3, reads in the small sample for Chapter 4.
#: ``bench`` keeps the sizes the tables were always reported at: 6 kbp
#: Chapter 2 genomes, 40 kbp Chapter 3 genomes, samples of 500 / 2,800
#: / 9,000 reads.  The builders seed each dataset by its position in
#: ``names``, so a group is always built with the same name list.
GROUPS: dict[str, tuple[Callable[[int], dict[str, Any]], dict[str, int]]] = {
    "ch2": (lambda n: chapter2_datasets(scale=n), {"smoke": 1500, "bench": 6000}),
    "ch2_small": (lambda n: chapter2_datasets(names=["D2", "D4"], scale=n),
                  {"smoke": 1500, "bench": 6000}),
    "ch3_core": (lambda n: chapter3_datasets(names=["D1", "D2", "D3"], scale=n),
                 {"smoke": 8000, "bench": 40_000}),
    "ch3_lowrep": (lambda n: chapter3_datasets(names=["D6"], scale=n),
                   {"smoke": 3000, "bench": 40_000}),
    "ch4": (lambda n: chapter4_samples(base_reads=n), {"smoke": 80, "bench": 500}),
}


@functools.cache
def _group(name: str, scale: str) -> dict[str, Any]:
    """One dataset group, built once per process and scale."""
    build, sizes = GROUPS[name]
    return build(sizes[scale])


@dataclass(frozen=True)
class Floor:
    """A named predicate over a table's rows and the claim it encodes."""

    name: str
    claim: str
    check: Callable[[Rows], bool]
    smoke: bool = True


@dataclass(frozen=True)
class Table:
    """One table, figure, ablation or extension of the grid.

    ``run(cell, dataset, **args[scale])`` returns the cell's rows;
    ``data`` names a :data:`GROUPS` entry (``None``: the runner builds
    its own input and ``dataset`` is ``None``).
    """

    id: str
    title: str
    run: Callable[..., Rows]
    floors: tuple[Floor, ...]
    data: str | None = None
    cells: tuple[str, ...] = ("-",)
    args: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)


def _each(runner: Callable[..., Rows]) -> Callable[..., Rows]:
    """A chapter runner taking ``{name: dataset}``, called per cell."""
    return lambda cell, ds, **kw: runner({cell: ds}, **kw)


def _one(runner: Callable[..., Rows]) -> Callable[..., Rows]:
    """A runner taking the dataset itself."""
    return lambda cell, ds, **kw: runner(ds, **kw)


def _by(rows: Rows, *keys: str) -> dict:
    """Index rows by one column, or by a tuple of columns."""
    if len(keys) == 1:
        return {r[keys[0]]: r for r in rows}
    return {tuple(r[k] for k in keys): r for r in rows}


def _per(rows: Rows, key: str) -> dict[Any, Rows]:
    out: dict[Any, Rows] = {}
    for r in rows:
        out.setdefault(r[key], []).append(r)
    return out


# -- adapters for runners whose output is not a row list ---------------------

def _fig_3_2(cell: str, ds, **kw) -> Rows:
    """One summary row per score curve of Fig. 3.2."""
    curves = c3.run_fig_3_2({cell: ds}, **kw)[cell]
    thrs = curves["_thresholds"]
    y_min = curves["Y"].min()
    low = thrs <= thrs[0] + 0.25 * (thrs[-1] - thrs[0])
    rows = []
    for label in ("Y", "tIED", "wIED", "tUED", "wUED"):
        c = curves[label]
        rows.append({
            "score": label,
            "min_log_wp": round(float(c.min()), 4),
            "argmin_threshold": float(thrs[int(c.argmin())]),
            "at_first": round(float(c[0]), 4),
            "at_last": round(float(c[-1]), 4),
            "thresholds_beating_Y_min": int((c <= y_min).sum()),
            "low_quartile_min": round(float(c[low].min()), 4),
        })
    return rows


def _fig_3_3(cell: str, ds, **kw) -> Rows:
    """Fig. 3.3's histogram of T as its modes and the threshold."""
    out = c3.run_fig_3_3(ds, **kw)
    T, hist, thr, peak = out["T"], out["hist"], out["threshold"], out["coverage_peak"]
    near_peak = int(((T > 0.7 * peak) & (T < 1.3 * peak)).sum())
    at_thr = int(((T > 0.8 * thr) & (T < 1.2 * thr)).sum())
    return [{
        "kmers": int(T.size),
        "hist_total": int(hist.sum()),
        "spike_frac": round(float(hist[0] / hist.sum()), 4),
        "threshold": round(float(thr), 2),
        "coverage_peak": round(float(peak), 2),
        "groups": int(out["n_groups"]),
        "near_peak_frac": round(near_peak / T.size, 4),
        "at_threshold_frac": round(at_thr / T.size, 4),
    }]


# -- floors ------------------------------------------------------------------

def _table_2_3(check: Callable[[dict], bool]) -> Callable[[Rows], bool]:
    return lambda rows: all(check(_by(g, "method")) for g in _per(rows, "data").values())


def _growth(rows: Rows, col: str) -> float:
    """large / small of one column (Chapter 4's 18x input growth)."""
    by = _by(rows, "data")
    return float(by["large"][col]) / max(float(by["small"][col]), 1e-9)


_CH2 = ("D1", "D2", "D3", "D4", "D5", "D6")
_CH3 = ("D1", "D2", "D3")
_CH4 = ("small", "medium", "large")
_STAGES = ("hashing", "sketching", "validation", "filtering", "clustering")

TABLES: tuple[Table, ...] = (
    Table("table_2_1", "Table 2.1 — dataset characteristics", _each(c2.run_table_2_1), (
        Floor("six_datasets", "six Illumina datasets D1–D6",
              lambda rows: [r["name"] for r in rows] == list(_CH2)),
        Floor("coverage_as_simulated", "coverage within 5% of each dataset's Table 2.1 coverage",
              lambda rows: all(abs(r["coverage"] - CH2_SPECS[r["name"]][1])
                               <= 0.05 * CH2_SPECS[r["name"]][1] for r in rows)),
        Floor("coverage_ladder", "coverage D1 > D2 and D3 > D4",
              lambda rows: (b := _by(rows, "name"))["D1"]["coverage"] > b["D2"]["coverage"]
              and b["D3"]["coverage"] > b["D4"]["coverage"]),
        Floor("d5_noisier", "the GA-II dataset D5 is noisier than D1",
              lambda rows: (b := _by(rows, "name"))["D5"]["error_rate"] > b["D1"]["error_rate"]),
        Floor("d6_most_ambiguous", "D6 has > 5x D2's N reads (paper: ~14% of D6 discarded)",
              lambda rows: (b := _by(rows, "name"))["D6"]["discarded"] > 5 * b["D2"]["discarded"]),
        Floor("error_rates_plausible", "mapped error rates below 5% (paper: 0.6–3.3%)",
              lambda rows: all(0 < r["error_rate"] < 0.05 for r in rows)),
    ), data="ch2", cells=_CH2),
    Table("table_2_2", "Table 2.2 — RMAP mapping rates", _each(c2.run_table_2_2), (
        Floor("clean_map_uniquely", "> 90% of D1/D2 map uniquely (paper: ~96–97%)",
              lambda rows: all(_by(rows, "data")[d]["unique_pct"] > 90 for d in ("D1", "D2"))),
        Floor("noisiest_maps_worst",
              "D5 maps less uniquely than D1, more left unmapped (paper: 62.5 vs 96.5% unique)",
              lambda rows: (b := _by(rows, "data"))["D5"]["unique_pct"] < b["D1"]["unique_pct"]
              and b["D5"]["unmapped_pct"] >= b["D1"]["unmapped_pct"]),
        Floor("mismatch_allowance", "RMAP allows 5 / 10 / 15 mismatches for 36 / 47 / 101 bp reads",
              lambda rows: {r["data"]: r["allowed_mismatches"] for r in rows}
              == {"D1": 5, "D2": 5, "D3": 5, "D4": 5, "D5": 10, "D6": 15}),
        Floor("rates_sum_to_100", "unique + ambiguous + unmapped = 100%",
              lambda rows: all(abs(r["unique_pct"] + r["ambiguous_pct"] + r["unmapped_pct"] - 100)
                               <= 0.5 for r in rows)),
    ), data="ch2", cells=_CH2),
    Table("table_2_3", "Table 2.3 — Reptile vs SHREC", _each(c2.run_table_2_3), (
        Floor("reptile_gain_beats_shrec",
              "Reptile's best Gain beats SHREC's (paper, D2: 65–71% vs 61%)",
              _table_2_3(lambda m: max(m["Reptile(d=1)"]["gain"], m["Reptile(d=2)"]["gain"])
                         > m["SHREC"]["gain"])),
        Floor("reptile_eba_le_shrec",
              "Reptile's best EBA is at most SHREC's (paper: 0.009–0.04% vs 1.5%)",
              _table_2_3(lambda m: min(m["Reptile(d=1)"]["EBA"], m["Reptile(d=2)"]["EBA"])
                         <= m["SHREC"]["EBA"] + 1e-9)),
        Floor("d2_finds_more_errors", "d = 2 widens the search: TP at least d = 1's, less 5",
              _table_2_3(lambda m: m["Reptile(d=2)"]["TP"] >= m["Reptile(d=1)"]["TP"] - 5)),
        Floor("gain_in_range", "Gain is a fraction in [-1, 1]; run times are non-negative",
              lambda rows: all(-1 <= r["gain"] <= 1 and r["seconds"] >= 0 for r in rows)),
    ), data="ch2_small", cells=("D2", "D4"),
        args={"smoke": {"max_reads": 800}, "bench": {"max_reads": 4000}}),
    Table("fig_2_3", "Fig 2.3 — Gain & Sensitivity across parameters (D3)",
          _one(c2.run_fig_2_3), (
        Floor("twelve_points", "the paper's 12 parameter sample points, in order",
              lambda rows: [r["point"] for r in rows] == list(range(1, 13))),
        Floor("sensitivity_climbs", "relaxing (Cm, Qc) raises sensitivity (paper: 0.38 → 0.86)",
              lambda rows: max(s := [r["sensitivity"] for r in rows]) > s[0]
              and max(s[7:]) >= max(s[:4])),
        Floor("gain_rises",
              "Gain rises from the strict corner, never negative (paper: 0.30 → ~0.72)",
              lambda rows: min(g := [r["gain"] for r in rows]) >= 0 and max(g) > g[0]),
        Floor("sensitivity_in_range", "sensitivity is a fraction",
              lambda rows: all(0 <= r["sensitivity"] <= 1 for r in rows)),
    ), data="ch2", cells=("D3",),
        args={"smoke": {"max_reads": 1000}, "bench": {"max_reads": 2500}}),
    Table("table_2_4", "Table 2.4 — ambiguous-base correction", _each(c2.run_table_2_4), (
        Floor("one_row_per_default_base",
              "one row per default base, in A/C/G/T order, the same bases for every dataset",
              lambda rows: len(b := {tuple(r["N"] for r in g) for g in _per(rows, "data").values()})
              == 1 and list(n := b.pop()) == sorted(set(n), key="ACGT".index)),
        Floor("n_accuracy_high",
              "N-resolution accuracy > 85% for every default base (paper: 99.98–100%)",
              lambda rows: all(r["accuracy"] > 0.85 for r in rows)),
        Floor("gain_close_to_n_free",
              "Gain > 0.3 with Ns present (paper: close to the N-free runs)",
              lambda rows: all(r["gain"] > 0.3 for r in rows)),
        Floor("default_base_irrelevant", "accuracy spread over default bases < 10% (paper: < 0.2%)",
              lambda rows: all(max(a := [r["accuracy"] for r in g]) - min(a) < 0.1
                               for g in _per(rows, "data").values())),
    ), data="ch2", cells=("D2", "D6"),
        args={"smoke": {"default_bases": "AT", "max_reads": 1000},
              "bench": {"max_reads": 2500}}),
    Table("table_3_1", "Table 3.1 — REDEEM datasets", _each(c3.run_table_3_1), (
        Floor("repeat_ladder", "20 / 50 / 80% repeats",
              lambda rows: [r["repeat_pct"] for r in rows] == [20.0, 50.0, 80.0]),
        Floor("coverage_and_length", "80x coverage of 36 bp reads",
              lambda rows: all(r["coverage"] == 80.0 and r["len_avg"] == 36.0 for r in rows)),
    ), data="ch3_core", cells=_CH3),
    Table("table_3_2", "Table 3.2 — estimated q_i(a, b), D1", _one(c3.run_table_3_2), (
        Floor("diagonal_dominates",
              "diagonal > 0.9, off-diagonal < 0.05 (paper: diagonals 0.96–0.996)",
              lambda rows: all(r[r["true_base"]] > 0.9 and all(
                  v < 0.05 for b, v in r.items() if b not in ("true_base", r["true_base"]))
                  for r in rows)),
        Floor("rows_stochastic", "one row per true base A/C/G/T, each a distribution over the read base",
              lambda rows: [r["true_base"] for r in rows] == list("ACGT") and all(
                  abs(sum(v for b, v in r.items() if b != "true_base") - 1) < 0.01 for r in rows)),
    ), data="ch3_core", cells=("D1",)),
    Table("table_3_3", "Table 3.3 — min FP+FN, thresholds on Y vs T", _each(c3.run_table_3_3), (
        Floor("tied_halves_wrong_predictions",
              "tIED at least halves Y's wrong predictions (paper: > 95% fewer)",
              lambda rows: all(r["tIED"] < 0.5 * r["Y"] for r in rows), smoke=False),
        Floor("tued_beats_y", "even a uniform distribution beats thresholding Y",
              lambda rows: all(r["tUED"] < r["Y"] for r in rows)),
        Floor("gap_widens_with_repeats", "the advantage over Y widens from D1 to D3",
              lambda rows: (g := {r["data"]: r["Y"] / max(r["tIED"], 1) for r in rows})["D3"]
              > g["D1"]),
        Floor("all_distributions", "Y and the four distributions tIED/wIED/tUED/wUED",
              lambda rows: all(set(r) == {"data", "Y", "tIED", "wIED", "tUED", "wUED"}
                               for r in rows)),
    ), data="ch3_core", cells=_CH3),
    Table("fig_3_2", "Fig 3.2 — log10(FP+FN) vs threshold, D2", _fig_3_2, (
        Floor("u_shaped", "U-shaped curves: an interior minimum",
              lambda rows: all((r := _by(rows, "score")[s])["min_log_wp"] < r["at_first"]
                               and r["min_log_wp"] < r["at_last"] for s in ("Y", "tIED"))),
        Floor("t_min_beats_y", "thresholding T reaches fewer wrong predictions than Y",
              lambda rows: (b := _by(rows, "score"))["tIED"]["min_log_wp"]
              < b["Y"]["min_log_wp"]),
        Floor("flat_bottom", "a wide range of thresholds on T beats Y's own minimum",
              lambda rows: _by(rows, "score")["tIED"]["thresholds_beating_Y_min"] >= 5),
        Floor("left_shift", "small thresholds on T already beat Y's best",
              lambda rows: (b := _by(rows, "score"))["tIED"]["low_quartile_min"]
              <= b["Y"]["min_log_wp"]),
    ), data="ch3_core", cells=("D2",)),
    Table("fig_3_3", "Fig 3.3 — histogram of T_l (D6)", _fig_3_3, (
        Floor("error_spike", "> 20% of k-mers in the first bin: the erroneous-k-mer spike",
              lambda rows: rows[0]["spike_frac"] > 0.2),
        Floor("threshold_below_peak", "the mixture threshold falls below the single-copy peak",
              lambda rows: 0 < rows[0]["threshold"] < rows[0]["coverage_peak"]),
        Floor("single_copy_peak", "> 10% of k-mers within 30% of the single-copy peak",
              lambda rows: rows[0]["near_peak_frac"] > 0.1),
        Floor("threshold_in_valley",
              "fewer k-mers near the threshold than near the peak: it sits in the valley",
              lambda rows: rows[0]["at_threshold_frac"] < rows[0]["near_peak_frac"]),
        Floor("histogram_total", "the histogram counts every k-mer",
              lambda rows: rows[0]["hist_total"] == rows[0]["kmers"]),
    ), data="ch3_lowrep", cells=("D6",)),
    Table("table_3_4", "Table 3.4 — correction vs repeat content", _each(c3.run_table_3_4), (
        Floor("conventional_win_low_repeats",
              "at 20% repeats Reptile beats REDEEM (paper: 78.9 vs 51.5%)",
              lambda rows: (g := _by(rows, "data", "method"))[("D1", "Reptile")]["gain"]
              > g[("D1", "REDEEM")]["gain"]),
        Floor("redeem_climbs", "REDEEM's Gain grows with repeat content (paper: 51.5 → 79.4%)",
              lambda rows: (g := {r["data"]: r["gain"] for r in rows if r["method"] == "REDEEM"})
              ["D3"] > g["D2"] > g["D1"], smoke=False),
        Floor("redeem_overtakes_at_80",
              "at 80% repeats REDEEM beats SHREC and is within 0.05 of Reptile or above",
              lambda rows: (g := _by(rows, "data", "method"))[("D3", "REDEEM")]["gain"]
              > g[("D3", "SHREC")]["gain"]
              and g[("D3", "REDEEM")]["gain"] > g[("D3", "Reptile")]["gain"] - 0.05, smoke=False),
        Floor("shrec_degrades", "SHREC degrades with repeats (paper: 80.3 → 26.7%)",
              lambda rows: (g := _by(rows, "data", "method"))[("D3", "SHREC")]["gain"]
              < g[("D1", "SHREC")]["gain"]),
    ), data="ch3_core", cells=_CH3,
        args={"smoke": {"max_reads": 1500}, "bench": {"max_reads": 2500}}),
    Table("table_4_1", "Table 4.1 — metagenome samples", _each(c4.run_table_4_1), (
        Floor("size_ratio", "sample sizes in ratio 1 : 5.6 : 18",
              lambda rows: abs((n := {r["name"]: r["n_reads"] for r in rows})["medium"]
                               / n["small"] - 5.6) < 0.3
              and abs(n["large"] / n["small"] - 18.0) < 0.5),
        Floor("read_lengths", "reads of 167–894 bp averaging ~371–375 bp",
              lambda rows: all(167 <= r["len_min"] <= r["len_avg"] <= r["len_max"] <= 894
                               and 330 <= r["len_avg"] <= 420 for r in rows)),
        Floor("one_pool", "nested samples of one 81-species pool",
              lambda rows: all(r["n_species"] == 81 for r in rows)),
    ), data="ch4", cells=_CH4),
    Table("table_4_2", "Table 4.2 — stage quantities", _each(c4.run_table_4_2), (
        Floor("sketch_below_all_pairs",
              "sketching proposes < 30% of all pairs (paper: 2.4e-5–2e-3)",
              lambda rows: all(float(r["pair_fraction"]) < 0.3 for r in rows)),
        Floor("edges_shrink_by_stage", "predicted ≥ unique ≥ confirmed edges",
              lambda rows: all(r["confirmed_edges"] <= r["unique_edges"] <= r["predicted_edges"]
                               for r in rows)),
        Floor("lower_threshold_more_clusters", "lowering t1 processes and yields more clusters",
              lambda rows: all(r["clusters@0.9"] >= r["clusters@0.95"]
                               and r["processed@0.9"] >= r["processed@0.95"] for r in rows)),
        Floor("grows_with_input", "more reads, more confirmed edges and clusters",
              lambda rows: _growth(rows, "confirmed_edges") > 1
              and _growth(rows, "clusters@0.9") > 1),
        Floor("sparser_with_input",
              "the pair fraction falls as the input grows (paper: 2e-3 → 2.4e-5)",
              lambda rows: _growth(rows, "pair_fraction") < 1),
    ), data="ch4", cells=_CH4),
    Table("table_4_3", "Table 4.3 — per-stage run time (s)", _each(c4.run_table_4_3), (
        Floor("hashing_near_linear", "hashing grows < 3x the input growth (paper: every stage "
              "grows far slower than the 18x input)",
              lambda rows: _growth(rows, "hashing") < 3 * _growth(rows, "n_reads")),
        Floor("total_subquadratic", "end to end grows slower than all-pairs' quadratic",
              lambda rows: _growth(rows, "total") < _growth(rows, "n_reads") ** 2),
        Floor("all_stages_timed", "sketching, validation, filtering and clustering are timed",
              lambda rows: all(r[s] >= 0 for r in rows for s in _STAGES)),
    ), data="ch4", cells=_CH4),
    Table("table_4_4", "Table 4.4 — ARI per rank vs threshold", _one(c4.run_table_4_4_ari), (
        Floor("stringent_first", "rows run from the most stringent threshold down",
              lambda rows: (t := [r["threshold"] for r in rows]) == sorted(t, reverse=True)
              and len(t) > 1),
        Floor("all_ranks", "ARI and purity for phylum, family, genus and species",
              lambda rows: all(f"{m}_{rank}" in r for r in rows for m in ("ARI", "purity")
                               for rank in ("phylum", "family", "genus", "species"))),
        Floor("stringent_purity", "at the most stringent threshold genus and species purity > 0.8",
              lambda rows: rows[0]["purity_species"] > 0.8 and rows[0]["purity_genus"] > 0.8),
        Floor("coarser_ranks_lower_threshold", "genus is best separated at or below species' t",
              lambda rows: (b := c4.best_threshold_per_rank(rows))["genus"]
              <= b["species"] + 1e-9),
        Floor("ari_varies", "the threshold sweep is informative",
              lambda rows: max(a := [r["ARI_species"] for r in rows]) > min(a)),
    ), data="ch4", cells=("small",)),
    Table("ablation_tiling", "Ablation — flexible vs fixed tiling (D3)",
          _one(ab.run_ablation_tiling), (
        Floor("flexible_not_worse", "the D3a/D3b moves never lose Gain or sensitivity",
              lambda rows: (b := _by(rows, "tiling"))["flexible"]["gain"]
              >= b["fixed"]["gain"] - 0.01
              and b["flexible"]["sensitivity"] >= b["fixed"]["sensitivity"] - 0.01),
    ), data="ch2", cells=("D3",),
        args={"smoke": {"max_reads": 1000}, "bench": {"max_reads": 3000}}),
    Table("ablation_quality", "Ablation — quality-gated vs raw tile counts (D3)",
          _one(ab.run_ablation_quality), (
        Floor("runs_without_scores", "Reptile 'can be run effectively without scores' (Sec. 2.5)",
              lambda rows: all(r["gain"] > 0.3 for r in rows)),
        Floor("gating_no_more_fp", "quality gating does not add miscorrections",
              lambda rows: rows[0]["FP"] <= rows[1]["FP"] + 5),
    ), data="ch2", cells=("D3",),
        args={"smoke": {"max_reads": 1000}, "bench": {"max_reads": 3000}}),
    Table("ablation_dmax", "Ablation — REDEEM dmax (D2)", _one(ab.run_ablation_dmax), (
        Floor("dmax2_larger_graph", "dmax = 2 explodes the misread neighbourhood",
              lambda rows: rows[1]["edges"] > 3 * rows[0]["edges"]),
        Floor("dmax2_changes_little", "'results for dmax = 2 changed little' (Sec. 3.5)",
              lambda rows: abs(rows[1]["min_FP+FN"] - rows[0]["min_FP+FN"])
              < 0.5 * max(rows[0]["min_FP+FN"], 20)),
    ), data="ch3_core", cells=("D2",)),
    Table("ablation_em_iterations", "Ablation — EM iteration budget (D2)",
          _one(ab.run_ablation_em_iterations), (
        Floor("loglik_monotone", "the EM's likelihood is monotone in the budget",
              lambda rows: all(b["loglik"] >= a["loglik"] - 1e-6 for a, b in zip(rows, rows[1:]))),
        Floor("detection_stabilizes", "more iterations never detect worse",
              lambda rows: rows[-1]["min_FP+FN"] <= rows[0]["min_FP+FN"]),
    ), data="ch3_core", cells=("D2",)),
    Table("ablation_qweights", "Ablation — quality-weighted q-mer counts (D2)",
          _one(ab.run_ablation_qweights), (
        Floor("weighting_strips_mass", "errors carry low-quality bases, so weights strip mass",
              lambda rows: rows[1]["total_mass"] < rows[0]["total_mass"]),
        Floor("detection_not_hurt", "quality weights do not hurt detection (Chapter 5)",
              lambda rows: rows[1]["min_FP+FN"] <= 1.5 * rows[0]["min_FP+FN"]),
    ), data="ch3_core", cells=("D2",)),
    Table("ablation_sketch", "Ablation — sketch rounds/density vs recall",
          _one(ab.run_ablation_sketch), (
        Floor("rounds_help_recall", "more rounds shrink the chance a similar pair is missed",
              lambda rows: (b := _by(rows, "rounds", "modulus"))[(3, 24)]["recall"]
              >= b[(1, 24)]["recall"]),
        Floor("density_helps_recall", "denser sketches never hurt recall",
              lambda rows: (b := _by(rows, "rounds", "modulus"))[(3, 12)]["recall"]
              >= b[(3, 24)]["recall"] - 1e-9),
        Floor("paper_density_recall",
              "three rounds at the paper's density recall > 90% of true edges",
              lambda rows: _by(rows, "rounds", "modulus")[(3, 12)]["recall"] > 0.9),
        Floor("no_false_edges", "confirmed edges never exceed the true edges (+5)",
              lambda rows: all(r["confirmed"] <= r["true_edges"] + 5 for r in rows)),
    ), data="ch4", cells=("small",),
        args={"smoke": {"n_reads": 80}, "bench": {"n_reads": 250}}),
    Table("assembly_validation", "Extension — assembly before/after correction (D1)",
          _one(ab.run_assembly_validation), (
        Floor("graph_shrinks", "correction deflates the error-k-mer blowup",
              lambda rows: rows[1]["graph_edges"] < rows[0]["graph_edges"]),
        Floor("n50_grows", "correction lengthens contigs",
              lambda rows: rows[1]["n50"] >= rows[0]["n50"]),
        Floor("fewer_spurious", "correction removes spurious contig sequence",
              lambda rows: rows[1]["spurious_kmers"] <= rows[0]["spurious_kmers"]),
        Floor("genome_kept", "without losing the genome",
              lambda rows: rows[1]["genome_covered"] >= rows[0]["genome_covered"] - 0.02),
    ), data="ch2", cells=("D1",)),
    Table("clustering_vs_classification", "Extension — clustering vs classification (half DB)",
          _one(ab.run_clustering_vs_classification), (
        Floor("classification_misses_novel", "classification handles < 50% of novel-species reads",
              lambda rows: rows[0]["novel_handled"] < 0.5),
        Floor("clustering_handles_novel", "de-novo clustering handles novel reads (Sec. 1.3)",
              lambda rows: rows[1]["novel_handled"] > rows[0]["novel_handled"]),
        Floor("clusters_clean", "CLOSET's clusters are > 85% species-pure",
              lambda rows: rows[1]["quality"] > 0.85),
    ), data="ch4", cells=("small",)),
    Table("freclu_transcriptome", "Extension — FreClu on small-RNA reads",
          _one(ab.run_freclu_transcriptome), (
        Floor("errors_removed", "frequency trees reach Gain > 0.6",
              lambda rows: rows[0]["gain"] > 0.6),
        Floor("counts_recovered", "per-molecule count error at least halves",
              lambda rows: rows[0]["count_error_corrected"] < 0.5 * rows[0]["count_error_raw"]),
    ), args={"smoke": {"n_reads": 6000}, "bench": {"n_reads": 20_000}}),
    Table("indels_454", "Extension — 454 indel correction", _one(ab.run_454_indels), (
        Floor("edit_distance_falls", "indel-aware correction cuts mean edit distance by > 15%",
              lambda rows: rows[2]["mean_edit_distance"] < 0.85 * rows[0]["mean_edit_distance"]),
        Floor("only_indel_repair_restores", "only indel-aware repair restores reads exactly "
              "(the fourth open problem of Sec. 1.2)",
              lambda rows: rows[2]["exact_fraction"] > rows[1]["exact_fraction"]
              and rows[2]["exact_fraction"] > rows[0]["exact_fraction"]),
    ), args={"smoke": {"genome_length": 4000, "n_reads": 1200, "n_score": 150},
             "bench": {"genome_length": 15_000, "n_reads": 5000, "n_score": 400}}),
)


# -- running -----------------------------------------------------------------

def _jsonable(v: Any) -> Any:
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v).__name__}")


def load_rows(path: str | Path) -> list[dict]:
    """Every cell record of a rows file, in file order."""
    p = Path(path)
    if not p.exists():
        return []
    return [json.loads(line) for line in p.read_text().splitlines() if line.strip()]


def table_rows(records: list[dict], table: Table, scale: str) -> Rows | None:
    """The table's rows from each cell's latest ``ok`` record, in cell
    order; ``None`` while any cell lacks one."""
    latest = {
        r["cell"]: r for r in records
        if r["table"] == table.id and r["scale"] == scale and r["status"] == "ok"
    }
    if any(c not in latest for c in table.cells):
        return None
    return [row for c in table.cells for row in latest[c]["rows"]]


def check_floors(table: Table, rows: Rows | None, scale: str) -> list[tuple[Floor, str]]:
    """``(floor, "pass" | "FAIL" | "skip")`` for every floor."""
    out = []
    for f in table.floors:
        if rows is None:
            out.append((f, "FAIL"))
        elif scale == "smoke" and not f.smoke:
            out.append((f, "skip"))
        else:
            try:
                ok = bool(f.check(rows))
            except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
                ok = False
            out.append((f, "pass" if ok else "FAIL"))
    return out


def run_grid(
    scale: str = "smoke",
    out: str | Path | None = None,
    tables: tuple[Table, ...] = TABLES,
    echo: Callable[[str], None] = print,
) -> tuple[bool, list[dict]]:
    """Run every cell not already ``ok`` in ``out``, append its record,
    print each table and check its floors.  Returns ``(passed,
    records)``: ``passed`` is false on any cell error or failed floor."""
    records = load_rows(out) if out is not None else []
    done = {(r["table"], r["cell"]) for r in records if r["scale"] == scale and r["status"] == "ok"}
    for t in tables:
        for cell in t.cells:
            if (t.id, cell) in done:
                continue
            rec: dict[str, Any] = {"table": t.id, "cell": cell, "scale": scale}
            t0 = time.perf_counter()
            try:
                ds = _group(t.data, scale)[cell] if t.data is not None else None
                rec.update(status="ok", rows=t.run(cell, ds, **t.args.get(scale, {})))
            except Exception as exc:  # a failed cell is a recorded result
                _LOG.exception("cell %s/%s failed", t.id, cell)
                rec.update(status="error", error=f"{type(exc).__name__}: {exc}")
            rec["seconds"] = round(time.perf_counter() - t0, 2)
            line = json.dumps(rec, default=_jsonable)
            records.append(json.loads(line))
            if out is not None:
                with open(out, "a") as fh:
                    fh.write(line + "\n")
            echo(f"{t.id}/{cell}: {rec['status']} in {rec['seconds']:.1f}s")

    failures = []
    for t in tables:
        rows = table_rows(records, t, scale)
        echo(f"\n=== {t.title} [{t.id}] ===")
        if rows is None:
            last = {r["cell"]: r for r in records if r["table"] == t.id and r["scale"] == scale}
            for cell in t.cells:
                if last.get(cell, {}).get("status") != "ok":
                    echo(f"  cell {cell}: {last.get(cell, {}).get('error', 'not run')}")
                    failures.append(f"{t.id}/{cell}")
        else:
            echo(format_table(rows, _headers(rows)))
        for f, status in check_floors(t, rows, scale):
            echo(f"  {status:4}  {f.name} — {f.claim}")
            if status == "FAIL":
                failures.append(f"{t.id}.{f.name}")
    if failures:
        echo("\nfailed cells and floors: " + ", ".join(failures))
    return not failures, records


# -- rendering ---------------------------------------------------------------

_BLOCK = re.compile(r"(<!-- grid:(\w+) -->\n).*?(<!-- /grid:\2 -->)", re.S)
_MARK = {"pass": "✓", "FAIL": "✗", "skip": "–"}


def _headers(rows: Rows) -> list[str]:
    return list(dict.fromkeys(k for r in rows for k in r))


def _fmt(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if v.is_integer() and abs(v) >= 1:
            return str(int(v))
        return f"{v:.6g}" if abs(v) < 1e6 else f"{v:.0f}"
    if isinstance(v, list):
        return "/".join(_fmt(x) for x in v)
    return str(v)


def render_table(table: Table, rows: Rows, scale: str) -> str:
    """One generated block body: the rows as Markdown plus the floors."""
    heads = _headers(rows)
    lines = [
        "| " + " | ".join(heads) + " |",
        "|" + "---|" * len(heads),
        *("| " + " | ".join(_fmt(r.get(h, "")) for h in heads) + " |" for r in rows),
        "",
        f"Floors (`--scale {scale}`):",
        "",
        *(f"- {_MARK[s]} `{f.name}` — {f.claim}" for f, s in check_floors(table, rows, scale)),
    ]
    return "\n".join(lines) + "\n"


def render(
    path: str | Path, records: list[dict], scale: str, tables: tuple[Table, ...] = TABLES
) -> None:
    """Rewrite every ``<!-- grid:ID -->`` … ``<!-- /grid:ID -->`` block
    of a Markdown file from the rows; blocks whose table has no
    complete rows at this scale are left as they are."""
    by_id = {t.id: t for t in tables}

    def sub(m: re.Match) -> str:
        t = by_id.get(m.group(2))
        rows = table_rows(records, t, scale) if t is not None else None
        if rows is None:
            return m.group(0)
        return m.group(1) + render_table(t, rows, scale) + m.group(3)

    p = Path(path)
    p.write_text(_BLOCK.sub(sub, p.read_text()))
