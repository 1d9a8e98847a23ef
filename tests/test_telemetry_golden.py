"""End-to-end telemetry acceptance on the golden corpus.

Runs the real ``repro correct`` CLI over the committed golden Reptile
reads with ``--report`` and asserts the PR's acceptance criteria:

- the corrected FASTQ is byte-identical to the pinned expectation
  (telemetry must not perturb correction);
- the JSON report is schema-valid;
- the per-stage wall times cover >= 90% of the run's wall time;
- a serial run and a 2-worker run report identical counters.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.telemetry import RunReport, validate_report_file

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _run_correct(tmp_path, tag: str, workers: int, *extra: str) -> tuple[Path, Path]:
    from repro.tools.correct import main

    reads = GOLDEN_DIR / "reptile_reads.fastq"
    if not reads.exists():  # pragma: no cover - corpus is committed
        pytest.skip("golden corpus missing")
    out = tmp_path / f"{tag}.fastq"
    report = tmp_path / f"{tag}.json"
    rc = main(
        [str(reads), str(out), "--workers", str(workers),
         "--chunk-size", "256", "--report", str(report), *extra]
    )
    assert rc == 0
    return out, report


def test_golden_correct_with_report(tmp_path):
    out, report_path = _run_correct(tmp_path, "serial", workers=1)

    expected = (GOLDEN_DIR / "reptile_expected.fastq").read_bytes()
    assert out.read_bytes() == expected, (
        "telemetry-instrumented CLI changed the golden correction output"
    )

    assert validate_report_file(report_path) == []
    rep = RunReport.load(report_path)
    assert rep.tool == "correct" and rep.status == "ok"
    assert rep.wall_seconds > 0
    names = [s["name"] for s in rep.stages]
    assert names[:4] == ["read_input", "fit", "correct", "write_output"]
    assert rep.stage_fraction() >= 0.9, (
        f"stages cover only {rep.stage_fraction():.1%} of the run"
    )
    # The full span tree reaches through the engine layers.
    tree = rep.span_tree()
    assert tree.find("parallel.correct") is not None
    phase1 = [c.name for c in tree.find("fit").children]
    assert phase1 == ["reptile.scan", "reptile.tables", "reptile.neighbor_index"]
    # --stream is the same phase 1 under the same names, so the two
    # reports diff cleanly.
    out, report_path = _run_correct(tmp_path, "stream", 1, "--stream")
    assert out.read_bytes() == expected
    streamed = RunReport.load(report_path).span_tree().find("fit")
    assert [c.name for c in streamed.children] == phase1
    # Counters captured real work.
    assert rep.counters["reads_corrected"] == int(rep.gauges["reads_input"])
    assert rep.counters["bases_changed"] > 0
    assert rep.gauges["bases_changed"] == rep.counters["bases_changed"]


def test_golden_serial_and_parallel_counters_match(tmp_path):
    out1, rep1 = _run_correct(tmp_path, "serial", workers=1)
    out2, rep2 = _run_correct(tmp_path, "parallel", workers=2)
    assert out1.read_bytes() == out2.read_bytes()
    c1 = json.loads(rep1.read_text())["counters"]
    c2 = json.loads(rep2.read_text())["counters"]
    for c in (c1, c2):
        # The memo cache's hit/miss split depends on how chunks land on
        # workers (each forked worker warms its own copy-on-write memo),
        # but the total number of consultations is fixed by the walk.
        c["hotpath.memo_lookups"] = c.pop("hotpath.memo_hits", 0) + c.pop(
            "hotpath.memo_misses", 0
        )
        c.pop("hotpath.memo_evictions", None)
    assert c1 == c2, "serial and parallel runs must report equal counters"
    assert validate_report_file(rep2) == []
