"""Smoke test of the benchmark itself: ``pytest bench/`` (not tier-1).

Runs all seven workloads at smoke scale, untraced and traced, through
the one command, then checks the result file against BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_smoke_run_matches_contract(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
         "--seed", "7", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == sorted(
        w["name"] for w in contract["workloads"]
    )
    for name, entry in doc["workloads"].items():
        assert NAME.match(name)
        for key in ("end_to_end", "per_layer"):
            run = entry[key]
            declared = {m["name"]: m["unit"] for m in contract[key]}
            assert run["failed"] == 0 and run["attempted"] >= 1, run["errors"]
            assert {
                m: v["unit"] for m, v in run["metrics"].items()
            } == declared
            assert all(NAME.match(m) for m in run["metrics"])
        for metric, v in entry["end_to_end"]["metrics"].items():
            assert v["value"] > 0, (name, metric)

    compare = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"),
         str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert compare.returncode == 0, compare.stdout[-2000:]
