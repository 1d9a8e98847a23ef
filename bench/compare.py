#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --out``.

    python3 bench/compare.py base.json new.json

For every (workload, end-to-end metric) pair present in both files it
prints base, new, new/base and a verdict against the metric's bound in
``BENCHMARK.json``:

- ``better`` / ``worse``: the median moved past the bound;
- ``within bound``: it did not;
- ``unresolved``: the run-to-run spread of the metric's own samples
  (interquartile distance over median, the wider of the two files) is
  larger than the bound and the two sample sets overlap, so the files
  cannot tell a change from noise;
- ``changed``: ``gain`` differs between two runs on the same seed, where
  it has to repeat exactly.

Exits 1 if any pair is ``worse`` or ``changed`` for the worse, or if any
workload's failed fraction rose; 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, spread  # noqa: E402


def failed_frac(run: dict) -> float:
    return run["failed"] / run["attempted"] if run["attempted"] else 1.0


def verdict(
    metric: dict, base: dict, new: dict, same_seed: bool
) -> tuple[float, str]:
    """(share by which ``new`` is worse than ``base``, verdict)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    b, n = base["value"], new["value"]
    worse_by = sign * (n - b) / abs(b) if b else 0.0
    if metric["name"] == "gain" and same_seed and n != b:
        return worse_by, "changed"
    bound = metric["bound"]
    bs, ns = base.get("samples") or [b], new.get("samples") or [n]
    noise = max(spread(bs), spread(ns))
    if noise > bound:
        # Only a clean separation of every sample resolves a noisy pair
        # (badness = the value signed so that larger is worse).
        bad_b, bad_n = [sign * x for x in bs], [sign * x for x in ns]
        if min(bad_n) > max(bad_b) and worse_by > bound:
            return worse_by, "worse"
        if max(bad_n) < min(bad_b):
            return worse_by, "better"
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "within bound"


def compare(base_doc: dict, new_doc: dict, contract: dict) -> int:
    same_seed = (
        base_doc.get("seed") == new_doc.get("seed")
        and base_doc.get("scale") == new_doc.get("scale")
    )
    if base_doc.get("fingerprint") != new_doc.get("fingerprint"):
        print("# note: machine fingerprints differ; timings are not "
              "comparable across machines")
    bad = 0
    header = f"{'workload':<16}{'metric':<20}{'base':>12}{'new':>12}" \
             f"{'new/base':>10}  verdict"
    print(header)
    for w in contract["workloads"]:
        name = w["name"]
        base = base_doc["workloads"].get(name, {}).get("end_to_end")
        new = new_doc["workloads"].get(name, {}).get("end_to_end")
        if base is None or new is None:
            continue
        for metric in contract["end_to_end"]:
            bm = base["metrics"][metric["name"]]
            nm = new["metrics"][metric["name"]]
            worse_by, v = verdict(metric, bm, nm, same_seed)
            ratio = nm["value"] / bm["value"] if bm["value"] else float("nan")
            if v == "worse" or (v == "changed" and worse_by > 0):
                bad += 1
            print(f"{name:<16}{metric['name']:<20}{bm['value']:>12.5g}"
                  f"{nm['value']:>12.5g}{ratio:>10.3f}  {v}")
        bf, nf = failed_frac(base), failed_frac(new)
        rose = nf > bf
        bad += int(rose)
        print(f"{name:<16}{'failed_frac':<20}{bf:>12.5g}{nf:>12.5g}"
              f"{'':>10}  {'worse' if rose else 'within bound'}")
    if same_seed:
        # Exact counts of the traced runs should repeat on one seed; a
        # difference is worth a look but is not a regression by itself.
        for name, entry in base_doc["workloads"].items():
            b = entry.get("per_layer", {}).get("metrics", {})
            n = new_doc["workloads"].get(name, {}).get("per_layer", {}) \
                .get("metrics", {})
            for metric, bm in b.items():
                if bm["unit"] == "count" and metric in n \
                        and n[metric]["value"] != bm["value"]:
                    print(f"# count differs: {name} {metric} "
                          f"{bm['value']} -> {n[metric]['value']}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    return compare(docs[0], docs[1], contract)


if __name__ == "__main__":
    raise SystemExit(main())
