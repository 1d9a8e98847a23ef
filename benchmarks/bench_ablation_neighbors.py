"""Ablation — neighbor retrieval strategies (Sec. 2.3's trade-off).

Three exact ways to find all spectrum k-mers within Hamming d:
complete-neighborhood probing (no memory), the masked-replica index
(the paper's replicated sorted copies), and a fully precomputed CSR
adjacency.  All must agree; their build/query costs differ — exactly
the trade-off the thesis discusses ('storing 13 copies of R^k took
~560 MB but made each neighbor lookup constant time').
"""

import time

import numpy as np
from conftest import print_rows

from repro.kmer import (
    MaskedKmerIndex,
    PrecomputedNeighborIndex,
    ProbingNeighborIndex,
    spectrum_from_reads,
)

K = 11
N_QUERIES = 400


def _bench_backend(name, build, spectrum):
    t0 = time.perf_counter()
    index = build()
    build_s = time.perf_counter() - t0
    rng = np.random.default_rng(0)
    queries = spectrum.kmers[
        rng.integers(0, spectrum.n_kmers, size=N_QUERIES)
    ]
    t0 = time.perf_counter()
    answers = [tuple(index.neighbors(int(q)).tolist()) for q in queries]
    query_s = time.perf_counter() - t0
    return {
        "backend": name,
        "build_s": round(build_s, 3),
        "query_ms_per_kmer": round(1000 * query_s / N_QUERIES, 4),
    }, answers


def test_ablation_neighbor_indexes(benchmark, ch3_core):
    reads = ch3_core["D1"].sim.reads.subset(np.arange(20_000))
    spectrum = spectrum_from_reads(reads, K)

    def run_all():
        rows = []
        answer_sets = []
        for name, build in [
            ("probing", lambda: ProbingNeighborIndex(spectrum, 1)),
            ("masked-replica", lambda: MaskedKmerIndex(spectrum.kmers, K, 1)),
            ("precomputed-CSR", lambda: PrecomputedNeighborIndex(spectrum, 1)),
        ]:
            row, answers = _bench_backend(name, build, spectrum)
            rows.append(row)
            answer_sets.append(answers)
        return rows, answer_sets

    rows, answer_sets = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_rows(f"Ablation: neighbor retrieval (|R^k|={spectrum.n_kmers})", rows)
    # All three backends return identical neighbor sets.
    assert answer_sets[0] == answer_sets[1] == answer_sets[2]
    by = {r["backend"]: r for r in rows}
    # Precomputation pays at query time.
    assert (
        by["precomputed-CSR"]["query_ms_per_kmer"]
        <= by["probing"]["query_ms_per_kmer"]
    )
