#!/usr/bin/env python
"""Estimating genome length and repeat content straight from reads.

A byproduct of REDEEM's attempt estimates T (Sec. 3.6): T is
proportional to each k-mer's genomic occurrence, so fitting the
mixture of Fig. 3.3 recovers the coverage constant — and with it, the
genome's size and how much of it is spanned by repeats — without any
assembly or reference.  This example also exercises the hybrid
REDEEM→Reptile corrector on the same data.

Run:  python examples/genome_statistics.py
"""

import numpy as np

from repro.core.hybrid import HybridCorrector
from repro.core.redeem import (
    RedeemCorrector,
    estimate_genome_statistics,
    kmer_error_model_from_read_model,
)
from repro.eval import evaluate_correction
from repro.simulate import (
    illumina_like_model,
    repeat_spec,
    simulate_genome,
    simulate_reads,
)

K = 10


def main() -> None:
    rng = np.random.default_rng(21)
    true_length = 35_000
    true_repeat_fraction = 0.45

    genome = simulate_genome(
        repeat_spec(true_length, true_repeat_fraction, unit_length=150), rng
    )
    model = illumina_like_model(36, base_rate=0.007, end_multiplier=3.0)
    sim = simulate_reads(genome, 36, model, rng, coverage=70.0)
    print(f"simulated {sim.n_reads} reads at 70x; "
          f"true genome: {true_length} bp, "
          f"{100 * true_repeat_fraction:.0f}% repeats")

    # --- genome statistics from T ----------------------------------
    km = kmer_error_model_from_read_model(model, K)
    redeem = RedeemCorrector.fit(sim.reads, k=K, error_model=km)
    est = estimate_genome_statistics(redeem.model)
    print("\nestimates from the T mixture (no reference, no assembly):")
    print(f"  genome length   : {est.genome_length:,.0f} bp "
          f"(true {true_length:,})")
    print(f"  repeat fraction : {est.repeat_fraction:.2f} "
          f"(true {true_repeat_fraction:.2f})")
    print(f"  per-copy T      : {est.coverage_constant:.1f}")

    # --- hybrid correction on the same fitted model -------------------
    hybrid = HybridCorrector(
        redeem, reptile_kwargs={"genome_length_estimate": int(est.genome_length), "k": K}
    )
    sub = sim.reads.subset(np.arange(min(5000, sim.n_reads)))
    result = hybrid.run(sub)
    m = evaluate_correction(
        sub.codes, result.reads.codes, sim.true_codes[: sub.n_reads]
    )
    print("\nhybrid REDEEM->Reptile correction:")
    print(f"  stage 1 changed {result.redeem_stats['n_bases_changed']} bases, "
          f"stage 2 changed {result.reptile_bases_changed}")
    print(f"  gain = {m.gain:.3f}, specificity = {m.specificity:.5f}")

    rel_err = abs(est.genome_length - true_length) / true_length
    assert rel_err < 0.25, "genome length estimate off by >25%"


if __name__ == "__main__":
    main()
