"""Scaled replicas of the dissertation's experimental datasets.

Real accessions (SRX000429 etc.) are unavailable offline, and
megabase genomes are out of reach for a pure-Python corrector at bench
cadence, so every dataset is reproduced at reduced scale with the same
*structure*: read length, relative coverage, error rate, repeat
content and (for Chapter 4) read-length spread all follow the paper's
tables.  A global ``scale`` knob lets callers trade fidelity for time.

- :func:`chapter2_datasets` — D1–D6 of Table 2.1 (E. coli- and
  A. sp.-like genomes, 36/47/101 bp reads, 40–193x, 0.6–3.3% error);
- :func:`chapter3_datasets` — D1–D6 of Table 3.1 (synthetic genomes
  with 20/50/80% repeats, repeat-rich and low-repeat references);
- :func:`chapter4_samples` — small/medium/large 16S pools of
  Table 4.1 (167–894 bp reads, ~375 bp average).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simulate.errors import ErrorModel, illumina_like_model
from ..simulate.genome import Genome, random_genome, repeat_spec, simulate_genome
from ..simulate.illumina import SimulatedReads, inject_ambiguous, simulate_reads
from ..simulate.metagenome import (
    MetagenomeSample,
    TaxonomySpec,
    simulate_metagenome,
    simulate_taxonomy,
)


@dataclass
class Chapter2Dataset:
    """One D1–D6 analogue with its paper-mirroring metadata."""

    name: str
    sim: SimulatedReads
    read_length: int
    coverage: float
    error_rate: float
    read_model: ErrorModel
    has_ambiguous: bool = False
    #: Reads corrupted beyond mapping (library artifacts): the paper's
    #: unmapped tail, excluded from truth-based scoring just as RMAP
    #: evaluation only scores uniquely mapped reads.
    junk_mask: np.ndarray | None = None

    def evaluable_mask(self) -> np.ndarray:
        """Reads whose errors the paper's evaluation could observe."""
        mask = ~self.sim.reads.has_ambiguous()
        if self.junk_mask is not None:
            mask &= ~self.junk_mask
        return mask


#: (read length, coverage, error rate, genome tag, N-read fraction,
#: junk-read fraction).  The N fractions follow each dataset's
#: discarded-read share in Table 2.1 (D6 discarded 1.44M of 8.9M,
#: ~14%); the junk fractions follow Table 2.2's unmapped tails (D1/D2
#: ~1%, D3/D4 ~15-19%, D5/D6 ~30-36%).
CH2_SPECS = {
    "D1": (36, 160.0, 0.006, "ecoli", 0.005, 0.01),
    "D2": (36, 80.0, 0.006, "ecoli", 0.005, 0.01),
    "D3": (36, 173.0, 0.015, "asp", 0.025, 0.17),
    "D4": (36, 40.0, 0.015, "asp", 0.0, 0.14),
    "D5": (47, 71.0, 0.033, "ecoli", 0.005, 0.35),
    "D6": (101, 193.0, 0.022, "ecoli", 0.14, 0.30),
}


def chapter2_genomes(
    scale: int = 10_000, seed: int = 100
) -> dict[str, Genome]:
    """The two reference genomes of Table 2.1 at reduced scale.

    E. coli (4.64 Mbp) : A. sp. ADP1 (3.6 Mbp) ≈ 1 : 0.78.
    """
    rng = np.random.default_rng(seed)
    # Both references are 'low-repetitive' bacterial genomes, but not
    # repeat-free: a few percent of repeats produces the small
    # ambiguously-mapped fraction of Table 2.2 (1.2-2.5%).
    return {
        "ecoli": simulate_genome(repeat_spec(scale, 0.03, unit_length=200), rng),
        "asp": simulate_genome(
            repeat_spec(int(scale * 0.78), 0.03, unit_length=200), rng
        ),
    }


def chapter2_datasets(
    names: list[str] | None = None,
    scale: int = 10_000,
    coverage_scale: float = 1.0,
    seed: int = 100,
) -> dict[str, Chapter2Dataset]:
    """Build the requested Table 2.1 analogues."""
    if names is None:
        names = list(CH2_SPECS)
    genomes = chapter2_genomes(scale=scale, seed=seed)
    out: dict[str, Chapter2Dataset] = {}
    for i, name in enumerate(names):
        length, cov, err, gtag, n_fraction, junk_fraction = CH2_SPECS[name]
        model = illumina_like_model(
            length, base_rate=err * 0.55, end_multiplier=4.0
        )
        rng = np.random.default_rng(seed + 17 * (i + 1))
        sim = simulate_reads(
            genomes[gtag],
            length,
            model,
            rng,
            coverage=cov * coverage_scale,
        )
        junk_mask = np.zeros(sim.n_reads, dtype=bool)
        if junk_fraction > 0:
            junk_mask = rng.random(sim.n_reads) < junk_fraction
            _corrupt_reads(sim, junk_mask, rng)
        if n_fraction > 0:
            sim = inject_ambiguous(
                sim, rng, read_fraction=n_fraction, per_read_rate=0.03
            )
        out[name] = Chapter2Dataset(
            name=name,
            sim=sim,
            read_length=length,
            coverage=cov * coverage_scale,
            error_rate=err,
            read_model=model,
            has_ambiguous=n_fraction > 0,
            junk_mask=junk_mask,
        )
    return out


def _corrupt_reads(
    sim: SimulatedReads,
    mask: np.ndarray,
    rng: np.random.Generator,
    extra_error_rate: float = 0.35,
) -> None:
    """Corrupt a subset of reads beyond mappability, in place.

    Models the library artifacts (adapter read-through, optical
    garbage) behind the unmapped tails of Table 2.2: heavy random
    substitutions plus collapsed quality scores.
    """
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        return
    codes = sim.reads.codes[rows]
    hit = rng.random(codes.shape) < extra_error_rate
    shift = rng.integers(1, 4, size=int(hit.sum()))
    codes[hit] = (codes[hit] + shift) % 4
    sim.reads.codes[rows] = codes
    if sim.reads.quals is not None:
        n, L = codes.shape
        sim.reads.quals[rows] = rng.integers(2, 22, size=(n, L))


@dataclass
class Chapter3Dataset:
    """One Table 3.1 analogue: genome with controlled repeat content."""

    name: str
    sim: SimulatedReads
    repeat_fraction: float
    read_model: ErrorModel


#: (genome scale multiplier, repeat fraction, coverage)
_CH3_SPECS = {
    "D1": (1.0, 0.2, 80.0),
    "D2": (1.0, 0.5, 80.0),
    "D3": (1.0, 0.8, 80.0),
    "D4": (2.0, 0.35, 80.0),   # N. meningitidis-like: repeat-rich viral
    "D5": (0.4, 0.8, 80.0),    # maize-contig-like: very repetitive
    "D6": (4.0, 0.0, 160.0),   # E. coli-like: low repeats, deep coverage
}


def chapter3_datasets(
    names: list[str] | None = None,
    scale: int = 50_000,
    read_length: int = 36,
    seed: int = 300,
) -> dict[str, Chapter3Dataset]:
    """Build the requested Table 3.1 analogues.

    Reads are simulated with a position-specific Illumina-like model —
    the role of the matrices estimated from SRX000429 in Sec. 3.4.1.
    """
    if names is None:
        names = list(_CH3_SPECS)
    out: dict[str, Chapter3Dataset] = {}
    model = illumina_like_model(
        read_length, base_rate=0.008, end_multiplier=3.0
    )
    for i, name in enumerate(names):
        mult, frac, cov = _CH3_SPECS[name]
        length = int(scale * mult)
        rng = np.random.default_rng(seed + 31 * (i + 1))
        if frac > 0:
            # Short units at high multiplicity (the paper's repeats
            # carry multiplicities of 100-400): erroneous k-mers near
            # repeats then reach moderate observed frequencies, which
            # is exactly the regime REDEEM is built for.
            g = simulate_genome(
                repeat_spec(length, frac, unit_length=150), rng
            )
        else:
            g = random_genome(length, rng)
        sim = simulate_reads(
            g, read_length, model, np.random.default_rng(seed + 997 * (i + 1)),
            coverage=cov,
        )
        out[name] = Chapter3Dataset(
            name=name, sim=sim, repeat_fraction=frac, read_model=model
        )
    return out


#: The thesis's wrong-lab error distribution: same platform, different
#: biases (plays the role of the A. sp. ADP1-derived wIED).
def wrong_illumina_model(read_length: int, seed: int = 77) -> ErrorModel:
    return illumina_like_model(
        read_length,
        base_rate=0.012,
        end_multiplier=2.0,
        rng=np.random.default_rng(seed),
        bias_jitter=0.8,
    )


def chapter4_samples(
    sizes: list[str] | None = None,
    base_reads: int = 1000,
    seed: int = 400,
) -> dict[str, MetagenomeSample]:
    """Small/medium/large 16S pools (Table 4.1 had 0.31M/1.7M/5.6M
    reads in ratio ~1 : 5.6 : 18; we keep the ratio at reduced scale)."""
    if sizes is None:
        sizes = ["small", "medium", "large"]
    ratios = {"small": 1.0, "medium": 5.6, "large": 18.0}
    spec = TaxonomySpec(
        gene_length=1500,
        branching={"phylum": 3, "family": 3, "genus": 3, "species": 3},
        divergence={
            "phylum": 0.12,
            "family": 0.06,
            "genus": 0.03,
            "species": 0.015,
        },
    )
    tax = simulate_taxonomy(spec, np.random.default_rng(seed))
    out: dict[str, MetagenomeSample] = {}
    for i, size in enumerate(sizes):
        n = int(base_reads * ratios[size])
        out[size] = simulate_metagenome(
            tax,
            n,
            np.random.default_rng(seed + 7 * (i + 1)),
            read_length_mean=375.0,
            read_length_sd=80.0,
            min_length=167,
            max_length=894,
            error_rate=0.01,
        )
    return out
