"""Integration tests: ReptileCorrector end to end on simulated data."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.reptile import ReptileCorrector
from repro.eval import evaluate_correction
from repro.simulate import (
    UniformErrorModel,
    illumina_like_model,
    inject_ambiguous,
    random_genome,
    simulate_reads,
)


def rng(seed):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def dataset():
    g = random_genome(12_000, rng(0))
    model = illumina_like_model(36, base_rate=0.004, end_multiplier=4.0)
    return simulate_reads(g, 36, model, rng(1), coverage=50.0)


@pytest.fixture(scope="module")
def corrector(dataset):
    return ReptileCorrector.fit(
        dataset.reads, genome_length_estimate=12_000, k=9
    )


def test_fit_builds_structures(corrector):
    assert corrector.spectrum.n_kmers > 0
    assert corrector.tiles.n_tiles > 0
    assert corrector.params.k == 9
    assert corrector.memory_estimate_bytes() > 0


def test_correction_positive_gain(dataset, corrector):
    result = corrector.run(dataset.reads)
    m = evaluate_correction(
        dataset.reads.codes, result.reads.codes, dataset.true_codes
    )
    assert m.gain > 0.5, m.as_dict()
    assert m.specificity > 0.995
    assert m.eba < 0.1
    assert result.stats.tiles_examined > 0
    assert result.stats.tiles_corrected > 0


def test_correction_does_not_mutate_input(dataset, corrector):
    before = dataset.reads.codes.copy()
    corrector.correct(dataset.reads)
    assert (dataset.reads.codes == before).all()


def test_flexible_beats_fixed_tiling(dataset):
    flexible = ReptileCorrector.fit(dataset.reads, k=9, flexible_tiling=True)
    fixed = ReptileCorrector.fit(dataset.reads, k=9, flexible_tiling=False)
    mf = evaluate_correction(
        dataset.reads.codes,
        flexible.correct(dataset.reads).codes,
        dataset.true_codes,
    )
    mx = evaluate_correction(
        dataset.reads.codes,
        fixed.correct(dataset.reads).codes,
        dataset.true_codes,
    )
    assert mf.gain >= mx.gain - 0.02  # flexible should not lose


def test_ambiguous_bases_corrected(dataset):
    sim2 = simulate_reads(
        dataset.genome,
        36,
        UniformErrorModel(36, 0.005),
        rng(7),
        coverage=40.0,
    )
    sim2 = inject_ambiguous(sim2, rng(8), read_fraction=0.1, per_read_rate=0.02)
    c = ReptileCorrector.fit(sim2.reads, k=9)
    result = c.run(sim2.reads)
    assert result.n_ambiguous_converted > 0
    from repro.seq import N_CODE

    n_before = int((sim2.reads.codes == N_CODE).sum())
    n_after = int((result.reads.codes == N_CODE).sum())
    assert n_after < n_before
    # Most resolved Ns should match the truth.
    was_n = sim2.reads.codes == N_CODE
    resolved = was_n & (result.reads.codes != N_CODE)
    acc = (result.reads.codes[resolved] == sim2.true_codes[resolved]).mean()
    assert acc > 0.9


def test_short_reads_passthrough():
    from repro.io import ReadSet

    g = random_genome(2000, rng(10))
    sim = simulate_reads(g, 36, UniformErrorModel(36, 0.01), rng(11), coverage=20.0)
    c = ReptileCorrector.fit(sim.reads, k=9)
    tiny = ReadSet.from_strings(["ACGT"])  # shorter than a tile
    out = c.correct(tiny)
    assert out.sequences() == ["ACGT"]


_D2_RSS_SCRIPT = """
import resource
import numpy as np
from repro.core.reptile import ReptileCorrector, corrector
from repro.simulate import UniformErrorModel, random_genome, simulate_reads

rng = np.random.default_rng(3)
sim = simulate_reads(
    random_genome(3000, rng), 36, UniformErrorModel(36, 0.02), rng,
    coverage=30.0,
)
c = ReptileCorrector.fit(sim.reads, k=8, d=2)
some = sim.reads.subset(np.arange(80))
out = c.correct(some)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
# Slab boundaries are invisible: many more, much smaller slabs (with a
# cold memo) decide every tile the same way.
corrector.MAX_RULE_PAIRS = 1 << 14
few = np.arange(16)
again = ReptileCorrector(c.params, c.spectrum, c.tiles).correct(some.subset(few))
assert (again.codes == out.codes[few]).all()
"""


def test_d2_rule_precompute_is_memory_bounded(tmp_path):
    """Dense small-k spectrum at d = 2: 80 reads ask for 7.2 M candidate
    constituent pairs.  Enumerated in one piece that peaked at 2.6 GB
    (and is what OOM-killed Table 2.3); in ``MAX_RULE_PAIRS`` slabs it
    stays under 0.6 GB."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _D2_RSS_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split()[0])
    assert peak_mb < 1024, f"peak RSS {peak_mb} MiB"
