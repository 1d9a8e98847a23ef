"""The formal Corrector API: protocols, the build registry, chunked
defaults from the mixin, and the unified ``repro`` CLI dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import (
    ChunkedCorrector,
    ChunkedCorrectorMixin,
    Corrector,
    available_methods,
    build_corrector,
    register_corrector,
    supports_chunking,
)
from repro.simulate.errors import illumina_like_model
from repro.simulate.genome import repeat_spec, simulate_genome
from repro.simulate.illumina import simulate_reads


@pytest.fixture(scope="module")
def tiny_reads():
    rng = np.random.default_rng(42)
    genome = simulate_genome(repeat_spec(800, 0.0), rng)
    model = illumina_like_model(30, base_rate=0.01, end_multiplier=4.0)
    return simulate_reads(genome, 30, model, rng, coverage=8.0).reads


def test_registry_lists_all_methods():
    assert available_methods() == ["hybrid", "redeem", "reptile", "sap", "shrec"]


@pytest.mark.parametrize("method", ["reptile", "redeem", "shrec", "sap"])
def test_build_corrector_returns_chunk_capable_protocol(tiny_reads, method):
    c = build_corrector(method, tiny_reads, k=10, genome_length=800)
    assert isinstance(c, Corrector)
    assert isinstance(c, ChunkedCorrector)
    assert supports_chunking(c)


def test_build_hybrid_is_corrector_but_not_chunked(tiny_reads):
    c = build_corrector("hybrid", tiny_reads, k=10)
    assert isinstance(c, Corrector)
    # Hybrid's Reptile stage refits on stage-1 output: chunking would
    # change its results, so it must NOT advertise the chunked API.
    assert not supports_chunking(c)


def test_library_fits_attach_the_prefilter_like_the_cli(tiny_reads):
    """Every entry point builds the same structures: a library or
    served REDEEM/hybrid fit carries the Bloom prefilter exactly as
    ``repro correct --method redeem|hybrid`` does."""
    redeem = build_corrector("redeem", tiny_reads, k=10)
    assert redeem.spectrum.prefilter is not None
    hybrid = build_corrector("hybrid", tiny_reads, k=10)
    assert hybrid.redeem.spectrum.prefilter is not None


def test_build_corrector_unknown_method(tiny_reads):
    with pytest.raises(ValueError, match="unknown correction method"):
        build_corrector("nope", tiny_reads)


def test_register_corrector_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        @register_corrector("reptile")
        def _dup(reads, k=None, genome_length=None):  # pragma: no cover
            raise AssertionError


@pytest.mark.parametrize("method", ["shrec", "sap"])
def test_mixin_chunk_equals_whole_set(tiny_reads, method):
    """Baselines get the chunked API from the mixin; chunked correction
    must match whole-set correction bitwise."""
    c = build_corrector(method, tiny_reads, k=10, genome_length=800)
    whole = c.correct(tiny_reads)
    chunked, stats = c.correct_chunk(tiny_reads)
    assert np.array_equal(chunked.codes, whole.codes)
    assert stats["bases_changed"] == int(
        (whole.codes != tiny_reads.codes).sum()
    )


@pytest.mark.parametrize("method", ["shrec", "sap"])
def test_mixin_correct_read(tiny_reads, method):
    c = build_corrector(method, tiny_reads, k=10, genome_length=800)
    whole = c.correct(tiny_reads)
    for idx in (0, 3, tiny_reads.n_reads - 1):
        row = c.correct_read(tiny_reads, idx)
        assert np.array_equal(row, whole.codes[idx])


@pytest.mark.parametrize("method", ["shrec", "sap"])
def test_mixin_correct_parallel_serial_path(tiny_reads, method):
    c = build_corrector(method, tiny_reads, k=10, genome_length=800)
    report = c.correct_parallel(tiny_reads, workers=1, chunk_size=40)
    assert report.mode == "serial"
    assert np.array_equal(report.reads.codes, c.correct(tiny_reads).codes)


def test_mixin_requires_correct():
    class NoCorrect(ChunkedCorrectorMixin):
        pass

    assert not isinstance(NoCorrect(), Corrector)


# -- unified CLI dispatch -----------------------------------------------------
def test_repro_cli_usage_and_errors(capsys):
    from repro.__main__ import main

    assert main([]) == 2
    assert "usage: python -m repro" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "correct" in capsys.readouterr().out
    assert main(["definitely-not-a-command"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_repro_cli_version(capsys):
    from repro import __version__
    from repro.__main__ import main

    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_repro_cli_dispatches_to_tool(tmp_path, capsys):
    from repro.__main__ import main

    rc = main(
        ["simulate", str(tmp_path / "d"), "--genome-length", "400",
         "--coverage", "3"]
    )
    assert rc == 0
    assert (tmp_path / "d" / "reads.fastq").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--workers", "0"],
        ["--workers", "-2"],
        ["--workers", "two"],
        ["--chunk-size", "0"],
        ["--chunk-size", "-1"],
        ["--shards", "4"],
    ],
)
def test_correct_rejects_invalid_parallel_flags(tmp_path, capsys, flags):
    """Satellite bugfix: --workers / --chunk-size / --shards are
    validated at the argparse layer with a clear message (exit 2 and
    the usage line), not deep in the engine."""
    from repro.tools.correct import main

    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / "in.fastq"), str(tmp_path / "out.fastq"), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert (
        "--shards requires --backend socket" if "--shards" in flags
        else "expected an integer"
    ) in err


def test_cluster_rejects_invalid_workers(tmp_path, capsys):
    from repro.tools.cluster import main

    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / "in.fastq"), str(tmp_path / "out"),
              "--workers", "0"])
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err
