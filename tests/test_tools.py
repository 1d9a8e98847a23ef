"""Tests for the command-line tools (in-process main() invocation)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.tools.assemble import main as assemble_main
from repro.tools.cluster import main as cluster_main
from repro.tools.correct import main as correct_main
from repro.tools.simulate import main as simulate_main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    rc = simulate_main(
        [
            str(out),
            "--genome-length", "5000",
            "--coverage", "35",
            "--seed", "5",
        ]
    )
    assert rc == 0
    return out


def test_simulate_outputs(dataset_dir):
    assert (dataset_dir / "genome.fasta").exists()
    assert (dataset_dir / "reads.fastq").exists()
    assert (dataset_dir / "truth.fastq").exists()
    from repro.io import read_fastq

    reads = read_fastq(dataset_dir / "reads.fastq")
    truth = read_fastq(dataset_dir / "truth.fastq")
    assert reads.n_reads == truth.n_reads
    # There are actual simulated errors between reads and truth.
    assert (reads.codes != truth.codes).any()


@pytest.mark.parametrize("method", ["reptile", "sap"])
def test_correct_tool(dataset_dir, tmp_path, method, capsys):
    out = tmp_path / f"{method}.fastq"
    rc = correct_main(
        [
            str(dataset_dir / "reads.fastq"),
            str(out),
            "--method", method,
            "--genome-length", "5000",
            "--truth", str(dataset_dir / "truth.fastq"),
        ]
    )
    assert rc == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "gain=" in captured
    gain = float(captured.split("gain=")[1].split()[0])
    assert gain > 0.3


def test_correct_tool_hybrid(dataset_dir, tmp_path):
    out = tmp_path / "hybrid.fastq"
    rc = correct_main(
        [
            str(dataset_dir / "reads.fastq"),
            str(out),
            "--method", "hybrid",
            "--k", "10",
            "--genome-length", "5000",
        ]
    )
    assert rc == 0
    assert out.exists()


def test_reptile_correct_never_imports_scipy(dataset_dir, tmp_path):
    """`repro correct --method reptile` is numpy-only: scipy (REDEEM,
    CLOSET, hybrid) loads when one of those is asked for, not before —
    and the job driver it shares with the serve worker pulls in none of
    the service (store, HTTP front end), in memory or streamed.
    A fresh interpreter, because this test process has them loaded."""
    script = (
        "import sys\n"
        "from repro.tools.correct import main\n"
        "for extra in ([], ['--stream']):\n"
        "    rc = main([sys.argv[1], sys.argv[2], '--method', 'reptile',"
        " '--genome-length', '5000', *extra])\n"
        "    assert rc == 0, rc\n"
        "absent = ('scipy', 'repro.service', 'sqlite3', 'http.server')\n"
        "loaded = sorted(m for m in sys.modules"
        " if m.startswith(absent))\n"
        "assert not loaded, loaded[:5]\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "reptile.fastq"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(dataset_dir / "reads.fastq"), str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_assemble_tool(dataset_dir, tmp_path, capsys):
    out = tmp_path / "contigs.fasta"
    rc = assemble_main(
        [str(dataset_dir / "reads.fastq"), str(out), "--k", "15"]
    )
    assert rc == 0
    from repro.io import parse_fasta

    contigs = list(parse_fasta(out))
    assert len(contigs) > 0
    assert "N50" in capsys.readouterr().out


def test_cluster_tool(tmp_path, capsys):
    # A small metagenome written as FASTQ.
    from repro.io import write_fastq
    from repro.simulate import (
        TaxonomySpec,
        simulate_metagenome,
        simulate_taxonomy,
    )

    spec = TaxonomySpec(
        gene_length=600,
        branching={"phylum": 2, "family": 2, "genus": 1, "species": 2},
    )
    tax = simulate_taxonomy(spec, np.random.default_rng(0))
    sample = simulate_metagenome(
        tax, 120, np.random.default_rng(1), read_length_mean=250,
        read_length_sd=20, min_length=200, max_length=300,
    )
    sample.reads.names = [f"r{i}" for i in range(sample.n_reads)]
    fq = tmp_path / "sample.fastq"
    write_fastq(sample.reads, fq)

    outdir = tmp_path / "clusters"
    rc = cluster_main(
        [str(fq), str(outdir), "--thresholds", "0.6", "--k", "14",
         "--modulus", "8"]
    )
    assert rc == 0
    tsv = outdir / "clusters_t0.6.tsv"
    assert tsv.exists()
    lines = tsv.read_text().strip().splitlines()
    assert lines and all("\t" in ln for ln in lines)
    assert "confirmed=" in capsys.readouterr().out


def test_cluster_tool_fasta_input(tmp_path):
    from repro.io import write_fasta

    fa = tmp_path / "in.fasta"
    seqs = [("a", "ACGTACGTACGTACGTACGTACGT"), ("b", "ACGTACGTACGTACGTACGTACGT")]
    write_fasta(seqs, fa)
    outdir = tmp_path / "c"
    rc = cluster_main(
        [str(fa), str(outdir), "--thresholds", "0.9", "--k", "8",
         "--modulus", "1", "--rounds", "1"]
    )
    assert rc == 0
    tsv = outdir / "clusters_t0.9.tsv"
    body = tsv.read_text()
    assert "a" in body and "b" in body
