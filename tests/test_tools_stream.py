"""Tests for the --stream out-of-core path of the correct tool."""

import argparse
import json

import pytest

from repro.tools.common import memory_size
from repro.tools.correct import main as correct_main
from repro.tools.simulate import main as simulate_main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("stream-cli")
    rc = simulate_main(
        [
            str(out),
            "--genome-length", "4000",
            "--coverage", "14",
            "--seed", "11",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def mem_output(dataset_dir, tmp_path_factory):
    """Reference: the in-memory correction of the shared dataset."""
    out = tmp_path_factory.mktemp("stream-ref") / "mem.fastq"
    rc = correct_main(
        [str(dataset_dir / "reads.fastq"), str(out), "--chunk-size", "200"]
    )
    assert rc == 0
    return out.read_bytes()


def _stream(dataset_dir, out_path, *extra):
    return correct_main(
        [
            str(dataset_dir / "reads.fastq"),
            str(out_path),
            "--stream",
            "--chunk-size", "200",
            *extra,
        ]
    )


def test_stream_matches_in_memory(dataset_dir, tmp_path, mem_output):
    out = tmp_path / "stream.fastq"
    assert _stream(dataset_dir, out) == 0
    assert out.read_bytes() == mem_output


def test_stream_with_spill_matches_in_memory(dataset_dir, tmp_path, mem_output):
    out = tmp_path / "spill.fastq"
    assert _stream(
        dataset_dir, out,
        "--max-memory", "4096", "--tmp-dir", str(tmp_path / "spill"),
    ) == 0
    assert out.read_bytes() == mem_output


def test_stream_workers_matches_in_memory(dataset_dir, tmp_path, mem_output):
    out = tmp_path / "w2.fastq"
    assert _stream(dataset_dir, out, "--workers", "2") == 0
    assert out.read_bytes() == mem_output


def test_stream_k_override_matches_in_memory(dataset_dir, tmp_path):
    """--k goes through select-then-replace; both paths must agree."""
    mem = tmp_path / "mem-k.fastq"
    rc = correct_main(
        [
            str(dataset_dir / "reads.fastq"), str(mem),
            "--k", "10", "--chunk-size", "200",
        ]
    )
    assert rc == 0
    out = tmp_path / "stream-k.fastq"
    assert _stream(dataset_dir, out, "--k", "10") == 0
    assert out.read_bytes() == mem.read_bytes()


def test_stream_report_gauges(dataset_dir, tmp_path, mem_output):
    out = tmp_path / "rep.fastq"
    report = tmp_path / "run.json"
    assert _stream(
        dataset_dir, out,
        "--max-memory", "4096", "--report", str(report),
    ) == 0
    assert out.read_bytes() == mem_output
    doc = json.loads(report.read_text())
    assert doc["schema"] == "repro-run-report/1"
    gauges = doc["gauges"]
    for key in (
        "reads_input",
        "spill_bytes",
        "counting_peak_bytes",
        "bases_changed",
        "peak_rss_bytes",
    ):
        assert key in gauges, key
    assert gauges["spill_bytes"] > 0  # the 4 KiB budget forces spills
    assert gauges["peak_rss_bytes"] > 0
    counters = doc["counters"]
    assert counters["stream_blocks"] >= 1
    assert counters["stream_reads"] == gauges["reads_input"]


def test_max_memory_implies_stream(dataset_dir, tmp_path, mem_output):
    out = tmp_path / "implied.fastq"
    rc = correct_main(
        [
            str(dataset_dir / "reads.fastq"), str(out),
            "--max-memory", "8K", "--chunk-size", "200",
        ]
    )
    assert rc == 0
    assert out.read_bytes() == mem_output


@pytest.mark.parametrize(
    "extra",
    [
        ("--method", "redeem"),
        ("--truth", "SENTINEL"),
    ],
)
def test_stream_rejects_unsupported_flags(dataset_dir, tmp_path, extra):
    extra = [
        str(dataset_dir / "truth.fastq") if a == "SENTINEL" else a
        for a in extra
    ]
    with pytest.raises(SystemExit):
        correct_main(
            [
                str(dataset_dir / "reads.fastq"),
                str(tmp_path / "x.fastq"),
                "--stream",
                *extra,
            ]
        )


def test_memory_size_parsing():
    assert memory_size("8192") == 8192
    assert memory_size("64K") == 64 << 10
    assert memory_size("8M") == 8 << 20
    assert memory_size("2g") == 2 << 30
    assert memory_size(" 16kb ") == 16 << 10
    assert memory_size("1.5M") == int(1.5 * (1 << 20))
    for bad in ("nope", "12Q", "", "100"):  # 100 < 4096 floor
        with pytest.raises(argparse.ArgumentTypeError):
            memory_size(bad)
