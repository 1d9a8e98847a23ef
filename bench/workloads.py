"""The seven workloads and the untraced (end-to-end) run of the CLI ones.

Names and one-line reasons live in ``BENCHMARK.json``; this module holds
what each name *does*: which corpus ``repro simulate`` generates and
which ``repro correct`` flags the timed operation adds.  ``served_jobs``
is driven from :mod:`served`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from harness import (
    BenchError,
    Corpus,
    ProcResult,
    child_env,
    median,
    percentile,
    reference_run,
    repro_argv,
    run_process,
    sha256_file,
    simulate,
    spread,
)


def _sim(genome: int, coverage: int, read_len: int, err: float,
         repeat: float = 0.0) -> list[str]:
    args = [
        "--genome-length", str(genome),
        "--coverage", str(coverage),
        "--read-length", str(read_len),
        "--error-rate", str(err),
    ]
    if repeat:
        args += ["--repeat-fraction", str(repeat)]
    return args


# Corpus sizes.  ``full`` is the issue's corpus set scaled so that the
# driver's 4 + 22 x 7 runs fit its time cap (one invocation = set-up +
# >= 3 timed operations in ~15 s on 2 cores); genome lengths are also
# chosen so the k-mer and tile counts sit mid-way between two
# power-of-two Bloom-prefilter sizes for every seed (near a boundary the
# filter's hash count flips between 7 and 13 from seed to seed and
# ``repro correct`` wall time with it).  ``smoke`` only proves the
# plumbing.
CORPORA: dict[str, dict[str, list[str]]] = {
    "full": {
        "lowrep": _sim(6750, 40, 36, 0.008),
        "clean_long": _sim(11000, 40, 101, 0.001),
        "noisy_repeat": _sim(2950, 40, 36, 0.03, repeat=0.5),
        "job": _sim(1330, 30, 36, 0.008),
    },
    "smoke": {
        "lowrep": _sim(2000, 40, 36, 0.008),
        "clean_long": _sim(2500, 40, 101, 0.001),
        "noisy_repeat": _sim(1000, 40, 36, 0.03, repeat=0.5),
        "job": _sim(500, 30, 36, 0.008),
    },
}


@dataclass(frozen=True)
class CliWorkload:
    name: str
    corpus: str
    #: Flags the timed ``repro correct in out`` adds to the reference command.
    flags: tuple[str, ...] = ()
    #: The layer only this workload runs ("streaming", "parallel" or
    #: "distributed"); the traced run measures it on top of the shared ones.
    extra_layer: str | None = None


CLI_WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("lowrep_inmem", "lowrep"),
        CliWorkload("clean_long", "clean_long"),
        CliWorkload("noisy_repeat", "noisy_repeat"),
        CliWorkload("lowrep_stream", "lowrep",
                    ("--stream", "--max-memory", "2M"), "streaming"),
        CliWorkload("lowrep_fork2", "lowrep", ("--workers", "2"), "parallel"),
        CliWorkload("socket_sharded", "lowrep",
                    ("--workers", "2", "--backend", "socket",
                     "--shards", "4"), "distributed"),
    )
}
SERVED = "served_jobs"
#: Interquartile distance over median above which a run's timed
#: operations are taken to disagree.
NOISY_OPS_SPREAD = 0.05
ALL_WORKLOADS = (*CLI_WORKLOADS, SERVED)


@dataclass
class Operation:
    """One timed FASTQ-in → FASTQ-out request and what checking it found."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output: Path
    sha256: str | None
    error: str | None

    @property
    def failed(self) -> bool:
        return self.error is not None


def checked_cli_op(
    corpus: Corpus, out: Path, proc: ProcResult
) -> Operation:
    """Classify a finished ``repro correct`` run.  Hashing happens here,
    after the process has exited, so it is outside the timed window."""
    sha = None
    if proc.timed_out:
        error = "timeout"
    elif proc.returncode != 0:
        error = f"exit {proc.returncode}"
    elif not out.is_file():
        error = "no output"
    else:
        sha = sha256_file(out)
        error = (
            None if sha == corpus.reference_sha256
            else "output differs from the serial in-memory reference"
        )
    return Operation(
        proc.wall_s, proc.cpu_s, proc.peak_rss_mb, out, sha, error
    )


def correct_argv(
    workload: CliWorkload, corpus: Corpus, out: Path, *extra: str
) -> list[str]:
    return repro_argv(
        "correct", str(corpus.reads), str(out), *workload.flags, *extra
    )


def run_cli_workload(
    workload: CliWorkload,
    seed: int,
    seconds: float,
    repeats: int,
    scale: str,
    work: Path,
) -> dict:
    """Untraced run: set-up, then ``repro correct`` as a user would spell
    it, at least ``repeats`` times and for as long as another run fits
    into ``seconds``.  No ``--report`` or other telemetry flag is passed."""
    env = child_env(work / "tmp")
    t_setup = time.perf_counter()
    corpus = simulate(work, workload.corpus, CORPORA[scale][workload.corpus],
                      seed, env)
    reference_run(corpus, work, env)
    setup_s = time.perf_counter() - t_setup

    ops: list[Operation] = []
    while _keep_measuring([op.wall_s for op in ops], repeats, seconds):
        out = work / f"out-{len(ops)}.fastq"
        proc = run_process(
            correct_argv(workload, corpus, out), env, work / "ops.log"
        )
        ops.append(checked_cli_op(corpus, out, proc))
    good = [op for op in ops if not op.failed]
    if not good:
        raise BenchError(
            f"{workload.name}: every operation failed "
            f"({ops[-1].error}); see {work / 'ops.log'}"
        )
    walls = [op.wall_s for op in good]
    rates = [corpus.n_reads / w for w in walls]
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "errors": sorted({op.error for op in ops if op.failed}),
        "corpora": [corpus.describe()],
        "samples": {"job_latency_s": len(walls)},
        "end_to_end": {
            "reads_per_s": (median(rates), rates),
            "peak_rss_mb": _med([op.peak_rss_mb for op in good]),
            "cpu_s": _med([op.cpu_s for op in good]),
            "gain": (corpus.gain(good[-1].output, good[-1].sha256), []),
            "jobs_per_s": (len(good) / sum(walls), [1.0 / w for w in walls]),
            "job_latency_p50_s": (median(walls), walls),
            "job_latency_p90_s": (percentile(walls, 0.9), walls),
            "setup_s": (setup_s, [setup_s]),
        },
    }


def _keep_measuring(walls: list[float], repeats: int, seconds: float) -> bool:
    """At least ``repeats`` operations, then as many as fit into
    ``seconds``; a run whose operations disagree keeps going (to at most
    ``2 * repeats + 1``) so its median does not hinge on one of them.
    ``lowrep_fork2`` needs this: with four chunks, whether the second
    worker gets a share is a race and its wall is bimodal."""
    if len(walls) < repeats or sum(walls) + walls[-1] <= seconds:
        return True
    return spread(walls) > NOISY_OPS_SPREAD and len(walls) < 2 * repeats + 1


def _med(values: list[float]) -> tuple[float, list[float]]:
    return median(values), values
