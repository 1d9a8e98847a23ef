"""Process, corpus, checking and statistics helpers shared by the workloads.

Nothing here knows a workload's name: it spawns the real entry points as
subprocesses with a per-operation timeout, generates corpora with
``repro simulate``, and checks produced FASTQ against reference digests
and the simulator's truth file.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Per-operation timeout: a CLI run or a simulated corpus that takes
#: longer counts as a failed operation instead of hanging the run.
OP_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """Set-up could not complete; the run exits non-zero with no result."""


def pin_numpy_allocator() -> None:
    """Turn off numpy's ``madvise(MADV_HUGEPAGE)`` for this process tree.

    On the sandbox VMs the benchmark runs on, transparent-huge-page
    faults cost an identical ``repro correct`` run anywhere from 0.2 s
    to 1.7 s of system time at random (user time stays within 2 %), a
    spread four times any bound in BENCHMARK.json.  With the hint off
    the same run repeats within 3 %.  It is set for the harness and for
    every process it spawns, on both sides of any comparison, and is
    recorded in the machine fingerprint.
    """
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def child_env(tmp: Path) -> dict[str, str]:
    """Environment of every spawned entry point: the checkout's ``src``
    on the import path and all temp files inside the work directory."""
    env = os.environ.copy()
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else [])
    )
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


def fingerprint() -> dict:
    """What a reader needs to know before comparing two result files."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }


# -- subprocesses -------------------------------------------------------------
@dataclass
class ProcResult:
    argv: list[str]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def kill_group(pgid: int, grace_s: float = 3.0) -> None:
    """terminate → kill a process group, ignoring one already gone."""
    try:
        os.killpg(pgid, signal.SIGTERM)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def rusage_cpu_rss(ru) -> tuple[float, float]:
    """(user+sys seconds, peak RSS in MiB) of a ``wait4`` rusage, which
    on Linux covers the child and every descendant it waited for."""
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def run_process(
    argv: list[str],
    env: dict[str, str],
    log: Path,
    timeout: float = OP_TIMEOUT_S,
) -> ProcResult:
    """Run one entry point to completion in its own process group.

    Wall time is spawn → exit as seen by ``wait4``.  A timeout tears
    the whole group down (so a CLI's socket workers go with it) and is
    reported, never raised: the caller counts it as a failed operation.
    """
    timed_out = threading.Event()
    with open(log, "ab") as sink:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            env=env,
            cwd=str(ROOT),
            stdin=subprocess.DEVNULL,
            stdout=sink,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )

        def expire() -> None:
            timed_out.set()
            kill_group(proc.pid)

        timer = threading.Timer(timeout, expire)
        timer.daemon = True
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            kill_group(proc.pid, grace_s=0.5)
            try:
                os.waitpid(proc.pid, 0)
            except ChildProcessError:
                pass
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Anything the entry point left behind in its group (orphaned
        # workers of a crashed parent) goes now.
        kill_group(proc.pid, grace_s=0.5)
    cpu, rss = rusage_cpu_rss(ru)
    return ProcResult(
        argv=argv,
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=rss,
        returncode=proc.returncode,
        timed_out=timed_out.is_set(),
    )


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


# -- corpora and checks -------------------------------------------------------
def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Corpus:
    """One simulated dataset: the program under test only sees ``reads``."""

    label: str
    seed: int
    sim_args: list[str]
    reads: Path
    truth: Path
    n_reads: int
    digests: dict[str, str]
    #: sha256 of the serial in-memory ``repro correct`` output.
    reference_sha256: str = ""
    _gain_by_sha: dict[str, float] = field(default_factory=dict, repr=False)
    _codes: tuple | None = field(default=None, repr=False)

    def describe(self) -> dict:
        return {
            "label": self.label,
            "seed": self.seed,
            "simulate_args": self.sim_args,
            "n_reads": self.n_reads,
            "digests": self.digests,
            "reference_sha256": self.reference_sha256,
        }

    def gain(self, output: Path, sha: str) -> float:
        """``evaluate_correction(...).gain`` of a produced FASTQ against
        the simulator's truth, computed once per distinct output."""
        if sha not in self._gain_by_sha:
            from repro.eval.correction import evaluate_correction
            from repro.io.fastq import read_fastq

            if self._codes is None:
                observed = read_fastq(self.reads)
                self._codes = (
                    observed.codes,
                    read_fastq(self.truth).codes,
                    observed.lengths,
                )
            observed_codes, truth_codes, lengths = self._codes
            corrected = read_fastq(output)
            self._gain_by_sha[sha] = float(
                evaluate_correction(
                    observed_codes, corrected.codes, truth_codes,
                    lengths=lengths,
                ).gain
            )
        return self._gain_by_sha[sha]


def simulate(
    work: Path, label: str, sim_args: list[str], seed: int, env: dict[str, str]
) -> Corpus:
    """Generate a corpus from ``seed`` with ``repro simulate``."""
    outdir = work / f"corpus-{label}"
    res = run_process(
        repro_argv("simulate", str(outdir), *sim_args, "--seed", str(seed)),
        env,
        work / "setup.log",
    )
    if not res.ok:
        raise BenchError(
            f"repro simulate failed for {label} (exit {res.returncode}, "
            f"timed_out={res.timed_out}); see {work / 'setup.log'}"
        )
    reads, truth = outdir / "reads.fastq", outdir / "truth.fastq"
    with open(reads, "rb") as fh:
        n_reads = sum(1 for _ in fh) // 4
    return Corpus(
        label=label,
        seed=seed,
        sim_args=sim_args,
        reads=reads,
        truth=truth,
        n_reads=n_reads,
        digests={
            "reads.fastq": sha256_file(reads),
            "truth.fastq": sha256_file(truth),
        },
    )


def reference_run(corpus: Corpus, work: Path, env: dict[str, str]) -> ProcResult:
    """Serial in-memory ``repro correct``: the bytes every other
    execution path has to reproduce for this corpus."""
    out = work / f"reference-{corpus.label}.fastq"
    res = run_process(
        repro_argv("correct", str(corpus.reads), str(out)),
        env,
        work / "setup.log",
    )
    if not res.ok:
        raise BenchError(
            f"reference run failed for {corpus.label} "
            f"(exit {res.returncode}, timed_out={res.timed_out})"
        )
    corpus.reference_sha256 = sha256_file(out)
    return res


# -- statistics ---------------------------------------------------------------
def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the sample at rank ``ceil(q * n)``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
