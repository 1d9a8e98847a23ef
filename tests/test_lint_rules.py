"""Per-rule fixtures for the ``repro lint`` rule packs.

Contract for every shipped rule: one positive fixture the rule fires
on, one negative fixture it stays quiet on, and the positive fixture
silenced by a ``# repro: noqa[RULE]`` suppression.  The fixtures here
are the executable rule catalog — a rule whose hazard can no longer
be written down does not belong in the packs.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import all_rules, get_rule, lint_source


#: Package-scoped rules only fire under specific paths; everything else
#: uses the neutral default.
FIXTURE_PATHS: dict[str, str] = {
    "REP204": "src/repro/tools/fake_tool.py",
    "REP603": "src/repro/core/fake_mod.py",
}
_DEFAULT_PATH = "src/repro/fake/mod.py"


def _fixture_path(rule_id: str) -> str:
    return FIXTURE_PATHS.get(rule_id, _DEFAULT_PATH)


def _lint(rule_id: str, source: str):
    """Run exactly one rule over dedented source; return findings."""
    result = lint_source(
        textwrap.dedent(source), path=_fixture_path(rule_id),
        rules=[get_rule(rule_id)],
    )
    assert not result.errors, result.errors
    return result.findings


#: rule id -> (positive fixture, negative fixture).  The positive MUST
#: produce >= 1 finding of that rule; the negative must produce none.
FIXTURES: dict[str, tuple[str, str]] = {
    "REP101": (
        """
        import random

        def jitter():
            return random.random()
        """,
        """
        from random import Random

        def jitter(seed):
            return Random(seed).random()
        """,
    ),
    "REP102": (
        """
        import numpy as np

        def sample(n):
            return np.random.rand(n)
        """,
        """
        import numpy as np

        def sample(n, seed):
            return np.random.default_rng(seed).random(n)
        """,
    ),
    "REP103": (
        """
        import time

        def stamp():
            return time.time()
        """,
        """
        import time

        def pause():
            time.sleep(0.1)
        """,
    ),
    "REP104": (
        """
        def emit(kmers):
            return list(set(kmers))
        """,
        """
        def emit(kmers):
            return sorted(set(kmers))
        """,
    ),
    "REP201": (
        """
        def read(path):
            fh = open(path)
            return fh.read()
        """,
        """
        def read(path):
            with open(path) as fh:
                return fh.read()
        """,
    ),
    "REP202": (
        """
        import tempfile

        def spill():
            fd, path = tempfile.mkstemp()
            return path
        """,
        """
        import os
        import tempfile

        def spill():
            fd, path = tempfile.mkstemp()
            try:
                return transform(path)
            finally:
                os.remove(path)
        """,
    ),
    "REP204": (
        """
        def emit(records, out_path):
            with open(out_path, "wt") as fh:
                for record in records:
                    fh.write(record)
        """,
        """
        from repro.io.atomic import atomic_writer

        def emit(records, out_path):
            with atomic_writer(out_path, "wt") as fh:
                for record in records:
                    fh.write(record)
        """,
    ),
    "REP203": (
        """
        from multiprocessing import shared_memory

        def back(nbytes):
            seg = shared_memory.SharedMemory(create=True, size=nbytes)
            return seg
        """,
        """
        from multiprocessing import shared_memory

        class Handle:
            def __init__(self, nbytes):
                self.seg = shared_memory.SharedMemory(create=True, size=nbytes)

            def close(self):
                self.seg.close()
                self.seg.unlink()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()
        """,
    ),
    "REP301": (
        """
        _STATE = None

        def install(value):
            global _STATE
            _STATE = value
        """,
        """
        _STATE = None

        def read_only():
            return _STATE
        """,
    ),
    "REP302": (
        """
        def run(pool, items):
            return pool.submit(lambda x: x + 1, items)
        """,
        """
        def _work(x):
            return x + 1

        def run(pool, items):
            return pool.submit(_work, items)
        """,
    ),
    "REP401": (
        """
        def attempt(fn):
            try:
                return fn()
            except Exception:
                return None
        """,
        """
        def attempt(fn, counters):
            try:
                return fn()
            except Exception:
                counters.incr("attempt_failures")
                return None
        """,
    ),
    "REP402": (
        """
        def attempt(fn):
            try:
                return fn()
            except BaseException:
                return None
        """,
        """
        def attempt(fn):
            try:
                return fn()
            except BaseException:
                cleanup()
                raise
        """,
    ),
    "REP501": (
        """
        from repro import telemetry

        telemetry.count("module_imports")
        """,
        """
        from repro import telemetry

        def record():
            telemetry.count("module_imports")
        """,
    ),
    "REP502": (
        """
        def wall(report):
            return report["wall_secs"]
        """,
        """
        def wall(report):
            return report["wall_seconds"]
        """,
    ),
    "REP601": (
        """
        import threading

        class Left:
            def __init__(self, peer):
                self._lock = threading.Lock()
                self.peer = peer

            def ping(self):
                with self._lock:
                    self.peer.pong_inner()

            def ping_inner(self):
                with self._lock:
                    pass

        class Right:
            def __init__(self, peer):
                self._lock = threading.Lock()
                self.peer = peer

            def pong(self):
                with self._lock:
                    self.peer.ping_inner()

            def pong_inner(self):
                with self._lock:
                    pass
        """,
        """
        import threading

        class Left:
            def __init__(self, peer):
                self._lock = threading.Lock()
                self.peer = peer

            def ping(self):
                with self._lock:
                    self.peer.pong_inner()

        class Right:
            def __init__(self):
                self._lock = threading.Lock()

            def pong_inner(self):
                with self._lock:
                    pass
        """,
    ),
    "REP602": (
        """
        import threading

        class Client:
            def __init__(self, sock):
                self._lock = threading.Lock()
                self._sock = sock

            def call(self, payload):
                with self._lock:
                    self._sock.sendall(payload)
                    return self._sock.recv(65536)
        """,
        """
        import threading

        class Client:
            def __init__(self, sock):
                self._lock = threading.Lock()
                self._sock = sock
                self._seq = 0

            def call(self, payload):
                with self._lock:
                    self._seq += 1
                    seq = self._seq
                self._sock.sendall(payload)
                return seq
        """,
    ),
    "REP603": (
        """
        from repro.service import http

        def serve(job):
            return http.run(job)
        """,
        """
        from repro.seq import fastq

        def load(path):
            return fastq.read_fastq(path)
        """,
    ),
    "REP604": (
        """
        def envelope(job):
            return {"schema": "repro-job/1", "jobb": job}
        """,
        """
        def envelope(job):
            return {"schema": "repro-job/1", "job": job}
        """,
    ),
    "REP605": (
        """
        import pickle

        def thaw(blob):
            return pickle.loads(blob)
        """,
        """
        import pickle

        def freeze(obj):
            return pickle.dumps(obj)
        """,
    ),
}


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_fires_on_positive_fixture(rule_id):
    positive, _ = FIXTURES[rule_id]
    findings = _lint(rule_id, positive)
    assert findings, f"{rule_id} did not fire on its positive fixture"
    assert all(f.rule == rule_id for f in findings)
    assert all(f.line >= 1 and f.col >= 1 for f in findings)


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_quiet_on_negative_fixture(rule_id):
    _, negative = FIXTURES[rule_id]
    assert _lint(rule_id, negative) == []


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_noqa_suppresses_positive_fixture(rule_id):
    positive, _ = FIXTURES[rule_id]
    findings = _lint(rule_id, positive)
    lines = textwrap.dedent(positive).splitlines()
    for f in findings:
        lines[f.line - 1] += f"  # repro: noqa[{rule_id}] -- fixture"
    result = lint_source(
        "\n".join(lines), path=_fixture_path(rule_id),
        rules=[get_rule(rule_id)],
    )
    assert result.findings == []
    assert len(result.suppressed) == len(findings)


def test_every_registered_rule_has_fixtures():
    registered = {r.id for r in all_rules()}
    assert registered == set(FIXTURES), (
        "every shipped rule needs a positive + negative fixture here"
    )


def test_rules_carry_catalog_metadata():
    for rule in all_rules():
        assert rule.id.startswith("REP") and len(rule.id) == 6
        assert rule.name and rule.name == rule.name.lower()
        assert len(rule.rationale) > 20, rule.id


# -- targeted edge cases beyond the fixture matrix ----------------------------
def test_rep103_exempts_telemetry_package():
    src = "import time\n\ndef now():\n    return time.time()\n"
    result = lint_source(
        src, path="src/repro/telemetry/spans.py",
        rules=[get_rule("REP103")],
    )
    assert result.findings == []


def test_rep104_set_comprehension_result_not_flagged():
    findings = _lint("REP104", "def f(xs):\n    return {x + 1 for x in xs}\n")
    assert findings == []


def test_rep104_for_loop_over_set_call_flagged():
    findings = _lint(
        "REP104",
        "def f(xs, out):\n    for x in set(xs):\n        out.append(x)\n",
    )
    assert len(findings) == 1


def test_rep201_close_in_finally_is_accepted():
    src = """
    def read(path, source=None):
        close = False
        if source is None:
            handle = open(path)
            close = True
        else:
            handle = source
        try:
            return handle.read()
        finally:
            if close:
                handle.close()
    """
    assert _lint("REP201", src) == []


def test_rep302_target_keyword_flagged():
    src = """
    from multiprocessing import Process

    def run():
        return Process(target=lambda: None)
    """
    assert len(_lint("REP302", src)) == 1


def test_rep401_reraise_is_accepted():
    src = """
    def attempt(fn):
        try:
            return fn()
        except Exception:
            raise RuntimeError("wrapped")
    """
    assert _lint("REP401", src) == []


def test_rep402_bare_except_flagged():
    src = """
    def attempt(fn):
        try:
            return fn()
        except:
            pass
    """
    assert len(_lint("REP402", src)) == 1


def test_rep501_guarded_current_is_accepted():
    src = """
    from repro import telemetry

    def record():
        tel = telemetry.current()
        if tel is not None:
            tel.count("x")
    """
    assert _lint("REP501", src) == []


def test_rep501_unguarded_current_chain_flagged():
    src = """
    from repro import telemetry

    def record():
        telemetry.current().count("x")
    """
    assert len(_lint("REP501", src)) == 1


def test_rep502_ignores_non_report_receivers():
    src = "def f(scores):\n    return scores['wall_secs']\n"
    assert _lint("REP502", src) == []


_REP204_POSITIVE = (
    'def emit(out_path):\n    with open(out_path, "wt") as fh:\n'
    "        fh.write('x')\n"
)


@pytest.mark.parametrize(
    "path,should_fire",
    [
        ("src/repro/tools/correct.py", True),
        ("src/repro/tools/job.py", True),        # the shared job driver
        ("src/repro/service/runner.py", True),
        ("src/repro/kmer/external.py", False),   # library spill files
        ("src/repro/io/atomic.py", False),       # the atomic layer itself
        ("tests/test_tools.py", False),
    ],
)
def test_rep204_scoped_to_user_facing_packages(path, should_fire):
    result = lint_source(
        _REP204_POSITIVE, path=path, rules=[get_rule("REP204")]
    )
    assert bool(result.findings) == should_fire, path


@pytest.mark.parametrize(
    "call,should_fire",
    [
        ('open(p, "wt")', True),
        ('open(p, "wb")', True),
        ('open(p, "x")', True),
        ('open(p, mode="w")', True),
        ('gzip.open(p, "wt")', True),
        ('open(p)', False),            # default read mode
        ('open(p, "rt")', False),
        ('open(p, "rb")', False),
        ('open(p, "at")', False),      # append = the resume pattern
        ('open(p, mode)', False),      # non-constant mode: no false alarm
    ],
)
def test_rep204_mode_matrix(call, should_fire):
    src = f"import gzip\n\ndef emit(p, mode):\n    with {call} as fh:\n        fh.write('x')\n"
    result = lint_source(
        src, path="src/repro/service/fake.py", rules=[get_rule("REP204")]
    )
    assert bool(result.findings) == should_fire, call


# -- REP6xx edge cases --------------------------------------------------------
def test_rep601_direct_nesting_inversion_in_one_class():
    src = """
    import threading

    class Pair:
        def __init__(self):
            self._a_lock = threading.Lock()
            self._b_lock = threading.Lock()

        def forward(self):
            with self._a_lock:
                with self._b_lock:
                    pass

        def backward(self):
            with self._b_lock:
                with self._a_lock:
                    pass
    """
    findings = _lint("REP601", src)
    assert len(findings) == 2
    assert all("cycle" in f.message for f in findings)


def test_rep601_reacquiring_nonreentrant_lock_flagged():
    src = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()

        def get(self):
            with self._lock:
                with self._lock:
                    return 1
    """
    findings = _lint("REP601", src)
    assert len(findings) == 1
    assert "self-deadlock" in findings[0].message


def test_rep601_rlock_reentry_is_fine():
    src = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.RLock()

        def get(self):
            with self._lock:
                with self._lock:
                    return 1
    """
    assert _lint("REP601", src) == []


def test_rep602_condition_wait_on_own_lock_is_the_designed_pattern():
    src = """
    import threading

    class Latch:
        def __init__(self):
            self._cond = threading.Condition()

        def block(self):
            with self._cond:
                self._cond.wait()
    """
    assert _lint("REP602", src) == []


def test_rep602_condition_wait_holding_another_lock_flagged():
    src = """
    import threading

    class Latch:
        def __init__(self):
            self._lock = threading.Lock()
            self._cond = threading.Condition()

        def block(self):
            with self._lock:
                with self._cond:
                    self._cond.wait()
    """
    findings = _lint("REP602", src)
    assert len(findings) == 1
    assert "releases only its own lock" in findings[0].message


def test_rep602_blocking_propagates_through_resolved_calls():
    src = """
    import threading

    class Client:
        def __init__(self, sock):
            self._lock = threading.Lock()
            self._sock = sock

        def _roundtrip(self, payload):
            self._sock.sendall(payload)
            return self._sock.recv(65536)

        def call(self, payload):
            with self._lock:
                return self._roundtrip(payload)
    """
    findings = _lint("REP602", src)
    assert len(findings) == 1
    assert "_roundtrip" in findings[0].message
    assert "may block" in findings[0].message


def test_rep603_analysis_load_time_import_flagged_lazy_allowed():
    eager = "from repro.telemetry import spans\n"
    result = lint_source(
        eager, path="src/repro/analysis/fake.py",
        rules=[get_rule("REP603")],
    )
    assert len(result.findings) == 1
    assert "import-free at load" in result.findings[0].message

    lazy = """
    def render():
        from repro.telemetry import spans
        return spans
    """
    result = lint_source(
        textwrap.dedent(lazy), path="src/repro/analysis/fake.py",
        rules=[get_rule("REP603")],
    )
    assert result.findings == []


def test_rep604_unknown_schema_tag_is_ignored():
    src = """
    def envelope(job):
        return {"schema": "somebody-elses/9", "whatever": job}
    """
    assert _lint("REP604", src) == []


def test_rep604_schema_version_constant_resolves():
    src = """
    from repro.service.spec import JOB_SCHEMA_VERSION

    def envelope(job):
        return {"schema": JOB_SCHEMA_VERSION, "jobb": job}
    """
    findings = _lint("REP604", src)
    assert len(findings) == 1
    assert "'jobb'" in findings[0].message
