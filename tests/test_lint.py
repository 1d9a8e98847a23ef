"""Engine-level tests for ``repro lint``: suppression parsing,
baseline round-trips, CLI exit codes, the JSON report contract, and
the repo-wide acceptance gate (this tree lints clean)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    LINT_JSON_SCHEMA,
    LINT_SCHEMA_VERSION,
    Baseline,
    lint_paths,
    lint_source,
    validate_lint_report_dict,
)
from repro.analysis.cli import main as lint_main, result_as_dict
from repro.analysis.core import Finding, module_name_for_path
from repro.analysis.engine import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent

DIRTY = (
    "import random\n"
    "\n"
    "def jitter():\n"
    "    return random.random()\n"
)


# -- acceptance: the repository itself is clean -------------------------------
def test_repo_lints_clean_with_empty_baseline():
    """The shipped acceptance bar: zero findings, zero baseline debt."""
    paths = [
        REPO_ROOT / d
        for d in ("src", "tests", "examples")
        if (REPO_ROOT / d).is_dir()
    ]
    result = lint_paths(paths, root=REPO_ROOT)
    assert result.errors == {}
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings
    )
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    assert len(baseline) == 0


def test_repo_suppressions_all_carry_justifications():
    """Every inline noqa in the tree must explain itself after `--`."""
    from repro.analysis.engine import _NOQA_RE

    this_file = Path(__file__).resolve()
    for d in ("src", "tests"):
        for path in (REPO_ROOT / d).rglob("*.py"):
            if path.resolve() == this_file:
                continue
            text = path.read_text(encoding="utf-8")
            for i, line in enumerate(text.splitlines(), start=1):
                if "``" in line:  # rst doc example, not a live comment
                    continue
                m = _NOQA_RE.search(line)
                if m is not None:
                    assert (m.group("why") or "").strip(), (
                        f"{path}:{i}: suppression without justification"
                    )


# -- suppression parsing ------------------------------------------------------
def test_parse_suppressions_multiple_ids_and_justification():
    src = "x = 1  # repro: noqa[REP101, REP202] -- fixture reasons\n"
    assert parse_suppressions(src) == {1: {"REP101", "REP202"}}


def test_bare_noqa_comment_is_not_a_suppression():
    result = lint_source(DIRTY.replace(
        "return random.random()", "return random.random()  # noqa"
    ), path="src/repro/x.py")
    assert any(f.rule == "REP101" for f in result.findings)


def test_suppression_only_applies_to_named_rule():
    src = DIRTY.replace(
        "return random.random()",
        "return random.random()  # repro: noqa[REP999] -- wrong id",
    )
    result = lint_source(src, path="src/repro/x.py")
    assert any(f.rule == "REP101" for f in result.findings)


# -- baseline -----------------------------------------------------------------
def test_baseline_roundtrip_filters_known_findings(tmp_path):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(DIRTY)

    first = lint_paths([bad], root=tmp_path)
    assert first.findings
    baseline = Baseline.from_findings(first.findings)
    baseline_file = baseline.write(tmp_path / "lint-baseline.json")

    second = lint_paths([bad], root=tmp_path,
                        baseline=Baseline.load(baseline_file))
    assert second.findings == []
    assert len(second.baselined) == len(first.findings)


def test_baseline_fingerprint_survives_line_moves():
    a = Finding("src/x.py", 4, 12, "REP101", "msg")
    b = Finding("src/x.py", 40, 1, "REP101", "msg")
    c = Finding("src/y.py", 4, 12, "REP101", "msg")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_baseline_rejects_unknown_schema(tmp_path):
    p = tmp_path / "b.json"
    p.write_text(json.dumps({"schema": "nope/1", "findings": []}))
    with pytest.raises(ValueError, match="baseline schema"):
        Baseline.load(p)


# -- CLI exit codes and formats -----------------------------------------------
def _write_tree(tmp_path, dirty: bool) -> Path:
    src = tmp_path / "src" / "repro" / "mod.py"
    src.parent.mkdir(parents=True)
    src.write_text(DIRTY if dirty else "X = 1\n")
    return tmp_path / "src"


def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    root = _write_tree(tmp_path, dirty=False)
    assert lint_main([str(root)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exit_one_on_findings(tmp_path, capsys):
    root = _write_tree(tmp_path, dirty=True)
    assert lint_main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "REP101" in out and "FAILED" in out


def test_cli_exit_two_on_bad_input(tmp_path):
    assert lint_main([str(tmp_path / "missing")]) == 2
    assert lint_main(["--select", "NOPE123", str(tmp_path)]) == 2


def test_cli_exit_one_on_syntax_error(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    assert lint_main([str(bad)]) == 1
    assert "ERROR" in capsys.readouterr().out


def test_cli_select_limits_rules(tmp_path, capsys):
    root = _write_tree(tmp_path, dirty=True)
    assert lint_main(["--select", "REP201", str(root)]) == 0
    capsys.readouterr()
    assert lint_main(["--select", "REP101", str(root)]) == 1


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "REP101" in out and "REP502" in out


def test_cli_write_baseline_then_clean(tmp_path, capsys, monkeypatch):
    root = _write_tree(tmp_path, dirty=True)
    monkeypatch.chdir(tmp_path)
    assert lint_main(["--write-baseline", str(root)]) == 0
    capsys.readouterr()
    assert (tmp_path / "lint-baseline.json").is_file()
    assert lint_main([str(root)]) == 0
    assert "baselined" in capsys.readouterr().out


def test_cli_update_baseline_prunes_and_adds(tmp_path, capsys, monkeypatch):
    """--update-baseline regenerates: fixed findings drop out, new
    ones come in, and the file stays sorted and schema-valid."""
    root = _write_tree(tmp_path, dirty=True)
    monkeypatch.chdir(tmp_path)
    assert lint_main(["--update-baseline", str(root)]) == 0
    first = Baseline.load(tmp_path / "lint-baseline.json")
    assert len(first) > 0

    # Fix the random-use finding, introduce a different one.
    mod = tmp_path / "src" / "repro" / "mod.py"
    mod.write_text(
        "import pickle\n"
        "\n"
        "def load(blob):\n"
        "    return pickle.loads(blob)\n"
    )
    capsys.readouterr()
    assert lint_main(["--update-baseline", str(root)]) == 0
    err = capsys.readouterr().err
    assert "added" in err and "pruned" in err
    second = Baseline.load(tmp_path / "lint-baseline.json")
    assert {e["rule"] for e in second.entries} >= {"REP605"}
    assert not any(e["rule"] == "REP101" for e in second.entries)
    # Sorted, reviewable output: entries in Finding sort order.
    keys = [(e["path"], e["rule"], e["message"]) for e in second.entries]
    assert keys == sorted(keys)
    # And the updated baseline actually gates the next run.
    assert lint_main([str(root)]) == 0
    assert "baselined" in capsys.readouterr().out


def test_cli_update_baseline_fingerprints_stable_across_line_churn(
    tmp_path, capsys, monkeypatch
):
    """Shifting a finding to another line must not change the
    baseline content — fingerprints are line-insensitive, so an
    updated baseline produces a byte-identical file after churn."""
    root = _write_tree(tmp_path, dirty=True)
    monkeypatch.chdir(tmp_path)
    assert lint_main(["--update-baseline", str(root)]) == 0
    before = (tmp_path / "lint-baseline.json").read_bytes()

    mod = tmp_path / "src" / "repro" / "mod.py"
    mod.write_text("# pushed down\n\n\n" + mod.read_text())
    capsys.readouterr()
    assert lint_main(["--update-baseline", str(root)]) == 0
    assert "0 added, 0 pruned" in capsys.readouterr().err
    assert (tmp_path / "lint-baseline.json").read_bytes() == before


def test_cli_no_project_skips_cross_module_rules(tmp_path, capsys):
    """REP603 comes from the project pass; --no-project drops it
    while same-file rules keep firing."""
    src = tmp_path / "src" / "repro" / "core" / "mod.py"
    src.parent.mkdir(parents=True)
    src.write_text(
        "import random\n"
        "from repro.service import http\n"
        "\n"
        "def jitter():\n"
        "    return random.random()\n"
    )
    assert lint_main([str(tmp_path / "src")]) == 1
    assert "REP603" in capsys.readouterr().out
    assert lint_main(["--no-project", str(tmp_path / "src")]) == 1
    out = capsys.readouterr().out
    assert "REP603" not in out and "REP101" in out


# -- the JSON report validates against its own schema -------------------------
def _json_report(tmp_path, capsys, dirty: bool) -> dict:
    root = _write_tree(tmp_path, dirty=dirty)
    rc = lint_main(["--format", "json", str(root)])
    assert rc == (1 if dirty else 0)
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("dirty", [False, True])
def test_json_output_validates_against_own_schema(tmp_path, capsys, dirty):
    data = _json_report(tmp_path, capsys, dirty)
    assert data["schema"] == LINT_SCHEMA_VERSION
    assert validate_lint_report_dict(data) == []
    assert data["ok"] is (not dirty)
    if dirty:
        assert data["summary"]["by_rule"].get("REP101", 0) >= 1
        for f in data["findings"]:
            for key in ("path", "line", "col", "rule", "message",
                        "fingerprint"):
                assert key in f


def test_json_schema_document_mirrors_validator():
    assert LINT_JSON_SCHEMA["properties"]["schema"]["const"] == (
        LINT_SCHEMA_VERSION
    )
    assert set(LINT_JSON_SCHEMA["required"]) <= set(
        LINT_JSON_SCHEMA["properties"]
    )


def test_validator_rejects_malformed_reports():
    assert validate_lint_report_dict([]) != []
    assert validate_lint_report_dict({"schema": "nope"}) != []
    data = {
        "schema": LINT_SCHEMA_VERSION, "ok": True, "n_files": 1,
        "findings": [{"path": "x", "line": 0, "col": 1, "rule": "REP101",
                      "message": "m", "fingerprint": "f"}],
        "errors": {}, "summary": {"findings": 0, "suppressed": 0,
                                  "baselined": 0, "by_rule": {}},
    }
    assert any("line" in p for p in validate_lint_report_dict(data))


def test_result_as_dict_counts_match(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(DIRTY)
    data = result_as_dict(lint_paths([bad], root=tmp_path))
    assert data["summary"]["findings"] == len(data["findings"])
    assert sum(data["summary"]["by_rule"].values()) == len(data["findings"])


# -- plumbing -----------------------------------------------------------------
def test_module_name_for_path():
    assert module_name_for_path("src/repro/mapreduce/types.py") == (
        "repro.mapreduce.types"
    )
    assert module_name_for_path("src/repro/kmer/__init__.py") == "repro.kmer"
    assert module_name_for_path("tests/test_lint.py") == ""


def test_unified_cli_exposes_lint():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "REP101" in proc.stdout
