"""``python -m repro lint`` — command-line front end.

Exit codes follow the convention the CI job keys on:

- ``0`` — no findings (suppressed/baselined ones do not count);
- ``1`` — at least one finding (or an unparsable file);
- ``2`` — usage error (bad flag, missing baseline, unknown rule).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .baseline import DEFAULT_BASELINE_NAME, Baseline
from .core import Rule, all_rules
from .engine import LintResult, lint_paths

#: Schema identifier for ``repro lint --format json`` documents.
LINT_SCHEMA_VERSION = "repro-lint-report/1"

#: JSON-Schema rendering of the JSON output, for external tooling —
#: and for the self-validation test the suite runs.
LINT_JSON_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://repro.invalid/schemas/lint-report-v1.json",
    "title": "repro lint report v1",
    "type": "object",
    "required": ["schema", "ok", "n_files", "findings", "summary"],
    "properties": {
        "schema": {"const": LINT_SCHEMA_VERSION},
        "ok": {"type": "boolean"},
        "n_files": {"type": "integer", "minimum": 0},
        "findings": {"$ref": "#/$defs/findings"},
        "suppressed": {"$ref": "#/$defs/findings"},
        "baselined": {"$ref": "#/$defs/findings"},
        "errors": {
            "type": "object", "additionalProperties": {"type": "string"},
        },
        "summary": {
            "type": "object",
            "required": ["findings", "suppressed", "baselined", "by_rule"],
            "properties": {
                "findings": {"type": "integer", "minimum": 0},
                "suppressed": {"type": "integer", "minimum": 0},
                "baselined": {"type": "integer", "minimum": 0},
                "by_rule": {
                    "type": "object",
                    "additionalProperties": {"type": "integer"},
                },
            },
        },
    },
    "$defs": {
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "line", "col", "rule", "message",
                             "fingerprint"],
                "properties": {
                    "path": {"type": "string"},
                    "line": {"type": "integer", "minimum": 1},
                    "col": {"type": "integer", "minimum": 1},
                    "rule": {"type": "string", "pattern": "^REP[0-9]{3}$"},
                    "message": {"type": "string"},
                    "fingerprint": {"type": "string"},
                },
            },
        },
    },
}


def result_as_dict(result: LintResult) -> dict:
    """Render a :class:`LintResult` as a ``repro-lint-report/1`` dict."""
    by_rule: dict[str, int] = {}
    for f in result.findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    return {
        "schema": LINT_SCHEMA_VERSION,
        "ok": result.ok,
        "n_files": result.n_files,
        "findings": [f.as_dict() for f in result.findings],
        "suppressed": [f.as_dict() for f in result.suppressed],
        "baselined": [f.as_dict() for f in result.baselined],
        "errors": dict(result.errors),
        "summary": {
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
            "baselined": len(result.baselined),
            "by_rule": {k: by_rule[k] for k in sorted(by_rule)},
        },
    }


def validate_lint_report_dict(data: object) -> list[str]:
    """Dependency-free check of a lint-report document; [] when valid."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["lint report must be a JSON object"]
    if data.get("schema") != LINT_SCHEMA_VERSION:
        problems.append(
            f"schema must be {LINT_SCHEMA_VERSION!r}, got {data.get('schema')!r}"
        )
    if not isinstance(data.get("ok"), bool):
        problems.append("'ok' must be a boolean")
    n_files = data.get("n_files")
    if not isinstance(n_files, int) or isinstance(n_files, bool) or n_files < 0:
        problems.append("'n_files' must be a non-negative integer")
    for section in ("findings", "suppressed", "baselined"):
        items = data.get(section, [])
        if not isinstance(items, list):
            problems.append(f"'{section}' must be a list")
            continue
        for i, item in enumerate(items):
            where = f"{section}[{i}]"
            if not isinstance(item, dict):
                problems.append(f"{where} must be an object")
                continue
            for key in ("path", "rule", "message", "fingerprint"):
                if not isinstance(item.get(key), str) or not item.get(key):
                    problems.append(f"{where}.{key} must be a non-empty string")
            for key in ("line", "col"):
                v = item.get(key)
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    problems.append(f"{where}.{key} must be an integer >= 1")
    errors = data.get("errors", {})
    if not isinstance(errors, dict) or any(
        not isinstance(v, str) for v in errors.values()
    ):
        problems.append("'errors' must map paths to strings")
    summary = data.get("summary")
    if not isinstance(summary, dict):
        problems.append("'summary' must be an object")
    else:
        for key in ("findings", "suppressed", "baselined"):
            v = summary.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                problems.append(f"summary.{key} must be a non-negative integer")
        by_rule = summary.get("by_rule")
        if not isinstance(by_rule, dict) or any(
            not isinstance(v, int) or isinstance(v, bool)
            for v in by_rule.values()
        ):
            problems.append("summary.by_rule must map rule ids to integers")
    return problems


def _print_text(result: LintResult, verbose: bool, stream) -> None:
    for f in result.findings:
        print(f.render(), file=stream)
    for path, err in sorted(result.errors.items()):
        print(f"{path}:1:1: ERROR {err}", file=stream)
    tallies = (
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed, "
        f"{len(result.baselined)} baselined, "
        f"{result.n_files} file(s) checked"
    )
    if result.ok:
        print(f"repro lint: clean — {tallies}", file=stream)
    else:
        print(f"repro lint: FAILED — {tallies}", file=stream)
    if verbose and result.suppressed:
        print("suppressed:", file=stream)
        for f in result.suppressed:
            print(f"  {f.render()}", file=stream)


def _list_rules(rules: Sequence[Rule], stream) -> None:
    for rule in rules:
        print(f"{rule.id} {rule.name}", file=stream)
        print(f"    {rule.rationale}", file=stream)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="project-specific static analysis: determinism, "
        "resource hygiene, fork safety, exception hygiene, telemetry "
        "contract",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: src tests examples, "
        "whichever exist)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file (default: ./{DEFAULT_BASELINE_NAME} when present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="regenerate the baseline from current findings — prunes "
        "entries that no longer fire, adds new ones, keeps the file "
        "sorted and schema-validated — and exit 0",
    )
    parser.add_argument(
        "--no-project", action="store_true",
        help="skip the project-wide pass (import graph and cross-module "
        "rules such as REP601-REP603)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print suppressed findings in text mode",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro lint --list-rules |
        # head`); a truncated listing is not a lint failure.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def _main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    rules: Sequence[Rule] = all_rules()
    if args.select:
        wanted = {s.strip() for s in args.select.split(",") if s.strip()}
        known = {r.id for r in rules}
        unknown = wanted - known
        if unknown:
            print(
                f"repro lint: unknown rule id(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
        rules = [r for r in rules if r.id in wanted]

    if args.list_rules:
        _list_rules(rules, sys.stdout)
        return 0

    if args.paths:
        paths = args.paths
        missing = [p for p in paths if not Path(p).exists()]
        if missing:
            print(
                f"repro lint: no such path(s): {', '.join(missing)}",
                file=sys.stderr,
            )
            return 2
    else:
        paths = [
            p
            for p in ("src", "tests", "examples")
            if Path(p).is_dir()
        ]
        if not paths:
            print(
                "repro lint: no default paths found (src/tests/examples); "
                "pass paths explicitly",
                file=sys.stderr,
            )
            return 2

    rewriting = args.write_baseline or args.update_baseline
    baseline = None
    baseline_path = args.baseline
    if not args.no_baseline and not rewriting:
        if baseline_path is None and Path(DEFAULT_BASELINE_NAME).is_file():
            baseline_path = DEFAULT_BASELINE_NAME
        if baseline_path is not None:
            try:
                baseline = Baseline.load(baseline_path)
            except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
                print(f"repro lint: cannot load baseline: {e}", file=sys.stderr)
                return 2

    result = lint_paths(
        paths, rules=rules, baseline=baseline, project=not args.no_project
    )

    if rewriting:
        target = args.baseline or DEFAULT_BASELINE_NAME
        before: set[str] = set()
        if args.update_baseline and Path(target).is_file():
            try:
                before = Baseline.load(target).fingerprints
            except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
                print(f"repro lint: cannot load baseline: {e}", file=sys.stderr)
                return 2
        Baseline.from_findings(result.findings).write(target)
        # Round-trip through the loader so a malformed write can never
        # land silently — the schema check is the validation.
        reloaded = Baseline.load(target)
        if args.update_baseline:
            added = len(reloaded.fingerprints - before)
            pruned = len(before - reloaded.fingerprints)
            print(
                f"repro lint: baseline {target} updated — "
                f"{len(reloaded)} entr{'y' if len(reloaded) == 1 else 'ies'}, "
                f"{added} added, {pruned} pruned",
                file=sys.stderr,
            )
        else:
            print(
                f"repro lint: wrote {len(reloaded)} finding(s) to {target}",
                file=sys.stderr,
            )
        return 0

    if args.format == "json":
        print(json.dumps(result_as_dict(result), indent=1))
    else:
        _print_text(result, args.verbose, sys.stdout)
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
