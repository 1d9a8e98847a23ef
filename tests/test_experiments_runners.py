"""The per-table experiment runners at smoke size.

Each test runs its tables of the smoke grid (``python -m
repro.experiments --scale smoke``) and checks that every cell ran and
every floor holding at smoke size passes — the floors are the runners'
row contracts (schema, plausible ranges) and the paper's shapes.
"""

import pytest

from repro.experiments.grid import TABLES, check_floors, run_grid, table_rows

_BY_ID = {t.id: t for t in TABLES}
_CHAPTER_TABLES = (
    "table_2_1", "table_2_2", "table_2_3", "fig_2_3", "table_2_4",
    "table_3_1", "table_3_2", "table_3_3", "fig_3_2", "fig_3_3", "table_3_4",
    "table_4_1", "table_4_2", "table_4_3", "table_4_4",
)


@pytest.fixture(scope="module")
def smoke():
    """Runs tables of the smoke grid on demand, each once per module."""
    records: list[dict] = []

    def run(*ids: str) -> list[dict]:
        todo = tuple(_BY_ID[i] for i in ids if all(r["table"] != i for r in records))
        records.extend(run_grid("smoke", None, todo, echo=lambda s: None)[1])
        return records

    return run


def _check(smoke, *ids):
    records = smoke(*ids)
    for tid in ids:
        table = _BY_ID[tid]
        errors = [f"{r['cell']}: {r['error']}" for r in records
                  if r["table"] == tid and r["status"] != "ok"]
        assert errors == [], tid
        rows = table_rows(records, table, "smoke")
        assert rows, tid
        failed = [f.name for f, status in check_floors(table, rows, "smoke") if status == "FAIL"]
        assert failed == [], tid


def test_run_table_2_1_schema(smoke):
    _check(smoke, "table_2_1")


def test_run_table_2_2_schema(smoke):
    _check(smoke, "table_2_2")


def test_run_table_2_3_schema(smoke):
    _check(smoke, "table_2_3")


def test_run_fig_2_3_schema(smoke):
    _check(smoke, "fig_2_3")


def test_run_table_2_4_schema(smoke):
    _check(smoke, "table_2_4")


def test_run_table_3_1_schema(smoke):
    _check(smoke, "table_3_1")


def test_run_table_3_2_schema(smoke):
    _check(smoke, "table_3_2")


def test_run_table_3_3_and_fig_3_2(smoke):
    _check(smoke, "table_3_3", "fig_3_2")


def test_run_fig_3_3_schema(smoke):
    _check(smoke, "fig_3_3")


def test_run_table_3_4_schema(smoke):
    _check(smoke, "table_3_4")


def test_run_table_4_1_schema(smoke):
    _check(smoke, "table_4_1")


def test_run_table_4_2_and_4_3(smoke):
    _check(smoke, "table_4_2", "table_4_3")


def test_run_table_4_4_schema(smoke):
    _check(smoke, "table_4_4")


def test_run_ablations_and_extensions(smoke):
    _check(smoke, *(t.id for t in TABLES if t.id not in _CHAPTER_TABLES))
