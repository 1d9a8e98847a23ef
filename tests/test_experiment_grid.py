"""The experiment grid runner (``python -m repro.experiments``) records,
resumes, fails and renders as declared; the smoke grid's own tables are
checked in ``test_experiments_runners.py``."""

from repro.experiments import __main__ as cli
from repro.experiments.grid import Floor, Table, load_rows, render, run_grid


def _toy(calls: list[str], fail: set[str], floor_holds: bool = True) -> tuple[Table, ...]:
    """Two cells; ``fail`` names the cells whose runner raises."""

    def run(cell, ds):
        calls.append(cell)
        if cell in fail:
            raise RuntimeError(f"cell {cell} exploded")
        return [{"cell": cell, "value": 1.25 + "ab".index(cell), "n": len(cell)}]

    floor = Floor("values_positive", "a toy claim",
                  lambda rows: floor_holds and all(r["value"] > 0 for r in rows))
    return (Table("toy", "Toy table", run, (floor,), cells=("a", "b")),)


def test_raising_cell_is_recorded_and_only_it_reruns(tmp_path, monkeypatch, capsys):
    out = tmp_path / "rows.jsonl"
    calls: list[str] = []
    monkeypatch.setattr(cli, "TABLES", _toy(calls, fail={"b"}))
    assert cli.main(["--out", str(out)]) == 1
    status = {(r["cell"], r["status"]) for r in load_rows(out)}
    assert status == {("a", "ok"), ("b", "error")}
    assert "cell b exploded" in load_rows(out)[1]["error"]
    assert calls == ["a", "b"]
    assert "toy/b" in capsys.readouterr().out

    calls.clear()
    monkeypatch.setattr(cli, "TABLES", _toy(calls, fail=set()))
    assert cli.main(["--out", str(out)]) == 0
    assert calls == ["b"]
    assert [r["rows"][0]["value"] for r in load_rows(out) if r["status"] == "ok"] == [1.25, 2.25]


def test_failed_floor_exits_nonzero_and_is_named(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "TABLES", _toy([], fail=set(), floor_holds=False))
    assert cli.main(["--out", str(tmp_path / "rows.jsonl")]) == 1
    assert "failed cells and floors: toy.values_positive" in capsys.readouterr().out


def test_render_is_deterministic_and_keeps_prose(tmp_path):
    tables = _toy([], fail=set())
    _, records = run_grid("smoke", None, tables, echo=lambda s: None)
    md = tmp_path / "EXPERIMENTS.md"
    prose = "# Paper vs measured\n\nHand-written prose.\n\n"
    md.write_text(prose + "<!-- grid:toy -->\nstale\n<!-- /grid:toy -->\n\nMore prose.\n")
    render(md, records, "smoke", tables)
    first = md.read_bytes()
    render(md, records, "smoke", tables)
    assert md.read_bytes() == first
    text = first.decode()
    assert text.startswith(prose) and text.endswith("More prose.\n")
    assert "stale" not in text
    assert "| cell | value | n |" in text and "| b | 2.25 | 1 |" in text
    assert "- ✓ `values_positive` — a toy claim" in text
