"""``python -m repro.experiments`` — run the experiment grid.

    python -m repro.experiments --scale bench --out grid.jsonl
    python -m repro.experiments --scale bench --out grid.jsonl --render EXPERIMENTS.md

Exits 1 on any cell error or failed floor.
"""

from __future__ import annotations

import argparse
import sys

from .grid import SCALES, TABLES, render, run_grid


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="run the paper's tables as one experiment grid and check their floors",
    )
    parser.add_argument("--scale", choices=SCALES, default="smoke",
                        help="dataset sizes (default: smoke)")
    parser.add_argument("--out", metavar="ROWS",
                        help="JSON-lines rows file; cells already ok in it are skipped")
    parser.add_argument("--render", metavar="MD",
                        help="rewrite the generated table blocks of this Markdown file")
    args = parser.parse_args(argv)
    passed, records = run_grid(args.scale, args.out, TABLES)
    if args.render:
        render(args.render, records, args.scale, TABLES)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
