#!/usr/bin/env python3
"""Regenerate all seven standard tables into an output directory.

At the full replication counts (10,000 x 1,000 critical values; 1,000-trial
power estimates validated over 1,000 runs) the whole run takes on the order
of an hour; pass --fast for a desk-scale pass with reduced outer counts (a
few minutes). Critical values are kept in memory for one run only, so
every run draws them afresh.

Usage:
    python scripts/reproduce_tables.py --out tables/ [--fast] [--seed N]
    python scripts/reproduce_tables.py --out tables/ --only 1 5
"""

import argparse
import sys
import time
from pathlib import Path

from slopesize import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="tables", help="output directory")
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--fast", action="store_true", help="reduced replication preset")
    parser.add_argument("--format", choices=["csv", "markdown", "json"], default="csv")
    parser.add_argument("--only", type=int, nargs="*", choices=range(1, 8),
                        help="table ids to produce (default: all seven)")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = {"csv": "csv", "markdown": "md", "json": "jsonl"}[args.format]

    which = args.only or range(1, 8)
    # tables 5-7 reuse the slope-route searches of tables 2-4
    power_rows: dict = {}
    for table_id in which:
        dest = out_dir / f"table{table_id}.{ext}"
        t0 = time.perf_counter()
        argv_table = [
            "table", "--which", str(table_id), "--seed", str(args.seed),
            "--format", args.format, "--out", str(dest),
        ]
        if args.fast:
            argv_table.append("--fast")
        code = cli.main(argv_table, power_rows)
        if code != 0:
            print(f"table {table_id} failed with exit code {code}", file=sys.stderr)
            return code
        print(f"wrote {dest} in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
