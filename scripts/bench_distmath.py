#!/usr/bin/env python3
"""Speed of the scalar t quantile, before and after a change.

Measures three figures, each in a fresh process per side and pair, with the
sides alternating as in scripts/bench_critval.py (whose process, alternation
and machine helpers this script reuses):

  quantile_us   microseconds of CPU per distmath.t_quantile call at
                df 3, 28, 98, 598 and 2412, the median over
                p 0.95, 0.975 and 0.995 of the best of a few repeats;
  cdf_calls     distmath.t_cdf calls per t_quantile call at the same
                (df, p) cells, their mean over p;
  corr_search   CPU seconds of the 72 find_sample_size_corr calls of the
                correlation-route tables (3 alpha x 6 lambda x 4 targets).

Each side's stdout of `slopesize samplesize --route corr --lambda 0.5
--alpha 0.05 --power 0.90` and of `slopesize power --route fixed --A 0.5
--sxx 100 --sigma 1 --n 30 --alpha 0.05` is recorded, and the script fails
if the sides print different bytes.

Usage:
    python scripts/bench_distmath.py --baseline OLD/src
    python scripts/bench_distmath.py --quick --out /tmp/bench.json

--baseline is the src directory of a checkout of the commit to compare
against; without it only the current tree is measured. --quick times fewer
calls and runs one pair, so that the whole run takes a few seconds; its
figures only show that the harness works.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

from bench_critval import ROOT, compare, finish, machine, run_cli

DEFAULT_OUT = ROOT / "BENCH_tquantile.json"

DFS = (3, 28, 98, 598, 2412)
PS = (0.95, 0.975, 0.995)
ALPHAS = (0.10, 0.05, 0.01)
LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
TARGETS = (0.80, 0.90, 0.95, 0.99)
COMMANDS = {
    "corr": ["samplesize", "--route", "corr", "--lambda", "0.5", "--alpha", "0.05",
             "--power", "0.90"],
    "fixed": ["power", "--route", "fixed", "--A", "0.5", "--sxx", "100", "--sigma", "1",
              "--n", "30", "--alpha", "0.05"],
}
PAIRS = 3  # measuring processes per side; --quick runs one
# calls timed per repeat, and repeats per (df, p) cell
FULL = {"calls": 40, "repeats": 3}
QUICK = {"calls": 2, "repeats": 1}


# -- measuring process ------------------------------------------------------

def measure(sizes: dict) -> dict:
    """One measurement of every figure with the slopesize found on sys.path."""
    from slopesize import cli, corroute, distmath
    from slopesize.stochastics import SimPlan

    count = [0]
    inner = distmath.t_cdf

    def counting(x, df):
        count[0] += 1
        return inner(x, df)

    quantile_us, cdf_calls = {}, {}
    for df in DFS:
        per_p = []
        for p in PS:
            best = math.inf
            for _ in range(sizes["repeats"]):
                start = time.process_time()
                for _ in range(sizes["calls"]):
                    distmath.t_quantile(p, df)
                best = min(best, (time.process_time() - start) / sizes["calls"])
            per_p.append(best * 1e6)
        quantile_us[str(df)] = round(statistics.median(per_p), 1)

        count[0] = 0
        distmath.t_cdf = counting
        try:
            for p in PS:
                distmath.t_quantile(p, df)
        finally:
            distmath.t_cdf = inner
        cdf_calls[str(df)] = round(count[0] / len(PS), 2)

    plan = SimPlan()
    start = time.process_time()
    for alpha in ALPHAS:
        for lam in LAMBDAS:
            for target in TARGETS:
                corroute.find_sample_size_corr(corroute.lambda_to_rho(lam), alpha, target, plan)
    corr_search_s = time.process_time() - start

    return {
        "quantile_us": quantile_us,
        "cdf_calls": cdf_calls,
        "corr_search_s": round(corr_search_s, 3),
        "stdout": {name: run_cli(cli, argv)[-1] for name, argv in COMMANDS.items()},
    }


# -- comparing process ------------------------------------------------------

def _median(runs: list[dict]) -> dict:
    return {
        **{key: {df: round(statistics.median(r[key][df] for r in runs), 2)
                 for df in runs[0][key]}
           for key in ("quantile_us", "cdf_calls")},
        "corr_search_s": round(statistics.median(r["corr_search_s"] for r in runs), 3),
    }


def _change(before: dict, after: dict) -> dict:
    def rel(a, b):
        return round(b / a - 1.0, 3) if a else None

    return {
        **{key: {df: rel(before[key][df], after[key][df]) for df in before[key]}
           for key in ("quantile_us", "cdf_calls")},
        "corr_search_s": rel(before["corr_search_s"], after["corr_search_s"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=None,
                        help="src directory of the commit to compare against")
    parser.add_argument("--quick", action="store_true", help="few calls; checks the harness only")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON file to write")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sizes = QUICK if args.quick else FULL
    if args.child:
        print(json.dumps(measure(sizes)))
        return 0

    pairs = 1 if args.quick else PAIRS
    sides, runs, outputs, identical = compare(
        Path(__file__).resolve(), args.baseline, pairs, args.quick)
    report = {
        "benchmark": "scalar t quantile: CPU per call, t_cdf calls per call, "
                     "the 72 correlation-route searches",
        "timer": "time.process_time of a fresh process per side and pair, sides alternating",
        "quick": args.quick,
        "sizes": {**sizes, "dfs": list(DFS), "ps": list(PS),
                  "corr_search": "3 alpha x 6 lambda x 4 targets"},
        "commands": {name: "slopesize " + " ".join(argv) for name, argv in COMMANDS.items()},
        "machine": machine(),
        "stdout": outputs["after"][-1],
        "outputs_identical": identical,
    }
    return finish(report, sides, runs, outputs, _median, _change, args.out)


if __name__ == "__main__":
    sys.exit(main())
