#!/usr/bin/env python3
"""Speed of exact-MC critical values, the kernel and the search, before and after a change.

Measures eight layers, each in a fresh process per side and pair, with the
sides alternating (ABAB, then BABA) so that drift of the host's speed falls
on both:

  chisq       microseconds of CPU per 10,000 chi-square variates
              (stochastics.chisq_array) at df 1, 29, 48 and 2400, and per
              call of 1,000 variates, the size of one slope run;
  streams     microseconds of CPU to open one keyed stream (one
              stochastics.normal_array call of one variate, its StreamKey
              built beforehand), and per slope run of 400 and of 1,000
              trials (powersim.simulate_power_slope at n = 30, each run at
              its own task base), the least over repeats;
  critval     one full-fidelity request,
              `slopesize critval --n 30 --alpha 0.05 --method exact --seed 1`
              (10,000 x 1,000 draws), its CPU and wall seconds;
  search      the full-fidelity search cell `slopesize samplesize --route
              slope --lambda 0.5 --alpha 0.05 --power 0.90 --seed 1`, its
              total CPU and wall seconds, the CPU and wall seconds spent
              inside the critical values it computes (no cache file; where
              a validation draws its critical value in the same split as
              its runs, their CPU on both threads and their wall seconds
              on the calling thread, see timing_critical_values), the
              validation runs it draws and the peak RSS of the measuring
              process after it (which covers the chisq and critval layers
              before it);
  levels      the three Table 1 levels at one n, `slopesize critval --n 30
              --alpha 0.10|0.05|0.01 --method exact --seed 1`, run one after
              the other in the measuring process, their total CPU and wall
              seconds.
              Exact-MC estimates kept in process from the commands before
              are dropped first, so the first level draws afresh;
  corrmc      the correlation route's Monte Carlo power, corr_power_mc, at
              each of the 72 table cells' find_sample_size_corr sample size
              (lambda 0.1-0.6 x power 0.80-0.99 x alpha 0.10/0.05/0.01),
              2,000 trials at seed 1, its total CPU and wall seconds;
  clihit      one in-process `slopesize critval --n 30 --alpha 0.05 --method
              exact --fast --seed 1` answered from the exact-MC memo: after
              one call that draws the value, the median CPU and wall seconds
              of clihit_calls more calls;
  scouts      the three slope searches of the benchmark's slope_search
              workload (bench/workloads.py) at its plans, power 1,000 x 51
              and critical values 10,000 x 10: cells (lambda, alpha, power)
              (0.6, 0.10, 0.80), (0.6, 0.10, 0.90) and (0.5, 0.10, 0.80) at
              power seeds 1, 2 and 1 and critical-value seed 1, drawn afresh
              (no cache file, the exact-MC memo emptied first); the
              validation runs they draw and their CPU and wall seconds.

Times are time.process_time() of the measuring process, which adds up the
CPU of all its threads; the *_wall_s fields are time.perf_counter() seconds.
A lone correlation run's two streams and the exact-MC replicate loop are
drawn on two threads, so their gains show in wall time.
Each side's stdout of the commands (for corrmc, the hex powers) is recorded,
and the script fails if the sides print different bytes: the change must
leave seeded output as it was. A report whose sides differ keeps each
side's stdout, so that a change of seeded output made by design can be read
from it.

Usage:
    python scripts/bench_critval.py --baseline OLD/src
    python scripts/bench_critval.py --quick --out /tmp/bench.json

--baseline is the src directory of a checkout of the commit to compare
against (for example `git clone . /tmp/parent && git -C /tmp/parent
checkout HEAD~1`); without it only the current tree is measured. Each side
is measured in PAIRS processes. --quick shrinks every size and runs one pair,
so that the whole run takes a few seconds; its figures only show that the
harness works.

The process, alternation, stdout and machine helpers below are shared with
scripts/bench_distmath.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = ROOT / "BENCH_critval.json"

CHISQ_DFS = (1, 29, 48, 2400)
CHISQ_RUN_SIZE = 1_000  # the chisq layer's second size: one slope run's variates per stream
CHISQ_LAYERS = ("chisq_us_per_10k", "chisq_us_per_1k")
STREAM_RUN_TRIALS = (400, 1_000)  # a slope run's trials: criterion 8's plan and the default
CRITVAL_ARGV = ["critval", "--n", "30", "--alpha", "0.05", "--method", "exact", "--seed", "1"]
SEARCH_ARGV = ["samplesize", "--route", "slope", "--lambda", "0.5", "--alpha", "0.05",
               "--power", "0.90", "--seed", "1"]
LEVELS_ARGV = [["critval", "--n", "30", "--alpha", alpha, "--method", "exact", "--seed", "1"]
               for alpha in ("0.10", "0.05", "0.01")]
CLIHIT_ARGV = ["critval", "--n", "30", "--alpha", "0.05", "--method", "exact", "--fast",
               "--seed", "1"]
# (lambda, alpha, target power, power-plan seed), as in bench/workloads.py
SCOUT_CELLS = [(0.6, 0.10, 0.80, 1), (0.6, 0.10, 0.90, 2), (0.5, 0.10, 0.80, 1)]
CORR_CELLS = [(lam, alpha, target) for alpha in (0.10, 0.05, 0.01)
              for lam in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6) for target in (0.80, 0.90, 0.95, 0.99)]
TIMES = ("critval_request_s", "critval_request_wall_s", "search_cell_s", "search_wall_s",
         "levels_s", "levels_wall_s", "corrmc_s", "corrmc_wall_s", "scouts_s", "scouts_wall_s")
COUNTS = ("search_runs", "scouts_runs")  # validation runs drawn
# sub-millisecond (the critical values of a search only at --quick sizes),
# so kept to the microsecond
FINE_TIMES = ("clihit_s", "clihit_wall_s", "search_critval_s", "search_critval_wall_s")
PAIRS = 3  # measuring processes per side; --quick runs one
# full sizes, and the --quick ones that only exercise the harness
FULL = {"chisq_size": 10_000, "chisq_keys": 100, "chisq_repeats": 3,
        "stream_keys": 2_000, "stream_runs": 200, "stream_repeats": 9, "reps": [],
        "corrmc_trials": 2_000, "clihit_calls": 200, "scouts_power": [1_000, 51],
        "scouts_critval": [10_000, 10]}
QUICK = {"chisq_size": 1_000, "chisq_keys": 3, "chisq_repeats": 1,
         "stream_keys": 10, "stream_runs": 3, "stream_repeats": 1,
         "reps": ["--reps-inner", "200", "--reps-outer", "3"], "corrmc_trials": 100,
         "clihit_calls": 10, "scouts_power": [200, 3], "scouts_critval": [1_000, 3]}


# -- measuring process ------------------------------------------------------

def run_cli(cli, argv: list[str]) -> tuple[float, float, str]:
    """CPU seconds, wall seconds and stdout of one CLI command."""
    out = io.StringIO()
    cpu, wall = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    return cpu, wall, out.getvalue()


def corr_mc_powers(trials: int) -> tuple[float, float, str]:
    """CPU and wall seconds of corr_power_mc over CORR_CELLS, and its hex powers."""
    from slopesize.corroute import corr_power_mc, find_sample_size_corr, lambda_to_rho
    from slopesize.stochastics import SimPlan

    plan = SimPlan(reps_inner=trials, reps_outer=1, master_seed=1)
    cells = [(lambda_to_rho(lam), alpha) for lam, alpha, _ in CORR_CELLS]
    sizes = [find_sample_size_corr(rho, alpha, target, plan).n
             for (rho, alpha), (_, _, target) in zip(cells, CORR_CELLS)]
    cpu, wall = time.process_time(), time.perf_counter()
    powers = [corr_power_mc(n, rho, alpha, plan).power for n, (rho, alpha) in zip(sizes, cells)]
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    return cpu, wall, "".join(f"n={n} power={p.hex()}\n" for n, p in zip(sizes, powers))


def cli_hits(cli, calls: int) -> tuple[float, float, str]:
    """Median CPU and wall seconds of memo-hit CLIHIT_ARGV calls, and their stdout."""
    _, _, miss_out = run_cli(cli, CLIHIT_ARGV)
    hits = [run_cli(cli, CLIHIT_ARGV) for _ in range(calls)]
    if any(out != miss_out for _, _, out in hits):
        raise RuntimeError("a memo hit printed other bytes than the draw it repeats")
    return (statistics.median(cpu for cpu, _, _ in hits),
            statistics.median(wall for _, wall, _ in hits), miss_out)


@contextlib.contextmanager
def counting_validation_runs():
    """Record the validation runs the slope search draws: the first task id
    of each run drawn at validation task ids, by the per-run draw
    powersim._draw_run where the tree has one, else by slope_t_batch."""
    from slopesize import powersim
    from slopesize.stochastics import VALIDATION_TASK_BASE

    runs: list[int] = []  # list.append is safe on the helper thread
    if hasattr(powersim, "_draw_run"):
        name = "_draw_run"

        def counting(n, master_seed, first_task, block, row):
            if first_task >= VALIDATION_TASK_BASE:
                runs.append(first_task)
            return sampler(n, master_seed, first_task, block, row)
    else:
        name = "slope_t_batch"

        def counting(n, lam, master_seed, tasks):
            if tasks[0] >= VALIDATION_TASK_BASE:
                runs.append(int(tasks[0]))
            return sampler(n, lam, master_seed, tasks)

    sampler = getattr(powersim, name)
    setattr(powersim, name, counting)
    try:
        yield runs
    finally:
        setattr(powersim, name, sampler)


@contextlib.contextmanager
def timing_critical_values():
    """Time the critical values the slope search computes; yields
    {"s": CPU seconds, "wall_s": wall seconds, "calls": lookups}.

    Where the search looks a critical value up as a powersim._PendingDraw and
    draws a miss in the same split as its validation runs, "s" is the CPU
    (time.thread_time) of the lookup, the replicates and the keep on both
    threads, and "wall_s" their wall seconds on the calling thread. Else
    both time each powersim.cached_critical_value call.
    """
    from slopesize import powersim

    spent = {"s": 0.0, "wall_s": 0.0, "calls": 0}
    cpu: list[float] = []  # list.append is safe on the helper thread
    caller = threading.get_ident()
    name = "_PendingDraw" if hasattr(powersim, "_PendingDraw") else "cached_critical_value"
    inner = getattr(powersim, name)

    @contextlib.contextmanager
    def clocked(thread_cpu: bool):
        start_cpu = time.thread_time() if thread_cpu else time.process_time()
        start_wall = time.perf_counter()
        try:
            yield
        finally:
            end_cpu = time.thread_time() if thread_cpu else time.process_time()
            cpu.append(end_cpu - start_cpu)
            if threading.get_ident() == caller:
                spent["wall_s"] += time.perf_counter() - start_wall

    if name == "_PendingDraw":
        class timed(inner):
            def __init__(self, *args):
                spent["calls"] += 1
                with clocked(True):
                    super().__init__(*args)

            def replicate(self, j):
                with clocked(True):
                    super().replicate(j)

            def keep(self):
                with clocked(True):
                    return super().keep()
    else:
        def timed(*args, **kwargs):
            spent["calls"] += 1
            with clocked(False):
                return inner(*args, **kwargs)

    setattr(powersim, name, timed)
    try:
        yield spent
    finally:
        setattr(powersim, name, inner)
        spent["s"] = sum(cpu)


def scout_searches(sizes: dict) -> tuple[int, float, float, str]:
    """Validation runs drawn, CPU and wall seconds of the SCOUT_CELLS searches, and their output."""
    from slopesize import critvals, powersim
    from slopesize.stochastics import SimPlan

    getattr(critvals, "_MC_MEMO", {}).clear()
    cv_plan = SimPlan(*sizes["scouts_critval"], master_seed=1)
    with counting_validation_runs() as drawn:
        cpu, wall = time.process_time(), time.perf_counter()
        results = [
            powersim.find_sample_size_slope(lam, alpha, target,
                                            SimPlan(*sizes["scouts_power"], master_seed=seed),
                                            critval_plan=cv_plan)
            for lam, alpha, target, seed in SCOUT_CELLS
        ]
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    out = "".join(f"n={r.n} mean={r.validated_mean.hex()} sd={r.validated_sd.hex()}\n"
                  for r in results)
    return len(drawn), cpu, wall, out


def chisq_us(sizes: dict, size: int) -> dict:
    """Least CPU microseconds per chisq_array call of size variates, per df."""
    from slopesize.stochastics import StreamKey, chisq_array

    best = {}
    for df in CHISQ_DFS:
        per_call = []
        for _ in range(sizes["chisq_repeats"]):
            start = time.process_time()
            for k in range(sizes["chisq_keys"]):
                chisq_array(StreamKey(1, k, 0), df, size)
            per_call.append((time.process_time() - start) / sizes["chisq_keys"] * 1e6)
        best[str(df)] = min(per_call)
    return best


def streams_us(sizes: dict) -> dict:
    """Least CPU microseconds to open one keyed stream, and per slope run of each
    STREAM_RUN_TRIALS size. Each repeat times the three in turn, so that a slow
    phase of the host falls on all of them."""
    from slopesize.critvals import EXACT_MC, CriticalValueEstimate
    from slopesize.powersim import simulate_power_slope
    from slopesize.stochastics import StreamKey, normal_array

    keys = [StreamKey(1, k, 0) for k in range(sizes["stream_keys"])]
    c = CriticalValueEstimate(n=30, alpha=0.05, value=0.4, sd=0.0, method=EXACT_MC)
    runs = sizes["stream_runs"]
    work = {"open_us": (len(keys), lambda: [normal_array(key, 1) for key in keys])}
    for trials in STREAM_RUN_TRIALS:
        work[f"run_us_{trials}"] = (runs, lambda trials=trials: [
            simulate_power_slope(30, 0.5, 0.05, c, trials, 1, task_base=k * trials)
            for k in range(runs)])
    best = {name: float("inf") for name in work}
    for _ in range(sizes["stream_repeats"]):
        for name, (calls, draw) in work.items():
            start = time.process_time()
            draw()
            best[name] = min(best[name], (time.process_time() - start) / calls * 1e6)
    return {name: round(us, 2) for name, us in best.items()}


def measure(sizes: dict) -> dict:
    """One measurement of every layer with the slopesize found on sys.path."""
    from slopesize import cli, critvals, powersim

    scale = 10_000 / sizes["chisq_size"]
    chisq = {df: round(us * scale, 1) for df, us in chisq_us(sizes, sizes["chisq_size"]).items()}
    chisq_run = {df: round(us, 1) for df, us in chisq_us(sizes, CHISQ_RUN_SIZE).items()}
    streams = streams_us(sizes)

    critval_s, critval_wall, critval_out = run_cli(cli, CRITVAL_ARGV + sizes["reps"])

    with timing_critical_values() as spent, counting_validation_runs() as search_drawn:
        search_s, search_wall, search_out = run_cli(cli, SEARCH_ARGV + sizes["reps"])
    search_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the critval request above left n = 30 at seed 1 in the exact-MC memo of
    # a tree that has one; empty it so that the first level draws afresh
    getattr(critvals, "_MC_MEMO", {}).clear()
    levels = [run_cli(cli, argv + sizes["reps"]) for argv in LEVELS_ARGV]
    corrmc_s, corrmc_wall, corrmc_out = corr_mc_powers(sizes["corrmc_trials"])
    clihit_s, clihit_wall, clihit_out = cli_hits(cli, sizes["clihit_calls"])
    scouts_runs, scouts_s, scouts_wall, scouts_out = scout_searches(sizes)
    return {
        "chisq_us_per_10k": chisq,
        "chisq_us_per_1k": chisq_run,
        "streams": streams,
        "critval_request_s": round(critval_s, 3),
        "critval_request_wall_s": round(critval_wall, 3),
        "search_cell_s": round(search_s, 3),
        "search_wall_s": round(search_wall, 3),
        "search_critval_s": round(spent["s"], 6),
        "search_critval_wall_s": round(spent["wall_s"], 6),
        "search_critval_calls": spent["calls"],
        "search_runs": len(search_drawn),
        "search_peak_rss_mb": round(search_rss_mb, 1),
        "levels_s": round(sum(cpu for cpu, _, _ in levels), 3),
        "levels_wall_s": round(sum(wall for _, wall, _ in levels), 3),
        "corrmc_s": round(corrmc_s, 3),
        "corrmc_wall_s": round(corrmc_wall, 3),
        "clihit_s": round(clihit_s, 6),
        "clihit_wall_s": round(clihit_wall, 6),
        "scouts_runs": scouts_runs,
        "scouts_s": round(scouts_s, 3),
        "scouts_wall_s": round(scouts_wall, 3),
        "stdout": {"critval": critval_out, "search": search_out,
                   "levels": "".join(out for _, _, out in levels), "corrmc": corrmc_out,
                   "clihit": clihit_out, "scouts": scouts_out},
    }


# -- comparing process ------------------------------------------------------

def git_commit(src: Path) -> str | None:
    try:
        return subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def machine() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    try:
        mem_gb = round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1)
    except (ValueError, OSError, AttributeError):
        mem_gb = None
    return {"cpu": model, "cpus": os.cpu_count(), "memory_gb": mem_gb,
            "system": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def _child(script: Path, src: Path, quick: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("SLOPESIZE_CACHE", "SLOPESIZE_SEED")}
    env["PYTHONPATH"] = str(src)
    argv = [sys.executable, str(script), "--child"]
    if quick:
        argv.append("--quick")
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def compare(script: Path, baseline: Path | None, pairs: int, quick: bool):
    """Run `script --child` on this tree's src and, given one, on baseline.

    Each side runs once per pair in a fresh process, the sides alternating.
    Returns the sides' src directories, each side's measurements, each
    side's stdout per run and whether every run printed the same stdout;
    each measurement's "stdout" key is taken out of it.
    """
    sides = {"after": ROOT / "src"}
    if baseline is not None:
        sides = {"before": baseline.resolve(), **sides}
    runs: dict = {name: [] for name in sides}
    for pair in range(pairs):
        order = list(sides) if pair % 2 == 0 else list(reversed(sides))
        for name in order:
            runs[name].append(_child(script, sides[name], quick))
            print(f"pair {pair + 1}/{pairs} {name} done", file=sys.stderr)
    outputs = {name: [r.pop("stdout") for r in side] for name, side in runs.items()}
    last = outputs["after"][-1]
    return sides, runs, outputs, all(o == last for side in outputs.values() for o in side)


def finish(report: dict, sides: dict, runs: dict, outputs: dict, median, change,
           out: Path) -> int:
    """Add each side's runs and medians to report, write it and return the exit code.

    When the runs printed different stdout, each side's last stdout is kept
    with it, and whether every run of that side printed the same.
    """
    for name, src in sides.items():
        report[name] = {"commit": git_commit(src), "runs": runs[name],
                        "median": median(runs[name])}
        if not report["outputs_identical"]:
            report[name]["stdout"] = outputs[name][-1]
            report[name]["stdout_same_in_every_run"] = all(
                o == outputs[name][-1] for o in outputs[name])
    if "before" in report:
        report["change"] = change(report["before"]["median"], report["after"]["median"])
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if not report["outputs_identical"]:
        print("error: the sides printed different output", file=sys.stderr)
        return 1
    return 0


def _median(runs: list[dict]) -> dict:
    return {
        **{layer: {df: round(statistics.median(r[layer][df] for r in runs), 1)
                   for df in runs[0][layer]} for layer in CHISQ_LAYERS},
        "streams": {key: round(statistics.median(r["streams"][key] for r in runs), 2)
                    for key in runs[0]["streams"]},
        **{key: round(statistics.median(r[key] for r in runs), 3) for key in TIMES},
        **{key: round(statistics.median(r[key] for r in runs), 6) for key in FINE_TIMES},
        **{key: statistics.median(r[key] for r in runs) for key in (*COUNTS, "search_peak_rss_mb")},
    }


def _change(before: dict, after: dict) -> dict:
    def rel(a, b):
        return round(b / a - 1.0, 3) if a else None

    return {
        **{layer: {df: rel(before[layer][df], after[layer][df]) for df in before[layer]}
           for layer in CHISQ_LAYERS},
        "streams": {key: rel(before["streams"][key], after["streams"][key])
                    for key in before["streams"]},
        **{key: rel(before[key], after[key])
           for key in (*TIMES, *FINE_TIMES, *COUNTS, "search_peak_rss_mb")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=None,
                        help="src directory of the commit to compare against")
    parser.add_argument("--quick", action="store_true", help="tiny sizes; checks the harness only")
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
        "benchmark": "exact-MC critical values: chi-square sampler, keyed streams and slope "
                     "runs, one critval request, "
                     "critical values inside one slope search, three levels at one n; "
                     "replicate kernel: corr_power_mc at the 72 table cells; "
                     "a memo-hit critval request in process; "
                     "the three slope_search cells of the benchmark",
        "timer": "time.process_time (CPU of all threads) of a fresh process per side and pair, "
                 "sides alternating; *_wall_s fields are time.perf_counter",
        "quick": args.quick,
        "sizes": {**sizes, "chisq_dfs": list(CHISQ_DFS), "chisq_run_size": CHISQ_RUN_SIZE,
                  "stream_run_trials": list(STREAM_RUN_TRIALS),
                  "corrmc_cells": len(CORR_CELLS),
                  "scout_cells": [list(cell) for cell in SCOUT_CELLS]},
        "commands": {"streams": "stochastics.normal_array(StreamKey(1, k, 0), 1) per key; "
                                "powersim.simulate_power_slope(30, 0.5, 0.05, c, trials, 1, "
                                "task_base=k * trials) per run, c.value = 0.4",
                     "critval": "slopesize " + " ".join(CRITVAL_ARGV + sizes["reps"]),
                     "search": "slopesize " + " ".join(SEARCH_ARGV + sizes["reps"]),
                     "levels": ["slopesize " + " ".join(argv + sizes["reps"])
                                for argv in LEVELS_ARGV],
                     "corrmc": "corroute.corr_power_mc(find_sample_size_corr(rho, alpha, target).n, "
                               "rho, alpha, SimPlan(corrmc_trials, 1, 1)), rho = lambda_to_rho(lam), "
                               "per cell",
                     "clihit": "slopesize " + " ".join(CLIHIT_ARGV),
                     "scouts": "powersim.find_sample_size_slope(lam, alpha, target, "
                               "SimPlan(*scouts_power, seed), "
                               "critval_plan=SimPlan(*scouts_critval, 1)) "
                               "per cell (lam, alpha, target, seed) of scout_cells"},
        "seeds": {"chisq": "StreamKey(1, k, 0), k < chisq_keys",
                  "streams": "StreamKey(1, k, 0), k < stream_keys; slope runs at seed 1, "
                             "task base k * trials, k < stream_runs",
                  "critval": 1, "search": 1,
                  "levels": 1, "corrmc": 1, "clihit": 1,
                  "scouts": {"power": [seed for *_, seed in SCOUT_CELLS], "critval": 1}},
        "machine": machine(),
        "stdout": outputs["after"][-1],
        "outputs_identical": identical,
    }
    return finish(report, sides, runs, outputs, _median, _change, args.out)


if __name__ == "__main__":
    sys.exit(main())
