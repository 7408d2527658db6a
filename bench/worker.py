"""One workload in one fresh process: set up, run timed rounds, check.

Started by run.py with the checkout's ``src`` first on PYTHONPATH. It prints
``ready`` as soon as the first request can be sent; with ``--setup-only`` it
exits there, which is how run.py times set-up. Otherwise it sends the
requests of whole rounds one after another (a closed loop with one client)
until ``--seconds`` have passed, reads its peak memory, checks every answer
and prints one JSON line of raw measurements.

With ``--trace 1`` each round runs twice in a row, first untraced and then
with the tracer installed, so the per-layer numbers come with the tracing
overhead measured on identical work.

While the rounds run, ``speed`` samples the host's speed every 0.2 s; every
time is taken on its clock, which stops while it samples, and the reported
times are converted to seconds at its nominal speed (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

_clock = speed.clock


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def run_round(wl, r, reqs, results, tr=None) -> tuple[list[tuple[float, float]], int]:
    """Send reqs in order; return ((start, end) of each request, failures).

    With a tracer, each request runs inside a root span named "request"
    whose id is "<round>.<index>".
    """
    spans = []
    failed = 0
    for i, (cell, request) in enumerate(reqs):
        t0 = _clock()
        try:
            if tr is None:
                results.append((cell, request()))
            else:
                tr.request = f"{r}.{i}"
                results.append((cell, tr.call("request", request)))
        except Exception as exc:  # a failed request is counted, not fatal
            failed += 1
            print(f"request {wl.name} {cell} failed: {exc!r}", file=sys.stderr)
        spans.append((t0, _clock()))
    return spans, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import slopesize
    import workloads

    src = Path("src").resolve()
    if Path(slopesize.__file__).resolve().parent.parent != src:
        print(f"slopesize imported from {slopesize.__file__}, not {src}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, outdir)
    reqs = wl.requests(0)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer_mod = None
    if args.trace:
        import tracer as tracer_mod
    tr = None
    plain, traced = [], []  # [(start, end) of each request] per round
    attempted = failed = 0
    rounds = []  # (round info, [(cell, result)])
    t_end = time.perf_counter() + args.seconds
    r = 0
    speed.start()
    try:
        while True:
            if r:
                reqs = wl.requests(r)
            results: list = []
            spans, bad = run_round(wl, r, reqs, results)
            plain.append(spans)
            attempted += len(reqs)
            failed += bad
            rounds.append((wl.end_round(r), results))
            if tracer_mod is not None:
                reqs = wl.requests(r)
                tr = tr or tracer_mod.Tracer()
                tracer_mod.install(tr)
                results = []
                try:
                    spans, bad = run_round(wl, r, reqs, results, tr)
                finally:
                    tr.uninstall()
                traced.append(spans)
                attempted += len(reqs)
                failed += bad
                rounds.append((wl.end_round(r), results))
            r += 1
            if time.perf_counter() >= t_end:
                break
    finally:
        speed.stop()
    peak_rss = _peak_rss_mb()
    cpu = _cpu_s() - speed.probe_seconds()

    errors = []
    for info, results in rounds:
        errors += wl.check_round(info)
        for cell, result in results:
            errors += wl.check(cell, result, info)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    # Rounds repeat the same operations, so medians over rounds, in seconds
    # at the probe's nominal speed, are the program's cost with the host's
    # speed drift taken out.
    def round_walls(spans_per_round):
        return [speed.at_nominal(spans[0][0], spans[-1][1]) for spans in spans_per_round]

    walls = round_walls(plain)
    request_times = [[speed.at_nominal(*span) for span in spans] for spans in plain]
    out = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "rounds": r,
        "wall_s": statistics.median(walls),
        "request_p50_s": statistics.median(statistics.median(ts) for ts in zip(*request_times)),
        "peak_rss_mb": peak_rss,
        "cpu_s": cpu,
        "round_wall_s": walls,
        "round_wall_raw_s": [spans[-1][1] - spans[0][0] for spans in plain],
        "round_speed": [speed.speed_over(spans[0][0], spans[-1][1]) for spans in plain],
        "probe_s": speed.probe_seconds(),
    }
    if tr is not None:
        out["trace_overhead_s"] = statistics.median(round_walls(traced)) - out["wall_s"]
        out["layers"] = {k: v / r for k, v in tr.totals.items()}
        tr.write_spans(outdir / f"trace-{wl.name}-{args.seed}.jsonl")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
