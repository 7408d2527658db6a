"""slopesize benchmark: one workload, measured end to end or per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload slope_search --seed 1 --seconds 25 --trace 0

Workloads: slope_search, critval_exact, corr_route (see bench/README.md).
The workload runs in a fresh child process (bench/worker.py) that imports
slopesize from the checkout's src/. With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run instead. The lines before it print the
same metrics one per line, with the raw times beside the ones converted to
the nominal host speed (bench/speed.py). The exit code is 0 only when the
run completed, whatever the checks found; "correct" reports the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# set-up is timed in this many fresh processes, the measured one included
SETUP_SAMPLES = 5
# speed samples taken right before each set-up, and right after the
# set-up-only ones (the measured worker is still running then)
SETUP_PROBES = 8
# the whole run, set-up samples and checks included, must end within this
DEADLINE_S = 170.0


def spawn(args, deadline: float, setup_only: bool) -> tuple[float, float, str]:
    """Run the worker once; return (seconds until it was ready, the host's
    speed around its set-up, the worker's last line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    speeds = speed.burst(SETUP_PROBES)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode} ({first.strip()!r})")
    if setup_only:
        speeds += speed.burst(SETUP_PROBES)
    lines = rest.strip().splitlines()
    return ready, statistics.median(speeds), lines[-1] if lines else ""


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    if not Path("src/slopesize/__init__.py").is_file():
        print("bench/run.py must run from the root of a slopesize checkout (no src/slopesize)",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("--seed must lie in [0, 2**63)", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)

    setups = []  # (raw seconds, host speed)
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args, deadline, setup_only=True)[:2])
    ready, host_speed, line = spawn(args, deadline, setup_only=False)
    setups.append((ready, host_speed))
    raw = json.loads(line)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        layers = raw["layers"]
        values = {name: layers.get(name, 0.0) for name in units}
        rows = values["stochastics.normal_matrix.rows"]
        values["stochastics.normal_matrix.variates_per_row"] = (
            values["stochastics.normal_matrix.variates"] / rows if rows else 0.0
        )
        values["process.cpu_s"] = raw["cpu_s"]
        values["process.peak_rss_mb"] = raw["peak_rss_mb"]
        values["trace.overhead_s"] = raw["trace_overhead_s"]
    else:
        values = {
            "setup_s": statistics.median(t * v for t, v in setups),
            "wall_s": raw["wall_s"],
            "request_p50_s": raw["request_p50_s"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{raw['rounds']} rounds, {raw['attempted']} requests, {raw['failed']} failed, "
          f"correct={raw['correct']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  raw: setup {statistics.median(t for t, _ in setups):.4g} s, "
          f"rounds {', '.join(f'{w:.4g}' for w in raw['round_wall_raw_s'])} s "
          f"at speeds {', '.join(f'{v:.3f}' for v in raw['round_speed'])}")
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "setups": setups, "worker": raw}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
