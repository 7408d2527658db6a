"""Command-line surface: single values, the seven standard tables, contrasts.

Commands
--------
critval     one critical value (exact Monte Carlo or normal approximation)
power       power at a given n (slope simulation, correlation test, or
            fixed-design noncentral t)
samplesize  required n for a target power (slope or correlation route)
table       regenerate one of the seven standard tables as csv/markdown/json
cache       inspect or clear the critical-value cache

Every command is deterministic given --seed; when the flag is omitted a
seed is drawn from entropy and echoed (on stderr) so the run can be
replayed. SLOPESIZE_SEED and SLOPESIZE_CACHE provide environment defaults
for the seed and cache path; flags take precedence.

Exit codes: 0 success, 2 usage error, 3 numerical or search failure.

main can be called any number of times in one process. The parser is built
on the first call, not at import, and shared by every later call, so a
caller must not mutate what build_parser() returns; each call's state lives
only in the Namespace that call parses.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import secrets
import sys
import time

from . import corroute, critvals, powersim
from .distmath import NonConvergenceError, fixed_design_power
from .stochastics import SimPlan

SEED_ENV = "SLOPESIZE_SEED"
CACHE_ENV = "SLOPESIZE_CACHE"

EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_LAMBDAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
DEFAULT_TARGETS = [0.80, 0.90, 0.95, 0.99]

# full-fidelity replication defaults and the interactive preset
FULL_CRITVAL = (10_000, 1_000)
FULL_POWER = (1_000, 1_000)
FAST_CRITVAL = (1_000, 50)
FAST_POWER = (1_000, 50)

TABLE_ALPHAS = {2: 0.10, 3: 0.05, 4: 0.01, 5: 0.10, 6: 0.05, 7: 0.01}


class UsageError(ValueError):
    pass


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    return secrets.randbits(63)


def _resolve_cache(args) -> critvals.CriticalValueCache | None:
    path = getattr(args, "cache_path", None) or os.environ.get(CACHE_ENV)
    return critvals.CriticalValueCache(path) if path else None


def _plans(args) -> tuple[int, SimPlan, SimPlan]:
    """Seed (echoed), critical-value plan, power plan; --reps-* set both plans."""
    seed = _resolve_seed(args)
    cv_inner, cv_outer = FAST_CRITVAL if args.fast else FULL_CRITVAL
    pw_inner, pw_outer = FAST_POWER if args.fast else FULL_POWER
    if getattr(args, "reps_inner", None) is not None:
        cv_inner = pw_inner = args.reps_inner
    if getattr(args, "reps_outer", None) is not None:
        cv_outer = pw_outer = args.reps_outer
    cv_plan = SimPlan(reps_inner=cv_inner, reps_outer=cv_outer, master_seed=seed)
    pw_plan = SimPlan(reps_inner=pw_inner, reps_outer=pw_outer, master_seed=seed)
    _echo(f"seed: {seed}")
    return seed, cv_plan, pw_plan


def _echo(msg: str) -> None:
    print(msg, file=sys.stderr)


def _print_fields(fields: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(fields))
    else:
        print(" ".join(f"{k}={v}" for k, v in fields.items()))


# ---------------------------------------------------------------------------
# table formatting
# ---------------------------------------------------------------------------

def _fmt(value, spec: str | None):
    if spec is None or isinstance(value, (int, str)):
        return str(value)
    return format(value, spec)


def render_rows(rows: list[dict], columns: list[str], fmt: str, rounding: dict) -> str:
    """Render rows as csv, markdown, or json; csv/markdown round for display."""
    if fmt == "json":
        return "\n".join(json.dumps(row) for row in rows) + "\n"
    display = [
        {c: _fmt(row[c], rounding.get(c)) for c in columns} for row in rows
    ]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        writer.writerows(display)
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
        for row in display:
            lines.append("| " + " | ".join(row[c] for c in columns) + " |")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def build_table(
    which: int, cv_plan: SimPlan, pw_plan: SimPlan, cache, power_rows: dict | None = None
) -> tuple[list[dict], list[str], dict]:
    """Rows, column order, and display rounding for one standard table.

    Tables 2-4 are slope-route searches over the grid and tables 5-7 set
    the same searches against the correlation route. power_rows, when
    given, keeps the search rows of each (alpha, cv_plan, pw_plan) across
    calls, so tables 2 and 5 (3 and 6, 4 and 7) search each cell once.
    """
    if which == 1:
        rows = critvals.table1(range(20, 101), cv_plan, cache)
        rounding = {c: ".3f" for c in critvals.TABLE1_COLUMNS if c != "samplesize"}
        return rows, critvals.TABLE1_COLUMNS, rounding
    alpha = TABLE_ALPHAS[which]
    searched = {} if power_rows is None else power_rows
    key = (alpha, cv_plan, pw_plan)
    if key not in searched:
        searched[key] = powersim.power_table(
            alpha, DEFAULT_LAMBDAS, DEFAULT_TARGETS, pw_plan,
            cache=cache, critval_plan=cv_plan,
        )
    if which in (2, 3, 4):
        cols = ["lambda", "power", "n", "mean", "sd"]
        return searched[key], cols, {"mean": ".4f", "sd": ".4f"}
    rows_c = corroute.contrast_table(alpha, searched[key])
    rows = [
        {
            "lambda": r.lam,
            "corr": r.rho,
            "power": r.target_power,
            "slopetest": r.n_slope,
            "corrtest": r.n_corr,
            "difference": r.difference,
        }
        for r in rows_c
    ]
    cols = ["lambda", "corr", "power", "slopetest", "corrtest", "difference"]
    return rows, cols, {"corr": ".4f"}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_critval(args) -> int:
    _, cv_plan, _ = _plans(args)
    if args.method == "normal":
        est = critvals.critical_value_normal(args.n, args.alpha)
    else:
        est = critvals.cached_critical_value(args.n, args.alpha, cv_plan, _resolve_cache(args))
    _print_fields(
        {"n": est.n, "alpha": est.alpha, "value": round(est.value, 6),
         "sd": round(est.sd, 6), "method": est.method},
        args.format == "json",
    )
    return 0


def cmd_power(args) -> int:
    seed, cv_plan, pw_plan = _plans(args)
    if args.route == "fixed":
        if args.A is None or args.sxx is None or args.sigma is None:
            raise UsageError("--route fixed needs --A, --sxx, and --sigma")
        value = fixed_design_power(args.A, args.sxx, args.sigma, args.n, args.alpha)
        _print_fields(
            {"n": args.n, "alpha": args.alpha, "power": round(value, 6), "route": "fixed"},
            args.format == "json",
        )
        return 0
    if args.route == "slope":
        if args.lam is None:
            raise UsageError("--route slope needs --lambda")
        powersim.check_slope_power_args(args.n, args.lam)
        c = critvals.cached_critical_value(args.n, args.alpha, cv_plan, _resolve_cache(args))
        est = powersim.simulate_power_slope(
            args.n, args.lam, args.alpha, c, pw_plan.reps_inner, seed
        )
        _print_fields(
            {"n": est.n, "alpha": est.alpha, "lambda": est.lam,
             "power": round(est.power, 6), "sd": round(est.sd, 6), "route": "slope"},
            args.format == "json",
        )
        return 0
    # correlation route
    if (args.rho is None) == (args.lam is None):
        raise UsageError("--route corr needs exactly one of --rho / --lambda")
    rho = args.rho if args.rho is not None else corroute.lambda_to_rho(args.lam)
    if args.lam is not None:
        _echo(f"lambda {args.lam} maps to rho {rho:.4f}")
    if args.mc:
        est = corroute.corr_power_mc(args.n, rho, args.alpha, pw_plan)
        fields = {"n": est.n, "alpha": est.alpha, "rho": round(rho, 6),
                  "power": round(est.power, 6), "sd": round(est.sd, 6),
                  "route": "correlation-mc"}
    else:
        value = corroute.corr_power_approx(args.n, rho, args.alpha)
        fields = {"n": args.n, "alpha": args.alpha, "rho": round(rho, 6),
                  "power": round(value, 6), "route": "correlation"}
    _print_fields(fields, args.format == "json")
    return 0


def cmd_samplesize(args) -> int:
    seed, cv_plan, pw_plan = _plans(args)
    if (args.rho is None) == (args.lam is None):
        raise UsageError("exactly one of --rho / --lambda is required")
    if args.route == "slope":
        if args.lam is None:
            raise UsageError("--route slope needs --lambda (the slope-test effect size)")
        if args.lam == 0.0:
            raise UsageError("effect size must be nonzero")
        res = powersim.find_sample_size_slope(
            args.lam, args.alpha, args.power, pw_plan,
            cache=_resolve_cache(args), critval_plan=cv_plan,
        )
        fields = {"n": res.n, "target_power": res.target_power,
                  "validated_mean": round(res.validated_mean, 6),
                  "validated_sd": round(res.validated_sd, 6), "route": res.route}
    else:
        rho = args.rho if args.rho is not None else corroute.lambda_to_rho(args.lam)
        if rho == 0.0:
            raise UsageError("effect size must be nonzero")
        if args.lam is not None:
            _echo(f"lambda {args.lam} maps to rho {rho:.4f} (test hopping)")
        res = corroute.find_sample_size_corr(rho, args.alpha, args.power)
        fields = {"n": res.n, "target_power": res.target_power,
                  "rho": round(rho, 6),
                  "power_at_n": round(res.validated_mean, 6), "route": res.route}
    _print_fields(fields, args.format == "json")
    return 0


def cmd_table(args) -> int:
    seed, cv_plan, pw_plan = _plans(args)
    t0 = time.perf_counter()
    rows, cols, rounding = build_table(
        args.which, cv_plan, pw_plan, _resolve_cache(args), args.power_rows
    )
    text = render_rows(rows, cols, args.format, rounding)
    _write_output(text, args.out)
    _echo(f"table {args.which}: {len(rows)} rows in {time.perf_counter() - t0:.1f}s")
    return 0


def cmd_cache(args) -> int:
    cache = _resolve_cache(args)
    if cache is None:
        raise UsageError(f"no cache path given (use --cache-path or {CACHE_ENV})")
    if args.action == "clear":
        cache.path.unlink(missing_ok=True)
        _echo(f"cleared {cache.path}")
        return 0
    records = cache._load()
    print(f"{cache.path}: {len(records)} records")
    for (n, alpha, inner, outer, seed), (value, sd) in sorted(records.items()):
        print(f"  n={n} alpha={alpha} inner={inner} outer={outer} seed={seed} "
              f"value={value:.6f} sd={sd:.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, formats=("text", "json")) -> None:
    p.add_argument("--seed", type=int, default=None, help="master seed (echoed when drawn)")
    p.add_argument("--fast", action="store_true", help="reduced replication preset")
    p.add_argument("--reps-inner", type=int, default=None, help="sets BOTH the draws per "
                   "critical-value replicate and the trials per power estimate")
    p.add_argument("--reps-outer", type=int, default=None, help="sets BOTH the critical-value "
                   "replicates and the power validation runs")
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--cache-path", default=None, help="critical-value cache file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call; do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="slopesize",
        description="Critical values, power, and sample sizes for the slope test "
        "in simple linear regression with a random normal predictor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critval", help="critical value for the slope test")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=["exact", "normal"], default="exact")
    _add_common(p)
    p.set_defaults(func=cmd_critval)

    p = sub.add_parser("power", help="power at a given sample size")
    p.add_argument("--route", choices=["slope", "corr", "fixed"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="effect size beta1 * sigma_x / sigma_eps")
    p.add_argument("--rho", type=float, default=None, help="alternative correlation")
    p.add_argument("--A", type=float, default=None, help="alternative slope (fixed design)")
    p.add_argument("--sxx", type=float, default=None, help="sum of squares of X (fixed design)")
    p.add_argument("--sigma", type=float, default=None, help="error SD (fixed design)")
    p.add_argument("--mc", action="store_true", help="Monte Carlo for the corr route")
    _add_common(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("samplesize", help="required n for a target power")
    p.add_argument("--route", choices=["slope", "corr"], required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_samplesize)

    p = sub.add_parser("table", help="regenerate one of the seven standard tables")
    p.add_argument("--which", type=int, choices=range(1, 8), required=True)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    _add_common(p, formats=("csv", "markdown", "json"))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cache", help="inspect or clear the critical-value cache")
    p.add_argument("action", choices=["show", "clear"])
    p.add_argument("--cache-path", default=None)
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None, power_rows: dict | None = None) -> int:
    """Run one command; power_rows is passed to build_table by `table`."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.power_rows = power_rows
    try:
        return args.func(args)
    except ValueError as exc:  # UsageError included
        _echo(f"error: {exc}")
        return EXIT_USAGE
    except (powersim.SearchFailureError, NonConvergenceError) as exc:
        _echo(f"numerical failure: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
