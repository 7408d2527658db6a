"""Critical values C(n, alpha) for the two-sided slope test |T| > C.

Two routes:

* exact Monte Carlo — per outer replicate, draw reps_inner values of T^2
  from the four-factor ratio law tabulated in the paper's Table 1, take the
  (1 - alpha) empirical quantile, and square-root it; the estimate is the
  mean of reps_outer such replicates and its standard deviation.
* normal approximation — z_{1-alpha/2} * sqrt((n-2) / ((n-3)(n-4))), valid
  for n > 4, using the variance of T under that ratio law.

Both routes reproduce Table 1; neither is the data null law, under which
T * sqrt(n-1) ~ t(n-2). At the ratio-law values the test is slightly
conservative (size about 0.040 at alpha = 0.05, n = 30).

One pending draw, _PendingDraw, serves every exact-MC value: the CLI,
Table 1 and critical_value_mc through critical_values_mc_multi, and the
sample-size search directly. It reads the optional text-file cache (keyed
on n, alpha, reps_inner, reps_outer, master_seed), which is parsed afresh on
every lookup, then the process's one in-process store (_MC_MEMO, keyed by
(n, alpha, plan), holding only the plan drawn last), and only then draws.
A draw also estimates the paper's three levels (TABLE1_LEVELS), so one set
of draws at (n, plan) serves every level. The outer replicates are items of
a stochastics._split_items call: the caller draws the even ones and a
helper thread, started and joined by that call, the odd ones. The search
puts a miss's replicates in the same split as a block of validation runs,
ahead of them. Each replicate reads only its own keyed streams, so the
split moves no bit. The memo lives only as long as the process, so it can
never be stale; the file carries values across processes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distmath import normal_quantile
from .stochastics import SimPlan, StreamKey, _quantile_sorted, _split_items
from .exactnull import t2_null_draws

__all__ = [
    "EXACT_MC",
    "NORMAL_APPROX",
    "CriticalValueEstimate",
    "critical_value_mc",
    "critical_value_normal",
    "critical_values_mc_multi",
    "table1",
    "TABLE1_COLUMNS",
    "TABLE1_LEVELS",
    "CriticalValueCache",
    "cached_critical_value",
]

EXACT_MC = "exact_mc"
NORMAL_APPROX = "normal_approx"

# the paper's Table 1 levels; every exact-MC miss estimates these as well
TABLE1_LEVELS = (0.10, 0.05, 0.01)

TABLE1_COLUMNS = [
    "samplesize",
    "normal10",
    "criticalvalue10",
    "normal5",
    "criticalvalue5",
    "normal1",
    "criticalvalue1",
]


@dataclass(frozen=True)
class CriticalValueEstimate:
    n: int
    alpha: float
    value: float
    sd: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in (EXACT_MC, NORMAL_APPROX):
            raise ValueError(f"unknown method {self.method!r}")


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    return float(alpha)


# exact-MC estimates of the plan drawn last in this process, keyed by (n, alpha, plan)
_MC_MEMO: dict[tuple[int, float, SimPlan], CriticalValueEstimate] = {}


class _PendingDraw:
    """critical_values_mc_multi's levels, looked up once (file, then memo).

    replicate(j) must run for each j in range(reps) (0 if all were found),
    on any thread, before keep() keeps and files the estimates and returns
    them. If a replicate raises, the draw must be dropped unkept.
    """

    def __init__(self, n: int, alphas: list[float], plan: SimPlan, cache) -> None:
        if n < 3:
            raise ValueError(f"n must be at least 3, got {n!r}")
        self.n, self.plan, self.cache = n, plan, cache
        self.alphas = [_check_alpha(a) for a in alphas]
        self.filed = {} if cache is None else {a: cache.lookup(n, a, plan) for a in self.alphas}
        self.found = {a: self.filed.get(a) or _MC_MEMO.get((n, a, plan)) for a in self.alphas}
        missing = [a for a, est in self.found.items() if est is None]
        self.levels = list(dict.fromkeys([*missing, *TABLE1_LEVELS]))
        self.reps = plan.reps_outer if missing else 0
        self.roots = np.empty((len(self.levels), self.reps))

    def replicate(self, j: int) -> None:
        draws = t2_null_draws(StreamKey(self.plan.master_seed, j), self.n, self.plan.reps_inner)
        draws.sort()
        for i, alpha in enumerate(self.levels):
            self.roots[i, j] = math.sqrt(_quantile_sorted(draws, 1.0 - alpha))

    def keep(self) -> list[CriticalValueEstimate]:
        n, plan = self.n, self.plan
        if self.reps:
            for key in [key for key in list(_MC_MEMO) if key[2] != plan]:
                _MC_MEMO.pop(key, None)
            for alpha, roots in zip(self.levels, self.roots):
                sd = float(np.std(roots, ddof=1)) if self.reps > 1 else 0.0
                est = CriticalValueEstimate(n, alpha, float(np.mean(roots)), sd, EXACT_MC)
                _MC_MEMO[(n, alpha, plan)] = est
                self.found[alpha] = self.found.get(alpha) or est
        for a, hit in self.filed.items():
            if hit is None:
                self.cache.store(self.found[a], plan)
        return [self.found[a] for a in self.alphas]


def critical_values_mc_multi(
    n: int, alphas: list[float], plan: SimPlan, cache: CriticalValueCache | None = None
) -> list[CriticalValueEstimate]:
    """Exact-MC critical values for several levels from one set of draws.

    The T^2 draws are keyed by (master_seed, outer index) only, so the
    levels share draws and the result for each alpha is identical to a
    standalone critical_value_mc call with the same plan.

    Each level is served, in order, from the cache file when it holds the
    key, else from the estimates kept in process for the plan drawn last.
    If any level is in neither, the replicate loop runs once for those
    levels together with TABLE1_LEVELS and every estimate it makes is kept.
    Each asked level the file lacked is then appended to it. A helper
    thread started for the draw takes the odd replicates and has ended when
    this returns. If either half raises, the other stops at its next
    replicate and the first error is raised; nothing is kept or appended
    (see stochastics._split_items).
    """
    draw = _PendingDraw(n, alphas, plan, cache)
    _split_items(draw.reps, draw.replicate)
    return draw.keep()


def critical_value_mc(n: int, alpha: float, plan: SimPlan) -> CriticalValueEstimate:
    """Exact critical value by the nested Monte Carlo; deterministic given plan."""
    return critical_values_mc_multi(n, [alpha], plan)[0]


def critical_value_normal(n: int, alpha: float) -> CriticalValueEstimate:
    """Asymptotic critical value z_{1-alpha/2} * sqrt((n-2)/((n-3)(n-4))).

    The square root is the standard deviation of T under the four-factor
    ratio law (see exactnull.expected_t2), not under the data null law.
    """
    if n <= 4:
        raise ValueError(f"n must exceed 4 for the normal approximation, got {n!r}")
    _check_alpha(alpha)
    z = normal_quantile(1.0 - 0.5 * alpha)
    value = z * math.sqrt((n - 2) / ((n - 3) * (n - 4)))
    return CriticalValueEstimate(n=n, alpha=alpha, value=value, sd=0.0, method=NORMAL_APPROX)


def table1(n_values, plan: SimPlan, cache: CriticalValueCache | None = None) -> list[dict]:
    """Rows of the critical-value table (both methods, levels 10/5/1 percent)."""
    rows = []
    for n in n_values:
        if not 5 <= n <= 10**6:
            raise ValueError(f"table rows need 5 <= n <= 1e6, got {n!r}")
        exact = critical_values_mc_multi(n, list(TABLE1_LEVELS), plan, cache)
        rows.append(
            {
                "samplesize": n,
                "normal10": critical_value_normal(n, 0.10).value,
                "criticalvalue10": exact[0].value,
                "normal5": critical_value_normal(n, 0.05).value,
                "criticalvalue5": exact[1].value,
                "normal1": critical_value_normal(n, 0.01).value,
                "criticalvalue1": exact[2].value,
            }
        )
    return rows


class CriticalValueCache:
    """Plain-text store of exact-MC estimates, one record per line.

    Line format (whitespace-separated, full float precision):

        n alpha reps_inner reps_outer master_seed value sd

    Corrupted lines are skipped on load; a recomputed record for an existing
    key is appended and the latest record wins, which gives overwrite
    semantics without rewriting the file. The file is parsed on every
    lookup and nothing is kept between calls, so a lookup sees lines other
    instances or processes append and a cleared file. I/O failures degrade
    to recomputation with a warning rather than aborting the caller.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    @staticmethod
    def _key(n: int, alpha: float, plan: SimPlan) -> tuple:
        return (n, repr(float(alpha)), plan.reps_inner, plan.reps_outer, plan.master_seed)

    def _load(self) -> dict:
        records: dict = {}
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            text = ""
        for line in text.splitlines():
            parts = line.split()
            if len(parts) != 7:
                continue
            try:
                n = int(parts[0])
                alpha = float(parts[1])
                inner = int(parts[2])
                outer = int(parts[3])
                seed = int(parts[4])
                value = float(parts[5])
                sd = float(parts[6])
            except ValueError:
                continue
            if not (value > 0.0 and sd >= 0.0 and 0.0 < alpha < 1.0):
                continue
            records[(n, repr(alpha), inner, outer, seed)] = (value, sd)
        return records

    def lookup(self, n: int, alpha: float, plan: SimPlan) -> CriticalValueEstimate | None:
        try:
            hit = self._load().get(self._key(n, alpha, plan))
        except OSError as exc:
            warnings.warn(f"critical-value cache unreadable ({exc}); recomputing")
            return None
        if hit is None:
            return None
        return CriticalValueEstimate(n=n, alpha=float(alpha), value=hit[0], sd=hit[1], method=EXACT_MC)

    def store(self, est: CriticalValueEstimate, plan: SimPlan) -> None:
        line = (
            f"{est.n} {float(est.alpha)!r} {plan.reps_inner} {plan.reps_outer} "
            f"{plan.master_seed} {est.value!r} {est.sd!r}\n"
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(line)
        except OSError as exc:
            warnings.warn(f"critical-value cache unwritable ({exc}); result not persisted")


def cached_critical_value(
    n: int, alpha: float, plan: SimPlan, cache: CriticalValueCache | None = None
) -> CriticalValueEstimate:
    """Exact-MC critical value, served from the cache when the key matches."""
    return critical_values_mc_multi(n, [alpha], plan, cache)[0]
