"""Slope-test power simulation and sample-size search.

The rejection law of T = b1_hat * sx_hat / s_hat depends on the parameters
only through the effect size lam = beta1 * sigma_x / sigma_eps, and given
the predictors sqrt(n - 1) * T is noncentral t(n - 2, lam * sqrt(S_XX)). So
a trial is drawn from the exact unconditional law of T, three variates and
no data:

    sqrt(n - 1) * T = (lam * sqrt(S) + Z) / sqrt(W / (n - 2)),

with S = S_XX ~ chi2(n - 1), W = RSS ~ chi2(n - 2) and Z ~ N(0, 1)
independent. A run of trials (one power estimate) reads S, W and Z each
from its own stream, keyed by the run's first task id, so every estimate is
bit-reproducible and costs O(trials) at any n. No stream's key depends on
n, so neighbouring sizes share their underlying draws (common random
numbers). S and W are positive, so no trial can degenerate. The data
simulation of the same test, a least-squares fit on bivariate-normal
samples, is the correlation route's Monte Carlo oracle (corroute).

The sample-size search starts at the correlation route's deterministic
Fisher-z sample size, which needs no simulation, and returns a crossing
found outward from it: an n whose validated mean power clears the target
minus a slack band (half the binomial noise of one power estimate, at most
0.005) while that of n - 1 does not, the smallest such n when the validated
mean is monotone in n. Validation replays the estimate across
plan.reps_outer independent runs of plan.reps_inner trials each. Run v has
the same task keys at every n, so a search simulates each run at each n at
most once: run powers are memoized per n, and a full validation extends its
scout instead of repeating it. New runs are drawn one scout's worth at a
time, as the rows of a block split between two threads, and scored in one
pass. Critical values are looked up only at the sizes the search validates,
once per size; a miss is drawn in the split of the size's first block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critvals import CriticalValueCache, CriticalValueEstimate, _PendingDraw
from .critvals import cached_critical_value  # noqa: F401  (the benchmark tracer wraps it by name)
from .stochastics import (
    VALIDATION_TASK_BASE,
    SimPlan,
    StreamKey,
    _split_items,
    chisq_array,
    normal_array,
)
from .stochastics import normal_matrix  # noqa: F401  (the benchmark tracer wraps it by name)

__all__ = [
    "SearchFailureError",
    "PowerEstimate",
    "SampleSizeResult",
    "simulate_power_slope",
    "find_sample_size_slope",
    "power_table",
    "POWER_SLACK",
]

# widest slack band under the target power accepted at validation time;
# the working band shrinks with the binomial noise of one power estimate
# (see _search_slack), which keeps flat high-power curves from being
# undershot by many sample-size units
POWER_SLACK = 0.005


def _search_slack(target: float, trials: int) -> float:
    return min(POWER_SLACK, 0.5 * math.sqrt(target * (1.0 - target) / trials))


# stream roles of one slope run: S_XX ~ chi2(n - 1), RSS ~ chi2(n - 2) and
# the standard normal slope error
_S_STREAM = 102
_W_STREAM = 103
_Z_STREAM = 104


class SearchFailureError(RuntimeError):
    """A search passed its ceiling short of the target, or a trial was degenerate."""


@dataclass(frozen=True)
class PowerEstimate:
    n: int
    alpha: float
    lam: float
    power: float
    sd: float


@dataclass(frozen=True)
class SampleSizeResult:
    n: int
    target_power: float
    validated_mean: float
    validated_sd: float
    route: str


def _check_lam(lam: float) -> None:
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")


def _run_tasks(n: int, lam: float, tasks) -> range | np.ndarray:
    """tasks as a range or an int64 array, after checking one run's arguments.

    Raises ValueError unless tasks is a nonempty range of consecutive task
    ids, n is at least 4 and lam is finite. A range is checked in O(1).
    """
    if isinstance(tasks, range):
        consecutive = len(tasks) > 0 and (len(tasks) == 1 or tasks.step == 1)
    else:
        tasks = np.asarray(tasks, dtype=np.int64)
        consecutive = tasks.ndim == 1 and tasks.size > 0 and not np.any(np.diff(tasks) != 1)
    if not consecutive:
        raise ValueError("tasks must be a nonempty range of consecutive task ids")
    _check_lam(lam)
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n!r}")
    return tasks


def _draw_run(n: int, master_seed: int, first_task: int, block, row: int) -> None:
    """Draw the S, W and Z of the run keyed by first_task into row `row` of block."""
    s, w, z = block
    trials = s.shape[1]
    key = StreamKey(master_seed, first_task)
    s[row] = chisq_array(key.with_stream(_S_STREAM), n - 1, trials)
    w[row] = chisq_array(key.with_stream(_W_STREAM), n - 2, trials)
    z[row] = normal_array(key.with_stream(_Z_STREAM), trials)


def _slope_t_rows(n: int, lam: float, master_seed: int, first_tasks, trials: int, draw=None):
    """t_slope values of runs of `trials` trials, one row per first task id.

    The rows are drawn as items of one split, after the replicates of a
    critvals._PendingDraw if given (the caller keeps it), then transformed.
    """
    reps = 0 if draw is None else draw.reps
    s, w, z = block = tuple(np.empty((len(first_tasks), trials)) for _ in range(3))

    def item(i: int) -> None:
        if i < reps:
            draw.replicate(i)
        else:
            _draw_run(n, master_seed, first_tasks[i - reps], block, i - reps)

    _split_items(reps + len(first_tasks), item)
    # (lam * sqrt(s) + z) / sqrt(w / (n - 2)) / sqrt(n - 1), in place
    np.sqrt(s, out=s)
    s *= lam
    s += z
    w /= n - 2
    np.sqrt(w, out=w)
    s /= w
    s /= math.sqrt(n - 1)
    return s


def slope_t_batch(n: int, lam: float, master_seed: int, tasks) -> np.ndarray:
    """t_slope values of one run, one per task id, from the law of T.

    Trial i is (lam * sqrt(S_i) + Z_i) / sqrt(W_i / (n - 2)) / sqrt(n - 1),
    with S = chisq_array(..., n - 1), W = chisq_array(..., n - 2) and Z =
    normal_array(...) read from the streams (master_seed, tasks[0], role)
    of roles 102, 103 and 104. tasks (a range or an array) must be
    consecutive, so runs with disjoint task ranges are independent. n must
    be at least 4 and lam finite (else ValueError). A search's validation
    runs are the rows of blocks drawn the same way.
    """
    tasks = _run_tasks(n, lam, tasks)
    return _slope_t_rows(n, lam, master_seed, [int(tasks[0])], len(tasks))[0]


def check_slope_power_args(n: int, lam: float) -> None:
    """Raise the ValueError simulate_power_slope would raise for n or lam.

    A caller that draws the critical value first calls this before the draw.
    """
    if n < 5:
        raise ValueError(f"n must be at least 5, got {n!r}")
    _check_lam(lam)


def simulate_power_slope(
    n: int,
    lam: float,
    alpha: float,
    c: CriticalValueEstimate,
    reps: int,
    master_seed: int,
    task_base: int = 0,
) -> PowerEstimate:
    """Rejection rate of |t_slope| > c.value over reps simulated samples.

    task_base selects the replicate keys, so runs with distinct bases are
    independent and runs with equal bases share draws (common random
    numbers).
    """
    check_slope_power_args(n, lam)
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps!r}")
    t_vals = slope_t_batch(n, lam, master_seed, range(task_base, task_base + reps))
    power = float(np.count_nonzero(np.abs(t_vals) > c.value)) / reps
    sd = math.sqrt(power * (1.0 - power) / reps)
    return PowerEstimate(n=n, alpha=alpha, lam=lam, power=power, sd=sd)


@dataclass
class _Validation:
    mean: float
    sd: float
    runs: int


class _SlopeSearch:
    """State shared across one sample-size search (the validation runs drawn)."""

    def __init__(
        self,
        lam: float,
        alpha: float,
        target: float,
        plan: SimPlan,
        cache: CriticalValueCache | None,
        critval_plan: SimPlan,
    ) -> None:
        self.lam = lam
        self.alpha = alpha
        self.target = target
        self.plan = plan
        self.cache = cache
        self.critval_plan = critval_plan
        self.threshold = target - _search_slack(target, plan.reps_inner)
        self.scout_runs = min(50, plan.reps_outer)
        # powers of validation runs 0, 1, ... at each n; lists only grow
        self._powers: dict[int, list[float]] = {}
        self._critvals: dict[int, float] = {}  # at each n validated

    def validate(self, n: int, runs: int) -> _Validation:
        """Mean and sd of the first `runs` validation runs at n.

        Only runs not yet simulated at n are drawn, so a full validation
        extends its scout; they are drawn scout_runs at a time. The critical
        value at n is looked up once: a miss is drawn in the split of the
        first block and kept before its runs are scored.
        """
        trials = self.plan.reps_inner
        powers = self._powers.setdefault(n, [])
        draw = None
        if n not in self._critvals:
            draw = _PendingDraw(n, [self.alpha], self.critval_plan, self.cache)
        while len(powers) < runs or draw is not None:
            v = range(len(powers), min(runs, len(powers) + self.scout_runs))
            tasks = [VALIDATION_TASK_BASE + i * trials for i in v]
            t_abs = np.abs(_slope_t_rows(n, self.lam, self.plan.master_seed, tasks, trials, draw))
            if draw is not None:
                self._critvals[n] = draw.keep()[0].value
                draw = None
            rejects = np.count_nonzero(t_abs > self._critvals[n], axis=1)
            powers.extend((rejects / trials).tolist())
        head = np.array(powers[:runs])
        sd = float(np.std(head, ddof=1)) if runs > 1 else 0.0
        return _Validation(mean=float(np.mean(head)), sd=sd, runs=runs)

    def full_validate(self, n: int) -> _Validation:
        return self.validate(n, self.plan.reps_outer)

    def passes(self, n: int) -> bool:
        """Does n clear the validated threshold? Scout first, full depth if close."""
        scout = self.validate(n, self.scout_runs)
        if self.scout_runs < self.plan.reps_outer:
            margin = 3.0 * scout.sd / math.sqrt(self.scout_runs)
            if scout.mean >= self.threshold + margin:
                return True
            if scout.mean < self.threshold - margin:
                return False
        return self.full_validate(n).mean >= self.threshold


def _refine_validated(passes, start: int, n_ceiling: int, failure: str) -> int:
    """An n that passes while n - 1 fails, found outward from start (>= 5).

    Steps by 1, 2, 4, ... down while sizes pass (4 counts as failing) or up
    to n_ceiling while they fail (else SearchFailureError(failure)), then
    bisects; O(log) calls on a flat power curve. The crossing is the
    smallest passing n only when passes is monotone in n.
    """
    if passes(start):
        passing = start
        step = 1
        failing = 4
        while passing > 5:
            trial = max(5, passing - step)
            if passes(trial):
                passing = trial
                step *= 2
            else:
                failing = trial
                break
    else:
        failing = start
        step = 1
        while True:
            if failing >= n_ceiling:
                raise SearchFailureError(failure)
            trial = min(failing + step, n_ceiling)
            if passes(trial):
                passing = trial
                break
            failing = trial
            step *= 2
    while passing - failing > 1:
        mid = (failing + passing) // 2
        if passes(mid):
            passing = mid
        else:
            failing = mid
    return passing


def find_sample_size_slope(
    lam: float,
    alpha: float,
    target: float,
    plan: SimPlan,
    *,
    cache: CriticalValueCache | None = None,
    critval_plan: SimPlan | None = None,
    n_ceiling: int = 10**6,
) -> SampleSizeResult:
    """Sample size whose validated mean power clears target minus the slack band.

    Starts at the correlation route's Fisher-z sample size (no simulation)
    and refines on validations with _refine_validated, so n clears and n - 1
    does not. The returned mean and sd come from a full validation
    (plan.reps_outer independent runs) at the final n. Critical values are
    exact-MC, from critvals' in-process store or a fresh draw (and from
    cache first when one is passed); pass critval_plan to control their
    replication counts. Raises SearchFailureError, before any simulation,
    when the Fisher-z sample size exceeds n_ceiling.
    """
    if lam == 0.0:
        raise ValueError("effect size must be nonzero")
    if not 0.0 < target < 1.0:
        raise ValueError(f"target power must lie inside (0, 1), got {target!r}")
    if critval_plan is None:
        critval_plan = SimPlan(reps_inner=10_000, reps_outer=200, master_seed=plan.master_seed)
    # imported here: corroute imports the search and the run checks from this module
    from .corroute import find_sample_size_corr, lambda_to_rho

    # the correlation power is even in rho, which rounds to 1 for |lam| above ~1e8
    rho = min(abs(lambda_to_rho(lam)), math.nextafter(1.0, 0.0))
    try:
        start = find_sample_size_corr(rho, alpha, target, n_ceiling=n_ceiling).n
    except SearchFailureError:
        raise SearchFailureError(
            f"the correlation route needs more than n_ceiling={n_ceiling} observations"
            f" for power {target} at lam={lam}, alpha={alpha}"
        ) from None
    search = _SlopeSearch(lam, alpha, target, plan, cache, critval_plan)
    failure = f"validated power never reached {search.threshold} below n={n_ceiling}"
    cand = _refine_validated(search.passes, start, n_ceiling, failure)
    final = search.full_validate(cand)
    # a scout can (rarely) pass a candidate the full validation rejects
    while final.mean < search.threshold:
        cand += 1
        if cand > n_ceiling:
            raise SearchFailureError(failure)
        final = search.full_validate(cand)
    return SampleSizeResult(
        n=cand,
        target_power=target,
        validated_mean=final.mean,
        validated_sd=final.sd,
        route="slope",
    )


def power_table(
    alpha: float,
    lambdas,
    targets,
    plan: SimPlan,
    *,
    critval_plan: SimPlan | None = None,
) -> list[dict]:
    """Sample-size rows {lambda, power, n, mean, sd} over a lambda x target grid."""
    rows = []
    for lam in lambdas:
        for target in targets:
            res = find_sample_size_slope(lam, alpha, target, plan, critval_plan=critval_plan)
            rows.append(
                {
                    "lambda": lam,
                    "power": target,
                    "n": res.n,
                    "mean": res.validated_mean,
                    "sd": res.validated_sd,
                }
            )
    return rows
