"""Slope-test power simulation and sample-size search.

Data generation follows the reduced form of the model: the rejection law of
T = b1_hat * sx_hat / s_hat depends on the parameters only through the
effect size lam = beta1 * sigma_x / sigma_eps, so replicates are drawn with
sigma_x = sigma_eps = 1, mu_x = beta0 = 0 and beta1 = lam. A run of trials
(one power estimate) reads its predictors from one stream and its noise
from another, both keyed by the run's first task id, as blocks with one row
per observation and one column per trial. This makes every estimate
bit-reproducible and gives common random numbers across sample sizes for
free: the draws at a smaller n are the first rows of the draws at a larger
n, and running sums of x, e, x^2, x*e and e^2 are added block by block so
that the t values cut at a smaller n are bit-identical to a run drawn at
that n. The fit is closed on e alone, so the effect size enters only the
final slope estimate.

The sample-size search starts at the correlation route's deterministic
Fisher-z sample size, which needs no simulation, and returns a crossing
found outward from it: an n whose validated mean power clears the target
minus a slack band (half the binomial noise of one power estimate, at most
0.005) while that of n - 1 does not, the smallest such n when the validated
mean is monotone in n. Validation replays the estimate across
plan.reps_outer independent runs of plan.reps_inner trials each. Run v has
the same task keys at every n, so a search simulates each run at each n at
most once: run powers are memoized per n, and a full validation extends its
scout instead of repeating it. A scout that starts a fresh n also takes,
from the same draws, the runs' t values at the few sizes just below n that
the refinement steps to next (see _SCOUT_WINDOW), and scores them when the
search first asks for one of those sizes. Critical values are computed only
at the sizes the search validates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .critvals import (
    CriticalValueCache,
    CriticalValueEstimate,
    cached_critical_value,
)
from .stochastics import VALIDATION_TASK_BASE, SimPlan, StreamKey, generator
from .stochastics import normal_matrix  # noqa: F401  (the benchmark tracer wraps it by name)

__all__ = [
    "FitError",
    "DegenerateXError",
    "PerfectFitError",
    "SpreadUnderflowError",
    "SearchFailureError",
    "FitStats",
    "PowerEstimate",
    "SampleSizeResult",
    "SimDiagnostics",
    "fit_slope_stats",
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


# stream roles (predictor, noise) of one slope run; the retry k of a
# degenerate trial shifts both by 2k. The correlation route passes its own
# pair to the same kernel.
_X_STREAM = 100
_EPS_STREAM = 101
_SLOPE_ROLES = (_X_STREAM, _EPS_STREAM)
_MAX_RETRIES = 64

# variates per block array: a run is read max(1, _CHUNK_VARIATES // trials)
# observations at a time and each block's sums are added to running sums,
# which bounds memory for any n; the block size depends only on the trial
# count, so a prefix of a run is bit-identical to a shorter run
_CHUNK_VARIATES = 4096 * 64

# sizes below a fresh scout whose run powers come from the scout's draws.
# From a passing start the refinement tries start-1, then start-3, then
# bisects between them, so these are the sizes it asks for next.
_SCOUT_WINDOW = 3


class FitError(ValueError):
    """The least-squares fit does not admit the slope t statistic."""


class DegenerateXError(FitError):
    """All predictor values coincide (S_XX = 0)."""


class PerfectFitError(FitError):
    """Residual sum of squares is zero, so the t statistics are undefined."""


class SpreadUnderflowError(FitError):
    """S_XX * S_YY is subnormal or zero, so the correlation loses precision."""


class SearchFailureError(RuntimeError):
    """Sample-size search exceeded its ceiling without reaching the target."""


@dataclass(frozen=True)
class FitStats:
    """Least-squares summary of one (x, y) sample."""

    n: int
    beta1_hat: float
    sigma_hat: float
    sigma_x_hat: float
    t_slope: float
    rho_hat: float
    t_corr: float
    sxx: float
    sxy: float
    rss: float


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


@dataclass
class SimDiagnostics:
    """Counters for rare events during simulation."""

    resampled: int = 0


def fit_slope_stats(xs, ys) -> FitStats:
    """Least-squares slope fit with both t statistics.

    t_slope is beta1_hat * sigma_x_hat / sigma_hat; t_corr is the
    correlation statistic sqrt(n-2) * rho_hat / sqrt(1 - rho_hat^2). The two
    satisfy t_corr^2 = (n-1) * t_slope^2 for every non-degenerate sample.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be 1-d sequences of equal length")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    sxy = float(dx @ dy)
    syy = float(dy @ dy)
    if sxx == 0.0:
        raise DegenerateXError("all predictor values are equal (S_XX = 0)")
    beta1_hat = sxy / sxx
    rss = syy - sxy * sxy / sxx
    if rss <= 0.0:
        raise PerfectFitError("residual sum of squares is zero; t statistics undefined")
    sigma_hat = math.sqrt(rss / (n - 2))
    sigma_x_hat = math.sqrt(sxx / (n - 1))
    t_slope = beta1_hat * sigma_x_hat / sigma_hat
    sxx_syy = sxx * syy
    if sxx_syy < sys.float_info.min:
        raise SpreadUnderflowError("S_XX * S_YY underflows; the sample spread is too small")
    rho_hat = max(-1.0, min(1.0, sxy / math.sqrt(sxx_syy)))
    # 1 - rho^2 = RSS / S_YY algebraically; this form cannot cancel to zero
    # for near-collinear data the way 1 - rho_hat**2 can
    t_corr = math.sqrt((n - 2) * syy / rss) * rho_hat
    return FitStats(
        n=n,
        beta1_hat=beta1_hat,
        sigma_hat=sigma_hat,
        sigma_x_hat=sigma_x_hat,
        t_slope=t_slope,
        rho_hat=rho_hat,
        t_corr=t_corr,
        sxx=sxx,
        sxy=sxy,
        rss=rss,
    )


def _block_sums(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per-column (sum x, sum e, sum x^2, sum x*e, sum e^2) of a block, shape (5, trials)."""
    return np.array(
        [
            x.sum(axis=0),
            e.sum(axis=0),
            np.einsum("ij,ij->j", x, x),
            np.einsum("ij,ij->j", x, e),
            np.einsum("ij,ij->j", e, e),
        ]
    )


def _slope_t_prefixes(
    lengths,
    lam: float,
    master_seed: int,
    tasks,
    diagnostics: SimDiagnostics | None,
    roles: tuple[int, int],
) -> list[np.ndarray]:
    """t_slope values at every sample size in lengths, one array per size.

    tasks is one run: a range of consecutive task ids, one per trial, fitted
    by _fit_run on the streams of tasks[0]. A degenerate trial is redrawn by
    _resample_replicate on its own task id.
    """
    tasks = np.asarray(tasks, dtype=np.int64)
    if tasks.ndim != 1 or tasks.size == 0 or np.any(np.diff(tasks) != 1):
        raise ValueError("tasks must be a nonempty range of consecutive task ids")
    fits = _fit_run(lengths, lam, master_seed, int(tasks[0]), tasks.size, roles)
    for m, (t, bad) in zip(lengths, fits):
        for i in np.flatnonzero(bad):
            t[i] = _resample_replicate(m, lam, master_seed, int(tasks[i]), diagnostics, roles)
    return [t for t, _ in fits]


def _fit_run(
    lengths, lam: float, master_seed: int, task: int, trials: int, roles: tuple[int, int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(t_slope, degenerate) per size in lengths, for one run of trials trials.

    x comes from the stream (master_seed, task, roles[0]) and e from
    (master_seed, task, roles[1]), each read as blocks of R = max(1,
    _CHUNK_VARIATES // trials) rows, one row per observation and one column
    per trial, so memory is bounded for any n; the response is lam * x + e.
    Each block's sums of x, e, x^2, x*e and e^2 are added to running sums,
    and the value at m adds the first m - kR rows of block k to the sums of
    the full blocks below it. As R depends only on the trial count, a size
    m is bit-identical to a run drawn at m (common random numbers). The fit
    is closed on e alone: the residuals of y on x are those of e, so RSS =
    S_EE - S_XE^2 / S_XX and beta1_hat = lam + S_XE / S_XX, free of
    cancellation at any lam. Degenerate trials (zero S_XX or zero RSS, a
    probability-zero event) are flagged, not redrawn.
    """
    rows = max(1, _CHUNK_VARIATES // trials)
    n = max(lengths)
    x_gen = generator(StreamKey(master_seed, task, roles[0]))
    e_gen = generator(StreamKey(master_seed, task, roles[1]))
    sums: dict[int, np.ndarray] = {}
    total = np.zeros((5, trials))  # sums over the full blocks read so far
    for start in range(0, n, rows):
        size = min(rows, n - start)
        x = x_gen.standard_normal((size, trials))
        e = e_gen.standard_normal((size, trials))
        for cut in {m - start for m in lengths if start < m <= start + size}:
            sums[start + cut] = total + _block_sums(x[:cut], e[:cut])
        if start + size < n:
            full = sums.get(start + rows)
            total = full if full is not None else total + _block_sums(x, e)
    out = []
    for m in lengths:
        # one-pass sums lose nothing to cancellation here: x and e are
        # mean-zero normals (mu_x = beta0 = 0 in the reduced model), so
        # (sum x)^2 / m is O(1) against sum x^2 ~ m, and likewise for e
        sx, se, sxx, sxe, see = sums[m]
        sxx = sxx - sx * sx / m
        sxe = sxe - sx * se / m
        see = see - se * se / m
        with np.errstate(divide="ignore", invalid="ignore"):
            rss = see - sxe * sxe / sxx
            t = (lam + sxe / sxx) * np.sqrt(sxx / (m - 1)) / np.sqrt(rss / (m - 2))
        out.append((t, (sxx == 0.0) | (rss <= 0.0)))
    return out


def slope_t_batch(
    n: int,
    lam: float,
    master_seed: int,
    tasks: np.ndarray,
    diagnostics: SimDiagnostics | None = None,
) -> np.ndarray:
    """t_slope values of one run, one per task id (see _slope_t_prefixes).

    tasks must be consecutive; the run's draws are keyed by tasks[0], so
    runs with disjoint task ranges are independent. Memory is bounded for
    any n, and degenerate replicates are redrawn, so the batch size stays.
    """
    return _slope_t_prefixes((n,), lam, master_seed, tasks, diagnostics, _SLOPE_ROLES)[0]


def _resample_replicate(
    n: int,
    lam: float,
    master_seed: int,
    task: int,
    diagnostics: SimDiagnostics | None,
    roles: tuple[int, int],
) -> float:
    """t_slope of a degenerate replicate, redrawn as a one-trial run.

    Retry k is _fit_run of the replicate's own task id alone, with both
    roles shifted by 2k; the first retry that is not degenerate gives t.
    """
    for attempt in range(1, _MAX_RETRIES + 1):
        if diagnostics is not None:
            diagnostics.resampled += 1
        shifted = (roles[0] + 2 * attempt, roles[1] + 2 * attempt)
        [(t, bad)] = _fit_run((n,), lam, master_seed, task, 1, shifted)
        if not bad[0]:
            return t[0]
    raise SearchFailureError(f"replicate {task} stayed degenerate after {_MAX_RETRIES} retries")


def simulate_power_slope(
    n: int,
    lam: float,
    alpha: float,
    c: CriticalValueEstimate,
    reps: int,
    master_seed: int,
    task_base: int = 0,
    diagnostics: SimDiagnostics | None = None,
) -> PowerEstimate:
    """Rejection rate of |t_slope| > c.value over reps simulated samples.

    task_base selects the replicate keys, so runs with distinct bases are
    independent and runs with equal bases share draws (common random
    numbers).
    """
    if n < 5:
        raise ValueError(f"n must be at least 5, got {n!r}")
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps!r}")
    tasks = np.arange(task_base, task_base + reps, dtype=np.int64)
    t_vals = slope_t_batch(n, lam, master_seed, tasks, diagnostics)
    power = float(np.count_nonzero(np.abs(t_vals) > c.value)) / reps
    sd = math.sqrt(power * (1.0 - power) / reps)
    return PowerEstimate(n=n, alpha=alpha, lam=lam, power=power, sd=sd)


@dataclass
class _Validation:
    mean: float
    sd: float
    runs: int


class _SlopeSearch:
    """State shared across one sample-size search (validations, critical values)."""

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
        self.diagnostics = SimDiagnostics()
        # powers of validation runs 0, 1, ... at each n; lists only grow
        self._powers: dict[int, list[float]] = {}
        # |t| of the scout runs a fresh scout drew for a size below it, kept
        # unscored until the search asks for that size (see validate)
        self._window_abs_t: dict[int, list[np.ndarray]] = {}
        self._max_failed = 0
        self._critvals: dict[int, CriticalValueEstimate] = {}

    def critval(self, n: int) -> CriticalValueEstimate:
        if n not in self._critvals:
            self._critvals[n] = cached_critical_value(
                n, self.alpha, self.critval_plan, self.cache
            )
        return self._critvals[n]

    def validate(self, n: int, runs: int, window=()) -> _Validation:
        """Mean and sd of the first `runs` validation runs at n.

        Only runs not yet simulated at n are drawn. Their draws also give
        the same runs' |t| values at each size in window, which the caller
        keeps to sizes below n with no runs yet; those are scored against
        their critical value only once the search asks for that size, so a
        window size it never asks for costs no critical value.
        """
        trials = self.plan.reps_inner
        c = self.critval(n).value
        powers = self._powers.setdefault(n, [])
        pending = self._window_abs_t.pop(n, [])
        powers.extend(np.count_nonzero(abs_t > c) / trials for abs_t in pending)
        lengths = (n, *window)
        for v in range(len(powers), runs):
            base = VALIDATION_TASK_BASE + v * trials
            tasks = np.arange(base, base + trials, dtype=np.int64)
            t_n, *t_window = _slope_t_prefixes(
                lengths, self.lam, self.plan.master_seed, tasks, self.diagnostics, _SLOPE_ROLES
            )
            powers.append(np.count_nonzero(np.abs(t_n) > c) / trials)
            for m, t_vals in zip(window, t_window):
                self._window_abs_t.setdefault(m, []).append(np.abs(t_vals))
        head = np.array(powers[:runs])
        sd = float(np.std(head, ddof=1)) if runs > 1 else 0.0
        return _Validation(mean=float(np.mean(head)), sd=sd, runs=runs)

    def full_validate(self, n: int) -> _Validation:
        return self.validate(n, self.plan.reps_outer)

    def _window(self, n: int) -> list[int]:
        """Sizes whose scout runs a fresh scout at n can take from its draws."""
        drawn = self._powers.keys() | self._window_abs_t.keys()
        if n in drawn:
            return []
        below = range(n - 1, n - 1 - _SCOUT_WINDOW, -1)
        return [m for m in below if m >= 5 and m > self._max_failed and m not in drawn]

    def passes(self, n: int) -> bool:
        """Does n clear the validated threshold? Scout first, full depth if close."""
        if self._clears(n):
            return True
        self._max_failed = max(self._max_failed, n)
        return False

    def _clears(self, n: int) -> bool:
        scout = self.validate(n, self.scout_runs, self._window(n))
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
    exact-MC by default, served through the cache; pass critval_plan to
    control their replication counts. Raises SearchFailureError, before any
    simulation, when the Fisher-z sample size exceeds n_ceiling.
    """
    if lam == 0.0:
        raise ValueError("effect size must be nonzero")
    if not 0.0 < target < 1.0:
        raise ValueError(f"target power must lie inside (0, 1), got {target!r}")
    if critval_plan is None:
        critval_plan = SimPlan(reps_inner=10_000, reps_outer=200, master_seed=plan.master_seed)
    # imported here: corroute imports the replicate kernel and the search from this module
    from .corroute import find_sample_size_corr, lambda_to_rho

    # the correlation power is even in rho, which rounds to 1 for |lam| above ~1e8
    rho = min(abs(lambda_to_rho(lam)), math.nextafter(1.0, 0.0))
    try:
        start = find_sample_size_corr(rho, alpha, target, plan, n_ceiling=n_ceiling).n
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
    cache: CriticalValueCache | None = None,
    critval_plan: SimPlan | None = None,
) -> list[dict]:
    """Sample-size rows {lambda, power, n, mean, sd} over a lambda x target grid."""
    rows = []
    for lam in lambdas:
        for target in targets:
            res = find_sample_size_slope(
                lam, alpha, target, plan, cache=cache, critval_plan=critval_plan
            )
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
