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
final slope estimate. A degenerate trial (S_XX = 0 or RSS <= 0, a
probability-zero event) fails the run with SearchFailureError, which names
the trial's task id and n.

Work reaches the package's helper thread only through
stochastics._split_items, which runs even items on the caller and odd ones
on the helper. A validation's runs are its items, each run drawn and scored
whole on one thread. A lone run, as in simulate_power_slope, slope_t_batch
or the correlation route, splits each block into two items, its predictor
block on the caller and its noise block on the helper; inside a
validation's split that nested split runs inline. Every stream is still
read by a single thread, in the same order and block shapes, so no value
depends on the helper.

The sample-size search starts at the correlation route's deterministic
Fisher-z sample size, which needs no simulation, and returns a crossing
found outward from it: an n whose validated mean power clears the target
minus a slack band (half the binomial noise of one power estimate, at most
0.005) while that of n - 1 does not, the smallest such n when the validated
mean is monotone in n. Validation replays the estimate across
plan.reps_outer independent runs of plan.reps_inner trials each. Run v has
the same task keys at every n, so a search simulates each run at each n at
most once: run powers are memoized per n, and a full validation extends its
scout instead of repeating it. The draws of a validation also give the same
runs' t values at a window of sizes around n, kept unscored until the
search first asks for one of them (see _SCOUT_WINDOW): a scout that starts
a fresh n takes the few sizes just below n that the refinement steps to
from a passing n, and every validation that draws runs takes n + 1, where
it steps from a failing n, while n + 1 lies below every size known to pass.
Critical values are computed only at the sizes the search validates.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .critvals import (
    CriticalValueCache,
    CriticalValueEstimate,
    cached_critical_value,
)
from .stochastics import (
    VALIDATION_TASK_BASE,
    SimPlan,
    StreamKey,
    _split_items,
    generator,
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


# stream roles (predictor, noise) of one slope run; the correlation route
# passes its own pair to the same kernel
_X_STREAM = 100
_EPS_STREAM = 101
_SLOPE_ROLES = (_X_STREAM, _EPS_STREAM)

# variates per block array: a run is read max(1, _CHUNK_VARIATES // trials)
# observations at a time and each block's sums are added to running sums,
# which bounds memory for any n; the block size depends only on the trial
# count, so a prefix of a run is bit-identical to a shorter run
_CHUNK_VARIATES = 4096 * 64

# sizes below a fresh scout whose run powers come from the scout's draws.
# From a passing start the refinement tries start-1, then start-3, then
# bisects between them, so these are the sizes it asks for next. Above n the
# window is the one size n + 1, which every validation that draws runs also
# cuts while it is open (see _SlopeSearch._above): the refinement steps there
# from a failing n, and the conservative ratio-law critical value puts the
# answer a size or more above the Fisher-z start on most cells.
_SCOUT_WINDOW = 3


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


def _cut_sums(a: np.ndarray, b: np.ndarray | None, cuts: list[int], out: np.ndarray) -> None:
    """Column sums of a * b (of a when b is None) over the first c rows of a
    block, written to out[k] for the k-th cut c in ascending cuts.

    The first cut is reduced whole and each later one adds its own rows, one
    at a time, to the cut before it. numpy reduces the rows of a block one
    after another, so these are the additions, in the same order, that
    reducing a[:c] whole makes: every row is bit-identical to it.
    """
    lo = cuts[0]
    if b is None:
        acc = a[:lo].sum(axis=0, out=out[0])
    else:
        acc = np.einsum("ij,ij->j", a[:lo], b[:lo], out=out[0])
    k = 1
    for row in range(lo, cuts[-1]):
        term = a[row] if b is None else a[row] * b[row]
        if row + 1 == cuts[k]:
            acc = np.add(acc, term, out=out[k])
            k += 1
        else:
            acc = acc + term


def _stream_block(gen, a: np.ndarray, cuts: list[int], out: np.ndarray) -> None:
    """Fill the block a from gen and write its sums of a and a^2 at each
    cut to out[0] and out[1]."""
    gen.standard_normal(out=a)
    _cut_sums(a, None, cuts, out[0])
    _cut_sums(a, a, cuts, out[1])


def _check_lam(lam: float) -> None:
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")


def _slope_t_prefixes(
    lengths, lam: float, master_seed: int, tasks, roles: tuple[int, int]
) -> list[np.ndarray]:
    """t_slope values at every sample size in lengths, one array per size.

    tasks is one run: a range of consecutive task ids, one per trial. x
    comes from the stream (master_seed, tasks[0], roles[0]) and e from
    (master_seed, tasks[0], roles[1]), each read as blocks of R = max(1,
    _CHUNK_VARIATES // trials) rows, one row per observation and one column
    per trial, so memory is bounded for any n; the response is lam * x + e.
    Each block's sums of x, e, x^2, x*e and e^2 are added to running sums,
    and the value at m adds the first m - kR rows of block k to the sums of
    the full blocks below it; within a block, each size past the smallest
    adds its own rows to the size before it (_cut_sums), and t at every
    size is closed in one (sizes x trials) pass. As R depends only on the
    trial count, a size m is bit-identical to a run drawn at m (common
    random numbers). The fit is closed on e alone: the residuals of y on x
    are those of e, so RSS = S_EE - S_XE^2 / S_XX and beta1_hat = lam +
    S_XE / S_XX, free of cancellation at any lam. A degenerate trial (zero
    S_XX or zero RSS, a probability-zero event) raises SearchFailureError
    naming its task id.

    Each block is two items of stochastics._split_items: item 0 fills the
    block of x and takes its sums of x and x^2, item 1 does the same for e
    (_stream_block). Called on its own, the run draws x on this thread and
    e on the helper, and numpy releases the GIL while it fills normals, so
    the two draws run on two cores; called inside a split's half, as a
    validation run is, it draws both on this thread. Each stream is still
    read by one thread, in the same order and in the same block shapes, so
    the values are bit-identical either way. An error raised while drawing
    either block reaches the caller unchanged.
    """
    tasks = np.asarray(tasks, dtype=np.int64)
    if tasks.ndim != 1 or tasks.size == 0 or np.any(np.diff(tasks) != 1):
        raise ValueError("tasks must be a nonempty range of consecutive task ids")
    _check_lam(lam)
    if min(lengths) < 4:
        raise ValueError(f"n must be at least 4, got {min(lengths)!r}")
    trials = tasks.size
    rows = max(1, _CHUNK_VARIATES // trials)
    n = max(lengths)
    x_gen = generator(StreamKey(master_seed, int(tasks[0]), roles[0]))
    e_gen = generator(StreamKey(master_seed, int(tasks[0]), roles[1]))
    sizes = sorted(set(lengths))
    # sums of x, e, x^2, x*e and e^2 at each size and over the full blocks
    # read so far
    sums = np.empty((5, len(sizes), trials))
    total = np.zeros((5, trials))
    # every block is drawn into these two buffers, which this thread owns,
    # so a run holds one block of each stream at a time
    x_rows, e_rows = np.empty((2, min(rows, n), trials))
    first = 0  # the first size past the blocks read so far
    for start in range(0, n, rows):
        size = min(rows, n - start)
        last = bisect.bisect_right(sizes, start + size)
        cuts = [m - start for m in sizes[first:last]]
        carry = start + size < n and size not in cuts
        if carry:
            cuts.append(size)  # the whole block carries into the next one
        block = np.empty((5, len(cuts), trials)) if carry else sums[:, first:last]
        x, e = x_rows[:size], e_rows[:size]
        # rows 0 and 2 of block hold the sums of x and x^2, rows 1 and 4
        # those of e and e^2
        items = ((x_gen, x, cuts, block[0:3:2]), (e_gen, e, cuts, block[1::3]))
        _split_items(2, lambda i: _stream_block(*items[i]))
        _cut_sums(x, e, cuts, block[3])
        block += total[:, None]
        if carry:
            sums[:, first:last] = block[:, :-1]
        total = block[:, -1]
        first = last
    # one-pass sums lose nothing to cancellation here: x and e are
    # mean-zero normals (mu_x = beta0 = 0 in the reduced model), so
    # (sum x)^2 / m is O(1) against sum x^2 ~ m, and likewise for e;
    # every size is closed in one (sizes x trials) pass
    sx, se, sxx, sxe, see = sums
    m = np.array(sizes, dtype=float)[:, None]
    sxx = sxx - sx * sx / m
    sxe = sxe - sx * se / m
    see = see - se * se / m
    with np.errstate(divide="ignore", invalid="ignore"):
        rss = see - sxe * sxe / sxx
        t = (lam + sxe / sxx) * np.sqrt(sxx / (m - 1)) / np.sqrt(rss / (m - 2))
    bad = dict(zip(sizes, (sxx == 0.0) | (rss <= 0.0)))
    for length in lengths:
        if bad[length].any():
            task = int(tasks[np.argmax(bad[length])])
            raise SearchFailureError(
                f"the trial of task id {task} is degenerate at n={length} (S_XX = 0 or RSS <= 0)"
            )
    t_at = dict(zip(sizes, t))
    return [t_at[length] for length in lengths]


def slope_t_batch(n: int, lam: float, master_seed: int, tasks: np.ndarray) -> np.ndarray:
    """t_slope values of one run, one per task id (see _slope_t_prefixes).

    tasks must be consecutive; the run's draws are keyed by tasks[0], so
    runs with disjoint task ranges are independent. Memory is bounded for
    any n. n must be at least 4 and lam finite (else ValueError), and a
    degenerate trial raises SearchFailureError.
    """
    return _slope_t_prefixes((n,), lam, master_seed, tasks, _SLOPE_ROLES)[0]


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
    tasks = np.arange(task_base, task_base + reps, dtype=np.int64)
    t_vals = slope_t_batch(n, lam, master_seed, tasks)
    power = float(np.count_nonzero(np.abs(t_vals) > c.value)) / reps
    sd = math.sqrt(power * (1.0 - power) / reps)
    return PowerEstimate(n=n, alpha=alpha, lam=lam, power=power, sd=sd)


@dataclass
class _Validation:
    mean: float
    sd: float
    runs: int


class _SlopeSearch:
    """State shared across one sample-size search (validation runs, scout windows)."""

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
        # |t| of runs 0, 1, ... that a validation drew for a size in its
        # window, kept unscored until the search asks for that size (see
        # validate)
        self._window_abs_t: dict[int, list[np.ndarray]] = {}
        self._max_failed = 0
        self._min_passed = math.inf

    def validate(self, n: int, runs: int, below=()) -> _Validation:
        """Mean and sd of the first `runs` validation runs at n.

        Only runs not yet simulated at n are drawn. Their draws also give
        the same runs' |t| values at each size of a window around n: the
        sizes in below, which the caller keeps to sizes under a fresh n with
        no runs yet (see _window), and n + 1 while it is open (see _above).
        Window values are kept unscored and scored against their critical
        value only once the search asks for that size, so a window size it
        never asks for costs no critical value.

        The runs to draw are split between two threads (see
        stochastics._split_items): the caller draws and scores the even
        ones and the helper thread the odd ones, each writing a run's power
        and window |t| into that run's slot, so no run's t at n is held
        past its scoring. The slots join the kept values in run order once
        both halves are done. A degenerate trial raises SearchFailureError
        and leaves the kept powers and |t| as they were before the call.
        """
        trials = self.plan.reps_inner
        c = cached_critical_value(n, self.alpha, self.critval_plan, self.cache).value
        pending = self._window_abs_t.get(n, [])
        first = len(self._powers.get(n, ())) + len(pending)
        window = (*below, *self._above(n, first))
        lengths = (n, *window)
        drawn = max(0, runs - first)
        new_powers = [0.0] * drawn
        new_abs_t = [[None] * drawn for _ in window]

        def draw(i: int) -> None:
            base = VALIDATION_TASK_BASE + (first + i) * trials
            tasks = np.arange(base, base + trials, dtype=np.int64)
            t_n, *t_window = _slope_t_prefixes(
                lengths, self.lam, self.plan.master_seed, tasks, _SLOPE_ROLES
            )
            new_powers[i] = np.count_nonzero(np.abs(t_n) > c) / trials
            for slots, t_vals in zip(new_abs_t, t_window):
                slots[i] = np.abs(t_vals)

        _split_items(drawn, draw)
        powers = self._powers.setdefault(n, [])
        powers.extend(np.count_nonzero(abs_t > c) / trials for abs_t in pending)
        self._window_abs_t.pop(n, None)
        powers.extend(new_powers)
        for m, slots in zip(window, new_abs_t):
            self._window_abs_t.setdefault(m, []).extend(slots)
        head = np.array(powers[:runs])
        sd = float(np.std(head, ddof=1)) if runs > 1 else 0.0
        return _Validation(mean=float(np.mean(head)), sd=sd, runs=runs)

    def full_validate(self, n: int) -> _Validation:
        return self.validate(n, self.plan.reps_outer)

    def _window(self, n: int) -> list[int]:
        """Sizes below n whose scout runs a fresh scout at n takes from its draws."""
        drawn = self._powers.keys() | self._window_abs_t.keys()
        if n in drawn:
            return []
        below = range(n - 1, n - 1 - _SCOUT_WINDOW, -1)
        return [m for m in below if m >= 5 and m > self._max_failed and m not in drawn]

    def _above(self, n: int, first: int) -> list[int]:
        """[n + 1] if runs drawn at n from run `first` on also keep n + 1, else [].

        n + 1 is open while it lies below every size known to pass, has
        never been scored, and its kept runs end at run `first`, so that the
        runs kept at a size stay contiguous from run 0.
        """
        up = n + 1
        kept = len(self._window_abs_t.get(up, ()))
        if up < self._min_passed and up not in self._powers and kept == first:
            return [up]
        return []

    def passes(self, n: int) -> bool:
        """Does n clear the validated threshold? Scout first, full depth if close.

        Kept |t| at sizes the refinement can no longer ask for, at or below
        a size that failed or above one that passed, are dropped. A run's
        values are fixed, so should a full validation past the answer need
        one of them again, drawing it afresh gives the same bits.
        """
        passed = self._clears(n)
        if passed:
            self._min_passed = min(self._min_passed, n)
        else:
            self._max_failed = max(self._max_failed, n)
        self._window_abs_t = {
            m: kept
            for m, kept in self._window_abs_t.items()
            if self._max_failed < m <= self._min_passed
        }
        return passed

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
