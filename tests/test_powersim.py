"""Least-squares fit statistics, power simulation, and the sample-size search."""

import collections
import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    DegenerateXError,
    FitError,
    PerfectFitError,
    SpreadUnderflowError,
    fit_slope_stats,
    row_moments,
)
from slopesize import critvals, powersim, stochastics
from slopesize.corroute import corr_t1_batch
from slopesize.critvals import (
    EXACT_MC,
    CriticalValueEstimate,
    cached_critical_value,
    critical_value_mc,
)
from slopesize.distmath import t_quantile
from slopesize.powersim import (
    SearchFailureError,
    find_sample_size_slope,
    power_table,
    simulate_power_slope,
    slope_t_batch,
)
from slopesize.stochastics import (
    VALIDATION_TASK_BASE,
    SimPlan,
    StreamKey,
    generator,
)

SEED = 20260808

# sha256 of the t values of runs of 2,000 trials at n = 300: 131 rows per
# block, so each run spans three blocks of both streams
KERNEL_PINS = {
    "slope": "115d9ebcf369624695d39f23b9efa24fd448c6066a91698aae0d8b3fb6a7dbbc",
    "corr": "5d589fce64e30178d4d4a2cde2ae0935e6a6f4cdbd364a054c829ac69108e13c",
}


def exact_null_critval(n: int, alpha: float) -> CriticalValueEstimate:
    """True null quantile of T = t_{1-alpha/2, n-2} / sqrt(n-1).

    Data-level T*sqrt(n-1) is exactly t(n-2), so this is the critical value
    for which size equals level identically; used where a test needs a
    noise-free calibration threshold.
    """
    value = t_quantile(1.0 - alpha / 2.0, n - 2) / math.sqrt(n - 1)
    return CriticalValueEstimate(n=n, alpha=alpha, value=value, sd=0.0, method=EXACT_MC)


def run_reference_t(n: int, lam: float, first_task: int, trials: int) -> np.ndarray:
    """t_slope of every trial of one run, by a two-pass fit of its whole block."""
    x = generator(StreamKey(SEED, first_task, powersim._X_STREAM)).standard_normal((n, trials))
    e = generator(StreamKey(SEED, first_task, powersim._EPS_STREAM)).standard_normal((n, trials))
    return np.array([fit_slope_stats(x[:, i], lam * x[:, i] + e[:, i]).t_slope for i in range(trials)])


# a small exact-MC plan: its seven replicates are split across both threads
FORK_CV_PLAN = SimPlan(reps_inner=1_000, reps_outer=7, master_seed=SEED)


def forked_run_bytes() -> bytes:
    """One kernel run and one exact-MC critical value, drawn afresh."""
    critvals._MC_MEMO.clear()  # a forked child inherits the parent's estimates
    value = critical_value_mc(30, 0.05, FORK_CV_PLAN).value
    return slope_t_batch(50, 0.3, SEED, np.arange(100)).tobytes() + value.hex().encode()


def send_forked_run(conn) -> None:
    """Child process body: draw forked_run_bytes() and send them back."""
    conn.send_bytes(forked_run_bytes())
    conn.close()


def spread_survives_shift(values, shift) -> bool:
    """Does the spread of values span many rounding steps of values + shift?"""
    step = math.ulp(max(abs(v + shift) for v in values))
    return max(values) - min(values) > 2**32 * step


def shift_rounding(values, shift) -> float:
    """Rounding step of values + shift relative to the spread of values."""
    return math.ulp(max(abs(v + shift) for v in values)) / (max(values) - min(values))


small_datasets = st.integers(3, 20).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-100, 100), min_size=n, max_size=n),
        st.lists(st.floats(-100, 100), min_size=n, max_size=n),
    )
)


class TestFitSlopeStats:
    def test_hand_worked_example(self):
        # x=(0,1,2,3), y=(0,1,1,2): Sxx=5, Sxy=3, Syy=2, RSS=0.2
        fit = fit_slope_stats([0, 1, 2, 3], [0, 1, 1, 2])
        assert fit.beta1_hat == pytest.approx(0.6, rel=1e-12)
        assert fit.rss == pytest.approx(0.2, rel=1e-12)
        assert fit.sigma_hat == pytest.approx(0.316228, abs=1e-6)
        assert fit.sigma_x_hat == pytest.approx(1.290994, abs=1e-6)
        assert fit.t_slope == pytest.approx(2.449490, abs=1e-6)
        assert fit.rho_hat == pytest.approx(0.948683, abs=1e-6)
        assert fit.t_corr == pytest.approx(4.242641, abs=1e-6)
        assert fit.t_corr == pytest.approx(fit.t_slope * math.sqrt(3), rel=1e-12)

    def test_symmetric_response_gives_zero_slope(self):
        fit = fit_slope_stats([-1, 0, 1], [1, 0, 1])
        assert fit.beta1_hat == 0.0
        assert fit.t_slope == 0.0

    def test_perfect_fit_raises(self):
        with pytest.raises(PerfectFitError):
            fit_slope_stats([0, 1, 2], [0, 1, 2])

    def test_degenerate_x_raises(self):
        with pytest.raises(DegenerateXError):
            fit_slope_stats([2, 2, 2, 2], [0, 1, 2, 3])

    def test_constant_y_is_perfect_fit(self):
        with pytest.raises(PerfectFitError):
            fit_slope_stats([0, 1, 2, 3], [5, 5, 5, 5])

    def test_underflowing_spread_raises_fit_error(self):
        # S_XX * S_YY underflows to zero although both sums are positive
        with pytest.raises(SpreadUnderflowError):
            fit_slope_stats([0, 0, 7.79e-150], [0, 0, 7.79e-150])
        # a subnormal product (about 1.5e-320) has lost most of its digits
        with pytest.raises(SpreadUnderflowError):
            fit_slope_stats([0, 0, 1], [0, 1.8374404648819965e-160, 0])
        assert issubclass(SpreadUnderflowError, FitError)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_slope_stats([1, 2, 3], [1, 2])

    @given(small_datasets)
    @settings(max_examples=200)
    def test_t_corr_identity(self, data):
        xs, ys = data
        try:
            fit = fit_slope_stats(xs, ys)
        except FitError:
            assume(False)
        assume(abs(fit.t_corr) < 1e8)
        assert fit.t_corr**2 == pytest.approx(
            (fit.n - 1) * fit.t_slope**2, rel=1e-10
        )

    @given(small_datasets, st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=100)
    def test_location_shift_invariance(self, data, cx, cy):
        xs, ys = data
        try:
            base = fit_slope_stats(xs, ys)
        except FitError:
            assume(False)
        # a shift rounds every value to the step of its shifted magnitude; a
        # spread only a few steps wide (ys = [0, 0, 0, 0, 7.79e-150] with
        # cy = 12.85) is lost, and the shifted sample is another sample
        assume(spread_survives_shift(xs, cx) and spread_survives_shift(ys, cy))
        # that rounding perturbs the sums of squares by about delta relative,
        # and RSS = S_YY - S_XY^2 / S_XX amplifies it by S_YY / RSS: a
        # near-perfect fit (xs = [0, 0, 1], ys = [6.1e-05, 0, 1], cy = 1 has
        # S_YY / RSS = 3.6e8) moves its t statistics past the tolerance
        delta = max(2.0**-52, shift_rounding(xs, cx), shift_rounding(ys, cy))
        syy = base.rss + base.sxy * base.sxy / base.sxx
        assume(delta * syy / base.rss < 1e-10)
        try:
            shifted = fit_slope_stats([x + cx for x in xs], [y + cy for y in ys])
        except FitError:
            assume(False)
        for field in ("beta1_hat", "sigma_hat", "sigma_x_hat", "t_slope", "rho_hat", "t_corr"):
            want = getattr(base, field)
            assert getattr(shifted, field) == pytest.approx(want, rel=1e-8, abs=1e-8)


class TestSimulatePowerSlope:
    def test_size_equals_level_at_true_quantile(self):
        # with the exact null quantile of the statistic, size = level
        for alpha in (0.10, 0.05):
            c = exact_null_critval(30, alpha)
            est = simulate_power_slope(30, 0.0, alpha, c, reps=20_000, master_seed=SEED)
            assert est.power == pytest.approx(alpha, abs=3 * math.sqrt(alpha * (1 - alpha) / 20_000))

    def test_published_cell_n48(self, session_cache):
        # table anchor: n=48, lam=0.5, alpha=0.05, validated mean 0.9095
        plan = SimPlan(reps_inner=10_000, reps_outer=100, master_seed=SEED)
        c = cached_critical_value(48, 0.05, plan, session_cache)
        est = simulate_power_slope(48, 0.5, 0.05, c, reps=20_000, master_seed=SEED)
        assert est.power == pytest.approx(0.9095, abs=0.02)

    def test_published_cell_n100(self, session_cache):
        plan = SimPlan(reps_inner=10_000, reps_outer=100, master_seed=SEED)
        c = cached_critical_value(100, 0.10, plan, session_cache)
        est = simulate_power_slope(100, 0.3, 0.10, c, reps=20_000, master_seed=SEED)
        assert est.power == pytest.approx(0.9006, abs=0.02)

    def test_sign_symmetry_in_lambda(self):
        c = exact_null_critval(40, 0.05)
        plus = simulate_power_slope(40, 0.4, 0.05, c, reps=10**5, master_seed=SEED)
        minus = simulate_power_slope(40, -0.4, 0.05, c, reps=10**5, master_seed=SEED, task_base=10**6)
        noise = 3 * math.sqrt(2 * 0.67 * 0.33 / 10**5)
        assert abs(plus.power - minus.power) < noise

    def test_effect_size_sufficiency(self):
        # (beta1, sigma_x, sigma) = (0.5, 2, 2) and (0.5, 1, 1) share lam=0.5,
        # and the simulation is parameterized by lam alone
        c = exact_null_critval(60, 0.05)
        a = simulate_power_slope(60, 0.5, 0.05, c, reps=20_000, master_seed=SEED)
        b = simulate_power_slope(60, 0.5, 0.05, c, reps=20_000, master_seed=SEED)
        assert a == b

    def test_common_random_numbers_share_draws(self):
        c30 = exact_null_critval(30, 0.05)
        one = simulate_power_slope(30, 0.3, 0.05, c30, reps=5_000, master_seed=SEED)
        two = simulate_power_slope(30, 0.3, 0.05, c30, reps=5_000, master_seed=SEED)
        assert one == two
        # draws at a smaller n are a prefix of the draws at a larger n: the t
        # values cut from one draw at 30 equal a draw at each shorter size
        tasks = np.arange(500, 1_500, dtype=np.int64)
        lengths = (30, 29, 27, 5)
        cut = powersim._slope_t_prefixes(lengths, 0.3, SEED, tasks, powersim._SLOPE_ROLES)
        for m, t_vals in zip(lengths, cut):
            assert t_vals.tobytes() == slope_t_batch(m, 0.3, SEED, tasks).tobytes()

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            simulate_power_slope(4, 0.5, 0.05, exact_null_critval(30, 0.05), 100, SEED)


class TestSlopeTBatch:
    @pytest.mark.parametrize(
        "batch",
        [
            lambda: slope_t_batch(5000, 0.05, 1, np.arange(4096)),
            lambda: corr_t1_batch(5000, 0.3, 1, np.arange(4096)),
        ],
        ids=["slope", "corr"],
    )
    def test_memory_bounded_at_large_n(self, batch):
        # one chunk of draws holds at most 4096 x 64 variates per stream
        tracemalloc.start()
        try:
            batch()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_prefixes_are_bit_identical_across_block_boundaries(self, monkeypatch):
        # 100 trials read 10 observations per block: the sizes below end
        # inside, at and just past block boundaries
        monkeypatch.setattr(powersim, "_CHUNK_VARIATES", 1_000)
        tasks = np.arange(40, 140, dtype=np.int64)
        lengths = (37, 30, 29, 21, 20, 11, 10, 9, 5)
        cut = powersim._slope_t_prefixes(lengths, 0.4, SEED, tasks, powersim._SLOPE_ROLES)
        for m, t_vals in zip(lengths, cut):
            assert t_vals.tobytes() == slope_t_batch(m, 0.4, SEED, tasks).tobytes()

    @pytest.mark.parametrize("chunk", [1_000, 4096 * 64])
    def test_blocked_moments_match_two_pass_fit(self, monkeypatch, chunk):
        monkeypatch.setattr(powersim, "_CHUNK_VARIATES", chunk)
        n, lam, trials = 47, 0.7, 100
        tasks = np.arange(3_000, 3_000 + trials, dtype=np.int64)
        t_vals = slope_t_batch(n, lam, SEED, tasks)
        assert t_vals == pytest.approx(run_reference_t(n, lam, 3_000, trials), rel=1e-12)

    @pytest.mark.parametrize("lam", [1e3, 1e6])
    def test_large_effect_matches_two_pass_fit_of_noise(self, lam):
        # the residuals of lam * x + e on x are those of e, so a fit of the
        # noise block with beta1_hat = lam + S_XE / S_XX is exact at any lam
        n, trials = 20, 1_000
        x = generator(StreamKey(1, 0, powersim._X_STREAM)).standard_normal((n, trials))
        e = generator(StreamKey(1, 0, powersim._EPS_STREAM)).standard_normal((n, trials))
        sxx, sxe, see = row_moments(x.T, e.T)
        rss = see - sxe * sxe / sxx
        expected = (lam + sxe / sxx) * np.sqrt(sxx / (n - 1)) / np.sqrt(rss / (n - 2))
        t_vals = slope_t_batch(n, lam, 1, np.arange(trials))
        assert t_vals == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "batch, name",
        [
            (lambda: slope_t_batch(300, 0.4, SEED, np.arange(2_000)), "slope"),
            (lambda: corr_t1_batch(300, 0.3, SEED, np.arange(2_000)), "corr"),
        ],
        ids=["slope", "corr"],
    )
    def test_three_block_runs_are_pinned(self, batch, name):
        # the noise blocks come from the helper thread; not a bit may move
        assert hashlib.sha256(batch().tobytes()).hexdigest() == KERNEL_PINS[name]

    def test_values_hold_with_fast_thread_switches(self):
        # the helper thread writes its noise sums into the caller's arrays;
        # switching threads every microsecond must not move a bit
        tasks = np.arange(2_000)
        lengths = (300, 299, 262, 131, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cut = powersim._slope_t_prefixes(lengths, 0.4, SEED, tasks, powersim._SLOPE_ROLES)
        finally:
            sys.setswitchinterval(interval)
        assert hashlib.sha256(cut[0].tobytes()).hexdigest() == KERNEL_PINS["slope"]
        for m, t_vals in zip(lengths, cut):
            assert t_vals.tobytes() == slope_t_batch(m, 0.4, SEED, tasks).tobytes()

    def test_forked_child_gets_its_own_helper(self):
        # the kernel and the critical value use the helper thread, which a
        # forked child lacks; a child that kept the parent's executor would
        # wait on it forever
        want = forked_run_bytes()
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=send_forked_run, args=(send,))
        child.start()
        send.close()
        try:
            got = recv.recv_bytes() if recv.poll(20) else None
        finally:
            child.join(timeout=5)
            if child.is_alive():
                child.kill()
                child.join()
        assert got is not None, "the forked child hung"
        assert got == want

    def test_kernel_starts_at_most_one_thread(self):
        # the kernel and an exact-MC miss share the package's one helper thread
        before = threading.active_count()
        for run in range(50):
            slope_t_batch(20, 0.3, SEED, np.arange(run * 100, run * 100 + 100))
        critical_value_mc(30, 0.05, FORK_CV_PLAN)
        assert threading.active_count() <= before + 1
        helpers = [t for t in threading.enumerate() if t.name.startswith("slopesize-helper")]
        assert len(helpers) == 1

    def test_import_starts_no_thread(self):
        # the helper's executor exists from import on, but starts its thread
        # only at the first submit
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = "import threading, slopesize; print(threading.active_count())"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out == "1\n"

    def test_huge_effect_needs_no_resample(self):
        t_vals = slope_t_batch(20, 1e9, 1, np.arange(1_000))
        assert np.all(np.isfinite(t_vals))

    @pytest.mark.parametrize(
        "batch, role, lam",
        [
            (slope_t_batch, powersim._X_STREAM, 0.4),
            (slope_t_batch, powersim._X_STREAM, 1e6),
            (slope_t_batch, powersim._X_STREAM, 1e9),
            (slope_t_batch, powersim._EPS_STREAM, 0.4),
            (corr_t1_batch, 200, 0.4),
            (corr_t1_batch, 201, 0.4),
        ],
        ids=["slope", "slope-1e6", "slope-1e9", "slope-noise", "corr", "corr-noise"],
    )
    def test_degenerate_trial_raises(self, constant_column, batch, role, lam):
        # a constant predictor makes trial 3 (task id 7) degenerate, which
        # fails the whole run; S_XX is exactly 0 however large lam is. A
        # constant noise column, drawn on the helper thread, leaves RSS <= 0
        constant_column(3, role)
        with pytest.raises(SearchFailureError, match=r"task id 7 is degenerate at n=20 "):
            batch(20, lam, SEED, np.arange(4, 12))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_lambda(self, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            slope_t_batch(20, lam, SEED, np.arange(100))

    @pytest.mark.parametrize("batch", [slope_t_batch, corr_t1_batch], ids=["slope", "corr"])
    def test_rejects_n_below_4(self, batch):
        for n in (1, 2, 3):
            with pytest.raises(ValueError, match=f"n must be at least 4, got {n}"):
                batch(n, 0.3, SEED, np.arange(100))
        assert np.all(np.isfinite(batch(4, 0.3, SEED, np.arange(100))))

    def test_tasks_must_be_consecutive(self):
        for tasks in ([0, 1, 3], [5, 4, 3], [], np.array([[0, 1], [2, 3]])):
            with pytest.raises(ValueError, match="consecutive"):
                slope_t_batch(10, 0.3, SEED, tasks)

    def test_split_tasks_are_separate_runs(self):
        # each part of a split task range is its own run, keyed by its first
        # task id: its values fit its own block, not the columns of the whole
        tasks = np.arange(1_000, dtype=np.int64)
        whole = slope_t_batch(600, 0.3, SEED, tasks)
        tail = slope_t_batch(600, 0.3, SEED, tasks[300:])
        assert tail == pytest.approx(run_reference_t(600, 0.3, 300, 700), rel=1e-12)
        assert not np.array_equal(tail, whole[300:])
        # evaluation order and other runs leave a run's values unchanged
        assert slope_t_batch(600, 0.3, SEED, tasks).tobytes() == whole.tobytes()


# (lam, alpha, target, power plan, critical-value plan) and the search result
# (n, validated_mean.hex(), validated_sd.hex()), recorded with one stream
# pair per run; memoized runs and window sizes must not move a bit
GOLDEN_SEARCHES = [
    (
        (0.6, 0.10, 0.80, SimPlan(1_000, 60, SEED), SimPlan(2_000, 10, SEED)),
        (22, "0x1.98fc504816f00p-1", "0x1.8647ad25b2c7fp-7"),
    ),
    (
        (0.6, 0.10, 0.90, SimPlan(500, 55, SEED + 2), SimPlan(1_000, 10, SEED)),
        (29, "0x1.cd2297b371295p-1", "0x1.aa0a75b5193fep-7"),
    ),
]


# validation runs each GOLDEN_SEARCHES search draws (kernel calls)
GOLDEN_RUNS_DRAWN = {cell: runs for (cell, _), runs in zip(GOLDEN_SEARCHES, [60, 60])}


def record_validation_runs(monkeypatch) -> list[tuple[tuple[int, ...], int]]:
    """Wrap the kernel; the list returned gets (lengths, first task id) per validation run drawn."""
    calls = []
    kernel = powersim._slope_t_prefixes

    def recording_kernel(lengths, lam, master_seed, tasks, roles):
        if tasks[0] >= VALIDATION_TASK_BASE:
            calls.append((tuple(lengths), int(tasks[0])))
        return kernel(lengths, lam, master_seed, tasks, roles)

    monkeypatch.setattr(powersim, "_slope_t_prefixes", recording_kernel)
    return calls


class TestFindSampleSize:
    @pytest.mark.parametrize("cell, golden", GOLDEN_SEARCHES)
    def test_golden_search_draws_each_run_once(self, monkeypatch, cell, golden):
        lam, alpha, target, plan, cv_plan = cell
        calls = record_validation_runs(monkeypatch)
        res = find_sample_size_slope(lam, alpha, target, plan, critval_plan=cv_plan)
        assert (res.n, res.validated_mean.hex(), res.validated_sd.hex()) == golden
        # no validation run is cut twice at the same n, window sizes included
        cut = collections.Counter((m, task) for lengths, task in calls for m in lengths)
        assert cut and max(cut.values()) == 1
        assert len(calls) == GOLDEN_RUNS_DRAWN[cell]

    def test_failed_start_draws_nothing_one_size_up(self, monkeypatch):
        # at the benchmark's plans this search starts at 29, fails there and
        # passes at 30: the validation at 29 also cut its runs at 30, so the
        # search draws nothing at 30 and gets the result of drawing it afresh
        calls = record_validation_runs(monkeypatch)
        plan = SimPlan(1_000, 51, 1)
        res = find_sample_size_slope(0.5, 0.10, 0.80, plan, critval_plan=SimPlan(10_000, 10, 1))
        assert (res.n, res.validated_mean.hex(), res.validated_sd.hex()) == (
            30, "0x1.9cd2952480a99p-1", "0x1.b5af5d3d9669cp-7"
        )
        assert not any(lengths[0] == res.n for lengths, _ in calls)
        assert all(res.n in lengths for lengths, _ in calls)
        assert len(calls) == plan.reps_outer

    def test_no_size_above_a_passing_one_is_cut(self, monkeypatch):
        # at the benchmark's plans this search's start, 22, passes its scout;
        # the full validation after it draws one more run, which keeps
        # nothing at 23
        calls = record_validation_runs(monkeypatch)
        plan = SimPlan(1_000, 51, 1)
        res = find_sample_size_slope(0.6, 0.10, 0.80, plan, critval_plan=SimPlan(10_000, 10, 1))
        assert res.n == 22
        assert [lengths for lengths, _ in calls] == [(22, 21, 20, 19, 23)] * 50 + [(22,)]

    def test_size_above_is_cut_only_when_open(self, monkeypatch):
        # runs kept at a size are runs 0, 1, ... and are never cut twice:
        # a draw at n cuts n + 1 only when n + 1 is unscored and its kept
        # runs end where the draw starts
        calls = record_validation_runs(monkeypatch)
        plan, cv_plan = SimPlan(200, 10, SEED), SimPlan(1_000, 5, SEED)
        search = powersim._SlopeSearch(0.6, 0.10, 0.80, plan, None, cv_plan)
        search.validate(26, 4, below=[25])  # keeps runs 0-3 at 25 and at 27
        search.validate(24, 6)  # 25 keeps runs 0-3, this draw starts at run 0
        search.validate(23, 3)  # 24 has been scored
        search.validate(20, 2)  # 21 is open
        drawn = [lengths for lengths, _ in calls]
        assert drawn == [(26, 25, 27)] * 4 + [(24,)] * 6 + [(23,)] * 3 + [(20, 21)] * 2
        fresh = powersim._SlopeSearch(0.6, 0.10, 0.80, plan, None, cv_plan)
        assert search.validate(25, 6) == fresh.validate(25, 6)
        assert search.validate(27, 4) == fresh.validate(27, 4)

    def test_critical_values_only_at_sizes_asked_for(self, monkeypatch):
        # a validation's window sizes, below it and one above, get a critical
        # value only once the search asks for them
        asked, computed = set(), []
        lookup = powersim.cached_critical_value

        def recording_lookup(n, alpha, plan, cache=None):
            computed.append(n)
            return lookup(n, alpha, plan, cache)

        def asking(method):
            def wrapper(search, n):
                asked.add(n)
                return method(search, n)
            return wrapper

        monkeypatch.setattr(powersim, "cached_critical_value", recording_lookup)
        monkeypatch.setattr(powersim._SlopeSearch, "passes", asking(powersim._SlopeSearch.passes))
        calls = record_validation_runs(monkeypatch)
        # at this seed the search stops at its start, 29, whose scout draws
        # the window sizes 27 and 26 below it and 30 above it, none of them
        # asked for
        plan = SimPlan(500, 55, SEED)
        res = find_sample_size_slope(0.6, 0.10, 0.90, plan, critval_plan=SimPlan(1_000, 10, SEED))
        cut_above = {m for lengths, _ in calls for m in lengths if m > lengths[0]}
        assert res.n + 1 in cut_above - asked
        assert {26, 27} <= {m for lengths, _ in calls for m in lengths} - asked
        assert computed and set(computed) <= asked

    def test_kept_values_stay_bounded(self, monkeypatch):
        # |t| kept for a window size: at most reps_outer runs for a size cut
        # above a validation, scout_runs runs for one only ever cut below,
        # and none once the size has been scored
        plan = SimPlan(200, 60, SEED)
        calls = record_validation_runs(monkeypatch)
        peak = collections.Counter()
        validate = powersim._SlopeSearch.validate

        def checked_validate(search, n, runs, *below):
            result = validate(search, n, runs, *below)
            kept = search._window_abs_t
            assert n not in kept and not kept.keys() & search._powers.keys()
            above = {m for lengths, _ in calls for m in lengths if m > lengths[0]}
            for m, values in kept.items():
                floats = sum(v.size for v in values)
                runs_bound = plan.reps_outer if m in above else search.scout_runs
                assert floats <= runs_bound * plan.reps_inner
                peak[m in above] = max(peak[m in above], floats)
            return result

        monkeypatch.setattr(powersim._SlopeSearch, "validate", checked_validate)
        # at this seed the start, 22, fails its full validation, which keeps
        # all 60 runs at 23
        find_sample_size_slope(0.6, 0.10, 0.80, plan, critval_plan=SimPlan(1_000, 10, SEED))
        assert peak[True] == plan.reps_outer * plan.reps_inner
        assert peak[False] == 50 * plan.reps_inner

    @pytest.mark.parametrize(
        "cell, golden",
        [
            *GOLDEN_SEARCHES,
            (
                (0.5, 0.10, 0.80, SimPlan(1_000, 51, 1), SimPlan(10_000, 10, 1)),
                (30, "0x1.9cd2952480a99p-1", "0x1.b5af5d3d9669cp-7"),
            ),
        ],
    )
    def test_kept_values_past_a_decided_size_are_dropped(self, monkeypatch, cell, golden):
        # once a size fails, nothing at or below it is kept; once one passes,
        # nothing above it; and the answer is the one recorded before
        lam, alpha, target, plan, cv_plan = cell
        cut, dropped = set(), set()  # sizes ever kept; those dropped unscored
        passes, validate = powersim._SlopeSearch.passes, powersim._SlopeSearch.validate

        def recording_validate(search, *args):
            result = validate(search, *args)
            cut.update(search._window_abs_t)
            return result

        def checked_passes(search, n):
            passed = passes(search, n)
            kept = set(search._window_abs_t)
            assert all(m <= n for m in kept) if passed else all(m > n for m in kept)
            dropped.update(cut - kept - search._powers.keys())
            return passed

        monkeypatch.setattr(powersim._SlopeSearch, "validate", recording_validate)
        monkeypatch.setattr(powersim._SlopeSearch, "passes", checked_passes)
        res = find_sample_size_slope(lam, alpha, target, plan, critval_plan=cv_plan)
        assert (res.n, res.validated_mean.hex(), res.validated_sd.hex()) == golden
        assert dropped

    def test_small_cell_matches_published_value(self, session_cache):
        # table anchor: lam=0.6, alpha=0.10, 80% -> n = 21
        plan = SimPlan(reps_inner=1_000, reps_outer=100, master_seed=SEED)
        res = find_sample_size_slope(
            0.6, 0.10, 0.80, plan,
            cache=session_cache,
            critval_plan=SimPlan(reps_inner=10_000, reps_outer=100, master_seed=SEED),
        )
        assert abs(res.n - 21) <= 2
        assert res.route == "slope"
        assert res.validated_mean == pytest.approx(0.80, abs=0.03)
        assert 0.0 < res.validated_sd < 0.05

    def test_zero_effect_size_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            find_sample_size_slope(0.0, 0.05, 0.8, SimPlan(master_seed=SEED))

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            find_sample_size_slope(0.5, 0.05, 1.2, SimPlan(master_seed=SEED))

    def test_ceiling_failure(self, session_cache, monkeypatch):
        # the Fisher-z start (n = 7,358 here) already exceeds the ceiling, so
        # the search fails before any critical value or simulated run
        calls = []  # list.append is safe on the helper thread, a Counter's += is not

        def counting(name):
            inner = getattr(powersim, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)

            monkeypatch.setattr(powersim, name, wrapper)

        counting("cached_critical_value")
        counting("_slope_t_prefixes")
        plan = SimPlan(reps_inner=500, reps_outer=10, master_seed=SEED)
        with pytest.raises(SearchFailureError, match=r"n_ceiling=50 .*lam=0\.05, alpha=0\.05"):
            find_sample_size_slope(
                0.05, 0.05, 0.99, plan,
                cache=session_cache,
                critval_plan=SimPlan(reps_inner=1_000, reps_outer=10, master_seed=SEED),
                n_ceiling=50,
            )
        assert calls.count("cached_critical_value") == 0
        assert calls.count("_slope_t_prefixes") == 0


def kept_state(search) -> tuple[dict, dict]:
    """Copies of a search's kept powers and window |t| (as bytes)."""
    powers = {n: list(values) for n, values in search._powers.items()}
    abs_t = {m: [a.tobytes() for a in values] for m, values in search._window_abs_t.items()}
    return powers, abs_t


@pytest.fixture
def submits(monkeypatch) -> list[tuple[str, int]]:
    """(function name, submitting thread) of each submit to the helper from now on.

    A submit from the helper thread itself, whose one worker would wait on
    itself, raises AssertionError instead of hanging.
    """
    caller = threading.get_ident()
    helper = stochastics._helper()
    submit = helper.submit
    submitted = []

    def recording_submit(fn, *args, **kwargs):
        submitted.append((fn.__name__, threading.get_ident()))
        if threading.get_ident() != caller:
            raise AssertionError("the helper submitted to itself")
        return submit(fn, *args, **kwargs)

    monkeypatch.setattr(helper, "submit", recording_submit)
    return submitted


class TestSplitValidation:
    """A validation's runs drawn on two threads, the even ones on the caller."""

    def test_matches_a_serial_loop_with_fast_thread_switches(self):
        (lam, alpha, target, plan, cv_plan), _ = GOLDEN_SEARCHES[0]
        search = powersim._SlopeSearch(lam, alpha, target, plan, None, cv_plan)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            search.validate(22, plan.reps_outer, below=[21, 20, 19])
        finally:
            sys.setswitchinterval(interval)
        c = cached_critical_value(22, alpha, cv_plan).value
        lengths = (22, 21, 20, 19, 23)
        powers, abs_t = [], {m: [] for m in lengths[1:]}
        for v in range(plan.reps_outer):
            base = VALIDATION_TASK_BASE + v * plan.reps_inner
            tasks = np.arange(base, base + plan.reps_inner)
            t_n, *t_window = powersim._slope_t_prefixes(
                lengths, lam, plan.master_seed, tasks, powersim._SLOPE_ROLES
            )
            powers.append(np.count_nonzero(np.abs(t_n) > c) / plan.reps_inner)
            for m, t_vals in zip(lengths[1:], t_window):
                abs_t[m].append(np.abs(t_vals).tobytes())
        assert kept_state(search) == ({22: powers}, abs_t)

    @pytest.mark.parametrize("run", [3, 2], ids=["helper_half", "caller_half"])
    def test_degenerate_run_raises_and_keeps_nothing(self, constant_column, run):
        plan, cv_plan = SimPlan(200, 10, SEED), SimPlan(1_000, 5, SEED)
        search = powersim._SlopeSearch(0.6, 0.10, 0.80, plan, None, cv_plan)
        search.validate(26, 2, below=[25])  # keeps runs 0-1 at 25 and at 27
        before = kept_state(search)
        # the next validation at 25 draws runs 2-5: 2 and 4 on this thread,
        # 3 and 5 on the helper
        first_task = VALIDATION_TASK_BASE + run * plan.reps_inner
        constant_column(3, powersim._X_STREAM, first_task)
        with pytest.raises(SearchFailureError, match=rf"task id {first_task + 3} is degenerate at n=25 "):
            search.validate(25, 6)
        assert kept_state(search) == before
        stochastics._helper().submit(int).result(timeout=10)  # the helper is idle again

    def test_helper_never_submits_to_itself(self, submits):
        (lam, alpha, target, plan, cv_plan), _ = GOLDEN_SEARCHES[0]
        search = powersim._SlopeSearch(lam, alpha, target, plan, None, cv_plan)
        cached_critical_value(22, alpha, cv_plan)  # its draws are split too
        submits.clear()
        search.validate(22, 10, below=[21])
        # one submit, from this thread: the helper's half of the runs
        assert submits == [("half", threading.get_ident())]
        # a validation that draws one run splits its one block's two streams
        submits.clear()
        search.validate(22, 11)
        assert submits == [("half", threading.get_ident())]

    def test_nested_kernel_runs_inline(self, submits):
        # a lone run's per-block split, called inside both halves of another
        # split, draws on its own thread and moves no bit
        runs = [None, None]

        def run(i):
            runs[i] = powersim._slope_t_prefixes(
                (300,), 0.4, SEED, np.arange(2_000), powersim._SLOPE_ROLES
            )[0]

        stochastics._split_items(2, run)
        assert submits == [("half", threading.get_ident())]
        for t_vals in runs:
            assert hashlib.sha256(t_vals.tobytes()).hexdigest() == KERNEL_PINS["slope"]

    @pytest.mark.parametrize("side", ["caller", "helper"], ids=["x_block", "e_block"])
    def test_lone_run_block_error_reaches_the_caller(self, monkeypatch, side):
        # a lone run draws x on this thread and e on the helper; either
        # block raising on the second of three blocks fails the run with
        # that same error and leaves the helper idle
        caller = threading.get_ident()
        real = powersim._stream_block
        calls = []  # list.append is safe on the helper thread
        error = RuntimeError("block 2 failed")

        def failing(gen, a, cuts, out):
            mine = (threading.get_ident() == caller) == (side == "caller")
            if mine:
                calls.append(gen)
                if len(calls) == 2:
                    raise error
            real(gen, a, cuts, out)

        monkeypatch.setattr(powersim, "_stream_block", failing)
        with pytest.raises(RuntimeError) as raised:
            slope_t_batch(300, 0.4, SEED, np.arange(2_000))
        assert raised.value is error
        assert len(calls) == 2
        stochastics._helper().submit(int).result(timeout=10)  # the helper is idle again


class TestRefineValidated:
    """The one sample-size search, on synthetic predicates."""

    @settings(max_examples=300, deadline=None)
    @given(ceiling=st.integers(5, 10**6), data=st.data())
    def test_returns_the_threshold(self, ceiling, data):
        threshold = data.draw(st.integers(5, ceiling), label="threshold")
        start = data.draw(st.integers(5, 2 * ceiling), label="start")
        asked = []

        def passes(n):
            asked.append(n)
            return n >= threshold

        assert powersim._refine_validated(passes, start, ceiling, "unused") == threshold
        assert min(asked) >= 5

    @settings(max_examples=300, deadline=None)
    @given(ceiling=st.integers(5, 10**6), data=st.data())
    def test_raises_past_the_ceiling(self, ceiling, data):
        threshold = data.draw(st.integers(ceiling + 1, 3 * ceiling), label="threshold")
        start = data.draw(st.integers(5, ceiling), label="start")
        asked = []

        def passes(n):
            asked.append(n)
            return n >= threshold

        with pytest.raises(SearchFailureError, match="^nothing passes$"):
            powersim._refine_validated(passes, start, ceiling, "nothing passes")
        assert max(asked) <= ceiling

    @settings(max_examples=300, deadline=None)
    @given(ceiling=st.integers(5, 300), data=st.data())
    def test_any_predicate_gives_a_crossing(self, ceiling, data):
        # on a predicate that is not monotone in n the search returns a
        # crossing, not always the smallest passing n
        sizes = st.integers(5, ceiling)
        passing = data.draw(st.sets(sizes), label="passing")
        start = data.draw(sizes, label="start")
        asked = []

        def passes(n):
            asked.append(n)
            return n in passing

        try:
            n = powersim._refine_validated(passes, start, ceiling, "nothing passes")
        except SearchFailureError:
            assert ceiling in asked and ceiling not in passing
        else:
            assert n in passing
            assert n == 5 or (n - 1 in asked and n - 1 not in passing)
        assert all(5 <= m <= ceiling for m in asked)

    def test_step_up_stops_at_the_ceiling(self):
        # from 5 the steps go to 6 and then 8; the ceiling 7 is tried instead
        # of failing the search for stepping past it
        assert powersim._refine_validated(lambda n: n >= 7, 5, 7, "unused") == 7


class TestPowerTable:
    def test_row_shape(self, session_cache):
        plan = SimPlan(reps_inner=1_000, reps_outer=50, master_seed=SEED)
        rows = power_table(
            0.10, [0.6], [0.80], plan,
            cache=session_cache,
            critval_plan=SimPlan(reps_inner=1_000, reps_outer=50, master_seed=SEED),
        )
        assert len(rows) == 1
        assert set(rows[0]) == {"lambda", "power", "n", "mean", "sd"}
        assert rows[0]["lambda"] == 0.6
        assert rows[0]["power"] == 0.80
        assert abs(rows[0]["n"] - 21) <= 3
