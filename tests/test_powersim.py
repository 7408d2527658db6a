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
from scipy import integrate, stats

from conftest import (
    assert_no_helper_alive,
    DegenerateXError,
    FitError,
    PerfectFitError,
    SpreadUnderflowError,
    fit_slope_stats,
    row_moments,
    run_reference_t1,
)
from slopesize import corroute, critvals, powersim, stochastics
from slopesize.corroute import corr_power_mc, corr_t1_batch, lambda_to_rho, rho_to_lambda
from slopesize.critvals import (
    EXACT_MC,
    CriticalValueCache,
    CriticalValueEstimate,
    cached_critical_value,
    critical_value_mc,
)
from slopesize.distmath import fixed_design_power, t_quantile
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
    chisq_array,
    generator,
    normal_array,
)

SEED = 20260808

# sha256 of the t values of runs of 2,000 trials at n = 300; a correlation
# run reads 65 rows per block, so it spans five blocks of both streams
KERNEL_PINS = {
    "slope": "be4a1db1c7df59908787d646565a547c05199cdff238ee713fa2593b52782936",
    "corr": "2862656aa945e2279bd7e93d1cddf4b9a01cf511a1679e73029185e4bffe687b",
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
    """t_slope of every trial of one run, from its three keyed streams, a trial at a time."""
    key = StreamKey(SEED, first_task)
    s = chisq_array(key.with_stream(102), n - 1, trials)
    w = chisq_array(key.with_stream(103), n - 2, trials)
    z = normal_array(key.with_stream(104), trials)
    return np.array([
        (lam * math.sqrt(s_i) + z_i) / math.sqrt(w_i / (n - 2)) / math.sqrt(n - 1)
        for s_i, w_i, z_i in zip(s, w, z)
    ])


def sha256(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


# a small exact-MC plan: its seven replicates are split across both threads
FORK_CV_PLAN = SimPlan(reps_inner=1_000, reps_outer=7, master_seed=SEED)

# first task ids of a run at task 0 and of a validation run
FIRST_TASKS = [0, VALIDATION_TASK_BASE + 7 * 400]


def forked_run_bytes() -> bytes:
    """One correlation kernel run and one exact-MC critical value, drawn afresh."""
    critvals._MC_MEMO.clear()  # a forked child inherits the parent's estimates
    value = critical_value_mc(30, 0.05, FORK_CV_PLAN).value
    return corr_t1_batch(50, 0.3, SEED, np.arange(100)).tobytes() + value.hex().encode()


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
        # no stream's key depends on n, so a run at a neighbouring size
        # shares its underlying draws and its t values move with them
        tasks = np.arange(500, 1_500, dtype=np.int64)
        t30, t31 = (slope_t_batch(m, 0.3, SEED, tasks) for m in (30, 31))
        assert np.corrcoef(t30, t31)[0, 1] > 0.9

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            simulate_power_slope(4, 0.5, 0.05, exact_null_critval(30, 0.05), 100, SEED)


class TestSlopeTBatch:
    """The slope sampler and the correlation route's data simulation."""

    @pytest.mark.parametrize(
        "batch",
        [
            lambda: slope_t_batch(5000, 0.05, 1, np.arange(4096)),
            lambda: corr_t1_batch(5000, 0.3, 1, np.arange(4096)),
        ],
        ids=["slope", "corr"],
    )
    def test_memory_bounded_at_large_n(self, batch):
        # one chunk of draws holds at most 4096 x 32 variates per stream
        tracemalloc.start()
        try:
            batch()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("chunk", [1_000, 4096 * 32])
    def test_blocked_moments_match_two_pass_fit(self, monkeypatch, chunk):
        # at the small chunk 100 trials read 10 observations per block
        monkeypatch.setattr(corroute, "_CHUNK_VARIATES", chunk)
        n, rho, trials = 47, 0.7, 100
        t1 = corr_t1_batch(n, rho, SEED, np.arange(3_000, 3_000 + trials))
        assert t1 == pytest.approx(run_reference_t1(SEED, n, rho, 3_000, trials), rel=1e-12)

    @pytest.mark.parametrize("lam", [1e3, 1e6])
    def test_large_effect_matches_two_pass_fit_of_noise(self, lam):
        # the residuals of lam * x + z on x are those of z, so a fit of the
        # noise block with beta1_hat = lam + S_XZ / S_XX is exact at any lam
        n, trials = 20, 1_000
        rho = lambda_to_rho(lam)
        lam = rho_to_lambda(rho)  # the effect size the run fits
        x = generator(StreamKey(1, 0, 200)).standard_normal((n, trials))
        z = generator(StreamKey(1, 0, 201)).standard_normal((n, trials))
        sxx, sxz, szz = row_moments(x.T, z.T)
        rss = szz - sxz * sxz / sxx
        expected = (lam + sxz / sxx) * np.sqrt(sxx) / np.sqrt(rss / (n - 2))
        assert corr_t1_batch(n, rho, 1, np.arange(trials)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "batch, name",
        [
            (lambda: slope_t_batch(300, 0.4, SEED, np.arange(2_000)), "slope"),
            (lambda: corr_t1_batch(300, 0.3, SEED, np.arange(2_000)), "corr"),
        ],
        ids=["slope", "corr"],
    )
    def test_three_block_runs_are_pinned(self, batch, name):
        assert sha256(batch()) == KERNEL_PINS[name]

    def test_forked_child_gets_its_own_helper(self):
        # the critical value uses a helper thread, which a forked child
        # lacks; a child that waited on the parent's would hang
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

    def test_kernel_leaves_no_thread_behind(self):
        # the correlation power and an exact-MC miss each join the helper
        # thread they start before they return
        before = threading.active_count()
        for run in range(50):
            corr_power_mc(20, 0.3, 0.05, SimPlan(200, 1, run))
        critical_value_mc(30, 0.05, FORK_CV_PLAN)
        assert threading.active_count() == before
        assert_no_helper_alive()

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

    @pytest.mark.parametrize("role", [200, 201], ids=["corr", "corr-noise"])
    def test_degenerate_trial_raises(self, constant_column, role):
        # a constant predictor column makes trial 3 (task id 7) degenerate
        # (S_XX = 0), which fails the whole run; a constant noise column
        # leaves RSS <= 0
        constant_column(3, role)
        with pytest.raises(SearchFailureError, match=r"task id 7 is degenerate at n=20 "):
            corr_t1_batch(20, 0.4, SEED, np.arange(4, 12))

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

    @pytest.mark.parametrize(
        "batch, first",
        [(slope_t_batch, f) for f in FIRST_TASKS] + [(corr_t1_batch, f) for f in FIRST_TASKS],
        ids=[str(f) for f in FIRST_TASKS] + [f"corr-{f}" for f in FIRST_TASKS],
    )
    def test_range_and_array_of_tasks_give_the_same_bytes(self, batch, first):
        # validation runs and corr_power_mc pass a range, which is checked
        # without an array
        tasks = range(first, first + 400)
        assert batch(25, 0.6, SEED, tasks).tobytes() == batch(
            25, 0.6, SEED, np.arange(first, first + 400, dtype=np.int64)
        ).tobytes()

    @pytest.mark.parametrize("tasks", [range(0), range(9, 9), range(0, 10, 2), range(5, 2, -1)])
    def test_bad_range_raises_as_its_array_does(self, tasks):
        with pytest.raises(ValueError) as from_array:
            slope_t_batch(10, 0.3, SEED, np.array(list(tasks), dtype=np.int64))
        with pytest.raises(ValueError) as from_range:
            slope_t_batch(10, 0.3, SEED, tasks)
        assert str(from_range.value) == str(from_array.value)

    def test_split_tasks_are_separate_runs(self):
        # each part of a split task range is its own run, keyed by its first
        # task id: its values come from its own streams, not from the tail
        # of the whole run's
        tasks = np.arange(1_000, dtype=np.int64)
        whole = slope_t_batch(600, 0.3, SEED, tasks)
        tail = slope_t_batch(600, 0.3, SEED, tasks[300:])
        assert tail == pytest.approx(run_reference_t(600, 0.3, 300, 700), rel=1e-12)
        assert not np.array_equal(tail, whole[300:])
        # evaluation order and other runs leave a run's values unchanged
        assert slope_t_batch(600, 0.3, SEED, tasks).tobytes() == whole.tobytes()


class TestSamplerLaw:
    """The slope sampler against the data simulation and the exact power.

    The bounds were set before the first run, and the seeds are the suite's.
    """

    CASES = [(5, 0.5), (25, 0.0), (49, 0.5), (300, 0.2), (20, 1e3)]
    TRIALS = 20_000

    @pytest.mark.parametrize("n, lam", CASES)
    def test_matches_the_data_simulation_in_law(self, n, lam):
        # sqrt(n - 1) * T on data is T1 at rho = lam / sqrt(1 + lam^2)
        tasks = np.arange(self.TRIALS)
        sampled = slope_t_batch(n, lam, SEED, tasks)
        fitted = corr_t1_batch(n, lambda_to_rho(lam), SEED, tasks) / math.sqrt(n - 1)
        assert stats.ks_2samp(sampled, fitted).pvalue > 1e-3

    @pytest.mark.parametrize("n, lam", CASES)
    def test_power_lies_in_a_binomial_band_around_the_exact_power(self, n, lam):
        # at C_t = t_{1-alpha/2, n-2} / sqrt(n - 1) the power is the
        # fixed-design power averaged over S_XX ~ chi2(n - 1)
        alpha = 0.05
        chi2 = stats.chi2(n - 1)
        exact, _ = integrate.quad(
            lambda s: fixed_design_power(lam, s, 1.0, n, alpha) * chi2.pdf(s),
            chi2.ppf(1e-12), chi2.isf(1e-12), limit=200,
        )
        est = simulate_power_slope(n, lam, alpha, exact_null_critval(n, alpha),
                                   self.TRIALS, SEED, task_base=10**6)
        assert abs(est.power - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / self.TRIALS)


# (lam, alpha, target, power plan, critical-value plan) and the search result
# (n, validated_mean.hex(), validated_sd.hex()), recorded with each run drawn
# from the law of T, chi-squares from numpy's gamma sampler and the ratio
# law's W2*W3 from one squared chi-square; memoized runs must not move a bit
GOLDEN_SEARCHES = [
    (
        (0.6, 0.10, 0.80, SimPlan(1_000, 60, SEED), SimPlan(2_000, 10, SEED)),
        (22, "0x1.9ba184d8d09f6p-1", "0x1.b66242121450dp-7"),
    ),
    (
        (0.6, 0.10, 0.90, SimPlan(500, 55, SEED + 2), SimPlan(1_000, 10, SEED)),
        (29, "0x1.caeb6885c0c5ep-1", "0x1.b9ee965b2e5e5p-7"),
    ),
]


# validation runs each GOLDEN_SEARCHES search draws (per-run draw calls)
GOLDEN_RUNS_DRAWN = {cell: runs for (cell, _), runs in zip(GOLDEN_SEARCHES, [110, 105])}


def record_validation_runs(monkeypatch) -> list[tuple[int, int]]:
    """Wrap the per-run draw; the list returned gets (n, first task id) per validation run drawn."""
    calls = []  # list.append is safe on the helper thread
    draw_run = powersim._draw_run

    def recording_draw(n, master_seed, first_task, block, row):
        if first_task >= VALIDATION_TASK_BASE:
            calls.append((n, first_task))
        return draw_run(n, master_seed, first_task, block, row)

    monkeypatch.setattr(powersim, "_draw_run", recording_draw)
    return calls


class TestFindSampleSize:
    @pytest.mark.parametrize("cell, golden", GOLDEN_SEARCHES)
    def test_golden_search_draws_each_run_once(self, monkeypatch, cell, golden):
        lam, alpha, target, plan, cv_plan = cell
        calls = record_validation_runs(monkeypatch)
        res = find_sample_size_slope(lam, alpha, target, plan, critval_plan=cv_plan)
        assert (res.n, res.validated_mean.hex(), res.validated_sd.hex()) == golden
        # no validation run is drawn twice at the same n
        assert calls and max(collections.Counter(calls).values()) == 1
        assert len(calls) == GOLDEN_RUNS_DRAWN[cell]

    def test_run_power_does_not_depend_on_earlier_validations(self):
        # a run's power at n comes from its own keys alone: validations at
        # other sizes, or a shallower one at n, before it move no bit
        plan, cv_plan = SimPlan(200, 10, SEED), SimPlan(1_000, 5, SEED)
        search = powersim._SlopeSearch(0.6, 0.10, 0.80, plan, None, cv_plan)
        for n, runs in ((26, 4), (24, 6), (25, 3), (27, 10)):
            search.validate(n, runs)
        fresh = powersim._SlopeSearch(0.6, 0.10, 0.80, plan, None, cv_plan)
        assert search.validate(25, 10) == fresh.validate(25, 10)
        assert search._powers[25] == fresh._powers[25]

    def test_critical_values_only_at_sizes_asked_for(self, monkeypatch):
        # the search draws runs and fetches a critical value only at the
        # sizes it validates, and at every one of them
        validated, computed = set(), []
        lookup = powersim._PendingDraw
        validate = powersim._SlopeSearch.validate

        def recording_lookup(n, alphas, plan, cache):
            computed.append(n)
            return lookup(n, alphas, plan, cache)

        def recording_validate(search, n, runs):
            validated.add(n)
            return validate(search, n, runs)

        monkeypatch.setattr(powersim, "_PendingDraw", recording_lookup)
        monkeypatch.setattr(powersim._SlopeSearch, "validate", recording_validate)
        calls = record_validation_runs(monkeypatch)
        plan = SimPlan(500, 55, SEED)
        res = find_sample_size_slope(0.6, 0.10, 0.90, plan, critval_plan=SimPlan(1_000, 10, SEED))
        drawn = {n for n, _ in calls}
        assert set(computed) == validated
        assert res.n in drawn and drawn <= validated

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

        counting("_PendingDraw")
        counting("_draw_run")
        plan = SimPlan(reps_inner=500, reps_outer=10, master_seed=SEED)
        with pytest.raises(SearchFailureError, match=r"n_ceiling=50 .*lam=0\.05, alpha=0\.05"):
            find_sample_size_slope(
                0.05, 0.05, 0.99, plan,
                cache=session_cache,
                critval_plan=SimPlan(reps_inner=1_000, reps_outer=10, master_seed=SEED),
                n_ceiling=50,
            )
        assert calls.count("_PendingDraw") == 0
        assert calls.count("_draw_run") == 0


class TestValidationBlocks:
    """A validation draws its runs as rows of blocks, its critical-value miss in the first."""

    PLAN = SimPlan(200, 120, SEED)  # scout 50, so blocks of 50, 50 and 20 runs
    CV_PLAN = SimPlan(1_000, 7, SEED)

    def search(self, cache=None):
        return powersim._SlopeSearch(0.6, 0.10, 0.80, self.PLAN, cache, self.CV_PLAN)

    def test_run_powers_equal_single_runs_bit_for_bit(self):
        search = self.search()
        search.validate(24, 30)
        search.validate(24, 120)
        search.validate(23, 120)
        trials = self.PLAN.reps_inner
        for n in (23, 24):
            c = search._critvals[n]
            assert c == critical_value_mc(n, 0.10, self.CV_PLAN).value
            want = []
            for v in range(120):
                base = VALIDATION_TASK_BASE + v * trials
                t_vals = slope_t_batch(n, 0.6, SEED, range(base, base + trials))
                want.append(np.count_nonzero(np.abs(t_vals) > c) / trials)
            assert [p.hex() for p in search._powers[n]] == [p.hex() for p in want]

    @pytest.mark.parametrize("trials", [100, 1_000])
    @pytest.mark.parametrize("n", [4, 5, 22, 2_400])
    def test_block_rows_are_the_bytes_of_fresh_generators(self, n, trials):
        # the rows are filled in place on both threads, a chi-square as
        # 2 * standard_gamma(df / 2); each must be its stream's chisquare
        # or standard_normal, whatever the block held before
        first_tasks = [VALIDATION_TASK_BASE + v * trials for v in range(4)]
        block = tuple(np.full((4, trials), np.nan) for _ in range(3))
        stochastics._split_items(
            4, lambda row: powersim._draw_run(n, SEED, first_tasks[row], block, row))
        for row, first in enumerate(first_tasks):
            s, w, z = (part[row].tobytes() for part in block)
            assert s == generator(StreamKey(SEED, first, 102)).chisquare(n - 1, trials).tobytes()
            assert w == generator(StreamKey(SEED, first, 103)).chisquare(n - 2, trials).tobytes()
            assert z == generator(StreamKey(SEED, first, 104)).standard_normal(trials).tobytes()

    def test_merged_miss_equals_a_lone_critical_value(self):
        self.search().validate(24, 50)
        # the miss kept the three table levels, alpha = 0.10 among them
        merged = {alpha: est for (n, alpha, _), est in critvals._MC_MEMO.items() if n == 24}
        critvals._MC_MEMO.clear()
        alone = critvals.critical_values_mc_multi(24, list(merged), self.CV_PLAN)
        assert list(merged) == [0.10, 0.05, 0.01]
        assert [(e.value.hex(), e.sd.hex()) for e in merged.values()] == [
            (e.value.hex(), e.sd.hex()) for e in alone
        ]

    @pytest.mark.parametrize("where", ["replicate-caller", "replicate-helper", "row-caller",
                                       "row-helper"])
    def test_a_raising_item_keeps_nothing(self, monkeypatch, tmp_path, where):
        # items 0..6 are the replicates and 7.. the rows; the caller draws
        # the even items, the helper the odd ones
        error = RuntimeError(where)
        raised_on = []  # list.append is safe on the helper thread
        if where.startswith("replicate"):
            bad = 4 if where.endswith("caller") else 3
            real_draws = critvals.t2_null_draws

            def failing_draws(key, n, size):
                if key.task_id == bad:
                    raised_on.append(threading.get_ident())
                    raise error
                return real_draws(key, n, size)

            monkeypatch.setattr(critvals, "t2_null_draws", failing_draws)
        else:
            bad_row = (12 if where.endswith("caller") else 9) - 7
            real_run = powersim._draw_run

            def failing_run(n, master_seed, first_task, block, row):
                if row == bad_row:
                    raised_on.append(threading.get_ident())
                    raise error
                return real_run(n, master_seed, first_task, block, row)

            monkeypatch.setattr(powersim, "_draw_run", failing_run)
        path = tmp_path / "cv.txt"
        search = self.search(CriticalValueCache(path))
        with pytest.raises(RuntimeError) as raised:
            search.validate(24, 50)
        assert raised.value is error
        assert (raised_on == [threading.get_ident()]) == where.endswith("caller")
        assert critvals._MC_MEMO == {}
        assert not path.exists() or path.read_text() == ""
        assert search._powers.get(24, []) == [] and 24 not in search._critvals
        assert_no_helper_alive()

    def test_full_validation_memory_is_two_blocks_at_most(self):
        # a 1,000-run validation is drawn 50 runs at a time: S, W and Z of
        # one block are 3 x 50 x 1,000 doubles
        plan = SimPlan(1_000, 1_000, SEED)
        search = powersim._SlopeSearch(0.5, 0.05, 0.90, plan, None, self.CV_PLAN)
        critical_value_mc(49, 0.05, self.CV_PLAN)  # a memo hit in the search
        block_bytes = 3 * 50 * 1_000 * 8
        tracemalloc.start()
        try:
            result = search.validate(49, 1_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.runs == 1_000 and len(search._powers[49]) == 1_000
        assert peak < 2 * block_bytes


class TestCorrPowerSplit:
    """corr_power_mc draws its two half-runs as the two items of one split."""

    N, RHO, ALPHA = 300, 0.11, 0.05  # power about 0.5, so a moved split shows
    PLAN = SimPlan(reps_inner=2_001, reps_outer=1, master_seed=SEED)

    def serial_power(self) -> str:
        """The power in hex: |T1| > t counted over both half ranges, one after the other."""
        crit = t_quantile(1.0 - 0.5 * self.ALPHA, self.N - 2)
        reps = self.PLAN.reps_inner
        rejected = sum(
            int(np.count_nonzero(np.abs(corr_t1_batch(self.N, self.RHO, SEED, tasks)) > crit))
            for tasks in (range(0, reps // 2), range(reps // 2, reps))
        )
        return (rejected / reps).hex()

    def power(self) -> str:
        return corr_power_mc(self.N, self.RHO, self.ALPHA, self.PLAN).power.hex()

    def test_power_counts_the_two_half_runs(self):
        assert self.power() == self.serial_power()

    def test_power_holds_with_fast_thread_switches(self):
        # each half-run's result is written by its own thread; switching
        # threads every microsecond must not move a bit
        want = self.serial_power()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [self.power() for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 3

    def test_one_thread_per_power_and_none_per_run(self, monkeypatch):
        started = []  # names of the threads started
        real_start = threading.Thread.start

        def counting(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        corr_t1_batch(self.N, self.RHO, SEED, np.arange(2_000))
        assert started == []
        self.power()
        assert started == ["slopesize-helper"]

    @pytest.mark.parametrize("side", ["caller", "helper"])
    def test_half_run_error_reaches_the_caller(self, monkeypatch, side):
        # the half on task ids [0, 1000) runs here, [1000, 2001) on the helper
        caller = threading.get_ident()
        real = corroute.corr_t1_batch
        raised_on = []  # list.append is safe on the helper thread
        error = RuntimeError(side)

        def failing(n, rho, master_seed, tasks):
            if tasks[0] == (0 if side == "caller" else 1_000):
                raised_on.append(threading.get_ident())
                raise error
            return real(n, rho, master_seed, tasks)

        monkeypatch.setattr(corroute, "corr_t1_batch", failing)
        with pytest.raises(RuntimeError) as raised:
            self.power()
        assert raised.value is error
        assert (raised_on == [caller]) == (side == "caller")
        assert_no_helper_alive()

    def test_first_half_names_the_trial_when_the_helper_fails_first(
        self, monkeypatch, constant_column
    ):
        # trial 3 of each half is degenerate (task ids 3 and 1003); the
        # caller's half waits until the helper's has raised and ended
        constant_column(3, 200)
        caller = threading.get_ident()
        real = corroute.corr_t1_batch
        helper_errors = []

        def delayed(n, rho, master_seed, tasks):
            if threading.get_ident() == caller:
                for thread in threading.enumerate():
                    if thread.name.startswith("slopesize-helper"):
                        thread.join(timeout=60)
                        assert not thread.is_alive()
                assert len(helper_errors) == 1
                return real(n, rho, master_seed, tasks)
            try:
                return real(n, rho, master_seed, tasks)
            except SearchFailureError as exc:
                helper_errors.append(exc)
                raise

        monkeypatch.setattr(corroute, "corr_t1_batch", delayed)
        with pytest.raises(SearchFailureError, match=r"task id 3 is degenerate at n=300 "):
            self.power()
        assert "task id 1003 " in str(helper_errors[0])
        assert_no_helper_alive()


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
    def test_row_shape(self):
        plan = SimPlan(reps_inner=1_000, reps_outer=50, master_seed=SEED)
        rows = power_table(
            0.10, [0.6], [0.80], plan,
            critval_plan=SimPlan(reps_inner=1_000, reps_outer=50, master_seed=SEED),
        )
        assert len(rows) == 1
        assert set(rows[0]) == {"lambda", "power", "n", "mean", "sd"}
        assert rows[0]["lambda"] == 0.6
        assert rows[0]["power"] == 0.80
        assert abs(rows[0]["n"] - 21) <= 3
