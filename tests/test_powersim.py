"""Least-squares fit statistics, power simulation, and the sample-size search."""

import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import row_moments
from slopesize import powersim
from slopesize.corroute import corr_t1_batch
from slopesize.critvals import EXACT_MC, CriticalValueEstimate, cached_critical_value
from slopesize.distmath import t_quantile
from slopesize.powersim import (
    DegenerateXError,
    FitError,
    PerfectFitError,
    SearchFailureError,
    SimDiagnostics,
    SpreadUnderflowError,
    find_sample_size_slope,
    fit_slope_stats,
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

    def test_common_random_numbers_share_draws(self, constant_column):
        c30 = exact_null_critval(30, 0.05)
        one = simulate_power_slope(30, 0.3, 0.05, c30, reps=5_000, master_seed=SEED)
        two = simulate_power_slope(30, 0.3, 0.05, c30, reps=5_000, master_seed=SEED)
        assert one == two
        # draws at a smaller n are a prefix of the draws at a larger n: the t
        # values cut from one draw at 30 equal a draw at each shorter size,
        # also for a trial whose constant predictor is degenerate at all
        constant_column(200, powersim._X_STREAM)
        tasks = np.arange(500, 1_500, dtype=np.int64)
        lengths = (30, 29, 27, 5)
        diag = SimDiagnostics()
        cut = powersim._slope_t_prefixes(lengths, 0.3, SEED, tasks, diag, powersim._SLOPE_ROLES)
        assert diag.resampled == len(lengths)
        for m, t_vals in zip(lengths, cut):
            assert t_vals.tobytes() == slope_t_batch(m, 0.3, SEED, tasks).tobytes()
        # the retry redraws trial 200 as a one-trial run on its own task id,
        # 700, at roles 102/103
        redrawn = powersim._slope_t_prefixes((30,), 0.3, SEED, (700,), None, (102, 103))
        assert cut[0][200] == redrawn[0][0]

    def test_diagnostics_counter_untouched_on_clean_runs(self):
        diag = SimDiagnostics()
        c = exact_null_critval(20, 0.05)
        simulate_power_slope(20, 0.2, 0.05, c, reps=2_000, master_seed=SEED, diagnostics=diag)
        assert diag.resampled == 0

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
        cut = powersim._slope_t_prefixes(lengths, 0.4, SEED, tasks, None, powersim._SLOPE_ROLES)
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

    def test_huge_effect_needs_no_resample(self):
        diagnostics = SimDiagnostics()
        t_vals = slope_t_batch(20, 1e9, 1, np.arange(1_000), diagnostics)
        assert diagnostics.resampled == 0
        assert np.all(np.isfinite(t_vals))

    @pytest.mark.parametrize("lam", [1e6, 1e9])
    def test_redrawn_trial_is_a_one_trial_kernel_run(self, constant_column, lam):
        # a degenerate trial is refitted on the kernel's own running sums, so
        # the retry keeps the kernel's accuracy at any lam
        constant_column(3, powersim._X_STREAM)
        diagnostics = SimDiagnostics()
        t_vals = slope_t_batch(20, lam, 1, np.arange(8), diagnostics)
        assert diagnostics.resampled == 1
        redrawn = powersim._slope_t_prefixes((20,), lam, 1, (3,), None, (102, 103))
        assert t_vals[3] == redrawn[0][0]

    def test_retries_stop_at_their_limit(self, monkeypatch):
        # every stream constant: each retry is degenerate too, and the
        # redraws end after _MAX_RETRIES instead of going on
        class Ones:
            def standard_normal(self, shape):
                return np.ones(shape)

        monkeypatch.setattr(powersim, "generator", lambda key: Ones())
        diagnostics = SimDiagnostics()
        with pytest.raises(SearchFailureError, match="replicate 4 stayed degenerate after 64"):
            slope_t_batch(10, 0.3, 1, np.arange(4, 8), diagnostics)
        assert diagnostics.resampled == powersim._MAX_RETRIES

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


class TestFindSampleSize:
    @pytest.mark.parametrize("cell, golden", GOLDEN_SEARCHES)
    def test_golden_search_draws_each_run_once(self, monkeypatch, cell, golden):
        lam, alpha, target, plan, cv_plan = cell
        drawn = collections.Counter()
        kernel = powersim._slope_t_prefixes

        def counting_kernel(lengths, lam, master_seed, tasks, diagnostics, roles):
            if tasks[0] >= VALIDATION_TASK_BASE:
                drawn[max(lengths), int(tasks[0])] += 1
            return kernel(lengths, lam, master_seed, tasks, diagnostics, roles)

        monkeypatch.setattr(powersim, "_slope_t_prefixes", counting_kernel)
        res = find_sample_size_slope(lam, alpha, target, plan, critval_plan=cv_plan)
        assert (res.n, res.validated_mean.hex(), res.validated_sd.hex()) == golden
        # no validation run is drawn twice at the same n
        assert drawn and max(drawn.values()) == 1

    def test_critical_values_only_at_sizes_asked_for(self, monkeypatch):
        # a scout's window sizes below it get a critical value only once the
        # search asks for them
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
        # at this seed a scout draws the window sizes 27 and 26, which are never asked for
        plan = SimPlan(500, 55, SEED)
        find_sample_size_slope(0.6, 0.10, 0.90, plan, critval_plan=SimPlan(1_000, 10, SEED))
        assert computed and set(computed) <= asked

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
        calls = collections.Counter()

        def counting(name):
            inner = getattr(powersim, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
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
        assert calls["cached_critical_value"] == 0
        assert calls["_slope_t_prefixes"] == 0


class TestRefineValidated:
    """The one sample-size search, on a synthetic monotone predicate."""

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
