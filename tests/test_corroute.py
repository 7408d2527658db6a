"""Effect-size/correlation bridge, correlation-test power, and the contrast."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import run_reference_t1
from slopesize import corroute
from slopesize.corroute import (
    contrast_table,
    corr_power_approx,
    corr_power_mc,
    corr_t1_batch,
    find_sample_size_corr,
    lambda_to_rho,
    rho_to_lambda,
)
from slopesize.powersim import SearchFailureError, power_table
from slopesize.stochastics import SimPlan

SEED = 20260808

# published bridge values, 4 decimals
BRIDGE = {0.1: 0.0995, 0.2: 0.1961, 0.3: 0.2873, 0.4: 0.3714, 0.5: 0.4472, 0.6: 0.5145}

# published correlation-route sample sizes (CorrTest columns)
CORR_N = {
    0.10: {0.1: [622, 861, 1088, 1584], 0.2: [159, 219, 276, 401],
           0.3: [73, 100, 126, 182], 0.4: [43, 58, 73, 106],
           0.5: [29, 39, 49, 70], 0.6: [21, 29, 36, 51]},
    0.05: {0.1: [790, 1057, 1306, 1846], 0.2: [201, 269, 332, 468],
           0.3: [92, 123, 151, 213], 0.4: [54, 72, 88, 123],
           0.5: [37, 48, 59, 82], 0.6: [27, 35, 43, 59]},
    0.01: {0.1: [1175, 1496, 1790, 2414], 0.2: [299, 380, 454, 612],
           0.3: [137, 173, 207, 278], 0.4: [80, 101, 120, 161],
           0.5: [53, 67, 80, 107], 0.6: [39, 49, 58, 77]},
}
TARGETS = [0.80, 0.90, 0.95, 0.99]

# find_sample_size_corr on all 72 cells, captured with the bisection t
# quantile; 11 cells at alpha 0.10 exceed CORR_N by 1
CORR_N_PINNED = {
    0.10: {0.1: [623, 862, 1088, 1585], 0.2: [159, 219, 277, 402],
           0.3: [73, 100, 126, 183], 0.4: [43, 59, 74, 106],
           0.5: [29, 40, 49, 71], 0.6: [22, 29, 36, 51]},
    0.05: {0.1: [790, 1057, 1306, 1846], 0.2: [201, 269, 332, 468],
           0.3: [92, 123, 151, 213], 0.4: [54, 72, 88, 123],
           0.5: [37, 48, 59, 82], 0.6: [27, 35, 43, 59]},
    0.01: {0.1: [1175, 1496, 1790, 2414], 0.2: [299, 380, 454, 612],
           0.3: [137, 173, 207, 278], 0.4: [80, 101, 120, 161],
           0.5: [53, 67, 80, 107], 0.6: [39, 49, 58, 77]},
}


class TestBridge:
    def test_zero_maps_to_zero(self):
        assert lambda_to_rho(0.0) == 0.0
        assert rho_to_lambda(0.0) == 0.0

    @pytest.mark.parametrize("lam,rho", sorted(BRIDGE.items()))
    def test_published_values_to_4_decimals(self, lam, rho):
        assert lambda_to_rho(lam) == pytest.approx(rho, abs=5e-5)

    def test_unit_lambda(self):
        assert lambda_to_rho(1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_limit_behavior(self):
        assert lambda_to_rho(100.0) > 0.9999

    def test_huge_effect_maps_to_unit_correlation(self):
        # lam * lam overflows above ~1.3e154, where rho is 1 to far below an ulp
        assert lambda_to_rho(1e200) == 1.0
        assert lambda_to_rho(-1e200) == -1.0
        assert lambda_to_rho(sys.float_info.max) == 1.0

    @given(st.floats(-1.34e154, 1.34e154))
    @settings(max_examples=500)
    def test_formula_kept_where_the_square_is_finite(self, lam):
        assert lambda_to_rho(lam) == lam / math.sqrt(1.0 + lam * lam)

    def test_inverse_spot(self):
        assert rho_to_lambda(0.4472) == pytest.approx(0.5, abs=1e-3)

    @given(st.floats(-10.0, 10.0).filter(lambda v: abs(v) > 1e-3))
    @settings(max_examples=100)
    def test_round_trip(self, lam):
        assert rho_to_lambda(lambda_to_rho(lam)) == pytest.approx(lam, rel=1e-12)

    @given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
    @settings(max_examples=50)
    def test_odd_and_monotone(self, a, b):
        assert lambda_to_rho(-a) == pytest.approx(-lambda_to_rho(a), rel=1e-12)
        if a < b:
            # nondecreasing under hypothesis (adjacent floats can tie in rho);
            # strictness is pinned on the fixed grid below
            assert lambda_to_rho(a) <= lambda_to_rho(b)

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(-5.0, 5.0, 101)
        rhos = [lambda_to_rho(float(v)) for v in grid]
        assert all(x < y for x, y in zip(rhos, rhos[1:]))

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_inverse_domain(self, rho):
        with pytest.raises(ValueError):
            rho_to_lambda(rho)

    def test_curve_tabulation(self):
        rhos = [lambda_to_rho(lam) for lam in (0.1, 0.5, 1.0, 2.0)]
        assert rhos[0] == pytest.approx(0.0995, abs=5e-5)
        assert rhos == sorted(rhos)


class TestCorrPowerApprox:
    def test_null_calibration(self):
        for alpha in (0.10, 0.05, 0.01):
            assert corr_power_approx(60, 0.0, alpha) == pytest.approx(alpha, abs=0.002)

    def test_published_cell_123(self):
        assert corr_power_approx(123, 0.2873, 0.05) == pytest.approx(0.90, abs=0.01)

    def test_published_cell_790(self):
        assert corr_power_approx(790, 0.0995, 0.05) == pytest.approx(0.80, abs=0.01)

    def test_monotone_in_n_rho_alpha(self):
        in_n = [corr_power_approx(n, 0.3, 0.05) for n in (10, 30, 90, 200)]
        assert all(a < b for a, b in zip(in_n, in_n[1:]))
        in_rho = [corr_power_approx(50, r, 0.05) for r in (0.05, 0.2, 0.4, 0.6)]
        assert all(a < b for a, b in zip(in_rho, in_rho[1:]))
        in_alpha = [corr_power_approx(50, 0.3, a) for a in (0.01, 0.05, 0.10)]
        assert all(a < b for a, b in zip(in_alpha, in_alpha[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            corr_power_approx(3, 0.3, 0.05)
        with pytest.raises(ValueError):
            corr_power_approx(30, 1.0, 0.05)


class TestCorrPowerMc:
    def test_exact_size_under_null(self):
        plan = SimPlan(reps_inner=20_000, reps_outer=1, master_seed=SEED)
        est = corr_power_mc(30, 0.0, 0.05, plan)
        assert est.power == pytest.approx(0.05, abs=3 * math.sqrt(0.05 * 0.95 / 20_000))

    def test_published_cell_48(self):
        plan = SimPlan(reps_inner=20_000, reps_outer=1, master_seed=SEED)
        est = corr_power_mc(48, 0.4472, 0.05, plan)
        assert est.power == pytest.approx(0.90, abs=0.02)

    def test_oracle_agreement_with_approx(self):
        plan = SimPlan(reps_inner=10_000, reps_outer=1, master_seed=SEED)
        for n, lam, alpha in [(73, 0.3, 0.10), (269, 0.2, 0.05), (67, 0.5, 0.01), (35, 0.6, 0.05)]:
            rho = lambda_to_rho(lam)
            mc = corr_power_mc(n, rho, alpha, plan).power
            approx = corr_power_approx(n, rho, alpha)
            assert abs(mc - approx) <= 0.015

    @pytest.mark.parametrize("n, rho", [(5, 0.3), (40, -0.6), (123, 0.2873)])
    def test_t1_matches_direct_fit(self, n, rho):
        tasks = np.arange(17, 57)
        t1 = corr_t1_batch(n, rho, SEED, tasks)
        assert t1 == pytest.approx(run_reference_t1(SEED, n, rho, 17, len(tasks)), rel=1e-12)

    def test_t1_null_distribution(self):
        # under rho=0 the statistic is exactly t with n-2 df
        n = 20
        t1 = corr_t1_batch(n, 0.0, SEED, np.arange(10**5))
        res = stats.kstest(t1, stats.t(n - 2).cdf)
        assert res.pvalue > 0.01


class TestFindSampleSizeCorr:
    def test_published_cell_table5(self):
        res = find_sample_size_corr(0.0995, 0.10, 0.80, SimPlan(master_seed=SEED))
        assert abs(res.n - 622) <= 2
        assert res.route == "correlation"
        assert res.validated_sd == 0.0
        assert res.validated_mean >= 0.80

    def test_published_cell_table7(self):
        res = find_sample_size_corr(0.2873, 0.01, 0.90, SimPlan(master_seed=SEED))
        assert abs(res.n - 173) <= 1

    def test_published_cell_table6(self):
        res = find_sample_size_corr(0.5145, 0.05, 0.95, SimPlan(master_seed=SEED))
        assert abs(res.n - 43) <= 1

    def test_table6_all_cells_within_1(self):
        for lam, cells in CORR_N[0.05].items():
            rho = lambda_to_rho(lam)
            for target, want in zip(TARGETS, cells):
                got = find_sample_size_corr(rho, 0.05, target, SimPlan(master_seed=SEED)).n
                assert abs(got - want) <= 1, (lam, target, got, want)

    def test_every_cell_is_pinned(self):
        got = {
            alpha: {
                lam: [find_sample_size_corr(lambda_to_rho(lam), alpha, target,
                                            SimPlan(master_seed=SEED)).n for target in TARGETS]
                for lam in cells
            }
            for alpha, cells in CORR_N_PINNED.items()
        }
        assert got == CORR_N_PINNED

    def test_smallest_n_property(self):
        res = find_sample_size_corr(0.3714, 0.05, 0.90, SimPlan(master_seed=SEED))
        assert corr_power_approx(res.n, 0.3714, 0.05) >= 0.90
        if res.n > 5:
            assert corr_power_approx(res.n - 1, 0.3714, 0.05) < 0.90

    def test_search_starts_near_the_answer(self, monkeypatch):
        # the closed-form Fisher-z start lands next to the answer, so the
        # 72 table cells need few power evaluations (a doubling search from
        # n = 4 made 1,040)
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return corr_power_approx(*args)

        monkeypatch.setattr(corroute, "corr_power_approx", counting)
        plan = SimPlan(master_seed=SEED)
        for alpha, cells in CORR_N_PINNED.items():
            for lam in cells:
                for target in TARGETS:
                    find_sample_size_corr(lambda_to_rho(lam), alpha, target, plan)
        assert calls[0] <= 300

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0, 1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie strictly inside"):
            find_sample_size_corr(0.3, alpha, 0.8, SimPlan(master_seed=SEED))

    def test_rejects_zero_rho(self):
        with pytest.raises(ValueError):
            find_sample_size_corr(0.0, 0.05, 0.8, SimPlan(master_seed=SEED))

    def test_ceiling_is_the_largest_n_allowed(self):
        # the doubling bracket stops at the ceiling instead of passing it, so
        # an answer between the last power of two and the ceiling is found
        plan = SimPlan(master_seed=SEED)
        n = find_sample_size_corr(0.0995, 0.10, 0.80, plan).n
        assert find_sample_size_corr(0.0995, 0.10, 0.80, plan, n_ceiling=n).n == n
        with pytest.raises(SearchFailureError, match=f"no n <= {n - 1} "):
            find_sample_size_corr(0.0995, 0.10, 0.80, plan, n_ceiling=n - 1)


class TestContrastTable:
    def test_small_grid_structure(self):
        plan = SimPlan(reps_inner=1_000, reps_outer=50, master_seed=SEED)
        power_rows = power_table(
            0.10, [0.6], [0.80], plan,
            critval_plan=SimPlan(reps_inner=1_000, reps_outer=50, master_seed=SEED),
        )
        rows = contrast_table(0.10, power_rows)
        assert len(rows) == 1
        row = rows[0]
        assert row.alpha == 0.10
        assert row.rho == lambda_to_rho(0.6)
        assert row.difference == row.n_slope - row.n_corr
        assert abs(row.n_corr - 21) <= 2
        assert abs(row.difference) <= 4
