"""Distribution math against independent oracles.

Reference values are frozen from two independent sources: a plain power
series for erf (written below, no shared code with the implementation) and
scipy.stats, which implements these distributions through entirely
different algorithms. Tolerances follow the module contracts: 1e-12 for the
normal CDF, 1e-10 for the t CDFs, 1e-9 (probability scale) for quantiles.
"""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopesize import distmath
from slopesize.distmath import (
    NonConvergenceError,
    fixed_design_power,
    noncentral_t_cdf,
    normal_cdf,
    normal_quantile,
    t_cdf,
    t_quantile,
)


def erf_series(x: float) -> float:
    """Power-series erf oracle: sum (-1)^k x^(2k+1) / (k! (2k+1))."""
    term = x
    total = x
    k = 0
    while abs(term) > 1e-18 and k < 500:
        k += 1
        term *= -x * x / k
        total += term / (2 * k + 1)
    return 2.0 / math.sqrt(math.pi) * total


def phi_oracle(x: float) -> float:
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


# every df up to 100, then a stride through 3000, plus the benchmarked
# 598 and 2412 and 2400, where a CDF that rounds near 0 misplaces the
# 0.5000001 quantile
QUANTILE_DFS = sorted(set(range(1, 101)) | set(range(101, 3001, 7)) | {598, 2400, 2412, 3000})


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_spot_values_vs_series_oracle(self):
        # series oracle: 0.9750021048517794 | scipy: 0.9750021048517795
        assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
        # series oracle: 0.9950024676842649
        assert normal_cdf(2.576) == pytest.approx(0.9950024676842649, abs=1e-12)

    def test_matches_oracle_on_grid(self):
        # the alternating series cancels catastrophically past |x| ~ 4.5,
        # so the oracle comparison stays inside its accurate range
        for x in np.linspace(-4.0, 4.0, 41):
            assert normal_cdf(float(x)) == pytest.approx(phi_oracle(float(x)), abs=1e-12)

    def test_matches_scipy_in_tails(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for x in (-8.0, -6.0, -5.0, 5.0, 6.0, 8.0):
            assert normal_cdf(x) == pytest.approx(float(scipy_stats.norm.cdf(x)), rel=1e-12)

    @given(st.floats(-8.0, 8.0))
    def test_symmetry(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing(self):
        xs = np.linspace(-5.0, 5.0, 101)
        vals = [normal_cdf(float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normal_cdf(float("nan"))


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_known_z_values(self):
        # scipy: 1.6448536269514722, 1.959963984540054, 2.5758293035489004,
        # 7.0344869100478356
        assert normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-9)
        assert normal_quantile(1 - 1e-12) == pytest.approx(7.0344869100478356, abs=1e-9)

    @given(st.floats(0.0005, 0.9995))
    @settings(max_examples=50)
    def test_roundtrip(self, p):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 1.7])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)


class TestTCdf:
    def test_symmetry_point(self):
        assert t_cdf(0.0, 7) == 0.5

    def test_cauchy_closed_form(self):
        # df=1 is Cauchy: F(1) = 3/4
        assert t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)

    def test_cauchy_far_lower_tail(self):
        # F(x) = atan(1 / |x|) / pi below 0; past |x| = 1.3e154 x^2
        # overflows, where the tail was once 0
        for k in range(3081):
            x = -(10.0 ** (k / 10))
            assert abs(t_cdf(x, 1) / (math.atan(1.0 / -x) / math.pi) - 1.0) <= 1e-13, x

    def test_spot_value(self):
        # scipy: 0.9633059826146297
        assert t_cdf(2.0, 10) == pytest.approx(0.963306, abs=1e-6)
        assert t_cdf(2.0, 10) == pytest.approx(0.9633059826146297, abs=1e-10)

    def test_scipy_cross_check_grid(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for x in (-4.0, -1.3, 0.2, 0.9, 2.7, 8.0):
            for df in (1, 2, 5, 28, 200):
                assert t_cdf(x, df) == pytest.approx(
                    float(scipy_stats.t.cdf(x, df)), abs=1e-10
                )

    def test_accurate_near_zero_at_large_df(self):
        # near 0, df / (df + x^2) rounds towards 1 at large df; the CDF is
        # integrated from 0 there instead of from the tail
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (1, 2, 5, 28, 200, 2400, 10**5):
            for x in (1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
                for signed in (x, -x):
                    assert t_cdf(signed, df) == pytest.approx(
                        float(scipy_stats.t.cdf(signed, df)), abs=1e-10
                    ), (signed, df)
        # true value 2.5069e-7; a CDF that rounds near 0 puts it below zero
        assert t_quantile(0.5000001, 2400) == pytest.approx(2.506889394e-7, rel=1e-8)

    @pytest.mark.parametrize("df", [1, 2, 5, 30, 100, 1_000, 10**4, 10**5])
    def test_lower_tail_relative_to_scipy(self, df):
        # at x^2 < df, 0.5 - I(1/2, df/2) / 2 lost all digits of a value
        # below 1e-16; the bound leaves room for log B's lgamma cancellation
        # (2.7e-11 relative at df 10^4)
        scipy_stats = pytest.importorskip("scipy.stats")
        for k in range(1, 101):
            x = float(scipy_stats.t.ppf(10.0**-k, df))
            want = float(scipy_stats.t.cdf(x, df))
            assert abs(t_cdf(x, df) / want - 1.0) <= 1e-10, (k, x)

    @pytest.mark.parametrize("df", [19_999, 20_000, 10**6, 10**7, 10**8, 10**9])
    def test_accurate_at_huge_df(self, df):
        # lgamma(df / 2) - lgamma(df / 2 + 1/2) cancelled to 2.7e-7 at
        # x = 1.28155, df 10^9 before log B took it from Stirling's series;
        # a search can reach df 10^6 - 2 at its default ceiling
        scipy_stats = pytest.importorskip("scipy.stats")
        for x in (0.5, 1.28155, 3.0):
            for signed in (x, -x):
                assert t_cdf(signed, df) == pytest.approx(
                    float(scipy_stats.t.cdf(signed, df)), abs=1e-10
                ), signed

    def test_normal_limit(self):
        for x in (-2.0, -0.5, 1.0, 2.5):
            assert t_cdf(x, 10**6) == pytest.approx(normal_cdf(x), abs=1e-4)

    @given(st.floats(-30.0, 30.0), st.integers(1, 500))
    @settings(max_examples=80)
    def test_symmetric_in_x(self, x, df):
        assert t_cdf(x, df) + t_cdf(-x, df) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("df", [0, -3])
    def test_rejects_bad_df(self, df):
        with pytest.raises(ValueError):
            t_cdf(1.0, df)


class TestTQuantile:
    def test_median(self):
        assert t_quantile(0.5, 9) == 0.0

    def test_cauchy(self):
        assert t_quantile(0.75, 1) == pytest.approx(1.0, abs=1e-9)

    def test_spot_value(self):
        # scipy: 2.0422724563012373
        assert t_quantile(0.975, 30) == pytest.approx(2.042272, abs=1e-6)

    @given(st.floats(0.001, 0.999), st.integers(1, 200))
    @settings(max_examples=80)
    def test_functional_inverse(self, p, df):
        assert t_cdf(t_quantile(p, df), df) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            t_quantile(p, 5)

    def test_inverse_to_1e_11_on_grid(self):
        for df in QUANTILE_DFS + [10**5]:
            for p in (0.5000001, 0.6, 0.9, 0.975, 0.995, 0.9995, 1 - 1e-9):
                assert abs(t_cdf(t_quantile(p, df), df) - p) <= 1e-11, (p, df)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (1, 2, 3, 5, 10, 28, 100, 598, 2400, 3000, 10**5):
            for p in (0.5000001, 0.6, 0.9, 0.975, 0.995, 0.9995, 1 - 1e-9):
                x = t_quantile(p, df)
                # scipy's own CDF is off by up to 6e-11 near 0 at df 1
                assert float(scipy_stats.t.cdf(x, df)) == pytest.approx(p, abs=1e-10)
                if p >= 0.6:
                    # scipy's ppf is off by 4e-4 relative at (0.5000001, 4),
                    # and by 1e-8 at p = 1 - 1e-9
                    assert x == pytest.approx(float(scipy_stats.t.ppf(p, df)), rel=1e-7)

    @pytest.mark.parametrize("df", [1, 2, 5, 30, 100, 1_000, 10**5])
    @pytest.mark.parametrize("p", [1e-10, 1e-17])
    def test_lower_tail_relative_to_p(self, p, df):
        # reflecting through 1 - p would round p away (1 - 1e-17 == 1.0),
        # and at x^2 < df so would 0.5 - I(1/2, df/2) / 2
        assert abs(t_cdf(t_quantile(p, df), df) / p - 1.0) <= 1e-12

    @pytest.mark.parametrize("df", range(1, 16))
    def test_round_trip_down_to_1e_300(self, df):
        # far down the lower tail t_cdf's x^2 overflows and the density
        # underflows; at df 2, p = 1e-220 gave twice the quantile, and at
        # df 1, p = 1e-300 did not converge
        for k in range(1, 301):
            for p in (10.0**-k, 0.37 * 10.0**-k):
                x = t_quantile(p, df)
                if math.isfinite(x):
                    assert abs(t_cdf(x, df) / p - 1.0) <= 1e-12, (p, x)

    def test_df_2_far_lower_tail(self):
        for k in range(1, 301):
            p = 10.0**-k
            want = (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
            assert t_quantile(p, 2) == pytest.approx(want, rel=1e-12), p

    @pytest.mark.parametrize("df", [1, 3, 28, 598, 2400])
    def test_lower_tail_mirrors_upper(self, df):
        for p in (0.4, 0.1, 0.025, 0.005):
            assert t_quantile(p, df) == pytest.approx(-t_quantile(1.0 - p, df), rel=1e-12)

    def test_two_cdf_calls_per_quantile(self, monkeypatch):
        calls = []
        inner = distmath.t_cdf

        def counting(x, df):
            calls.append(x)
            return inner(x, df)

        monkeypatch.setattr(distmath, "t_cdf", counting)
        counts = []
        for df in QUANTILE_DFS:
            for p in (0.9, 0.95, 0.975, 0.995, 0.9995):
                calls.clear()
                t_quantile(p, df)
                counts.append(len(calls))
        assert statistics.median(counts) <= 3
        assert max(counts) <= 8


class TestNoncentralTCdf:
    def test_central_symmetric_case(self):
        assert noncentral_t_cdf(0.0, 12, 0.0) == 0.5

    def test_reduces_to_central_t(self):
        for x in (-2.5, -0.7, 0.0, 1.5, 4.0):
            for df in (1, 5, 40):
                assert noncentral_t_cdf(x, df, 0.0) == pytest.approx(
                    t_cdf(x, df), abs=1e-10
                )

    def test_frozen_scipy_cross_checks(self):
        # scipy.stats.nct.cdf, an independent implementation
        cases = [
            (1.0, 5, 0.5, 0.6665357026872718),
            (2.0, 10, 1.0, 0.8076115625303752),
            (-0.5, 10, -1.0, 0.6947197673782562),
            (2.0, 20, 2.0, 0.4902570541432667),
            (0.0, 20, 2.0, 0.02275013194817922),
            (4.0, 3, 3.0, 0.6268078581733412),
            (3.0, 30, 1.5, 0.9157785800797542),
            (5.0, 50, 4.0, 0.8084503952445166),
            (2.5, 7, 6.0, 0.0016343822433750297),
        ]
        for x, df, ncp, want in cases:
            assert noncentral_t_cdf(x, df, ncp) == pytest.approx(want, abs=1e-9)

    def test_monotone_decreasing_in_ncp(self):
        values = [noncentral_t_cdf(2.0, 15, d) for d in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_mc_oracle_spot(self):
        # oracle: (Z + ncp) / sqrt(chi2_df / df) via numpy's own generators
        rng = np.random.default_rng(20260808)
        draws = (rng.standard_normal(10**6) + 2.0) / np.sqrt(rng.chisquare(20, 10**6) / 20)
        p_hat = float(np.mean(draws <= 2.0))
        se = math.sqrt(p_hat * (1 - p_hat) / 10**6)
        assert noncentral_t_cdf(2.0, 20, 2.0) == pytest.approx(p_hat, abs=3 * se)

    def test_nonconvergence_guard(self):
        # large ncp together with large x starves the series of mass
        with pytest.raises(NonConvergenceError):
            noncentral_t_cdf(100.0, 5, 100.0)


class TestFixedDesignPower:
    def test_null_equals_level(self):
        for alpha in (0.10, 0.05, 0.01):
            assert fixed_design_power(0.0, 50.0, 1.0, 20, alpha) == pytest.approx(
                alpha, abs=1e-9
            )

    def test_mc_oracle_fixed_design(self):
        # 4e5 simulated fixed-X regressions, Sxx=100, n=30: power 0.997875
        # (numpy rng oracle, seed 7; 3 binomial SE = 2.2e-4)
        assert fixed_design_power(0.5, 100.0, 1.0, 30, 0.05) == pytest.approx(
            0.997875, abs=3e-4
        )

    def test_monotone_in_sxx(self):
        powers = [fixed_design_power(0.3, sxx, 1.0, 25, 0.05) for sxx in (5, 20, 80, 320)]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    @pytest.mark.parametrize("bad", [{"sxx": 0.0}, {"sxx": -1.0}, {"sigma": 0.0}, {"n": 2}])
    def test_rejects_bad_inputs(self, bad):
        kwargs = {"a_slope": 0.5, "sxx": 10.0, "sigma": 1.0, "n": 20, "alpha": 0.05}
        kwargs.update(bad)
        with pytest.raises(ValueError):
            fixed_design_power(
                kwargs["a_slope"], kwargs["sxx"], kwargs["sigma"], kwargs["n"], kwargs["alpha"]
            )
