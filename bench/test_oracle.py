"""Tests of the benchmark's quadrature oracle.

Run with: python -m pytest bench/test_oracle.py
"""

import pytest

import oracle


def test_ratio_law_critical_value_matches_table1():
    assert round(oracle.ratio_law_critical_value(20, 0.05), 3) == 0.518


@pytest.mark.parametrize("n", [10, 48, 200])
@pytest.mark.parametrize("alpha", [0.10, 0.05, 0.01])
def test_power_at_zero_effect_with_t_threshold_is_alpha(n, alpha):
    c = oracle.t_critical_value(n, alpha)
    assert oracle.slope_power(n, 0.0, c) == pytest.approx(alpha, abs=1e-9)


def test_ratio_law_cdf_inverts_its_quantile():
    c = oracle.ratio_law_quantile(30, 0.9)
    assert oracle.ratio_law_cdf(30, c * c) == pytest.approx(0.9, abs=1e-10)


def test_exact_correlation_power_is_monotone_around_published_cell():
    # Table 3: rho = 0.2873 (lambda = 0.3), alpha = 0.05, 90% power at n = 123
    p = [oracle.corr_power_exact(n, 0.2873, 0.05) for n in (122, 123, 124)]
    assert p[0] < p[1] < p[2]


def test_fisher_z_gives_published_correlation_size():
    assert oracle.fisher_z_power(123, 0.2873, 0.05) >= 0.90 > oracle.fisher_z_power(122, 0.2873, 0.05)


def test_fisher_z_tracks_exact_power():
    for n in (30, 123, 500):
        assert oracle.fisher_z_power(n, 0.3, 0.05) == pytest.approx(
            oracle.corr_power_exact(n, 0.3, 0.05), abs=0.005
        )
