"""The benchmark tracer's contract with the program.

bench/tracer.py wraps program functions by attribute name and reads some of
their arguments by parameter name (tasks, n, lam, reps, size, plan). These
tests install it in-process, run one small call through each traced entry
point, and check that every wrapped layer counted work and that uninstall()
puts every attribute back. They import from bench/ and write nothing there.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from slopesize import cli, corroute, critvals, distmath, exactnull, powersim
from slopesize.stochastics import SimPlan

SEED = 20260808
BENCH = Path(__file__).resolve().parent.parent / "bench"

# counters that one call through each traced entry point must make nonzero
COUNTERS = [
    "stochastics.normal_matrix.calls",
    "stochastics.normal_matrix.rows",
    "stochastics.normal_matrix.variates",
    "stochastics.chisq_array.calls",
    "stochastics.chisq_array.variates",
    "exactnull.t2_null_draws.calls",
    "exactnull.t2_null_draws.draws",
    "critvals.critical_values_mc_multi.calls",
    "critvals.critical_values_mc_multi.outer_reps",
    "critvals.cached_critical_value.calls",
    "critvals.cache.lookups",
    "critvals.cache.hits",
    "critvals.cache.misses",
    "critvals.cache.stores",
    "powersim.slope_t_batch.calls",
    "powersim.slope_t_batch.replicates",
    "powersim.simulate_power_slope.calls",
    "powersim.simulate_power_slope.probe_runs",
    "powersim.simulate_power_slope.trials",
    "powersim.find_sample_size_slope.calls",
    "corroute.find_sample_size_corr.calls",
    "corroute.corr_t1_batch.calls",
    "corroute.corr_t1_batch.replicates",
    "cli.main.calls",
    "corroute.corr_power_approx.calls",
    "distmath.t_quantile.calls",
    "distmath.t_cdf.calls",
    "distmath.normal_cdf.calls",
]


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracer")


def attributes():
    """Every attribute the tracer may replace, by identity."""
    owners = [cli, corroute, critvals, distmath, exactnull, powersim, critvals.CriticalValueCache]
    return {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()}


def test_every_traced_layer_counts_and_uninstall_restores(tracer_module, tmp_path, capsys):
    before = attributes()
    tr = tracer_module.Tracer()
    tracer_module.install(tr)
    try:
        powersim.normal_matrix(SEED, np.arange(3), 100, 5)
        corroute.normal_matrix(SEED, np.arange(3), 200, 5)
        cache = critvals.CriticalValueCache(tmp_path / "cache.txt")
        cv_plan = SimPlan(reps_inner=100, reps_outer=2, master_seed=SEED)
        c = critvals.cached_critical_value(20, 0.05, cv_plan, cache)
        assert critvals.cached_critical_value(20, 0.05, cv_plan, cache) == c
        powersim.simulate_power_slope(20, 0.3, 0.05, c, reps=200, master_seed=SEED)
        powersim.find_sample_size_slope(
            0.6, 0.10, 0.80, SimPlan(reps_inner=100, reps_outer=3, master_seed=SEED),
            cache=cache, critval_plan=cv_plan,
        )
        corroute.corr_power_mc(20, 0.3, 0.05, SimPlan(reps_inner=100, reps_outer=1, master_seed=SEED))
        assert cli.main(["power", "--route", "corr", "--n", "30", "--rho", "0.3",
                         "--alpha", "0.05", "--seed", "1"]) == 0
    finally:
        tr.uninstall()
    capsys.readouterr()
    assert [name for name in COUNTERS if not tr.totals[name] > 0] == []
    after = attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
