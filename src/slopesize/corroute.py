"""The correlation-test route and the slope-vs-correlation contrast.

Testing beta1 = 0 is equivalent to testing rho = 0, and the effect size
lam = beta1 * sigma_x / sigma_eps maps to the correlation through

    rho = lam / sqrt(1 + lam^2)        (inverse: lam = rho / sqrt(1 - rho^2))

Correlation power uses the bias-corrected Fisher arctanh approximation with
the critical correlation implied by the t test of the sample correlation;
a bivariate-normal Monte Carlo of the same test serves as its oracle. That
oracle runs through the slope route's replicate kernel: the response
y = rho * x + sqrt(1 - rho^2) * z is lam * x + z up to a positive factor,
which leaves the slope t statistic T unchanged, and on every sample the
correlation statistic is T1 = sqrt(n - 1) * T. Only the stream roles differ:
a run's x and z blocks come from roles 200 and 201 under its first task id.
A degenerate replicate fails the run with the kernel's SearchFailureError.

The route's sample size is the slope route's search (_refine_validated) on
the Fisher-z power, started at ceil(((z_{1-alpha/2} + z_target) /
atanh|rho|)^2 + 3), the answer or one above it on all 72 table cells. The
contrast table puts the slope-route sample size (simulated) next to the
correlation-route sample size (deterministic) for each (lam, target) cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distmath import normal_cdf, normal_quantile, t_quantile
from .powersim import (
    PowerEstimate,
    SampleSizeResult,
    _refine_validated,
    _slope_t_prefixes,
)
from .stochastics import SimPlan
from .stochastics import normal_matrix  # noqa: F401  (the benchmark tracer wraps it by name)

__all__ = [
    "ContrastRow",
    "lambda_to_rho",
    "rho_to_lambda",
    "corr_power_approx",
    "corr_power_mc",
    "find_sample_size_corr",
    "contrast_table",
]

# stream roles (x, z) of one correlation run
_CORR_ROLES = (200, 201)


@dataclass(frozen=True)
class ContrastRow:
    alpha: float
    lam: float
    rho: float
    target_power: float
    n_slope: int
    n_corr: int
    difference: int


def lambda_to_rho(lam: float) -> float:
    """Correlation implied by the effect size; odd and strictly increasing."""
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    if abs(lam) > 1e9:  # the formula is +-1 here, and lam * lam overflows above ~1.3e154
        return math.copysign(1.0, lam)
    return lam / math.sqrt(1.0 + lam * lam)


def rho_to_lambda(rho: float) -> float:
    """Effect size implied by the correlation; exact inverse of lambda_to_rho."""
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must lie strictly inside (-1, 1), got {rho!r}")
    return rho / math.sqrt(1.0 - rho * rho)


def corr_power_approx(n: int, rho: float, alpha: float) -> float:
    """Two-sided power of the correlation t test, Fisher arctanh route.

    The critical correlation r_c solves the t test at level alpha; the
    rejection probability is evaluated on the arctanh scale with the
    rho / (2(n-1)) bias correction applied to the alternative.
    """
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n!r}")
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must lie strictly inside (-1, 1), got {rho!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    t = t_quantile(1.0 - 0.5 * alpha, n - 2)
    r_c = math.sqrt(t * t / (t * t + n - 2))
    z_r = math.atanh(rho) + rho / (2.0 * (n - 1))
    z_rc = math.atanh(r_c)
    s = math.sqrt(n - 3)
    return normal_cdf((z_r - z_rc) * s) + normal_cdf((-z_r - z_rc) * s)


def corr_t1_batch(n: int, rho: float, master_seed: int, tasks) -> np.ndarray:
    """T1 statistics of one run of bivariate-normal replicates, one per task id.

    tasks must be consecutive. Replicate i takes column i of the run's x and
    z blocks, read from the streams (master_seed, tasks[0], 200) and
    (master_seed, tasks[0], 201), and y = rho * x + sqrt(1 - rho^2) * z.
    Memory is bounded for any n: the slope kernel reads a block of rows at
    a time. n must be at least 4 (else ValueError), and a degenerate
    replicate raises SearchFailureError.
    """
    lam = rho_to_lambda(rho)
    t = _slope_t_prefixes((n,), lam, master_seed, tasks, _CORR_ROLES)[0]
    return math.sqrt(n - 1) * t


def corr_power_mc(n: int, rho: float, alpha: float, plan: SimPlan) -> PowerEstimate:
    """Monte Carlo power of the correlation t test |T1| > t_{1-alpha/2, n-2}."""
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n!r}")
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must lie strictly inside (-1, 1), got {rho!r}")
    crit = t_quantile(1.0 - 0.5 * alpha, n - 2)
    reps = plan.reps_inner
    t1 = corr_t1_batch(n, rho, plan.master_seed, np.arange(reps))
    power = float(np.count_nonzero(np.abs(t1) > crit)) / reps
    sd = math.sqrt(power * (1.0 - power) / reps)
    return PowerEstimate(n=n, alpha=alpha, lam=rho_to_lambda(rho), power=power, sd=sd)


def find_sample_size_corr(
    rho: float, alpha: float, target: float, plan: SimPlan | None = None,
    *, n_ceiling: int = 10**6,
) -> SampleSizeResult:
    """n with corr_power_approx(n) >= target > corr_power_approx(n - 1); plan is not read."""
    if not 0.0 < abs(rho) < 1.0:
        raise ValueError(f"rho must be nonzero and inside (-1, 1), got {rho!r}")
    if not 0.0 < target < 1.0:
        raise ValueError(f"target power must lie inside (0, 1), got {target!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    q = (normal_quantile(1.0 - 0.5 * alpha) + normal_quantile(target)) / math.atanh(abs(rho))
    start = max(5, math.ceil(min(q * q + 3.0, n_ceiling)))
    power = functools.cache(lambda m: corr_power_approx(m, rho, alpha))
    failure = f"no n <= {n_ceiling} reaches power {target} at rho={rho}, alpha={alpha}"
    n = _refine_validated(lambda m: power(m) >= target, start, n_ceiling, failure)
    return SampleSizeResult(
        n=n,
        target_power=target,
        validated_mean=power(n),
        validated_sd=0.0,
        route="correlation",
    )


def contrast_table(alpha: float, power_rows: list[dict]) -> list[ContrastRow]:
    """Slope-route versus correlation-route sample sizes, one row per search.

    power_rows are slope-route search rows {lambda, power, n, ...}, as made
    by powersim.power_table; each is set against the correlation route's
    Fisher-z sample size for the same cell, in the rows' order.
    """
    rows = []
    for row in power_rows:
        lam, target, n_slope = row["lambda"], row["power"], row["n"]
        rho = lambda_to_rho(lam)
        n_corr = find_sample_size_corr(rho, alpha, target).n
        rows.append(
            ContrastRow(
                alpha=alpha,
                lam=lam,
                rho=rho,
                target_power=target,
                n_slope=n_slope,
                n_corr=n_corr,
                difference=n_slope - n_corr,
            )
        )
    return rows
