"""The correlation-test route and the slope-vs-correlation contrast.

Testing beta1 = 0 is equivalent to testing rho = 0, and the effect size
lam = beta1 * sigma_x / sigma_eps maps to the correlation through

    rho = lam / sqrt(1 + lam^2)        (inverse: lam = rho / sqrt(1 - rho^2))

Correlation power uses the bias-corrected Fisher arctanh approximation with
the critical correlation implied by the t test of the sample correlation;
a bivariate-normal Monte Carlo of the same test serves as its oracle. That
oracle is the package's only simulation of data: a run's x and z blocks come
from the streams of roles 200 and 201 under its first task id, and the
response y = rho * x + sqrt(1 - rho^2) * z is lam * x + z up to a positive
factor, which leaves the slope t statistic T unchanged, so the fit is closed
on z alone and T1 = sqrt(n - 1) * T on every sample. A degenerate replicate
(S_XX = 0 or RSS <= 0, a probability-zero event) fails the run with
SearchFailureError, which names the replicate's task id and n.

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
    SearchFailureError,
    _refine_validated,
    _run_tasks,
)
from .stochastics import SimPlan, StreamKey, _split_items, generator
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
_X_STREAM = 200
_Z_STREAM = 201

# variates per block array: a run is read max(1, _CHUNK_VARIATES // trials)
# observations at a time and each block's sums are added to running sums,
# which bounds memory for any n
_CHUNK_VARIATES = 4096 * 64


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


def _check_power_args(n: int, rho: float, alpha: float) -> None:
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n!r}")
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must lie strictly inside (-1, 1), got {rho!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")


def corr_power_approx(n: int, rho: float, alpha: float) -> float:
    """Two-sided power of the correlation t test, Fisher arctanh route.

    The critical correlation r_c solves the t test at level alpha; the
    rejection probability is evaluated on the arctanh scale with the
    rho / (2(n-1)) bias correction applied to the alternative.
    """
    _check_power_args(n, rho, alpha)
    t = t_quantile(1.0 - 0.5 * alpha, n - 2)
    r_c = math.sqrt(t * t / (t * t + n - 2))
    z_r = math.atanh(rho) + rho / (2.0 * (n - 1))
    z_rc = math.atanh(r_c)
    s = math.sqrt(n - 3)
    return normal_cdf((z_r - z_rc) * s) + normal_cdf((-z_r - z_rc) * s)


def _fill_block(gen, a: np.ndarray, out: np.ndarray) -> None:
    """Fill the block a from gen and write its column sums of a and a^2 to out[0] and out[1]."""
    gen.standard_normal(out=a)
    a.sum(axis=0, out=out[0])
    np.einsum("ij,ij->j", a, a, out=out[1])


def corr_t1_batch(n: int, rho: float, master_seed: int, tasks) -> np.ndarray:
    """T1 statistics of one run of bivariate-normal replicates, one per task id.

    tasks must be consecutive. Replicate i takes column i of the run's x and
    z blocks, read from the streams (master_seed, tasks[0], 200) and
    (master_seed, tasks[0], 201), and y = rho * x + sqrt(1 - rho^2) * z.
    The blocks are read R = max(1, _CHUNK_VARIATES // trials) rows at a
    time, one row per observation and one column per trial, so memory is
    bounded for any n, and each block's sums of x, z, x^2, x*z and z^2 are
    added to running sums. n must be at least 4 (else ValueError), and a
    degenerate replicate raises SearchFailureError.

    Each block is two items of stochastics._split_items, the x block and
    its sums (item 0) and the z block and its sums (item 1): the run draws x
    on this thread and z on a helper thread started for that block, and
    numpy releases the GIL while it fills normals. Each stream is read by
    one thread in the same order and block shapes, so the values are
    bit-identical wherever the run is called from. An error raised while
    drawing either block reaches the caller.
    """
    lam = rho_to_lambda(rho)
    tasks = _run_tasks(n, lam, tasks)
    trials = len(tasks)
    rows = max(1, _CHUNK_VARIATES // trials)
    x_gen = generator(StreamKey(master_seed, int(tasks[0]), _X_STREAM))
    z_gen = generator(StreamKey(master_seed, int(tasks[0]), _Z_STREAM))
    sums = np.zeros((5, trials))  # running sums of x, z, x^2, x*z and z^2
    block = np.empty((5, trials))  # the same sums over one block
    x_rows, z_rows = np.empty((2, min(rows, n), trials))
    for start in range(0, n, rows):
        size = min(rows, n - start)
        x, z = x_rows[:size], z_rows[:size]
        # rows 0 and 2 of block take the sums of x and x^2, rows 1 and 4
        # those of z and z^2
        items = ((x_gen, x, block[0:3:2]), (z_gen, z, block[1::3]))
        _split_items(2, lambda i: _fill_block(*items[i]))
        np.einsum("ij,ij->j", x, z, out=block[3])
        sums += block
    # one-pass sums lose nothing to cancellation here: x and z are
    # mean-zero normals, so (sum x)^2 / n is O(1) against sum x^2 ~ n
    sx, sz, sxx, sxz, szz = sums
    sxx = sxx - sx * sx / n
    sxz = sxz - sx * sz / n
    szz = szz - sz * sz / n
    # the residuals of y on x are those of z, so RSS = S_ZZ - S_XZ^2 / S_XX
    # and beta1_hat = lam + S_XZ / S_XX, free of cancellation at any lam
    with np.errstate(divide="ignore", invalid="ignore"):
        rss = szz - sxz * sxz / sxx
        t = (lam + sxz / sxx) * np.sqrt(sxx / (n - 1)) / np.sqrt(rss / (n - 2))
    bad = (sxx == 0.0) | (rss <= 0.0)
    if bad.any():
        raise SearchFailureError(
            f"the trial of task id {int(tasks[np.argmax(bad)])} is degenerate at n={n}"
            " (S_XX = 0 or RSS <= 0)"
        )
    return math.sqrt(n - 1) * t


def corr_power_mc(n: int, rho: float, alpha: float, plan: SimPlan) -> PowerEstimate:
    """Monte Carlo power of the correlation t test |T1| > t_{1-alpha/2, n-2}."""
    _check_power_args(n, rho, alpha)
    crit = t_quantile(1.0 - 0.5 * alpha, n - 2)
    reps = plan.reps_inner
    t1 = corr_t1_batch(n, rho, plan.master_seed, range(reps))
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
