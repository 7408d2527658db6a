"""Exact distribution theory for the slope statistic under a random predictor.

Under the five-parameter model Y|X ~ N(beta0 + beta1*X, sigma_eps^2) with
X ~ N(mu_x, sigma_x^2), the squared slope statistic is T^2 = (b1_hat *
sx_hat / s_hat)^2. The critical values of the paper's Table 1 are quantiles
of the four-factor ratio law

    T^2  ~  (n-2)/(n-1) * W1*W4 / (W2*W3)

with independent W1 ~ chi2(1), W2 ~ chi2(n-1), W3 ~ chi2(n-2), W4 ~ chi2(n-1).
W1 is drawn as Z^2 for a standard normal Z; W2-W4 by chisq_array.
This law is free of every model parameter, but it is not the null law of T^2
on data: it treats W2 and W4 as independent, while in data the slope error
and the predictor-variance estimate share one S_XX, which cancels. Under
beta1 = 0 the data law is T * sqrt(n-1) ~ t(n-2), so tests at the ratio-law
quantiles are slightly conservative. The module also exposes the
closed-form marginal density and moments of the slope estimator and the
scaled-t pivot (sigma_x/sigma_eps) * (b1_hat - beta1) * sqrt(n-1) ~ t(n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stochastics import StreamKey, chisq_array, normal_array

__all__ = [
    "ModelParams",
    "Moments",
    "t2_null_draws",
    "beta1hat_density",
    "beta1hat_moments",
    "scaled_t_transform",
    "expected_t2",
]

# stream roles of the normal Z (W1 = Z^2) and the chi-square factors W2-W4
_W1, _W2, _W3, _W4 = 0, 1, 2, 3


@dataclass(frozen=True)
class ModelParams:
    """The five parameters of the regression model with a normal predictor."""

    beta0: float
    beta1: float
    mu_x: float
    sigma_x: float
    sigma_eps: float

    def __post_init__(self) -> None:
        if self.sigma_x <= 0.0:
            raise ValueError(f"sigma_x must be positive, got {self.sigma_x!r}")
        if self.sigma_eps <= 0.0:
            raise ValueError(f"sigma_eps must be positive, got {self.sigma_eps!r}")

    def effect_size(self) -> float:
        """lambda = beta1 * sigma_x / sigma_eps, the sole driver of power."""
        return self.beta1 * self.sigma_x / self.sigma_eps


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float


def t2_null_draws(key: StreamKey, n: int, size: int) -> np.ndarray:
    """Vector of draws of T^2 at sample size n from the four-factor ratio law.

    This is the law tabulated in the paper's Table 1, not the data null law
    (under which T * sqrt(n-1) ~ t(n-2)); see the module docstring.

    The factors come from stream roles 0-3 of the key's (master_seed,
    task_id) pair: role 0 gives standard normals Z, squared into W1 ~ chi2(1),
    and roles 1-3 give W2, W3 and W4 from chisq_array. The key's own
    stream_id is ignored.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n!r}")
    w1 = normal_array(key.with_stream(_W1), size)
    w1 *= w1
    w2 = chisq_array(key.with_stream(_W2), n - 1, size)
    w3 = chisq_array(key.with_stream(_W3), n - 2, size)
    w4 = chisq_array(key.with_stream(_W4), n - 1, size)
    w1 *= (n - 2) / (n - 1)
    w1 *= w4
    w1 /= np.multiply(w2, w3, out=w2)  # (n-2)/(n-1) * w1 * w4 / (w2 * w3)
    return w1


def beta1hat_density(b: float, n: int, params: ModelParams) -> float:
    """Marginal density of the slope estimator at b.

    f(b) = (sigma_x / (B(1/2, (n-1)/2) * sigma_eps))
           * (1 + (b - beta1)^2 * sigma_x^2 / sigma_eps^2)^(-n/2).

    Symmetric about beta1; reduces to a Cauchy density when n = 2.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    scale = params.sigma_x / params.sigma_eps
    z = (b - params.beta1) * scale
    log_beta = (
        math.lgamma(0.5) + math.lgamma(0.5 * (n - 1)) - math.lgamma(0.5 * n)
    )
    return scale * math.exp(-log_beta - 0.5 * n * math.log1p(z * z))


def beta1hat_moments(n: int, params: ModelParams) -> Moments:
    """Unconditional mean and variance of the slope estimator.

    The variance (1/(n-3)) * sigma_eps^2 / sigma_x^2 only exists for n > 3;
    smaller n raises rather than returning an infinity that would poison
    normal-approximation code downstream.
    """
    if n <= 3:
        raise ValueError(f"moments of the slope estimator are undefined for n <= 3, got n={n!r}")
    variance = params.sigma_eps**2 / (params.sigma_x**2 * (n - 3))
    return Moments(mean=params.beta1, variance=variance)


def scaled_t_transform(beta1hat: float, n: int, params: ModelParams) -> float:
    """Pivot (sigma_x/sigma_eps) * (beta1hat - beta1) * sqrt(n-1), ~ t(n-1)."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    return (
        params.sigma_x
        / params.sigma_eps
        * (beta1hat - params.beta1)
        * math.sqrt(n - 1)
    )


def expected_t2(n: int) -> float:
    """Mean (n-2) / ((n-3)(n-4)) of the four-factor ratio law of T^2.

    Undefined for n <= 4. On data under the null, where T * sqrt(n-1) ~
    t(n-2), the mean of T^2 is instead (n-2) / ((n-1)(n-4)).
    """
    if n <= 4:
        raise ValueError(f"E(T^2) is undefined for n <= 4, got n={n!r}")
    return (n - 2) / ((n - 3) * (n - 4))
