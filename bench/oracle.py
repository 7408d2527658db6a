"""Deterministic reference values for the benchmark's output checks.

Everything here is computed with scipy and Gauss-Legendre quadrature and
shares no code with slopesize, so a fault in the program cannot hide in its
own reference.

Laws used (reduced model: sigma_x = sigma_eps = 1, beta1 = lam):

* Ratio law of Table 1: T^2 = F1 * V / (n-1) with F1 ~ F(1, n-2) and
  V ~ F(n-1, n-1) independent, so P(T^2 <= u) = E_V[F_F1((n-1) u / V)].
* Slope-test power for a threshold c: given X, T * sqrt(n-1) follows a
  noncentral t(n-2, lam * sqrt(S)) with S = S_XX ~ chi2(n-1), so
  P(|T| > c) = E_S[P(|nct(n-2, lam sqrt(S))| > c sqrt(n-1))].
* Exact correlation-test power: the same integral at
  c = t_{1-alpha/2, n-2} / sqrt(n-1) and lam = rho / sqrt(1 - rho^2).
* Fisher-z approximation of the correlation power, with the rho / (2(n-1))
  bias correction, written out from its formula.

Each expectation is a 128-node Gauss-Legendre sum over the quantile of the
integrating variable, which keeps every node inside the support.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(128)
_Q = 0.5 * (_NODES + 1.0)
_W = 0.5 * _WEIGHTS


def ratio_law_cdf(n: int, u: float) -> float:
    """P(T^2 <= u) under the four-factor ratio law at sample size n."""
    v = stats.f.ppf(_Q, n - 1, n - 1)
    return float(_W @ stats.f.cdf((n - 1) * u / v, 1, n - 2))


def ratio_law_quantile(n: int, p: float) -> float:
    """c with P(|T| <= c) = p under the ratio law."""
    return optimize.brentq(lambda c: ratio_law_cdf(n, c * c) - p, 1e-6, 50.0, xtol=1e-12)


def ratio_law_critical_value(n: int, alpha: float) -> float:
    """The exact ratio-law critical value C(n, alpha) that Table 1 tabulates."""
    return ratio_law_quantile(n, 1.0 - alpha)


def ratio_law_density_abs(n: int, c: float) -> float:
    """Density of |T| at c under the ratio law (central difference of the CDF)."""
    h = 1e-5 * c
    return (ratio_law_cdf(n, (c + h) ** 2) - ratio_law_cdf(n, (c - h) ** 2)) / (2.0 * h)


def slope_power(n: int, lam: float, c: float) -> float:
    """P(|T| > c) for the slope statistic at sample size n and effect size lam."""
    s = stats.chi2.ppf(_Q, n - 1)
    x = c * math.sqrt(n - 1)
    ncp = lam * np.sqrt(s)
    reject = stats.nct.sf(x, n - 2, ncp) + stats.nct.cdf(-x, n - 2, ncp)
    return float(_W @ reject)


def t_critical_value(n: int, alpha: float) -> float:
    """Exact-size threshold t_{1-alpha/2, n-2} / sqrt(n-1) for |T|."""
    return float(stats.t.ppf(1.0 - 0.5 * alpha, n - 2)) / math.sqrt(n - 1)


def corr_power_exact(n: int, rho: float, alpha: float) -> float:
    """Exact power of the two-sided correlation t test at level alpha."""
    return slope_power(n, rho / math.sqrt(1.0 - rho * rho), t_critical_value(n, alpha))


def fisher_z_power(n: int, rho: float, alpha: float) -> float:
    """Bias-corrected Fisher-z approximation of the correlation-test power."""
    t = float(stats.t.ppf(1.0 - 0.5 * alpha, n - 2))
    z_rc = math.atanh(t / math.sqrt(t * t + n - 2))
    z_r = math.atanh(rho) + rho / (2.0 * (n - 1))
    s = math.sqrt(n - 3)
    return float(stats.norm.cdf((z_r - z_rc) * s) + stats.norm.cdf((-z_r - z_rc) * s))
