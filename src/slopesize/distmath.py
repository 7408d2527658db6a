"""Scalar distribution math: normal, Student t, and noncentral t.

Everything here is a pure function of its arguments; no random or global
state is touched, so all routines are safe to call from any thread.

Accuracy targets (absolute error): 1e-12 for the normal CDF, 1e-10 for the
central and noncentral t CDFs, 1e-9 in probability for quantile inversion.
The t CDFs rest on a Lentz continued fraction for the incomplete beta
function, taken on whichever side of the symmetry relation converges. The t
quantile is Newton's method on that CDF until |t_cdf(x) - p| <= 1e-13 (below
the median, until t_cdf(x) / p is within 1e-13 of 1), so its accuracy is the
CDF's, at two to four CDF evaluations per quantile.
"""

from __future__ import annotations

import math
from statistics import NormalDist

__all__ = [
    "NonConvergenceError",
    "normal_cdf",
    "normal_quantile",
    "t_cdf",
    "t_quantile",
    "noncentral_t_cdf",
    "fixed_design_power",
]

_SQRT2 = math.sqrt(2.0)
_CF_TOL = 1e-15
_CF_MAX_ITER = 500
_NCT_TOL = 1e-12
_NCT_MAX_TERMS = 3000
_NEWTON_MAX_ITER = 200
# larger beta argument from which _log_beta sums Stirling's series (df 2e4)
_STIRLING_MIN = 1e4


class NonConvergenceError(ArithmeticError):
    """A series or continued fraction failed to reach its tolerance."""


def _check_df(df: int) -> int:
    if df != int(df) or df < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    return int(df)


def _check_prob(p: float, name: str = "p") -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {p!r}")
    return float(p)


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf (Wichura's AS 241, through statistics.NormalDist)."""
    return NormalDist().inv_cdf(_check_prob(p))


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0.

    With b the larger argument, lgamma(b) - lgamma(a + b) cancels to about
    ulp(b log b), which put an error of 3e-10 into t_cdf at df 10^6 and
    3e-7 at df 10^9. From b = _STIRLING_MIN on, that difference is taken
    from Stirling's series, whose leading terms cancel analytically:
    -(b - 1/2) log1p(a/b) - a log(a + b) + a + tail(b) - tail(a + b).
    """
    small, big = min(a, b), max(a, b)
    if big < _STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    total = small + big
    return (
        math.lgamma(small)
        - (big - 0.5) * math.log1p(small / big)
        - small * math.log(total)
        + small
        + _stirling_tail(big)
        - _stirling_tail(total)
    )


def _stirling_tail(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), to 1e-23 at z >= _STIRLING_MIN."""
    return (1.0 / 12.0 - 1.0 / (360.0 * z * z)) / z


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise NonConvergenceError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}"
    )


def _reg_inc_beta(a: float, b: float, x: float, x1m: float | None = None) -> float:
    """Regularized incomplete beta I_x(a, b).

    x1m, if given, is 1 - x to full relative accuracy (where x rounds
    towards 1); the logs of x and 1 - x are then taken from it.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x1m is None:
        x1m = 1.0 - x
        log_x, log_x1m = math.log(x), math.log1p(-x)
    else:
        log_x, log_x1m = math.log1p(-x1m), math.log(x1m)
    front = math.exp(a * log_x + b * log_x1m - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, x1m) / b


def t_cdf(x: float, df: int) -> float:
    """Student t CDF with integer degrees of freedom.

    Below the median with x^2 < df the value is 0.5 - I_{x^2/(df+x^2)}(1/2,
    df/2) / 2 while that is at least x^2 / (2 df), else the tail integral
    I_{df/(df+x^2)}(df/2, 1/2) / 2, so a small value keeps its relative
    accuracy. Where x^2 overflows, the tail integral is its leading term
    (sqrt(df) / |x|)^df / (df B(df/2, 1/2)), taken from |x|.
    """
    df = _check_df(df)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x == 0.0:
        return 0.5
    x2 = x * x
    if x2 < df:
        # near the center df / (df + x^2) rounds towards 1, so integrate from 0
        half = 0.5 * _reg_inc_beta(0.5, 0.5 * df, x2 / (df + x2))
        if x > 0.0:
            return 0.5 + half
        # 0.5 - half loses about 0.5 / (0.5 - half) ulps to cancellation, the
        # tail integral about df / x^2 (1 - df / (df + x^2) cancels in it)
        if 2.0 * df * (0.5 - half) >= x2:
            return 0.5 - half
        return 0.5 * _reg_inc_beta(0.5 * df, 0.5, df / (df + x2), x2 / (df + x2))
    if x2 == math.inf:
        # y = df / x^2 is below df * 6e-309, so I_y(df/2, 1/2) is its leading
        # term y^(df/2) / ((df/2) B(df/2, 1/2)) to far below an ulp
        tail = (math.sqrt(df) / abs(x)) ** df / (df * math.exp(_log_beta(0.5 * df, 0.5)))
    else:
        tail = 0.5 * _reg_inc_beta(0.5 * df, 0.5, df / (df + x2))
    return 1.0 - tail if x > 0.0 else tail


def t_quantile(p: float, df: int) -> float:
    """Inverse of t_cdf, by Newton's method safeguarded with a bracket.

    Starts from the closed form at df 1 and 2, else from the Cornish-Fisher
    expansion around the normal quantile, and stays on p's side of 0: a p
    below the median is solved on the lower tail itself, since 1 - p would
    round it away. Above the median Newton runs on t_cdf(x) - p; below it,
    on log(t_cdf(x) / p) against log|x|, which is exact on a power-law tail;
    where the density underflows, the tail is that power law and the slope
    is -df. Either stops once that error is at most 1e-13 (relative to p
    below the median) or the step is below 1e-13 * |x|. Each CDF value
    narrows [lo, hi]; a step outside it is replaced by bisection, or by
    doubling while the bracket is unbounded, unless x has already met the
    tolerance, which returns x.
    """
    _check_prob(p)
    df = _check_df(df)
    if p == 0.5:
        return 0.0
    if df == 1:
        x = math.tan(math.pi * (p - 0.5))
    elif df == 2:
        x = (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    else:
        z = normal_quantile(p)
        x = z + (z**3 + z) / (4.0 * df) + (5.0 * z**5 + 16.0 * z**3 + 3.0 * z) / (96 * df * df)
    log_norm = 0.5 * math.log(df) + _log_beta(0.5 * df, 0.5)
    upper = p > 0.5
    lo, hi = (0.0, math.inf) if upper else (-math.inf, 0.0)
    for _ in range(_NEWTON_MAX_ITER):
        cdf = t_cdf(x, df)
        if upper:
            err = cdf - p
        else:
            err = math.log(cdf / p) if cdf > 0.0 else -math.inf
        if err < 0.0:
            lo = x
        else:
            hi = x
        dens = math.exp(-0.5 * (df + 1.0) * math.log1p(x * x / df) - log_norm)
        if not math.isfinite(err):
            step = math.nan
        elif upper:
            step = x - err / dens if dens > 0.0 else math.nan
        else:
            # capped below overflow; a step that leaves the bracket is replaced.
            # Where the density underflows, t_cdf = dens * |x| / df (a power law)
            log_step = err * cdf / (dens * -x) if dens > 0.0 else err / df
            step = x * math.exp(min(log_step, 700.0))
        if not (math.isfinite(step) and lo <= step <= hi):
            if abs(err) <= 1e-13:
                return x
            step = 0.5 * (lo + hi) if math.isfinite(lo + hi) else 2.0 * x
        if abs(err) <= 1e-13 or abs(step - x) <= 1e-13 * abs(x):
            return step
        x = step
    raise NonConvergenceError(f"t quantile did not converge at p={p}, df={df}")


def noncentral_t_cdf(x: float, df: int, ncp: float) -> float:
    """Noncentral t CDF via a convergent series of incomplete-beta terms.

    The series interleaves half-integer and integer incomplete-beta terms
    with Poisson-like weights and carries an explicit error bound; iteration
    stops once the bound drops below 1e-12 and raises NonConvergenceError if
    the term guard trips first (which signals an extreme noncentrality).
    """
    df = _check_df(df)
    if not math.isfinite(x) or not math.isfinite(ncp):
        raise ValueError("x and ncp must be finite")
    if ncp == 0.0:
        return t_cdf(x, df)
    negative = x < 0.0
    t, d = (-x, -ncp) if negative else (x, ncp)
    tail = normal_cdf(-d)
    if t == 0.0:
        return 1.0 - tail if negative else tail
    y = t * t / (t * t + df)
    lam = d * d
    p = 0.5 * math.exp(-0.5 * lam)
    q = math.sqrt(2.0 / math.pi) * p * d
    s = 0.5 - p
    a = 0.5
    b = 0.5 * df
    rxb = math.exp(b * math.log1p(-y))
    xodd = _reg_inc_beta(a, b, y)
    godd = 2.0 * rxb * math.exp(a * math.log(y) - _log_beta(a, b))
    xeven = 1.0 - rxb
    geven = b * y * rxb
    total = p * xodd + q * xeven
    for en in range(1, _NCT_MAX_TERMS + 1):
        a += 1.0
        xodd -= godd
        xeven -= geven
        godd *= y * (a + b - 1.0) / a
        geven *= y * (a + b - 0.5) / (a + 0.5)
        p *= lam / (2.0 * en)
        q *= lam / (2.0 * en + 1.0)
        s -= p
        total += p * xodd + q * xeven
        if 2.0 * s * (xodd - godd) <= _NCT_TOL:
            break
    else:
        raise NonConvergenceError(
            f"noncentral t series did not converge within {_NCT_MAX_TERMS} terms "
            f"(df={df}, ncp={ncp}); the noncentrality is too extreme"
        )
    value = min(max(total + tail, 0.0), 1.0)
    return 1.0 - value if negative else value


def fixed_design_power(
    a_slope: float, sxx: float, sigma: float, n: int, alpha: float
) -> float:
    """Two-sided power of the classical slope t-test with the X design held fixed.

    The rejection rule is |T'| > t_{1-alpha/2, n-2} where T' is noncentral t
    with n - 2 degrees of freedom and noncentrality a_slope * sqrt(sxx) / sigma.
    At a_slope = 0 the power reduces to the level alpha.
    """
    if sxx <= 0.0:
        raise ValueError(f"sxx must be positive, got {sxx!r}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n!r}")
    _check_prob(alpha, "alpha")
    df = n - 2
    delta = a_slope * math.sqrt(sxx) / sigma
    tcrit = t_quantile(1.0 - 0.5 * alpha, df)
    return (1.0 - noncentral_t_cdf(tcrit, df, delta)) + noncentral_t_cdf(
        -tcrit, df, delta
    )
