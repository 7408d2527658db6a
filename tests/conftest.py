import math
import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import special

from slopesize import corroute, critvals
from slopesize.critvals import CriticalValueCache
from slopesize.stochastics import StreamKey, generator

# one fixed seed for the whole suite so every Monte Carlo check is a
# deterministic rerun of the same draws
SUITE_SEED = 20260808


def row_moments(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_XX, S_XY, S_YY) of each row of x and y, one sample per row."""
    dx = x - x.mean(axis=1, keepdims=True)
    dy = y - y.mean(axis=1, keepdims=True)
    return (
        np.einsum("ij,ij->i", dx, dx),
        np.einsum("ij,ij->i", dx, dy),
        np.einsum("ij,ij->i", dy, dy),
    )


def ratio_law_cdf(u: np.ndarray, n: int) -> np.ndarray:
    """P(T^2 <= u) under the four-factor ratio law, by quadrature.

    T^2 = F1 * V / (n-1) with independent F1 ~ F(1, n-2) and
    V ~ F(n-1, n-1), so P(T^2 <= u) = E_V[F_{F(1,n-2)}((n-1) u / V)];
    the expectation is a 128-node Gauss-Legendre sum over V's quantile
    on (0, 1).
    """
    q, w = np.polynomial.legendre.leggauss(128)
    v = special.fdtri(n - 1, n - 1, 0.5 * (q + 1.0))
    return 0.5 * sum(wi * special.fdtr(1, n - 2, (n - 1) * u / vi) for vi, wi in zip(v, w))


# -- reference fit: a two-pass least-squares fit of one sample, the oracle
# the correlation kernel's running sums are checked against
class FitError(ValueError):
    """The least-squares fit does not admit the slope t statistic."""


class DegenerateXError(FitError):
    """All predictor values coincide (S_XX = 0)."""


class PerfectFitError(FitError):
    """Residual sum of squares is zero, so the t statistics are undefined."""


class SpreadUnderflowError(FitError):
    """S_XX * S_YY is subnormal or zero, so the correlation loses precision."""


@dataclass(frozen=True)
class FitStats:
    """Least-squares summary of one (x, y) sample."""

    n: int
    beta1_hat: float
    sigma_hat: float
    sigma_x_hat: float
    t_slope: float
    rho_hat: float
    t_corr: float
    sxx: float
    sxy: float
    rss: float


def fit_slope_stats(xs, ys) -> FitStats:
    """Least-squares slope fit with both t statistics.

    t_slope is beta1_hat * sigma_x_hat / sigma_hat; t_corr is the
    correlation statistic sqrt(n-2) * rho_hat / sqrt(1 - rho_hat^2). The two
    satisfy t_corr^2 = (n-1) * t_slope^2 for every non-degenerate sample.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be 1-d sequences of equal length")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    sxy = float(dx @ dy)
    syy = float(dy @ dy)
    if sxx == 0.0:
        raise DegenerateXError("all predictor values are equal (S_XX = 0)")
    beta1_hat = sxy / sxx
    rss = syy - sxy * sxy / sxx
    if rss <= 0.0:
        raise PerfectFitError("residual sum of squares is zero; t statistics undefined")
    sigma_hat = math.sqrt(rss / (n - 2))
    sigma_x_hat = math.sqrt(sxx / (n - 1))
    t_slope = beta1_hat * sigma_x_hat / sigma_hat
    sxx_syy = sxx * syy
    if sxx_syy < sys.float_info.min:
        raise SpreadUnderflowError("S_XX * S_YY underflows; the sample spread is too small")
    rho_hat = max(-1.0, min(1.0, sxy / math.sqrt(sxx_syy)))
    # 1 - rho^2 = RSS / S_YY algebraically; this form cannot cancel to zero
    # for near-collinear data the way 1 - rho_hat**2 can
    t_corr = math.sqrt((n - 2) * syy / rss) * rho_hat
    return FitStats(
        n=n,
        beta1_hat=beta1_hat,
        sigma_hat=sigma_hat,
        sigma_x_hat=sigma_x_hat,
        t_slope=t_slope,
        rho_hat=rho_hat,
        t_corr=t_corr,
        sxx=sxx,
        sxy=sxy,
        rss=rss,
    )


def run_reference_t1(master_seed: int, n: int, rho: float, first_task: int, trials: int) -> np.ndarray:
    """T1 of every replicate of one correlation run, fitted directly on its x and z blocks."""
    x = generator(StreamKey(master_seed, first_task, 200)).standard_normal((n, trials))
    z = generator(StreamKey(master_seed, first_task, 201)).standard_normal((n, trials))
    y = rho * x + math.sqrt(1.0 - rho * rho) * z
    return np.array([fit_slope_stats(x[:, i], y[:, i]).t_corr for i in range(trials)])


def assert_no_helper_alive() -> None:
    """No helper thread started by stochastics._split_items is still running."""
    alive = [t.name for t in threading.enumerate() if t.name.startswith("slopesize-helper")]
    assert not alive, f"helper threads outlived their split: {alive}"


@pytest.fixture(autouse=True)
def fresh_critval_memo():
    """Start every test with no exact-MC estimate kept in process.

    Without it a test's draw counts and traced counters would depend on
    which tests ran before it in the same process.
    """
    critvals._MC_MEMO.clear()


@pytest.fixture
def draw_calls(monkeypatch):
    """A list that gets one entry per t2_null_draws call made by critvals."""
    calls = []
    real = critvals.t2_null_draws

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(critvals, "t2_null_draws", counted)
    return calls


@pytest.fixture(scope="session")
def session_cache(tmp_path_factory) -> CriticalValueCache:
    """Critical-value cache shared across the whole test session."""
    return CriticalValueCache(tmp_path_factory.mktemp("critvals") / "cache.txt")


@pytest.fixture
def constant_column(monkeypatch):
    """constant_column(column, role) makes one trial's stream constant.

    It patches corroute.generator so that the blocks read from stream id
    role (200 or 201) hold 1.0 in one column, which makes that trial of
    every correlation run degenerate at every sample size.
    """
    real = corroute.generator

    class ConstantColumn:
        def __init__(self, gen, column):
            self._gen = gen
            self._column = column

        def standard_normal(self, size=None, *, out=None):
            block = self._gen.standard_normal(size, out=out)
            block[:, self._column] = 1.0
            return block

    def patch(column, role):
        def patched(key):
            gen = real(key)
            return ConstantColumn(gen, column) if key.stream_id == role else gen

        monkeypatch.setattr(corroute, "generator", patched)

    return patch
