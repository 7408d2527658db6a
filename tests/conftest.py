import numpy as np
import pytest

from slopesize import critvals, powersim
from slopesize.critvals import CriticalValueCache

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

    It patches powersim.generator so that the blocks read from stream id
    role hold 1.0 in one column, which makes that trial of every run on
    the role degenerate (S_XX = 0) at every sample size.
    """
    real = powersim.generator

    class ConstantColumn:
        def __init__(self, gen, column):
            self._gen = gen
            self._column = column

        def standard_normal(self, shape):
            out = self._gen.standard_normal(shape)
            out[:, self._column] = 1.0
            return out

    def patch(column, role):
        def patched(key):
            gen = real(key)
            return ConstantColumn(gen, column) if key.stream_id == role else gen

        monkeypatch.setattr(powersim, "generator", patched)

    return patch
