"""Keyed random streams, chi-square generation, and empirical quantiles.

Reproducibility contract: every Monte Carlo routine in this package derives
all of its variates from an explicit (master_seed, task_id, stream_id) key,
never from a shared sequential generator. A given key maps to a fixed
position in the counter space of a Philox bit generator. A power run (one
estimate over a range of consecutive task ids, one per trial) reads each of
its two streams, keyed by its first task id, as a block with one row per
observation and one column per trial, a bounded number of rows at a time;
that number depends only on the trial count. So results are bit-identical
for a given plan regardless of the order in which runs are evaluated, the
worker that evaluates them, or the sample size a run is cut to.

Stream-id allocation (kept globally unique so a single master seed can drive
every routine without collisions between subsystems):

    0-3       chi-square factors W1..W4 of the null T^2 ratio
    100       predictor block of a slope-power run (first task id)
    101       noise block of a slope-power run (first task id)
    102+2k    predictor of retry k of a degenerate slope replicate (its task id)
    103+2k    noise of retry k of a degenerate slope replicate (its task id)
    200       predictor block of a correlation-power run (first task id)
    201       second normal factor block of a correlation-power run
    202+2k    predictor of retry k of a degenerate correlation replicate
    203+2k    second factor of retry k of a degenerate correlation replicate

Validation runs in the sample-size search shift task ids by
VALIDATION_TASK_BASE. This separates them from simulate_power_slope runs at
task 0, and it keeps the validation draws, hence seeded search results, as
they were when the search also ran probe estimates at task 0.

A chi-square stream is read in Marsaglia-Tsang rejection passes: each pass
draws m normals, then m uniforms, for its m pending candidates in index
order, and a candidate with 1 + c*z <= 0 is rejected (see _gamma_mt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "StreamKey",
    "SimPlan",
    "VALIDATION_TASK_BASE",
    "generator",
    "normal_array",
    "chisq_array",
]

_U64 = 2**64
_U32 = 2**32

# task offset of the search's validation runs (see the module docstring)
VALIDATION_TASK_BASE = 1 << 40


@dataclass(frozen=True)
class StreamKey:
    """Address of one independent variate stream.

    master_seed and task_id go into the Philox key; stream_id selects a
    2^128-draw block of the counter space, so distinct keys can never
    overlap.
    """

    master_seed: int
    task_id: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < _U64:
            raise ValueError(f"master_seed must fit in 64 bits, got {self.master_seed!r}")
        if not 0 <= self.task_id < _U64:
            raise ValueError(f"task_id must fit in 64 bits, got {self.task_id!r}")
        if not 0 <= self.stream_id < _U32:
            raise ValueError(f"stream_id must fit in 32 bits, got {self.stream_id!r}")

    def with_stream(self, stream_id: int) -> "StreamKey":
        return StreamKey(self.master_seed, self.task_id, stream_id)


@dataclass(frozen=True)
class SimPlan:
    """Replication counts and master seed for a Monte Carlo run.

    reps_inner is the number of draws (or trials) per replicate, reps_outer
    the number of independent replicates; the defaults mirror the 10,000 x
    1,000 critical-value design. Power routines reuse the same plan shape
    with reps_inner as trials per power estimate and reps_outer as the
    number of validation runs.
    """

    reps_inner: int = 10_000
    reps_outer: int = 1_000
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.reps_inner < 100:
            raise ValueError(f"reps_inner must be >= 100, got {self.reps_inner!r}")
        if self.reps_outer < 1:
            raise ValueError(f"reps_outer must be >= 1, got {self.reps_outer!r}")
        if not 0 <= self.master_seed < _U64:
            raise ValueError(f"master_seed must fit in 64 bits, got {self.master_seed!r}")


def generator(key: StreamKey) -> Generator:
    """Fresh Generator positioned at the key's block of the Philox counter space."""
    bit_gen = Philox(
        key=np.array([key.master_seed, key.task_id], dtype=np.uint64),
        counter=np.array([0, 0, key.stream_id, 0], dtype=np.uint64),
    )
    return Generator(bit_gen)


def normal_matrix(master_seed: int, tasks, stream_id: int, n: int) -> np.ndarray:
    """Standard normals, one row per task id, each row from its own stream.

    Row i is normal_array(StreamKey(master_seed, tasks[i], stream_id), n).
    Unused in the package; kept while the benchmark tracer wraps it.
    """
    out = np.empty((len(tasks), n))
    for i, task in enumerate(tasks):
        out[i] = normal_array(StreamKey(master_seed, int(task), stream_id), n)
    return out


def normal_array(key: StreamKey, size: int) -> np.ndarray:
    """Vector of standard normal draws from the key's stream."""
    return generator(key).standard_normal(size)


def _gamma_mt(gen: Generator, shape: float, size: int) -> np.ndarray:
    """Gamma(shape, 1) by Marsaglia-Tsang rejection, one in-place pass per round.

    Shapes below one are boosted through Gamma(shape + 1) * U^(1/shape), the
    size uniforms drawn after the boosted gammas. Each pass draws m normals z,
    then m uniforms u, for the m pending candidates in index order, and
    accepts d*v, v = (1 + c*z)^3, iff log u < 0.5*z^2 + d - d*v + d*log v;
    v <= 0 gives log v nan or -inf, so the test fails and v is rejected.
    """
    if shape < 1.0:
        boosted = _gamma_mt(gen, shape + 1.0, size)
        boosted *= gen.random(size) ** (1.0 / shape)
        return boosted
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(size)
    zs, us, vs, bs = (np.empty(size) for _ in range(4))  # work buffers
    oks = np.empty(size, dtype=bool)
    pending = None  # the first pass covers every index and writes d*v into out
    m = size
    with np.errstate(invalid="ignore", divide="ignore"):
        while m:
            z, u, v, bound, ok = zs[:m], us[:m], vs[:m], bs[:m], oks[:m]
            gen.standard_normal(out=z)
            gen.random(out=u)
            np.power(np.add(1.0, np.multiply(c, z, out=v), out=v), 3, out=v)
            np.add(np.multiply(0.5, np.multiply(z, z, out=bound), out=bound), d, out=bound)
            logv = np.log(v, out=z)
            bound -= np.multiply(d, v, out=out if pending is None else v)
            bound += np.multiply(d, logv, out=logv)
            np.less(np.log(u, out=u), bound, out=ok)
            if pending is None:
                pending = np.flatnonzero(~ok)
            else:
                out[pending[ok]] = v[ok]
                pending = pending[~ok]
            m = pending.size
    return out


def chisq_array(key: StreamKey, df: int, size: int) -> np.ndarray:
    """Vector of chi-square draws with df degrees of freedom."""
    if df != int(df) or df < 1:
        raise ValueError(f"df must be an integer >= 1, got {df!r}")
    out = _gamma_mt(generator(key), 0.5 * int(df), size)
    return np.multiply(2.0, out, out=out)


def _quantile_sorted(sorted_values: np.ndarray, p: float) -> float:
    """Empirical p-quantile of sorted data, interpolated between order statistics.

    With m values and h = (m - 1) * p, returns
    x[floor(h)] + (h - floor(h)) * (x[floor(h) + 1] - x[floor(h)]) (0-indexed).
    """
    m = sorted_values.size
    h = (m - 1) * p
    i = int(math.floor(h))
    frac = h - i
    if frac == 0.0 or i + 1 >= m:
        return float(sorted_values[i])
    return float(sorted_values[i] + frac * (sorted_values[i + 1] - sorted_values[i]))
