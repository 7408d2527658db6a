"""Keyed random streams, chi-square generation, and empirical quantiles.

Reproducibility contract: every Monte Carlo routine in this package derives
all of its variates from an explicit (master_seed, task_id, stream_id) key,
never from a shared sequential generator. A given key maps to a fixed
position in the counter space of a Philox bit generator. A power run (one
estimate over a range of consecutive task ids, one per trial) reads each of
its streams, keyed by its first task id, with one variate (or, on the
correlation route, one column of each block) per trial; a correlation run
reads its blocks a bounded number of rows at a time, a number that depends
only on the trial count. So results are bit-identical for a given plan
regardless of the order in which runs are evaluated or the thread that draws
them.

A one-shot draw (normal_array, chisq_array, or _rekeyed_at's generator
filling a caller's row in place) re-keys its thread's own Philox to the
key's position and reads the whole vector at once, so it gives the same
bytes as a fresh generator(key) without building one. Each thread builds its
bit generator at its first one-shot draw and keeps it. A one-shot draw is
not reentrant on its thread: code run between the re-keying and the draw (a
signal handler, say) must not make another one, and nothing in the package
does. A stream held open across calls, such as a correlation run's blocks,
comes from generator(key), which the caller owns.

The package starts a thread only in _split_items, which gives the caller the
even items of a loop and a helper thread, started for that call and joined
before it returns, the odd ones. Its items are whole units: the outer
replicates of an exact-MC miss, a search's validation runs (one block of
runs per split, a miss's replicates first) and the two half-runs of a
correlation power estimate. So each generator is read by one thread for its
whole life, and each result, like the error raised (the lowest-indexed
item's), is the same whichever thread is faster. No package thread outlives
a split, so nested splits and a forked child need no special case.

Stream-id allocation (kept globally unique so a single master seed can drive
every routine without collisions between subsystems):

    0         standard normal Z of the null T^2 ratio, W1 = Z^2
    1-2       chi-squares of the null T^2 ratio: W4 ~ chi2(n - 1) and
              C ~ chi2(2n - 4), drawn for W2*W3 as (C/2)^2
    3         not read (the ratio's former W4; retired, not to be reused)
    100-101   not read (the predictor and noise blocks of the slope
              route's former data simulation)
    102       S_XX ~ chi2(n - 1) of a slope-power run (first task id)
    103       RSS ~ chi2(n - 2) of a slope-power run
    104       standard normal slope error Z of a slope-power run
    200       predictor block of a correlation-power run (first task id)
    201       second normal factor block of a correlation-power run

A degenerate correlation replicate (S_XX = 0 or RSS <= 0) is never
redrawn: it fails its run, so no other stream id is read.

Validation runs in the sample-size search shift task ids by
VALIDATION_TASK_BASE. This separates them from simulate_power_slope runs at
task 0.

A stream is read by numpy's Generator algorithms: standard_normal for
normals and, for chi-squares, its compiled gamma sampler: chisquare(df) is
2 * standard_gamma(df / 2), so the two give the same bytes. So the seeded
numbers depend on them; the bytes are pinned on numpy 2.4.6
(tests/test_stochastics.py, TestSamplerBits).
"""

from __future__ import annotations

import math
import threading
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
    """Fresh Generator positioned at the key's block of the Philox counter space.

    The caller owns it, so it suits a stream read in parts across calls or
    threads. A vector drawn in one call is cheaper from normal_array or
    chisq_array, which re-key a Philox the thread keeps.
    """
    bit_gen = Philox(
        key=np.array([key.master_seed, key.task_id], dtype=np.uint64),
        counter=np.array([0, 0, key.stream_id, 0], dtype=np.uint64),
    )
    return Generator(bit_gen)


# this thread's Philox for one-shot draws, built at its first one
_thread_bits = threading.local()


def _rekeyed(key: StreamKey) -> Generator:
    """This thread's Generator, re-keyed to the state of a fresh generator(key)."""
    return _rekeyed_at(key.master_seed, key.task_id, key.stream_id)


def _rekeyed_at(master_seed: int, task_id: int, stream_id: int) -> Generator:
    """_rekeyed(StreamKey(master_seed, task_id, stream_id)), without building the key.

    The state written is a new Philox's: key (master_seed, task_id), counter
    (0, 0, stream_id, 0), an empty buffer and no spare 32-bit half, whatever
    the last draw left. It reads the key's stream until the thread's next
    call re-keys it. The integers must be a valid StreamKey's.
    """
    try:
        bit_gen, gen, state, key_words, counter = _thread_bits.stream
    except AttributeError:
        bit_gen = Philox(key=0)
        gen = Generator(bit_gen)
        # lists of ints, which the state setter reads faster than uint64 arrays
        key_words, counter = [0, 0], [0, 0, 0, 0]
        state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": key_words},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        _thread_bits.stream = bit_gen, gen, state, key_words, counter
    key_words[0] = master_seed
    key_words[1] = task_id
    counter[2] = stream_id
    bit_gen.state = state
    return gen


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
    """Vector of standard normal draws from the start of the key's stream.

    The bytes of generator(key).standard_normal(size), drawn by re-keying
    the thread's own Philox; not reentrant on one thread (module docstring).
    """
    return _rekeyed(key).standard_normal(size)


def chisq_array(key: StreamKey, df: int, size: int) -> np.ndarray:
    """Vector of chi-square draws with df degrees of freedom.

    numpy's Generator.chisquare, which is 2 * standard_gamma(df / 2): the
    bytes of generator(key).chisquare(df, size), drawn by re-keying the
    thread's own Philox; not reentrant on one thread (module docstring).
    """
    if df != int(df) or df < 1:
        raise ValueError(f"df must be an integer >= 1, got {df!r}")
    return _rekeyed(key).chisquare(int(df), size)


def _quantile_sorted(sorted_values: np.ndarray, p: float) -> float:
    """Empirical p-quantile of sorted data, interpolated between order statistics.

    With m values and h = (m - 1) * p, returns
    x[i] + (h - i) * (x[i + 1] - x[i]) with i = floor(h) (0-indexed). It reads
    only x[i] and x[i + 1], so only they need to be in sorted position.
    """
    m = sorted_values.size
    h = (m - 1) * p
    i = int(math.floor(h))
    frac = h - i
    if frac == 0.0 or i + 1 >= m:
        return float(sorted_values[i])
    return float(sorted_values[i] + frac * (sorted_values[i + 1] - sorted_values[i]))


def _split_items(count: int, work) -> None:
    """Call work(i) for each i in range(count) on two threads.

    The caller takes the even i and a helper thread, started for this call,
    the odd ones, each in ascending order; the helper has ended when the
    call returns or raises. A half stops at its first error or above an item
    the other half failed on, and the lowest-indexed failing item's error is
    raised; work must then have kept nothing that outlives the call. A lone
    item runs on the calling thread; a split made inside a half starts its own.
    """
    if count < 2:
        for i in range(count):
            work(i)
        return
    failed = [(count, None), (count, None)]  # (item, error) of each half's first raise

    def half(first: int) -> None:
        try:
            for i in range(first, count, 2):
                if failed[1 - first][0] < i:
                    return
                work(i)
        except BaseException as exc:
            failed[first] = (i, exc)

    odd = threading.Thread(target=half, args=(1,), name="slopesize-helper")
    odd.start()
    half(0)
    odd.join()
    error = min(failed, key=lambda f: f[0])[1]
    if error is not None:
        raise error
