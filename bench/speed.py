"""Host speed, read from a fixed reference computation timed during a run.

The CPU speed this benchmark sees drifts in phases of seconds to minutes
(other tenants of the host), by up to 2x, and a whole run can sit in a slow
phase, so no statistic over a run's own times removes the drift. The probe
here times a fixed piece of reference work every ``PERIOD_S`` seconds from a
``SIGALRM`` handler, in the worker's one thread, between the program's
bytecodes. Each sample's speed is the geometric mean of ``NOMINAL_S[part] /
measured`` over three parts that stand for the program's kinds of work:
interpreted Python arithmetic, re-keying a Philox generator for a short row
of normals, and vectorised numpy on preallocated buffers (no allocation, so
the program's allocator state does not move it).

``clock()`` stops while the probe runs, so the program's times never include
it. ``at_nominal(start, end)`` turns a program interval into seconds at the
nominal speed: its length times the mean speed of the samples taken within
``WINDOW_S`` of it. The probe shares the process with the program, so a
change that slowed the reference work itself (not the host) would read as a
faster program; every run also reports its raw times for that comparison.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
WINDOW_S = 1.0
# seconds each part takes at speed 1: about the fastest time seen on a
# 2-vCPU Intel Xeon VM at 2.0 GHz in its fast phase
NOMINAL_S = {"python": 1.5e-3, "philox": 0.55e-3, "numpy": 0.85e-3}

_perf = time.perf_counter
_probe_s = 0.0  # seconds spent probing so far
_busy = False
_times: list[float] = []  # sample times, on clock()
_speeds: list[float] = []


def _python_part() -> float:
    s = 0.0
    for i in range(1, 8000):
        s += math.log(i) * 0.5 / (i + 1.0)
    return s


_BITS = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
_GEN = np.random.Generator(_BITS)
_STATE = _BITS.state
_ROW = np.empty(27)


def _philox_part() -> None:
    inner = _STATE["state"]
    for task in range(150):
        inner["counter"][:] = 0
        inner["key"][1] = task
        _STATE["buffer_pos"] = 4
        _BITS.state = _STATE
        _GEN.standard_normal(out=_ROW)


_RNG = np.random.Generator(np.random.Philox(5))
_Z, _U, _V = np.empty(20_000), np.empty(20_000), np.empty(20_000)
_MASK = np.empty(20_000, dtype=bool)


def _numpy_part() -> None:
    _RNG.standard_normal(out=_Z)
    _RNG.random(out=_U)
    np.multiply(_Z, 0.1, out=_V)
    np.add(_V, 1.0, out=_V)
    np.power(_V, 3, out=_V)
    np.log(_U, out=_U)
    np.multiply(_Z, _Z, out=_Z)
    np.less(_U, _Z, out=_MASK)
    _V.sort()


_PARTS = [(_python_part, NOMINAL_S["python"]), (_philox_part, NOMINAL_S["philox"]),
          (_numpy_part, NOMINAL_S["numpy"])]


def sample() -> float:
    """Time the reference work once; return the host's speed (1 = nominal)."""
    logs = 0.0
    for part, nominal in _PARTS:
        start = _perf()
        part()
        logs += math.log(nominal / (_perf() - start))
    return math.exp(logs / len(_PARTS))


def burst(count: int) -> list[float]:
    """Speeds of count samples taken one after another."""
    return [sample() for _ in range(count)]


def clock() -> float:
    """perf_counter seconds minus the time spent probing."""
    while True:
        before = _probe_s
        now = _perf()
        if _probe_s == before:
            return now - before


def _on_alarm(signum, frame) -> None:
    global _probe_s, _busy
    if _busy:
        return
    _busy = True
    start = _perf()
    _times.append(start - _probe_s)
    _speeds.append(sample())
    _probe_s += _perf() - start
    _busy = False


def start() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def probe_seconds() -> float:
    return _probe_s


def speed_over(start: float, end: float) -> float:
    """Mean speed of the samples taken within WINDOW_S of [start, end]."""
    lo = bisect.bisect_left(_times, start - WINDOW_S)
    hi = bisect.bisect_right(_times, end + WINDOW_S)
    if lo == hi:
        raise RuntimeError(f"no speed sample within {WINDOW_S} s of [{start:.3f}, {end:.3f}]")
    return statistics.fmean(_speeds[lo:hi])


def at_nominal(start: float, end: float) -> float:
    """Length of a clock() interval in seconds at the nominal speed."""
    return (end - start) * speed_over(start, end)
