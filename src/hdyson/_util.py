"""Small shared helpers: popcounts, time steps, thread pools, number formatting."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InputError, ResourceLimitError

THREADS_ENV = "HDYSON_THREADS"

# Cap on the steps of a user-set time grid or average.  The largest grid in
# use, acceptance criterion 3 (T = 102400 at dt = 0.01), takes 1.02e7.
MAX_TIME_STEPS = 1 << 24


def popcount(values: np.ndarray) -> np.ndarray:
    """Number of set bits of each entry of an unsigned/int array."""
    return np.bitwise_count(np.asarray(values)).astype(np.int64)


def time_steps(span: float, dt: float) -> int:
    """Number of steps of about dt across [0, span]: 0 if span = 0, else >= 1."""
    if not (span >= 0 and dt > 0):
        raise InputError(f"need span >= 0 and dt > 0, got span={span}, dt={dt}")
    if span / dt > MAX_TIME_STEPS:
        raise ResourceLimitError(
            f"span {span} at step {dt} exceeds the cap of {MAX_TIME_STEPS} time steps"
        )
    return max(1, int(round(span / dt))) if span > 0 else 0


def thread_count() -> int:
    """Worker count for parallel maps over time points (HDYSON_THREADS)."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def parallel_map(fn, items):
    """Order-preserving map, threaded when HDYSON_THREADS > 1."""
    workers = thread_count()
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def fmt17(value) -> str:
    """17-significant-digit decimal: round-trips any float64 exactly."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")
