"""Small shared helpers: popcounts, thread pool sizing, number formatting."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

THREADS_ENV = "HDYSON_THREADS"


def popcount(values: np.ndarray) -> np.ndarray:
    """Number of set bits of each entry of an unsigned/int array."""
    return np.bitwise_count(np.asarray(values)).astype(np.int64)


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
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")
