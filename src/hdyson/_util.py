"""Small shared helpers: popcounts, time steps, number formatting."""

from __future__ import annotations

import numpy as np

from .errors import InputError, ResourceLimitError

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


def fmt17(value) -> str:
    """17-significant-digit decimal: round-trips any float64 exactly."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")
