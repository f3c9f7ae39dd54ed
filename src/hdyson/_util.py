"""Small shared helpers: popcounts, time steps, number formatting."""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, ResourceLimitError


def popcount(values: np.ndarray) -> np.ndarray:
    """Number of set bits of each entry of an unsigned/int array."""
    return np.bitwise_count(np.asarray(values)).astype(np.int64)


def time_steps(span: float, dt: float) -> int:
    """Number of steps of about dt across [0, span]: 0 if span = 0, else >= 1.

    The count is not capped (callers cap what they build from it), but a
    ratio span / dt beyond the double range raises ResourceLimitError.
    """
    if not (span >= 0 and dt > 0):
        raise InputError(f"need span >= 0 and dt > 0, got span={span}, dt={dt}")
    if not math.isfinite(span / dt):
        raise ResourceLimitError(f"span {span} at step {dt} is not a finite number of steps")
    return max(1, int(round(span / dt))) if span > 0 else 0


def fmt17(value) -> str:
    """17-significant-digit decimal: round-trips any float64 exactly."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")
