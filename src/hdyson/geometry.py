"""Index arithmetic for the binary-tree partition of a chain of L = 2^N sites.

Sites are labelled 1..L.  Level-p blocks have 2^p consecutive sites; block
(p, q) covers sites (q-1)*2^p + 1 .. q*2^p.  The hierarchical distance
r(i, j) is the smallest level at which i and j share a block, so r(1,1) = 0,
r(1,2) = 1, r(1,3) = r(1,4) = 2, and r(1,x) = ceil(log2 x) for x >= 2.

Everything here reduces to bit arithmetic on the zero-based site labels:
r(i, j) is the bit length of (i-1) XOR (j-1).

The dyadic layout lives here only: `block_bounds(N)` = (0, 1, 2, ..., 2^N)
cuts a site array into shells r = 0..N and a tree-coefficient array into
multiplets k = 0..N; `pair_level` is the coupling level of two labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError

__all__ = ["TreeGeometry", "block_bounds", "block_range", "pair_level"]


# Deepest tree: the largest multiplicity, 2^(N-1), must fit in an int64.
MAX_LEVELS = 63


@dataclass(frozen=True)
class TreeGeometry:
    """Chain of length 2**levels with its binary partition hierarchy."""

    levels: int

    def __post_init__(self):
        if self.levels < 1:
            raise InputError(f"levels must be >= 1, got {self.levels}")
        if self.levels > MAX_LEVELS:
            raise ResourceLimitError(
                f"levels = {self.levels} exceeds the cap of {MAX_LEVELS}"
            )

    @property
    def length(self) -> int:
        return 1 << self.levels

    @classmethod
    def from_length(cls, length: int) -> "TreeGeometry":
        if length < 2 or length & (length - 1):
            raise InputError(f"length must be a power of two >= 2, got {length}")
        return cls(length.bit_length() - 1)


def block_range(b: int) -> tuple[int, int]:
    """Index range [start, stop) of block b: (0, 1), then (2^(b-1), 2^b)."""
    return (0, 1) if b == 0 else (1 << (b - 1), 1 << b)


def block_bounds(levels: int) -> tuple[int, ...]:
    """(0, 1, 2, 4, ..., 2^levels): block b spans indices bounds[b]:bounds[b+1]."""
    return (0, *(block_range(b)[1] for b in range(levels + 1)))


def pair_level(i, j):
    """Coupling level r - 1 of 0-based labels: top bit of i ^ j, -1 if i == j.

    Elementwise on integer arrays (labels below 2^53).
    """
    xor = i ^ j
    if isinstance(xor, int):
        return xor.bit_length() - 1
    return np.frexp(xor)[1] - 1
