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

__all__ = [
    "TreeGeometry",
    "BlockId",
    "block_bounds",
    "block_range",
    "pair_level",
    "hierarchical_distance",
    "distance_of_site",
    "shell_size",
    "shell_sites",
    "sibling_block",
]


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

    def check_site(self, x: int) -> None:
        if not 1 <= x <= self.length:
            raise InputError(f"site index {x} outside 1..{self.length}")


@dataclass(frozen=True)
class BlockId:
    """Block q (1-based) of the level-p partition."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise InputError(f"block level must be >= 0, got {self.level}")
        if self.index < 1:
            raise InputError(f"block index must be >= 1, got {self.index}")

    def sites(self) -> tuple[int, int]:
        """First and last site covered by this block (inclusive)."""
        width = 1 << self.level
        return (self.index - 1) * width + 1, self.index * width


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


def hierarchical_distance(i: int, j: int, geom: TreeGeometry) -> int:
    """Smallest level p at which sites i and j share a block of pi_p."""
    geom.check_site(i)
    geom.check_site(j)
    return pair_level(i - 1, j - 1) + 1


def distance_of_site(x: int, geom: TreeGeometry) -> int:
    """Hierarchical distance r(1, x) from the first site."""
    return hierarchical_distance(1, x, geom)


def shell_size(r: int, geom: TreeGeometry) -> int:
    """Number of sites at hierarchical distance r from site 1.

    Equals 1 for r = 0 and 2^(r-1) otherwise; the shells partition the chain.
    """
    first, last = shell_sites(r, geom)
    return last - first + 1


def shell_sites(r: int, geom: TreeGeometry) -> tuple[int, int]:
    """First and last site (inclusive) of shell r: {1} or (2^(r-1), 2^r]."""
    if not 0 <= r <= geom.levels:
        raise InputError(f"shell index {r} outside 0..{geom.levels}")
    start, stop = block_range(r)
    return start + 1, stop


def sibling_block(block: BlockId, geom: TreeGeometry) -> BlockId:
    """Partner block merged with `block` at the next level up."""
    if block.level >= geom.levels:
        raise InputError("the root block has no sibling")
    if block.index > (1 << (geom.levels - block.level)):
        raise InputError(
            f"block index {block.index} outside level-{block.level} partition"
        )
    partner = block.index - 1 if block.index % 2 == 0 else block.index + 1
    return BlockId(block.level, partner)
