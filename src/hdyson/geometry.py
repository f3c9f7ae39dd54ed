"""The tree layout: index arithmetic for a chain of L = 2^N sites, and shells.

Sites are labelled 1..L.  Level-p blocks have 2^p consecutive sites; block
(p, q) covers sites (q-1)*2^p + 1 .. q*2^p.  The hierarchical distance
r(i, j) is the smallest level at which i and j share a block, so r(1,1) = 0,
r(1,2) = 1, r(1,3) = r(1,4) = 2, and r(1,x) = ceil(log2 x) for x >= 2.

Everything here reduces to bit arithmetic on the zero-based site labels:
r(i, j) is the bit length of (i-1) XOR (j-1).

The dyadic layout lives here only: `block_bounds(N)` = (0, 1, 2, ..., 2^N)
cuts a site array into shells r = 0..N and a tree-coefficient array into
multiplets k = 0..N, and `pair_level` finds the block of a label in
`BLOCK_STARTS`, the first indices of every block an int64 reaches.

The amplitude of the spreading excitation depends on the site only through
its hierarchical distance r from site 1, so a single-particle profile is a
complex array with one amplitude per shell r = 0..r_max on its last axis
(leading axes, if any, are times).  Shell r holds `shell_weights` sites;
`expand_shells_to_sites` broadcasts a profile onto the sites x = 1..L
(array index x-1), and `collapse_sites_to_shells` and `shell_sums` read
one value per shell back.  `check_shell` is the one test of a shell index
against MAX_SHELL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError

__all__ = [
    "BLOCK_STARTS",
    "MAX_SHELL",
    "TreeGeometry",
    "block_bounds",
    "block_range",
    "check_shell",
    "collapse_sites_to_shells",
    "expand_shells_to_sites",
    "pair_level",
    "shell_sums",
    "shell_weights",
]


# Deepest tree: the largest multiplicity, 2^(N-1), must fit in an int64.
MAX_LEVELS = 63

# Largest shell: 2^r, the scale of shell r's weight and amplitude, is a
# finite double up to r = 1023.
MAX_SHELL = 1023


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


# (0, 1, 2, 4, ..., 2^62): BLOCK_STARTS[b] is the first index of block b,
# and every non-negative int64 lies in one of the blocks 0..63.
BLOCK_STARTS = np.array(block_bounds(MAX_LEVELS - 1))
BLOCK_STARTS.flags.writeable = False


def pair_level(i, j):
    """Coupling level r - 1 of 0-based labels: top bit of i ^ j, -1 if i == j.

    Elementwise on integer arrays, where it is the block of i ^ j in
    BLOCK_STARTS less one: an integer search, exact for every int64.
    """
    xor = i ^ j
    if isinstance(xor, int):
        return xor.bit_length() - 1
    return np.searchsorted(BLOCK_STARTS, xor, side="right") - 2


def check_shell(r, name: str = "shell index") -> int:
    """r as a Python int, once it is known to name a shell 0..MAX_SHELL.

    An integer (numpy integers too, bools not) below 0, or anything else,
    raises InputError; one above MAX_SHELL raises ResourceLimitError.
    """
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r < 0:
        raise InputError(f"{name} must be an integer >= 0, got {r!r}")
    if r > MAX_SHELL:
        raise ResourceLimitError(f"{name} {r} exceeds the shell cap {MAX_SHELL}")
    return int(r)


def shell_weights(r_max: int) -> np.ndarray:
    """Multiplicity of each shell r = 0..r_max: [1, 1, 2, 4, ...]."""
    r_max = check_shell(r_max)
    return np.concatenate(([1.0], 2.0 ** np.arange(r_max)))


def expand_shells_to_sites(shell_values: np.ndarray, geom: TreeGeometry) -> np.ndarray:
    """Broadcast per-shell values (last axis) onto the L sites of the chain.

    Shell r occupies block r of `block_bounds`.
    """
    shell_values = np.asarray(shell_values)
    if shell_values.shape[-1:] != (geom.levels + 1,):
        raise InputError(f"need {geom.levels + 1} shell values for N={geom.levels}")
    return np.repeat(shell_values, np.diff(block_bounds(geom.levels)), axis=-1)


def _site_array(site_values, geom: TreeGeometry) -> np.ndarray:
    site_values = np.asarray(site_values)
    if site_values.shape[-1:] != (geom.length,):
        raise InputError("site array length does not match geometry")
    return site_values


def collapse_sites_to_shells(site_values: np.ndarray, geom: TreeGeometry) -> np.ndarray:
    """Read one representative value per shell from the last (site) axis.

    Valid when the array is constant on shells (the permutation symmetry of
    the couplings guarantees this for states launched from site 1).
    """
    site_values = _site_array(site_values, geom)
    return site_values[..., list(block_bounds(geom.levels)[:-1])]


def shell_sums(site_values: np.ndarray, geom: TreeGeometry) -> np.ndarray:
    """Sum of a site-indexed array over each shell, along the last axis."""
    site_values = _site_array(site_values, geom)
    bounds = block_bounds(geom.levels)
    return np.stack(
        [site_values[..., lo:hi].sum(axis=-1) for lo, hi in zip(bounds, bounds[1:])],
        axis=-1,
    )
