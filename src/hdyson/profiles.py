"""The shell layout shared across modules, and the series cutoff policy.

The amplitude of the spreading excitation depends on the site only through
its hierarchical distance r from site 1, so a single-particle profile is a
complex array with one amplitude per shell r = 0..r_max on its last axis
(leading axes, if any, are times).  `expand_shells_to_sites` broadcasts it
onto the L = 2^N sites x = 1..L (array index x-1) where a site-resolved
array is needed.  Times are measured in units of 1/J.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .geometry import TreeGeometry, block_bounds

__all__ = [
    "TruncationPolicy",
    "expand_shells_to_sites",
    "collapse_sites_to_shells",
    "shell_sums",
    "shell_weights",
    "MAX_SHELL",
]

# Term k of the series carries 2^(-k-1), exactly 0 for k >= 1074: a larger K
# only adds zero terms.
MAX_SERIES_TERMS = 1074


@dataclass(frozen=True)
class TruncationPolicy:
    """Cutoff K of the thermodynamic-limit mode series.

    The discarded tail is a geometric remainder, so its modulus is bounded
    by 2^-K; the default K = 64 pushes it below double precision.
    """

    K: int = 64

    def __post_init__(self):
        if self.K < 1:
            raise InputError(f"series cutoff K must be >= 1, got {self.K}")
        if self.K > MAX_SERIES_TERMS:
            raise ResourceLimitError(
                f"series cutoff K = {self.K} exceeds {MAX_SERIES_TERMS}, "
                "beyond which every term is zero"
            )

    @property
    def tail_bound(self) -> float:
        return 2.0 ** (-self.K)


DEFAULT_POLICY = TruncationPolicy()


# Largest shell: 2^r, the scale of shell r's weight and amplitude, is a
# finite double up to r = 1023.
MAX_SHELL = 1023


def shell_weights(r_max: int) -> np.ndarray:
    """Multiplicity of each shell r = 0..r_max: [1, 1, 2, 4, ...].

    Shells beyond MAX_SHELL raise ResourceLimitError.
    """
    if r_max > MAX_SHELL:
        raise ResourceLimitError(f"shell {r_max} exceeds the shell cap {MAX_SHELL}")
    return np.concatenate(([1.0], 2.0 ** np.arange(r_max)))


def expand_shells_to_sites(shell_values: np.ndarray, geom: TreeGeometry) -> np.ndarray:
    """Broadcast per-shell values (last axis) onto the L sites of the chain.

    Shell r occupies block r of `geometry.block_bounds`.
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
