"""Exact eigensystem of the hierarchical hopping matrix.

The single-excitation hopping matrix couples sites i != j with amplitude
-J_{r(i,j)-1}, where J_p = J / 2^((1+sigma) p) is the level-p interaction.
Its eigenvectors are fixed by the tree symmetry alone: a uniform mode plus,
for each k = 1..N, a multiplet of 2^(k-1) "half-block difference" wavelets
supported on disjoint blocks of size 2^(N-k+1).  Only N+1 distinct
eigenvalues occur:

    eps_k = -J/(1 - 2^-sigma) (1 - 2^(k sigma)/L^sigma)
            + J 2^(k sigma)/L^sigma  (k >= 1),

with eps_0 the fully symmetric level.  Reindexed from the top of the band
(k -> N - k) the spectrum is a pure geometric ladder

    eps_{N-k} = Jt_sigma 2^(-sigma k) + const,
    Jt_sigma  = J (2^(sigma+1) - 1) / (2^sigma - 1),

which is what makes the thermodynamic-limit dynamics a fast-converging
series (see `analytic`).  The delta state at site 1 overlaps exactly one
member of each multiplet, so its expansion has only N+1 terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError, SingularLimitError
from .geometry import TreeGeometry, block_bounds, block_range, pair_level, shell_weights

__all__ = [
    "ModelParams",
    "eigenvalues",
    "eigenvector",
    "build_hopping_matrix",
    "delta_decomposition",
    "renormalized_coupling",
    "DENSE_CAP",
]

# Largest L for which an O(L^2) dense matrix is built by default.
DENSE_CAP = 1 << 12


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of a run: couplings, field, and system size.

    `level_couplings`, when given, overrides the geometric law
    J_p = J / 2^((1+sigma) p) with an arbitrary per-level profile
    (tuple of length N).  The closed-form spectrum formulas only apply to
    the geometric law; with a custom profile the eigenvalues are obtained
    from the level-coupling sums instead.
    """

    geom: TreeGeometry
    J: float = 1.0
    sigma: float = 1.0
    h: float = 0.0
    level_couplings: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.J < 0:
            raise InputError(f"coupling J must be >= 0, got {self.J}")
        if self.sigma < 0:
            raise InputError(f"decay exponent sigma must be >= 0, got {self.sigma}")
        if self.h < 0:
            raise InputError(f"transverse field h must be >= 0, got {self.h}")
        if self.level_couplings is not None:
            couplings = tuple(float(c) for c in self.level_couplings)
            if len(couplings) != self.geom.levels:
                raise InputError(
                    f"need {self.geom.levels} level couplings, got {len(couplings)}"
                )
            object.__setattr__(self, "level_couplings", couplings)
        values = (self.J, self.sigma, self.h, *(self.level_couplings or ()))
        if not all(math.isfinite(value) for value in values):
            raise InputError(f"model parameters must be finite, got {self}")

    def level_coupling(self, p: int) -> float:
        """Interaction J_p between sibling blocks of the level-p partition."""
        if not 0 <= p < self.geom.levels:
            raise InputError(f"level {p} outside 0..{self.geom.levels - 1}")
        if self.level_couplings is not None:
            return self.level_couplings[p]
        return self.J * 2.0 ** (-(1.0 + self.sigma) * p)

    def level_coupling_array(self) -> np.ndarray:
        return np.array([self.level_coupling(p) for p in range(self.geom.levels)])


def renormalized_coupling(sigma: float, J: float) -> float:
    """Prefactor of the geometric band ladder, J (2^(sigma+1)-1)/(2^sigma-1).

    From sigma = 1023 on, where 2^(sigma+1) overflows, the same ratio is
    taken as (2 - 2^-sigma)/(1 - 2^-sigma), which is 2 in double precision.
    """
    if sigma <= 0:
        raise SingularLimitError(
            "the band-ladder prefactor diverges at sigma = 0; "
            "use the sigma-zero closed forms"
        )
    if sigma >= 1023.0:
        return J * (2.0 - 2.0 ** -sigma) / (1.0 - 2.0 ** -sigma)
    return J * (2.0 ** (sigma + 1.0) - 1.0) / (2.0 ** sigma - 1.0)


def _eigenvalues_from_coupling_sums(params: ModelParams) -> np.ndarray:
    """Eigenvalues for an arbitrary level-coupling profile.

    eps_k = -sum_{r=1}^{N-k} 2^(r-1) J_{r-1} + 2^(N-k) J_{N-k} (1 - delta_k0):
    the interaction of site 1 with its own half of the support block, minus
    the sign-flipped half.  The sums run left to right in one cumsum from
    +0.0, and the empty sum of k = N is +0.0, so signed zeros come out as
    in a plain loop of sums.
    """
    shells = shell_weights(params.geom.levels)[1:] * params.level_coupling_array()
    eps = -np.cumsum(np.concatenate(([0.0], shells)))[::-1]
    eps[-1] = 0.0
    eps[1:] += shells[::-1]
    return eps


def eigenvalues(params: ModelParams) -> np.ndarray:
    """The N+1 distinct eigenvalues eps[k] of the hopping matrix, k = 0..N.

    Level k is the multiplet k of the tree layout, so its multiplicity is
    the size of block k, `np.diff(geometry.block_bounds(N))[k]`.
    """
    n = params.geom.levels
    if params.level_couplings is not None:
        return _eigenvalues_from_coupling_sums(params)
    if params.sigma == 0:
        raise SingularLimitError(
            "closed-form spectrum diverges at sigma = 0; "
            "route sigma = 0 runs through the analytic sigma-zero path"
        )
    sigma, J = params.sigma, params.J
    k = np.arange(n + 1)
    band = np.exp2(sigma * (k - n))  # 2^(k sigma) / L^sigma
    return -J / (1.0 - 2.0 ** -sigma) * (1.0 - band) + J * band * (k != 0)


def eigenvector(k: int, m: int, geom: TreeGeometry) -> np.ndarray:
    """Unit-norm eigenvector (k, m) expanded over the L sites.

    Members are ordered left to right by support block, so m = 1 is always
    the one whose support contains site 1.  Mode (0, 1) is uniform; member
    m of multiplet k >= 1 is +a on the first half of its support block of
    2^(N-k+1) sites and -a on the second, with a = sqrt(2^(k-1)/L).
    """
    n = geom.levels
    if not 0 <= k <= n:
        raise InputError(f"multiplet index {k} outside 0..{n}")
    start, stop = block_range(k)
    if not 1 <= m <= stop - start:
        raise InputError(f"member index {m} outside 1..{stop - start} for k={k}")
    vec = np.zeros(geom.length, dtype=complex)
    if k == 0:
        vec[:] = geom.length ** -0.5
    else:
        width = 1 << (n - k + 1)  # support block size
        first = (m - 1) * width
        middle = first + width // 2
        amplitude = math.sqrt((stop - start) / geom.length)
        vec[first:middle] = amplitude
        vec[middle:first + width] = -amplitude
    return vec


def build_hopping_matrix(params: ModelParams) -> np.ndarray:
    """Dense L x L hopping matrix: -J_{r(i,j)-1} off the diagonal, 0 on it."""
    geom = params.geom
    if geom.length > DENSE_CAP:
        raise ResourceLimitError(f"L = {geom.length} exceeds the dense cap {DENSE_CAP}")
    couplings = params.level_coupling_array()
    labels = np.arange(geom.length)
    level = pair_level(labels[:, None], labels[None, :])
    mat = np.zeros(level.shape)
    nz = level >= 0
    mat[nz] = -couplings[level[nz]]
    return mat


def delta_decomposition(geom: TreeGeometry) -> list[tuple[int, int, float]]:
    """Expansion of the site-1 delta state over the tree eigenbasis.

    Exactly one member per multiplet appears (always m = 1): the uniform
    mode with weight 1/sqrt(L) and, for k = 1..N, the member containing
    site 1 with weight sqrt(2^(k-1)/L).
    """
    degeneracy = np.diff(block_bounds(geom.levels))
    return [(k, 1, math.sqrt(d / geom.length)) for k, d in enumerate(degeneracy)]
