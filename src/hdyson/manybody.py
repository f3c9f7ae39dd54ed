"""Exact evolution of the full spin chain at small L.

The spin Hamiltonian couples every pair through the hierarchical distance,

    H = - sum_{i<j} J_{r(i,j)-1} sx_i sx_j - h sum_i sz_i,

acting on the full 2^L space (L <= 16).  Basis convention: basis state s
has site x spin-down exactly when bit x-1 of s is set, so spin-up carries
bit 0 and the polarized state |up...up> is index 0; the local excitation
number is n(x) = (1 - <sz_x>)/2 = Prob(bit x-1 set).

Every term of H flips zero or two spins, so the spin parity prod_x sz_x
is conserved and a state of definite parity (the local spin flip is odd)
never leaves its half of the space.  Evolution runs in that sector,
matrix-free in the sx basis.  A Hadamard on every spin (`hadamard_all`,
unitary and its own inverse, a constant-geometry Walsh-Hadamard
transform whose every pass reads two stride-2 views and writes two
contiguous halves) turns sx sx into sz sz and sz into a bit flip, so the
Hamiltonian becomes a real diagonal
E(s) = -sum_p J_p sum_blocks M_left M_right, built from the
magnetisations of the tree blocks, plus L single-bit flips of weight -h.
There the parity is the global bit flip, phi[~s] = parity phi[s], so the
state is carried by its 2^(L-1) amplitudes with the top bit clear
(`SigmaXOperator`), on which a product is one diagonal multiply, L - 1
single-bit flips (flipped views for the high bits, strided column
updates for the three lowest) and one reversal.  In the sz basis the
parity fixes the top bit, so the sector's amplitudes are indexed by the
low L - 1 bits and both basis changes are (L - 1)-site Hadamard
transforms plus one selection between the two halves of the 2^L vector.
The state enters the sector once per run, and n(x) and the entropies of
every cut are read off its sz amplitudes at every output time.  The
tables a run reads but never writes are built once and cached,
read-only: the uint8 bit masks of the sector index (`_bit_masks`, which
give n(x), the top bit of each sector amplitude and the index parities
the entropies gather by) and the half diagonal of each coupling profile
(`_sector_diagonal`), together 0.8 MiB at L = 16; the parity row of the
2^L-index masks, 1.1 MiB more at L = 16, gives the signs of
`spin_parity_expectation`.  The reduced density matrix of a state of
definite parity is block-diagonal in the parity of its own sites, so the
entropies come from two half-width blocks of each of two density
matrices, of the lower and of the upper half of the chain; every other
cut follows by tracing out one site at a time.

`build_spin_hamiltonian` still assembles the z-basis operator as complex
CSR, row by row.  It is the oracle the sx-basis engine is tested against;
`evolve_spin` takes the model parameters (or reads only the parameters of
a SparseHamiltonian).

Time stepping uses an adaptive Lanczos (Krylov) approximation of the
matrix exponential with local error target 1e-9 and step halving on
rejection; the small tridiagonal exponential comes from numpy's `eigh`,
so evolution loads no scipy.  Each step is judged by an a-posteriori
bound on its error, computed from that same eigendecomposition, not by
an estimate.  The Krylov dimension is adaptive too: a step stops adding
vectors once its bound is below 1e-11, at most 30.  At L = 16, h = 40
an output interval of 0.005 takes one step of 9 vectors.  Full
diagonalization stays feasible up to L = 10 and is used as a
cross-check in the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, InputError, ResourceLimitError
from .geometry import pair_level, shell_sums
from .spectral import ModelParams

if TYPE_CHECKING:  # scipy loads on first use, off the import path of hdyson
    import scipy.sparse as sp

__all__ = [
    "SPARSE_CAP",
    "SpinState",
    "SparseHamiltonian",
    "SigmaXOperator",
    "LanczosStats",
    "hadamard_all",
    "ObservableSeries",
    "build_spin_hamiltonian",
    "evolve_spin",
    "magnetization_profile",
    "quasi_conservation_report",
    "entanglement_entropy",
    "spin_parity_expectation",
    "energy_expectation",
    "one_defect_state",
]

SPARSE_CAP = 16
KRYLOV_DIM = 30
# local error target of a Lanczos substep: accepted when its error bound is
# at most LOCAL_TOL; its Krylov space stops growing, and the step size
# grows, below LOCAL_TOL / 100
LOCAL_TOL = 1e-9
# Gauss-Legendre nodes of the Krylov error bound per 32 rad of its phase span
_QUADRATURE_NODES = 32
_MAX_QUADRATURE_NODES = 1024
# the sector product flips bits below this one by strided column updates
# and the others by flipped views, whose innermost loops are 2^bit long
_COLUMN_FLIP_BITS = 3


@dataclass(frozen=True)
class SpinState:
    """Complex amplitudes over the 2^L spin basis (site 1 = lowest bit)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        _spin_count(amp.size)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def sites(self) -> int:
        return _spin_count(self.amplitudes.size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @classmethod
    def single_flip(cls, sites: int, site: int = 1) -> "SpinState":
        if not 1 <= site <= sites:
            raise InputError(f"site {site} outside 1..{sites}")
        amp = np.zeros(1 << sites, dtype=complex)
        amp[1 << (site - 1)] = 1.0
        return cls(amp)


def one_defect_state(site_amplitudes: np.ndarray) -> SpinState:
    """Superposition of single-flip states with the given site amplitudes."""
    site_amplitudes = np.asarray(site_amplitudes, dtype=complex)
    sites = site_amplitudes.size
    amp = np.zeros(1 << sites, dtype=complex)
    for x in range(sites):
        amp[1 << x] = site_amplitudes[x]
    return SpinState(amp)


@dataclass
class SparseHamiltonian:
    """CSR form of the spin Hamiltonian plus the parameters that built it."""

    matrix: sp.csr_matrix
    params: ModelParams


def build_spin_hamiltonian(params: ModelParams) -> SparseHamiltonian:
    """Assemble the full pair-coupling + transverse-field operator.

    Each sx sx term connects basis states differing in exactly the two
    flipped bits, so every row s holds L(L-1)/2 off-diagonal entries
    -J_{r-1} at the columns s ^ mask; the diagonal -h (L - 2 #down) is
    stored only when h != 0.  Each row lists its columns in ascending
    order, as a COO-to-CSR conversion leaves them, so each row of a
    product sums in that same order.
    """
    import scipy.sparse as sp

    L = params.geom.length
    if L > SPARSE_CAP:
        raise ResourceLimitError(f"L = {L} exceeds the sparse cap {SPARSE_CAP}")
    dim = 1 << L
    couplings = params.level_coupling_array()
    first, second = np.triu_indices(L, 1)
    pair_flips = (1 << first) | (1 << second)
    diagonal = params.h != 0.0
    flips = np.append(pair_flips, 0) if diagonal else pair_flips

    rows = np.arange(dim, dtype=np.int32)[:, None]
    indices = rows ^ flips.astype(np.int32)
    indices.sort(axis=1)
    flipped = indices ^ rows  # the flip mask of every stored entry
    value_of_flip = np.zeros(dim, dtype=complex)
    value_of_flip[pair_flips] = -couplings[pair_level(first, second)]
    data = value_of_flip[flipped]
    if diagonal:
        ups = np.bitwise_count(np.arange(dim, dtype=np.int64)).astype(np.int64)
        ups_minus_downs = L - 2 * ups
        data[flipped == 0] = -params.h * ups_minus_downs.astype(float)

    indptr = np.arange(0, indices.size + 1, len(flips), dtype=np.int32)
    matrix = sp.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(dim, dim))
    return SparseHamiltonian(matrix, params)


def _spin_count(size: int) -> int:
    """Number of spins L of a 2^L amplitude vector."""
    if size < 2 or size & (size - 1):
        raise InputError(f"{size} amplitudes is not 2^L for some L >= 1")
    return size.bit_length() - 1


def hadamard_all(amplitudes) -> np.ndarray:
    """Amplitudes after a Hadamard on every spin: the sz <-> sx basis change.

    A fast Walsh-Hadamard transform in constant geometry, scaled by
    2^(-L/2).  Each pass reads the pairs (2k, 2k+1), which differ in the
    lowest bit, as two stride-2 views and writes their sums to the lower
    half and their differences to the upper half of the other buffer: the
    bit just transformed moves to the top and the next one comes to the
    bottom, so the passes take the bits in order from bit 0 and after L
    passes the index is back in natural order.  Every amplitude sees the
    same sums and differences as in the in-place butterfly, in the same
    order.  The map is real, symmetric and unitary, so it is its own
    inverse.  The scale is a power of two, applied exactly, only for an
    even number of sites; the parity-sector engine transforms L - 1 sites,
    an odd number, where it carries one rounding.
    """
    source = np.asarray(amplitudes, dtype=complex).reshape(-1)
    sites = _spin_count(source.size)
    half = source.size // 2
    buffers = [np.empty_like(source), np.empty_like(source)]
    for x in range(sites):
        target = buffers[x & 1]
        even, odd = source[0::2], source[1::2]
        np.add(even, odd, out=target[:half])
        np.subtract(even, odd, out=target[half:])
        source = target
    source *= 2.0 ** (-sites / 2)
    return source


@functools.lru_cache(maxsize=8)
def _bit_masks(size: int) -> np.ndarray:
    """Read-only uint8 table of the bits of every index k < size, built once per size.

    Row x is bit x of k, for x < log2(size); the last two rows are the
    parity of the bit count of k and its complement.  For the sector
    amplitudes of L = log2(size) + 1 spins, indexed by the low L - 1 bits
    of their basis states, those two rows are the top bit of the basis
    state in the even and in the odd sector.
    """
    bits = size.bit_length() - 1
    k = np.arange(size)
    masks = np.empty((bits + 2, size), dtype=np.uint8)
    for x in range(bits):
        masks[x] = (k >> x) & 1
    masks[bits] = np.bitwise_count(k) & 1
    masks[bits + 1] = 1 - masks[bits]
    masks.flags.writeable = False
    return masks


def _sector_amplitudes(amplitudes: np.ndarray) -> tuple[int, np.ndarray]:
    """Spin parity, -1 (odd) or +1 (even), and sector amplitudes of a state of definite parity.

    The parity fixes the top bit of a basis state from its other bits, so
    each half-space index k (the low L - 1 bits) holds one amplitude of
    each sector, one in the lower and one in the upper half of the vector.
    A state whose smaller parity component has norm above 1e-8, the
    tolerance of the normalisation check, is an InputError.
    """
    halves = amplitudes.reshape(2, -1)
    odd_top = _bit_masks(halves.shape[1])[-1].view(bool)
    odd = np.where(odd_top, halves[1], halves[0])
    even = np.where(odd_top, halves[0], halves[1])
    odd_norm = float(np.linalg.norm(odd))
    even_norm = float(np.linalg.norm(even))
    if min(odd_norm, even_norm) > 1e-8:
        raise InputError(
            f"initial state mixes both spin parities (odd part {odd_norm:.3e}, "
            f"even part {even_norm:.3e})"
        )
    return (-1, odd) if odd_norm >= even_norm else (1, even)


@functools.lru_cache(maxsize=8)
def _sector_diagonal(couplings: tuple[float, ...]) -> np.ndarray:
    """Read-only lower half of the sx-basis diagonal E(s), built once per coupling profile.

    The level-p pairs are those whose sites sit in the two halves of one
    level-(p+1) block, so they add -J_p M_left M_right, the product of the
    halves' magnetisations.  Every block of a level has the same energy
    function of its own spins, so a block's diagonal follows from its
    halves' as an outer sum, with the index of the right half (the higher
    bits) first.
    """
    diagonal = np.zeros(2)                  # one site: no pairs
    magnetisation = np.array([1.0, -1.0])   # s = 1 - 2 bit
    for coupling in couplings:
        diagonal = (diagonal[:, None] + diagonal[None, :]
                    - coupling * np.multiply.outer(magnetisation, magnetisation)).ravel()
        magnetisation = np.add.outer(magnetisation, magnetisation).ravel()
    half = diagonal[: diagonal.size // 2].copy()
    half.flags.writeable = False
    return half


class SigmaXOperator:
    """The spin Hamiltonian conjugated by `hadamard_all`, on one parity sector.

    In the sx basis, with s_x = 1 - 2 (bit x-1 of s), the pair couplings
    give the real diagonal E(s) = -sum_{i<j} J_{r(i,j)-1} s_i s_j and the
    field gives L single-bit flips of weight -h.  The spin parity is the
    global flip there, phi[~s] = parity phi[s], so the operator acts on
    chi = sqrt(2) phi[:2^(L-1)], the unit-norm half with the top bit clear:
    the flips of sites 1..L-1 stay single-bit flips of chi, and the flip
    of site L becomes parity times the reversal of chi.  E is unchanged by
    the global flip, so `diagonal` is its lower half.
    """

    def __init__(self, diagonal: np.ndarray, h: float, parity: int):
        if parity not in (-1, 1):
            raise InputError(f"parity must be -1 or +1, got {parity!r}")
        self.diagonal = diagonal
        self.h = h
        self.parity = parity
        # views of an h chi buffer, made once.  Bit b >= _COLUMN_FLIP_BITS
        # flips as axis L-2-b of the (2,)*(L-1) tensor, a lower bit b as the
        # 2^(b+1) columns c ^ 2^b of a (-1, 2^(b+1)) view, the sources of
        # columns 0, 1, ... of the target's view.  Flipping every bit is
        # the reversal that stands for the flip of the top bit.
        bits = _spin_count(diagonal.size)
        low = min(_COLUMN_FLIP_BITS, bits)
        self._shape = (2,) * bits
        self._scaled = np.empty(diagonal.size, dtype=complex)
        tensor = self._scaled.reshape(self._shape)
        self._flipped = [np.flip(tensor, axis) for axis in range(bits - low)]
        self._columns = []
        for bit in reversed(range(low)):
            width = 2 << bit
            columns = self._scaled.reshape(-1, width)
            self._columns.append(
                (width, [columns[:, c ^ (1 << bit)] for c in range(width)]))
        self._reversed = self._scaled[::-1]

    @classmethod
    def from_params(cls, params: ModelParams, parity: int) -> "SigmaXOperator":
        """The operator of `params` on one sector; E(s) comes from `_sector_diagonal`."""
        L = params.geom.length
        if L > SPARSE_CAP:
            raise ResourceLimitError(f"L = {L} exceeds the sparse cap {SPARSE_CAP}")
        couplings = tuple(float(c) for c in params.level_coupling_array())
        return cls(_sector_diagonal(couplings), params.h, parity)

    def product(self, chi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = H chi; `out` must not share memory with `chi`.

        The flips are subtracted from the highest bit to the lowest, then
        the reversal is added or subtracted.
        """
        np.multiply(self.diagonal, chi, out=out)
        if self.h != 0.0:
            np.multiply(chi, self.h, out=self._scaled)
            target = out.reshape(self._shape)
            for flipped in self._flipped:
                target -= flipped
            for width, sources in self._columns:
                columns = out.reshape(-1, width)
                for c, source in enumerate(sources):
                    columns[:, c] -= source
            if self.parity < 0:
                out += self._reversed
            else:
                out -= self._reversed
        return out


def _occupations(probs: np.ndarray, masks) -> np.ndarray:
    """n(x) = probs @ masks[x-1]: the probability of the basis states with bit x-1 set."""
    return np.array([float(probs @ mask) for mask in masks])


def magnetization_profile(psi) -> np.ndarray:
    """Local excitation numbers n(x) = (1 - <sz_x>)/2, x = 1..L."""
    amp = psi.amplitudes if isinstance(psi, SpinState) else np.asarray(psi)
    sites = _spin_count(amp.size)
    return _occupations(np.abs(amp) ** 2, _bit_masks(amp.size)[:sites])


def spin_parity_expectation(psi) -> float:
    """<prod_x sz_x>: exactly conserved since every coupling flips two spins."""
    amp = psi.amplitudes if isinstance(psi, SpinState) else np.asarray(psi)
    probs = np.abs(amp) ** 2
    signs = 1.0 - 2.0 * _bit_masks(amp.size)[-2]
    return float(probs @ signs)


def energy_expectation(psi, hamiltonian: SparseHamiltonian) -> float:
    amp = psi.amplitudes if isinstance(psi, SpinState) else np.asarray(psi)
    return float(np.real(np.vdot(amp, hamiltonian.matrix @ amp)))


def _spectrum_entropy(rho: np.ndarray) -> float:
    """-sum p log p over the eigenvalues p > 1e-15 of a reduced density matrix.

    Eigenvalues are clipped at 1, so one that rounds above 1 (a nearly
    product state) adds 0 instead of a negative term.
    """
    probs = np.minimum(np.linalg.eigvalsh(rho), 1.0)
    probs = probs[probs > 1e-15]
    return float(-np.sum(probs * np.log(probs)))


def entanglement_entropy(psi, cut: int) -> float:
    """Von Neumann entropy (natural log) of sites 1..cut.

    Computed from the reduced density matrix of the smaller side, whose
    eigenvalues are the squared Schmidt values of the cut.
    """
    amp = psi.amplitudes if isinstance(psi, SpinState) else np.asarray(psi)
    sites = amp.size.bit_length() - 1
    if not 1 <= cut < sites:
        raise InputError(f"cut {cut} outside 1..{sites - 1}")
    # index s = s_right * 2^cut + s_left with s_left over sites 1..cut
    matrix = amp.reshape(1 << (sites - cut), 1 << cut)
    if 2 * cut <= sites:
        return _spectrum_entropy(matrix.T @ matrix.conj())
    return _spectrum_entropy(matrix @ matrix.conj().T)


def _parity_columns(matrix: np.ndarray) -> np.ndarray:
    """(2, rows, cols/2): the columns of even, then of odd index parity, in order.

    Column a of parity q is 2 (a >> 1) + (q ^ parity(a >> 1)), so each
    block is indexed by a >> 1.
    """
    pairs = np.arange(matrix.shape[1] // 2)
    parity = _bit_masks(pairs.size)[-2:]
    return np.stack([matrix[:, 2 * pairs + parity[0]], matrix[:, 2 * pairs + parity[1]]])


def _cut_entropies(z: np.ndarray) -> np.ndarray:
    """Entropies of every cut 1..L-1 of a state of definite spin parity.

    `z` holds the state's 2^(L-1) sz-basis amplitudes, indexed by the low
    L - 1 bits of their basis states; the parity fixes the top bit.  The
    reduced density matrix of either side is block-diagonal in the parity
    of that side's sites, so the density matrices of sites 1..L/2 and of
    sites L/2+2..L take two half-width products each, and every other
    cut's smaller side follows from their blocks by tracing out one
    boundary site at a time; each cut's stacked blocks take one `eigvalsh`.

    Left blocks are indexed by a >> 1 for the left index a.  Tracing out
    its top bit c sends the block entries with c = 0 to the same parity
    and those with c = 1 to the other: rho'_q = rho_q[:n, :n] +
    rho_(1-q)[n:, n:].  Right blocks are indexed by the right index b
    without its top bit, which the parity of the block fixes; tracing out
    the bottom bit of b does the same on the even and odd entries.  The
    two formulas are symmetric in q, so which block holds which parity
    never matters.
    """
    sites = _spin_count(z.size) + 1
    half = sites // 2
    entropies = np.empty(sites - 1)
    # rows: bits half..L-2 of the index; columns: sites 1..half (any top bit)
    left = _parity_columns(z.reshape(-1, 1 << half))
    rho = np.stack([block.T @ block.conj() for block in left])
    for cut in range(half, 0, -1):
        if cut < half:  # trace out site cut + 1, the top bit of the left index
            n = rho.shape[-1] // 2
            rho = rho[:, :n, :n] + rho[::-1, n:, n:]
        entropies[cut - 1] = _spectrum_entropy(rho)
    if sites == 2:
        return entropies
    # rows: sites half+2..L-1 (site L follows from the parity of the row,
    # the column and the sector); columns: sites 1..half+1
    right = _parity_columns(z.reshape(1 << (sites - half - 2), -1))
    rho = np.stack([block @ block.conj().T for block in right])
    for cut in range(half + 1, sites):
        if cut > half + 1:  # trace out site cut, the bottom bit of the right index
            n = rho.shape[-1] // 2
            pairs = rho.reshape(2, n, 2, n, 2)
            rho = pairs[:, :, 0, :, 0] + pairs[::-1, :, 1, :, 1]
        entropies[cut - 1] = _spectrum_entropy(rho)
    return entropies


@dataclass
class ObservableSeries:
    """Observables sampled on the output time grid of one evolution run."""

    times: np.ndarray
    n: np.ndarray                      # (T, L) local excitation numbers
    total: np.ndarray                  # (T,) total excitation number
    shell_p: np.ndarray                # (T, N+1) P(r), n(x) summed over each shell
    entropy: np.ndarray | None = None  # (T, L-1) cut entropies, if requested
    norms: np.ndarray | None = None
    energies: np.ndarray | None = None
    states: np.ndarray | None = None   # (T, 2^L) snapshots, if requested
    lanczos: LanczosStats | None = None  # work and health counters
    sector: dict | None = None         # {"parity": "odd" | "even", "dimension": 2^(L-1)}


def quasi_conservation_report(series: ObservableSeries) -> float:
    """Largest departure of the total excitation number from 1."""
    return float(np.max(np.abs(series.total - 1.0)))


@dataclass
class LanczosStats:
    """Work and health counters of one adaptive Lanczos run.

    They depend only on the inputs, so they come out the same on every run.
    The step sizes, the worst local error bound and `error_bound`, the sum
    of the local error bounds, are those of the accepted substeps; the
    Krylov dimensions span every step tried.
    """

    accepted: int = 0
    rejected: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    max_local_error: float = 0.0
    error_bound: float = 0.0
    krylov_dim_min: int | None = None
    krylov_dim_max: int | None = None

    def record(self, dt: float, error: float, used: int, accepted: bool) -> None:
        low, high = self.krylov_dim_min, self.krylov_dim_max
        self.krylov_dim_min = used if low is None else min(low, used)
        self.krylov_dim_max = used if high is None else max(high, used)
        if not accepted:
            self.rejected += 1
            return
        dt, error = float(dt), float(error)
        self.accepted += 1
        self.dt_min = dt if self.dt_min is None else min(self.dt_min, dt)
        self.dt_max = dt if self.dt_max is None else max(self.dt_max, dt)
        self.max_local_error = max(self.max_local_error, error)
        self.error_bound += error


@functools.lru_cache(maxsize=_MAX_QUADRATURE_NODES // _QUADRATURE_NODES)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the Gauss-Legendre rule on [0, 1], built once per size.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the Legendre polynomials and the weights the squared first components
    of its eigenvectors.
    """
    k = np.arange(1.0, nodes)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    roots, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    rule = (0.5 * (roots + 1.0), vectors[0] ** 2)
    for array in rule:
        array.flags.writeable = False
    return rule


def _krylov_coefficients(alphas: np.ndarray, betas: np.ndarray, dt: float,
                         residual: float) -> tuple[np.ndarray, float]:
    """y = exp(-i dt T) e_1 and the error bound residual int_0^dt |e_m^T exp(-i s T) e_1| ds.

    T = tridiag(betas[1:], alphas, betas[1:]) has dimension m and
    `residual` is beta_{m+1}.  From T = V diag(lam) V^T the integrand is
    |sum_i V[m-1, i] V[0, i] exp(-i s lam_i)|: it vanishes like s^(m-1) at
    s = 0 and its phases span theta = dt (lam_max - lam_min) radians over
    the step.  The Gauss-Legendre rule takes the smallest multiple of
    _QUADRATURE_NODES above theta, at most _MAX_QUADRATURE_NODES nodes:
    exact for polynomials of degree 2 _QUADRATURE_NODES - 1 > 2 KRYLOV_DIM
    and more than six nodes per turn of the fastest phase.  The cap only
    binds from theta near 10^3, far beyond the theta of order m that m
    vectors resolve, where the bound is far above any target.  A zero
    residual (an invariant Krylov space) makes the step exact, bound 0.
    """
    tridiagonal = np.diag(alphas) + np.diag(betas[1:], 1) + np.diag(betas[1:], -1)
    evals, evecs = np.linalg.eigh(tridiagonal)
    y = evecs @ (np.exp(-1j * dt * evals) * evecs[0, :])
    if residual == 0.0:
        return y, 0.0
    theta = int(dt * (evals[-1] - evals[0]))
    nodes, weights = _gauss_legendre(
        min(_MAX_QUADRATURE_NODES, _QUADRATURE_NODES * (1 + theta // _QUADRATURE_NODES)))
    corner = evecs[-1, :] * evecs[0, :]
    integrand = np.abs(np.exp(np.multiply.outer(-1j * dt * nodes, evals)) @ corner)
    return y, residual * dt * float(weights @ integrand)


def _lanczos_step(product, psi: np.ndarray, dt: float, m_max: int, tol: float,
                  applied: np.ndarray | None = None) -> tuple[np.ndarray, float, int]:
    """One exp(-i dt H) psi approximation, its local error bound, its dimension.

    Lanczos with full reorthogonalization; the small tridiagonal
    exponential comes from its own eigendecomposition.  The error of
    dimension m is bounded by beta_{m+1} int_0^dt |e_m^T exp(-i s T_m) e_1| ds
    (variation of constants for Hermitian H: Saad 1992; Jawecki, Auzinger
    and Koch 2020), evaluated by `_krylov_coefficients` from the same
    eigendecomposition as the step.  The recursion stops at the first
    m >= 2 whose bound is at most 0.01 tol, the accuracy at which
    `_advance` grows the step, and at m_max otherwise.  The bound is only
    evaluated once its leading Taylor term beta_2 ... beta_{m+1} dt^m / m!
    is at most tol, 100 times the stopping target, so short steps skip
    most small eigensolves.  `product(v, out)` writes H v into `out`;
    `applied`, when given, is H psi already computed and stands for the
    first product (it is copied, not changed).  The residual `w` is updated
    in place, and the overlaps with the basis are conj(basis @ conj(w)), so
    no conjugated copy of the basis is kept.
    """
    dim = psi.size
    m = min(m_max, dim)
    target = 0.01 * tol
    basis = np.empty((m, dim), dtype=complex)
    w = np.empty(dim, dtype=complex)
    scratch = np.empty(dim, dtype=complex)
    alphas = np.empty(m)
    betas = np.zeros(m)
    basis[0] = psi
    y = None
    for j in range(m):
        if j == 0 and applied is not None:
            np.copyto(w, applied)
        else:
            product(basis[j], w)
        if j > 0:
            w -= np.multiply(basis[j - 1], betas[j], out=scratch)
        alphas[j] = np.real(np.vdot(basis[j], w))
        w -= np.multiply(basis[j], alphas[j], out=scratch)
        # one reorthogonalization pass keeps the basis clean
        overlaps = np.conjugate(basis[: j + 1] @ np.conjugate(w, out=scratch))
        w -= np.matmul(basis[: j + 1].T, overlaps, out=scratch)
        beta_next = float(np.linalg.norm(w))
        used = j + 1
        if beta_next < 1e-13 * max(1.0, float(np.max(np.abs(alphas[:used])))):
            beta_next = 0.0  # invariant subspace: the step is exact
            break
        if used == m:
            break
        leading = beta_next * dt if j == 0 else leading * beta_next * dt / used
        if used >= 2 and leading <= tol:
            y, error = _krylov_coefficients(alphas[:used], betas[:used], dt, beta_next)
            if error <= target:
                break
        betas[used] = beta_next
        # numpy divides by beta_next + 0j as a multiply by 1 / beta_next too,
        # after adding a product with zero that can only flip the sign of a
        # zero part, at six times the cost of this real multiply
        np.multiply(w.view(float), 1.0 / beta_next, out=basis[used].view(float))
    if y is None or y.size != used:  # no check ran at the final dimension
        y, error = _krylov_coefficients(alphas[:used], betas[:used], dt, beta_next)
    return basis[:used].T @ y, error, used


def _advance(product, psi: np.ndarray, span: float, dt: float, m_max: int, tol: float,
             stats: LanczosStats, applied: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Adaptively substep across one output interval; returns the next step size.

    A substep is accepted when its error bound is at most tol, and the
    step grows 1.5x when the bound is below 0.01 tol; a rejected substep
    halves the step.  A substep is clipped to what remains of the
    interval.  Only an unclipped substep changes the step size, so the
    size carried to the next interval is the last one tried in full, not
    the clipped remainder.  `applied`, when given, is H psi: every substep
    tried from the interval's first state takes it as its first product.
    """
    remaining = span
    while remaining > 1e-14 * max(1.0, span):
        step = min(dt, remaining)
        psi_try, error, used = _lanczos_step(product, psi, step, m_max, tol, applied)
        stats.record(step, error, used, error <= tol)
        if error <= tol:
            psi, applied = psi_try, None
            remaining -= step
            if error < 0.01 * tol and step == dt:
                dt *= 1.5
        else:
            dt = 0.5 * step
            if dt < 1e-12 * max(1.0, span):
                raise ConvergenceError(
                    f"step size underflow: dt = {dt:.3e}, "
                    f"local error bound {error:.3e} > target {tol:.3e}"
                )
    return psi, dt


def evolve_spin(model: ModelParams | SparseHamiltonian, psi0: SpinState, times,
                compute_entropy: bool = False,
                keep_states: bool = False) -> ObservableSeries:
    """Evolve |psi0> (given at t = 0) and sample observables on `times`.

    The grid must be finite, ascending and nonnegative; each interval is
    crossed with adaptive Lanczos substeps whose error bounds are at most
    LOCAL_TOL, each of at most KRYLOV_DIM vectors (module constants, read
    at every call); `lanczos.error_bound`, the sum of the accepted bounds,
    bounds the error of the final state in exact arithmetic.  The product
    H chi that gives each output's energy is also the first Krylov product
    of the next interval.  `model` is the ModelParams, or a
    SparseHamiltonian of which only the params are read.  `psi0` must have a definite spin
    parity (its smaller parity component at most 1e-8 in norm); the run
    stays in that 2^(L-1)-dimensional sector, with products matrix-free in
    the sx basis (`SigmaXOperator`).  Sampled states are full 2^L vectors,
    exactly zero outside the sector.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise InputError("times must be a nonempty 1-d ascending grid")
    if not np.all(np.isfinite(times)):
        raise InputError("times must be finite")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise InputError("times must be ascending and nonnegative")
    if not np.all(np.isfinite(psi0.amplitudes)):
        raise InputError("initial state has non-finite amplitudes")
    if abs(psi0.norm() - 1.0) > 1e-8:
        raise InputError("initial state is not normalized")
    params = model.params if isinstance(model, SparseHamiltonian) else model
    if not isinstance(params, ModelParams):
        raise InputError(f"model must be ModelParams or SparseHamiltonian, got {model!r}")
    if psi0.amplitudes.size != 1 << params.geom.length:
        raise InputError("state dimension does not match the Hamiltonian")

    sites = params.geom.length
    parity, z = _sector_amplitudes(psi0.amplitudes)
    operator = SigmaXOperator.from_params(params, parity)
    applied = np.empty(z.size, dtype=complex)
    h_chi = None  # H chi of the last output, the first product of the next interval
    stats = LanczosStats()
    # bits 0..L-2 of the sector index, then the top bit of its basis state
    masks = _bit_masks(z.size)
    top = masks[sites - 1 + (parity < 0)]
    occupation_masks = [*masks[: sites - 1], top]
    upper = top.view(bool)  # amplitudes in the upper half of the 2^L vector

    chi = hadamard_all(z)
    t_now = 0.0
    dt = 0.05

    n_rows, totals, norms, energies = [], [], [], []
    entropies = [] if compute_entropy else None
    states = np.empty((times.size, 1 << sites), dtype=complex) if keep_states else None

    for i, target in enumerate(times):
        span = target - t_now
        if span > 0:
            chi, dt = _advance(operator.product, chi, span, dt,
                               KRYLOV_DIM, LOCAL_TOL, stats, h_chi)
            z = hadamard_all(chi)
            t_now = target
        n = _occupations(np.abs(z) ** 2, occupation_masks)
        n_rows.append(n)
        totals.append(float(n.sum()))
        norms.append(float(np.linalg.norm(chi)))
        h_chi = operator.product(chi, applied)
        energies.append(float(np.real(np.vdot(chi, h_chi))))
        if compute_entropy:
            entropies.append(_cut_entropies(z))
        if keep_states:
            halves = states[i].reshape(2, -1)
            halves[0] = np.where(upper, 0j, z)
            halves[1] = np.where(upper, z, 0j)

    n_block = np.asarray(n_rows)
    return ObservableSeries(
        times=times.copy(),
        n=n_block,
        total=np.asarray(totals),
        shell_p=shell_sums(n_block, params.geom),
        entropy=None if entropies is None else np.asarray(entropies),
        norms=np.asarray(norms),
        energies=np.asarray(energies),
        states=states,
        lanczos=stats,
        sector={"parity": "odd" if parity < 0 else "even", "dimension": z.size},
    )
