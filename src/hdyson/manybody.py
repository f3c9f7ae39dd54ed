"""Exact evolution of the full spin chain at small L.

The spin Hamiltonian couples every pair through the hierarchical distance,

    H = - sum_{i<j} J_{r(i,j)-1} sx_i sx_j - h sum_i sz_i,

acting on the full 2^L space (L <= 16).  Basis convention: basis state s
has site x spin-down exactly when bit x-1 of s is set, so spin-up carries
bit 0 and the polarized state |up...up> is index 0; the local excitation
number is n(x) = (1 - <sz_x>)/2 = Prob(bit x-1 set).

The Hamiltonian is stored as complex CSR and assembled row by row.  The
states it acts on are complex, and scipy copies a real matrix to complex on
every product; writing the CSR arrays directly also skips the COO triplets
and their conversion, which at L = 16 dominated build time and peak memory.

Time stepping uses an adaptive Lanczos (Krylov) approximation of the
matrix exponential: subspace dimension <= 30, local error target 1e-9,
step halving on rejection.  Full diagonalization stays feasible up to
L = 10 and is used as a cross-check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._util import popcount
from .errors import ConvergenceError, InputError, ResourceLimitError
from .geometry import TreeGeometry, pair_level
from .profiles import shell_sums
from .spectral import ModelParams

if TYPE_CHECKING:  # scipy loads on first use, off the import path of hdyson
    import scipy.sparse as sp

__all__ = [
    "SPARSE_CAP",
    "SpinState",
    "SparseHamiltonian",
    "ObservableSeries",
    "build_spin_hamiltonian",
    "evolve_spin",
    "magnetization_profile",
    "total_excitations",
    "quasi_conservation_report",
    "shell_probability",
    "entanglement_entropy",
    "spin_parity_expectation",
    "energy_expectation",
    "one_defect_state",
]

SPARSE_CAP = 16
KRYLOV_DIM = 30
LOCAL_TOL = 1e-9


@dataclass(frozen=True)
class SpinState:
    """Complex amplitudes over the 2^L spin basis (site 1 = lowest bit)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        TreeGeometry.from_length(amp.size)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def sites(self) -> int:
        return TreeGeometry.from_length(self.amplitudes.size).levels

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @classmethod
    def all_up(cls, sites: int) -> "SpinState":
        amp = np.zeros(1 << sites, dtype=complex)
        amp[0] = 1.0
        return cls(amp)

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

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def build_spin_hamiltonian(params: ModelParams, cap: int = SPARSE_CAP) -> SparseHamiltonian:
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
    if L > cap:
        raise ResourceLimitError(f"L = {L} exceeds the sparse cap {cap}")
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
        ups_minus_downs = L - 2 * popcount(np.arange(dim, dtype=np.int64))
        data[flipped == 0] = -params.h * ups_minus_downs.astype(float)

    indptr = np.arange(0, indices.size + 1, len(flips), dtype=np.int32)
    matrix = sp.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(dim, dim))
    return SparseHamiltonian(matrix, params)


def magnetization_profile(psi) -> np.ndarray:
    """Local excitation numbers n(x) = (1 - <sz_x>)/2, x = 1..L."""
    amp = psi.amplitudes if isinstance(psi, SpinState) else np.asarray(psi)
    dim = amp.size
    sites = dim.bit_length() - 1
    probs = np.abs(amp) ** 2
    idx = np.arange(dim)
    return np.array(
        [float(probs @ ((idx >> x) & 1)) for x in range(sites)]
    )


def spin_parity_expectation(psi) -> float:
    """<prod_x sz_x>: exactly conserved since every coupling flips two spins."""
    amp = psi.amplitudes if isinstance(psi, SpinState) else np.asarray(psi)
    probs = np.abs(amp) ** 2
    signs = 1.0 - 2.0 * (popcount(np.arange(amp.size)) & 1)
    return float(probs @ signs)


def energy_expectation(psi, hamiltonian: SparseHamiltonian) -> float:
    amp = psi.amplitudes if isinstance(psi, SpinState) else np.asarray(psi)
    return float(np.real(np.vdot(amp, hamiltonian.matrix @ amp)))


def entanglement_entropy(psi, cut: int) -> float:
    """Von Neumann entropy (natural log) of sites 1..cut, by Schmidt values."""
    amp = psi.amplitudes if isinstance(psi, SpinState) else np.asarray(psi)
    sites = amp.size.bit_length() - 1
    if not 1 <= cut < sites:
        raise InputError(f"cut {cut} outside 1..{sites - 1}")
    # index s = s_right * 2^cut + s_left with s_left over sites 1..cut
    matrix = amp.reshape(1 << (sites - cut), 1 << cut)
    schmidt_sq = np.linalg.svd(matrix, compute_uv=False) ** 2
    schmidt_sq = schmidt_sq[schmidt_sq > 1e-15]
    return float(-np.sum(schmidt_sq * np.log(schmidt_sq)))


def shell_probability(source, geom: TreeGeometry) -> np.ndarray:
    """Many-body P(r, t) from site occupations.

    P(r) is the sum of n(x) over the 2^(r-1) sites of shell r, i.e.
    2^(r-1) times their common value (the permutation symmetry of the
    couplings makes those sites equivalent); P(0) = n(site 1).  Accepts a
    series, a (T, L) block, or a single profile; shells then satisfy
    sum_r P(r) = sum_x n(x) identically.
    """
    if isinstance(source, ObservableSeries):
        n = source.n
    else:
        n = np.asarray(source, dtype=float)
    return shell_sums(n, geom)


@dataclass
class ObservableSeries:
    """Observables sampled on the output time grid of one evolution run."""

    times: np.ndarray
    n: np.ndarray                      # (T, L) local excitation numbers
    total: np.ndarray                  # (T,) total excitation number
    shell_p: np.ndarray                # (T, N+1) shell probabilities
    entropy: np.ndarray | None = None  # (T, L-1) cut entropies, if requested
    norms: np.ndarray | None = None
    energies: np.ndarray | None = None
    states: np.ndarray | None = None   # (T, 2^L) snapshots, if requested


def total_excitations(series: ObservableSeries) -> np.ndarray:
    """Total excitation number over time (the quasi-conserved charge)."""
    return series.total


def quasi_conservation_report(series: ObservableSeries) -> float:
    """Largest departure of the total excitation number from 1."""
    return float(np.max(np.abs(series.total - 1.0)))


def _lanczos_step(matvec, psi: np.ndarray, dt: float,
                  m_max: int, tol: float) -> tuple[np.ndarray, float]:
    """One exp(-i dt H) psi approximation plus its local error estimate.

    Lanczos with full reorthogonalization; the small tridiagonal
    exponential comes from its own eigendecomposition.  The returned error
    estimate is the classical residual term beta_{m+1} |y_m|.  Each basis
    vector is conjugated once, when it is made, for the reorthogonalization.
    """
    from scipy.linalg import eigh_tridiagonal

    dim = psi.size
    m = min(m_max, dim)
    basis = np.empty((m, dim), dtype=complex)
    conj = np.empty((m, dim), dtype=complex)
    alphas = np.empty(m)
    betas = np.zeros(m)
    basis[0] = psi
    np.conjugate(basis[0], out=conj[0])
    beta_next = 0.0
    used = m
    w = None
    for j in range(m):
        w = matvec(basis[j])
        if j > 0:
            w = w - betas[j] * basis[j - 1]
        alphas[j] = np.real(np.vdot(basis[j], w))
        w = w - alphas[j] * basis[j]
        # one reorthogonalization pass keeps the basis clean
        w = w - basis[: j + 1].T @ (conj[: j + 1] @ w)
        beta_next = float(np.linalg.norm(w))
        if j + 1 < m:
            if beta_next < 1e-13 * max(1.0, float(np.max(np.abs(alphas[: j + 1])))):
                used = j + 1
                beta_next = 0.0
                break
            betas[j + 1] = beta_next
            basis[j + 1] = w / beta_next
            np.conjugate(basis[j + 1], out=conj[j + 1])
    alphas = alphas[:used]
    offdiag = betas[1:used]
    evals, evecs = eigh_tridiagonal(alphas, offdiag)
    y = evecs @ (np.exp(-1j * dt * evals) * evecs[0, :])
    psi_new = basis[:used].T @ y
    error = abs(beta_next * y[-1])
    return psi_new, error


def _advance(matvec, psi: np.ndarray, span: float, dt_hint: float,
             m_max: int, tol: float) -> tuple[np.ndarray, float]:
    """Adaptively substep across one output interval; returns new dt hint."""
    remaining = span
    dt = min(dt_hint, span) if span > 0 else span
    while remaining > 1e-14 * max(1.0, span):
        dt = min(dt, remaining)
        psi_try, error = _lanczos_step(matvec, psi, dt, m_max, tol)
        if error <= tol:
            psi = psi_try
            remaining -= dt
            if error < 0.01 * tol:
                dt *= 1.5
        else:
            dt *= 0.5
            if dt < 1e-12 * max(1.0, span):
                raise ConvergenceError(
                    f"step size underflow: dt = {dt:.3e}, "
                    f"local error {error:.3e} > target {tol:.3e}"
                )
    return psi, dt


def evolve_spin(hamiltonian: SparseHamiltonian, psi0: SpinState, times,
                krylov_dim: int = KRYLOV_DIM, local_tol: float = LOCAL_TOL,
                compute_entropy: bool = False,
                keep_states: bool = False) -> ObservableSeries:
    """Evolve |psi0> (given at t = 0) and sample observables on `times`.

    The grid must be finite, ascending and nonnegative; each interval is
    crossed with adaptive Lanczos substeps at the requested local error
    target.  A Krylov space needs at least two vectors for its error
    estimate to shrink with the step.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise InputError("times must be a nonempty 1-d ascending grid")
    if not np.all(np.isfinite(times)):
        raise InputError("times must be finite")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise InputError("times must be ascending and nonnegative")
    if not isinstance(krylov_dim, (int, np.integer)) or krylov_dim < 2:
        raise InputError(f"krylov_dim must be an integer >= 2, got {krylov_dim!r}")
    if not (np.isfinite(local_tol) and local_tol > 0):
        raise InputError(f"local_tol must be finite and positive, got {local_tol!r}")
    if not np.all(np.isfinite(psi0.amplitudes)):
        raise InputError("initial state has non-finite amplitudes")
    if abs(psi0.norm() - 1.0) > 1e-8:
        raise InputError("initial state is not normalized")
    if psi0.amplitudes.size != hamiltonian.dimension:
        raise InputError("state dimension does not match the Hamiltonian")

    geom = hamiltonian.params.geom
    sites = psi0.sites
    matvec = hamiltonian.matrix.dot

    psi = psi0.amplitudes.astype(complex).copy()
    t_now = 0.0
    dt_hint = 0.05

    n_rows, totals, norms, energies = [], [], [], []
    entropies = [] if compute_entropy else None
    states = [] if keep_states else None

    for target in times:
        span = target - t_now
        if span > 0:
            psi, dt_hint = _advance(matvec, psi, span, dt_hint, krylov_dim, local_tol)
            t_now = target
        n = magnetization_profile(psi)
        n_rows.append(n)
        totals.append(float(n.sum()))
        norms.append(float(np.linalg.norm(psi)))
        energies.append(energy_expectation(psi, hamiltonian))
        if compute_entropy:
            entropies.append(
                [entanglement_entropy(psi, cut) for cut in range(1, sites)]
            )
        if keep_states:
            states.append(psi.copy())

    n_block = np.asarray(n_rows)
    return ObservableSeries(
        times=times.copy(),
        n=n_block,
        total=np.asarray(totals),
        shell_p=shell_probability(n_block, geom),
        entropy=None if entropies is None else np.asarray(entropies),
        norms=np.asarray(norms),
        energies=np.asarray(energies),
        states=None if states is None else np.asarray(states),
    )
