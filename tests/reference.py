"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own fast paths: distances
come from scanning the partition hierarchy, eigenvalues from summing
couplings shell by shell, evolution from hand-assembled mode sums or dense
matrix exponentials, second-order couplings from squaring the dense hopping
matrix, the spin Hamiltonian from a COO triplet list converted to CSR, the
per-slot eigenvalues of the tree basis from an explicit slot-by-slot layout,
the tree cascades from one whole-array pass per level,
the dynamical-exponent scan from one amplitude call per trial exponent,
the thermodynamic mode series from one exponential per term, the
amplitudes of shells r >= 1 from whole-array steps around that series,
long-time averages from sampling P(r, t) on the trapezoid grid, the
probability left of a cut from a loop over the shells or a running sum
over the sites, the sigma -> 0 occupations from their cosine closed form,
the gauge factor
between finite-L and thermodynamic amplitudes from the spectrum's dropped
constant,
many-body evolution from CSR products in the sz basis over the full 2^L
space at the full Krylov dimension, the Krylov exponential from scipy's
tridiagonal eigensolver, entanglement entropies from one Schmidt SVD per
cut, the Hadamard on every spin from the in-place butterfly, the sector
product from one flipped tensor view per bit, the sector layout from an
explicit index, index parities from a fresh popcount.  Tests freeze values
computed by these routines.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from hdyson import (
    InputError,
    build_hopping_matrix,
    eigenvalues,
    magnetization_profile,
    occupation,
    probability_thermo,
    renormalized_coupling,
)
from hdyson.analytic import DEFAULT_POLICY, _return_series, time_steps
from hdyson.geometry import block_range, shell_sums


def popcount(values) -> np.ndarray:
    """Number of set bits of each entry, as int64, counted afresh."""
    return np.bitwise_count(np.asarray(values)).astype(np.int64)


def partition_scan_distance(i: int, j: int, levels: int) -> int:
    """Smallest p with i and j in the same block, by scanning the partitions."""
    for p in range(levels + 1):
        if (i - 1) // (1 << p) == (j - 1) // (1 << p):
            return p
    raise AssertionError("sites never merged; indices out of range")


def geometric_coupling(level: int, sigma: float, J: float) -> float:
    return J / 2.0 ** ((1.0 + sigma) * level)


def coupling_sum_eigenvalue(k: int, levels: int, sigma: float, J: float) -> float:
    """Eigenvalue of multiplet k from explicit interaction sums.

    The mode at index k feels the attraction of every shell up to distance
    N - k plus the sign-flipped contribution of its outermost shell.
    """
    attract = -sum(
        (1 << (r - 1)) * geometric_coupling(r - 1, sigma, J)
        for r in range(1, levels - k + 1)
    )
    if k == 0:
        return attract
    return attract + (1 << (levels - k)) * geometric_coupling(levels - k, sigma, J)


def level_sum_eigenvalues(couplings) -> np.ndarray:
    """Eigenvalues of an arbitrary level-coupling profile, one level sum per k.

    eps_k = -sum_{r=1}^{N-k} 2^(r-1) J_{r-1} + 2^(N-k) J_{N-k} (1 - delta_k0),
    each sum a Python loop from r = 1 upwards.
    """
    couplings = np.asarray(couplings, dtype=float)
    n = couplings.size
    eps = np.empty(n + 1)
    for k in range(n + 1):
        attract = -sum(2.0 ** (r - 1) * couplings[r - 1] for r in range(1, n - k + 1))
        eps[k] = attract if k == 0 else attract + 2.0 ** (n - k) * couplings[n - k]
    return eps


def finite_to_thermo_phase(t, sigma: float, J: float = 1.0):
    """Gauge factor g(t) with psi_thermo ~= g(t) * psi_finite as N -> inf.

    The thermodynamic series drops the additive constant
    -J/(1 - 2^-sigma) of the reindexed spectrum; multiplying the finite-L
    amplitudes by g(t) = exp(-i J t / (1 - 2^-sigma)) restores the match.
    """
    return np.exp(-1j * J * np.asarray(t, dtype=float) / (1.0 - 2.0 ** -sigma))


def four_site_evolution(t: float, sigma: float, J: float) -> np.ndarray:
    """Hand-assembled three-frequency evolution of the L = 4 delta state."""
    eps = [coupling_sum_eigenvalue(k, 2, sigma, J) for k in range(3)]
    uniform = np.array([1, 1, 1, 1]) / 4.0
    halves = np.array([1, 1, -1, -1]) / 4.0
    pair = np.array([1, -1, 0, 0]) / 2.0
    return (
        uniform * np.exp(-1j * eps[0] * t)
        + halves * np.exp(-1j * eps[1] * t)
        + pair * np.exp(-1j * eps[2] * t)
    )


def dense_expm_evolve(matrix: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) psi0 through a full eigendecomposition."""
    evals, evecs = np.linalg.eigh(matrix)
    return evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi0))


def two_spin_defect_occupations(t: float, J: float) -> tuple[float, float]:
    """L = 2 chain, initial |down up>: the defect Rabi-oscillates at rate J.

    The one-defect pair {|du>, |ud>} decouples from the field (net zero
    magnetization), leaving a two-level problem with coupling -J, so
    n(1) = cos^2(Jt) and n(2) = sin^2(Jt).
    """
    return float(np.cos(J * t) ** 2), float(np.sin(J * t) ** 2)


def second_order_level_couplings(params) -> tuple[float, ...]:
    """Level couplings J'_p of the one-defect Hamiltonian to second order in J/h.

    Virtual pair creation (three-defect states, +4h above the one-defect
    band) adds -H_hop^2 / 4h to the h -> inf hopping model.  H_hop^2 keeps
    the tree symmetry: its diagonal is constant and its (i, j) entry depends
    only on r(i, j).  So H_hop - H_hop^2 / 4h is, up to a constant, the
    hopping matrix of J'_p = J_p + (H_hop^2)[1, 2^p + 1] / 4h.
    """
    hop = build_hopping_matrix(params)
    square = hop @ hop
    return tuple(
        -hop[0, 1 << p] + square[0, 1 << p] / (4.0 * params.h)
        for p in range(params.geom.levels)
    )


def coo_spin_hamiltonian(params) -> sp.csr_matrix:
    """Real CSR spin Hamiltonian assembled as COO triplets, one pair at a time.

    Each sx sx term connects basis states differing in exactly the two
    flipped bits, so every column holds L(L-1)/2 off-diagonal entries of
    value -J_{r-1}; the diagonal is -h (L - 2 #down), stored only if h != 0.
    """
    L = params.geom.length
    dim = 1 << L
    couplings = params.level_coupling_array()
    base = np.arange(dim, dtype=np.int64)

    rows, cols, data = [], [], []
    for i in range(L):
        for j in range(i + 1, L):
            level = (i ^ j).bit_length() - 1  # r(i+1, j+1) - 1
            mask = (1 << i) | (1 << j)
            rows.append((base ^ mask).astype(np.int32))
            cols.append(base.astype(np.int32))
            data.append(np.full(dim, -couplings[level]))
    if params.h != 0.0:
        ups_minus_downs = L - 2 * popcount(base)
        rows.append(base.astype(np.int32))
        cols.append(base.astype(np.int32))
        data.append(-params.h * ups_minus_downs.astype(float))

    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()


def eigenvalue_slots(params) -> np.ndarray:
    """Eigenvalue of the basis vector held by each tree-coefficient slot.

    Slot 0 holds the uniform mode; multiplet k >= 1 fills slots
    2^(k-1) .. 2^k - 1.
    """
    eps = eigenvalues(params)
    n = params.geom.levels
    slots = np.empty(params.geom.length)
    slots[0] = eps[0]
    for k in range(1, n + 1):
        slots[1 << (k - 1) : 1 << k] = eps[k]
    return slots


def level_forward(v: np.ndarray, coeffs: np.ndarray) -> None:
    """Unscaled tree cascade of v into coeffs, one whole-array pass per level.

    Level k = N..1 writes the pairwise differences of its sums into slots
    2^(k-1) .. 2^k - 1 and halves the sums; the last sum goes to slot 0.
    """
    n = v.size.bit_length() - 1
    sums = [np.empty(v.size >> 1, coeffs.dtype), np.empty(v.size >> 2, coeffs.dtype)]
    src = v
    for k in range(n, 0, -1):
        start, stop = block_range(k)
        np.subtract(src[0::2], src[1::2], out=coeffs[start:stop])
        target = coeffs[:1] if k == 1 else sums[(n - k) % 2][:start]
        np.add(src[0::2], src[1::2], out=target)
        src = target


def level_inverse(coeffs: np.ndarray, factors: np.ndarray, out: np.ndarray) -> None:
    """Unscaled inverse cascade of coeffs with slots of multiplet k times factors[k].

    Level k = 1..N scales slots 2^(k-1) .. 2^k - 1 into the odd half of its
    output and maps each smooth value s to (s + d, s - d), one whole-array
    pass per level.
    """
    n = coeffs.size.bit_length() - 1
    sums = [np.empty(coeffs.size >> 1, out.dtype), np.empty(coeffs.size >> 2, out.dtype)]
    smooth = sums[(n + 1) % 2][:1]
    np.multiply(coeffs[:1], factors[0], out=smooth)
    for k in range(1, n + 1):
        start, stop = block_range(k)
        target = out if k == n else sums[(n - k + 1) % 2][:stop]
        detail = target[1::2]
        np.multiply(coeffs[start:stop], factors[k], out=detail)
        np.add(smooth, detail, out=target[0::2])
        np.subtract(smooth, detail, out=detail)
        smooth = target


def ladder_coupling_from_gaps(distinct_evals: np.ndarray, sigma: float) -> float:
    """Fit the band-ladder prefactor from the top-of-band gaps.

    With A_k = eps_{N-k} - eps_N = c (2^(-sigma k) - 1), two gaps determine
    c = (A_1 - A_2) / (2^-sigma - 2^-2sigma).
    """
    eps = np.asarray(distinct_evals, dtype=float)
    a1 = eps[-2] - eps[-1]
    a2 = eps[-3] - eps[-1]
    return (a1 - a2) / (2.0 ** -sigma - 2.0 ** (-2.0 * sigma))


def cluster_distinct(evals: np.ndarray, tolerance: float) -> list[tuple[float, int]]:
    """Group sorted eigenvalues into (value, multiplicity) clusters."""
    clusters: list[list[float]] = []
    for value in np.sort(np.asarray(evals, dtype=float)):
        if clusters and abs(value - clusters[-1][-1]) <= tolerance:
            clusters[-1].append(value)
        else:
            clusters.append([value])
    return [(float(np.mean(c)), len(c)) for c in clusters]


def per_z_dynamical_exponent(psi_fn, r_values, s_grid,
                             z_min: float = 0.1, z_max: float = 6.0,
                             scan: int = 3001, refine: int = 60) -> float:
    """`analytic.estimate_dynamical_exponent` with the scan done one z at a time.

    The library batches the scan into 2-d time arrays; this keeps the
    original loop, one `psi_fn` call per trial z and shell, whose result the
    batched scan must reproduce to the bit.
    """
    r_values = sorted(set(int(r) for r in r_values))
    if len(r_values) < 2:
        raise InputError("need at least two distinct r values to collapse")
    s_grid = np.asarray(s_grid, dtype=float)
    r0 = r_values[0]

    def spread(z: float) -> float:
        ref = 2.0 ** r0 * psi_fn(r0, s_grid * 2.0 ** (z * r0))
        acc = 0.0
        for r in r_values[1:]:
            cur = 2.0 ** r * psi_fn(r, s_grid * 2.0 ** (z * r))
            acc += float(np.mean(np.abs(cur - ref) ** 2))
        return acc / (len(r_values) - 1)

    zs = np.geomspace(z_min, z_max, scan)
    costs = np.array([spread(z) for z in zs])
    if np.all(costs == costs[0]):
        raise InputError("every trial exponent gives the same spread")
    best = int(np.argmin(costs))
    lo = zs[max(best - 1, 0)]
    hi = zs[min(best + 1, scan - 1)]

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = spread(c), spread(d)
    for _ in range(refine):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = spread(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = spread(d)
    return 0.5 * (a + b)


def direct_return_series(s, sigma: float, J: float, policy) -> np.ndarray:
    """The thermodynamic mode series summed term by term: all K exponentials.

    The library sums the small-phase tail from its Taylor moments; this is
    the direct loop it replaced, kept as its oracle.
    """
    coupling = renormalized_coupling(sigma, J)
    sarr = np.asarray(s, dtype=float)
    acc = np.zeros(sarr.shape, dtype=complex)
    term = np.empty_like(acc)  # reused: a fresh large array is page-faulted in anew
    for k in range(policy.K):
        np.multiply(-1j * coupling * 2.0 ** (-sigma * k), sarr, out=term)
        np.exp(term, out=term)
        np.multiply(2.0 ** (-k - 1), term, out=term)
        acc += term
    return acc


def _scaling_array(sarr: np.ndarray, sigma: float, J: float, policy) -> np.ndarray:
    coupling = renormalized_coupling(sigma, J)
    return _return_series(sarr, sigma, J, policy) - np.exp(
        -1j * coupling * 2.0 ** sigma * sarr
    )


def composed_scaling_function(s, sigma: float, J: float = 1.0, policy=DEFAULT_POLICY):
    """F(s) as the series minus a whole-array closing term.

    The library applies the closing term inside the series' block loop;
    this is the composition it replaced, kept as its bitwise oracle.
    """
    sarr = np.asarray(s, dtype=float)
    # a 1-d view keeps a scalar s on numpy's array loops, as the library
    # does: numpy's scalar complex arithmetic signs some zeros differently
    out = _scaling_array(sarr.reshape(-1), sigma, J, policy).reshape(sarr.shape)
    return complex(out[()]) if sarr.ndim == 0 else out


def composed_psi_thermo(r: int, t, sigma: float, J: float = 1.0, policy=DEFAULT_POLICY):
    """psi(r, t) with the time scaling, closing term and 2^-r as whole-array steps.

    The library applies all three inside the series' block loop; this is
    the composition it replaced, kept as its bitwise oracle (sigma >= 1e-6).
    """
    tarr = np.asarray(t, dtype=float)
    flat = tarr.reshape(-1)  # array loops for a scalar t too, as above
    if r == 0:
        out = _return_series(flat, sigma, J, policy)
    else:
        out = 2.0 ** (-r) * _scaling_array(flat * 2.0 ** (-sigma * r), sigma, J, policy)
    out = out.reshape(tarr.shape)
    return complex(out[()]) if tarr.ndim == 0 else out


def trapezoid_time_average(r: int, T: float, sigma: float, J: float = 1.0,
                           policy=DEFAULT_POLICY, dt: float | None = None) -> float:
    """Composite trapezoid of P(r, t) on t_j = jT/n, by sampling every t_j.

    The library sums the same trapezoid in closed form over mode pairs;
    this is the sampling loop it replaced, kept as its oracle.
    """
    if T <= 0:
        raise InputError(f"averaging horizon must be positive, got T = {T}")
    if dt is None:
        dt = 0.01 / J if J > 0 else 0.01
    n_steps = time_steps(T, dt)
    step = T / n_steps
    total = 0.0
    chunk = 1 << 20
    for start in range(0, n_steps + 1, chunk):
        idx = np.arange(start, min(start + chunk, n_steps + 1))
        values = probability_thermo(r, idx * step, sigma, J, policy)
        total += float(np.sum(values))
        if start == 0:
            total -= 0.5 * float(values[0])
    # remove the half-weight of the final grid point
    total -= 0.5 * float(probability_thermo(r, T, sigma, J, policy))
    return total * step / T


def dense_hadamard(sites: int) -> np.ndarray:
    """Hadamard on every spin as a dense matrix: 2^(-L/2) (-1)^popcount(s & t)."""
    index = np.arange(1 << sites)
    signs = 1.0 - 2.0 * (popcount(index[:, None] & index[None, :]) & 1)
    return signs * 2.0 ** (-sites / 2)


def butterfly_hadamard_all(amplitudes) -> np.ndarray:
    """Hadamard on every spin by the in-place butterfly, one pass per bit from bit 0.

    Pass x pairs the amplitudes that differ in bit x through 2-d views of
    inner length 2^x and writes sum and difference in place of the pair;
    the result is scaled by 2^(-L/2).
    """
    source = np.array(amplitudes, dtype=complex)
    sites = source.size.bit_length() - 1
    target = np.empty_like(source)
    for x in range(sites):
        pairs = source.reshape(-1, 2, 1 << x)  # bit x of s picks the middle index
        halves = target.reshape(-1, 2, 1 << x)
        np.add(pairs[:, 0], pairs[:, 1], out=halves[:, 0])
        np.subtract(pairs[:, 0], pairs[:, 1], out=halves[:, 1])
        source, target = target, source
    source *= 2.0 ** (-sites / 2)
    return source


def flipped_view_product(operator, chi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = H chi for a `SigmaXOperator`, every bit flipped as one axis of a (2,)*(L-1) tensor.

    The diagonal multiply, then the flips of h chi from the highest bit
    (axis 0) to the lowest, then parity times the reversal; the same
    operations per element as the library's product.
    """
    np.multiply(operator.diagonal, chi, out=out)
    if operator.h != 0.0:
        scaled = chi * operator.h
        shape = (2,) * (chi.size.bit_length() - 1)
        tensor = scaled.reshape(shape)
        target = out.reshape(shape)
        for axis in range(tensor.ndim):
            target -= np.flip(tensor, axis)
        if operator.parity < 0:
            out += scaled[::-1]
        else:
            out -= scaled[::-1]
    return out


def sector_index(sites: int, parity: int) -> np.ndarray:
    """sz-basis index of each amplitude of a parity sector, by its low L-1 bits.

    The parity fixes the top bit of a basis state from its other bits.
    """
    low = np.arange(1 << (sites - 1))
    top = (popcount(low) & 1) ^ int(parity < 0)
    return low | (top << (sites - 1))


def popcount_parity_signs(size: int) -> np.ndarray:
    """(-1)^popcount(k) of every index k < size, from a fresh popcount."""
    return 1.0 - 2.0 * (popcount(np.arange(size)) & 1)


def popcount_parity_columns(matrix: np.ndarray) -> np.ndarray:
    """(2, rows, cols/2): the columns of even, then of odd popcount, by a fresh popcount."""
    pairs = np.arange(matrix.shape[1] // 2)
    low = popcount(pairs) & 1
    return np.stack([matrix[:, 2 * pairs + low], matrix[:, 2 * pairs + (1 - low)]])


def svd_entanglement_entropy(amplitudes: np.ndarray, cut: int) -> float:
    """Von Neumann entropy of sites 1..cut from the Schmidt values of one SVD."""
    sites = amplitudes.size.bit_length() - 1
    # index s = s_right * 2^cut + s_left with s_left over sites 1..cut
    matrix = amplitudes.reshape(1 << (sites - cut), 1 << cut)
    schmidt_sq = np.linalg.svd(matrix, compute_uv=False) ** 2
    schmidt_sq = schmidt_sq[schmidt_sq > 1e-15]
    return float(-np.sum(schmidt_sq * np.log(schmidt_sq)))


def csr_lanczos_step(matvec, psi: np.ndarray, dt: float,
                     m_max: int) -> tuple[np.ndarray, float]:
    """One Lanczos exp(-i dt H) psi step with fresh temporaries per update.

    Same recurrence, reorthogonalization and error estimate as the library's
    in-place loop, written with out-of-place arithmetic and a conjugated copy
    of the basis; the two agree to the bit for the same products.  The small
    exponential takes the same dense `eigh` of the tridiagonal as the
    library, so the comparison covers the vector loop; the tridiagonal
    solve is checked on its own against `eigh_tridiagonal_coefficients`.
    """
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
    for j in range(m):
        w = matvec(basis[j])
        if j > 0:
            w = w - betas[j] * basis[j - 1]
        alphas[j] = np.real(np.vdot(basis[j], w))
        w = w - alphas[j] * basis[j]
        w = w - basis[: j + 1].T @ (conj[: j + 1] @ w)
        beta_next = float(np.linalg.norm(w))
        if beta_next < 1e-13 * max(1.0, float(np.max(np.abs(alphas[: j + 1])))):
            used = j + 1
            beta_next = 0.0
            break
        if j + 1 < m:
            betas[j + 1] = beta_next
            basis[j + 1] = w / beta_next
            np.conjugate(basis[j + 1], out=conj[j + 1])
    tridiagonal = (np.diag(alphas[:used]) + np.diag(betas[1:used], 1)
                   + np.diag(betas[1:used], -1))
    evals, evecs = np.linalg.eigh(tridiagonal)
    y = evecs @ (np.exp(-1j * dt * evals) * evecs[0, :])
    return basis[:used].T @ y, abs(beta_next * y[-1])


def eigh_tridiagonal_coefficients(alphas: np.ndarray, betas: np.ndarray,
                                  dt: float) -> np.ndarray:
    """y = exp(-i dt T) e_1 for T = tridiag(betas[1:], alphas, betas[1:]), by scipy's
    tridiagonal eigensolver instead of a dense `eigh`."""
    evals, evecs = eigh_tridiagonal(alphas, betas[1:])
    return evecs @ (np.exp(-1j * dt * evals) * evecs[0, :])


def csr_evolve_spin(hamiltonian, psi0, times, krylov_dim: int = 30,
                    local_tol: float = 1e-9) -> dict:
    """Adaptive Lanczos evolution with CSR products in the sz basis.

    Every step uses all `krylov_dim` vectors.  The step size starts at 0.05,
    grows 1.5x below tol/100 and halves on rejection; unlike `evolve_spin`,
    the size carried into the next interval is the clipped last substep.
    Returns n, P, S (by SVD), energies and states on `times`.
    """
    matvec = hamiltonian.matrix.dot
    psi = np.array(psi0.amplitudes, dtype=complex)
    sites = psi.size.bit_length() - 1
    t_now, dt = 0.0, 0.05
    out = {"n": [], "S": [], "energies": [], "states": []}
    for target in times:
        span = remaining = target - t_now
        dt = min(dt, span) if span > 0 else dt
        while span > 0 and remaining > 1e-14 * max(1.0, span):
            dt = min(dt, remaining)
            psi_try, error = csr_lanczos_step(matvec, psi, dt, krylov_dim)
            if error <= local_tol:
                psi, remaining = psi_try, remaining - dt
                if error < 0.01 * local_tol:
                    dt *= 1.5
            else:
                dt *= 0.5
                assert dt >= 1e-12 * max(1.0, span), "step size underflow"
        t_now = target
        out["n"].append(magnetization_profile(psi))
        out["S"].append([svd_entanglement_entropy(psi, cut) for cut in range(1, sites)])
        out["energies"].append(float(np.real(np.vdot(psi, matvec(psi)))))
        out["states"].append(psi.copy())
    result = {key: np.asarray(value) for key, value in out.items()}
    result["P"] = shell_sums(result["n"], hamiltonian.params.geom)
    return result


def shell_loop_cumulative_probability(amplitudes: np.ndarray, x: int) -> float:
    """Probability in sites 1..x of a shell profile, one shell at a time.

    Each shell adds (covered sites) |psi(r)|^2 in turn; |psi|^2 comes from
    numpy's array `abs`, so the sums match a vectorized cumsum to the bit.
    """
    density = np.abs(amplitudes) ** 2
    total = 0.0
    for r, value in enumerate(density):
        start, stop = block_range(r)
        inside = min(x, stop) - start
        if inside <= 0:
            break
        total += inside * value
    return float(total)


def site_cumulative_probability(site_amplitudes: np.ndarray, x) -> np.ndarray:
    """Probability in sites 1..x of a site-resolved profile, cuts x = 1..L.

    A running sum of |psi(x)|^2 over the L sites: shell r adds its 2^(r-1)
    equal terms one at a time.  The library sums whole shells instead.
    """
    cuts = np.asarray(x)
    if cuts.dtype.kind not in "iu" or np.any(cuts < 1) or np.any(cuts > site_amplitudes.size):
        raise InputError(f"cut positions must be integers in 1..{site_amplitudes.size}")
    return np.cumsum(occupation(0, site_amplitudes))[cuts - 1]


def sigma_zero_probability(r: int, t, J: float = 1.0):
    """P(r, t) in the sigma -> 0 limit: 1/(5 - 4 cos Jt) at r = 0 and
    2^-r (4 - 4 cos Jt)/(5 - 4 cos Jt) beyond; sums to 1 over shells.

    The library gets P(r, t) as `occupation(r, sigma_zero(r, t, J))`.
    """
    c = np.cos(J * np.asarray(t, dtype=float))
    if r == 0:
        out = 1.0 / (5.0 - 4.0 * c)
    else:
        out = 2.0 ** (-r) * (4.0 - 4.0 * c) / (5.0 - 4.0 * c)
    return float(out) if out.ndim == 0 else out
