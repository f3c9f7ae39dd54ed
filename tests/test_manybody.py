from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdyson import (
    InputError,
    ModelParams,
    ResourceLimitError,
    SpinState,
    TreeGeometry,
    build_spin_hamiltonian,
    binary_entropy,
    build_hopping_matrix,
    entanglement_entropy,
    evolve_spin,
    magnetization_profile,
    one_defect_state,
    quasi_conservation_report,
    wave_profile_finite,
)
from hdyson import manybody
from hdyson.geometry import expand_shells_to_sites, shell_sums
from hdyson.manybody import (
    LOCAL_TOL,
    LanczosStats,
    SigmaXOperator,
    _cut_entropies,
    _krylov_coefficients,
    _lanczos_step,
    hadamard_all,
    spin_parity_expectation,
)

from reference import (
    butterfly_hadamard_all,
    coo_spin_hamiltonian,
    csr_evolve_spin,
    csr_lanczos_step,
    dense_expm_evolve,
    dense_hadamard,
    eigh_tridiagonal_coefficients,
    flipped_view_product,
    popcount_parity_columns,
    popcount_parity_signs,
    quad_error_bound,
    second_order_level_couplings,
    sector_index,
    svd_entanglement_entropy,
    two_spin_defect_occupations,
)


def params_for(length, sigma=1.0, J=1.0, h=0.0):
    return ModelParams(TreeGeometry.from_length(length), J=J, sigma=sigma, h=h)


def single_particle_occupations(t, params):
    return np.abs(expand_shells_to_sites(wave_profile_finite(t, params), params.geom)) ** 2


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------

def test_two_site_hamiltonian_matrix():
    H = build_spin_hamiltonian(params_for(2, h=0.0)).matrix.toarray()
    # basis 00,10,01,11 (site 1 = lowest bit); sx sx couples 0<->3 and 1<->2
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = -1.0
    expected[1, 2] = expected[2, 1] = -1.0
    assert np.allclose(H, expected)
    H_field = build_spin_hamiltonian(params_for(2, h=3.0)).matrix.toarray()
    assert np.allclose(np.diag(H_field), [-6.0, 0.0, 0.0, 6.0])


def test_polarized_diagonal_and_offdiag_count():
    length = 8
    ham = build_spin_hamiltonian(params_for(length, h=5.0))
    mat = ham.matrix
    assert mat[0, 0] == pytest.approx(-5.0 * length)
    dense = mat.toarray()
    assert np.allclose(dense, dense.T)
    offdiag = (dense != 0).sum(axis=0) - (np.diag(dense) != 0)
    assert np.all(offdiag == length * (length - 1) // 2)


@st.composite
def spin_params(draw):
    length = draw(st.sampled_from([2, 4, 8]))
    levels = length.bit_length() - 1
    custom = st.lists(st.floats(-5.0, 5.0), min_size=levels, max_size=levels)
    return ModelParams(
        TreeGeometry.from_length(length),
        J=draw(st.floats(0.0, 5.0)),
        sigma=draw(st.floats(0.0, 3.0)),
        h=draw(st.just(0.0) | st.floats(0.0, 50.0)),
        level_couplings=draw(st.none() | custom),
    )


@settings(max_examples=60, deadline=None)
@given(spin_params())
def test_csr_assembly_matches_coo_reference(params):
    matrix = build_spin_hamiltonian(params).matrix
    reference = coo_spin_hamiltonian(params)
    assert matrix.dtype == np.complex128
    for start, stop in zip(matrix.indptr[:-1], matrix.indptr[1:]):
        assert np.all(np.diff(matrix.indices[start:stop]) > 0)
    assert matrix.nnz == reference.nnz
    np.testing.assert_array_equal(matrix.indptr, reference.indptr)
    np.testing.assert_array_equal(matrix.indices, reference.indices)
    np.testing.assert_array_equal(matrix.data, reference.data)


def sigma_x_dense(params):
    """The CSR Hamiltonian conjugated by the dense Hadamard matrix."""
    hadamard = dense_hadamard(params.geom.length)
    return hadamard @ build_spin_hamiltonian(params).matrix.toarray() @ hadamard


@settings(max_examples=60, deadline=None)
@given(spin_params(), st.sampled_from([-1, 1]), st.integers(0, 2**32 - 1))
def test_sigma_x_operator_matches_conjugated_csr(params, parity, seed):
    # chi stands for the full sx-basis vector [chi, parity chi[::-1]] / sqrt(2)
    dense = sigma_x_dense(params)
    half = dense.shape[0] // 2
    scale = max(float(np.max(np.abs(dense).sum(axis=1))), 1.0)
    operator = SigmaXOperator.from_params(params, parity)
    assert operator.diagonal.dtype == np.float64
    assert np.max(np.abs(operator.diagonal - np.diag(dense)[:half])) <= 1e-12 * scale
    rng = np.random.default_rng(seed)
    chi = rng.normal(size=half) + 1j * rng.normal(size=half)
    out = np.empty_like(chi)
    assert operator.product(chi, out) is out
    lifted = np.concatenate([chi, parity * chi[::-1]]) / np.sqrt(2.0)
    reference = np.sqrt(2.0) * (dense @ lifted)
    assert np.max(np.abs(reference[half:] - parity * reference[:half][::-1])) <= (
        1e-12 * scale * np.max(np.abs(chi)))
    assert np.max(np.abs(out - reference[:half])) <= 1e-12 * scale * np.max(np.abs(chi))


def test_sector_operator_rejects_bad_parity():
    with pytest.raises(InputError):
        SigmaXOperator.from_params(params_for(4, h=1.0), 0)


# Largest |bound / quad_error_bound - 1| measured on the 38 steps of the
# test below whose bound is in [1e-14, 1e-6]: 7.5e-5, at a phase span of
# 145 rad (dt = 0.3, h = 40, 160 nodes), where |integrand| dips near zero;
# the others were below 6e-6, mostly the rounding of an integrand that
# cancels to 1e-14 of its terms.
QUADRATURE_AGREEMENT = 2e-4


def test_krylov_coefficients_match_eigh_tridiagonal():
    rng = np.random.default_rng(30)
    for m in range(2, 31):
        alphas = rng.normal(scale=10.0, size=m)
        betas = np.concatenate([[0.0], rng.uniform(0.1, 10.0, size=m - 1)])
        for dt in (0.001, 0.05, 0.3):
            got, bound = _krylov_coefficients(alphas, betas, dt, 1.0)
            expected = eigh_tridiagonal_coefficients(alphas, betas, dt)
            assert np.max(np.abs(got - expected)) <= 1e-13
            exact, zero = _krylov_coefficients(alphas, betas, dt, 0.0)
            assert exact.tobytes() == got.tobytes() and zero == 0.0


@pytest.mark.parametrize("sigma, h", [(0.5, 3.0), (1.0, 10.0), (2.0, 40.0)])
def test_quadrature_matches_adaptive_integral(sigma, h):
    # the Gauss-Legendre rule against QUADPACK on the tridiagonals of real
    # steps, wherever the bound is between rounding and 1e-6
    matrix = build_spin_hamiltonian(params_for(8, sigma=sigma, h=h)).matrix
    rng = np.random.default_rng(8)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = one_defect_state(amps / np.linalg.norm(amps)).amplitudes
    steps = []
    spy = lambda *args: steps.append(args) or _krylov_coefficients(*args)
    with mock.patch.object(manybody, "_krylov_coefficients", spy):
        for dt in (0.002, 0.02, 0.1, 0.3):
            for m in range(4, 31, 2):
                _lanczos_step(lambda v, out: np.copyto(out, matrix.dot(v)), psi, dt, m, 0.0)
    checked = 0
    for alphas, betas, dt, residual in steps:
        expected = quad_error_bound(alphas, betas, dt, residual)
        if 1e-14 <= expected <= 1e-6:
            _, bound = _krylov_coefficients(alphas, betas, dt, residual)
            assert abs(bound - expected) <= QUADRATURE_AGREEMENT * expected
            checked += 1
    assert checked >= 10


# Largest dense error minus bound measured over 9000 draws of the test
# below: 2.6e-14, at an error of 2.6e-14 (L = 8, m = 24, h = 40), the
# rounding of the dense eigh reference; the allowance leaves a factor of 2.
BOUND_ROUNDING = 5e-14
# Largest bound / error over the same draws where 1e-13 < error <= 1e-3:
# 6.3.  Above 1e-3, a million times the local target and never accepted,
# the triangle inequality inside the integral is looser: up to 10.6 at
# dt near 0.1 and h = 40.
BOUND_TIGHTNESS = 10.0


@settings(max_examples=100, deadline=None)
@given(length=st.sampled_from([2, 4, 8]), sigma=st.floats(0.3, 3.0), h=st.floats(0.0, 40.0),
       dt=st.floats(-3.0, -1.0).map(lambda u: 10.0 ** u), m=st.integers(2, 24),
       one_defect=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_lanczos_bound_brackets_the_dense_error(length, sigma, h, dt, m, one_defect, seed):
    # the step's bound against the error of the same step from a dense eigh
    matrix = build_spin_hamiltonian(params_for(length, sigma=sigma, h=h)).matrix
    if one_defect:
        psi = one_defect_state(random_complex(seed, length)).amplitudes
    else:
        psi = random_complex(seed, 1 << length)
    psi /= np.linalg.norm(psi)
    got, bound, used = _lanczos_step(
        lambda v, out: np.copyto(out, matrix.dot(v)), psi, dt, m, 0.0)
    error = float(np.linalg.norm(got - dense_expm_evolve(matrix.toarray(), psi, dt)))
    assert used <= m
    assert bound >= error - BOUND_ROUNDING
    if 1e-13 < error <= 1e-3:
        assert bound <= BOUND_TIGHTNESS * error


@pytest.mark.parametrize("sites", [1, 2, 3, 4, 8])
def test_hadamard_all_is_unitary_involution(sites):
    dim = 1 << sites
    matrix = np.array([hadamard_all(column) for column in np.eye(dim)]).T
    assert np.max(np.abs(matrix - dense_hadamard(sites))) < 1e-15
    assert np.max(np.abs(matrix @ matrix.conj().T - np.eye(dim))) < 1e-14
    rng = np.random.default_rng(sites)
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    assert np.max(np.abs(hadamard_all(hadamard_all(state)) - state)) < 1e-14
    assert np.linalg.norm(hadamard_all(state)) == pytest.approx(np.linalg.norm(state))


def random_complex(seed, size):
    rng = np.random.default_rng(seed)
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def complex_vectors(min_bits, max_bits):
    """Random complex vectors of 2^bits entries, bits in [min_bits, max_bits]."""
    return st.tuples(st.integers(0, 2**32 - 1), st.integers(min_bits, max_bits)).map(
        lambda drawn: random_complex(drawn[0], 1 << drawn[1]))


@settings(max_examples=60, deadline=None)
@given(complex_vectors(1, 15))
def test_hadamard_all_matches_butterfly_to_the_bit(vector):
    assert hadamard_all(vector).tobytes() == butterfly_hadamard_all(vector).tobytes()


def top_first_hadamard(amplitudes):
    """A constant-geometry transform that takes the bits from the top down."""
    source = np.array(amplitudes, dtype=complex)
    sites = source.size.bit_length() - 1
    half = source.size // 2
    for _ in range(sites):
        target = np.empty_like(source)
        np.add(source[:half], source[half:], out=target[0::2])
        np.subtract(source[:half], source[half:], out=target[1::2])
        source = target
    return source * 2.0 ** (-sites / 2)


def test_bitwise_oracle_tells_the_pass_order():
    # the same transform with the bits in the other order agrees to rounding
    # but not to the bit, which the property above would catch
    vector = random_complex(8, 256)
    mutant = top_first_hadamard(vector)
    expected = butterfly_hadamard_all(vector)
    assert np.max(np.abs(mutant - expected)) < 1e-14
    assert mutant.tobytes() != expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(complex_vectors(1, 15), st.sampled_from([-1, 1]), st.just(0.0) | st.floats(0.1, 50.0),
       st.integers(0, 2**32 - 1))
def test_sigma_x_product_matches_flipped_views_to_the_bit(chi, parity, h, seed):
    diagonal = np.random.default_rng(seed).normal(scale=10.0, size=chi.size)
    operator = SigmaXOperator(diagonal, h, parity)
    got = operator.product(chi, np.empty_like(chi))
    expected = flipped_view_product(operator, chi, np.empty_like(chi))
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("length, times", [
    (8, np.linspace(0.0, 1.0, 5)),
    (16, np.array([0.0, 0.004, 0.009])),
], ids=["L8", "L16"])
def test_evolution_matches_reference_kernels_to_the_bit(length, times):
    params = params_for(length, h=40.0)
    rng = np.random.default_rng(length)
    amps = rng.normal(size=length) + 1j * rng.normal(size=length)
    psi0 = one_defect_state(amps / np.linalg.norm(amps))
    run = lambda: evolve_spin(params, psi0, times, compute_entropy=True, keep_states=True)
    series = run()
    with mock.patch.object(manybody, "hadamard_all", butterfly_hadamard_all), \
            mock.patch.object(SigmaXOperator, "product", flipped_view_product):
        expected = run()
    for field in ("times", "n", "total", "shell_p", "entropy", "norms", "energies", "states"):
        assert getattr(series, field).tobytes() == getattr(expected, field).tobytes(), field
    assert series.lanczos == expected.lanczos
    assert series.lanczos.accepted > 0
    assert series.sector == expected.sector


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 8, 16]), st.sampled_from([-1, 1]), st.integers(0, 2**32 - 1))
def test_occupations_match_index_bits_to_the_bit(length, parity, seed):
    # n(x) from the cached uint8 masks equals the sum over the int64 index bits
    z = random_complex(seed, 1 << (length - 1))
    z /= np.linalg.norm(z)
    probs = np.abs(z) ** 2
    masks = manybody._bit_masks(z.size)
    got = manybody._occupations(probs, [*masks[: length - 1], masks[length - 1 + (parity < 0)]])
    index = sector_index(length, parity)
    expected = np.array([float(probs @ ((index >> x) & 1)) for x in range(length)])
    assert got.tobytes() == expected.tobytes()
    full = np.zeros(1 << length, dtype=complex)
    full[index] = z
    assert magnetization_profile(full).tobytes() == np.array(
        [float(np.abs(full) ** 2 @ ((np.arange(full.size) >> x) & 1)) for x in range(length)]
    ).tobytes()


@pytest.mark.parametrize("sites", range(1, 17))
def test_parity_tables_match_popcount(sites):
    # the cached parity row gives the popcount signs and gathered columns exactly
    size = 1 << sites
    signs = 1.0 - 2.0 * manybody._bit_masks(size)[-2]
    assert np.array_equal(signs, popcount_parity_signs(size))
    amp = random_complex(sites, size)
    amp /= np.linalg.norm(amp)
    expected = float((np.abs(amp) ** 2) @ popcount_parity_signs(size))
    assert spin_parity_expectation(amp) == expected
    matrix = random_complex(sites + 100, (3, size))
    columns = manybody._parity_columns(matrix)
    assert columns.dtype == matrix.dtype
    assert np.array_equal(columns, popcount_parity_columns(matrix))


@pytest.mark.parametrize("length", [2, 4, 8, 16])
def test_in_place_lanczos_matches_reference_bitwise(length):
    # the step stops early; the reference run to the same dimension agrees
    params = params_for(length, sigma=0.8, h=9.0)
    matrix = build_spin_hamiltonian(params).matrix
    rng = np.random.default_rng(length)
    psi = rng.normal(size=1 << length) + 1j * rng.normal(size=1 << length)
    psi /= np.linalg.norm(psi)
    for dt in (0.01, 0.001):
        got, error, used = _lanczos_step(
            lambda v, out: np.copyto(out, matrix.dot(v)), psi, dt, 30, LOCAL_TOL
        )
        assert 2 <= used < 30
        assert error <= 0.01 * LOCAL_TOL
        expected, expected_error = csr_lanczos_step(matrix.dot, psi, dt, used)
        assert got.tobytes() == expected.tobytes()
        assert error == expected_error


@pytest.mark.parametrize("length, sigma, h, couplings, times", [
    (2, 1.0, 7.0, None, np.linspace(0.0, 2.0, 5)),
    (4, 1.0, 3.0, (0.7, -0.2), np.linspace(0.0, 2.0, 5)),
    (8, 0.5, 0.0, None, np.linspace(0.0, 2.0, 5)),
    (8, 1.0, 40.0, None, np.linspace(0.0, 2.0, 5)),
    (8, 1.0, 3.0, (0.7, -0.2, 0.0), np.linspace(0.0, 2.0, 5)),
    (16, 1.0, 40.0, None, np.array([0.0, 0.005, 0.01])),
], ids=["L2", "L4-custom", "L8-h0", "L8-h40", "L8-custom", "L16"])
def test_evolution_matches_csr_reference(length, sigma, h, couplings, times):
    params = ModelParams(TreeGeometry.from_length(length), sigma=sigma, h=h,
                         level_couplings=couplings)
    rng = np.random.default_rng(length)
    amps = rng.normal(size=length) + 1j * rng.normal(size=length)
    psi0 = one_defect_state(amps / np.linalg.norm(amps))
    hamiltonian = build_spin_hamiltonian(params)
    series = evolve_spin(hamiltonian, psi0, times, compute_entropy=True,
                         keep_states=True)
    reference = csr_evolve_spin(hamiltonian, psi0, times)
    assert np.max(np.abs(series.states - reference["states"])) < 1e-10
    assert np.max(np.abs(series.n - reference["n"])) < 1e-10
    assert np.max(np.abs(series.shell_p - reference["P"])) < 1e-10
    assert np.max(np.abs(series.entropy - reference["S"])) < 1e-10
    energy_scale = max(1.0, float(np.max(np.abs(reference["energies"]))))
    assert np.max(np.abs(series.energies - reference["energies"])) < 1e-10 * energy_scale


@pytest.mark.parametrize("length", [2, 4, 8])
def test_even_sector_matches_csr_reference(length):
    # all_up plus every two-flip state: the even sector
    params = params_for(length, sigma=0.8, h=6.0)
    rng = np.random.default_rng(length)
    amps = np.zeros(1 << length, dtype=complex)
    amps[0] = 1.0
    for i in range(length):
        for j in range(i + 1, length):
            amps[(1 << i) | (1 << j)] = rng.normal() + 1j * rng.normal()
    psi0 = SpinState(amps / np.linalg.norm(amps))
    times = np.linspace(0.0, 2.0, 5)
    hamiltonian = build_spin_hamiltonian(params)
    series = evolve_spin(params, psi0, times, compute_entropy=True, keep_states=True)
    reference = csr_evolve_spin(hamiltonian, psi0, times)
    assert series.sector == {"parity": "even", "dimension": 1 << (length - 1)}
    assert np.max(np.abs(series.states - reference["states"])) < 1e-10
    assert np.max(np.abs(series.n - reference["n"])) < 1e-10
    assert np.max(np.abs(series.entropy - reference["S"])) < 1e-10
    energy_scale = max(1.0, float(np.max(np.abs(reference["energies"]))))
    assert np.max(np.abs(series.energies - reference["energies"])) < 1e-10 * energy_scale
    odd = np.bitwise_count(np.arange(1 << length)) & 1 == 1
    assert not np.any(series.states[:, odd])


def test_mixed_parity_state_is_rejected():
    for length, parity in [(4, -1), (4, 1), (16, -1), (16, 1)]:
        params = params_for(length, h=3.0)
        dim = 1 << length
        odd = np.bitwise_count(np.arange(dim)) & 1 == 1
        inside = odd if parity < 0 else ~odd
        rng = np.random.default_rng(length)
        amps = np.where(inside, rng.normal(size=dim) + 1j * rng.normal(size=dim), 0.0)
        amps /= np.linalg.norm(amps)
        other = np.zeros(dim, dtype=complex)
        other[np.flatnonzero(~inside)[3]] = 1.0
        # both parts well above the 1e-8 normalisation tolerance
        with pytest.raises(InputError, match="parities"):
            evolve_spin(params, SpinState((amps + other) / np.sqrt(2.0)), [0.0, 1.0])
        # a part below it is dropped: the run stays in the sector of the
        # rest, whose amplitudes it keeps to the bit
        nearly = amps + 1e-9 * other
        series = evolve_spin(params, SpinState(nearly), [0.0], keep_states=True)
        assert series.sector == {"parity": "odd" if parity < 0 else "even",
                                 "dimension": dim // 2}
        assert series.states[0].tobytes() == np.where(inside, nearly, 0.0).tobytes()


def test_lanczos_stats_of_two_site_defect():
    # the one-defect pair spans a 2-d Krylov space, so every step is exact
    # (error 0) and grows the next by 1.5: 0.05, then 0.05 to close t = 0.1
    series = evolve_spin(build_spin_hamiltonian(params_for(2, h=7.0)),
                         SpinState.single_flip(2), [0.0, 0.1])
    assert series.lanczos == LanczosStats(
        accepted=2, rejected=0, dt_min=0.05, dt_max=0.05, max_local_error=0.0,
        krylov_dim_min=2, krylov_dim_max=2,
    )
    idle = evolve_spin(build_spin_hamiltonian(params_for(2, h=7.0)),
                       SpinState.single_flip(2), [0.0])
    assert idle.lanczos == LanczosStats()


def test_l16_interval_stops_early():
    # the error bound falls below tol/100 at 9 vectors, well before the
    # 30-vector limit; the residual estimate beta_{m+1} |y_m| needed 12
    rng = np.random.default_rng(16)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    series = evolve_spin(params_for(16, h=40.0), one_defect_state(amps / np.linalg.norm(amps)),
                         [0.0, 0.005])
    stats = series.lanczos
    assert (stats.accepted, stats.rejected) == (1, 0)
    assert stats.krylov_dim_max <= 10
    assert 0.0 < stats.max_local_error == stats.error_bound <= 0.01 * LOCAL_TOL


def test_step_size_survives_output_times():
    # 100 intervals of 0.1 at the CLI defaults: 0.05 and its clipped
    # remainder, 0.075 and its remainder, then one step per interval
    times = np.linspace(0.0, 10.0, 101)
    series = evolve_spin(params_for(8, h=40.0), SpinState.single_flip(8), times)
    stats = series.lanczos
    assert (stats.accepted, stats.rejected) == (102, 0)
    assert stats.dt_max == pytest.approx(0.1)
    assert stats.max_local_error <= 0.01 * LOCAL_TOL


def test_evolve_accepts_params_or_csr():
    params = params_for(4, h=3.0)
    times = [0.0, 0.5, 1.0]
    from_params = evolve_spin(params, SpinState.single_flip(4), times, keep_states=True)
    from_csr = evolve_spin(build_spin_hamiltonian(params), SpinState.single_flip(4), times,
                           keep_states=True)
    assert from_params.states.tobytes() == from_csr.states.tobytes()
    with pytest.raises(InputError):
        evolve_spin(params.geom, SpinState.single_flip(4), times)


def test_lanczos_stats_count_rejections():
    # 6 Krylov vectors miss the 1e-9 target at dt = 0.05 and 0.025, then
    # dt = 0.0125 holds it (bounds up to 4.4e-10, too large to grow the
    # step) across the 16 steps to t = 0.2
    with mock.patch.object(manybody, "KRYLOV_DIM", 6):
        series = evolve_spin(build_spin_hamiltonian(params_for(8, h=3.0)),
                             SpinState.single_flip(8), [0.0, 0.2])
    stats = series.lanczos
    assert (stats.accepted, stats.rejected) == (16, 2)
    assert stats.krylov_dim_min == stats.krylov_dim_max == 6
    assert stats.dt_min == pytest.approx(0.0125) and stats.dt_max == 0.0125
    assert 0.0 < stats.max_local_error <= 1e-9


@pytest.mark.parametrize("krylov_dim, h, times, saved", [
    (30, 40.0, np.linspace(0.0, 1.0, 11), 10),
    # dt = 0.05 and 0.025 are rejected, so three substeps start at t = 0
    (6, 3.0, np.array([0.0, 0.2]), 3),
], ids=["steps", "rejections"])
def test_energy_product_starts_the_next_interval(krylov_dim, h, times, saved):
    # the H chi of each output's energy is the first Krylov product of every
    # substep tried from that state: one product fewer per such substep,
    # and the same bits as a run that computes it again
    params = params_for(8, h=h)
    product = SigmaXOperator.product
    advance = manybody._advance

    def run(stepper):
        calls = []
        counting = lambda self, chi, out: calls.append(1) or product(self, chi, out)
        with mock.patch.object(manybody, "KRYLOV_DIM", krylov_dim), \
                mock.patch.object(SigmaXOperator, "product", counting), \
                mock.patch.object(manybody, "_advance", stepper):
            series = evolve_spin(params, SpinState.single_flip(8), times, keep_states=True)
        return series, len(calls)

    series, products = run(advance)
    fresh, fresh_products = run(lambda *args: advance(*args[:7]))
    assert fresh_products - products == saved
    for field in ("states", "norms", "energies"):
        assert getattr(series, field).tobytes() == getattr(fresh, field).tobytes(), field
    assert series.lanczos == fresh.lanczos


def test_sparse_cap():
    # L = 32 is over the cap: both raise before any 2^L array is built
    with pytest.raises(ResourceLimitError):
        build_spin_hamiltonian(params_for(32))
    with pytest.raises(ResourceLimitError):
        SigmaXOperator.from_params(params_for(32), -1)


def test_paramagnetic_ground_state_overlap():
    params = params_for(8, h=40.0)
    dense = build_spin_hamiltonian(params).matrix.toarray()
    evals, evecs = np.linalg.eigh(dense)
    ground = evecs[:, 0]
    overlap = abs(ground[0]) ** 2  # |up...up> is basis state 0
    assert overlap > 1.0 - 5.0 * (1.0 / 40.0) ** 2


def test_single_defect_block_is_hopping_matrix():
    params = params_for(8, sigma=0.7, h=11.0)
    dense = build_spin_hamiltonian(params).matrix.toarray()
    idx = [1 << x for x in range(8)]
    block = dense[np.ix_(idx, idx)]
    block = block - np.diag(np.diag(block))  # remove the constant h diagonal
    hop = build_hopping_matrix(params)
    assert np.max(np.abs(block - hop)) < 1e-14
    assert np.allclose(np.diag(dense)[idx], -params.h * (8 - 2))


# ---------------------------------------------------------------------------
# states and observables
# ---------------------------------------------------------------------------

def test_magnetization_of_product_states():
    flip = SpinState.single_flip(6, site=1)
    n = magnetization_profile(flip)
    assert np.allclose(n, [1, 0, 0, 0, 0, 0])
    all_up = SpinState(np.eye(1, 64, dtype=complex)[0])
    assert np.allclose(magnetization_profile(all_up), np.zeros(6))


def test_one_defect_state_occupations():
    amps = np.full(8, 8 ** -0.5, dtype=complex)
    state = one_defect_state(amps)
    assert np.allclose(magnetization_profile(state), np.full(8, 1.0 / 8.0))


def test_shell_probability_partitions_total():
    rng = np.random.default_rng(2)
    geom = TreeGeometry(3)
    n = rng.uniform(size=(5, 8))
    shells = shell_sums(n, geom)
    assert shells.shape == (5, 4)
    assert np.allclose(shells.sum(axis=1), n.sum(axis=1), atol=1e-12)
    single = shell_sums(n[0], geom)
    assert np.allclose(single, shells[0])
    assert single[0] == n[0, 0]


def test_entanglement_entropy_special_states():
    assert entanglement_entropy(SpinState.single_flip(4), 2) == pytest.approx(0.0, abs=1e-12)
    bell = np.zeros(16, dtype=complex)
    bell[0b0000] = 2 ** -0.5
    bell[0b0110] = 2 ** -0.5  # sites 2 and 3 maximally entangled across cut 2
    assert entanglement_entropy(SpinState(bell), 2) == pytest.approx(np.log(2.0))
    with pytest.raises(InputError):
        entanglement_entropy(SpinState.single_flip(4), 4)


def random_state(rng, length, kind):
    """A one-defect state, or a random state of all, odd or even spin parity."""
    if kind == "one-defect":
        amps = rng.normal(size=length) + 1j * rng.normal(size=length)
        return one_defect_state(amps / np.linalg.norm(amps)).amplitudes
    amps = rng.normal(size=1 << length) + 1j * rng.normal(size=1 << length)
    if kind != "any":
        odd = (np.bitwise_count(np.arange(1 << length)) & 1).astype(bool)
        amps[odd if kind == "even" else ~odd] = 0.0
    return amps / np.linalg.norm(amps)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 8]), st.sampled_from(["one-defect", "odd", "even"]),
       st.integers(0, 2**32 - 1))
def test_cut_entropies_match_svd_oracle(length, kind, seed):
    rng = np.random.default_rng(seed)
    amps = random_state(rng, length, kind)
    expected = np.array([svd_entanglement_entropy(amps, cut) for cut in range(1, length)])
    sector = amps[sector_index(length, 1 if kind == "even" else -1)]
    assert np.linalg.norm(sector) == pytest.approx(1.0)
    assert np.max(np.abs(_cut_entropies(sector) - expected)) <= 1e-12
    # one cut of any state, of definite parity or not
    for state in (amps, random_state(rng, length, "any")):
        single = np.array([entanglement_entropy(state, cut) for cut in range(1, length)])
        oracle = np.array([svd_entanglement_entropy(state, cut) for cut in range(1, length)])
        assert np.max(np.abs(single - oracle)) <= 1e-12


def test_entropies_of_twice_transformed_flips_are_nonnegative():
    # at an odd number of sites the Hadamard scale 2^(-L/2) rounds, so two
    # transforms leave a flip within rounding of itself and its density
    # matrices can have an eigenvalue just above 1
    for length in range(2, 9):
        index = sector_index(length, -1)
        for site in range(1, length + 1):
            amps = hadamard_all(hadamard_all(SpinState.single_flip(length, site).amplitudes))
            assert np.all(_cut_entropies(amps[index]) >= 0.0)
            for cut in range(1, length):
                assert entanglement_entropy(amps, cut) >= 0.0


def test_single_defect_entropy_is_binary_formula():
    rng = np.random.default_rng(9)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = one_defect_state(amps)
    for cut in range(1, 8):
        inside = float(np.sum(np.abs(amps[:cut]) ** 2))
        assert entanglement_entropy(state, cut) == pytest.approx(
            binary_entropy(inside), abs=1e-8
        )


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_zero_hamiltonian_keeps_state():
    params = ModelParams(TreeGeometry(2), J=0.0, sigma=1.0, h=0.0)
    series = evolve_spin(
        build_spin_hamiltonian(params),
        SpinState.single_flip(4),
        np.linspace(0.0, 3.0, 4),
        keep_states=True,
    )
    for state in series.states:
        assert np.max(np.abs(state - series.states[0])) < 1e-12


def test_two_spin_rabi_oscillation():
    params = params_for(2, h=7.0)
    times = np.linspace(0.0, 6.0, 41)
    series = evolve_spin(build_spin_hamiltonian(params), SpinState.single_flip(2), times)
    for i, t in enumerate(times):
        n1, n2 = two_spin_defect_occupations(t, 1.0)
        assert series.n[i, 0] == pytest.approx(n1, abs=1e-9)
        assert series.n[i, 1] == pytest.approx(n2, abs=1e-9)


def test_krylov_matches_dense_expm():
    params = params_for(8, h=12.0)
    ham = build_spin_hamiltonian(params)
    times = np.array([0.0, 2.5, 5.0])
    series = evolve_spin(ham, SpinState.single_flip(8), times, keep_states=True)
    psi0 = SpinState.single_flip(8).amplitudes
    dense = ham.matrix.toarray()
    for i, t in enumerate(times):
        expected = dense_expm_evolve(dense, psi0, t)
        assert np.max(np.abs(series.states[i] - expected)) < 1e-8


def test_conservation_laws_and_norm():
    params = params_for(8, h=40.0)
    times = np.linspace(0.0, 50.0, 101)
    series = evolve_spin(
        build_spin_hamiltonian(params), SpinState.single_flip(8), times,
        keep_states=True,
    )
    assert np.max(np.abs(series.norms - 1.0)) < 1e-8 * 50.0
    energy_scale = max(abs(series.energies[0]), 1.0)
    assert np.max(np.abs(series.energies - series.energies[0])) < 1e-8 * energy_scale
    parities = [spin_parity_expectation(state) for state in series.states]
    assert np.max(np.abs(np.array(parities) - parities[0])) < 1e-10


def test_quasi_conservation_improves_with_field():
    times = np.linspace(0.0, 10.0, 51)
    deviations = {}
    for h in (2.0, 40.0):
        params = params_for(8, h=h)
        series = evolve_spin(
            build_spin_hamiltonian(params), SpinState.single_flip(8), times
        )
        deviations[h] = quasi_conservation_report(series)
        assert np.allclose(series.total, series.n.sum(axis=1))
        assert np.array_equal(series.shell_p, shell_sums(series.n, params.geom))
    assert deviations[40.0] < 0.01
    assert deviations[2.0] >= 10.0 * deviations[40.0]


def test_single_particle_deviation_shrinks_with_field():
    times = np.linspace(0.0, 10.0, 41)
    worst = []
    for h in (5.0, 10.0, 20.0, 40.0):
        params = params_for(8, h=h)
        series = evolve_spin(
            build_spin_hamiltonian(params), SpinState.single_flip(8), times
        )
        dev = max(
            float(np.max(np.abs(series.n[i] - single_particle_occupations(t, params))))
            for i, t in enumerate(times)
        )
        worst.append(dev)
    assert all(worst[i] > worst[i + 1] for i in range(len(worst) - 1))
    # bare h -> inf model: the secular (J^2/4h) dephasing sets a floor of ~0.026
    # at h = 40J; acceptance criterion 7 gates the second-order model instead
    assert worst[-1] < 0.03


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("h", [2.0, 40.0])
def test_second_order_hopping_is_renormalised_tree(sigma, h):
    params = params_for(8, sigma=sigma, h=h)
    hop = build_hopping_matrix(params)
    effective = hop - hop @ hop / (4.0 * h)
    diagonal = np.diag(effective)
    assert np.ptp(diagonal) < 1e-14
    dressed = replace(params, level_couplings=second_order_level_couplings(params))
    renormalised = build_hopping_matrix(dressed)
    assert np.max(np.abs(effective - np.diag(diagonal) - renormalised)) < 1e-14


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_one_defect_band_matches_second_order_levels(sigma):
    # Gaps inside the exact one-defect band (8 levels near -hL + 2h) against
    # the hopping-model levels: the bare ones are off by O(J^2/h), the
    # second-order ones by O(J^3/h^2).
    errors = {}
    for h in (20.0, 40.0, 80.0):
        params = params_for(8, sigma=sigma, h=h)
        evals = np.linalg.eigvalsh(build_spin_hamiltonian(params).matrix.toarray())
        band = evals[np.abs(evals - (-h * 8 + 2.0 * h)) < h]
        assert len(band) == 8
        gaps = band - band[0]
        bare = np.linalg.eigvalsh(build_hopping_matrix(params))
        dressed = np.linalg.eigvalsh(build_hopping_matrix(
            replace(params, level_couplings=second_order_level_couplings(params))
        ))
        errors[h] = np.max(np.abs(gaps - (dressed - dressed[0])))
        assert errors[h] < 1.0 / h ** 2
        assert np.max(np.abs(gaps - (bare - bare[0]))) > 2.0 / h ** 2
    assert errors[20.0] > 3.0 * errors[40.0] > 9.0 * errors[80.0]


def test_shell_average_return_probability():
    params = params_for(8, h=40.0)
    times = np.linspace(0.0, 200.0, 801)
    series = evolve_spin(
        build_spin_hamiltonian(params), SpinState.single_flip(8), times
    )
    mean_p0 = np.trapezoid(series.shell_p[:, 0], times) / times[-1]
    assert abs(mean_p0 - 1.0 / 3.0) < 0.1 / 3.0


def test_entropy_column_during_evolution():
    params = params_for(4, h=30.0)
    times = np.linspace(0.0, 2.0, 5)
    series = evolve_spin(
        build_spin_hamiltonian(params), SpinState.single_flip(4), times,
        compute_entropy=True, keep_states=True,
    )
    assert series.entropy.shape == (5, 3)
    assert np.allclose(series.entropy[0], 0.0, atol=1e-10)
    for i in range(len(times)):
        for cut in (1, 2, 3):
            direct = entanglement_entropy(SpinState(series.states[i]), cut)
            assert series.entropy[i, cut - 1] == pytest.approx(direct, abs=1e-12)


def test_evolve_input_validation():
    params = params_for(4, h=1.0)
    ham = build_spin_hamiltonian(params)
    good = SpinState.single_flip(4)
    with pytest.raises(InputError):
        evolve_spin(ham, good, np.array([1.0, 0.5]))
    with pytest.raises(InputError):
        evolve_spin(ham, good, np.array([-1.0, 2.0]))
    with pytest.raises(InputError):
        evolve_spin(ham, SpinState(np.full(16, 0.5 + 0j)), np.array([0.0, 1.0]))
    with pytest.raises(InputError):
        evolve_spin(ham, SpinState.single_flip(2), np.array([0.0, 1.0]))
    for times in ([np.nan], [np.inf], [0.0, np.nan], [0.5, np.inf]):
        with pytest.raises(InputError):
            evolve_spin(ham, good, times)
    nan_state = good.amplitudes.copy()
    nan_state[3] = np.nan
    with pytest.raises(InputError):
        evolve_spin(ham, SpinState(nan_state), [0.0, 1.0])
    with pytest.raises(InputError):
        SpinState.single_flip(4, site=5)
    with pytest.raises(InputError):
        SpinState(np.zeros(3, dtype=complex))
