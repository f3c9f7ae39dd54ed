import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdyson import (
    InputError,
    ModelParams,
    ResourceLimitError,
    SingularLimitError,
    TreeCoefficients,
    TreeGeometry,
    build_hopping_matrix,
    delta_decomposition,
    dense_evolve_series,
    eigenvalues,
    eigenvector,
    fast_apply,
    fast_evolve,
    fast_evolve_series,
    inverse_tree_transform,
    probability_thermo,
    tree_transform,
    wave_profile_finite,
)

from hdyson import oracle
from hdyson.geometry import block_bounds, block_range

from reference import eigenvalue_slots, four_site_evolution, level_forward, level_inverse

BLOCK = oracle._BLOCK_LEVELS


def params_for(levels, sigma=1.0, J=1.0):
    return ModelParams(TreeGeometry(levels), J=J, sigma=sigma)


def delta_state(length):
    amp = np.zeros(length, dtype=complex)
    amp[0] = 1.0
    return amp


# ---------------------------------------------------------------------------
# fast_apply
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_fast_apply_matches_dense_matvec(sigma):
    rng = np.random.default_rng(11)
    for levels in range(1, 11):
        params = params_for(levels, sigma=sigma)
        mat = build_hopping_matrix(params)
        L = params.geom.length
        block = rng.normal(size=(100, L)) + 1j * rng.normal(size=(100, L))
        dense = block @ mat.T
        for row in range(100):
            fast = fast_apply(params, block[row])
            scale = np.max(np.abs(dense[row])) or 1.0
            assert np.max(np.abs(fast - dense[row])) <= 1e-12 * scale


@st.composite
def tree_params(draw, max_levels=12):
    levels = draw(st.integers(1, max_levels))
    custom = st.lists(st.floats(-5.0, 5.0), min_size=levels, max_size=levels)
    return ModelParams(
        TreeGeometry(levels),
        J=draw(st.floats(0.0, 5.0)),
        sigma=draw(st.floats(0.05, 3.0)),
        level_couplings=draw(st.none() | custom),
    )


@settings(max_examples=80, deadline=None)
@given(tree_params(max_levels=10), st.integers(0, 2**32 - 1))
def test_fast_apply_matches_dense_matrix(params, seed):
    # the spectral product against the explicit matrix, and a real input
    # gives a real output with the values of the complex path; the scale
    # stops at the smallest normal float, below which floats are spaced
    # absolutely (with a subnormal J no summation order meets 1e-12
    # relative)
    rng = np.random.default_rng(seed)
    L = params.geom.length
    v = rng.normal(size=L) + 1j * rng.normal(size=L)
    dense = build_hopping_matrix(params) @ v
    scale = max(np.max(np.abs(dense)), np.finfo(float).tiny)
    assert np.max(np.abs(fast_apply(params, v) - dense)) <= 1e-12 * scale
    real = fast_apply(params, v.real)
    assert real.dtype == np.float64
    assert np.array_equal(real, fast_apply(params, v.real + 0j))


def test_fast_apply_examples():
    params = params_for(2)
    assert np.allclose(
        fast_apply(params, np.array([1.0, 0.0, 0.0, 0.0])), [0, -1, -0.25, -0.25]
    )
    uniform = np.full(16, 0.25)
    params4 = params_for(4)
    eps0 = eigenvalues(params4)[0]
    assert np.max(np.abs(fast_apply(params4, uniform) - eps0 * uniform)) < 1e-13


def test_fast_apply_eigen_action():
    for levels in (3, 6, 10):
        params = params_for(levels, sigma=0.5)
        eps = eigenvalues(params)
        for k in range(levels + 1):
            for m in (1, np.diff(block_bounds(levels))[k]):
                v = eigenvector(k, m, params.geom)
                result = fast_apply(params, v)
                assert np.max(np.abs(result - eps[k] * v)) < 1e-10


def test_fast_apply_validation():
    params = params_for(3)
    with pytest.raises(InputError):
        fast_apply(params, np.zeros(6))
    with pytest.raises(InputError):
        fast_apply(params, np.zeros(16))
    v = np.zeros(8, dtype=complex)
    with pytest.raises(InputError):
        fast_apply(params, v, out=v)
    with pytest.raises(InputError):
        fast_apply(params, v, out=np.zeros(8))  # dtype mismatch with complex input
    # fast_evolve shares the length check
    with pytest.raises(InputError):
        fast_evolve(params, 1.0, np.ones(16) / 4)
    with pytest.raises(InputError):
        fast_evolve(params, 1.0, np.ones((2, 4)) / 8 ** 0.5)
    # the product runs through the closed-form spectrum, which has no
    # sigma = 0 value
    with pytest.raises(SingularLimitError):
        fast_apply(params_for(3, sigma=0.0), np.ones(8))


# ---------------------------------------------------------------------------
# tree transform
# ---------------------------------------------------------------------------

def members(levels):
    """(k, m, slot): member m of multiplet k sits in slot start + m - 1 of block k."""
    for k in range(levels + 1):
        start, stop = block_range(k)
        for slot in range(start, stop):
            yield k, slot - start + 1, slot


def test_tree_transform_of_delta_matches_decomposition():
    geom = TreeGeometry(5)
    coeffs = tree_transform(delta_state(geom.length))
    expected = {(k, m): c for k, m, c in delta_decomposition(geom)}
    for k, m, slot in members(geom.levels):
        assert coeffs.values[slot] == pytest.approx(expected.get((k, m), 0.0), abs=1e-14)


def test_tree_transform_coefficients_are_projections():
    rng = np.random.default_rng(5)
    geom = TreeGeometry(4)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    coeffs = tree_transform(v)
    for k, m, slot in members(geom.levels):
        basis = eigenvector(k, m, geom).real
        assert coeffs.values[slot] == pytest.approx(complex(basis @ v), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_tree_transform_roundtrip_and_parseval(levels, seed):
    # the transform is orthogonal: it keeps the norm, and its inverse is
    # its adjoint, <T v, w> = <v, T^-1 w>
    rng = np.random.default_rng(seed)
    v, w = rng.normal(size=(2, 1 << levels)) + 1j * rng.normal(size=(2, 1 << levels))
    coeffs = tree_transform(v)
    back = inverse_tree_transform(coeffs)
    scale = np.max(np.abs(v))
    assert np.max(np.abs(back - v)) <= 1e-12 * scale
    assert np.sum(np.abs(coeffs.values) ** 2) == pytest.approx(
        np.sum(np.abs(v) ** 2), rel=1e-12
    )
    adjoint = np.vdot(v, inverse_tree_transform(TreeCoefficients(w, levels)))
    assert abs(np.vdot(coeffs.values, w) - adjoint) <= (
        1e-12 * np.linalg.norm(v) * np.linalg.norm(w)
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", [1.0, 1j], ids=["real", "complex"])
def test_tree_kernels_reject_non_finite_entries(bad, part):
    # one NaN or infinite entry (the imaginary part of a complex one)
    # makes the sum of all entries non-finite; the cascade runs first, and
    # an inf that meets inf - inf on its way warns of nothing
    v = np.ones(32) * part
    v[7] = bad * part
    with pytest.raises(InputError):
        fast_apply(params_for(5), v)
    with pytest.raises(InputError):
        tree_transform(v)
    with pytest.raises(InputError):
        inverse_tree_transform(TreeCoefficients(v, 5))


def test_tree_kernels_need_1d_input():
    grid = np.ones((2, 4))
    with pytest.raises(InputError):
        fast_apply(params_for(3), grid)
    with pytest.raises(InputError):
        tree_transform(grid)
    with pytest.raises(InputError):
        inverse_tree_transform(TreeCoefficients(grid, 3))


def test_coefficient_indexing_validation():
    # the inverse transform needs one slot per basis vector of its levels
    coeffs = tree_transform(delta_state(8))
    with pytest.raises(InputError):
        inverse_tree_transform(TreeCoefficients(coeffs.values, 4))
    with pytest.raises(InputError):
        inverse_tree_transform(TreeCoefficients(coeffs.values[:6], 3))


# ---------------------------------------------------------------------------
# dense evolution
# ---------------------------------------------------------------------------

def test_dense_evolve_identity_at_t0():
    params = params_for(4)
    initial = delta_state(16)
    evolved = dense_evolve_series(params, [0.0], initial)[0]
    assert np.max(np.abs(evolved - initial)) < 1e-14


def test_dense_evolve_four_site_closed_form():
    params = params_for(2)
    initial = delta_state(4)
    for t in (0.0, 0.9, 4.2, 17.0):
        evolved = dense_evolve_series(params, [t], initial)[0]
        assert np.max(np.abs(evolved - four_site_evolution(t, 1.0, 1.0))) < 1e-12


def test_dense_evolve_validation():
    params = params_for(3)
    bad = np.full(8, 0.5 + 0j)
    with pytest.raises(InputError):
        dense_evolve_series(params, [1.0], bad)
    # L = 8192 is over the dense cap: raised before the matrix is built
    with pytest.raises(ResourceLimitError):
        dense_evolve_series(params_for(13), [1.0], delta_state(1 << 13))
    with pytest.raises(InputError):
        dense_evolve_series(params_for(2), [1.0], delta_state(8))


# ---------------------------------------------------------------------------
# fast evolution
# ---------------------------------------------------------------------------

def test_fast_evolve_identity_and_dense_agreement():
    params = params_for(10)
    d = delta_state(1 << 10)
    assert np.max(np.abs(fast_evolve(params, 0.0, d) - d)) < 1e-14
    times = (1.0, 7.0, 42.0)
    dense = dense_evolve_series(params, times, d)
    for t, row in zip(times, dense):
        assert np.max(np.abs(fast_evolve(params, t, d) - row)) < 1e-10


def test_fast_evolve_series_matches_pointwise():
    params = params_for(6)
    d = delta_state(64)
    times = np.linspace(0.0, 9.0, 13)
    series = fast_evolve_series(params, times, d)
    dense = dense_evolve_series(params, times, d)
    assert np.max(np.abs(series - dense)) < 1e-10


def test_fast_evolve_large_chain_thermo_probabilities():
    params = params_for(20)
    d = delta_state(1 << 20)
    for t in (7.0, 100.0):
        v = fast_evolve(params, t, d)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-10
        for r in range(11):
            idx = 0 if r == 0 else 1 << (r - 1)
            weight = 1.0 if r == 0 else 2.0 ** (r - 1)
            fast_p = weight * abs(v[idx]) ** 2
            assert abs(fast_p - probability_thermo(r, t, 1.0, 1.0)) < 1e-6


def test_fast_evolve_unitarity_over_many_steps():
    params = params_for(16)
    state = delta_state(1 << 16)
    for _ in range(1000):
        state = fast_evolve(params, 0.05, state)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-10


@settings(max_examples=80, deadline=None)
@given(tree_params(),
       st.sampled_from([0.0, 1e4, 1e7]) | st.floats(0.0, 100.0),
       st.integers(0, 2**32 - 1))
def test_fast_evolve_matches_slot_phase_reference(params, t, seed):
    # the N+1 multiplet factors, repeated over the slots, are the per-slot
    # exponentials of the explicit slot layout times the exact slot scale
    # 2^(k-N-1) (2^-N in slot 0) bit for bit, and fast_evolve agrees with
    # the orthonormal transform, phase multiply and inverse
    rng = np.random.default_rng(seed)
    n, L = params.geom.levels, params.geom.length
    eps = eigenvalues(params)
    multiplet = np.array([slot.bit_length() for slot in range(L)])
    slot_scale = np.ldexp(1.0, np.where(multiplet == 0, -n, multiplet - n - 1))
    phases = np.exp(eigenvalue_slots(params) * (-1j * t))
    factors = oracle._evolution_factors(eps, oracle._multiplet_scale(n), t)
    assert np.array_equal(np.repeat(factors, np.diff(block_bounds(n))), phases * slot_scale)

    v = rng.normal(size=L) + 1j * rng.normal(size=L)
    v /= np.linalg.norm(v)
    rotated = TreeCoefficients(tree_transform(v).values * phases, n)
    expected = inverse_tree_transform(rotated)
    assert np.max(np.abs(fast_evolve(params, t, v) - expected)) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(tree_params(), st.lists(st.floats(0.0, 1e4), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
@example(ModelParams(TreeGeometry(17)), [0.5, 3.0, 3.0], 0)
def test_fast_evolve_series_rows_are_fast_evolve_calls(params, times, seed):
    # both entry points run one kernel, so the rows match to the bit
    rng = np.random.default_rng(seed)
    L = params.geom.length
    v = rng.normal(size=L) + 1j * rng.normal(size=L)
    v /= np.linalg.norm(v)
    series = fast_evolve_series(params, times, v)
    assert series.shape == (len(times), L)
    for t, row in zip(times, series):
        assert np.array_equal(row, fast_evolve(params, t, v))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t, scale, bad_entry", [
    (np.nan, 1.0, None),
    (np.inf, 1.0, None),
    (-np.inf, 1.0, None),
    (1.0, 3.0, None),
    (1.0, 1.0 + 1e-7, None),
    (1.0, 1.0, np.nan),
    (1.0, 1.0, np.inf),
], ids=["nan-time", "inf-time", "minus-inf-time", "norm-3", "norm-off-by-2e-7", "nan-entry",
        "inf-entry"])
def test_fast_evolve_input_contract(t, scale, bad_entry):
    # the dense route takes the same times and initial states
    params = params_for(4)
    v = delta_state(16) * scale
    if bad_entry is not None:
        v[5] = bad_entry
    with pytest.raises(InputError):
        fast_evolve(params, t, v)
    with pytest.raises(InputError):
        fast_evolve_series(params, [0.5, t], v)
    with pytest.raises(InputError):
        dense_evolve_series(params, [0.5, t], v)


@pytest.mark.parametrize("times", [[[1.0, 2.0]], 1.0, [[1.0], [2.0]]],
                         ids=["row", "scalar", "column"])
def test_fast_evolve_series_needs_a_1d_grid(times):
    with pytest.raises(InputError):
        fast_evolve_series(params_for(4), times, delta_state(16))
    with pytest.raises(InputError):
        dense_evolve_series(params_for(4), times, delta_state(16))


def test_fast_evolve_accepts_norm_within_tolerance():
    # the dense route's 1e-8 tolerance on the squared norm
    params = params_for(4)
    v = delta_state(16) * (1.0 + 4e-9)
    fast_evolve(params, 2.0, v)
    fast_evolve_series(params, [2.0], v)


@settings(max_examples=60, deadline=None)
@given(tree_params(), st.floats(0.0, 100.0), st.floats(0.0, 100.0),
       st.integers(0, 2**32 - 1))
def test_fast_evolve_composes(params, t1, t2, seed):
    # U(t1) U(t2) = U(t1 + t2); each phase exp(-i eps t) carries a rounding
    # of about |eps| t 2^-53, so the bound grows with the largest |eps| t
    rng = np.random.default_rng(seed)
    L = params.geom.length
    v = rng.normal(size=L) + 1j * rng.normal(size=L)
    v /= np.linalg.norm(v)
    composed = fast_evolve(params, t1, fast_evolve(params, t2, v))
    direct = fast_evolve(params, t1 + t2, v)
    phase_scale = np.max(np.abs(eigenvalues(params))) * (t1 + t2)
    assert np.max(np.abs(composed - direct)) <= 1e-13 + 1e-15 * phase_scale


def test_shell_constancy_of_evolved_delta():
    # permutation symmetry: the evolved delta is constant on every shell
    params = params_for(8, sigma=0.7)
    v = fast_evolve(params, 3.3, delta_state(1 << 8))
    for r in range(1, 9):
        block = v[1 << (r - 1) : 1 << r]
        assert np.max(np.abs(block - block[0])) < 1e-12


def test_scratch_store_holds_one_size_per_kernel():
    seen = {}

    def work():
        for levels in (6, 8, 10):
            fast_evolve(params_for(levels), 1.0, delta_state(1 << levels))
        seen.update(oracle._SCRATCH.store)

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    sizes = {kernel: [a.size for a in arrays] for (kernel, _), arrays in seen.items()}
    assert sizes == {"cascade": [1 << 9, 1 << 8], "coefficients": [1 << 10]}


def test_cascade_scratch_is_bounded_by_the_block():
    # above one block the sums run through block-sized buffers plus the
    # 2^b sums between the fine and the coarse levels, never through L/2
    levels = BLOCK + 2
    seen = {}

    def work():
        fast_evolve(params_for(levels), 1.0, delta_state(1 << levels))
        seen.update(oracle._SCRATCH.store)

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    sizes = {kernel: [a.size for a in arrays] for (kernel, _), arrays in seen.items()}
    block = 1 << BLOCK
    assert sizes == {"cascade": [block >> 1, block >> 2, block],
                     "coefficients": [1 << levels]}


@settings(max_examples=20, deadline=None)
@given(st.integers(1, BLOCK + 3), st.booleans(), st.integers(0, 2**32 - 1))
@example(BLOCK - 1, True, 0)
@example(BLOCK, False, 1)
@example(BLOCK + 1, True, 2)
@example(BLOCK + 2, False, 3)
def test_blocked_cascades_match_the_level_loop_to_the_bit(levels, complex_input, seed):
    # every element sees the adds, subtracts and multiplies of the
    # level-by-level loop, in the same order, whichever block it lies in
    rng = np.random.default_rng(seed)
    L = 1 << levels
    params = ModelParams(TreeGeometry(levels), level_couplings=rng.uniform(-5.0, 5.0, levels))
    scale = oracle._multiplet_scale(levels)
    eps = eigenvalues(params)
    v, w = rng.normal(size=(2, L))
    if complex_input:
        v, w = v + 1j * rng.normal(size=L), w + 1j * rng.normal(size=L)
    coeffs, expected = np.empty(L, v.dtype), np.empty(L, v.dtype)
    level_forward(v, coeffs)

    level_inverse(coeffs, eps * scale, expected)
    assert fast_apply(params, v).tobytes() == expected.tobytes()

    for k, root in enumerate(np.sqrt(scale)):
        start, stop = block_range(k)
        coeffs[start:stop] *= root
    assert tree_transform(v).values.tobytes() == coeffs.tobytes()
    level_inverse(w, np.sqrt(scale), expected)
    assert inverse_tree_transform(TreeCoefficients(w, levels)).tobytes() == expected.tobytes()

    u = v / np.linalg.norm(v) + 0j
    times = rng.uniform(0.0, 100.0, 2)
    series = fast_evolve_series(params, times, u)
    coeffs, row = np.empty(L, complex), np.empty(L, complex)
    level_forward(u, coeffs)
    for t, fast in zip(times.tolist(), series):
        level_inverse(coeffs, oracle._evolution_factors(eps, scale, t), row)
        assert fast.tobytes() == row.tobytes()
