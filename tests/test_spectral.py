import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdyson import (
    InputError,
    ModelParams,
    ResourceLimitError,
    SingularLimitError,
    TreeGeometry,
    build_hopping_matrix,
    build_spin_hamiltonian,
    delta_decomposition,
    eigenvalues,
    eigenvector,
    renormalized_coupling,
)
from hdyson.geometry import block_bounds

from reference import (
    cluster_distinct,
    coupling_sum_eigenvalue,
    ladder_coupling_from_gaps,
    level_sum_eigenvalues,
)


def params_for(levels, sigma=1.0, J=1.0, h=0.0):
    return ModelParams(TreeGeometry(levels), J=J, sigma=sigma, h=h)


def multiplicities(levels):
    # level k of the spectrum is multiplet k, block k of the tree layout
    return np.diff(block_bounds(levels))


def test_eigenvalues_n2_sigma1():
    eps = eigenvalues(params_for(2))
    dense = np.linalg.eigvalsh(build_hopping_matrix(params_for(2)))
    assert np.allclose(eps, [-1.5, -0.5, 1.0], atol=1e-14)
    assert np.allclose(np.sort(dense), [-1.5, -0.5, 1.0, 1.0], atol=1e-12)


def test_degeneracies():
    assert list(multiplicities(3)) == [1, 1, 2, 4]
    assert list(multiplicities(5)) == [1, 1, 2, 4, 8, 16]
    for n in range(1, 12):
        assert eigenvalues(params_for(n)).size == n + 1
        assert int(multiplicities(n).sum()) == 1 << n


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("levels", [1, 2, 4, 6])
def test_eigenvalues_match_coupling_sums(levels, sigma):
    eps = eigenvalues(params_for(levels, sigma=sigma, J=1.3))
    for k in range(levels + 1):
        expected = coupling_sum_eigenvalue(k, levels, sigma, 1.3)
        assert eps[k] == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_dense_spectrum_clusters(sigma):
    for levels in (2, 4, 6):
        params = params_for(levels, sigma=sigma)
        dense = np.linalg.eigvalsh(build_hopping_matrix(params))
        clusters = cluster_distinct(dense, 1e-9)
        eps = eigenvalues(params)
        assert len(clusters) == levels + 1
        for k, (value, count) in enumerate(clusters):
            assert count == multiplicities(levels)[k]
            assert value == pytest.approx(eps[k], abs=1e-10)


def test_ground_level_is_total_attraction():
    params = params_for(5, sigma=0.7, J=2.0)
    eps = eigenvalues(params)
    mat = build_hopping_matrix(params)
    row_sums = mat.sum(axis=1)
    assert np.allclose(row_sums, eps[0], atol=1e-12)


def test_spectrum_strictly_increasing():
    for sigma in (0.25, 1.0, 3.0):
        eps = eigenvalues(params_for(8, sigma=sigma))
        assert np.all(np.diff(eps) > 0)


def test_eigenvalues_sigma_zero_raises():
    with pytest.raises(SingularLimitError):
        eigenvalues(params_for(3, sigma=0.0))


def test_eigenvector_examples():
    geom = TreeGeometry(2)
    assert np.allclose(eigenvector(0, 1, geom), [0.5, 0.5, 0.5, 0.5])
    assert np.allclose(eigenvector(1, 1, geom), [0.5, 0.5, -0.5, -0.5])
    v = eigenvector(2, 1, geom)
    assert np.allclose(v, [2 ** -0.5, -(2 ** -0.5), 0.0, 0.0])
    mat = build_hopping_matrix(params_for(2))
    assert np.allclose(mat @ v.real, eigenvalues(params_for(2))[2] * v.real)


def test_eigenvector_action_all_members():
    for sigma in (0.5, 2.0):
        params = params_for(5, sigma=sigma)
        mat = build_hopping_matrix(params)
        eps = eigenvalues(params)
        for k in range(params.geom.levels + 1):
            for m in range(1, multiplicities(params.geom.levels)[k] + 1):
                v = eigenvector(k, m, params.geom).real
                assert abs(np.linalg.norm(v) - 1.0) < 1e-13
                assert np.max(np.abs(mat @ v - eps[k] * v)) < 1e-12


def test_eigenvectors_orthonormal_basis():
    geom = TreeGeometry(6)
    eps = eigenvalues(ModelParams(geom))
    vectors = [eigenvector(0, 1, geom).real]
    for k in range(1, geom.levels + 1):
        for m in range(1, multiplicities(geom.levels)[k] + 1):
            vectors.append(eigenvector(k, m, geom).real)
    basis = np.array(vectors)
    assert basis.shape == (geom.length, geom.length)
    gram = basis @ basis.T
    assert np.max(np.abs(gram - np.eye(geom.length))) < 1e-12


def test_multiplet_supports_disjoint():
    geom = TreeGeometry(4)
    eps = eigenvalues(ModelParams(geom))
    for k in range(2, geom.levels + 1):
        occupied = np.zeros(geom.length, dtype=int)
        for m in range(1, multiplicities(geom.levels)[k] + 1):
            occupied += eigenvector(k, m, geom).real != 0
        assert occupied.max() == 1


def test_descriptor_expand_matches_eigenvector():
    # member 2 of multiplet 2 at L = 8: +1/2 on sites 5..6, -1/2 on 7..8
    geom = TreeGeometry(3)
    expected = [0.0, 0.0, 0.0, 0.0, 0.5, 0.5, -0.5, -0.5]
    assert np.array_equal(eigenvector(2, 2, geom), expected)


def test_eigenvector_validation():
    geom = TreeGeometry(3)
    with pytest.raises(InputError):
        eigenvector(4, 1, geom)
    with pytest.raises(InputError):
        eigenvector(2, 3, geom)
    with pytest.raises(InputError):
        eigenvector(0, 2, geom)


def test_hopping_matrix_entries():
    assert np.allclose(build_hopping_matrix(params_for(1)), [[0, -1], [-1, 0]])
    mat = build_hopping_matrix(params_for(2))
    assert mat[0, 2] == pytest.approx(-0.25)  # J_1 = J / 2^(1+sigma)
    assert np.allclose(mat, mat.T)
    assert np.all(np.diag(mat) == 0)


def test_hopping_matrix_cap():
    with pytest.raises(ResourceLimitError):
        build_hopping_matrix(params_for(13))  # L = 8192, over the dense cap


def test_delta_decomposition():
    geom = TreeGeometry(6)
    terms = delta_decomposition(geom)
    assert len(terms) == 7
    assert sum(c * c for _, _, c in terms) == pytest.approx(1.0, abs=1e-14)
    assert all(m == 1 for _, m, _ in terms)
    geom8 = TreeGeometry(3)
    rebuilt = np.zeros(8)
    for k, m, coeff in delta_decomposition(geom8):
        rebuilt += coeff * eigenvector(k, m, geom8).real
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.max(np.abs(rebuilt - expected)) < 1e-14


def test_renormalized_coupling_values():
    assert renormalized_coupling(1.0, 1.0) == pytest.approx(3.0, abs=1e-15)
    assert renormalized_coupling(2.0, 1.0) == pytest.approx(7.0 / 3.0, abs=1e-15)
    assert renormalized_coupling(30.0, 1.0) == pytest.approx(2.0, abs=1e-8)
    # past sigma = 1023, where 2^(sigma + 1) overflows, the ratio is exactly 2
    assert renormalized_coupling(1022.0, 1.5) == 3.0
    assert renormalized_coupling(1023.0, 1.5) == renormalized_coupling(2000.0, 1.5) == 3.0
    with pytest.raises(SingularLimitError):
        renormalized_coupling(0.0, 1.0)


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_renormalized_coupling_against_dense_gaps(sigma):
    params = params_for(10, sigma=sigma)
    dense = np.linalg.eigvalsh(build_hopping_matrix(params))
    distinct = np.array([v for v, _ in cluster_distinct(dense, 1e-9)])
    fitted = ladder_coupling_from_gaps(distinct, sigma)
    assert fitted == pytest.approx(renormalized_coupling(sigma, 1.0), abs=1e-9)


def test_shifted_spectrum():
    # measured from the top of the band, the closed-form levels k >= 1 are
    # the geometric ladder Jt_sigma (2^(-sigma j) - 1), j = N - k
    for sigma in (0.5, 1.0, 2.0):
        for levels in (1, 4, 12, 40):
            eps = eigenvalues(params_for(levels, sigma=sigma, J=1.3))
            j = np.arange(levels)
            ladder = renormalized_coupling(sigma, 1.3) * (2.0 ** (-sigma * j) - 1.0)
            assert np.allclose(eps[levels - j] - eps[levels], ladder, rtol=0.0, atol=1e-12)


def test_shifted_spectrum_matches_finite_gaps():
    # eps_{N-k} - eps_N = Jt_sigma (2^(-sigma k) - 1) holds exactly at finite L
    params = params_for(12, sigma=1.0)
    dense = np.linalg.eigvalsh(build_hopping_matrix(params))
    distinct = np.array([v for v, _ in cluster_distinct(dense, 1e-8)])
    assert distinct.size == 13
    top = distinct[-1]
    for k in range(5):
        gap = distinct[12 - k] - top
        expected = renormalized_coupling(1.0, 1.0) * (2.0 ** -k - 1.0)
        assert gap == pytest.approx(expected, abs=1e-6)


def test_custom_level_couplings():
    geom = TreeGeometry(3)
    couplings = (0.9, 0.4, 0.2)
    params = ModelParams(geom, J=1.0, sigma=1.0, level_couplings=couplings)
    assert params.level_coupling(1) == 0.4
    dense = np.linalg.eigvalsh(build_hopping_matrix(params))
    eps = eigenvalues(params)
    clusters = cluster_distinct(dense, 1e-9)
    assert [count for _, count in clusters] == list(multiplicities(3))
    for k, (value, _) in enumerate(clusters):
        assert value == pytest.approx(eps[k], abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=39))
@example([-0.0])
@example([-0.0, 0.0])
def test_custom_couplings_match_level_sums_to_the_bit(couplings):
    # the cumsum runs left to right like the per-level Python sums, which
    # start from 0 and so turn a leading -0.0 into +0.0
    params = ModelParams(TreeGeometry(len(couplings)), level_couplings=couplings)
    expected = level_sum_eigenvalues(couplings)
    assert eigenvalues(params).tobytes() == expected.tobytes()


def test_model_params_validation():
    geom = TreeGeometry(2)
    with pytest.raises(InputError):
        ModelParams(geom, J=-1.0)
    with pytest.raises(InputError):
        ModelParams(geom, sigma=-0.5)
    with pytest.raises(InputError):
        ModelParams(geom, h=-2.0)
    with pytest.raises(InputError):
        ModelParams(geom, level_couplings=(1.0,))
    with pytest.raises(InputError):
        ModelParams(geom).level_coupling(2)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("key", ["J", "sigma", "h", "level_couplings"])
def test_model_params_reject_non_finite(key, value):
    kwargs = {key: (1.0, value) if key == "level_couplings" else value}
    with pytest.raises(InputError):
        ModelParams(TreeGeometry(2), **kwargs)


@pytest.mark.parametrize("params", [
    params_for(5, sigma=0.7, J=1.3),
    params_for(4, sigma=0.0, J=2.0),
    params_for(3, sigma=40.0),
    ModelParams(TreeGeometry(4), level_couplings=(1.0, -2.0, 0.5, 3.0), h=0.3),
], ids=["geometric", "sigma0", "steep", "profile"])
def test_spectral_bound_covers_every_energy(params):
    # the bounds are attained (the uniform mode, the all-up state), so a
    # dense eigensolver may exceed them by its rounding
    slack = 1.0 + 1e-12
    hopping = build_hopping_matrix(params)
    assert np.max(np.abs(np.linalg.eigvalsh(hopping))) <= params.spectral_bound() * slack
    if params.sigma > 0:
        assert np.max(np.abs(eigenvalues(params))) <= params.spectral_bound()
    # many body: h L plus the pair couplings, each pair once
    L = params.geom.length
    bound = params.spectral_bound(many_body=True)
    assert bound == pytest.approx(params.h * L + np.abs(hopping).sum() / 2, rel=1e-14)
    if L <= 8:
        spin = build_spin_hamiltonian(params).matrix.toarray()
        assert np.max(np.abs(np.linalg.eigvalsh(spin))) <= bound * slack


@pytest.mark.filterwarnings("error")
def test_spectral_bound_refuses_overflowing_energies():
    cases = [
        # the closed form's J / (1 - 2^-sigma) overflows, or divides by 0
        (params_for(4, sigma=0.01, J=1e308), False),
        (params_for(4, sigma=0.01, J=1e307), False),
        (params_for(4, sigma=1e-300), False),
        (ModelParams(TreeGeometry(3), level_couplings=(1e308, 1e308, 1e308)), False),
        # the Krylov step squares energies of 4e200 and 3e300
        (params_for(2, h=1e200), True),
        (params_for(2, J=1e300), True),
    ]
    for params, many_body in cases:
        with pytest.raises(ResourceLimitError):
            params.spectral_bound(many_body=many_body)
        if not many_body:
            with pytest.raises(ResourceLimitError):
                eigenvalues(params)
    # the same models at sizes whose bounds stay finite
    assert params_for(4, sigma=0.01, J=1e300).spectral_bound() < 1.5e302
    assert params_for(2, h=1e150).spectral_bound(many_body=True) == pytest.approx(4e150)
    assert params_for(2, h=1e200).spectral_bound() == pytest.approx(2.0)
