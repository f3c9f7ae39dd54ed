import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdyson import analytic
from hdyson import (
    InputError,
    ResourceLimitError,
    ModelParams,
    SingularLimitError,
    TreeGeometry,
    TruncationPolicy,
    WaveProfile,
    binary_entropy,
    closed_form_average,
    cumulative_probability,
    dense_evolve_series,
    estimate_dynamical_exponent,
    occupation,
    probability_thermo,
    psi_finite,
    psi_thermo,
    scaling_function,
    sigma_zero,
    sigma_zero_probability,
    single_particle_entropy,
    tail_average,
    tail_bound,
    time_average,
    wave_profile_finite,
    wave_profile_thermo,
)
from hdyson.profiles import (
    MAX_SHELL,
    collapse_sites_to_shells,
    expand_shells_to_sites,
    shell_sums,
)

from reference import (
    direct_return_series,
    finite_to_thermo_phase,
    per_z_dynamical_exponent,
    shell_loop_cumulative_probability,
)


def params_for(levels, sigma=1.0, J=1.0):
    return ModelParams(TreeGeometry(levels), J=J, sigma=sigma)


def delta_profile(length):
    amp = np.zeros(length, dtype=complex)
    amp[0] = 1.0
    return WaveProfile(amp, 0.0)


# ---------------------------------------------------------------------------
# finite chain
# ---------------------------------------------------------------------------

def test_psi_finite_initial_delta():
    params = params_for(4)
    assert psi_finite(0, 0.0, params) == pytest.approx(1.0)
    for r in range(1, 5):
        assert psi_finite(r, 0.0, params) == 0.0
    profile = wave_profile_finite(0.0, params)
    assert profile.amplitudes[0] == pytest.approx(1.0)
    assert np.max(np.abs(profile.amplitudes[1:])) == 0.0


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_psi_finite_matches_dense_evolution(sigma):
    params = params_for(6, sigma=sigma)
    for t in (0.7, 2.0, 13.5):
        evolved = dense_evolve_series(params, [t], delta_profile(64))[0]
        predicted = wave_profile_finite(t, params)
        assert np.max(np.abs(evolved - predicted.amplitudes)) < 1e-10


def test_psi_finite_unitarity():
    params = params_for(8, sigma=0.5)
    for t in (0.3, 5.0, 40.0):
        amplitudes = wave_profile_finite(t, params).amplitudes
        assert np.sum(occupation(0, amplitudes)) == pytest.approx(1.0, abs=1e-10)


def test_psi_finite_shell_index_validation():
    params = params_for(3)
    with pytest.raises(InputError):
        psi_finite(4, 1.0, params)
    with pytest.raises(InputError):
        psi_finite(-1, 1.0, params)


# ---------------------------------------------------------------------------
# thermodynamic limit
# ---------------------------------------------------------------------------

def test_psi_thermo_at_time_zero():
    policy = TruncationPolicy(40)
    value = psi_thermo(0, 0.0, 1.0, 1.0, policy)
    assert value == pytest.approx(1.0 - 2.0 ** -40, abs=1e-15)
    assert abs(scaling_function(0.0, 1.0, 1.0, policy)) <= 2.0 ** -40 + 1e-15


def test_psi_thermo_amplitude_bound():
    t = np.linspace(0.0, 200.0, 4001)
    for r in (1, 3, 8):
        assert np.max(np.abs(psi_thermo(r, t, 1.0, 1.0))) <= 2.0 ** (1 - r)


def test_psi_thermo_matches_finite_with_gauge():
    params = params_for(14)
    for r, t in [(0, 5.0), (2, 5.0), (5, 11.0)]:
        finite = psi_finite(r, t, params) * finite_to_thermo_phase(t, 1.0, 1.0)
        thermo = psi_thermo(r, t, 1.0, 1.0)
        assert abs(thermo - finite) < 1e-4


def test_psi_thermo_truncation_guarantee():
    t = np.linspace(0.0, 50.0, 501)
    short = psi_thermo(0, t, 1.0, 1.0, TruncationPolicy(20))
    long = psi_thermo(0, t, 1.0, 1.0, TruncationPolicy(40))
    assert np.max(np.abs(short - long)) <= 2.0 ** -20


def test_scaling_collapse_identity_is_exact():
    policy = TruncationPolicy(64)
    t = np.linspace(0.0, 30.0, 301)
    for sigma in (0.5, 1.0, 2.0):
        for r in range(1, 11):
            lhs = 2.0 ** r * psi_thermo(r, t, sigma, 1.0, policy)
            rhs = scaling_function(t * 2.0 ** (-sigma * r), sigma, 1.0, policy)
            assert np.max(np.abs(lhs - rhs)) <= 4.0 * 2.0 ** -64


def test_scaling_function_bounded():
    s = np.linspace(0.0, 100.0, 2001)
    assert np.max(np.abs(scaling_function(s, 1.0, 1.0))) <= 2.0


# Largest |_return_series - direct sum| measured over 1.5e7 points (the
# sigma and K below, |s| log-uniform in 1e-16..1e15): 8.9e-16, the direct
# sum's own rounding of up to K additions.  The bound leaves a factor of 2.
SERIES_AGREEMENT = 2e-15


def _laid_out(values: np.ndarray, shape: tuple, layout: str) -> np.ndarray:
    if layout == "strided" and shape:
        holder = np.zeros(shape[:-1] + (2 * shape[-1],))
        holder[..., ::2] = values.reshape(shape)
        return holder[..., ::2]
    if layout == "transposed":
        return values.reshape(shape[::-1]).T
    return values.reshape(shape)


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.sampled_from([analytic.SIGMA_NEAR_ZERO, 0.05, 0.5, 1.0, 2.0, 4.0]),
    K=st.sampled_from([1, 2, 7, 64, 1074]),
    special=st.lists(
        st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e15, -1e15])
        | st.floats(-1e15, 1e15),
        min_size=1, max_size=12,
    ),
    scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e3, 1e15]),
    # block boundaries +-1 (blocks of 2^12 points), 0-d and 2-d
    shape=st.sampled_from([(), (1,), (4095,), (4096,), (4097,), (8191,), (8192,),
                           (8193,), (64, 64), (3, 1365), (2, 4097)]),
    layout=st.sampled_from(["contiguous", "strided", "transposed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_return_series_matches_direct_sum(sigma, K, special, scale, shape, layout, seed):
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    values = np.where(rng.random(size) < 0.5, rng.choice(special, size),
                      scale * rng.uniform(-1.0, 1.0, size))
    s = _laid_out(values, shape, layout)
    policy = TruncationPolicy(K)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning, underflowed rates included
        got = analytic._return_series(s, sigma, 1.0, policy)
    want = direct_return_series(s, sigma, 1.0, policy)
    assert got.shape == want.shape == s.shape
    assert np.max(np.abs(got - want), initial=0.0) <= SERIES_AGREEMENT


@pytest.mark.parametrize("K", [1, 64, 1074])
@pytest.mark.parametrize("sigma", [analytic.SIGMA_NEAR_ZERO, 1.0, 4.0])
def test_return_series_propagates_nan(sigma, K):
    s = np.array([np.nan, np.inf, -np.inf, 0.5, 0.0])
    policy = TruncationPolicy(K)
    with np.errstate(invalid="ignore"):  # the direct sum warns on these too
        got = analytic._return_series(s, sigma, 1.0, policy)
        want = direct_return_series(s, sigma, 1.0, policy)
    assert np.all(np.isnan(got[:3])) and np.all(np.isnan(want[:3]))
    assert np.max(np.abs(got[3:] - want[3:])) <= SERIES_AGREEMENT


@pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0, 2.0, 3.7])
def test_psi_thermo_is_elementwise_to_the_bit(sigma):
    # an element's value may not depend on its block, position or neighbours:
    # the collapse gates compare psi_thermo and scaling_function bitwise
    rng = np.random.default_rng(17)
    t = np.concatenate([[0.0, 1e-300, 1e15], rng.uniform(0.0, 60.0, 3000),
                        10.0 ** rng.uniform(-9.0, 9.0, 3001)])  # two blocks
    for r in (0, 3):
        base = psi_thermo(r, t, sigma)
        perm = rng.permutation(t.size)
        assert psi_thermo(r, t[perm], sigma).tobytes() == base[perm].tobytes()
        holder = np.zeros(2 * t.size)
        holder[::2] = t
        strided = holder[::2].reshape(2, t.size // 2)  # a non-contiguous view
        assert not strided.flags.c_contiguous
        assert psi_thermo(r, strided, sigma).tobytes() == base.tobytes()
        picks = rng.choice(t.size, 150, replace=False)
        scalars = np.array([psi_thermo(r, float(t[i]), sigma) for i in picks])
        assert scalars.tobytes() == base[picks].tobytes()


def test_sigma_guards():
    with pytest.raises(SingularLimitError):
        psi_thermo(0, 1.0, 0.0, 1.0)
    with pytest.raises(SingularLimitError):
        scaling_function(1.0, 0.0, 1.0)
    with pytest.raises(SingularLimitError):
        scaling_function(1.0, 1e-9, 1.0)
    with pytest.warns(UserWarning):
        rerouted = psi_thermo(0, 1.3, 1e-9, 1.0)
    assert rerouted == pytest.approx(sigma_zero(0, 1.3, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    lambda s, J: psi_thermo(1, 1.0, s, J),
    lambda s, J: psi_thermo(0, [1.0, 2.0], s, J),
    lambda s, J: scaling_function(1.0, s, J),
    lambda s, J: probability_thermo(1, 1.0, s, J),
    lambda s, J: wave_profile_thermo(1.0, s, J),
    lambda s, J: time_average(1, 10.0, s, J),
], ids=["psi_thermo", "psi_thermo_array", "scaling_function", "probability_thermo",
        "wave_profile_thermo", "time_average"])
def test_thermo_entry_points_reject_non_finite_sigma_and_J(call, bad):
    with pytest.raises(InputError):
        call(bad, 1.0)
    with pytest.raises(InputError):
        call(1.0, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sigma_zero_rejects_non_finite_J(bad):
    with pytest.raises(InputError):
        sigma_zero(1, 1.0, J=bad)
    with pytest.raises(InputError):
        sigma_zero_probability(0, [1.0, 2.0], J=bad)


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.floats(0.05, 3.0), st.floats(0.0, 5.0),
       st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8))
def test_probability_initial_and_normalized(levels, sigma, J, times):
    # sum_r P(r, t) = 1 from psi_finite, for every N, sigma, J and t
    params = params_for(levels, sigma=sigma, J=J)
    assert occupation(0, psi_finite(0, 0.0, params)) == pytest.approx(1.0)
    for r in range(1, levels + 1):
        assert occupation(r, psi_finite(r, 0.0, params)) == 0.0
    t = np.asarray(times)
    total = sum(occupation(r, psi_finite(r, t, params)) for r in range(levels + 1))
    assert np.max(np.abs(total - 1.0)) <= 1e-10


def test_probability_from_profiles():
    # P(r) of a site profile is the shell sum of |psi(x)|^2, of a shell
    # profile the weighted |psi(r)|^2
    params = params_for(5)
    t = 3.2
    site_profile = wave_profile_finite(t, params)
    shell_values = collapse_sites_to_shells(site_profile.amplitudes, params.geom)
    from_sites = shell_sums(occupation(0, site_profile.amplitudes), params.geom)
    from_shells = occupation(np.arange(6), shell_values)
    for r in range(6):
        direct = occupation(r, psi_finite(r, t, params))
        assert from_sites[r] == pytest.approx(direct, abs=1e-14)
        assert from_shells[r] == pytest.approx(direct, abs=1e-14)


def test_profile_time_must_match_exactly():
    # a late profile answers for its own time only: P(2) moves by 5.9e-5
    # between t = 1e6 and 1e6 + 5e-4
    late = wave_profile_thermo(1e6, 1.0, 1.0)
    assert single_particle_entropy(4, 1e6, late) >= 0.0
    with pytest.raises(InputError):
        single_particle_entropy(4, 1e6 + 5e-4, late)
    profile = wave_profile_finite(1.0, params_for(3))
    with pytest.raises(InputError):
        single_particle_entropy(2, 1.0 + 2.0 ** -52, profile)


def test_occupation_weights_and_validation():
    amp = np.array([0.5, 0.5j, -0.25, 0.125 + 0.125j])
    weights = np.array([1.0, 1.0, 2.0, 4.0])
    assert np.array_equal(occupation(np.arange(4), amp), weights * np.abs(amp) ** 2)
    assert np.array_equal(occupation(0, amp), np.abs(amp) ** 2)
    grid = occupation(np.arange(4)[:, None], np.tile(amp[:, None], (1, 3)))
    assert grid.shape == (4, 3) and np.array_equal(grid[:, 2], weights * np.abs(amp) ** 2)
    assert occupation(1023, 2.0 ** -511) == 1.0  # weight 2^1022 stays a float
    assert MAX_SHELL == 1023
    for r in (MAX_SHELL + 1, [0, 1030]):
        with pytest.raises(ResourceLimitError):
            occupation(r, 0.5)
    with pytest.raises(ResourceLimitError):  # was NaN: weight inf, |psi|^2 0
        probability_thermo(1030, 1.0, 1.0)
    for r in (-1, 1.0, [0, -2], True):
        with pytest.raises(InputError):
            occupation(r, amp[:1])
    with pytest.raises(InputError):
        occupation(np.arange(3), amp)  # shapes do not broadcast


def test_wave_profile_thermo_caps_r_max(monkeypatch):
    # refused before the loop: not one psi_thermo call past the cap
    calls = []
    monkeypatch.setattr(analytic, "psi_thermo", lambda *args: calls.append(args))
    with pytest.raises(ResourceLimitError):
        wave_profile_thermo(1.0, 1.0, 1.0, r_max=MAX_SHELL + 1)
    assert calls == []
    monkeypatch.undo()
    profile = wave_profile_thermo(1.0, 1.0, 1.0, r_max=MAX_SHELL)
    assert profile.amplitudes.shape == (MAX_SHELL + 1,)


def test_probability_profile_totals():
    thermo = wave_profile_thermo(4.0, 1.0, 1.0, r_max=30)
    total = np.sum(occupation(np.arange(31), thermo.amplitudes))
    assert total == pytest.approx(1.0, abs=1e-8)
    params = params_for(6)
    finite = wave_profile_finite(4.0, params)
    shells = shell_sums(occupation(0, finite.amplitudes), params.geom)
    assert np.sum(shells) == pytest.approx(1.0, abs=1e-12)


def test_probability_peak_bound_shell5():
    t = np.arange(0.0, 500.0, 0.01)
    peak = np.max(probability_thermo(5, t, 1.0, 1.0))
    assert peak < 2.0 ** -4  # strict bound 2^(1-r) |F/2|^2 < 2^(1-5)


# ---------------------------------------------------------------------------
# time averages, tails, bounds
# ---------------------------------------------------------------------------

def test_closed_form_averages():
    assert closed_form_average(0) == pytest.approx(1.0 / 3.0)
    assert closed_form_average(1) == pytest.approx(1.0 / 3.0)
    assert closed_form_average(3) == pytest.approx(1.0 / 12.0)
    total = sum(closed_form_average(r) for r in range(60))
    assert total == pytest.approx(1.0, abs=1e-15)


def test_tail_values():
    assert tail_average(1) == pytest.approx(1.0 / 3.0)
    assert tail_average(3) == pytest.approx(2.0 ** -2 / 3.0)
    assert tail_bound(0) == pytest.approx(2.0)
    assert tail_bound(5) == pytest.approx(2.0 ** -4)


def test_time_average_converges():
    for r in (0, 1, 2):
        horizon = 100.0 * 2.0 ** r
        value = time_average(r, horizon, 1.0, 1.0)
        target = closed_form_average(r)
        assert abs(value - target) <= 0.02 * target
    with pytest.raises(InputError):
        time_average(0, -1.0, 1.0, 1.0)


def test_tail_probability_bound_numeric():
    t = np.arange(0.0, 300.0, 0.05)
    totals = {R: np.zeros_like(t) for R in (2, 4)}
    for r in range(3, 21):
        values = probability_thermo(r, t, 1.0, 1.0)
        for R in totals:
            if r > R:
                totals[R] += values
    for R, acc in totals.items():
        assert np.max(acc) <= 2.0 ** (1 - R)


@settings(max_examples=40, deadline=None)
@given(sigma=st.floats(0.3, 3.0), R=st.integers(0, 8),
       times=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20))
def test_tail_bound_holds_for_series(sigma, R, times):
    # sum_{r > R} 2^(r-1) |psi(r, t)|^2 <= 2^(1-R), shells up to r = 20
    t = np.asarray(times)
    tail = sum(probability_thermo(r, t, sigma) for r in range(R + 1, 21))
    assert np.max(tail) <= tail_bound(R)


# ---------------------------------------------------------------------------
# sigma -> 0
# ---------------------------------------------------------------------------

def test_sigma_zero_closed_forms():
    assert sigma_zero_probability(0, 0.0) == pytest.approx(1.0)
    assert sigma_zero_probability(4, 0.0) == pytest.approx(0.0)
    assert sigma_zero_probability(0, np.pi) == pytest.approx(1.0 / 9.0)
    t = np.linspace(0.0, 4 * np.pi, 500)
    total = sigma_zero_probability(0, t) + sum(
        sigma_zero_probability(r, t) for r in range(1, 64)
    )
    assert np.max(np.abs(total - 1.0)) < 1e-12
    for r in (0, 2):
        assert np.allclose(
            np.abs(sigma_zero(r, t)) ** 2 * (1.0 if r == 0 else 2.0 ** (r - 1)),
            sigma_zero_probability(r, t),
            atol=1e-14,
        )


def test_sigma_zero_periodicity():
    t = np.linspace(0.0, 2 * np.pi, 200)
    diff = sigma_zero_probability(0, t + 2 * np.pi) - sigma_zero_probability(0, t)
    assert np.max(np.abs(diff)) < 1e-12


def test_sigma_zero_matches_small_sigma_series():
    policy = TruncationPolicy(512)
    t = np.linspace(0.0, 4 * np.pi, 400)
    for r in range(6):
        series = probability_thermo(r, t, 1e-5, 1.0, policy)
        closed = sigma_zero_probability(r, t)
        assert np.max(np.abs(series - closed)) < 1e-3


# ---------------------------------------------------------------------------
# entanglement of the single defect
# ---------------------------------------------------------------------------

def test_binary_entropy_special_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(np.log(2.0))
    assert isinstance(binary_entropy(0.3), float)
    p = np.array([-0.1, 0.0, 0.2, 0.5, 0.9, 1.0, 1.5])
    values = binary_entropy(p)
    assert values.shape == p.shape
    assert np.array_equal(values, [binary_entropy(q) for q in p])
    assert values[0] == values[1] == values[-1] == 0.0  # clipped to [0, 1]
    with pytest.raises(InputError):
        binary_entropy(np.nan)
    with pytest.raises(InputError):
        binary_entropy([0.2, np.nan])


def test_entropy_zero_at_t0():
    profile = wave_profile_thermo(0.0, 1.0, 1.0)
    for x in (1, 4, 100):
        assert single_particle_entropy(x, 0.0, profile) == pytest.approx(0.0, abs=1e-12)


def test_cumulative_probability_shell_vs_site():
    params = params_for(6)
    t = 4.4
    site_profile = wave_profile_finite(t, params)
    shells = collapse_sites_to_shells(site_profile.amplitudes, params.geom)
    shell_profile = WaveProfile(shells, t, "shell")
    for x in (1, 2, 3, 5, 17, 63, 64):
        a = cumulative_probability(site_profile, x)
        b = cumulative_probability(shell_profile, x)
        assert a == pytest.approx(b, abs=1e-13)
    for levels, t in ((3, 0.5), (8, 4.4), (10, 30.0)):
        params = params_for(levels)
        site_profile = wave_profile_finite(t, params)
        shells = collapse_sites_to_shells(site_profile.amplitudes, params.geom)
        cuts = np.arange(1, params.geom.length + 1)
        a = cumulative_probability(site_profile, cuts)
        b = cumulative_probability(WaveProfile(shells, t, "shell"), cuts)
        assert np.max(np.abs(a - b)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.floats(0.0, 200.0), st.booleans())
@example(8, 21.34782568821883, True)  # |psi|^2 by libm pow misrounded one cut
def test_cuts_are_elementwise_to_the_bit(levels, t, shell_mode):
    # an array of cuts gives the per-cut scalar calls; shell mode also gives
    # the one-shell-at-a-time loop
    site_profile = wave_profile_finite(t, params_for(levels))
    L = site_profile.length
    if shell_mode:
        shells = collapse_sites_to_shells(site_profile.amplitudes, TreeGeometry(levels))
        profile = WaveProfile(shells, t, "shell")
        cuts = np.arange(1, 2 * L + 3)  # past the profile: all of it
        loop = [shell_loop_cumulative_probability(shells, int(x)) for x in cuts]
        assert cumulative_probability(profile, cuts).tobytes() == np.array(loop).tobytes()
    else:
        profile = site_profile
        cuts = np.arange(1, L)
    cum = cumulative_probability(profile, cuts)
    per_cut = [cumulative_probability(profile, int(x)) for x in cuts]
    assert all(isinstance(value, float) for value in per_cut)
    assert cum.tobytes() == np.array(per_cut).tobytes()
    entropy = single_particle_entropy(cuts, t, profile)
    per_cut = [single_particle_entropy(int(x), t, profile) for x in cuts]
    assert entropy.tobytes() == np.array(per_cut).tobytes()
    grid = cuts[: cuts.size // 2 * 2].reshape(2, -1)
    assert np.array_equal(cumulative_probability(profile, grid), cum[: grid.size].reshape(2, -1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
       st.integers(0, 40), st.floats(0.05, 3.0), st.floats(0.0, 1.0))
def test_scalar_calls_equal_array_elements_to_the_bit(times, r, sigma, p):
    # a scalar argument takes numpy's scalar path (libm `pow` for `** 2`);
    # it must round as the same element of an array does
    t = np.array(times)
    probe = np.array([p, 1.0 - p, p / 3.0])
    rng = np.random.default_rng(len(times))
    amplitudes = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
    calls = [
        (lambda x: occupation(r, x), amplitudes),
        (lambda x: probability_thermo(r, x, sigma), t),
        (lambda x: sigma_zero(r, x), t),
        (lambda x: sigma_zero_probability(r, x), t),
        (binary_entropy, probe),
    ]
    for call, values in calls:
        array = np.asarray(call(values))
        for i, value in enumerate(values):
            assert np.asarray(call(value)).tobytes() == array[i].tobytes()


def test_entropy_decays_with_cut_position():
    profile = wave_profile_thermo(5.0, 1.0, 1.0, r_max=24)
    values = [single_particle_entropy(1 << r, 5.0, profile) for r in range(3, 11)]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_entropy_input_validation():
    params = params_for(3)
    profile = wave_profile_finite(1.0, params)
    with pytest.raises(InputError):
        single_particle_entropy(8, 1.0, profile)  # cut must leave both sides
    with pytest.raises(InputError):
        single_particle_entropy(2, 2.0, profile)  # time mismatch
    with pytest.raises(InputError):
        cumulative_probability(profile, 0)
    with pytest.raises(InputError):
        cumulative_probability(profile, 9)  # past the chain
    with pytest.raises(InputError):
        cumulative_probability(profile, 2.5)
    with pytest.raises(InputError):
        cumulative_probability(profile, np.array([2.0, 3.0]))
    with pytest.raises(InputError):
        single_particle_entropy(np.array([1, 8]), 1.0, profile)
    with pytest.raises(InputError):
        single_particle_entropy(2, [1.0], profile)  # one time per profile
    shells = WaveProfile(profile.amplitudes[[0, 1, 2, 4]], 1.0, "shell")
    for cut in (0, 2.5, [3, -1], 2**70):
        with pytest.raises(InputError):
            cumulative_probability(shells, cut)


# ---------------------------------------------------------------------------
# profiles plumbing
# ---------------------------------------------------------------------------

def test_expand_collapse_roundtrip():
    geom = TreeGeometry(4)
    shells = np.arange(5.0)
    sites = expand_shells_to_sites(shells, geom)
    assert sites.size == 16
    assert np.allclose(collapse_sites_to_shells(sites, geom), shells)
    with pytest.raises(InputError):
        expand_shells_to_sites(np.arange(4.0), geom)
    with pytest.raises(InputError):
        WaveProfile(np.zeros(6, dtype=complex), 0.0)  # not a power of two
    with pytest.raises(InputError):
        WaveProfile(np.zeros(4, dtype=complex), 0.0, "weird")
    with pytest.raises(InputError):
        WaveProfile(np.zeros(0, dtype=complex), 0.0, "shell")  # no shell 0


# ---------------------------------------------------------------------------
# dynamical exponent
# ---------------------------------------------------------------------------

def test_estimate_dynamical_exponent_blind():
    policy = TruncationPolicy(64)
    s_grid = np.linspace(0.0, 6.0, 41)[1:]
    fn = lambda r, t: psi_thermo(r, t, 1.0, 1.0, policy)
    z = estimate_dynamical_exponent(fn, range(1, 7), s_grid, scan=1501)
    assert abs(z - 1.0) <= 0.02
    with pytest.raises(InputError):
        estimate_dynamical_exponent(fn, [2], s_grid)


def _time_rows_by_shell(psi_fn, log):
    """Wrap psi_fn so that `log[r]` collects every time row it is handed."""

    def recording(r, t):
        log.setdefault(r, []).extend(np.atleast_2d(t))
        return psi_fn(r, t)

    return recording


@settings(max_examples=30, deadline=None)
@given(
    sigma=st.floats(0.3, 2.5),
    shells=st.sets(st.integers(0, 10), min_size=2, max_size=8),
    s_grid=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=80),
    scan=st.integers(2, 400),
    refine=st.integers(0, 12),
    finite=st.booleans(),
    block=st.sampled_from([analytic._SCAN_BLOCK_POINTS, 1, 97]),
)
def test_batched_exponent_scan_matches_per_z_reference(
    sigma, shells, s_grid, scan, refine, finite, block
):
    if finite:
        params = params_for(10, sigma=sigma)
        fn = lambda r, t: psi_finite(r, t, params)
    else:
        fn = lambda r, t: psi_thermo(r, t, sigma)
    batched, per_z = {}, {}
    with mock.patch.object(analytic, "_SCAN_BLOCK_POINTS", block):
        z = estimate_dynamical_exponent(
            _time_rows_by_shell(fn, batched), shells, s_grid, scan=scan, refine=refine
        )
    assert z == per_z_dynamical_exponent(
        _time_rows_by_shell(fn, per_z), shells, s_grid, scan=scan, refine=refine
    )
    # every trial time array, scan rows included, is the reference's to the bit
    assert batched.keys() == per_z.keys()
    for r in per_z:
        assert np.array_equal(np.array(batched[r]), np.array(per_z[r]))


def test_exponent_scan_makes_one_call_per_shell():
    shapes = []

    def fn(r, t):
        shapes.append(np.shape(t))
        return psi_thermo(r, t, 1.0)

    s_grid = np.linspace(0.0, 6.0, 61)[1:]
    estimate_dynamical_exponent(fn, range(1, 5), s_grid, scan=301, refine=7)
    # one scan call and 2 + refine golden-section spreads, each over 4 shells
    assert len(shapes) == 4 * (3 + 7)
    assert shapes[:4] == [(301, 60)] * 4
    assert shapes[4:] == [(1, 60)] * (4 * 9)


def test_exponent_scan_rejects_overflowing_scales():
    calls = []

    def fn(r, t):
        calls.append(r)
        return psi_thermo(r, t, 1.0)

    s_grid = np.linspace(0.0, 6.0, 61)[1:]
    # 2^(6 * 170) is finite, 2^(6 * 171) is not; 2^1024 is not, whatever z_max
    estimate_dynamical_exponent(fn, [1, 170], s_grid, scan=3, refine=0)
    calls.clear()
    for r_values, z_max in (([1, 171], 6.0), ([1, 1024], 0.5)):
        with pytest.raises(ResourceLimitError):
            estimate_dynamical_exponent(fn, r_values, s_grid, z_max=z_max)
    assert calls == []


@pytest.mark.parametrize("kwargs", [
    {"scan": 1}, {"scan": 0}, {"refine": -1},
    {"z_min": 0.0}, {"z_min": -1.0}, {"z_min": float("nan")},
    {"z_max": 0.1}, {"z_max": 0.05}, {"z_max": float("inf")},
    {"s_grid": []}, {"s_grid": [1.0, float("nan")]}, {"s_grid": [float("inf")]},
])
def test_estimate_dynamical_exponent_validation(kwargs):
    calls = []

    def fn(r, t):
        calls.append(r)
        return psi_thermo(r, t, 1.0)

    kwargs = dict(kwargs)
    s_grid = kwargs.pop("s_grid", np.linspace(0.1, 6.0, 20))
    with pytest.raises(InputError):
        estimate_dynamical_exponent(fn, range(1, 4), s_grid, **kwargs)
    assert calls == []


def test_truncation_policy_cap():
    # 2^(-k-1) is exactly zero from k = 1074 on, so K = 1074 is the longest series
    assert TruncationPolicy(1074).tail_bound == 2.0 ** -1074
    with pytest.raises(ResourceLimitError):
        TruncationPolicy(1075)
    with pytest.raises(ResourceLimitError):
        time_average(0, 1e9, 1.0, dt=1e-6)
