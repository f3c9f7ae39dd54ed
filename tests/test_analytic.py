import math
import warnings
from fractions import Fraction
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
    single_particle_entropy,
    tail_average,
    tail_bound,
    time_average,
    wave_profile_finite,
    wave_profile_thermo,
)
from hdyson.geometry import (
    MAX_SHELL,
    collapse_sites_to_shells,
    expand_shells_to_sites,
    shell_sums,
)

from reference import (
    composed_psi_thermo,
    composed_scaling_function,
    direct_return_series,
    finite_to_thermo_phase,
    per_z_dynamical_exponent,
    shell_loop_cumulative_probability,
    sigma_zero_probability,
    site_cumulative_probability,
    trapezoid_time_average,
)


def params_for(levels, sigma=1.0, J=1.0):
    return ModelParams(TreeGeometry(levels), J=J, sigma=sigma)


def delta_state(length):
    amp = np.zeros(length, dtype=complex)
    amp[0] = 1.0
    return amp


# ---------------------------------------------------------------------------
# finite chain
# ---------------------------------------------------------------------------

def test_psi_finite_initial_delta():
    params = params_for(4)
    assert psi_finite(0, 0.0, params) == pytest.approx(1.0)
    for r in range(1, 5):
        assert psi_finite(r, 0.0, params) == 0.0
    profile = wave_profile_finite(0.0, params)
    assert profile[0] == pytest.approx(1.0)
    assert np.max(np.abs(profile[1:])) == 0.0


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_psi_finite_matches_dense_evolution(sigma):
    params = params_for(6, sigma=sigma)
    for t in (0.7, 2.0, 13.5):
        evolved = dense_evolve_series(params, [t], delta_state(64))[0]
        predicted = expand_shells_to_sites(wave_profile_finite(t, params), params.geom)
        assert np.max(np.abs(evolved - predicted)) < 1e-10


def test_psi_finite_unitarity():
    params = params_for(8, sigma=0.5)
    for t in (0.3, 5.0, 40.0):
        amplitudes = expand_shells_to_sites(wave_profile_finite(t, params), params.geom)
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


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(0, 40) | st.sampled_from([537, 1023]),
    sigma=st.sampled_from([analytic.SIGMA_NEAR_ZERO, 0.05, 0.5, 1.0, 2.0, 4.0]),
    J=st.sampled_from([1.0, -0.5, 2.5]),
    K=st.sampled_from([1, 7, 64, 1074]),
    special=st.lists(
        st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e15])
        | st.floats(-1e6, 1e6),
        min_size=1, max_size=12,
    ),
    shape=st.sampled_from([(), (1,), (4095,), (4097,), (64, 64), (3, 1365)]),
    layout=st.sampled_from(["contiguous", "strided", "transposed"]),
    seed=st.integers(0, 2**32 - 1),
)
# one time point whose 2^-r scaling underflows its imaginary part to -0:
# the library's in-place scaling of a one-point block, and the reference's
# scalar arithmetic on a 0-d t, gave +0
@example(r=537, sigma=1.0, J=-0.5, K=64, special=[0.0], shape=(1,), layout="contiguous",
         seed=0)
@example(r=27, sigma=2.0, J=-0.5, K=64, special=[1e-300], shape=(), layout="contiguous",
         seed=2)
def test_shell_steps_keep_the_composed_bytes(r, sigma, J, K, special, shape, layout, seed):
    # the time scaling, closing term and 2^-r run per block inside the
    # series; each stays the same elementwise operation as the whole-array
    # composition it replaced, so every value keeps its bits
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    values = np.where(rng.random(size) < 0.5, rng.choice(special, size),
                      10.0 ** rng.uniform(-3.0, 4.0, size))
    t = _laid_out(values, shape, layout)
    policy = TruncationPolicy(K)
    with np.errstate(invalid="ignore"):  # NaN and inf times warn on both sides
        pairs = [(psi_thermo(r, t, sigma, J, policy),
                  composed_psi_thermo(r, t, sigma, J, policy)),
                 (scaling_function(t, sigma, J, policy),
                  composed_scaling_function(t, sigma, J, policy))]
        if not shape:  # a Python float as well as a 0-d array
            pairs += [(psi_thermo(r, float(t), sigma, J, policy),
                       composed_psi_thermo(r, float(t), sigma, J, policy)),
                      (scaling_function(float(t), sigma, J, policy),
                       composed_scaling_function(float(t), sigma, J, policy))]
    for got, want in pairs:
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# Largest |time_average / trapezoid_time_average - 1| measured over 20,000
# draws of the strategy below: 5.1e-13, at a single step (no averaging)
# with mode phases near 3e3 rad; the median was 2e-16.  Over 20,000 draws
# of its hardest corner (sigma in {2, 4}, reach in [10, 100], 1 to 4
# steps) time_average is within 8e-15 of a 40-digit sum over the same
# grid, and the sampled side, which rounds each phase near 3e3 rad, is
# 1.2e-12 off in one draw and over 5e-13 in seven.
AVERAGE_AGREEMENT = 1e-12


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(0, 12),
    sigma=st.sampled_from([1e-7, 0.05, 0.5, 1.0, 2.0, 4.0]),
    J=st.sampled_from([0.5, 1.0, 2.5]),
    K=st.sampled_from([1, 7, 64]),
    # T = reach 2^(sigma r) / J: shells not yet reached for reach << 1
    reach=st.floats(-4.0, 2.0).map(lambda u: 10.0 ** u),
    # few steps put (f_m - f_l) dt / 2 past pi for the fast pairs; the
    # examples' None is the default dt
    steps=st.integers(1, 3000),
)
# the pair sum alone missed these unreached shells by 1.9e-9 and 4.0e-5
@example(r=20, sigma=1.0, J=1.0, K=64, reach=100.0 / 2.0 ** 20, steps=None)
@example(r=12, sigma=2.0, J=1.0, K=64, reach=10.0 / 2.0 ** 24, steps=None)
@example(r=1, sigma=4.0, J=2.5, K=64, reach=100.0, steps=1)
# dt = 4 pi / c: the pairs of the modes c 2^(1-k), k <= 1, alias to x near 2 pi
@example(r=1, sigma=1.0, J=1.0, K=64, reach=20.0 * math.pi / 3.0, steps=10)
# one step 8.2e-4 past ten sigma = 0 periods: reduced by a rounded period
# 2 pi / J, the step was off by 6e-12
@example(r=1, sigma=1e-7, J=0.5, K=1, reach=62.832671802171525, steps=1)
# a closing-mode phase of 3.1e3 rad rounded once in the pair sum: 1.4e-12
@example(r=1, sigma=4.0, J=2.5, K=7, reach=94.0354983014081, steps=1)
def test_time_average_matches_trapezoid_sampling(r, sigma, J, K, reach, steps):
    T = reach * 2.0 ** (sigma * r) / J
    dt = None if steps is None else T / steps
    policy = TruncationPolicy(K)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # sigma -> 0 reroutes
        want = trapezoid_time_average(r, T, sigma, J, policy, dt=dt)
    if sigma < analytic.SIGMA_NEAR_ZERO:
        with pytest.warns(UserWarning, match="closed form"):
            got = time_average(r, T, sigma, J, policy, dt=dt)
    else:
        got = time_average(r, T, sigma, J, policy, dt=dt)
    assert type(got) is float
    assert abs(got - want) <= AVERAGE_AGREEMENT * want


@pytest.mark.parametrize("J, r", [(1.0, 1), (2.5, 3)])
@pytest.mark.parametrize("steps", [10, 1000])
def test_time_average_on_an_aliased_sigma_zero_grid(J, r, steps):
    # at sigma -> 0, P(r, t) has period 2 pi / J: a step 1e-9 off the period
    # samples only times near multiples of it, where P is about 1e-15, so
    # the phases must come from the step reduced modulo the period (the
    # pair sum alone was off by 100%); both sides round 2 pi / J, a
    # relative 1e-7 of the reduced step
    dt = 2.0 * math.pi / J * (1.0 + 1e-9)
    T = steps * dt
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        want = trapezoid_time_average(r, T, 1e-7, J, dt=dt)
        got = time_average(r, T, 1e-7, J, dt=dt)
    assert want < 1e-8
    assert abs(got - want) <= 1e-6 * want


def test_power_means_match_exact_sums():
    # trapezoid means of (t/T)^d for d = 0, 2, .., 40: direct sums for few
    # steps, Euler-Maclaurin (off by 6e2 at n = 1, 1.5e-6 at n = 2) beyond
    for n in list(range(1, 41)) + [97, 1000]:
        exact = [float((sum(Fraction(j, n) ** d for j in range(n + 1))
                        - Fraction(int(d == 0) + 1, 2)) / n)
                 for d in range(0, 2 * analytic._AVERAGE_ORDER + 1, 2)]
        assert np.max(np.abs(analytic._power_means(n) / exact - 1.0)) <= 1e-15, n


def test_time_average_never_samples_the_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("time_average evaluated the mode series")

    for name in ("psi_thermo", "probability_thermo", "sigma_zero", "_return_series"):
        monkeypatch.setattr(analytic, name, refuse)
    # the criterion-3 horizon at r = 10: 1.02e7 steps
    assert time_average(10, 102400.0, 1.0) == pytest.approx(2.0 ** -9 / 3.0, rel=0.02)
    assert 0.0 < time_average(40, 1.0, 2.0) < 1e-40  # a shell not yet reached
    with pytest.warns(UserWarning):
        assert time_average(3, 500.0, 1e-7) > 0.0


@pytest.mark.parametrize("sigma, T", [(1.0, 1e3), (4.0, 1e5), (0.01, 1e5), (1e-7, 1e3)])
def test_time_average_is_finite_up_to_the_shell_cap(sigma, T):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        values = np.array([time_average(r, T, sigma) for r in range(MAX_SHELL + 1)])
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
    if sigma <= 0.01:  # every shell is reached: 2^(sigma r) <= 1200 << J T
        # one 2^-r goes into the weight before the square, so even the
        # subnormal P(1023) ~ 2^-1022 / 3 does not underflow to 0
        expected = np.array([closed_form_average(r) for r in range(MAX_SHELL + 1)])
        assert np.max(np.abs(values / expected - 1.0)) <= 0.02


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
    site_profile = expand_shells_to_sites(wave_profile_finite(t, params), params.geom)
    shell_values = collapse_sites_to_shells(site_profile, params.geom)
    from_sites = shell_sums(occupation(0, site_profile), params.geom)
    from_shells = occupation(np.arange(6), shell_values)
    for r in range(6):
        direct = occupation(r, psi_finite(r, t, params))
        assert from_sites[r] == pytest.approx(direct, abs=1e-14)
        assert from_shells[r] == pytest.approx(direct, abs=1e-14)


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
    assert profile.shape == (MAX_SHELL + 1,)


# one entry point per hand-written shell check that `geometry.check_shell`
# replaced; each takes the shell index alone
SHELL_ENTRY_POINTS = {
    "psi_thermo": lambda r: psi_thermo(r, 1.0, 1.0),
    "psi_finite": lambda r: psi_finite(r, 1.0, params_for(3)),
    "sigma_zero": lambda r: sigma_zero(r, 1.0),
    "closed_form_average": closed_form_average,
    "tail_average": tail_average,
    "tail_bound": tail_bound,
    "time_average": lambda r: time_average(r, 10.0, 1.0, dt=1.0),
    "wave_profile_thermo": lambda r: wave_profile_thermo(1.0, 1.0, 1.0, r_max=r),
    "estimate_dynamical_exponent": lambda r: estimate_dynamical_exponent(
        lambda shell, t: psi_thermo(shell, t, 1.0), [1, r], [0.5, 1.0], scan=3, refine=0),
}


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(SHELL_ENTRY_POINTS)),
    r=st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(max_value=-1)
    | st.integers(min_value=MAX_SHELL + 1)
    | st.sampled_from([np.int64(-1), np.int64(MAX_SHELL + 1), np.float64(2.0), 1024.0,
                       np.nan, -np.inf, True, np.array(3), "3", None]),
)
def test_every_shell_entry_point_refuses_a_bad_shell(name, r):
    # an integer above the cap is a resource limit, anything else not in
    # 0..MAX_SHELL an input error: never a TypeError and never a value
    too_big = isinstance(r, (int, np.integer)) and not isinstance(r, bool) and r > MAX_SHELL
    with pytest.raises(ResourceLimitError if too_big else InputError):
        SHELL_ENTRY_POINTS[name](r)


@pytest.mark.parametrize("r", [0, 1, 3, 1023])
def test_numpy_integer_shells_give_the_same_bytes(r):
    t = np.linspace(0.0, 5.0, 7)
    calls = [lambda r: psi_thermo(r, t, 1.0), lambda r: sigma_zero(r, t),
             closed_form_average, tail_average, tail_bound,
             lambda r: time_average(r, 50.0, 1.0),
             lambda r: wave_profile_thermo(t, 1.0, r_max=min(r, 40))]
    if r <= 3:
        calls.append(lambda r: psi_finite(r, t, params_for(3)))
    for call in calls:
        assert np.asarray(call(r)).tobytes() == np.asarray(call(np.int64(r))).tobytes()


def test_probability_profile_totals():
    thermo = wave_profile_thermo(4.0, 1.0, 1.0, r_max=30)
    total = np.sum(occupation(np.arange(31), thermo))
    assert total == pytest.approx(1.0, abs=1e-8)
    params = params_for(6)
    finite = expand_shells_to_sites(wave_profile_finite(4.0, params), params.geom)
    shells = shell_sums(occupation(0, finite), params.geom)
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


def test_sigma_zero_occupation_matches_the_cosine_closed_form():
    # the library's P(r, t) = occupation(r, sigma_zero(r, t)) against the
    # oracle's 1/(5 - 4 cos Jt) form: measured 7.8e-16 on this grid
    t = np.linspace(0.0, 50.0, 5001)
    worst = max(float(np.max(np.abs(occupation(r, sigma_zero(r, t))
                                    - sigma_zero_probability(r, t))))
                for r in range(MAX_SHELL + 1))
    assert worst <= 8.9e-16


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
        assert single_particle_entropy(profile, x) == pytest.approx(0.0, abs=1e-12)


# Largest |shell formula - site running sum| of the cut probability,
# measured over N = 1..10, sigma 0.5, 1, 2, 204 times in [0, 200] and every
# cut 1..L, finite and thermodynamic profiles: 4.9e-14 (N = 10).  The
# running sum adds shell r's 2^(r-1) equal terms one at a time.
SITE_SUM_AGREEMENT = 5e-14


def test_cumulative_probability_shell_vs_site():
    for levels, sigma, t in ((3, 1.0, 0.5), (6, 1.0, 4.4), (8, 0.5, 4.4), (10, 0.5, 30.0),
                             (10, 1.0, 137.2)):
        params = params_for(levels, sigma=sigma)
        cuts = np.arange(1, params.geom.length + 1)
        for shells in (wave_profile_finite(t, params),
                       wave_profile_thermo(t, sigma, r_max=levels)):
            sites = expand_shells_to_sites(shells, params.geom)
            gap = cumulative_probability(shells, cuts) - site_cumulative_probability(sites, cuts)
            assert np.max(np.abs(gap)) <= SITE_SUM_AGREEMENT


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.floats(0.0, 200.0))
@example(8, 21.34782568821883)  # |psi|^2 by libm pow misrounded one cut
def test_cuts_are_elementwise_to_the_bit(levels, t):
    # an array of cuts gives the per-cut scalar calls and the
    # one-shell-at-a-time loop
    shells = wave_profile_finite(t, params_for(levels))
    cuts = np.arange(1, 2 * (1 << levels) + 3)  # past the profile: all of it
    loop = [shell_loop_cumulative_probability(shells, int(x)) for x in cuts]
    cum = cumulative_probability(shells, cuts)
    assert cum.tobytes() == np.array(loop).tobytes()
    per_cut = [cumulative_probability(shells, int(x)) for x in cuts]
    assert all(isinstance(value, float) for value in per_cut)
    assert cum.tobytes() == np.array(per_cut).tobytes()
    entropy = single_particle_entropy(shells, cuts)
    per_cut = [single_particle_entropy(shells, int(x)) for x in cuts]
    assert entropy.tobytes() == np.array(per_cut).tobytes()
    grid = cuts[: cuts.size // 2 * 2].reshape(2, -1)
    assert np.array_equal(cumulative_probability(shells, grid), cum[: grid.size].reshape(2, -1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.floats(0.3, 3.0),
       st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12),
       st.lists(st.integers(1, 1 << 14), min_size=1, max_size=12))
def test_profile_blocks_are_rowwise_and_cutwise_to_the_bit(levels, sigma, times, cuts):
    # a (times x shells) block against a (cuts) array: out[i, j] is the
    # call on row i and cut j, as an array row and as a scalar
    block = wave_profile_thermo(np.array(times), sigma, r_max=levels)
    cuts = np.array(cuts)
    for fn in (cumulative_probability, single_particle_entropy):
        out = fn(block, cuts)
        assert out.shape == (len(times), cuts.size)
        rows = np.array([fn(row, cuts) for row in block])
        assert out.tobytes() == rows.tobytes()
        scalars = np.array([[fn(row, int(x)) for x in cuts] for row in block])
        assert out.tobytes() == scalars.tobytes()


@pytest.mark.parametrize("t", [0.0, 2.5, np.array([0.0, 1.5, 40.0]),
                               np.linspace(0.0, 9.0, 6).reshape(2, 3)],
                         ids=["zero", "scalar", "vector", "matrix"])
def test_wave_profiles_are_the_per_shell_calls(t):
    params = params_for(6, sigma=1.5)
    finite = wave_profile_finite(t, params)
    thermo = wave_profile_thermo(t, 1.5, r_max=9)
    assert finite.shape == np.shape(t) + (7,) and thermo.shape == np.shape(t) + (10,)
    for r in range(7):
        assert finite[..., r].tobytes() == np.asarray(psi_finite(r, t, params)).tobytes()
    for r in range(10):
        assert thermo[..., r].tobytes() == np.asarray(psi_thermo(r, t, 1.5)).tobytes()


def test_cut_past_the_profile_covers_all_of_it():
    for levels in (0, 1, 5, 12):
        shells = wave_profile_thermo(3.0, 1.0, r_max=levels)
        whole = math.fsum(occupation(np.arange(levels + 1), shells))
        past = cumulative_probability(shells, [1 << levels, (1 << levels) + 1, 2**62])
        assert np.all(past == past[0]) and past[0] == pytest.approx(whole, abs=1e-15)


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
        (binary_entropy, probe),
    ]
    for call, values in calls:
        array = np.asarray(call(values))
        for i, value in enumerate(values):
            assert np.asarray(call(value)).tobytes() == array[i].tobytes()


def test_entropy_decays_with_cut_position():
    profile = wave_profile_thermo(5.0, 1.0, 1.0, r_max=24)
    values = [single_particle_entropy(profile, 1 << r) for r in range(3, 11)]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_entropy_input_validation():
    shells = wave_profile_finite(1.0, params_for(3))
    for cut in (0, 2.5, np.array([2.0, 3.0]), [3, -1], 2**70):
        with pytest.raises(InputError):
            cumulative_probability(shells, cut)
        with pytest.raises(InputError):
            single_particle_entropy(shells, cut)
    for empty in (np.zeros(0, dtype=complex), np.zeros((3, 0)), 1.0):
        with pytest.raises(InputError):
            cumulative_probability(empty, 1)  # no shell 0


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


def _fit_or_flat(estimate, psi_fn, shells, s_grid, scan, refine):
    """The fitted exponent, or "flat" where every trial exponent costs the same."""
    try:
        return estimate(psi_fn, shells, s_grid, scan=scan, refine=refine)
    except InputError:
        return "flat"


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
        z = _fit_or_flat(estimate_dynamical_exponent,
                         _time_rows_by_shell(fn, batched), shells, s_grid, scan, refine)
    assert z == _fit_or_flat(per_z_dynamical_exponent,
                             _time_rows_by_shell(fn, per_z), shells, s_grid, scan, refine)
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


def test_flat_exponent_scan_is_an_input_error():
    # at J = 0 every rescaled amplitude is exactly 0: each trial z costs the
    # same, and argmin used to return the first one, z = z_min
    calls = []

    def fn(r, t):
        calls.append(r)
        return psi_thermo(r, t, 1.0, 0.0)

    s_grid = np.linspace(0.0, 6.0, 61)[1:]
    assert not np.any(fn(3, s_grid))
    calls.clear()
    with pytest.raises(InputError):
        estimate_dynamical_exponent(fn, range(1, 4), s_grid, scan=11)
    assert calls == [1, 2, 3]  # the scan ran, the refinement did not
    with pytest.raises(InputError):  # a grid of zero times, likewise
        estimate_dynamical_exponent(lambda r, t: psi_thermo(r, t, 1.0), [1, 2], [0.0])


def test_truncation_policy_cap():
    # 2^(-k-1) is exactly zero from k = 1074 on, so K = 1074 is the longest series
    assert TruncationPolicy(1074).tail_bound == 2.0 ** -1074
    with pytest.raises(ResourceLimitError):
        TruncationPolicy(1075)


@pytest.mark.filterwarnings("error")
def test_time_average_takes_any_finite_step_count():
    # the mean is summed over mode pairs, so 1e10 or 1e308 steps cost what
    # ten do; only a step ratio beyond the double range is refused
    assert time_average(20, 100.0 * 2.0 ** 20, 1.0) == pytest.approx(2.0 ** -19 / 3.0, rel=0.02)
    for r in (0, 1, 30):
        for T, dt in ((1e9, 1e-6), (1e300, 1e-8)):
            value = time_average(r, T, 1.0, dt=dt)
            assert 0.0 < value < math.inf
            if 2.0 ** r < 1e-2 * T:  # shell r is reached: the closed form holds
                assert value == pytest.approx(closed_form_average(r), rel=0.02)
    with pytest.raises(ResourceLimitError):
        time_average(0, 1e300, 1.0, dt=1e-300)
    # finite steps, but T times the spread of the mode speeds overflows: the
    # phases were inf and every average NaN
    for r in (0, 1, 2):
        with pytest.raises(ResourceLimitError):
            time_average(r, 1.7e308, 1.0, dt=1.0)
