"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single `[criterion N] name: PASS/FAIL` line (run with
`pytest -s` to see them live).  Tolerances are pinned here and nowhere
else; reference values come from the independent oracles (dense linear
algebra, coupling sums, closed forms), never from the code path under
test.
"""

from dataclasses import replace

import numpy as np
import pytest

import hdyson as hd

from hdyson.geometry import block_bounds

from reference import cluster_distinct, second_order_level_couplings, sigma_zero_probability


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def params_for(levels, sigma=1.0, J=1.0, h=0.0):
    return hd.ModelParams(hd.TreeGeometry(levels), J=J, sigma=sigma, h=h)


def delta_state(length):
    amp = np.zeros(length, dtype=complex)
    amp[0] = 1.0
    return amp


SIGMAS = (0.5, 1.0, 2.0)


def test_criterion_1_spectrum_exactness():
    worst = 0.0
    ok = True
    for sigma in SIGMAS:
        for levels in range(1, 11):
            params = params_for(levels, sigma=sigma)
            dense = np.linalg.eigvalsh(hd.build_hopping_matrix(params))
            clusters = cluster_distinct(dense, 1e-9)
            eps = hd.eigenvalues(params)
            if len(clusters) != levels + 1:
                ok = False
                break
            for k, (value, count) in enumerate(clusters):
                ok &= count == int(np.diff(block_bounds(levels))[k])
                rel = abs(value - eps[k]) / max(1.0, abs(eps[k]))
                worst = max(worst, rel)
    ok &= worst <= 1e-9
    report(1, "spectrum exactness", ok, f"max relative deviation {worst:.2e}")


def test_criterion_2_propagator_equivalence():
    times = np.linspace(0.0, 50.0, 500)
    worst = 0.0
    for sigma in SIGMAS:
        for levels in range(1, 11):
            params = params_for(levels, sigma=sigma)
            L = params.geom.length
            dense = hd.dense_evolve_series(params, times, delta_state(L))
            fast = hd.fast_evolve_series(params, times, delta_state(L))
            shells = np.array(
                [hd.psi_finite(r, times, params) for r in range(levels + 1)]
            )
            analytic = np.empty_like(dense)
            analytic[:, 0] = shells[0]
            for r in range(1, levels + 1):
                analytic[:, 1 << (r - 1) : 1 << r] = shells[r][:, None]
            worst = max(
                worst,
                float(np.max(np.abs(dense - analytic))),
                float(np.max(np.abs(fast - dense))),
            )
    ok = worst <= 1e-10
    report(2, "propagator equivalence", ok, f"max site deviation {worst:.2e}")


def test_criterion_3_long_time_averages():
    worst = 0.0
    for sigma in (1.0, 2.0):
        for r in range(6):
            horizon = 100.0 * 2.0 ** (r * sigma)
            value = hd.time_average(r, horizon, sigma, 1.0)
            target = hd.closed_form_average(r)
            worst = max(worst, abs(value - target) / target)
    ok = worst <= 0.02
    report(3, "long-time averages", ok, f"max relative error {worst:.4f}")


def test_criterion_4_bounds_everywhere_sampled():
    policy = hd.TruncationPolicy(64)
    step = 0.01
    total_points = int(round(1e4 / step)) + 1
    chunk = 1 << 19
    amp_violations = 0
    tail_violations = 0
    worst_margin = np.inf
    for sigma in SIGMAS:
        coupling = hd.renormalized_coupling(sigma, 1.0)
        for start in range(0, total_points, chunk):
            t = (start + np.arange(min(chunk, total_points - start))) * step
            # r = 0: |psi| <= 1 <= 2^(1-0)
            psi0 = hd.psi_thermo(0, t, sigma, 1.0, policy)
            amp_violations += int(np.sum(np.abs(psi0) > 2.0))
            suffix = np.zeros(t.size)
            for r in range(20, 0, -1):
                amp = hd.psi_thermo(r, t, sigma, 1.0, policy)
                if r <= 8:
                    amp_violations += int(np.sum(np.abs(amp) > 2.0 ** (1 - r)))
                suffix += 2.0 ** (r - 1) * np.abs(amp) ** 2
                R = r - 1
                if R <= 8:
                    bound = 2.0 ** (1 - R)
                    tail_violations += int(np.sum(suffix > bound))
                    worst_margin = min(worst_margin, bound - float(np.max(suffix)))
    ok = amp_violations == 0 and tail_violations == 0
    report(
        4,
        "amplitude and tail bounds",
        ok,
        f"violations {amp_violations}+{tail_violations}, "
        f"slimmest tail margin {worst_margin:.3e}",
    )


def test_criterion_5_scaling_collapse():
    policy = hd.TruncationPolicy(64)
    t = np.linspace(0.0, 40.0, 801)
    worst = 0.0
    z_errors = {}
    for sigma in SIGMAS:
        for r in range(1, 9):
            lhs = 2.0 ** r * hd.psi_thermo(r, t, sigma, 1.0, policy)
            rhs = hd.scaling_function(t * 2.0 ** (-sigma * r), sigma, 1.0, policy)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        s_grid = np.linspace(0.0, 6.0, 61)[1:]
        z = hd.estimate_dynamical_exponent(
            lambda r, tt: hd.psi_thermo(r, tt, sigma, 1.0, policy),
            range(1, 9),
            s_grid,
        )
        z_errors[sigma] = abs(z - sigma) / sigma
    ok = worst <= 4.0 * 2.0 ** -64 and all(e <= 0.02 for e in z_errors.values())
    report(
        5,
        "scaling collapse and exponent",
        ok,
        f"max collapse residual {worst:.2e}, "
        f"z errors {[f'{v:.2e}' for v in z_errors.values()]}",
    )


def test_criterion_6_sigma_zero_limit():
    policy = hd.TruncationPolicy(512)
    t = np.arange(0.0, 4 * np.pi + 0.005, 0.01)
    worst = 0.0
    for r in range(6):
        series = hd.probability_thermo(r, t, 1e-5, 1.0, policy)
        closed = sigma_zero_probability(r, t)
        worst = max(worst, float(np.max(np.abs(series - closed))))
    shifted = sigma_zero_probability(0, t + 2 * np.pi)
    period_err = float(np.max(np.abs(shifted - sigma_zero_probability(0, t))))
    ok = worst <= 1e-3 and period_err <= 1e-12
    report(
        6,
        "sigma -> 0 closed form",
        ok,
        f"probability deviation {worst:.2e}, periodicity error {period_err:.2e}",
    )


def test_criterion_7_many_body_validation():
    # The h -> inf hopping model is first order in J/h: its secular J^2/4h
    # dephasing alone reaches ~0.026 here.  The 1% bound is checked against
    # the second-order one-defect model H_hop - H_hop^2/4h, which is the
    # hopping model with renormalised level couplings.
    times = np.linspace(0.0, 10.0, 201)

    def deviations(h):
        params = params_for(3, sigma=1.0, h=h)
        dressed = replace(params, level_couplings=second_order_level_couplings(params))
        series = hd.evolve_spin(
            hd.build_spin_hamiltonian(params), hd.SpinState.single_flip(8), times
        )

        def worst(model):
            shells = hd.wave_profile_finite(times, model)
            predicted = np.abs(hd.expand_shells_to_sites(shells, model.geom)) ** 2
            return float(np.max(np.abs(series.n - predicted)))

        return worst(dressed), worst(params), hd.quasi_conservation_report(series)

    dev40, bare40, quasi40 = deviations(40.0)
    dev2, _, _ = deviations(2.0)
    ok = dev40 < 0.01 and quasi40 < 0.01 and dev2 >= 10.0 * dev40
    report(
        7,
        "many-body validation at h = 40J",
        ok,
        f"|n - |psi_2|^2| = {dev40:.2e} (< 0.01 required; bare h -> inf "
        f"model {bare40:.4f}), |N(t) - 1| = {quasi40:.4f}, "
        f"h=2J ratio {dev2 / dev40:.1f}x",
    )


def test_criterion_8_entanglement_consistency():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = hd.one_defect_state(amps)
        for cut in range(1, 8):
            schmidt = hd.entanglement_entropy(state, cut)
            binary = hd.binary_entropy(float(np.sum(np.abs(amps[:cut]) ** 2)))
            worst = max(worst, abs(schmidt - binary))
    profile = hd.wave_profile_thermo(5.0, 1.0, 1.0, r_max=24)
    tail = [hd.single_particle_entropy(profile, 1 << r) for r in range(3, 11)]
    decays = all(tail[i] > tail[i + 1] for i in range(len(tail) - 1))
    ok = worst <= 1e-8 and decays
    report(
        8,
        "entanglement consistency",
        ok,
        f"max Schmidt-vs-binary gap {worst:.2e}, S(x, Jt=5) decays: {decays}",
    )


def test_criterion_9_fast_path_performance():
    rng = np.random.default_rng(23)
    agreement = 0.0
    evolve_gap = 0.0
    for levels in (4, 7, 10):
        params = params_for(levels)
        mat = hd.build_hopping_matrix(params)
        L = params.geom.length
        for _ in range(10):
            v = rng.normal(size=L) + 1j * rng.normal(size=L)
            dense = mat @ v
            scale = float(np.max(np.abs(dense)))
            agreement = max(
                agreement,
                float(np.max(np.abs(hd.fast_apply(params, v) - dense))) / scale,
            )
        times = (3.0, 21.0)
        dense = hd.dense_evolve_series(params, times, delta_state(L))
        for t, row in zip(times, dense):
            gap = np.abs(hd.fast_evolve(params, t, delta_state(L)) - row)
            evolve_gap = max(evolve_gap, float(np.max(gap)))

    bench = hd.benchmark_fast_ops(range(16, 23), repeats=5, min_window_s=0.25)
    ratios = {}
    for op_name in ("fast_apply", "fast_evolve"):
        mins = [row["min_ns"] for row in bench if row["op"] == op_name]
        ratios[op_name] = [mins[i + 1] / mins[i] for i in range(len(mins) - 1)]
    scaling_ok = all(r <= 4.0 for rs in ratios.values() for r in rs)
    ok = agreement <= 1e-12 and evolve_gap <= 1e-10 and scaling_ok
    report(
        9,
        "fast-path performance",
        ok,
        f"matvec rel {agreement:.2e}, evolve {evolve_gap:.2e}, "
        f"worst doubling ratio {max(max(rs) for rs in ratios.values()):.2f} (<= 4)",
    )
