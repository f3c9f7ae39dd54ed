#!/usr/bin/env python3
"""Full many-body quench at L = 8: how good is the one-particle picture?

Evolves |down up ... up> under the complete spin Hamiltonian at several
transverse fields and compares the site occupations n(x, t) with the
hard-core single-particle prediction |psi(x, t)|^2.  The residual shrinks
like 1/h (secular J^2/4h dressing), and the total excitation number is
conserved to the same accuracy.  Writes manybody_validation.csv.

Run with: python demos/manybody_validation.py
"""

import numpy as np

from hdyson import (
    ModelParams,
    SpinState,
    TreeGeometry,
    evolve_spin,
    expand_shells_to_sites,
    occupation,
    quasi_conservation_report,
    wave_profile_finite,
)


def main():
    L, sigma, J = 8, 1.0, 1.0
    times = np.linspace(0.0, 10.0, 101)
    geom = TreeGeometry.from_length(L)

    print("=" * 70)
    print(f"L = {L}, sigma = {sigma}: exact evolution of the flipped-spin state")
    print("=" * 70)
    print("\n  h/J    max|n - |psi|^2|    max|N(t) - 1|")
    runs = {}
    for h in (2.0, 5.0, 10.0, 20.0, 40.0):
        params = ModelParams(geom, J=J, sigma=sigma, h=h)
        series = evolve_spin(
            params, SpinState.single_flip(L), times
        )
        predicted = occupation(0, expand_shells_to_sites(wave_profile_finite(times, params), geom))
        dev = float(np.max(np.abs(series.n - predicted)))
        runs[h] = series
        print(f"  {h:4.0f}    {dev:.6f}            {quasi_conservation_report(series):.6f}")

    print("\nDeep in the paramagnetic phase the defect hops; near the critical")
    print("field pair production floods the chain and the picture breaks down.")

    series = runs[40.0]
    print("\nSite occupations at h = 40J (columns are sites 1..8):")
    for i in range(0, len(times), 20):
        row = "  ".join(f"{v:.4f}" for v in series.n[i])
        print(f"  Jt = {times[i]:5.1f}:  {row}")

    with open("manybody_validation.csv", "w") as fh:
        fh.write("t,x,n\n")
        for i, t in enumerate(times):
            for x in range(1, L + 1):
                fh.write(f"{t:.17g},{x},{series.n[i, x - 1]:.17g}\n")
    print("\nwrote manybody_validation.csv (h = 40J run)")


if __name__ == "__main__":
    main()
