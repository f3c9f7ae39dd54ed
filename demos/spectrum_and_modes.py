#!/usr/bin/env python3
"""Tree eigenbasis of the hierarchical hopping matrix.

Shows the N+1 distinct eigenvalues with their multiplicities, checks them
against a dense diagonalization, and prints the (N+1)-term expansion of
the site-1 delta state: the sparsity of that expansion is what localizes
the excitation.

Run with: python demos/spectrum_and_modes.py
"""

import numpy as np

from hdyson import (
    ModelParams,
    TreeGeometry,
    build_hopping_matrix,
    delta_decomposition,
    eigenvalues,
    eigenvector,
    renormalized_coupling,
)


def main():
    N, sigma, J = 6, 1.0, 1.0
    geom = TreeGeometry(N)
    params = ModelParams(geom, J=J, sigma=sigma)

    print("=" * 64)
    print(f"Hierarchical chain, L = 2^{N} = {geom.length}, sigma = {sigma}, J = {J}")
    print("couplings J_p = J / 2^((1+sigma) p):",
          np.array2string(params.level_coupling_array(), precision=5))
    print("=" * 64)

    spec = eigenvalues(params)
    dense = np.sort(np.linalg.eigvalsh(build_hopping_matrix(params)))
    print("\n k   eps_k (closed form)   multiplicity   dense check")
    cursor = 0
    for k in range(N + 1):
        deg = int(spec.degeneracy[k])
        block = dense[cursor : cursor + deg]
        cursor += deg
        print(f"{k:2d}   {spec.eps[k]:+18.12f}   {deg:12d}   "
              f"max dev {np.max(np.abs(block - spec.eps[k])):.2e}")
    print(f"\nlevels sum to 2^N: {int(spec.degeneracy.sum())} = {geom.length}")
    print(f"band ladder prefactor (2^(s+1)-1)/(2^s-1) * J = "
          f"{renormalized_coupling(sigma, J):.6f}")

    print("\nDelta state at site 1, expanded over the eigenbasis")
    print("(exactly one member per multiplet -- the origin of localization):")
    rebuilt = np.zeros(geom.length)
    for k, m, coeff in delta_decomposition(geom):
        rebuilt += coeff * eigenvector(k, m, geom).real
        print(f"  multiplet k={k} member m={m}: weight {coeff:.6f}"
              f"  (weight^2 = {coeff**2:.6f})")
    print(f"reconstruction error: {np.max(np.abs(rebuilt - np.eye(geom.length)[0])):.2e}")


if __name__ == "__main__":
    main()
