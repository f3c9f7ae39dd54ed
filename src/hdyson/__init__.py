"""hdyson: excitation dynamics on the hierarchical (Dyson) spin chain.

A numpy/scipy library for the quench of a single spin flip on the
polarized background of a chain whose couplings decay with the binary-tree
hierarchical distance.  It provides the exact tree eigenbasis, closed-form
finite-size and thermodynamic-limit propagators with their localization
diagnostics (probabilities, long-time averages, rigorous bounds, scaling
collapse), O(L) fast transforms for exact evolution at large L, and exact
full many-body evolution at small L.  See the `demos/` scripts and the
`hdyson` command-line tool for worked pipelines.
"""

from .errors import (
    ConvergenceError,
    InputError,
    ResourceLimitError,
    SingularLimitError,
)
from .geometry import TreeGeometry
from .profiles import (
    TruncationPolicy,
    collapse_sites_to_shells,
    expand_shells_to_sites,
)
from .spectral import (
    ModelParams,
    SpectrumData,
    build_hopping_matrix,
    delta_decomposition,
    eigenvalues,
    eigenvector,
    renormalized_coupling,
)
from .analytic import (
    binary_entropy,
    closed_form_average,
    cumulative_probability,
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
from .oracle import (
    TreeCoefficients,
    benchmark_fast_ops,
    dense_evolve_series,
    fast_apply,
    fast_evolve,
    fast_evolve_series,
    inverse_tree_transform,
    tree_transform,
)
from .manybody import (
    ObservableSeries,
    SparseHamiltonian,
    SpinState,
    build_spin_hamiltonian,
    entanglement_entropy,
    evolve_spin,
    magnetization_profile,
    one_defect_state,
    quasi_conservation_report,
)

__version__ = "0.1.0"
