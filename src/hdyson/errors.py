"""Exception hierarchy shared by every hdyson module.

The command-line front end maps these onto process exit codes
(input error -> 2, resource cap -> 3, convergence failure -> 4).
"""

__all__ = ["InputError", "SingularLimitError", "ResourceLimitError", "ConvergenceError"]


class InputError(ValueError):
    """Invalid argument: out-of-range index, bad shape, inconsistent mode."""


class SingularLimitError(InputError):
    """A sigma = 0 value hit a formula that diverges there.

    The sigma = 0 dynamics is well defined; use the dedicated closed form
    `analytic.sigma_zero` instead.
    """


class ResourceLimitError(RuntimeError):
    """A requested size exceeds a safety cap: tree depth, dense or sparse
    matrix, shell index (`geometry.MAX_SHELL`), series terms or time steps."""


class ConvergenceError(RuntimeError):
    """Adaptive time stepping failed to reach its local error target."""
