"""Exception types shared across the package, one per error exit code."""


class ParameterError(ValueError):
    """An input violates its documented constraint (exit code 2)."""


class SolverFailure(RuntimeError):
    """A linear solve failed: no convergence, or a CG breakdown (exit code 3)."""
