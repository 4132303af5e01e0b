"""Exception types shared across the package, one per error exit code."""


class ParameterError(ValueError):
    """An input violates its documented constraint (exit code 2)."""


class SolverFailure(RuntimeError):
    """A linear solve failed: no convergence, or a CG breakdown (exit code 3)."""


def shown(x: float) -> str:  # x in an error message: :g when that reads back as x, else repr
    return f"{x:g}" if float(f"{x:g}") == x else repr(float(x))
