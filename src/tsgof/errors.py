"""Exception types shared across the package.

The command-line front end maps these onto exit codes: domain and
feasibility problems exit with 1, configuration and I/O problems with 2,
and any other exception, an internal error, with 1.
"""


class DomainError(ValueError):
    """A parameter or input lies outside an operation's domain."""


class InfeasibleModelError(DomainError):
    """The requested (m, q) combination violates a family feasibility bound.

    The message names the violated bound so callers can report it.
    """


class NotPositiveDefiniteError(DomainError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is not positive definite (pivot {pivot_index} <= 0)")

    def __reduce__(self):  # a pool worker's error unpickles from its pivot, not its message
        return type(self), (self.pivot_index,)


class DegenerateSampleError(DomainError):
    """Duplicate or constant sample values make the requested quantity undefined."""


class ConfigError(RuntimeError):
    """Malformed experiment configuration or input file."""
