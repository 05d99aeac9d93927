"""Exception types shared across the package.

The CLI maps these onto exit codes: validation errors exit with 1,
numerical failures with 2, I/O problems with 3.
"""

__all__ = ["ValidationError", "NumericalError"]


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when an iterative routine fails to converge or a computed
    result fails one of its checks; the message names the check."""
