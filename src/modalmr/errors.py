"""Exception hierarchy shared across the package.

Two families matter to callers and to the CLI exit codes, and the package
raises no other.  ``InputError`` (exit 1) covers bad arguments and malformed
files, a transition matrix that is not row-stochastic, a stationary vector
with a zero entry where the adjoint or the spectral gap needs positive mass,
non-smooth noise in the comparison-gap bound and a half-quadratic fit of
triangular phi.  ``NumericError`` (exit 2) covers failures found
mid-computation: a stationary distribution that is not unique and a weighted
least-squares system that stays singular or yields non-finite coefficients.
"""


class ModalRegressionError(Exception):
    """Base class for all package-specific errors."""


class InputError(ModalRegressionError, ValueError):
    """Invalid argument or malformed input data."""


class NumericError(ModalRegressionError, RuntimeError):
    """A computation failed numerically (singularity, divergence, ...)."""
