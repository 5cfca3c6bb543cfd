"""Exception hierarchy shared across the package.

Two families matter to callers and to the CLI exit codes: bad inputs
(``InputError``, exit 1; a half-quadratic fit of triangular phi is one) and
numerical failures found mid-computation (``NumericError``, exit 2).
"""


class ModalRegressionError(Exception):
    """Base class for all package-specific errors."""


class InputError(ModalRegressionError, ValueError):
    """Invalid argument or malformed input data."""


class NumericError(ModalRegressionError, RuntimeError):
    """A computation failed numerically (singularity, divergence, ...)."""


class NotStochastic(InputError):
    """Matrix rows do not form probability distributions."""


class NonUniqueStationary(NumericError):
    """Eigenvalue 1 of the transition matrix is not simple."""


class ZeroMass(InputError):
    """A stationary distribution entry is zero where positivity is required."""


class SingularSystem(NumericError):
    """The weighted least-squares system stayed singular after jitter."""


class NonSmoothNoise(InputError):
    """Noise density lacks the bounded second derivative the bound needs."""
