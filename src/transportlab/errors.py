"""Error types shared across the package."""


class TransportLabError(Exception):
    """Base class for package errors."""


class CertificateConflictError(TransportLabError):
    """A probed value contradicts a declared convexity constant."""


class AccuracyError(TransportLabError):
    """A quadrature or integrator error estimate exceeds tolerance."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class ConvergenceError(TransportLabError):
    """An iterative solver did not converge within its budget.

    `epsilon` is the regularization of the stage that failed and
    `iteration` the last iteration it ran, where the solver knows them.
    """

    def __init__(self, message, residual=None, epsilon=None, iteration=None):
        super().__init__(message)
        self.residual = residual
        self.epsilon = epsilon
        self.iteration = iteration


class DomainError(TransportLabError):
    """Input outside the validity region of a formula or solver."""


class SupportError(TransportLabError):
    """A density or map was used outside its declared support."""


class ConvexityViolationError(TransportLabError):
    """A transport Jacobian lost positivity where it must not."""

    def __init__(self, message, probe=None):
        super().__init__(message)
        self.probe = probe
