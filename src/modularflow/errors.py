"""Exception types shared across the package."""


class DomainViolation(ValueError):
    """A flow or group operation was evaluated outside its domain.

    The message states the violated inequality; ``exit_param`` carries the
    first offending parameter value when the violation occurred during a
    parameter sweep (flow lines).
    """

    def __init__(self, message, exit_param=None):
        super().__init__(message)
        self.exit_param = exit_param


class QuadratureError(RuntimeError):
    """A momentum quadrature did not converge (integrand tail above tolerance)."""


class ResolutionError(RuntimeError):
    """A grid cannot resolve the requested quantity: too coarse for a
    derivative, or too many nodes for a position regulator."""
