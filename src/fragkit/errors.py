"""Exception types shared across the toolkit."""


class FragkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidKernelError(FragkitError):
    """A kernel or rate definition violates its invariants (negativity, bad table, ...)."""


class InvalidInputError(FragkitError, ValueError):
    """An argument is out of range (a negative or non-finite density, dt <= 0, an
    unknown scheme, a degenerate grid).  Also a ValueError, so callers catching
    that keep working."""


class WeightDomainError(FragkitError):
    """A weight was evaluated outside its domain (e.g. log of a power weight at x=0)."""


class QuadratureError(FragkitError):
    """Quadrature did not converge.  ``partial`` carries the best available estimate;
    over a batch of samples it is the whole array and ``failed`` the per-sample mask."""

    def __init__(self, message, partial=None, failed=None):
        super().__init__(message)
        self.partial = partial
        self.failed = failed


class StepSizeError(FragkitError):
    """The Volterra march lost diagonal dominance; retry with a halved step."""


class StiffnessError(FragkitError):
    """Explicit time stepping kept producing negative densities; use implicit_euler."""


class ConstructionError(FragkitError):
    """Weight construction failed validation.  ``worst_y`` locates the violation."""

    def __init__(self, message, worst_y=None):
        super().__init__(message)
        self.worst_y = worst_y


class ConfigError(FragkitError):
    """A run configuration is malformed or out of range (CLI exit code 2)."""
