"""Exception types shared across the package."""


class CritsenseError(Exception):
    """Base class for all library-specific errors."""


class DomainError(CritsenseError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidStateError(CritsenseError, ValueError):
    """A covariance matrix violates symmetry or the uncertainty relation."""


class PreconditionError(CritsenseError, ValueError):
    """An operation was called on inputs it is not defined for."""


class NoSteadyStateError(CritsenseError):
    """The dissipative dynamics has no steady state (drive at or above threshold)."""


class PureStateError(CritsenseError):
    """QFI singularity: the state is pure but its purity changes with the parameter."""


class ConstraintError(CritsenseError):
    """A resource budget (photon cap) is violated."""


class SearchError(CritsenseError):
    """A 1-D optimizer encountered non-finite objective values."""


class AccuracyError(CritsenseError):
    """A numerical result failed its internal accuracy check."""


class TruncationError(CritsenseError):
    """Fock-space truncation too small: trace leaked beyond budget."""

    def __init__(self, message: str, suggested_dim: int | None = None):
        super().__init__(message)
        self.suggested_dim = suggested_dim


class ConfigError(CritsenseError, ValueError):
    """A run configuration failed schema validation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
