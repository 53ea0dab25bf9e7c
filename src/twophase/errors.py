"""Exception hierarchy shared by all twophase modules.

Configuration problems (bad meshes, malformed scenarios) and numerical
failures (singular resolvents, non-converging iterations) are kept on
separate branches so the CLI can map them to distinct exit codes.
"""


class TwophaseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(TwophaseError):
    """Invalid mesh, scenario, or operator wiring (user-fixable input)."""


class ValidationError(ConfigurationError):
    """A sampled coefficient or kernel violates a model invariant.

    Carries the offending field and, when known, the cell index.
    """

    def __init__(self, message, field=None, cell=None):
        super().__init__(message)
        self.field = field
        self.cell = cell


class NumericalError(TwophaseError):
    """Base class for runtime numerical failures."""


class SpectralProximityError(NumericalError):
    """A resolvent solve failed because lambda sits too close to the spectrum."""

    def __init__(self, message, lam=None):
        super().__init__(message)
        self.lam = lam


class StepSizeError(NumericalError):
    """Implicit step factorization failed for the requested dt."""


class IterationError(NumericalError):
    """A solver hit its iteration cap or found no positive solution.

    Carries the last estimate and, when the solver has one, a bracket
    (lo, hi) that still holds the answer.
    """

    def __init__(self, message, estimate=None, bracket=None):
        super().__init__(message)
        self.estimate = estimate
        self.bracket = bracket


class InsufficientDataError(TwophaseError):
    """A diagnostic needs more trajectory records than were supplied."""
