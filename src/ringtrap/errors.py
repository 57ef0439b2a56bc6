"""Exception types shared across the package."""


class RingtrapError(Exception):
    """Base class for all package errors."""


class ConfigError(RingtrapError, ValueError):
    """Invalid, unknown, or out-of-range configuration input."""


class NotAMinimumError(RingtrapError, ValueError):
    """The supplied point is not a harmonic local minimum."""


class FitError(RingtrapError, RuntimeError):
    """Nonlinear least-squares fit failed."""


class MeasurementError(RingtrapError, RuntimeError):
    """Image radius measurement could not be completed."""
