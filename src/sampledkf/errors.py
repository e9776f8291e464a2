"""Exception types shared across the package."""

__all__ = ["ConfigError", "NumericalError", "ReferenceUnconvergedError",
           "GramSingularError"]


class ConfigError(ValueError):
    """A configuration file or model description is invalid."""


class NumericalError(RuntimeError):
    """A computation produced numerically unusable results."""


class ReferenceUnconvergedError(NumericalError):
    """The fine reference grid moved the discrepancy too much to trust."""


class GramSingularError(NumericalError):
    """The observation Gram matrix stayed singular after the jitter retry."""
