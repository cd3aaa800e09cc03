"""Exception types shared across the package."""


class ConeflowError(Exception):
    """Base of every error the package raises on purpose; the CLI reports
    these as one `error:` line."""


class ConfigurationError(ConeflowError, ValueError):
    """Invalid grid sizes, parameter ranges, schedules or config files."""


class ModelError(ConeflowError, ValueError):
    """A synthetic geometry model is internally inconsistent."""


class NumericalError(ConeflowError, RuntimeError):
    """An iteration failed to converge or produced invalid values."""


class DivergenceError(NumericalError):
    """Newton, continuation or the flow diverged."""


class PositivityError(NumericalError):
    """A metric density left the Kahler cone (nonpositive somewhere)."""
