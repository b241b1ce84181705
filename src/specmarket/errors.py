"""Exception types shared across the package."""

from contextlib import contextmanager


class SpecmarketError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SpecmarketError, ValueError):
    """A configuration value is missing, unknown, or out of range.

    The message always names the offending field.
    """


class DegenerateInputError(SpecmarketError, ValueError):
    """Input has no usable variation (zero variance, all-zero values, ...)."""


class SampleSizeError(SpecmarketError, ValueError):
    """Too few data points for the requested estimator."""


class DataFormatError(SpecmarketError, ValueError):
    """A file could not be parsed; the message carries row/key diagnostics."""


@contextmanager
def analyzing(what: str):
    """Re-raise an estimator's refusal, in its class and with its reason, naming ``what``."""
    try:
        yield
    except (SampleSizeError, DegenerateInputError) as exc:
        raise type(exc)(f"cannot analyze {what}: {exc}") from exc
