"""Exception types shared across the package."""

from contextlib import contextmanager


class SpecmarketError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SpecmarketError, ValueError):
    """A configuration value is missing, unknown, or out of range.

    Its ``args`` are pieces that alternate a name and text, a name first, as in
    ``ConfigError("use_param", " must be in (0, 1], got 1.5")``; ``""`` is the
    first name of a refusal that opens with text. The message is the pieces
    joined, and ``fields`` holds the names it is about. A boundary names them in
    its own terms with :meth:`renamed`; the text between them never changes.
    """

    def __str__(self) -> str:
        return "".join(self.args)

    @property
    def fields(self) -> tuple:
        return tuple(name for name in self.args[::2] if name)

    def renamed(self, names: dict) -> "ConfigError":
        """This refusal with each name of ``names`` replaced by its entry: a name, or pieces that
        open with a name, whose closing text runs on into the text after it."""
        pieces = []
        for i, piece in enumerate(self.args):
            entry = names.get(piece, piece) if i % 2 == 0 else piece
            for j, part in enumerate((entry,) if isinstance(entry, str) else entry):
                if (i + j) % 2 != len(pieces) % 2:  # an entry's closing text meets the text after it
                    part = pieces.pop() + part
                pieces.append(part)
        return ConfigError(*pieces)


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
