"""Exception types raised across the package.

Every failure mode a caller is expected to handle has its own class, so
tests and CLI error mapping can catch precisely what they mean to catch.
All of them derive from :class:`MsfSerError`.
"""


class MsfSerError(Exception):
    """Base class for all package-specific errors."""


# --- TextGrid parsing -------------------------------------------------------

class TextGridError(MsfSerError):
    """Base class for TextGrid parse/validation failures."""


class MalformedHeader(TextGridError):
    """First two header lines missing or not a long-format TextGrid."""


class MalformedBody(TextGridError):
    """A body line could not be interpreted against the long-format grammar."""


class TruncatedFile(TextGridError):
    """A declared tier/interval count exceeds what the file contains."""


class NonMonotoneIntervals(TextGridError):
    """Interval times violate ordering, bounds, or non-negativity invariants."""


class UnknownTier(TextGridError):
    """Requested tier name is absent (or is not an interval tier)."""


# --- DSP --------------------------------------------------------------------

class SignalTooShort(MsfSerError):
    """Signal shorter than one analysis window."""


# --- Word-level feature pipeline --------------------------------------------

class EmptyInput(MsfSerError):
    """An operation requiring at least one element received none."""


# --- Embedding store --------------------------------------------------------

class MalformedRecord(MsfSerError):
    """An embedding-file line is not a valid record."""


class DimMismatch(MsfSerError):
    """Vector dimensions disagree where a shared dimension is required."""


class DuplicateKey(MsfSerError):
    """The same (utterance, channel) key appeared twice."""


class MissingEmbedding(MsfSerError):
    """Lookup of an (utterance, channel) key that was never loaded."""


# --- Numerical core / model -------------------------------------------------

class ShapeMismatch(MsfSerError):
    """Operand shapes do not agree."""


class LengthMismatch(MsfSerError):
    """Two sequences that must have equal length do not."""


class TooFewUtterances(MsfSerError):
    """Training/evaluation set too small for batch statistics."""


class NumericalFailure(MsfSerError):
    """A non-finite value surfaced where the pipeline requires finite math."""
