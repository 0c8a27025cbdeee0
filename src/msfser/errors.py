"""Exception types raised across the package, and its one file boundary.

Every failure mode a caller is expected to handle has its own class, so
tests and CLI error mapping can catch precisely what they mean to catch.
All of them derive from :class:`MsfSerError`, and :func:`naming` is the
one way an error names the input at fault.  :func:`read_text` decodes
the JSON, JSONL and CSV inputs, :func:`split_lines` splits them into lines,
:func:`json_object` parses every JSON input, and :func:`write_json` writes
every JSON artifact, refusing NaN and infinity.  This is the only module
that imports json.
"""

import json
from contextlib import contextmanager
from pathlib import Path


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


# --- Settings ---------------------------------------------------------------

class BadSetting(MsfSerError, ValueError):
    """A setting out of range, alone or for the input it is applied to;
    the message names the setting."""


# --- DSP --------------------------------------------------------------------

class UnfitSignal(BadSetting):
    """The analysis settings do not fit a signal: it is too short for one
    window, or its sample rate is too low for the window or the f0 range."""


class SignalTooShort(UnfitSignal):
    """Signal shorter than one analysis window."""


# --- Word-level feature pipeline --------------------------------------------

class EmptyInput(MsfSerError):
    """An operation requiring at least one element received none."""


# --- Embedding store --------------------------------------------------------

class MalformedRecord(MsfSerError):
    """An input file, or a record in one, is not valid."""


class DimMismatch(MsfSerError):
    """Vector dimensions disagree where a shared dimension is required."""


class DuplicateKey(MsfSerError):
    """The same (utterance, channel) key appeared twice."""


class MissingEmbedding(MsfSerError):
    """Lookup of an (utterance, channel) key that was never loaded."""


# --- Numerical core / model -------------------------------------------------

class ShapeMismatch(MsfSerError):
    """Operand shapes do not agree."""


class TooFewUtterances(MsfSerError):
    """Training/evaluation set too small for batch statistics."""


class NumericalFailure(MsfSerError):
    """A non-finite value surfaced where the pipeline requires finite math."""


# --- The file boundary ------------------------------------------------------

@contextmanager
def naming(where, *types):
    """Put ``where: `` in front of an error of one of types that leaves the
    block and re-raise it, with its class, cause and exit code;
    for MsfSerErrors and plain ValueErrors, whose message is args[0]."""
    try:
        yield
    except types as exc:
        exc.args = (f"{where}: {exc}", *exc.args[1:])
        raise


def read_text(path) -> str:
    """The UTF-8 text of the file at path, line endings kept; a byte that
    is not UTF-8 raises MalformedRecord naming the file and its line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(split_lines(raw[:exc.start].decode("utf-8")))
        raise MalformedRecord(
            f"{path}: not valid UTF-8 at line {line}: {exc}") from None


def split_lines(text: str) -> list[str]:
    """The lines of text, each ended by \\n, \\r\\n or \\r as text-mode reading
    ends them; unlike str.splitlines, a \\f, \\x85 or U+2028 is text."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def json_object(text: str, **json_kwargs) -> dict:
    """json.loads(text, **json_kwargs), which must be a JSON object; text
    that is not JSON, JSON nested too deeply to parse and JSON of another
    type raise MalformedRecord."""
    try:
        obj = json.loads(text, **json_kwargs)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise MalformedRecord("not valid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise MalformedRecord("expected a JSON object")
    return obj


def finite_json(obj, where, **kwargs) -> str:
    """json.dumps(obj, **kwargs) for an artifact or report named by where.

    A NaN or infinity anywhere in obj raises NumericalFailure naming
    where; finite values encode exactly as json.dumps encodes them.
    """
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NumericalFailure(f"{where}: {exc}") from exc


def write_json(obj, path=None, **json_kwargs) -> None:
    """Write obj as JSON and a newline to the UTF-8 file at path, or to
    stdout when path is None or empty."""
    text = finite_json(obj, path or "stdout", **json_kwargs) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
