"""Praat long-format TextGrid parsing and serialization.

Forced aligners emit word and phone alignments as Praat "long" text
TextGrids.  This module parses that grammar into immutable tier/interval
values, validates the timing invariants, and serializes back (round-trip
safe).  Accepted input is the long text format only (short-format and
binary TextGrids are rejected), with ``IntervalTier`` and ``TextTier``
tiers, in UTF-8 (a leading byte-order mark is stripped; UTF-16 is
rejected).  Labels may hold doubled quotes, Praat's escape for ``"``, and
may span lines.

Point tiers (Praat ``TextTier``) are parsed and round-tripped but carry
``kind="point"``; the word/phone lookup helpers only operate on interval
tiers and skip the fixed silence labels ``SILENCE_LABELS``: "", "sil",
"sp" and "spn".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    MalformedBody,
    MalformedHeader,
    NonMonotoneIntervals,
    TextGridError,
    TruncatedFile,
    UnknownTier,
    naming,
    split_lines,
)

# Containment and overlap comparisons between two spans allow this much
# float fuzz (aligner output occasionally has 1-sample jitter at interval
# joins).
TIME_TOL = 1e-9

# Labels of non-speech intervals: empty, silence, short pause and spoken
# noise, as forced aligners such as MFA write them.
SILENCE_LABELS = frozenset({"", "sil", "sp", "spn"})


@dataclass(frozen=True)
class Interval:
    """A labelled time span; ``label`` may be empty (silence)."""

    xmin: float
    xmax: float
    label: str

    @property
    def duration(self) -> float:
        return self.xmax - self.xmin

    @property
    def center(self) -> float:
        return 0.5 * (self.xmin + self.xmax)


@dataclass(frozen=True)
class Tier:
    """An ordered, non-overlapping sequence of intervals.

    ``kind`` is ``"interval"`` for IntervalTiers and ``"point"`` for
    TextTiers; point marks are stored as zero-length intervals.
    """

    name: str
    xmin: float
    xmax: float
    intervals: tuple[Interval, ...]
    kind: str = "interval"


@dataclass(frozen=True)
class TextGrid:
    xmin: float
    xmax: float
    tiers: tuple[Tier, ...] = field(default_factory=tuple)

    def tier(self, name: str) -> Tier:
        for t in self.tiers:
            if t.name == name:
                return t
        raise UnknownTier(f"no tier named {name!r} "
                          f"(have: {[t.name for t in self.tiers]})")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _check_span(xmin: float, xmax: float, what: str) -> None:
    """A span's ends are finite, non-negative and in order, compared
    exactly; TIME_TOL applies only between two different spans."""
    for end, value in (("xmin", xmin), ("xmax", xmax)):
        if not (value == value and abs(value) != float("inf")):
            raise NonMonotoneIntervals(f"{what} {end} is not finite: {value!r}")
        if value < 0:
            raise NonMonotoneIntervals(f"{what} {end} is negative: {value!r}")
    if xmin > xmax:
        raise NonMonotoneIntervals(f"{what} ({xmin}, {xmax}) has xmin > xmax")


def validate_textgrid(tg: TextGrid) -> None:
    """Raise a typed error if ``tg`` violates any structural invariant."""
    _check_span(tg.xmin, tg.xmax, "file")
    seen: set[str] = set()
    for tier in tg.tiers:
        if tier.name in seen:
            raise MalformedBody(f"duplicate tier name {tier.name!r}")
        seen.add(tier.name)
        _tier_class(tier)
        _check_span(tier.xmin, tier.xmax, f"tier {tier.name!r}")
        if tier.xmin < tg.xmin - TIME_TOL or tier.xmax > tg.xmax + TIME_TOL:
            raise NonMonotoneIntervals(
                f"tier {tier.name!r} extends outside the file time range")
        prev_end = None
        for iv in tier.intervals:
            _check_span(iv.xmin, iv.xmax, "interval")
            if iv.xmin < tier.xmin - TIME_TOL or iv.xmax > tier.xmax + TIME_TOL:
                raise NonMonotoneIntervals(
                    f"interval ({iv.xmin}, {iv.xmax}) outside tier "
                    f"{tier.name!r} range [{tier.xmin}, {tier.xmax}]")
            if prev_end is not None and prev_end > iv.xmin + TIME_TOL:
                raise NonMonotoneIntervals(
                    f"intervals overlap in tier {tier.name!r}: previous ends "
                    f"at {prev_end}, next starts at {iv.xmin}")
            prev_end = iv.xmax


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_HEADER = ('File type = "ooTextFile"', 'Object class = "TextGrid"')

# The grammar of each Praat tier class: its ``Tier.kind``, the key of its
# item list, and the keys of one item's times and label.  A point's one
# time is both ends of its zero-length interval.
_TIER_GRAMMAR = {
    "IntervalTier": ("interval", "intervals", ("xmin", "xmax"), "text"),
    "TextTier": ("point", "points", ("number",), "mark"),
}
_TIER_CLASS = {grammar[0]: klass for klass, grammar in _TIER_GRAMMAR.items()}


def _tier_class(tier: Tier) -> str:
    """The Praat class written for ``tier.kind``; MalformedBody if none."""
    if tier.kind not in _TIER_CLASS:
        raise MalformedBody(f"tier {tier.name!r} has kind {tier.kind!r}, "
                            f"expected one of {sorted(_TIER_CLASS)}")
    return _TIER_CLASS[tier.kind]


# The value of a ``key = <number>`` line is one token; a count is decimal
# digits only.
_NUMBER_FORMS = {float: re.compile(r"\S+"), int: re.compile(r"\d+")}
# The body of a quoted string: any character but a quote, or a doubled quote.
_STRING_BODY = re.compile(r'(?:[^"]|"")*')


class _Reader:
    """Line cursor over the normalized file text.

    Every read raises :class:`TruncatedFile` at end of file and
    :class:`MalformedBody` on a line that does not match.
    """

    def __init__(self, text: str):
        self.lines = iter(split_lines(text))

    def _next(self, want: str) -> str:
        """Next non-blank line, without its indentation."""
        for line in self.lines:
            if line.strip():
                return line.lstrip()
        raise TruncatedFile(f"expected {want!r}, got end of file")

    def line(self, *expected: str) -> str:
        """An exact line, one of ``expected``, such as ``item [k]:``."""
        line = self._next(expected[0]).rstrip()
        if line not in expected:
            raise MalformedBody(f"expected {' or '.join(map(repr, expected))}, "
                                f"got {line!r}")
        return line

    def value(self, key: str) -> str:
        """What follows ``key = `` on the next line, trailing whitespace kept."""
        prefix = key + " = "
        line = self._next(prefix + "...")
        if not line.startswith(prefix):
            raise MalformedBody(f"expected '{prefix}...', got {line.rstrip()!r}")
        return line[len(prefix):]

    def number(self, key: str, kind: type = float) -> float | int:
        """The value of ``key = <number>`` as ``kind``, float or int."""
        text = self.value(key).rstrip()
        try:
            if _NUMBER_FORMS[kind].fullmatch(text):
                return kind(text)
        except ValueError:      # not a float, or more digits than int() takes
            pass
        raise MalformedBody(f"bad number for {key}: {text!r}")

    def string(self, key: str) -> str:
        """The value of ``key = "..."``; doubled quotes decode to one, and
        the value may continue across lines (embedded newlines in labels)."""
        text = self.value(key)
        if not text.startswith('"'):
            raise MalformedBody(f"expected a quoted {key}, got {text.rstrip()!r}")
        chunks = []
        text = text[1:]
        while (end := _STRING_BODY.match(text).end()) == len(text):
            # no closing quote yet: the next line, verbatim, is part of the value
            chunks.append(text)
            text = next(self.lines, None)
            if text is None:
                raise TruncatedFile(f"unterminated string value for {key}")
        chunks.append(text[:end])
        if text[end + 1:].strip():
            raise MalformedBody(
                f"unexpected content after closing quote: {text[end + 1:]!r}")
        return "\n".join(chunks).replace('""', '"')


def parse_textgrid(text: str) -> TextGrid:
    """Parse the full contents of a long-format TextGrid file.

    Raises :class:`MalformedHeader` if the two-line header is absent (this
    covers short-format and binary files), :class:`TruncatedFile` when
    declared counts exceed the content present, and
    :class:`NonMonotoneIntervals` for timing-invariant violations.
    """
    if text.startswith("﻿"):
        text = text[1:]
    reader = _Reader(text)
    for header in _HEADER:
        try:
            reader.line(header)
        except (TruncatedFile, MalformedBody) as exc:
            raise MalformedHeader(f"not a long-format TextGrid: {exc}") from None

    xmin = reader.number("xmin")
    xmax = reader.number("xmax")
    tiers: list[Tier] = []
    if reader.line("tiers? <exists>", "tiers? <absent>") == "tiers? <exists>":
        n_tiers = reader.number("size", int)
        reader.line("item []:")
        for k in range(1, n_tiers + 1):
            reader.line(f"item [{k}]:")
            tiers.append(_parse_tier(reader))
    trailing = "\n".join(reader.lines).strip()
    if trailing:
        raise MalformedBody(
            f"unexpected content after the tiers: {trailing[:60]!r}")

    tg = TextGrid(xmin=xmin, xmax=xmax, tiers=tuple(tiers))
    validate_textgrid(tg)
    return tg


def _parse_tier(reader: _Reader) -> Tier:
    klass = reader.string("class")
    if klass not in _TIER_GRAMMAR:
        raise MalformedBody(f"unsupported tier class {klass!r}")
    kind, items, time_keys, label_key = _TIER_GRAMMAR[klass]
    name = reader.string("name")
    xmin = reader.number("xmin")
    xmax = reader.number("xmax")
    intervals = []
    for j in range(1, reader.number(f"{items}: size", int) + 1):
        reader.line(f"{items} [{j}]:")
        times = tuple(map(reader.number, time_keys))
        intervals.append(Interval(times[0], times[-1], reader.string(label_key)))
    return Tier(name=name, xmin=xmin, xmax=xmax,
                intervals=tuple(intervals), kind=kind)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt_time(x: float) -> str:
    # ">= 6 decimal digits" where that is lossless, full precision otherwise;
    # float() of the result always reproduces x exactly.
    s = f"{x:.6f}"
    if float(s) == x:
        return s
    return repr(x)


def _quote(s: str) -> str:
    return '"' + s.replace('"', '""') + '"'


def serialize_textgrid(tg: TextGrid) -> str:
    """Render as long-format text; ``parse_textgrid`` round-trips the result.

    Labels survive byte-for-byte with one exception inherent to the
    line-oriented format: carriage returns read back as line feeds.
    """
    out: list[str] = [
        *_HEADER,
        "",
        f"xmin = {_fmt_time(tg.xmin)}",
        f"xmax = {_fmt_time(tg.xmax)}",
        "tiers? <exists>",
        f"size = {len(tg.tiers)}",
        "item []:",
    ]
    for k, tier in enumerate(tg.tiers, start=1):
        klass = _tier_class(tier)
        _, items, time_keys, label_key = _TIER_GRAMMAR[klass]
        out += [f"    item [{k}]:",
                f"        class = {_quote(klass)}",
                f"        name = {_quote(tier.name)}",
                f"        xmin = {_fmt_time(tier.xmin)}",
                f"        xmax = {_fmt_time(tier.xmax)}",
                f"        {items}: size = {len(tier.intervals)}"]
        for j, iv in enumerate(tier.intervals, start=1):
            out.append(f"        {items} [{j}]:")
            for key, t in zip(time_keys, (iv.xmin, iv.xmax)):
                out.append(f"            {key} = {_fmt_time(t)}")
            out.append(f"            {label_key} = {_quote(iv.label)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# file reading and alignment lookups
# ---------------------------------------------------------------------------

def read_textgrid_file(path) -> TextGrid:
    """Read and parse a TextGrid file; UTF-8 only, UTF-16 BOMs rejected.

    Every TextGridError raised here starts its message with the path.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    with naming(path, TextGridError):
        if raw[:2] in (b"\xfe\xff", b"\xff\xfe"):
            raise MalformedHeader("UTF-16 TextGrid input; transcode to UTF-8 first")
        try:
            return parse_textgrid(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise MalformedHeader(f"not valid UTF-8: {exc}") from None


def _interval_tier(tg: TextGrid, tier_name: str) -> Tier:
    tier = tg.tier(tier_name)
    if tier.kind != "interval":
        raise UnknownTier(f"tier {tier_name!r} is a point tier, "
                          "not an interval tier")
    return tier


def word_intervals(tg: TextGrid, tier_name: str) -> tuple[Interval, ...]:
    """Intervals of the named tier whose label is not one of
    ``SILENCE_LABELS`` ("", "sil", "sp", "spn"), order preserved."""
    tier = _interval_tier(tg, tier_name)
    return tuple(iv for iv in tier.intervals if iv.label not in SILENCE_LABELS)


def phones_for_word(tg: TextGrid, phone_tier: str,
                    word: Interval) -> tuple[Interval, ...]:
    """Phones whose center time lies in ``[word.xmin, word.xmax)``.

    Center-time half-open containment is robust to 1-sample boundary
    jitter in aligner output.
    """
    tier = _interval_tier(tg, phone_tier)
    return tuple(
        ph for ph in tier.intervals
        if ph.label not in SILENCE_LABELS
        and word.xmin <= ph.center < word.xmax
    )
