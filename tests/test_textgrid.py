"""TextGrid parsing, serialization, validation, and alignment lookups."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfser.errors import (
    MalformedBody,
    MalformedHeader,
    NonMonotoneIntervals,
    TruncatedFile,
    UnknownTier,
)
from msfser.textgrid import (
    SILENCE_LABELS,
    TIME_TOL,
    Interval,
    TextGrid,
    Tier,
    parse_textgrid,
    phones_for_word,
    read_textgrid_file,
    serialize_textgrid,
    validate_textgrid,
    word_intervals,
)

REFERENCE = '''File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 2.5
tiers? <exists>
size = 2
item []:
    item [1]:
        class = "IntervalTier"
        name = "words"
        xmin = 0
        xmax = 2.5
        intervals: size = 3
        intervals [1]:
            xmin = 0
            xmax = 0.75
            text = ""
        intervals [2]:
            xmin = 0.75
            xmax = 1.6
            text = "hello"
        intervals [3]:
            xmin = 1.6
            xmax = 2.5
            text = "world"
    item [2]:
        class = "TextTier"
        name = "clicks"
        xmin = 0
        xmax = 2.5
        points: size = 1
        points [1]:
            number = 1.25
            mark = "click"
'''


def small_grid():
    return TextGrid(xmin=0.0, xmax=2.0, tiers=(
        Tier(name="words", xmin=0.0, xmax=2.0, intervals=(
            Interval(0.0, 0.5, ""),
            Interval(0.5, 1.2, "hello"),
            Interval(1.2, 2.0, "world"),
        )),
        Tier(name="phones", xmin=0.0, xmax=2.0, intervals=(
            Interval(0.5, 0.8, "HH"),
            Interval(0.8, 1.2, "OW"),
            Interval(1.2, 1.7, "W"),
            Interval(1.7, 2.0, "D"),
        )),
    ))


class TestParsing:
    def test_reference_file_fields(self):
        tg = parse_textgrid(REFERENCE)
        assert tg.xmin == 0.0 and tg.xmax == 2.5
        assert [t.name for t in tg.tiers] == ["words", "clicks"]
        words = tg.tier("words")
        assert words.kind == "interval"
        assert [iv.label for iv in words.intervals] == ["", "hello", "world"]
        assert words.intervals[1].xmin == 0.75
        clicks = tg.tier("clicks")
        assert clicks.kind == "point"
        assert clicks.intervals[0].xmin == clicks.intervals[0].xmax == 1.25
        assert clicks.intervals[0].label == "click"

    def test_indentation_and_blank_lines_are_ignored(self):
        messy = REFERENCE.replace("    ", "\t").replace("xmin = 0\n",
                                                        "\n  xmin = 0\n\n", 1)
        tg = parse_textgrid(messy)
        assert tg.tier("words").intervals[1].label == "hello"

    def test_crlf_input(self):
        tg = parse_textgrid(REFERENCE.replace("\n", "\r\n"))
        assert tg.xmax == 2.5

    def test_utf8_bom_is_stripped(self):
        tg = parse_textgrid("﻿" + REFERENCE)
        assert tg.xmax == 2.5

    def test_doubled_quotes_decode(self):
        text = REFERENCE.replace('text = "hello"', 'text = "say ""hi"" now"')
        tg = parse_textgrid(text)
        assert tg.tier("words").intervals[1].label == 'say "hi" now'

    def test_multiline_label(self):
        text = REFERENCE.replace('text = "hello"', 'text = "first\nsecond"')
        tg = parse_textgrid(text)
        assert tg.tier("words").intervals[1].label == "first\nsecond"

    def test_tiers_absent(self):
        text = ('File type = "ooTextFile"\nObject class = "TextGrid"\n'
                "xmin = 0\nxmax = 1\ntiers? <absent>\n")
        tg = parse_textgrid(text)
        assert tg.tiers == ()
        # the end of file may follow <absent> at once
        assert parse_textgrid(text.rstrip("\n")).tiers == ()


class TestParseErrors:
    def test_wrong_first_header_line(self):
        with pytest.raises(MalformedHeader):
            parse_textgrid('File type = "ooBinaryFile"\n' +
                           REFERENCE.split("\n", 1)[1])

    def test_wrong_object_class(self):
        with pytest.raises(MalformedHeader):
            parse_textgrid(REFERENCE.replace('"TextGrid"', '"Pitch"', 1))

    def test_short_format_rejected(self):
        short = ('File type = "ooTextFile"\nObject class = "TextGrid"\n'
                 "0\n2.5\n<exists>\n1\n")
        with pytest.raises(MalformedHeader) as exc:
            parse_textgrid(short.replace('Object class = "TextGrid"', "0"))
        assert "header" in str(exc.value).lower() or "Object" in str(exc.value)

    def test_empty_input(self):
        with pytest.raises(MalformedHeader):
            parse_textgrid("")

    def test_truncated_midfile(self):
        lines = REFERENCE.splitlines()
        for cut in (6, 10, 16, 20, len(lines) - 2):
            clipped = "\n".join(lines[:cut]) + "\n"
            with pytest.raises((TruncatedFile, MalformedBody)):
                parse_textgrid(clipped)

    def test_truncation_inside_declared_count_is_truncated_file(self):
        # remove the final points block but keep its size declaration
        clipped = REFERENCE[:REFERENCE.index("        points [1]:")]
        with pytest.raises(TruncatedFile):
            parse_textgrid(clipped)

    def test_bad_count_line(self):
        with pytest.raises(MalformedBody):
            parse_textgrid(REFERENCE.replace("size = 2", "size = two"))

    def test_unknown_tier_class(self):
        with pytest.raises(MalformedBody):
            parse_textgrid(REFERENCE.replace('"IntervalTier"', '"PitchTier"'))

    def test_trailing_garbage(self):
        with pytest.raises(MalformedBody):
            parse_textgrid(REFERENCE + "item [3]:\n")

    def test_content_after_absent_tiers(self):
        text = ('File type = "ooTextFile"\nObject class = "TextGrid"\n'
                "xmin = 0\nxmax = 1\ntiers? <absent>\nsize = 9\nanything\n")
        with pytest.raises(MalformedBody, match="unexpected content"):
            parse_textgrid(text)

    def test_overlapping_intervals(self):
        text = REFERENCE.replace("xmax = 0.75", "xmax = 0.9", 1)
        with pytest.raises(NonMonotoneIntervals):
            parse_textgrid(text)

    def test_negative_time(self):
        text = REFERENCE.replace("xmin = 0\n", "xmin = -1\n", 1)
        with pytest.raises(NonMonotoneIntervals):
            parse_textgrid(text)

    def test_interval_reversed(self):
        text = REFERENCE.replace(
            "            xmin = 0.75\n            xmax = 1.6",
            "            xmin = 1.6\n            xmax = 0.75")
        with pytest.raises(NonMonotoneIntervals):
            parse_textgrid(text)


class TestValidation:
    def test_duplicate_tier_names(self):
        tg = TextGrid(0.0, 1.0, tiers=(
            Tier("words", 0.0, 1.0, ()), Tier("words", 0.0, 1.0, ())))
        with pytest.raises(MalformedBody):
            validate_textgrid(tg)

    def test_tier_outside_file_range(self):
        tg = TextGrid(0.0, 1.0, tiers=(Tier("w", 0.0, 2.0, ()),))
        with pytest.raises(NonMonotoneIntervals):
            validate_textgrid(tg)

    def test_nan_time(self):
        tg = TextGrid(0.0, float("nan"), tiers=())
        with pytest.raises(NonMonotoneIntervals):
            validate_textgrid(tg)

    @pytest.mark.parametrize("tg", [
        TextGrid(0.0, 3.0, tiers=(Tier("words", 2.0, 1.0, ()),)),
        # a span's own ends compare exactly, with no TIME_TOL slack
        TextGrid(1.0 + 1e-10, 1.0, tiers=()),
    ], ids=["tier", "file-within-tolerance"])
    def test_reversed_span_rejected(self, tg):
        span = tg.tiers[0] if tg.tiers else tg
        message = re.escape(f"({span.xmin}, {span.xmax}) has xmin > xmax")
        with pytest.raises(NonMonotoneIntervals, match=message):
            validate_textgrid(tg)
        with pytest.raises(NonMonotoneIntervals, match=message):
            parse_textgrid(serialize_textgrid(tg))

    def test_valid_grid_passes(self):
        validate_textgrid(small_grid())

    @pytest.mark.parametrize("tg", [
        TextGrid(0.0, 1.0, tiers=(Tier("w", 0.0, 1.0 + TIME_TOL, ()),)),
        TextGrid(0.0, 1.0, tiers=(Tier("w", 0.0, 1.0, (
            Interval(0.0, 0.5 + TIME_TOL, "a"), Interval(0.5, 1.0, "b"))),)),
    ], ids=["tier-ends-past-file", "intervals-overlap"])
    def test_times_exactly_on_the_tolerance_pass(self, tg):
        validate_textgrid(tg)

    def test_unknown_tier_kind(self):
        # kinds are case-sensitive: "Interval" is neither of the two
        tg = TextGrid(0.0, 1.0, tiers=(
            Tier("words", 0.0, 1.0, (), kind="Interval"),))
        with pytest.raises(MalformedBody, match="'words'.*'Interval'"):
            validate_textgrid(tg)
        with pytest.raises(MalformedBody, match="'words'.*'Interval'"):
            serialize_textgrid(tg)


def random_label(rng: random.Random) -> str:
    pool = ["", "sil", "hello", 'quo"te', 'a""b', "two words", "ünïcode",
            "日本語", "line\nbreak", "ends with quote\"", "\"starts", "  pad  ",
            "tab\there", "a\n\nb", "trail\n"]
    return rng.choice(pool)


def random_grid(rng: random.Random) -> TextGrid:
    xmax = rng.choice([rng.uniform(0.5, 99.0), float(rng.randint(1, 50)),
                       rng.uniform(0.5, 99.0)])
    tiers = []
    for t in range(rng.randint(1, 4)):
        if rng.random() < 0.25:
            times = sorted(rng.uniform(0.0, xmax)
                           for _ in range(rng.randint(0, 6)))
            marks = tuple(Interval(x, x, random_label(rng)) for x in times)
            tiers.append(Tier(f"pt{t}", 0.0, xmax, marks, kind="point"))
            continue
        cuts = sorted({rng.uniform(0.0, xmax)
                       for _ in range(rng.randint(0, 8))})
        bounds = [0.0] + cuts + [xmax]
        ivs = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            if rng.random() < 0.2:
                continue                      # leave a gap
            ivs.append(Interval(a, b, random_label(rng)))
        tiers.append(Tier(f"tier {t} ß", 0.0, xmax, tuple(ivs)))
    return TextGrid(0.0, xmax, tuple(tiers))


class TestRoundTrip:
    def test_reference_round_trip(self):
        tg = parse_textgrid(REFERENCE)
        assert parse_textgrid(serialize_textgrid(tg)) == tg

    def test_small_grid_round_trip(self):
        tg = small_grid()
        assert parse_textgrid(serialize_textgrid(tg)) == tg

    def test_seeded_random_grids_round_trip(self):
        rng = random.Random(2024)
        for _ in range(60):
            tg = random_grid(rng)
            validate_textgrid(tg)
            back = parse_textgrid(serialize_textgrid(tg))
            assert back == tg

    def test_serialization_is_stable(self):
        tg = small_grid()
        once = serialize_textgrid(tg)
        assert serialize_textgrid(parse_textgrid(once)) == once

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                   max_size=40))
    def test_any_label_round_trips(self, label):
        # the line-oriented format normalizes CR/CRLF to LF, like Praat;
        # everything else must come back byte-identical
        tg = TextGrid(0.0, 1.0, tiers=(
            Tier("w", 0.0, 1.0, (Interval(0.0, 1.0, label),)),))
        back = parse_textgrid(serialize_textgrid(tg))
        expected = label.replace("\r\n", "\n").replace("\r", "\n")
        assert back.tiers[0].intervals[0].label == expected


class TestFileReading:
    def test_round_trip_via_disk(self, tmp_path):
        path = tmp_path / "x.TextGrid"
        path.write_text(serialize_textgrid(small_grid()), encoding="utf-8")
        assert read_textgrid_file(path) == small_grid()

    def test_utf16_rejected(self, tmp_path):
        path = tmp_path / "bad.TextGrid"
        path.write_bytes(REFERENCE.encode("utf-16"))
        with pytest.raises(MalformedHeader):
            read_textgrid_file(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.TextGrid"
        path.write_bytes(b"\xc3\x28" + REFERENCE.encode("utf-8"))
        with pytest.raises(MalformedHeader):
            read_textgrid_file(path)


class TestAlignmentLookups:
    def test_word_intervals_drop_silence(self):
        tg = small_grid()
        words = word_intervals(tg, "words")
        assert [w.label for w in words] == ["hello", "world"]

    def test_default_silence_labels(self):
        assert SILENCE_LABELS == frozenset({"", "sil", "sp", "spn"})

    def test_phones_by_center_containment(self):
        tg = small_grid()
        hello = word_intervals(tg, "words")[0]
        phones = phones_for_word(tg, "phones", hello)
        assert [p.label for p in phones] == ["HH", "OW"]

    def test_phone_on_boundary_goes_to_right_word(self):
        # a phone centered exactly on a word's xmax belongs to the next word
        tg = TextGrid(0.0, 2.0, tiers=(
            Tier("words", 0.0, 2.0, (Interval(0.0, 1.0, "a"),
                                     Interval(1.0, 2.0, "b"))),
            Tier("phones", 0.0, 2.0, (Interval(0.5, 1.5, "X"),)),
        ))
        a, b = word_intervals(tg, "words")
        assert phones_for_word(tg, "phones", a) == ()
        assert [p.label for p in phones_for_word(tg, "phones", b)] == ["X"]

    def test_unknown_tier(self):
        with pytest.raises(UnknownTier):
            word_intervals(small_grid(), "syllables")

    def test_point_tier_rejected_for_words(self):
        tg = TextGrid(0.0, 1.0, tiers=(
            Tier("words", 0.0, 1.0, (Interval(0.5, 0.5, "x"),), kind="point"),))
        with pytest.raises(UnknownTier):
            word_intervals(tg, "words")
