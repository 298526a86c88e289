"""Parser, serializer, and validation tests for the platform file format."""

import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mechx import MAX_INT_DIGITS, specfile
from mechx.capacity import analyze
from mechx.model import (
    KINDS,
    Continuous,
    DiscreteStates,
    DofGroup,
    NonIntegralSpan,
    Platform,
    ProcessorSpec,
    resolve_levels,
)
from mechx.specfile import (
    DatasetCorrupt,
    Diagnostic,
    DuplicateGroupLabel,
    MissingPlatformName,
    ParseError,
    SpecFileError,
    dataset_lookup,
    is_computable,
    load_dataset,
    parse_platform,
    serialize_platform,
    validate,
)
from mechx.specfile import _tokenize

from conftest import SIMPLE_ROBOT, random_document


class TestParseReference:
    def test_simple_robot_shape(self):
        doc = parse_platform(SIMPLE_ROBOT)
        p = doc.platform
        assert p.name == "simple-robot"
        assert p.kind == "artificial"
        assert p.year is None
        assert p.processor is None
        assert [g.label for g in p.groups] == ["gripper", "servo", "led"]

    def test_simple_robot_groups(self):
        p = parse_platform(SIMPLE_ROBOT).platform
        gripper, servo, led = p.groups
        assert gripper.levels_spec == DiscreteStates(2)
        assert gripper.multiplicity == 1
        assert isinstance(servo.levels_spec, Continuous)
        assert servo.levels_spec.minimum == 0
        assert servo.levels_spec.maximum == 360
        assert servo.levels_spec.resolution == 0.1
        assert servo.multiplicity == 2
        assert led.tags == frozenset({"non-mechanical"})
        assert not led.is_mechanical
        assert gripper.is_mechanical and servo.is_mechanical

    def test_simple_robot_line_map(self):
        doc = parse_platform(SIMPLE_ROBOT)
        lm = doc.source_line_map
        assert lm["platform"] == 1
        assert lm["kind"] == 2
        # A group's line is kept on the group, not in the map.
        assert [g.__dict__["_line"] for g in doc.platform.groups] == [3, 4, 5]
        assert not any(key.startswith("group:") for key in lm)

    def test_full_statement_set(self):
        text = (
            'platform "rig"\n'
            "kind artificial\n"
            "year 2011\n"
            'processor "chip" transistors 1000\n'
            'note "first"\n'
            'note "second"\n'
            'group "a" count 3 states 4\n'
        )
        doc = parse_platform(text)
        p = doc.platform
        assert p.year == 2011
        assert p.processor.name == "chip"
        assert p.processor.transistors == 1000
        assert p.notes == ("first", "second")
        assert doc.source_line_map["year"] == 3
        assert doc.source_line_map["note[1]"] == 6

    def test_unnamed_processor(self):
        text = 'platform "rig"\nkind artificial\nprocessor transistors 5\n'
        p = parse_platform(text).platform
        assert p.processor.name == ""
        assert p.processor.transistors == 5

    def test_scientific_transistor_count_flagged(self):
        text = 'platform "rig"\nkind artificial\nprocessor "c" transistors 4.7e7\n'
        doc = parse_platform(text)
        assert doc.platform.processor.transistors == 47_000_000
        assert doc.scientific_transistors

    def test_kind_defaulting(self):
        doc = parse_platform('platform "rig"\ngroup "a" count 1 states 2\n')
        assert doc.platform.kind == "artificial"
        assert doc.kind_defaulted
        explicit = parse_platform('platform "rig"\nkind natural\n')
        assert not explicit.kind_defaulted

    def test_comments_and_blank_lines(self):
        text = (
            "# leading comment\n"
            "\n"
            'platform "rig"   # trailing comment\n'
            "   \n"
            "kind natural\n"
            "# done\n"
        )
        p = parse_platform(text).platform
        assert p.name == "rig"
        assert p.kind == "natural"

    def test_crlf_accepted(self):
        text = 'platform "rig"\r\nkind natural\r\n'
        assert parse_platform(text).platform.kind == "natural"

    def test_string_escapes(self):
        text = 'platform "a\\"b\\\\c\\nd\\te"\n'
        assert parse_platform(text).platform.name == 'a"b\\c\nd\te'

    def test_negative_range_bounds(self):
        text = 'platform "r"\ngroup "j" count 2 range -119.5 119.5 resolution 0.1\n'
        g = parse_platform(text).platform.groups[0]
        assert g.levels_spec.minimum == -119.5
        assert g.levels_spec.maximum == 119.5


# Each entry: (document text, expected exception type, expected 1-based line).
BAD_DOCS = [
    ("", MissingPlatformName, None),
    ("kind artificial\n", MissingPlatformName, None),
    ('platform "a"\nplatform "b"\n', ParseError, 2),
    ('platform "a"\nkind artificial\nkind natural\n', ParseError, 3),
    ('platform "a"\nyear 2000\nyear 2001\n', ParseError, 3),
    (
        'platform "a"\nprocessor transistors 1\nprocessor transistors 2\n',
        ParseError,
        3,
    ),
    ('platform "a"\nkind robot\n', ParseError, 2),
    ('platform "a"\nwibble 3\n', ParseError, 2),
    ('platform "a"\ngroup "g" count 1 states 2\ngroup "g" count 2 states 3\n',
     DuplicateGroupLabel, 3),
    ('platform "a"\ngroup "g" count 1 range 10 10 resolution 0.1\n',
     ParseError, 2),
    ('platform "a"\ngroup "g" count 1 range 5 4 resolution 0.1\n',
     ParseError, 2),
    ('platform "a"\ngroup "g" count 1 range 0 1 resolution -0.5\n',
     ParseError, 2),
    ('platform "a"\ngroup "g" count 1 range 0 1e400 resolution 1\n',
     ParseError, 2),
    ('platform "a"\ngroup "g" count 1 range 0 1e308 resolution 1e-308\n',
     ParseError, 2),
    ('platform "a"\ngroup "g" count 1 range -1e308 1e308 resolution 1\n',
     ParseError, 2),
    ('platform "a"\ngroup "g" count 0 states 2\n', ParseError, 2),
    ('platform "a"\ngroup "g" count 1 states 0\n', ParseError, 2),
    ('platform "a"\ngroup "g" count 1\n', ParseError, 2),
    ('platform "a"\ngroup "g" states 2\n', ParseError, 2),
    ('platform "a"\ngroup "g" count 1 states 2 extra\n', ParseError, 2),
    ('platform "a"\ngroup "g" count 1 states 2 tag\n', ParseError, 2),
    ('platform "a"\ngroup "g" count 1 states 2 tag nope\n', ParseError, 2),
    ('platform "a"\nyear 19.5\n', ParseError, 2),
    ('platform "a"\nyear soon\n', ParseError, 2),
    ('platform "a" extra\n', ParseError, 1),
    ('platform\n', ParseError, 1),
    ('platform "unterminated\n', ParseError, 1),
    ('platform "bad \\q escape"\n', ParseError, 1),
    ('"stray string"\n', ParseError, 1),
    ('platform "a"\nnote unquoted\n', ParseError, 2),
    ('platform "a"\nprocessor "c" 100\n', ParseError, 2),
    ('platform "a"\nprocessor "c" transistors many\n', ParseError, 2),
]


class TestParseErrors:
    @pytest.mark.parametrize("text,exc,line", BAD_DOCS)
    def test_rejected(self, text, exc, line):
        with pytest.raises(exc) as info:
            parse_platform(text)
        if line is not None:
            assert info.value.line == line

    def test_error_hierarchy(self):
        assert issubclass(DuplicateGroupLabel, ParseError)
        assert issubclass(MissingPlatformName, SpecFileError)
        assert issubclass(ParseError, SpecFileError)
        assert issubclass(SpecFileError, ValueError)

    def test_error_message_mentions_line(self):
        with pytest.raises(ParseError) as info:
            parse_platform('platform "a"\nwibble\n')
        assert "line 2" in str(info.value)

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                'platform "a"\nkind\n',
                "line 2: expected 'artificial' or 'natural', found end of line",
            ),
            (
                'platform "a"\nkind robot\n',
                "line 2: expected 'artificial' or 'natural', found 'robot'",
            ),
            (
                'platform "a"\nkind "natural"\n',
                "line 2: expected 'artificial' or 'natural', found 'natural'",
            ),
            ('platform "a"\nplatform "b"\n', "line 2: duplicate 'platform' statement"),
            (
                'platform "a"\nkind natural\nkind natural\n',
                "line 3: duplicate 'kind' statement",
            ),
            ('platform "a"\nyear 1\nyear 1\n', "line 3: duplicate 'year' statement"),
            (
                'platform "a"\nprocessor transistors 1\nprocessor "p" transistors 1\n',
                "line 3: duplicate 'processor' statement",
            ),
            (
                'platform "a"\nprocessor "p"\n',
                "line 2: expected 'transistors', found end of line",
            ),
            (
                'platform "a"\nprocessor\n',
                "line 2: expected 'transistors', found end of line",
            ),
            ('platform ""\n', "line 1: platform name must be non-empty"),
        ],
    )
    def test_statement_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_platform(text)
        assert str(info.value) == message


# Each entry: one line and either its exact tokens or the exact str() of
# the error it raises when read as line 7.
TOKEN_LINES = [
    (r'"back\\slash"', [("string", "back\\slash")]),
    (r'"say \"hi\""', [("string", 'say "hi"')]),
    (r'"n\nt\t"', [("string", "n\nt\t")]),
    (r'"\q then" "unterminated', "line 7: unknown escape sequence '\\q'"),
    (r'"ok" "bad \x', "line 7: unknown escape sequence '\\x'"),
    ('"dangling \\', "line 7: dangling backslash in string"),
    ('"\\', "line 7: dangling backslash in string"),
    (r'"escaped backslash at the end \\', "line 7: unterminated string literal"),
    ('"no end', "line 7: unterminated string literal"),
    ('"a" "', "line 7: unterminated string literal"),
    ('""', [("string", "")]),
    ('"" ""', [("string", ""), ("string", "")]),
    ('word"str"word', [("word", "word"), ("string", "str"), ("word", "word")]),
    ('"s"w', [("string", "s"), ("word", "w")]),
    ('"a # b" # c "d', [("string", "a # b")]),
    ('"a"# c', [("string", "a")]),
    ("a#b c", [("word", "a")]),
    ("# only", []),
    ("", []),
    (" \t\r ", []),
    ('\ta\r b\t"c"\r', [("word", "a"), ("word", "b"), ("string", "c")]),
    ("count 1e3 -2 tag", [("word", "count"), ("word", "1e3"), ("word", "-2"), ("word", "tag")]),
    ("a\\b", [("word", "a\\b")]),
]


@pytest.mark.parametrize("line,expected", TOKEN_LINES)
def test_tokens_of_a_line(line, expected):
    if isinstance(expected, str):
        with pytest.raises(ParseError) as info:
            _tokenize(line, 7)
        assert str(info.value) == expected
    else:
        assert _tokenize(line, 7) == expected


class TestSerialize:
    def test_canonical_form(self):
        doc = parse_platform(SIMPLE_ROBOT)
        out = serialize_platform(doc.platform)
        assert out == SIMPLE_ROBOT

    def test_statement_order_normalized(self):
        # Statements in an unusual order serialize into the fixed layout.
        text = (
            'year 2001\nkind artificial\nplatform "rig"\n'
            'group "a" count 1 states 2\n'
        )
        out = serialize_platform(parse_platform(text).platform)
        lines = out.splitlines()
        assert lines[0] == 'platform "rig"'
        assert lines[1] == "kind artificial"
        assert lines[2] == "year 2001"

    def test_tags_sorted(self):
        text = 'platform "r"\ngroup "g" count 1 states 2 tag "z" tag "a"\n'
        out = serialize_platform(parse_platform(text).platform)
        assert 'tag "a" tag "z"' in out

    def test_escapes_round_trip(self):
        name = 'he said "hi"\\\n\tend'
        source = 'platform "he said \\"hi\\"\\\\\\n\\tend"\n'
        text = serialize_platform(parse_platform(source).platform)
        assert parse_platform(text).platform.name == name

    def test_carriage_return_is_refused_by_name(self):
        # A CR ends a line and has no escape; the text would not read back.
        group = DofGroup("g", 1, DiscreteStates(2), {"t\r"})
        for platform, shown in (
            (Platform("a\rb", "artificial"), "'a\\rb'"),
            (Platform("p", "natural", notes=("ok", "x\r\n")), "'x\\r\\n'"),
            (Platform("p", "natural", (group,)), "'t\\r'"),
        ):
            with pytest.raises(ValueError) as info:
                serialize_platform(platform)
            assert str(info.value) == (
                f"cannot write {shown} as a .mechx string: it holds a carriage return"
            )

    def test_idempotent(self):
        once = serialize_platform(parse_platform(SIMPLE_ROBOT).platform)
        twice = serialize_platform(parse_platform(once).platform)
        assert once == twice

    def test_shortest_number_form(self):
        text = 'platform "r"\ngroup "g" count 1 range 0 360 resolution 0.1\n'
        out = serialize_platform(parse_platform(text).platform)
        assert "range 0 360 resolution 0.1" in out
        assert "0.30000000000000004" not in out


def test_random_documents_round_trip():
    rng = random.Random(20260821)
    for _ in range(1000):
        text = random_document(rng)
        first = parse_platform(text).platform
        canon = serialize_platform(first)
        second = parse_platform(canon).platform
        assert first == second
        assert serialize_platform(second) == canon
        left = analyze(first)
        right = analyze(second)
        assert left.count_all.log10 == right.count_all.log10
        assert left.count_all.exact == right.count_all.exact
        assert left.count_mechanical.exact == right.count_mechanical.exact


_DIGITS = 10**MAX_INT_DIGITS - 1  # the largest integer a literal may spell
_COUNTS = st.integers(1, 1000) | st.integers(1, _DIGITS)


@st.composite
def _continuous(draw):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    lo = draw(finite)
    hi = draw(st.floats(min_value=lo, allow_nan=False, allow_infinity=False))
    res = draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    try:
        return Continuous(lo, hi, res)
    except ValueError:  # an empty range, a zero resolution or an infinite ratio
        assume(False)


_GROUP = st.builds(
    DofGroup,
    st.text(min_size=1),
    _COUNTS,
    st.builds(DiscreteStates, _COUNTS) | _continuous(),
    st.frozensets(st.text(), max_size=3),
)
_PLATFORMS = st.builds(
    Platform,
    st.text(min_size=1),
    st.sampled_from(KINDS),
    st.lists(_GROUP, max_size=4, unique_by=lambda g: g.label),
    st.none() | st.integers(-_DIGITS, _DIGITS),
    st.none() | st.builds(ProcessorSpec, st.text(), st.integers(0, int(sys.float_info.max))),
    st.lists(st.text(), max_size=3),
)


@given(_PLATFORMS)
@settings(max_examples=300, deadline=None)
def test_every_platform_round_trips_or_names_its_carriage_return(platform):
    """Every Platform built in code reads back equal from its text, unless
    a string in it holds a carriage return, which no .mechx string can."""
    p = platform
    strings = [p.name, *p.notes, *(s for g in p.groups for s in (g.label, *g.tags))]
    strings += [p.processor.name] if p.processor else []
    with_cr = [s for s in strings if "\r" in s]
    if with_cr:
        with pytest.raises(ValueError, match="carriage return") as info:
            serialize_platform(p)
        assert any(repr(s) in str(info.value) for s in with_cr)
    else:
        assert parse_platform(serialize_platform(p)).platform == p


def test_random_documents_mutation_rejected():
    # Breaking one token of a valid document must fail with a located error.
    rng = random.Random(97)
    rejected = 0
    for _ in range(200):
        text = serialize_platform(parse_platform(random_document(rng)).platform)
        lines = text.splitlines()
        idx = rng.randrange(len(lines))
        lines[idx] = lines[idx] + ' "'
        mutated = "\n".join(lines) + "\n"
        with pytest.raises(SpecFileError) as info:
            parse_platform(mutated)
        if getattr(info.value, "line", None) is not None:
            assert info.value.line == idx + 1
            rejected += 1
    assert rejected > 150


class TestValidate:
    def test_clean_document(self):
        diags = validate(parse_platform(SIMPLE_ROBOT))
        # The only expected entry is the informational missing-processor one.
        assert all(d.message.startswith("informational:") for d in diags)

    def test_non_integral_span_warning(self):
        text = 'platform "r"\ngroup "g" count 1 range 0 10.05 resolution 0.1\n'
        diags = validate(parse_platform(text))
        hits = [d for d in diags if "span" in d.message]
        assert len(hits) == 1
        assert hits[0].line == 2

    def test_natural_with_processor(self):
        text = 'platform "r"\nkind natural\nprocessor "c" transistors 5\n'
        diags = validate(parse_platform(text))
        assert any("natural" in d.message for d in diags)

    def test_scientific_transistors(self):
        text = 'platform "r"\nkind artificial\nprocessor "c" transistors 1e6\n'
        diags = validate(parse_platform(text))
        assert any("scientific" in d.message for d in diags)

    def test_kind_default_informational(self):
        diags = validate(parse_platform('platform "r"\n'))
        assert any(
            d.message.startswith("informational:") and "kind" in d.message
            for d in diags
        )

    def test_zero_groups_informational(self):
        diags = validate(parse_platform('platform "r"\nkind natural\n'))
        assert any("no groups" in d.message for d in diags)

    def test_sorted_by_line(self):
        text = (
            'platform "r"\n'
            "kind natural\n"
            'processor "c" transistors 1e6\n'
            'group "g" count 1 range 0 10.05 resolution 0.1\n'
        )
        diags = validate(parse_platform(text))
        lines = [d.line for d in diags if d.line is not None]
        assert lines == sorted(lines)

    def test_diagnostic_str(self):
        d = Diagnostic(3, "uh oh")
        assert str(d) == "warning: line 3: uh oh"


class TestDatasetAccess:
    def test_lookup_by_stem(self):
        doc = dataset_lookup("nao")
        assert doc.platform.name == "NAO"

    def test_lookup_by_name(self):
        assert dataset_lookup("NAO").platform.name == "NAO"
        assert dataset_lookup("big dog").platform.name == "Big Dog"
        assert dataset_lookup("Bellagio Fountain").platform.name.startswith(
            "Bellagio"
        )

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            dataset_lookup("no-such-platform")

    def test_load_dataset_cached(self):
        first = load_dataset()
        second = load_dataset()
        assert [d.platform.name for d in first] == [
            d.platform.name for d in second
        ]

    def test_is_computable(self):
        assert is_computable(dataset_lookup("nao").platform)
        assert not is_computable(dataset_lookup("human-wa-eval").platform)

    def test_dataset_corrupt_is_runtime_error(self):
        assert issubclass(DatasetCorrupt, RuntimeError)


class TestCountErrorsNameTheirLine:
    MESSAGE = (
        "group 'g': span/resolution = 3.3333333333333335 deviates from 3 by "
        "more than 1e-09 (relative)"
    )

    def test_a_group_read_from_a_file_names_its_line(self):
        doc = parse_platform(
            'platform "p"\ngroup "a" count 1 states 2\n\n# odd\n'
            'group "g" count 2 range 0 1 resolution 0.3\n'
        )
        with pytest.raises(NonIntegralSpan) as info:
            analyze(doc.platform)
        exc = info.value
        assert exc.line == 5
        assert exc.group is doc.platform.groups[1]
        assert (exc.label, exc.ratio, exc.nearest) == ("g", 3.3333333333333335, 3)
        assert str(exc) == f"line 5: {self.MESSAGE}"
        # The line is kept outside the group's fields.
        built = DofGroup("g", 2, Continuous(0.0, 1.0, 0.3))
        assert exc.group == built and hash(exc.group) == hash(built)
        assert repr(exc.group) == repr(built)

    def test_a_group_built_in_code_has_no_line(self):
        group = DofGroup("g", 2, Continuous(0, 1, 0.3))
        with pytest.raises(NonIntegralSpan) as info:
            analyze(Platform("p", "artificial", (group,)))
        assert (info.value.line, info.value.group) == (0, group)
        assert info.value.group is group
        assert str(info.value) == self.MESSAGE
        with pytest.raises(NonIntegralSpan, match=f"^{re.escape(self.MESSAGE)}$"):
            resolve_levels(group)


class TestTransistorCounts:
    @pytest.mark.parametrize(
        "literal",
        [str(2**53 + 1), "123456789012345678901", "+7", str(int(sys.float_info.max))],
        ids=["2^53+1", "21-digits", "signed", "largest-float"],
    )
    def test_integer_literal_is_read_exactly(self, literal):
        doc = parse_platform(f'platform "p"\nprocessor transistors {literal}\n')
        assert doc.platform.processor.transistors == int(literal)
        assert not doc.scientific_transistors
        assert all(d.line == 1 for d in validate(doc))  # informational notices only
        again = parse_platform(serialize_platform(doc.platform))
        assert again.platform.processor.transistors == int(literal)

    def test_float_literal_is_rounded_and_flagged(self):
        doc = parse_platform('platform "p"\nprocessor transistors 9007199254740993.0\n')
        assert doc.platform.processor.transistors == 2**53
        assert doc.scientific_transistors

    @pytest.mark.parametrize(
        "literal, shown",
        [
            ("1" + "0" * 400, "'" + "1" + "0" * 39 + "'... (401 characters)"),
            (str(int(sys.float_info.max) + 1), f"'{str(int(sys.float_info.max))[:40]}'... (309 characters)"),
            ("-" + "9" * 100, "'-" + "9" * 39 + "'... (101 characters)"),
            ("-5", "'-5'"),
            ("1.5", "'1.5'"),
            ("1e400", "'1e400'"),
        ],
        ids=["401-digits", "above-largest-float", "long-negative", "negative", "fraction", "inf"],
    )
    def test_out_of_range_count_quotes_at_most_40_characters(self, literal, shown):
        with pytest.raises(ParseError) as info:
            parse_platform(f'platform "p"\nprocessor transistors {literal}\n')
        assert str(info.value) == (
            "line 2: transistor count must be an integer from 0 to "
            f"1.7976931348623157e+308, found {shown}"
        )

    def test_count_over_the_digit_limit(self):
        with pytest.raises(ParseError) as info:
            parse_platform(f'platform "p"\nprocessor transistors {"9" * 4301}\n')
        assert str(info.value) == "line 2: transistor count has 4301 digits, above the limit of 4300"


@pytest.mark.parametrize(
    "statement, what",
    [
        ('group "g" count ٣ states 2', "multiplicity (an integer), found '٣'"),
        ('group "g" count 1 states ３', "state count (an integer), found '３'"),
        ("year २०११", "year (an integer), found '२०११'"),
        ('group "g" count 1 range ٠ 1 resolution 0.5', "range minimum (a number), found '٠'"),
        ("processor transistors ٣", "transistor count (a number), found '٣'"),
        ('group "g" count 1_0 states 2', "multiplicity (an integer), found '1_0'"),
    ],
    ids=["arabic-indic", "fullwidth", "devanagari-year", "range", "transistors", "underscore"],
)
def test_only_ascii_digits_make_a_number(statement, what):
    with pytest.raises(ParseError) as info:
        parse_platform(f'platform "p"\n{statement}\n')
    assert str(info.value) == f"line 2: expected {what}"


@pytest.mark.parametrize(
    "statement, message",
    [
        ("\xa0", "unknown keyword '\\xa0'"),
        ("\x1f", "unknown keyword '\\x1f'"),
        ("year\xa01", "unknown keyword 'year\\xa01'"),
        ("kind\u3000natural", "unknown keyword 'kind\\u3000natural'"),
        ("kind natural\xa0", "expected 'artificial' or 'natural', found 'natural\\xa0'"),
        ("note \x0c", "expected note text (a quoted string), found '\\x0c'"),
    ],
    ids=["nbsp", "unit-separator", "nbsp-in-word", "ideographic-space", "trailing-nbsp", "form-feed"],
)
def test_only_space_tab_and_cr_separate_tokens(statement, message):
    with pytest.raises(ParseError) as info:
        parse_platform(f'platform "p"\n{statement}\n')
    assert str(info.value) == f"line 2: {message}"
    assert parse_platform('platform "a\xa0b\x1f"\n').platform.name == "a\xa0b\x1f"


@pytest.mark.parametrize(
    "after, found",
    [('"x"', "'x'"), ("x", "'x'"), ("", "end of line"), ('"" states 2', "''")],
)
def test_group_names_the_token_after_count(after, found):
    with pytest.raises(ParseError) as info:
        parse_platform(f'platform "p"\ngroup "g" count 1 {after}\n')
    assert str(info.value) == f"line 2: expected 'states' or 'range', found {found}"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_each_group_keeps_the_line_of_its_statement(seed):
    # A parsed group's line lives on the group only.
    text = random_document(random.Random(seed))
    doc = parse_platform(text)
    statements = [
        n for n, line in enumerate(text.split("\n"), start=1) if line.startswith("group ")
    ]
    assert [g.__dict__["_line"] for g in doc.platform.groups] == statements
    assert not any(key.startswith("group:") for key in doc.source_line_map)


# The number format as a regular expression, which the reader once used.
_NUM_RE = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?\Z")


def _number_by_regex(self, what):
    kind, text = self._next(what)
    if kind != "word" or not _NUM_RE.match(text):
        raise ParseError(self.lineno, f"expected {what} (a number), found {text!r}")
    return float(text), text


def _outcome(text):
    try:
        return parse_platform(text).platform
    except ParseError as exc:
        return str(exc)


@given(st.text("0123456789+-.eE_in٣", min_size=1, max_size=12))
@settings(max_examples=400, deadline=None)
@example("inf")
@example("nan")
@example("1_0")
@example(".")
@example("e5")
@example("1e")
@example("+.5")
@example("5.")
@example("-.5e-3")
@example("1.5E+3")
@example("1e999")
@example("1.2.3")
@example("1e5e5")
@example("--1")
def test_numbers_are_read_as_the_regex_read_them(word):
    statements = [
        f'group "g" count 1 range {word} 1e300 resolution 1e299',
        f'group "g" count 1 range -1 1 resolution {word}',
        f"processor transistors {word}",
    ]
    for statement in statements:
        text = f'platform "p"\n{statement}\n'
        with mock.patch.object(specfile._Cursor, "number", _number_by_regex):
            expected = _outcome(text)
        assert _outcome(text) == expected
