"""Both description-file readers on any text: a result or a line-numbered
error and never another exception, lines that end at LF, CRLF or CR only,
and parse time that grows linearly with the file."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from mechx import _lines
from mechx.aemachine import MachineFormatError, parse_machine
from mechx.specfile import ParseError, SpecFileError, parse_platform

# Line breaks that str.splitlines() knows and the readers do not.
OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# Text is drawn from these pieces more often than from arbitrary characters.
_PIECES = [
    '"', "\\", "#", " ", "\t", "\r", "\n", "\r\n", "\xa0", "\x1f", "\u3000",
    *OTHER_BREAKS, "n", "t", "q", "x", "\u00e9", "0", "1", "-1", "2.5", "1e3", "nan",
    'platform "p"\n', "platform", "kind", "natural", "year", "processor",
    "transistors", "note", "group", '"g"', "count", "states", "range",
    "resolution", "tag", 'group "g" count 2 states 3', "range 0 1 resolution 0.5",
    "flavor computation\n", "states a b\n", "symbols blank e 1\n", "init a\n",
    "rule a e -> b 1 R\n", "tape 1 1\n", "flavor", "symbols", "blank", "init",
    "rule", "->", "L", "S", "R", "tape",
]
_TEXT = st.lists(
    st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)), max_size=40
).map("".join)


@given(_TEXT)
@settings(max_examples=200, deadline=None)
def test_parse_platform_raises_only_spec_file_errors(text):
    try:
        parse_platform(text)
    except SpecFileError as exc:
        assert 0 <= exc.line <= len(_lines(text))


@given(_TEXT)
@settings(max_examples=200, deadline=None)
def test_parse_machine_raises_only_machine_format_errors(text):
    try:
        parse_machine(text)
    except MachineFormatError as exc:
        assert 0 <= exc.line <= len(_lines(text))


# A machine description, one statement a line, and four faults that the
# reader finds only once every statement is read: the faulty statement
# and the message it gives.
_STATEMENTS = [
    "flavor computation", "states a b", "symbols blank e 1", "init a",
    "rule a e -> b 1 R", "rule b 1 -> a e L", "tape 1 1",
]
_FAULTS = {
    "init a": ("init zz", "initial state 'zz' not declared"),
    "tape 1 1": ("tape 1 z", "tape cell 1 holds undeclared symbol 'z'"),
    "rule a e -> b 1 R": ("rule a e -> c 1 R", "transition ('a','e') references unknown state"),
    "states a b": ("states a a", "duplicate state names"),
}


@given(
    st.sampled_from(sorted(_FAULTS)),
    st.permutations(_STATEMENTS),
    st.lists(st.sampled_from(["", "# note", " \t", "  # init zz"]), max_size=12),
    st.lists(st.integers(0, len(_STATEMENTS)), max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_a_fault_found_after_reading_names_its_line(fault, order, fillers, places):
    # The statements go in any order, with blank and comment lines between
    # them; the error names the faulty statement's line.
    lines = [_FAULTS[s][0] if s == fault else s for s in order]
    for filler, place in zip(fillers, places):
        lines.insert(min(place, len(lines)), filler)
    faulty = lines.index(_FAULTS[fault][0]) + 1
    with pytest.raises(MachineFormatError) as info:
        parse_machine("\n".join(lines) + "\n")
    assert (info.value.line, info.value.message) == (faulty, _FAULTS[fault][1])
    assert parse_machine("\n".join(order) + "\n").tape == {1: "1"}


@pytest.mark.parametrize("sep", OTHER_BREAKS, ids=lambda s: f"U+{ord(s):04X}")
def test_only_lf_crlf_and_cr_end_a_line(sep):
    doc = parse_platform(f'platform "p"\n# form{sep}feed\r\nyear 1\rkind natural\n')
    assert list(doc.source_line_map.items()) == [("platform", 1), ("year", 3), ("kind", 4)]
    with pytest.raises(ParseError) as info:
        parse_platform(f'platform "p"\nyear{sep}1\n')
    assert str(info.value) == f"line 2: unknown keyword {f'year{sep}1'!r}"
    with pytest.raises(MachineFormatError) as info:
        parse_machine(f"flavor computation # a{sep}b\r\nstates q\rsymbols blank e\ninit q\nbogus\n")
    assert str(info.value) == "line 5: unknown keyword 'bogus'"


@pytest.mark.parametrize(
    "sep, blank",
    [
        (" ", True), ("\t", True), (" \t  ", True), ("\xa0", False), ("\u3000", False),
        ("\u2003", False), ("\x1f", False), *((brk, False) for brk in OTHER_BREAKS),
    ],
    ids=lambda s: "-".join(f"U+{ord(c):04X}" for c in s) if isinstance(s, str) else None,
)
def test_both_readers_split_words_at_the_same_blanks(sep, blank):
    # Space, tab and CR are the blanks of both formats (CR also ends a
    # line); any other character belongs to the word it stands in.
    platform_text = f'platform "p"\nkind{sep}natural\n'
    machine_text = f"flavor computation\nstates a\nsymbols blank e\ninit{sep}a\n"
    if blank:
        assert parse_platform(platform_text).platform.kind == "natural"
        assert parse_machine(machine_text).machine.initial_state == "a"
        return
    with pytest.raises(ParseError) as info:
        parse_platform(platform_text)
    assert str(info.value) == f"line 2: unknown keyword {f'kind{sep}natural'!r}"
    with pytest.raises(MachineFormatError) as info:
        parse_machine(machine_text)
    assert str(info.value) == f"line 4: unknown keyword {f'init{sep}a'!r}"
    machine = parse_machine(
        f"flavor computation\nstates a{sep}b\nsymbols blank e{sep}x\ninit a{sep}b\n"
    ).machine
    assert (machine.states, machine.symbols) == ((f"a{sep}b",), (f"e{sep}x",))


def test_lines_splits_like_text_mode_open():
    assert _lines("a\nb\r\nc\rd\x0ce\u2028f") == ["a", "b", "c", "d\x0ce\u2028f"]
    assert _lines("a\r\r\n\n") == ["a", "", "", ""]
    assert _lines("") == [""]


def _seconds(parse, text):
    start = time.perf_counter()
    parse(text)
    return time.perf_counter() - start


def test_twenty_thousand_groups_parse_in_linear_time():
    text = 'platform "p"\n' + "".join(
        f'group "g{i}" count 1 states 2\n' for i in range(20000)
    )
    assert _seconds(parse_platform, text) < 5


def test_twenty_thousand_states_parse_in_linear_time():
    n = 20000
    lines = [
        "flavor computation",
        "states " + " ".join(f"q{i}" for i in range(n)),
        "symbols blank e 1",
        "init q0",
    ]
    lines += [f"rule q{i} {s} -> q{(i + 1) % n} 1 R" for i in range(n) for s in "e1"]
    lines += [f"tape {i} 1" for i in range(1, n)]
    assert _seconds(parse_machine, "\n".join(lines)) < 5
