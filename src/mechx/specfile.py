"""Platform description file format (".mechx").

Line-oriented (LF, CRLF or CR), blank-separated, one statement per line:

    platform "simple-robot"
    kind artificial
    group "gripper" count 1 states 2
    group "servo" count 2 range 0 360 resolution 0.1
    group "led" count 1 states 2 tag "non-mechanical"

Statements: platform, kind, year, processor, note, group.  "#" starts a
comment; blank lines are ignored; strings are double-quoted with
backslash escapes; numbers are decimal or scientific notation.  The
serializer emits a canonical form (LF, one statement per line, shortest
round-trip numbers) that is a parse fixpoint.
"""

from __future__ import annotations

import _thread
import os
import re
import sys

from . import _BLANKS, DatasetCorrupt, _Factory, _LineError, _Record, _lines
from .model import (
    ARTIFICIAL,
    KINDS,
    NATURAL,
    Continuous,
    DiscreteStates,
    DofGroup,
    NonIntegralSpan,
    Platform,
    ProcessorSpec,
    resolve_levels,
)


class SpecFileError(_LineError):
    """Base for description-file problems; carries a 1-based line number
    (0 when the problem is not tied to a specific line)."""


class ParseError(SpecFileError):
    pass


class DuplicateGroupLabel(ParseError):
    pass


class MissingPlatformName(ParseError):
    def __init__(self, line: int = 0):
        super().__init__(line, "document has no 'platform' statement")
        self.args = (line,)


class Diagnostic(_Record):
    """A lint warning: the reader raises every error."""

    line: int
    message: str

    def __str__(self):
        return f"warning: line {self.line}: {self.message}"


class PlatformDocument(_Record):
    """A parsed platform plus bookkeeping about where items came from.

    ``source_line_map`` keys: "platform", "kind", "year", "processor" and
    "note[<i>]"; each group keeps its own line as ``_line``.
    ``scientific_transistors`` records whether the transistor count was
    written in scientific or fractional notation (it is stored rounded to
    an int either way).
    """

    platform: Platform
    source_line_map: dict[str, int] = _Factory(dict)
    scientific_transistors: bool = False
    kind_defaulted: bool = False


# Statements that may appear at most once; each records its line in the
# document's source_line_map.
_SINGLETONS = ("platform", "kind", "year", "processor")

# The characters of a number.  On them float() reads exactly the numbers
# of the format: a sign, digits with at most one point, an exponent; no
# "inf", "nan", "_" or non-ASCII digit can be spelled with them.
_NUMERIC = frozenset("0123456789+-.eE")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
# The writer's side of _ESCAPES: each character they yield, to its escape.
_ESCAPED = str.maketrans({char: f"\\{e}" for e, char in _ESCAPES.items()})

# After any blanks, a word or a string.  A string body holds no bare quote,
# backslash or unknown escape; the closing quote is empty where the body
# stops short of one.  A comment or the end of the line matches neither.
_TOKEN_RE = re.compile(
    rf'[{_BLANKS}]*(?:([^{_BLANKS}"#]+)'
    rf'|"([^"\\]*(?:\\[{re.escape("".join(_ESCAPES))}][^"\\]*)*)("?))'
)

# A token is a (kind, text) pair, kind being "word" or "string".
_Token = tuple[str, str]


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while m := _TOKEN_RE.match(line, pos):
        word, body, close = m.groups()
        pos = m.end()
        if word:
            tokens.append(("word", word))
            continue
        if not close:
            # The body stopped at the end of the line or at a backslash
            # that starts no known escape.
            if pos == len(line):
                raise ParseError(lineno, "unterminated string literal")
            if pos == len(line) - 1:
                raise ParseError(lineno, "dangling backslash in string")
            raise ParseError(lineno, f"unknown escape sequence '\\{line[pos + 1]}'")
        if "\\" in body:
            body = re.sub(r"\\(.)", lambda e: _ESCAPES[e[1]], body)
        tokens.append(("string", body))
    return tokens


def _escape(s: str) -> str:
    if "\r" in s:  # a CR ends a line, and no escape stands for one
        raise ValueError(f"cannot write {s!r} as a .mechx string: it holds a carriage return")
    return f'"{s.translate(_ESCAPED)}"'


def _fmt_num(x: float, digits: int | None = None) -> str:
    # Integral values drop the fraction; others are the shortest round-trip
    # decimal, or ``digits`` significant digits.
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x) if digits is None else f"{x:.{digits}g}"


class _Cursor:
    """Token stream for one line, with positioned error reporting."""

    def __init__(self, tokens: list[_Token], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def _next(self, what: str) -> _Token:
        if self.done():
            raise ParseError(self.lineno, f"expected {what}, found end of line")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def string(self, what: str) -> str:
        kind, text = self._next(what)
        if kind != "string":
            raise ParseError(
                self.lineno, f"expected {what} (a quoted string), found {text!r}"
            )
        return text

    def keyword(self, *words: str) -> str:
        """Consume one of ``words`` and return it."""
        expected = " or ".join(f"'{w}'" for w in words)
        kind, text = self._next(expected)
        if kind != "word" or text not in words:
            raise ParseError(self.lineno, f"expected {expected}, found {text!r}")
        return text

    def integer(self, what: str) -> int:
        kind, text = self._next(what)
        value = ParseError._integer(self.lineno, what, text) if kind == "word" else None
        if value is None:
            raise ParseError(
                self.lineno, f"expected {what} (an integer), found {text!r}"
            )
        return value

    def number(self, what: str) -> tuple[float, str]:
        kind, text = self._next(what)
        if kind == "word" and _NUMERIC.issuperset(text):
            try:
                return float(text), text
            except ValueError:
                pass
        raise ParseError(self.lineno, f"expected {what} (a number), found {text!r}")

    def peek(self, kind: str) -> str | None:
        """Text of the next token if it is of ``kind`` ("word" or "string")."""
        if self.done():
            return None
        tok_kind, text = self.tokens[self.pos]
        return text if tok_kind == kind else None

    def end(self) -> None:
        if not self.done():
            raise ParseError(
                self.lineno, f"unexpected trailing token {self.tokens[self.pos][1]!r}"
            )


def _parse_group(cur: _Cursor) -> DofGroup:
    label = cur.string("group label")
    cur.keyword("count")
    count = cur.integer("multiplicity")
    if cur.keyword("states", "range") == "states":
        levels: object = DiscreteStates(cur.integer("state count"))
    else:
        lo, _ = cur.number("range minimum")
        hi, _ = cur.number("range maximum")
        cur.keyword("resolution")
        res, _ = cur.number("resolution")
        levels = Continuous(minimum=lo, maximum=hi, resolution=res)
    tags: list[str] = []
    while not cur.done():
        cur.keyword("tag")
        tags.append(cur.string("tag value"))
    return DofGroup(
        label=label, multiplicity=count, levels_spec=levels, tags=frozenset(tags)
    )


def parse_platform(text: str) -> PlatformDocument:
    """Parse a description document into a PlatformDocument.

    Raises ParseError (with line number) for grammar violations,
    DuplicateGroupLabel for repeated group labels, MissingPlatformName
    when no platform statement is present.
    """
    values: dict[str, object] = dict.fromkeys(_SINGLETONS)  # None until read
    notes: list[str] = []
    groups: dict[str, DofGroup] = {}  # by label
    line_map: dict[str, int] = {}
    scientific = False

    for lineno, raw in enumerate(_lines(text), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        head_kind, head = tokens[0]
        if head_kind != "word":
            raise ParseError(lineno, f"expected a keyword, found string {head!r}")
        if head in _SINGLETONS:
            if head in line_map:
                raise ParseError(lineno, f"duplicate '{head}' statement")
            line_map[head] = lineno
        cur = _Cursor(tokens[1:], lineno)
        if head == "platform":
            values[head] = cur.string("platform name")
            if not values[head]:
                raise ParseError(lineno, "platform name must be non-empty")
        elif head == "kind":
            values[head] = cur.keyword(*KINDS)
        elif head == "year":
            values[head] = cur.integer("year")
        elif head == "processor":
            pname = ""
            if cur.peek("string") is not None:
                pname = cur.string("processor name")
            cur.keyword("transistors")
            value, literal = cur.number("transistor count")
            # An integer is read exactly, not through the float.
            transistors = ParseError._integer(lineno, "transistor count", literal)
            if transistors is None:
                scientific = True  # the literal has an exponent or a point
                transistors = int(value) if value.is_integer() else -1
            try:
                values[head] = ProcessorSpec(name=pname, transistors=transistors)
            except ValueError:
                shown = repr(literal[:40])
                if len(literal) > 40:
                    shown += f"... ({len(literal)} characters)"
                raise ParseError(
                    lineno,
                    f"transistor count must be an integer from 0 to "
                    f"{sys.float_info.max!r}, found {shown}",
                ) from None
        elif head == "note":
            notes.append(cur.string("note text"))
            line_map[f"note[{len(notes) - 1}]"] = lineno
        elif head == "group":
            try:
                group = _parse_group(cur)
            except ParseError:
                raise
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from exc
            if group.label in groups:
                raise DuplicateGroupLabel(
                    lineno, f"duplicate group label {group.label!r}"
                )
            group.__dict__["_line"] = lineno  # outside the record fields
            groups[group.label] = group
        else:
            raise ParseError(lineno, f"unknown keyword {head!r}")
        cur.end()

    name, kind, year, processor = values.values()
    if name is None:
        raise MissingPlatformName()
    # The statements above have made all of Platform's checks.
    platform = Platform(
        name=name,
        kind=kind if kind is not None else ARTIFICIAL,
        groups=tuple(groups.values()),
        year=year,
        processor=processor,
        notes=tuple(notes),
    )
    return PlatformDocument(
        platform=platform,
        source_line_map=line_map,
        scientific_transistors=scientific,
        kind_defaulted=kind is None,
    )


def serialize_platform(platform: Platform) -> str:
    """Canonical text form: metadata first, groups in stored order, LF
    line endings, shortest round-trip numbers.  parse(serialize(p)) is
    equal to p.  A string holding a carriage return raises ValueError."""
    lines = [f"platform {_escape(platform.name)}"]
    lines.append(f"kind {platform.kind}")
    if platform.year is not None:
        lines.append(f"year {platform.year}")
    if platform.processor is not None:
        p = platform.processor
        if p.name:
            lines.append(
                f"processor {_escape(p.name)} transistors {p.transistors}"
            )
        else:
            lines.append(f"processor transistors {p.transistors}")
    for note in platform.notes:
        lines.append(f"note {_escape(note)}")
    for g in platform.groups:
        spec = g.levels_spec
        if isinstance(spec, DiscreteStates):
            levels = f"states {spec.count}"
        else:
            levels = (
                f"range {_fmt_num(spec.minimum)} {_fmt_num(spec.maximum)} "
                f"resolution {_fmt_num(spec.resolution)}"
            )
        line = f"group {_escape(g.label)} count {g.multiplicity} {levels}"
        for tag in sorted(g.tags):
            line += f" tag {_escape(tag)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# Marker note prefix for bundled stubs whose capacity cannot be computed
# from the available description (no ranges given).
NON_COMPUTABLE_PREFIX = "non-computable"


def is_computable(platform: Platform) -> bool:
    return bool(platform.groups) and not any(
        n.startswith(NON_COMPUTABLE_PREFIX) for n in platform.notes
    )


def validate(doc: PlatformDocument) -> list[Diagnostic]:
    """Lint a parsed document.  Every diagnostic is an advisory warning
    (informational notices are prefixed "informational:"); the reader
    raises every error.  A non-integral group is named by the line
    NonIntegralSpan gives, as ``compute`` names it."""
    out: list[Diagnostic] = []
    p = doc.platform
    lm = doc.source_line_map

    for g in p.groups:
        try:
            resolve_levels(g)
        except NonIntegralSpan as exc:
            out.append(
                Diagnostic(
                    exc.line,
                    f"group {g.label!r}: span/resolution = {exc.ratio!r} is not "
                    f"integral; strict analysis will reject this document",
                )
            )
    # (condition, source_line_map key, message)
    notices = (
        (
            p.kind == NATURAL and p.processor is not None,
            "processor",
            "natural platform declares a processor",
        ),
        (
            doc.scientific_transistors,
            "processor",
            "transistor count was written in scientific or fractional "
            "notation; stored as a rounded integer",
        ),
        (
            p.kind == ARTIFICIAL and p.processor is None,
            "platform",
            "informational: artificial platform has no processor entry",
        ),
        (
            doc.kind_defaulted,
            "platform",
            "informational: no 'kind' statement; assumed artificial",
        ),
        (
            not p.groups,
            "platform",
            "informational: platform has no groups; capacity is zero bits",
        ),
    )
    out.extend(
        Diagnostic(lm.get(key, 0), message)
        for condition, key, message in notices
        if condition
    )
    out.sort(key=lambda d: (d.line, d.message))
    return out


# Bundled dataset ------------------------------------------------------------

# File stems under mechx/data; the documented manifest.
DATASET_MANIFEST = (
    "aibo",
    "asimo",
    "baxter",
    "bellagio",
    "bellagio-all-oarsmen",
    "bellagio-hi-res",
    "big-dog",
    "c-elegans-agar",
    "c-elegans-anatomy",
    "cat",
    "cheetah",
    "darwin",
    "drosophila",
    "human-breath",
    "human-mocap",
    "human-wa-eval",
    "keepon",
    "khepera-iv",
    "kismet",
    "kr60ha",
    "lbr-iiwa",
    "little-dog",
    "nao",
    "packbot",
    "pr2",
    "robonaut2",
    "robosapien",
    "roomba",
    "simon",
)

_dataset_lock = _thread.allocate_lock()
# Bundled documents by file stem, each parsed when it is first asked for.
_documents: dict[str, PlatformDocument] = {}


def _read_data_file(stem: str) -> str:
    # Through the package's loader, as importlib.resources would read it
    # (from a directory or a zip archive), without that package's imports.
    path = os.path.join(os.path.dirname(__file__), "data", f"{stem}.mechx")
    return __loader__.get_data(path).decode("utf-8")


def _document(stem: str) -> PlatformDocument:
    """The bundled document ``stem``, parsed once per process.  The
    caller holds ``_dataset_lock``; any failure is a packaging bug
    surfaced as DatasetCorrupt."""
    doc = _documents.get(stem)
    if doc is None:
        try:
            doc = _documents[stem] = parse_platform(_read_data_file(stem))
        except (OSError, SpecFileError) as exc:
            raise DatasetCorrupt(f"{stem}.mechx: {exc}") from exc
    return doc


def load_dataset() -> list[PlatformDocument]:
    """All bundled platform documents, in manifest order."""
    with _dataset_lock:
        return [_document(stem) for stem in DATASET_MANIFEST]


def _normalize(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def dataset_lookup(name: str) -> PlatformDocument:
    """Find a bundled document by file stem or platform name (both
    case-insensitive; punctuation folds to hyphens).

    A name that is a file stem reads that one file.  No stem equals the
    normalized platform name of a file listed before it, so this returns
    what a scan of every file in manifest order would."""
    wanted = _normalize(name)
    if wanted in DATASET_MANIFEST:
        with _dataset_lock:
            return _document(wanted)
    for doc in load_dataset():
        if wanted == _normalize(doc.platform.name):
            return doc
    raise KeyError(f"no bundled platform matches {name!r}")
