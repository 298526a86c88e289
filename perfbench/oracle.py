"""Reference answers for every command the benchmark runs.

Nothing here imports mechx.  Platform files are read with a small parser
of the benchmark's own, counts come from integer arithmetic (fixed-point
logarithms with a certified error margin, falling back to exact products
near a rounding boundary), exact decimals from a divide-and-conquer
conversion, and tape machines from a separate reference interpreter.

Each ``expect_*`` function does its work up front and returns a check
``(code, out, err, workdir) -> reason or None``; ``out`` and ``err`` are
bytes.  A check that returns a reason marks the command as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

Check = Callable[[int, bytes, bytes, str], Optional[str]]

# Fixed-point logarithms --------------------------------------------------

SCALE = 10**80
# Accumulated truncation error is far below 1e-70; a value this close to a
# rounding boundary is settled with exact integers instead.
MARGIN = 10**20


def _atanh(p: int, q: int) -> int:
    """atanh(p/q) * SCALE for 0 <= p/q < 1, truncated term by term."""
    total, k = 0, 1
    power = SCALE * p // q
    p2, q2 = p * p, q * q
    while power:
        total += power // k
        power = power * p2 // q2
        k += 2
    return total


LN2 = 2 * _atanh(1, 3)


def _ln(n: int) -> int:
    """ln(n) * SCALE for an integer n >= 1: n = 2^a * m with m in [1, 2)."""
    a = n.bit_length() - 1
    return a * LN2 + 2 * _atanh(n - (1 << a), n + (1 << a))


LN10 = _ln(10)
LOG10_2 = LN2 * SCALE // LN10
_log10_cache: dict[int, int] = {}


def _log10(n: int) -> int:
    v = _log10_cache.get(n)
    if v is None:
        v = _log10_cache[n] = _ln(n) * SCALE // LN10
    return v


def _exp(x: int) -> int:
    """exp(x / SCALE) * SCALE for 0 <= x < 3 * SCALE (Taylor series)."""
    total, term, k = 0, SCALE, 0
    while term:
        total += term
        k += 1
        term = term * x // (SCALE * k)
    return total


def digits_of_pow2(e: int) -> int:
    """Decimal digits of 2**e: floor(e * log10 2) + 1."""
    return e * LOG10_2 // SCALE + 1


# Counting -------------------------------------------------------------


@dataclass(frozen=True)
class Count:
    """What the CLI prints about one configuration count C."""

    digits: int
    lead3: str  # first three significant digits, right-padded with zeros
    log10: float
    log2: float
    k_round: int  # round(log2 C), decided exactly
    factors: tuple  # ((levels, multiplicity), ...) to rebuild C on demand

    def exact(self) -> int:
        return _product(self.factors)

    def sci_exact(self) -> str:
        """mechx's exact-mode rendering: first two digits, truncated."""
        lead = self.lead3[: min(2, self.digits)]
        mant = lead[0] + ("." + lead[1:] if len(lead) > 1 else "")
        return f"{mant}e+{self.digits - 1:02d}"

    def sci_ok(self, text: str) -> bool:
        """True when ``text`` is C in scientific notation, truncated or
        rounded half up to the digits it shows (log-space rendering)."""
        m = re.fullmatch(r"(\d)(?:\.(\d+))?e\+(\d+)", text)
        if not m or len(m.group(1) + (m.group(2) or "")) > 2:
            return False
        shown = m.group(1) + (m.group(2) or "")
        s, exp = len(shown), int(m.group(3))
        trunc = (self.lead3[:s], self.digits - 1)
        up = int(self.lead3[:s]) + (int(self.lead3[s]) >= 5)
        if up == 10**s:
            rounded = ("1" + "0" * (s - 1), self.digits)
        else:
            rounded = (str(up), self.digits - 1)
        return (shown, exp) in (trunc, rounded)


def _product(factors: tuple) -> int:
    c = 1
    for r, m in factors:
        c *= r**m
    return c


def _exact_count(factors: tuple, c: int) -> Count:
    if c < 10**1000:
        text = str(c)
        d = len(text)
        lead3 = (text[:3] + "00")[:3]
    else:
        bl = c.bit_length()
        d = digits_of_pow2(bl - 1)
        if c >= 10**d:
            d += 1
        lead3 = str(c // 10 ** (d - 3))
    n = c.bit_length() - 1
    k_round = n + (c * c >= 1 << (2 * n + 1))
    return Count(d, lead3, math.log10(c), math.log2(c), k_round, factors)


def count(factors) -> Count:
    """Summary of C = prod(levels ** multiplicity) over ``factors``."""
    factors = tuple((r, m) for r, m in factors if r > 1)
    if not factors:
        return Count(1, "100", 0.0, 0.0, 0, ())
    if sum(m * r.bit_length() for r, m in factors) < 20000:
        return _exact_count(factors, _product(factors))
    big = sum(m * _log10(r) for r, m in factors)
    whole, frac = divmod(big, SCALE)
    k_fp = big * SCALE // LOG10_2
    k_whole, k_frac = divmod(k_fp, SCALE)
    v = _exp(frac * LN10 // SCALE) * 100
    lead3, rest = divmod(v, SCALE)
    near = (
        min(frac, SCALE - frac) < MARGIN
        or min(rest, SCALE - rest) < MARGIN
        or abs(k_frac - SCALE // 2) < MARGIN
    )
    if near:
        return _exact_count(factors, _product(factors))
    return Count(
        digits=whole + 1,
        lead3=str(lead3),
        log10=big / SCALE,
        log2=k_fp / SCALE,
        k_round=k_whole + (k_frac >= SCALE // 2),
        factors=factors,
    )


def to_decimal(n: int) -> str:
    """Decimal string of n >= 0, split recursively at powers of ten so no
    single str() call sees more than a few hundred digits."""
    if n.bit_length() <= 1024:
        return str(n)
    e = (n.bit_length() * 30103 // 100000) // 2
    hi, lo = divmod(n, 10**e)
    return to_decimal(hi) + to_decimal(lo).zfill(e)


# .mechx documents -------------------------------------------------------


class BadDoc(Exception):
    pass


_ESC = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def _tokens(line: str) -> list:
    out, i, n = [], 0, len(line)
    while i < n:
        ch = line[i]
        if ch in " \t\r":
            i += 1
        elif ch == "#":
            break
        elif ch == '"':
            buf, i = [], i + 1
            while True:
                if i >= n:
                    raise BadDoc("unterminated string")
                ch = line[i]
                if ch == '"':
                    i += 1
                    break
                if ch == "\\":
                    buf.append(_ESC[line[i + 1]])
                    i += 2
                else:
                    buf.append(ch)
                    i += 1
            out.append(("s", "".join(buf)))
        else:
            j = i
            while j < n and line[j] not in ' \t\r"#':
                j += 1
            out.append(("w", line[i:j]))
            i = j
    return out


@dataclass
class Group:
    label: str
    multiplicity: int
    states: Optional[int]
    span: Optional[tuple]  # (min literal, max literal, resolution literal)
    tags: tuple
    line: int

    @property
    def mechanical(self) -> bool:
        return "non-mechanical" not in self.tags

    def levels(self) -> int:
        if self.states is not None:
            return self.states
        lo, hi, res = (Fraction(x) for x in self.span)
        return max(1, round((hi - lo) / res))

    def integral(self) -> bool:
        if self.states is not None:
            return True
        lo, hi, res = (Fraction(x) for x in self.span)
        ratio = (hi - lo) / res
        return abs(ratio - round(ratio)) <= Fraction(1, 10**9) * round(ratio)


@dataclass
class Doc:
    name: str = ""
    kind: Optional[str] = None
    year: Optional[int] = None
    processor: Optional[tuple] = None  # (name, transistors, literal)
    notes: list = field(default_factory=list)
    groups: list = field(default_factory=list)
    lines: dict = field(default_factory=dict)

    @property
    def kind_or_default(self) -> str:
        return self.kind or "artificial"

    @property
    def computable(self) -> bool:
        return bool(self.groups) and not any(
            n.startswith("non-computable") for n in self.notes
        )

    def count(self, mechanical_only: bool = False) -> Count:
        return count(
            (g.levels(), g.multiplicity)
            for g in self.groups
            if g.mechanical or not mechanical_only
        )


def parse_doc(text: str) -> Doc:
    """Parse a well-formed .mechx document (the benchmark only feeds this
    documents it generated or the bundled ones)."""
    doc = Doc()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        head, args = toks[0][1], [t[1] for t in toks[1:]]
        if head == "platform":
            doc.name = args[0]
        elif head == "kind":
            doc.kind = args[0]
        elif head == "year":
            doc.year = int(args[0])
        elif head == "processor":
            name = args[0] if toks[1][0] == "s" else ""
            literal = args[-1]
            doc.processor = (name, int(Fraction(literal)), literal)
        elif head == "note":
            doc.notes.append(args[0])
        elif head == "group":
            label, mult, kw = args[0], int(args[2]), args[3]
            if kw == "states":
                states, span, rest = int(args[4]), None, args[5:]
            else:
                states, span, rest = None, (args[4], args[5], args[7]), args[8:]
            tags = tuple(rest[1::2])
            doc.groups.append(Group(label, mult, states, span, tags, lineno))
        else:
            raise BadDoc(f"unknown keyword {head!r}")
        doc.lines[head] = doc.lines.get(head, lineno)
    return doc


def read_bundled(root: str) -> dict:
    """Bundled platforms by file stem, parsed from the package data files."""
    data = os.path.join(root, "src", "mechx", "data")
    out = {}
    for stem in sorted(fn[: -len(".mechx")] for fn in os.listdir(data) if fn.endswith(".mechx")):
        with open(os.path.join(data, stem + ".mechx"), encoding="utf-8") as fh:
            out[stem] = parse_doc(fh.read())
    return out


# Output comparison ------------------------------------------------------

REL_TOL = 1e-9


def _close(got: float, want: float, scale: float = 0.0) -> bool:
    if math.isinf(want):
        return got == want
    return abs(got - want) <= REL_TOL * max(1.0, abs(want), scale)


def _approx(prefix: str, suffix: str, value: float, scale: float = 0.0):
    """Matcher for a line holding one float between fixed text."""

    def match(line: str) -> Optional[str]:
        body = line[len(prefix) : len(line) - len(suffix)]
        if line.startswith(prefix) and line.endswith(suffix) and " " not in body:
            try:
                if _close(float(body), value, scale):
                    return None
            except ValueError:
                pass
        return f"expected {prefix}~{value!r}{suffix}, got {line!r}"

    return match


def _lines_match(out: bytes, want: list) -> Optional[str]:
    """``want`` holds one exact string or matcher callable per line."""
    lines = out.decode("utf-8", errors="replace").split("\n")
    if lines.pop() != "":
        return "output does not end in a newline"
    if len(lines) != len(want):
        return f"expected {len(want)} lines, got {len(lines)}"
    for n, (got, w) in enumerate(zip(lines, want), start=1):
        bad = (None if got == w else f"expected {w!r}, got {got!r}") if isinstance(w, str) else w(got)
        if bad:
            return f"line {n}: {bad}"
    return None


def _no_traceback(err: bytes) -> Optional[str]:
    if b"Traceback (most recent call last)" in err:
        return "traceback on stderr"
    return None


def _exit(code: int, want: int) -> Optional[str]:
    return None if code == want else f"exit {code}, expected {want}"


def _success(code: int, err: bytes, quiet: bool = True) -> Optional[str]:
    """Exit 0, no traceback and, when ``quiet``, nothing on stderr."""
    if code != 0:
        return f"exit {code}, expected 0: {err[-300:].decode(errors='replace')!r}"
    if quiet and err:
        return f"unexpected stderr {err[:200]!r}"
    return _no_traceback(err)


# compute / compare ---------------------------------------------------------


def _sci_line(label: str, c: Count, log_space: bool):
    want = f"C({label}) = {c.sci_exact()} ({c.digits} digits)"
    if not log_space:
        return want

    def match(line: str) -> Optional[str]:
        m = re.fullmatch(rf"C\({label}\) = (\S+) \({c.digits} digits\)", line)
        return None if m and c.sci_ok(m.group(1)) else f"expected about {want!r}, got {line!r}"

    return match


def expect_compute(doc: Doc, mode: str, as_json: bool, mechanical_only: bool) -> Check:
    """``mode`` is "both", "log_space" or "exact", as the CLI's JSON names it."""
    counts = [("mechanical", doc.count(mechanical_only=True))]
    if not mechanical_only:
        counts.insert(0, ("all", doc.count()))
    proc = doc.processor
    if as_json:
        ints, floats = {}, {}
        strings = {"platform": doc.name, "kind": doc.kind_or_default, "mode": mode}
        for label, c in counts:
            ints[f"k_bits_{label}_rounded"] = c.k_round
            ints[f"c_digits_{label}"] = c.digits
            floats[f"k_bits_{label}"] = c.log2
            floats[f"log10_c_{label}"] = c.log10
            if mode == "exact":
                strings[f"c_exact_{label}"] = to_decimal(c.exact())
        if proc is not None:
            ints["transistors"] = proc[1]
            ints["computational_config_digits"] = digits_of_pow2(proc[1])
            floats["computational_bits"] = float(proc[1])
        keys = set(ints) | set(floats) | set(strings)

        def check(code, out, err, workdir):
            bad = _success(code, err)
            if bad:
                return bad
            if out.count(b"\n") != 1 or not out.endswith(b"\n"):
                return "expected one JSON line"
            try:
                got = json.loads(out)
            except ValueError as exc:
                return f"bad JSON: {exc}"
            if set(got) != keys:
                return f"JSON keys {sorted(got)} != {sorted(keys)}"
            for k, v in ints.items():
                if type(got[k]) is not int or got[k] != v:
                    return f"{k}: expected {v}, got {got[k]!r}"
            for k, v in strings.items():
                if got[k] != v:
                    return f"{k}: expected {v[:40]!r}.., got {str(got[k])[:40]!r}.."
            for k, v in floats.items():
                if not isinstance(got[k], float) or not _close(got[k], v):
                    return f"{k}: expected ~{v!r}, got {got[k]!r}"
            return None

        return check

    want: list = [
        f"platform: {doc.name}",
        f"kind: {doc.kind_or_default}",
        f"degrees of freedom: {sum(g.multiplicity for g in doc.groups)} "
        f"({len(doc.groups)} groups)",
    ]
    for label, c in counts:
        want.append(_sci_line(label, c, mode == "log_space"))
        want.append(f"K({label}) = {c.k_round} bits (rounded)")
        want.append(_approx(f"K({label}) = ", " bits", c.log2))
    if proc is not None:
        want.append(f"processor: {proc[0] or '(unnamed)'}, {proc[1]} transistors")
        want.append(
            f"computational capacity = {float(proc[1])!r} bits "
            f"({digits_of_pow2(proc[1])} digits as a configuration count)"
        )

    def check(code, out, err, workdir):
        return _success(code, err) or _lines_match(out, want)

    return check


def _compare_counts(a: Count, b: Count) -> int:
    if abs(a.log10 - b.log10) > 1e-6 * max(1.0, a.log10):
        return 1 if a.log10 > b.log10 else -1
    ea, eb = a.exact(), b.exact()
    return (ea > eb) - (ea < eb)


def expect_compare(left: Doc, right: Doc) -> Check:
    cl, cr = left.count(mechanical_only=True), right.count(mechanical_only=True)
    kl, kr = cl.log2, cr.log2
    order = _compare_counts(cl, cr)
    larger = left.name if order > 0 else right.name if order < 0 else "(equal)"
    # Differences of two large capacities keep only their absolute precision.
    scale = max(abs(kl), abs(kr))
    want = [
        _approx(f"left: {left.name}, K(mechanical) = ", " bits", kl),
        _approx(f"right: {right.name}, K(mechanical) = ", " bits", kr),
        _approx("difference (left - right) = ", " bits", kl - kr, scale),
        _approx("log10 configuration ratio = ", "", cl.log10 - cr.log10, scale),
        _approx("bits ratio = ", "", kl / kr if kr else math.inf),
        f"larger: {larger}",
    ]

    def check(code, out, err, workdir):
        return _success(code, err) or _lines_match(out, want)

    return check


def expect_dataset_list(bundled: dict) -> Check:
    want = "".join(
        f"@{stem:24s} {doc.kind_or_default:10s} {doc.name}\n" for stem, doc in bundled.items()
    ).encode("utf-8")

    def check(code, out, err, workdir):
        return _success(code, err) or (None if out == want else "dataset listing differs")

    return check


# plot -------------------------------------------------------------------

FIGURES = (
    "fig1_transistors",
    "fig2_mech_configs",
    "fig3_bits_vs_bits",
    "fig4_celegans",
    "fig5_animals",
)
# The paper places natural models at their neuron counts.
NEURONS = {
    "C. elegans (anatomy)": (302, "natural-anatomy"),
    "C. elegans (agar behavior)": (302, "natural-behavior"),
    "Drosophila": (100_000, "natural-anatomy"),
    "Cat": (760_000_000, "natural-anatomy"),
    "Human (mocap)": (86_000_000_000, "natural-behavior"),
    "Human (breath)": (86_000_000_000, "natural-behavior"),
}


def _num(x: float) -> str:
    return str(int(x)) if x == int(x) and abs(x) < 1e16 else repr(x)


def figure_points(bundled: dict, figure: int) -> list:
    """(label, series, x, y) rows of one figure, in CSV order."""
    docs = list(bundled.values())
    art = [d for d in docs if d.kind_or_default == "artificial"]
    pts = []
    for d in art:
        if figure == 1 and d.year is not None and d.processor is not None:
            pts.append((d.name, "artificial", float(d.year), float(d.processor[1])))
        elif figure == 2 and d.year is not None and d.computable:
            pts.append((d.name, "artificial", float(d.year), d.count(True).log10))
        elif figure == 3 and d.processor is not None and d.computable:
            pts.append((d.name, "artificial", float(d.processor[1]), d.count(True).log2))
        elif figure >= 4 and d.year is not None and d.computable:
            pts.append((d.name, "artificial", float(d.year), d.count(True).log2))
    if figure >= 4:
        roster = list(NEURONS)[: 2 if figure == 4 else 6]
        by_name = {d.name: d for d in docs}
        for name in roster:
            d = by_name.get(name)
            if d is not None and d.computable:
                x, series = NEURONS[name]
                pts.append((name, series, float(x), d.count(True).log2))
    return sorted(pts, key=lambda p: (p[1], p[2], p[0]))


def expect_plot(bundled: dict, figure: int, csv_path: str, svg_path: str) -> Check:
    points = figure_points(bundled, figure)
    stdout = f"{FIGURES[figure - 1]}: {len(points)} points -> {csv_path}, {svg_path}\n".encode()

    def check(code, out, err, workdir):
        bad = _success(code, err, quiet=False)
        if bad:
            return bad
        if out != stdout:
            return f"stdout {out[:120]!r} != {stdout!r}"
        with open(os.path.join(workdir, csv_path), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["label", "series", "x", "y"]] or len(rows) != len(points) + 1:
            return "CSV header or row count differs"
        for row, (label, series, x, y) in zip(rows[1:], points):
            if row[:3] != [label, series, _num(x)] or not _close(float(row[3]), y):
                return f"CSV row {row} != {(label, series, _num(x), y)}"
        try:
            svg = ET.parse(os.path.join(workdir, svg_path)).getroot()
        except ET.ParseError as exc:
            return f"SVG does not parse: {exc}"
        markers = [e for e in svg.iter() if e.get("class") == "marker"]
        if not svg.tag.endswith("svg") or len(markers) != len(points):
            return f"SVG has {len(markers)} markers, expected {len(points)}"
        return None

    return check


# validate ---------------------------------------------------------------


def _lint_lines(doc: Doc) -> list:
    """The lint lines the README documents, as matchers in output order
    (sorted by line, then message)."""
    diags = []
    for g in doc.groups:
        if not g.integral():
            head = f"group {g.label!r}: span/resolution = "
            tail = " is not integral; strict analysis will reject this document"
            diags.append((g.line, head, re.compile(re.escape(head) + r"\S+" + re.escape(tail))))
    plat = doc.lines.get("platform", 0)
    proc = doc.lines.get("processor", 0)
    if doc.kind == "natural" and doc.processor is not None:
        diags.append((proc, "natural platform declares a processor", None))
    if doc.processor is not None and any(c in doc.processor[2] for c in "eE."):
        diags.append((proc, "transistor count was written in scientific or fractional "
                      "notation; stored as a rounded integer", None))
    if doc.kind_or_default == "artificial" and doc.processor is None:
        diags.append((plat, "informational: artificial platform has no processor entry", None))
    if doc.kind is None:
        diags.append((plat, "informational: no 'kind' statement; assumed artificial", None))
    if not doc.groups:
        diags.append((plat, "informational: platform has no groups; capacity is zero bits", None))
    diags.sort(key=lambda d: d[:2])
    return [
        f"warning: line {line}: {text}" if pattern is None
        else _matching(f"warning: line {line}: ", pattern)
        for line, text, pattern in diags
    ]


def _matching(prefix: str, pattern: re.Pattern):
    """Matcher for a line of fixed ``prefix`` followed by ``pattern``."""

    def match(line: str) -> Optional[str]:
        if line.startswith(prefix) and pattern.fullmatch(line[len(prefix):]):
            return None
        return f"expected {prefix}{pattern.pattern}, got {line!r}"

    return match


def expect_validate_ok(text: str) -> Check:
    doc = parse_doc(text)
    want = _lint_lines(doc)
    want.append(f"ok: {doc.name!r} parsed with {len(want)} warnings")

    def check(code, out, err, workdir):
        return _success(code, err) or _lines_match(out, want)

    return check


def expect_validate_error(line: int, message: Optional[str]) -> Check:
    """Exit 2 with one line-numbered error on stderr; ``message`` None
    accepts any message text."""

    def check(code, out, err, workdir):
        bad = _no_traceback(err) or _exit(code, 2)
        if bad:
            return bad
        text = err.decode("utf-8", errors="replace")
        prefix = f"error: line {line}: "
        if out or not text.startswith(prefix) or text.count("\n") != 1:
            return f"expected {prefix!r}..., got {text[:200]!r}"
        if message is not None and text != f"{prefix}{message}\n":
            return f"expected {prefix}{message!r}, got {text!r}"
        return None

    return check


def expect_missing_file(path: str) -> Check:
    def check(code, out, err, workdir):
        bad = _no_traceback(err) or _exit(code, 2)
        if bad:
            return bad
        if out or not err.decode(errors="replace").startswith(f"error: cannot read {path!r}: "):
            return f"unexpected output {err[:200]!r}"
        return None

    return check


# Tape machines ------------------------------------------------------------

_MOVES = {"L": -1, "S": 0, "R": 1}


@dataclass
class Tape:
    """A .aem machine as the reference interpreter sees it."""

    states: list
    symbols: list  # blank first
    init: str
    rules: dict  # (state, read) -> (state, write, move letter)
    cells: dict


def parse_aem(text: str) -> Tape:
    t = Tape([], [], "", {}, {})
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "states":
            t.states = tok[1:]
        elif tok[0] == "symbols":
            t.symbols = tok[2:]
        elif tok[0] == "init":
            t.init = tok[1]
        elif tok[0] == "rule":
            t.rules[(tok[1], tok[2])] = (tok[4], tok[5], tok[6])
        elif tok[0] == "tape":
            t.cells[int(tok[1])] = tok[2]
    return t


@dataclass(frozen=True)
class TapeRun:
    outcome: str
    header: bytes  # the outcome and final-configuration lines
    listing_sha256: Optional[str]  # of the per-step lines, when traced
    steps: int


def reference_run(t: Tape, budget: int, traced: bool) -> TapeRun:
    """Run on a bytearray of symbol codes; cell 0 is unused so the head
    index equals the cell number, and a left move at cell 1 stays put."""
    sym = {s: i for i, s in enumerate(t.symbols)}
    st = {q: i for i, q in enumerate(t.states)}
    ns = len(t.symbols)
    table: list = [None] * (len(t.states) * ns)
    for (q, r), (q2, w, mv) in t.rules.items():
        table[st[q] * ns + sym[r]] = (st[q2] * ns, sym[w], _MOVES[mv], f" {q} ", f" {r} {w} {mv}\n")
    tape = bytearray(max([0, *t.cells]) + 1024)
    for i, s in t.cells.items():
        tape[i] = sym[s]
    hasher = hashlib.sha256() if traced else None
    chunk: list = []
    row = st[t.init] * ns
    head, steps, outcome = 1, 0, "budget_exhausted"
    size = len(tape)
    while steps < budget:
        rule = table[row + tape[head]]
        if rule is None:
            outcome = "halted"
            break
        if hasher is not None:
            chunk.append(f"{steps}{rule[3]}{head}{rule[4]}")
            if len(chunk) >= 16384:
                hasher.update("".join(chunk).encode())
                chunk.clear()
        row, tape[head], move = rule[0], rule[1], rule[2]
        head += move
        if head < 1:
            head = 1
        elif head >= size:
            tape.extend(bytes(size))
            size *= 2
        steps += 1
    if hasher is not None and chunk:
        hasher.update("".join(chunk).encode())
    cells = " ".join(f"{i}:{t.symbols[c]}" for i, c in enumerate(tape) if c and i)
    state = t.states[row // ns]
    header = (
        f"outcome {outcome}\nfinal state={state} head={head} steps={steps} cells=[{cells}]\n"
    ).encode()
    return TapeRun(outcome, header, hasher.hexdigest() if hasher else None, steps)


class Streamed(bytes):
    """Stdout read through a hashing sink: its first lines, and the SHA-256
    of everything after them."""

    def __new__(cls, head: bytes, rest_sha256: str):
        self = super().__new__(cls, head)
        self.rest_sha256 = rest_sha256
        return self


AEM_HEADER_LINES = 2  # the outcome and final lines, before a trace listing


def expect_aem(text: str, budget: int, traced: bool, strict: bool) -> Check:
    ref = reference_run(parse_aem(text), budget, traced)
    exhausted = ref.outcome == "budget_exhausted"
    want_code = 3 if strict and exhausted else 0
    want_err = (
        f"error: budget of {budget} steps exhausted before halting\n".encode()
        if want_code == 3
        else b""
    )

    def check(code, out, err, workdir):
        bad = _no_traceback(err) or _exit(code, want_code)
        if bad:
            return bad
        if err != want_err:
            return f"stderr {err[:200]!r} != {want_err!r}"
        if not traced:
            return None if out == ref.header else f"stdout {out[:200]!r} != {ref.header!r}"
        if out[: len(ref.header)] != ref.header:
            return f"trace header {out[:200]!r} != {ref.header!r}"
        if isinstance(out, Streamed):
            digest = out.rest_sha256 if len(out) == len(ref.header) else None
        else:
            digest = hashlib.sha256(memoryview(out)[len(ref.header):]).hexdigest()
        return None if digest == ref.listing_sha256 else "trace listing differs"

    return check
