"""Configuration counting and capacity comparison.

The static configuration count of a platform is the product over its
groups of levels ** multiplicity.  These products get astronomically
large (a fountain described here exceeds 10^8000 configurations), so a
count is summarised from a fixed-point logarithm of the product: log10,
the digit count and the leading digits.  The exact int is formed when a
caller reads ``BigCount.exact``, when the count is small, or when the
logarithm lies too close to a rounding boundary to decide it; every digit
is rendered from the group factors by ``BigCount.decimal()``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from . import _Record
from .model import Platform, ProcessorSpec, mechanical_groups, resolve_levels

# log10(2) correctly rounded to a double, written out rather than taken
# from libm so that every platform uses the same bits.
LOG10_2 = 0.3010299956639812
LOG2_10 = 1.0 / LOG10_2

# The largest exact count, in decimal digits, that ``compute --exact``
# forms and prints; the digit count is read from the logarithm first.
EXACT_DIGITS_LIMIT = 1_000_000


class CountMode(str, Enum):
    """How a count is carried.

    EXACT keeps the group factors and takes log10, the digit count and
    the leading digits from a fixed-point logarithm of the product, with
    log10 bit for bit what ``ilog10`` of the exact product gives; small
    counts, and values within the error margin of a rounding boundary,
    are read off the exact product instead.  The exact int itself is
    formed on demand, when ``BigCount.exact`` is read.  LOG_SPACE forms
    no big int: log10 is the sum of ``M * log10(R)`` over the groups,
    added in group order.
    """

    EXACT = "exact"
    LOG_SPACE = "log_space"


def ilog10(n: int) -> float:
    """log10 of a positive int, safe for values far beyond float range."""
    if n <= 0:
        raise ValueError("ilog10 requires a positive integer")
    bits = n.bit_length()
    if bits <= 900:
        return math.log10(n)
    # Keep a 64-bit mantissa and account for the shifted-out bits in log
    # space: log10(m * 2^s) = log10(m) + s*log10(2).
    shift = bits - 64
    return math.log10(n >> shift) + shift * LOG10_2


def ndigits(n: int) -> int:
    """Decimal digit count of a nonnegative int without str() conversion.

    str() on ints beyond ~4300 digits is disabled by default in recent
    Python; this stays in integer arithmetic instead.
    """
    if n < 0:
        raise ValueError("ndigits requires a nonnegative integer")
    if n == 0:
        return 1
    # Estimate from the bit length b, then count up: n >= 2 ** (b - 1) has
    # at least int((b - 1) * log10 2) + 1 digits, and since b * log10 2 <
    # (b - 1) * log10 2 + 1 the estimate is never above that.
    d = max(1, int(n.bit_length() * LOG10_2))
    power = 10**d
    while power <= n:
        power *= 10
        d += 1
    return d


def digits_of_pow2(exponent: int) -> int:
    """Decimal digit count of 2**exponent, from the counting core: the
    power is formed only when it has at most ``_EXACT_BITS`` bits."""
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    return _summarize(((2, exponent),))[1]


def _leading(n: int, d: int, k: int) -> str:
    # First k digits of n, which has d digits.  Past _LEAD_DIGITS of them
    # they are rendered, since str() stops at the int-to-str digit limit.
    if d > k:
        n, d = n // 10 ** (d - k), k
    return str(n) if d <= _LEAD_DIGITS else _render(((n, 1),), d)


def _render(pairs, d: int) -> str:
    """The d digits of prod(r ** m) over ``pairs`` in ``decimal`` arithmetic,
    where none rounds (a shortfall raises ``decimal.Inexact``) and, unlike
    in str(), no digit limit applies.

    One square-and-multiply chain runs over every factor at once (Straus,
    1964): from the top bit of the largest m down, x is squared, then
    multiplied by each r whose m has that bit.  No power is formed apart,
    so no product pairs a long number with a middling one, which is slow;
    every intermediate divides the count, so none can round."""
    from decimal import MAX_EMAX, Context, Decimal, Inexact, Overflow

    ctx = Context(prec=d + 2, Emax=MAX_EMAX, traps=[Inexact, Overflow])
    powers: dict = {}  # k -> 2**k, each made once

    def exact(n: int) -> Decimal:
        # Decimal(n) takes time quadratic in n's length, so a long n goes
        # by halves, hi * 2**k + lo; no value exceeds n, so none rounds.
        if n.bit_length() <= _SPLIT_BITS:
            return Decimal(n)
        k = n.bit_length() // 2
        if k not in powers:
            powers[k] = ctx.power(2, k)
        return ctx.fma(exact(n >> k), powers[k], exact(n & ((1 << k) - 1)))

    bases = [(exact(r), m) for r, m in pairs]
    x = Decimal(1)
    for bit in reversed(range(max((m for _, m in bases), default=0).bit_length())):
        x = ctx.multiply(x, x)
        for r, m in bases:
            if m >> bit & 1:
                x = ctx.multiply(x, r)
    return format(x, "f")


# Fixed-point logarithms ---------------------------------------------------
#
# A real x is held as the int x * 2**prec, and every step truncates.  The
# series below are off by fewer than 16 * prec ulps of 2**-prec.  For a
# count whose bit bound B = sum(M * R.bit_length()) has G bits, ln C is
# then off by fewer than 2**(G + 6) * prec ulps, log2 C and log10 C by
# fewer than 2**(G + 8) * prec, and its first 64 bits and first k digits
# by fewer than 2**(G + 78 + X) * prec, where X = _lead_bits(k) covers the
# digits past the 20th (10**(k - 20) < 2**X).  A value closer than
# 2**(G + 90 + X) * prec ulps to a rounding boundary is not trusted.
# _summarize starts at prec >= G + X + 256, where that margin is below
# prec * 2**-166 of one.

# Products of at most this many bits are formed outright: that is cheap,
# and the exact product is the ground truth the logarithm is tested on.
_EXACT_BITS = 20_000
# Near a boundary no exact identity settles, a count no larger than one
# ``compute --exact`` prints (10**6 digits are 3.3 million bits) is formed;
# a larger one is recomputed at twice the precision.
_FALLBACK_BITS = 4 * EXACT_DIGITS_LIMIT
# The margin is 2**(G + _MARGIN_BITS + X) * prec ulps (see above).
_MARGIN_BITS = 90
# Leading digits each count keeps; leading(k) up to this reads them.
_LEAD_DIGITS = 20
# Significant digits a float carries, and so the most leading(k) can
# give of a log-space count.
_FLOAT_DIGITS = 17
# _render converts an int of more than this many bits to Decimal by halves.
_SPLIT_BITS = 4096


def _lead_bits(k: int) -> int:
    """X above: 10/3 bits, more than log2(10), for each digit past the 20th."""
    return max(0, -(-(k - _LEAD_DIGITS) * 10 // 3))


def _atanh(x: int, prec: int) -> int:
    """atanh(x) for 0 <= x < 1/3, by its Taylor series."""
    total, power, k = 0, x, 1
    x2 = x * x >> prec
    while power:
        total += power // k
        power = power * x2 >> prec
        k += 2
    return total


@lru_cache(maxsize=1024)
def _ln(r: int, prec: int) -> int:
    """ln(r) for an int r >= 1, off by fewer than 2**6 * r.bit_length() * prec
    ulps.  With r = 2**a * (1 + x) / (1 - x), ln r = a ln 2 + 2 atanh(x), and
    0 <= x < 1/3."""
    if r == 2:
        return 2 * _atanh((1 << prec) // 3, prec)
    a = r.bit_length() - 1
    x = ((r - (1 << a)) << prec) // (r + (1 << a))
    return a * _ln(2, prec) + 2 * _atanh(x, prec)


def _exp(x: int, prec: int) -> int:
    """exp(x) for 0 <= x < 3, by its Taylor series."""
    total = term = 1 << prec
    k = 0
    while term:
        k += 1
        term = (term * x >> prec) // k
        total += term
    return total


def _product(pairs) -> int:
    return math.prod(r**m for r, m in pairs)


def _is_product(pairs, n: int, e2: int, e5: int) -> bool:
    """Whether prod(r ** m) == n * 2**e2 * 5**e5, for e2, e5 >= 0.

    Decided without forming the product: only its part prime to 10 is
    built, and only while it stays below n.  This settles counts that sit
    exactly on a boundary, such as powers of two and of ten, at any size.
    """
    rest = 1
    for r, m in pairs:
        a = (r & -r).bit_length() - 1
        r >>= a
        b = 0
        while r % 5 == 0:
            r //= 5
            b += 1
        e2 -= a * m
        e5 -= b * m
        if r > 1:
            if m >= n.bit_length():  # r**m >= 3**m > n
                return False
            rest *= r**m
            if rest > n:
                return False
    if e2 > 0 or e5 > 0 or max(-e2, -e5) > n.bit_length():
        return False
    return (rest << -e2) * 5**-e5 == n


def _exact_summary(pairs, k: int) -> tuple:
    """(log10, digit count, first k digits) read off the exact product."""
    n = _product(pairs)
    d = ndigits(n)
    return ilog10(n), d, _leading(n, d, k)


def _log_summary(pairs, bits: int, prec: int, k: int) -> tuple | None:
    """(log10, digit count, first k digits) from fixed-point logarithms, or
    None when a value lies within the margin of a rounding boundary that
    no exact identity settles.  The count must have more than k digits.

    log10 repeats ``ilog10``: with b the bit length and top the first 64
    bits, it is log10(top) + (b - 64) * LOG10_2, and top is
    floor(2**(63 + frac(log2 C))).
    """
    one = 1 << prec
    margin = prec << (bits.bit_length() + _MARGIN_BITS + _lead_bits(k))
    ln_c = sum(m * _ln(r, prec) for r, m in pairs)

    def near(frac: int) -> bool:  # is frac, in [0, 1), next to 0 or 1?
        return frac < margin or one - frac < margin

    def first(base: int, width: int) -> tuple | None:
        # (whole, lead) with log_base C = whole + frac and lead =
        # floor(base**(width + frac)), the first width + 1 digits in base.
        # Near a boundary it stands only if C == lead * base**(whole - width).
        ln_base = _ln(base, prec)
        whole, frac = divmod((ln_c << prec) // ln_base, one)
        if near(frac):
            whole += frac > margin
            lead = base**width
        else:
            lead, rest = divmod(_exp(frac * ln_base >> prec, prec) * base**width, one)
            if not near(rest):
                return whole, lead
            lead += rest > margin
        e = whole - width  # base is 2 or 10
        if not _is_product(pairs, lead, e, e if base == 10 else 0):
            return None
        return whole, lead

    two = first(2, 63)
    ten = None if two is None else first(10, k - 1)
    if ten is None:
        return None
    (whole2, top), (whole10, lead) = two, ten
    return math.log10(top) + (whole2 - 63) * LOG10_2, whole10 + 1, _leading(lead, k, k)


def _summarize(pairs, k: int = _LEAD_DIGITS) -> tuple:
    """(log10, digit count, first k digits) of prod(r ** m) over ``pairs``;
    past ``_EXACT_BITS`` the count must have more than k digits."""
    bits = sum(m * r.bit_length() for r, m in pairs)  # >= C.bit_length()
    if bits <= _EXACT_BITS:
        return _exact_summary(pairs, k)
    # Whole words keep the _ln cache shared between nearby sizes.
    prec = 256 + 64 * -(-(bits.bit_length() + _lead_bits(k)) // 64)
    while (summary := _log_summary(pairs, bits, prec, k)) is None:
        if bits <= _FALLBACK_BITS:
            return _exact_summary(pairs, k)
        prec *= 2
    return summary


class BigCount(_Record):
    """A configuration count: log10 always, the exact int when known.

    ``exact`` is None for a count computed in log space only.  A count
    made from group factors holds log10 (bit for bit ``ilog10`` of the
    product), its digit count and its first digits, all from a
    fixed-point logarithm; it forms the exact int on the first read of
    ``exact`` and keeps it.  No formatting helper forms it: ``decimal()``
    renders its digits from the factors.  Counts are immutable; equality
    and hashing go by (log10, exact).
    """

    log10: float
    exact: int | None = None

    def __post_init__(self):
        if self.exact is not None and self.exact < 1:
            raise ValueError("exact count must be >= 1")

    @classmethod
    def from_exact(cls, n: int) -> "BigCount":
        return cls(log10=ilog10(n), exact=n)

    @classmethod
    def _from_factors(cls, pairs) -> "BigCount":
        """The count prod(r ** m) over (r, m) pairs, not yet formed."""
        pairs = tuple((r, m) for r, m in pairs if r > 1)
        log10, digits, lead = _summarize(pairs)
        return cls._trusted(log10=log10, _factors=pairs, _digit_count=digits, _lead=lead)

    _deferred = ("exact",)

    def _build(self, name: str) -> int:
        # Only ``exact`` of a count made from factors is left to build.
        return _product(self._factors)

    def _field_repr(self, name: str) -> str:
        # An int past str()'s limit shows its digit count, and is not formed.
        if name == "exact" and vars(self).get(name, 0) is not None:
            if 0 < sys.get_int_max_str_digits() < self.digit_count:
                return f"<int of {self.digit_count} digits>"
        return super()._field_repr(name)

    @property
    def log2(self) -> float:
        return self.log10 * LOG2_10

    @property
    def digit_count(self) -> int:
        d = vars(self).get("_digit_count")
        if d is None:
            d = math.floor(self.log10) + 1 if self.exact is None else ndigits(self.exact)
            vars(self)["_digit_count"] = d
        return d

    def leading(self, k: int = 3) -> str:
        """First ``k`` significant decimal digits, for ``k >= 1``; a count
        made from factors does not form ``exact`` for them.  A log-space
        count gives at most 17, the significant digits of a float."""
        if k < 1:
            raise ValueError(f"leading digits need k >= 1, got {k}")
        lead = vars(self).get("_lead")
        if lead is not None and k <= _LEAD_DIGITS:
            return lead[:k]
        pairs = vars(self).get("_factors")
        if pairs is not None:
            # The logarithm's cost grows faster than k**2, and rendering's
            # with the digit count: up to k**2 digits, render them all.
            if k * k >= self.digit_count:
                return self.decimal()[:k]
            return _summarize(pairs, k)[2]
        if self.exact is not None:
            return _leading(self.exact, self.digit_count, k)
        if k > _FLOAT_DIGITS:
            raise ValueError(
                f"a log-space count has at most {_FLOAT_DIGITS} leading digits, got k={k}"
            )
        frac = self.log10 - math.floor(self.log10)
        # Rounding up to 10**k would carry into the exponent that
        # digit_count reports; truncate as the exact path does instead.
        return str(min(round(10 ** (frac + k - 1)), 10**k - 1))

    def sci(self, sig: int = 2) -> str:
        """Compact scientific notation like '4.1e+71'."""
        lead = self.leading(sig)
        mant = lead[0] + ("." + lead[1:] if len(lead) > 1 else "")
        return f"{mant}e+{self.digit_count - 1:02d}"

    def decimal(self) -> str:
        """Every digit of the count, as ``str(exact)`` gives them, at any
        size.  They are rendered from the group factors, a count made from
        an int being its one factor, so ``exact`` is not formed; a
        log-space count raises ValueError."""
        pairs = vars(self).get("_factors")
        if pairs is None:
            if self.exact is None:
                raise ValueError("a log-space count has no exact digits")
            pairs = ((self.exact, 1),)
        return _render(pairs, self.digit_count)


def _factors(groups) -> list:
    """Each group resolved once into its factor ``(R, M)``."""
    levels = [resolve_levels(g) for g in groups]
    # Past this bound log2 C, which is at least half of it, leaves float range.
    if sum(g.multiplicity * r.bit_length() for g, r in zip(groups, levels) if r > 1) >> 1022:
        raise ValueError("configuration count too large: K is 2**1021 bits or more")
    return [(r, g.multiplicity) for g, r in zip(groups, levels)]


def _fold(factors: list, exact: bool) -> BigCount:
    """The count of a list of group factors ``(R, M)``, folded in group order."""
    if exact:
        return BigCount._from_factors(factors)
    # A plain left-to-right loop: sum() compensates float rounding from
    # Python 3.12 on, which would change the bits between versions.
    log10 = 0.0
    for r, m in factors:
        log10 += m * math.log10(r)
    return BigCount(log10=log10)


def count_configurations(
    platform: Platform, *, mechanical_only: bool = False, mode: CountMode = CountMode.EXACT
) -> BigCount:
    """Product over groups of levels ** multiplicity as a BigCount.

    ``mechanical_only`` drops groups tagged non-mechanical first, without
    resolving them.  In LOG_SPACE mode no big int is ever formed; in
    EXACT mode the count keeps its factors and forms the exact product
    when ``exact`` is read.  A counted range that does not divide
    raises ``NonIntegralSpan``.
    """
    exact = CountMode(mode) is not CountMode.LOG_SPACE
    groups = mechanical_groups(platform) if mechanical_only else platform.groups
    return _fold(_factors(groups), exact)


ComputationalCapacity = namedtuple("ComputationalCapacity", "bits config_digits")
ComputationalCapacity.__doc__ = """Processor capacity: ``bits`` (a float)
equals the transistor count, and the 2**bits configuration count has
``config_digits`` decimal digits."""


def computational_capacity(processor) -> ComputationalCapacity:
    """Capacity of a processor modeled as one bit per transistor.

    Accepts a ProcessorSpec or a bare transistor count, which is checked
    as a ProcessorSpec checks it.  The implied configuration count 2**t is
    formed only when it is small.
    """
    if isinstance(processor, int):
        processor = ProcessorSpec("", processor)
    t = processor.transistors
    return ComputationalCapacity(bits=float(t), config_digits=digits_of_pow2(t))


class CapacityReport(_Record):
    """Full capacity summary for one platform."""

    name: str
    count_all: BigCount
    count_mechanical: BigCount
    computational: ComputationalCapacity | None = None

    @property
    def bits_all(self) -> float:
        return self.count_all.log2

    @property
    def bits_mechanical(self) -> float:
        return self.count_mechanical.log2

    @property
    def bits_all_rounded(self) -> int:
        return round(self.bits_all)

    @property
    def bits_mechanical_rounded(self) -> int:
        return round(self.bits_mechanical)


def analyze(platform: Platform, *, mode: CountMode = CountMode.EXACT) -> CapacityReport:
    """Count configurations both ways and summarize the processor, if any.

    Each group is resolved once; the mechanical count folds the
    mechanical groups' factors in their own order.  When every group is
    mechanical the two counts are one object.
    """
    exact = CountMode(mode) is not CountMode.LOG_SPACE
    factors = _factors(platform.groups)
    mechanical = [f for g, f in zip(platform.groups, factors) if g.is_mechanical]
    count_all = _fold(factors, exact)
    return CapacityReport(
        name=platform.name,
        count_all=count_all,
        count_mechanical=(
            count_all if len(mechanical) == len(factors) else _fold(mechanical, exact)
        ),
        computational=(
            computational_capacity(platform.processor)
            if platform.processor is not None
            else None
        ),
    )


class ComparisonReport(_Record):
    """Two platforms side by side: each name with its mechanical count."""

    left: str
    right: str
    count_left: BigCount
    count_right: BigCount
    bits_difference: float
    log10_ratio: float
    bits_ratio: float

    @property
    def larger(self) -> str:
        if self.bits_difference > 0:
            return self.left
        if self.bits_difference < 0:
            return self.right
        return ""


def compare(a: Platform, b: Platform) -> ComparisonReport:
    """Compare the mechanical capacities of two platforms, each counted as
    ``count_configurations(mechanical_only=True)`` counts it, so no
    non-mechanical group is resolved.  ``bits_difference`` is left minus
    right, ``log10_ratio`` the log10 of count(left)/count(right), and
    ``bits_ratio`` the plain quotient of the two bit capacities.
    """
    ca, cb = (count_configurations(p, mechanical_only=True) for p in (a, b))
    ka, kb = ca.log2, cb.log2
    return ComparisonReport(
        left=a.name, right=b.name, count_left=ca, count_right=cb,
        bits_difference=ka - kb, log10_ratio=ca.log10 - cb.log10,
        bits_ratio=ka / kb if kb != 0 else math.inf,
    )
