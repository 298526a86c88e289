"""Configuration counting and capacity comparison.

The static configuration count of a platform is the product over its
groups of levels ** multiplicity.  These products get astronomically
large (a fountain described here exceeds 10^8000 configurations), so
counts are carried both as exact Python ints and as log10 floats, and
nothing in this module ever renders a large int in base 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from enum import Enum
from typing import NamedTuple, Optional

from .model import Platform, mechanical_groups, resolve_levels

# log10(2) to 80 significant digits.  digits_of_pow2 needs ~50 correct
# digits before its floor is trustworthy for exponents up to ~1e11, and
# LOG10_2 gets its rounding from this value rather than from libm.
_DECIMAL_LOG10_2 = Decimal(2).log10(Context(prec=80))

LOG10_2 = float(_DECIMAL_LOG10_2)
LOG2_10 = 1.0 / LOG10_2


class CountMode(str, Enum):
    """How much arithmetic to perform when counting configurations.

    EXACT and BOTH keep the exact product and take log10 (and so K) from
    it with ``ilog10``; they count identically and differ only in what
    the command line prints.  LOG_SPACE forms no big int: log10 is the
    sum of ``M * log10(R)`` over the groups, added in group order.
    """

    EXACT = "exact"
    LOG_SPACE = "log_space"
    BOTH = "both"


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
    # Estimate from the bit length, then correct; the estimate is off by
    # at most one for any size.
    d = max(1, int(n.bit_length() * LOG10_2))
    power = 10**d
    while power <= n:
        power *= 10
        d += 1
    power //= 10  # now 10 ** (d - 1)
    while d > 1 and power > n:
        power //= 10
        d -= 1
    return d


def digits_of_pow2(exponent: int) -> int:
    """Decimal digit count of 2**exponent without forming the power."""
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    with localcontext() as ctx:
        ctx.prec = 80
        return int(Decimal(exponent) * _DECIMAL_LOG10_2) + 1


def leading_digits(n: int, k: int = 3) -> str:
    """First ``k`` decimal digits of a positive int, as a string."""
    if n <= 0:
        raise ValueError("leading_digits requires a positive integer")
    return _leading(n, ndigits(n), k)


def _leading(n: int, d: int, k: int) -> str:
    # First k digits of n, which has d digits.
    if d <= k:
        return str(n)
    return str(n // 10 ** (d - k))


@dataclass(frozen=True)
class BigCount:
    """A configuration count carried in exact and/or log10 form.

    ``exact`` is None when the count was computed in log space only.
    ``log10`` is always present.  Formatting helpers never go through
    base-10 rendering of the exact value; the digit count is derived at
    most once and shared by ``leading`` and ``sci``.
    """

    log10: float
    exact: Optional[int] = None

    def __post_init__(self):
        if self.exact is not None:
            if self.exact < 1:
                raise ValueError("exact count must be >= 1")

    @classmethod
    def from_exact(cls, n: int) -> "BigCount":
        return cls(log10=ilog10(n), exact=n)

    @property
    def log2(self) -> float:
        return self.log10 * LOG2_10

    @property
    def digit_count(self) -> int:
        # Cached outside the dataclass fields, so equality is unaffected.
        d = self.__dict__.get("_digit_count")
        if d is None:
            if self.exact is not None:
                d = ndigits(self.exact)
            else:
                d = int(math.floor(self.log10)) + 1
            object.__setattr__(self, "_digit_count", d)
        return d

    def leading(self, k: int = 3) -> str:
        """First ``k`` significant decimal digits."""
        if self.exact is not None:
            return _leading(self.exact, self.digit_count, k)
        frac = self.log10 - math.floor(self.log10)
        # Rounding up to 10**k would carry into the exponent that
        # digit_count reports; truncate as the exact path does instead.
        return str(min(round(10 ** (frac + k - 1)), 10**k - 1))

    def sci(self, sig: int = 2) -> str:
        """Compact scientific notation like '4.1e+71'."""
        lead = self.leading(sig)
        mant = lead[0] + ("." + lead[1:] if len(lead) > 1 else "")
        return f"{mant}e+{self.digit_count - 1:02d}"

    def __mul__(self, other: "BigCount") -> "BigCount":
        if not isinstance(other, BigCount):
            return NotImplemented
        exact = None
        if self.exact is not None and other.exact is not None:
            exact = self.exact * other.exact
            return BigCount(log10=ilog10(exact), exact=exact)
        return BigCount(log10=self.log10 + other.log10, exact=None)


def _factors(groups, exact: bool, strict: bool) -> list:
    """Each group resolved once into its factor: ``R ** M`` when ``exact``,
    ``M * log10(R)`` in log space."""
    levels = [resolve_levels(g, strict=strict) for g in groups]
    if exact:
        return [r**g.multiplicity for g, r in zip(groups, levels)]
    return [g.multiplicity * math.log10(r) for g, r in zip(groups, levels)]


def _fold(factors: list, exact: bool) -> BigCount:
    """The count of a list of group factors, folded in group order."""
    if exact:
        # Exact value wins: the log comes from it, free of float drift.
        return BigCount.from_exact(math.prod(factors))
    # A plain left-to-right loop: sum() compensates float rounding from
    # Python 3.12 on, which would change the bits between versions.
    log10 = 0.0
    for term in factors:
        log10 += term
    return BigCount(log10=log10)


def count_configurations(
    platform: Platform,
    *,
    mechanical_only: bool = False,
    mode: CountMode = CountMode.BOTH,
    strict: bool = True,
) -> BigCount:
    """Product over groups of levels ** multiplicity as a BigCount.

    ``mechanical_only`` drops groups tagged non-mechanical first, without
    resolving them.  In LOG_SPACE mode no big int is ever formed; in
    EXACT and BOTH modes the exact product is kept alongside the log.
    """
    exact = CountMode(mode) is not CountMode.LOG_SPACE
    groups = mechanical_groups(platform) if mechanical_only else platform.groups
    return _fold(_factors(groups, exact, strict), exact)


def kinematic_expressivity(
    platform: Platform,
    *,
    mechanical_only: bool = False,
    mode: CountMode = CountMode.BOTH,
    strict: bool = True,
) -> float:
    """Capacity in bits: log2 of the configuration count."""
    return count_configurations(
        platform, mechanical_only=mechanical_only, mode=mode, strict=strict
    ).log2


class ComputationalCapacity(NamedTuple):
    """Processor capacity: ``bits`` equals the transistor count, and the
    2**bits configuration count has ``config_digits`` decimal digits."""

    bits: float
    config_digits: int


def computational_capacity(processor) -> ComputationalCapacity:
    """Capacity of a processor modeled as one bit per transistor.

    Accepts a ProcessorSpec or a bare transistor count.  The implied
    configuration count 2**t is never materialized.
    """
    t = processor if isinstance(processor, int) else processor.transistors
    if t < 0:
        raise ValueError("transistor count must be >= 0")
    return ComputationalCapacity(bits=float(t), config_digits=digits_of_pow2(t))


@dataclass(frozen=True)
class CapacityReport:
    """Full capacity summary for one platform."""

    name: str
    count_all: BigCount
    count_mechanical: BigCount
    computational: Optional[ComputationalCapacity] = None

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


def analyze(
    platform: Platform,
    *,
    mode: CountMode = CountMode.BOTH,
    strict: bool = True,
) -> CapacityReport:
    """Count configurations both ways and summarize the processor, if any.

    Each group is resolved once; the mechanical count folds the
    mechanical groups' factors in their own order.
    """
    exact = CountMode(mode) is not CountMode.LOG_SPACE
    factors = _factors(platform.groups, exact, strict)
    mechanical = [f for g, f in zip(platform.groups, factors) if g.is_mechanical]
    return CapacityReport(
        name=platform.name,
        count_all=_fold(factors, exact),
        count_mechanical=_fold(mechanical, exact),
        computational=(
            computational_capacity(platform.processor)
            if platform.processor is not None
            else None
        ),
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Two platforms side by side, mechanical-capacity based."""

    left: CapacityReport
    right: CapacityReport
    bits_difference: float
    log10_ratio: float
    bits_ratio: float

    @property
    def larger(self) -> str:
        if self.bits_difference > 0:
            return self.left.name
        if self.bits_difference < 0:
            return self.right.name
        return ""


def compare(a: Platform, b: Platform, *, strict: bool = True) -> ComparisonReport:
    """Compare mechanical capacities of two platforms.

    ``bits_difference`` is left minus right; ``log10_ratio`` is the
    log10 of count(left)/count(right); ``bits_ratio`` is the plain
    quotient of the two bit capacities.
    """
    ra = analyze(a, strict=strict)
    rb = analyze(b, strict=strict)
    diff = ra.bits_mechanical - rb.bits_mechanical
    ratio = (
        ra.bits_mechanical / rb.bits_mechanical
        if rb.bits_mechanical != 0
        else math.inf
    )
    return ComparisonReport(
        left=ra,
        right=rb,
        bits_difference=diff,
        log10_ratio=ra.count_mechanical.log10 - rb.count_mechanical.log10,
        bits_ratio=ratio,
    )
