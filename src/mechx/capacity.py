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
from decimal import Decimal, localcontext
from enum import Enum
from typing import NamedTuple, Optional

from .model import Platform, resolve_levels


def _log10_2() -> float:
    # float(log10(2)) is fine, but derive it from >=50 significant digits
    # so the rounding is explicit rather than inherited from libm.
    with localcontext() as ctx:
        ctx.prec = 80
        return float(Decimal(2).log10())


LOG10_2 = _log10_2()
LOG2_10 = 1.0 / LOG10_2


class CountMode(str, Enum):
    """How much arithmetic to perform when counting configurations."""

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
    while 10 ** d <= n:
        d += 1
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    return d


def digits_of_pow2(exponent: int) -> int:
    """Decimal digit count of 2**exponent without forming the power."""
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    # floor(e*log10 2) needs ~50 correct digits of log10(2) before the
    # floor is trustworthy for e up to ~1e11.
    with localcontext() as ctx:
        ctx.prec = 80
        return int(Decimal(exponent) * Decimal(2).log10()) + 1


def leading_digits(n: int, k: int = 3) -> str:
    """First ``k`` decimal digits of a positive int, as a string."""
    if n <= 0:
        raise ValueError("leading_digits requires a positive integer")
    d = ndigits(n)
    if d <= k:
        return str(n)
    return str(n // 10 ** (d - k))


@dataclass(frozen=True)
class BigCount:
    """A configuration count carried in exact and/or log10 form.

    ``exact`` is None when the count was computed in log space only.
    ``log10`` is always present.  Formatting helpers never go through
    base-10 rendering of the exact value.
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
        if self.exact is not None:
            return ndigits(self.exact)
        return int(math.floor(self.log10)) + 1

    def leading(self, k: int = 3) -> str:
        """First ``k`` significant decimal digits."""
        if self.exact is not None:
            return leading_digits(self.exact, k)
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


def _count(
    platform: Platform,
    mode: CountMode,
    strict: bool,
    *,
    all_groups: bool,
    mechanical: bool,
) -> tuple[Optional[BigCount], Optional[BigCount]]:
    """Counts over all groups and over the mechanical groups, in one pass
    that resolves each group once.

    A count not asked for is None and builds no product.  Without
    ``all_groups``, non-mechanical groups are skipped unresolved.
    """
    mode = CountMode(mode)
    exact = mode is not CountMode.LOG_SPACE
    log10_all = log10_mech = 0.0
    exact_all = exact_mech = 1
    for g in platform.groups:
        if not (all_groups or g.is_mechanical):
            continue
        levels = resolve_levels(g, strict=strict)
        log10_term = g.multiplicity * math.log10(levels)
        exact_term = levels ** g.multiplicity if exact else 1
        if all_groups:
            log10_all += log10_term
            exact_all *= exact_term
        if mechanical and g.is_mechanical:
            log10_mech += log10_term
            exact_mech *= exact_term

    def total(log10_total: float, exact_total: int) -> BigCount:
        # Exact value wins: recompute the log from it to kill float drift.
        if exact:
            return BigCount.from_exact(exact_total)
        return BigCount(log10=log10_total)

    return (
        total(log10_all, exact_all) if all_groups else None,
        total(log10_mech, exact_mech) if mechanical else None,
    )


def count_configurations(
    platform: Platform,
    *,
    mechanical_only: bool = False,
    mode: CountMode = CountMode.BOTH,
    strict: bool = True,
) -> BigCount:
    """Product over groups of levels ** multiplicity as a BigCount.

    ``mechanical_only`` drops groups tagged non-mechanical first.  In
    LOG_SPACE mode no big int is ever formed; in EXACT and BOTH modes
    the exact product is kept alongside the log.
    """
    count_all, count_mechanical = _count(
        platform,
        mode,
        strict,
        all_groups=not mechanical_only,
        mechanical=mechanical_only,
    )
    return count_mechanical if mechanical_only else count_all


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
    """Count configurations both ways and summarize the processor, if any."""
    count_all, count_mechanical = _count(
        platform, mode, strict, all_groups=True, mechanical=True
    )
    return CapacityReport(
        name=platform.name,
        count_all=count_all,
        count_mechanical=count_mechanical,
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
