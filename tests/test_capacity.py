import math
import random
import sys
from decimal import Context, Decimal

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_count, random_document, random_group_list
from mechx import capacity, cli
from mechx.capacity import (
    LOG10_2,
    BigCount,
    CountMode,
    analyze,
    compare,
    computational_capacity,
    count_configurations,
    digits_of_pow2,
    ilog10,
    ndigits,
)
from mechx.model import (
    Continuous,
    DiscreteStates,
    DofGroup,
    NonIntegralSpan,
    Platform,
    ProcessorSpec,
    resolve_levels,
)
from mechx.specfile import parse_platform

@pytest.fixture(autouse=True, scope="module")
def _int_str_digits():
    # Oracle comparisons below render ints with thousands of digits; the
    # limit is restored so later test modules see the interpreter default.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(50000)
    yield
    sys.set_int_max_str_digits(limit)


def platform_of(groups, **kw):
    return Platform(name="t", kind="artificial", groups=tuple(groups), **kw)


class TestIntHelpers:
    @pytest.mark.parametrize("n", [1, 9, 10, 99, 100, 10**15, 10**15 + 1])
    def test_ndigits_small(self, n):
        assert ndigits(n) == len(str(n))

    def test_ndigits_random_big(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.getrandbits(rng.randint(1, 40000)) | 1
            assert ndigits(n) == len(str(n))

    def test_ndigits_powers_of_ten(self):
        # Exact boundary cases where the bit-length estimate is off by one.
        for d in range(1, 300):
            assert ndigits(10**d) == d + 1
            assert ndigits(10**d - 1) == d

    def test_ilog10_matches_log10(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.getrandbits(rng.randint(1, 3000)) | 1
            # Oracle via exact digit split: n = m * 10^(d-15)
            d = len(str(n))
            approx = math.log10(int(str(n)[:15])) + (d - 15 if d > 15 else 0)
            if d <= 15:
                approx = math.log10(n)
            assert ilog10(n) == pytest.approx(approx, rel=1e-12)

    def test_digits_of_pow2_exhaustive_small(self):
        for e in range(0, 4000):
            assert digits_of_pow2(e) == len(str(2**e))

    def test_digits_of_pow2_large(self):
        assert digits_of_pow2(10**11) == 30102999567

    @pytest.mark.parametrize(
        "t",
        [0, 1, 20000, 47 * 10**6, 10**12, 10**79, 10**80, 10**100, 10**300],
        ids=lambda t: f"{t:.2g}" if t > 10**6 else str(t),
    )
    def test_digits_of_pow2_matches_reference(self, t):
        if t <= 20000:
            expected = len(str(2**t))
        else:
            # floor(t * log10 2) + 1, with log10 2 to 60 digits more than t has.
            ctx = Context(prec=len(str(t)) + 60)
            expected = int(ctx.multiply(Decimal(t), Decimal(2).log10(ctx))) + 1
        assert digits_of_pow2(t) == expected

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: ilog10(0), "ilog10 requires a positive integer"),
            (lambda: ndigits(-1), "ndigits requires a nonnegative integer"),
            (lambda: BigCount(0.0, exact=0), "exact count must be >= 1"),
        ],
        ids=["ilog10", "ndigits", "BigCount"],
    )
    def test_input_checks(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_digits_of_pow2_rejects_negative(self):
        with pytest.raises(ValueError):
            digits_of_pow2(-1)


class TestBigCount:
    def test_from_exact(self):
        c = BigCount.from_exact(1024)
        assert c.exact == 1024
        assert c.log2 == pytest.approx(10.0, abs=1e-12)
        assert c.digit_count == 4
        assert c.leading(2) == "10"

    def test_log_space_digits(self):
        c = BigCount(log10=71.61641735082794, exact=None)
        assert c.digit_count == 72
        assert c.sci(2) == "4.1e+71"

    def test_log_space_leading_digits_never_carry(self):
        # 9.975e+1234 rounds to "100" at two digits; the exponent comes
        # from digit_count, so the mantissa must truncate as exact does.
        c = BigCount(log10=1234 + math.log10(9.975))
        assert c.digit_count == 1235
        assert c.leading(2) == "99"
        assert c.sci(2) == "9.9e+1234"
        assert c.sci(2) == BigCount.from_exact(9975 * 10**1231).sci(2)


class TestCounting:
    def test_empty_platform_counts_one(self):
        p = platform_of([])
        c = count_configurations(p)
        assert c.exact == 1 and c.log10 == 0.0

    def test_simple_product(self):
        p = platform_of(
            [DofGroup("a", 2, DiscreteStates(3600)), DofGroup("b", 1, DiscreteStates(2))]
        )
        assert count_configurations(p).exact == 3600**2 * 2

    def test_mechanical_only_drops_tagged(self):
        p = platform_of(
            [
                DofGroup("servo", 2, DiscreteStates(3600)),
                DofGroup("led", 1, DiscreteStates(2), tags=frozenset(["non-mechanical"])),
            ]
        )
        assert count_configurations(p).exact == 3600**2 * 2
        assert count_configurations(p, mechanical_only=True).exact == 3600**2

    def test_mechanical_only_never_resolves_tagged(self):
        # A non-integral range on a non-mechanical group only matters to
        # the all-groups count.
        led = DofGroup(
            "led", 1, Continuous(0, 1, 0.3), tags=frozenset(["non-mechanical"])
        )
        p = platform_of([led, DofGroup("servo", 1, DiscreteStates(2))])
        assert count_configurations(p, mechanical_only=True).exact == 2
        assert count_configurations(p, mechanical_only=True).log2 == pytest.approx(1.0)
        with pytest.raises(NonIntegralSpan):
            count_configurations(p)
        with pytest.raises(NonIntegralSpan):
            analyze(p)

    def test_log_space_mode_has_no_exact(self):
        p = platform_of([DofGroup("a", 3, DiscreteStates(7))])
        c = count_configurations(p, mode=CountMode.LOG_SPACE)
        assert c.exact is None
        assert c.log10 == pytest.approx(3 * math.log10(7), rel=1e-12)

def _random_tagged_platform(rng):
    """Up to six groups, about a third non-mechanical, with ranges whose
    span is a whole number of resolutions."""
    groups = []
    for i in range(rng.randint(0, 6)):
        if rng.random() < 0.5:
            spec = DiscreteStates(rng.randint(1, 5000))
        else:
            lo, res = rng.uniform(-100, 100), rng.uniform(0.01, 1)
            spec = Continuous(lo, lo + rng.randint(1, 500) * res, res)
        tags = frozenset(["non-mechanical"]) if rng.random() < 0.35 else frozenset()
        groups.append(DofGroup(f"g{i}", rng.randint(1, 40), spec, tags=tags))
    return platform_of(groups)


@pytest.mark.parametrize("mode", list(CountMode))
def test_analyze_matches_count_configurations(mode):
    """analyze and count_configurations give bit-identical counts, and
    refuse the same range that does not divide."""
    rng = random.Random(31)
    for _ in range(200):
        p = _random_tagged_platform(rng)
        assert all(resolve_levels(g) >= 1 for g in p.groups)  # none raises
        rep = analyze(p, mode=mode)
        assert rep.count_all == count_configurations(p, mode=mode)
        assert rep.count_mechanical == count_configurations(
            p, mechanical_only=True, mode=mode
        )
    odd = DofGroup("odd", 1, Continuous(0, 1, 0.3))
    p = platform_of([DofGroup("a", 2, DiscreteStates(3)), odd, DofGroup("b", 1, odd.levels_spec)])
    with pytest.raises(NonIntegralSpan) as counted:
        count_configurations(p, mode=mode)
    with pytest.raises(NonIntegralSpan) as analyzed:
        analyze(p, mode=mode)
    assert counted.value.label == analyzed.value.label == "odd"
    assert str(counted.value) == str(analyzed.value)


def test_default_compute_counts_digits_once(capsys, monkeypatch, tmp_path):
    calls = []

    def counting_ndigits(n):
        calls.append(n.bit_length())
        return ndigits(n)

    monkeypatch.setattr(capacity, "ndigits", counting_ndigits)
    path = tmp_path / "big.mechx"
    path.write_text(
        'platform "big"\n'
        'group "g" count 2000 states 3600\n'
        'group "led" count 3 states 2 tag "non-mechanical"\n'
    )
    assert cli.main(["compute", str(path)]) == 0
    printed = capsys.readouterr().out.count(" digits)\n")
    assert printed == 2
    assert len(calls) <= printed


def test_exact_vs_log_space_many():
    rng = random.Random(9)
    for _ in range(300):
        groups = random_group_list(rng, max_c=10**18)
        p = platform_of(groups)
        ce = count_configurations(p, mode=CountMode.EXACT)
        cl = count_configurations(p, mode=CountMode.LOG_SPACE)
        if ce.log2 == 0:
            assert abs(cl.log2) < 1e-9
        else:
            assert abs(ce.log2 - cl.log2) <= 1e-9 * abs(ce.log2)


def test_brute_force_equivalence_thousand_cases():
    """Exact counts equal one-at-a-time Cartesian enumeration."""
    rng = random.Random(12345)
    for _ in range(1000):
        groups = random_group_list(rng)
        p = platform_of(groups)
        assert count_configurations(p).exact == brute_force_count(groups)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_additivity(data):
    """Capacity of concatenated group lists is the sum of capacities."""
    counts = st.integers(min_value=1, max_value=50)
    mults = st.integers(min_value=1, max_value=5)
    n_a = data.draw(st.integers(0, 3))
    n_b = data.draw(st.integers(0, 3))
    ga = [
        DofGroup(f"a{i}", data.draw(mults), DiscreteStates(data.draw(counts)))
        for i in range(n_a)
    ]
    gb = [
        DofGroup(f"b{i}", data.draw(mults), DiscreteStates(data.draw(counts)))
        for i in range(n_b)
    ]
    k_a = count_configurations(platform_of(ga)).log2
    k_b = count_configurations(platform_of(gb)).log2
    k_ab = count_configurations(platform_of(ga + gb)).log2
    assert k_ab == pytest.approx(k_a + k_b, abs=1e-9 + 1e-12 * abs(k_ab))


@given(
    levels=st.integers(min_value=1, max_value=1000),
    mult=st.integers(min_value=1, max_value=10),
    extra=st.integers(min_value=2, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_monotonicity(levels, mult, extra):
    """Adding a group with at least two levels strictly increases K;
    a one-level group adds nothing."""
    base = [DofGroup("a", mult, DiscreteStates(levels))]
    k0 = count_configurations(platform_of(base)).log2
    k1 = count_configurations(
        platform_of(base + [DofGroup("b", 1, DiscreteStates(extra))])
    ).log2
    k_same = count_configurations(
        platform_of(base + [DofGroup("b", 1, DiscreteStates(1))])
    ).log2
    assert k1 > k0
    assert k_same == pytest.approx(k0, abs=1e-12)


@given(
    levels=st.integers(min_value=1, max_value=500),
    mult=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=200, deadline=None)
def test_resolution_refinement(levels, mult):
    """Ten times finer resolution adds mult * log2(10) bits."""
    coarse = platform_of([DofGroup("g", mult, DiscreteStates(levels))])
    fine = platform_of([DofGroup("g", mult, DiscreteStates(levels * 10))])
    dk = count_configurations(fine).log2 - count_configurations(coarse).log2
    expected = mult * math.log2(10)
    assert dk == pytest.approx(expected, rel=1e-9)


class TestComputational:
    def test_zero_transistors(self):
        cap = computational_capacity(0)
        assert cap.bits == 0.0 and cap.config_digits == 1

    def test_small_exhaustive(self):
        for t in range(0, 1200):
            assert computational_capacity(t).config_digits == len(str(2**t))

    def test_spec_object(self):
        cap = computational_capacity(ProcessorSpec("x", 47_000_000))
        assert cap.bits == 47_000_000.0
        assert cap.config_digits == 14_148_410

    def test_huge_exponent_digit_count(self):
        assert computational_capacity(10**11).config_digits - 1 == 30_102_999_566

    def test_count_beyond_the_largest_float_is_a_value_error(self):
        # The capacity in bits is the count as a float.
        message = "^transistor count must be at most 1.7976931348623157e\\+308$"
        with pytest.raises(ValueError, match=message):
            computational_capacity(10**400)
        with pytest.raises(ValueError, match=message):
            computational_capacity(ProcessorSpec("c", 10**400))
        largest = int(sys.float_info.max)
        assert computational_capacity(largest).bits == sys.float_info.max

    def test_negative_count_is_checked_as_a_processor_spec(self):
        with pytest.raises(ValueError, match="^transistor count must be >= 0, got -1$"):
            computational_capacity(-1)


class TestReports:
    def test_analyze_rounding(self):
        p = platform_of(
            [
                DofGroup("gripper", 1, DiscreteStates(2)),
                DofGroup("servo", 2, DiscreteStates(3600)),
                DofGroup("led", 1, DiscreteStates(2), tags=frozenset(["non-mechanical"])),
            ]
        )
        rep = analyze(p)
        assert rep.bits_all_rounded == 26
        assert rep.bits_mechanical_rounded == 25

    def test_compare_direction(self):
        big = platform_of([DofGroup("a", 4, DiscreteStates(1000))])
        small = platform_of([DofGroup("a", 1, DiscreteStates(4))])
        rep = compare(big, small)
        assert rep.larger == "t"
        assert rep.bits_difference > 0
        assert rep.log10_ratio == pytest.approx(12 - math.log10(4), rel=1e-9)
        assert rep.bits_ratio == pytest.approx(
            (4 * math.log2(1000)) / 2.0, rel=1e-9
        )

    def test_compare_equal(self):
        a = platform_of([DofGroup("a", 1, DiscreteStates(8))])
        rep = compare(a, a)
        assert rep.larger == ""
        assert rep.bits_difference == 0.0

    @given(st.integers(0, 2**32), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_compare_counts_as_mechanical_only_counting_does(self, seed, led_left):
        # A range of 1/0.3 levels is refused, so the LED
        # stops any count that resolves it.
        rng = random.Random(seed)
        a, b = (parse_platform(random_document(rng)).platform for _ in range(2))
        led = DofGroup("LED", 1, Continuous(0, 1, 0.3), {"non-mechanical"})
        if led_left:
            a = Platform(a.name, a.kind, (*a.groups, led), processor=a.processor)
        else:
            b = Platform(b.name, b.kind, (led, *b.groups), processor=b.processor)
        rep = compare(a, b)
        ca = count_configurations(a, mechanical_only=True)
        cb = count_configurations(b, mechanical_only=True)
        assert (rep.left, rep.right) == (a.name, b.name)
        assert (rep.count_left, rep.count_right) == (ca, cb)
        assert rep.bits_difference == ca.log2 - cb.log2
        assert rep.log10_ratio == ca.log10 - cb.log10
        assert rep.bits_ratio == (ca.log2 / cb.log2 if cb.log2 else math.inf)

    def test_compare_never_resolves_a_non_mechanical_group(self, monkeypatch):
        resolved = []

        def spy(group, real=capacity.resolve_levels):
            resolved.append(group.label)
            return real(group)

        monkeypatch.setattr(capacity, "resolve_levels", spy)
        monkeypatch.setattr(capacity, "analyze", None)  # compare must not call it
        led = DofGroup("led", 1, Continuous(0, 1, 0.3), {"non-mechanical"})
        a = platform_of([led, DofGroup("arm", 2, DiscreteStates(3))])
        b = platform_of([DofGroup("lamp", 1, DiscreteStates(2), {"non-mechanical"})])
        rep = compare(a, b)
        assert resolved == ["arm"]
        assert (rep.count_left.exact, rep.count_right.exact) == (9, 1)


def test_log10_2_constant():
    assert LOG10_2 == pytest.approx(0.30102999566398, abs=1e-13)
    assert LOG10_2 == float(Decimal(2).log10(Context(prec=80)))
