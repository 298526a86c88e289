"""The counting core: summaries from a fixed-point logarithm against the
exact product, the exact fallback at rounding boundaries, the on-demand
exact int and the decimal rendering of a count."""

import decimal
import math
import pickle
import random
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mechx import capacity
from mechx.capacity import (
    LOG2_10,
    BigCount,
    CountMode,
    analyze,
    count_configurations,
    digits_of_pow2,
    ilog10,
)
from mechx.model import DiscreteStates, DofGroup, Platform


def platform_of(pairs, non_mechanical=()):
    groups = tuple(
        DofGroup(
            f"g{i}",
            m,
            DiscreteStates(r),
            tags=frozenset(["non-mechanical"]) if i in non_mechanical else frozenset(),
        )
        for i, (r, m) in enumerate(pairs)
    )
    return Platform(name="t", kind="artificial", groups=groups)


def reference(n):
    """(ilog10, digit count, first three digits) of n, from one division:
    n // 10**j keeps n's leading digits and has j fewer of them."""
    j = max(0, int(n.bit_length() * 0.30103) - 4)
    head = str(n // 10**j)
    return ilog10(n), j + len(head), head[:3]


def summary(c):
    return (
        c.log10.hex(),
        c.log2.hex(),
        round(c.log2),
        c.digit_count,
        c.leading(2),
        c.leading(3),
        c.sci(),
    )


def expected(n):
    log10, digits, lead3 = reference(n)
    log2 = log10 * LOG2_10
    sci = lead3[0] + ("." + lead3[1:2] if digits > 1 else "") + f"e+{digits - 1:02d}"
    return (log10.hex(), log2.hex(), round(log2), digits, lead3[:2], lead3, sci)


@pytest.fixture()
def paths(monkeypatch):
    """Counts, by name, of the ways a summary was settled: the exact
    product and the exact identity check."""
    seen = {"product": 0, "identity": 0}

    def product(*args, real=capacity._exact_summary):
        seen["product"] += 1
        return real(*args)

    def identity(*args, real=capacity._is_product):
        seen["identity"] += real(*args)
        return real(*args)

    monkeypatch.setattr(capacity, "_exact_summary", product)
    monkeypatch.setattr(capacity, "_is_product", identity)
    return seen


def test_log_summary_matches_exact_product(paths):
    """300 platforms of 1-4 groups, M log-uniform up to 10**5 and R up to
    3600: log10 and K bit for bit, round(K), the digit count and the
    leading digits all equal the exact product's."""
    rng = random.Random(606)
    for _ in range(300):
        pairs = [
            (
                round(math.exp(rng.uniform(math.log(2), math.log(3600)))),
                round(math.exp(rng.uniform(0, math.log(1e5)))),
            )
            for _ in range(rng.randint(1, 4))
        ]
        c = count_configurations(platform_of(pairs))
        assert summary(c) == expected(math.prod(r**m for r, m in pairs)), pairs
        assert "exact" not in vars(c)
    # Most of these go through the logarithm; the small ones are formed.
    assert 0 < paths["product"] < 150


def _near_half(n):
    # The int closest below 2**(n + 1/2): K lies within 2**-n of n + 1/2.
    return math.isqrt(2 ** (2 * n + 1))


# (pairs, how the boundary is settled)
BOUNDARY_CASES = {
    # Next to a power of ten: no identity holds, so C is formed.
    "just above 10**21000": ([(10**70 + 1, 300)], "product"),
    "just below 10**21000": ([(10**70 - 1, 300)], "product"),
    "just below 7 * 10**8100": ([(10**90 - 1, 90), (7, 1)], "product"),
    "just above 2**25000": ([(2**250 + 1, 100)], "product"),
    # Exactly on a boundary: an exact identity settles it without C.
    "2**30000": ([(2, 30000)], "identity"),
    "4096**2000": ([(4096, 2000)], "identity"),
    "1024**3000 * 8**100": ([(1024, 3000), (8, 100)], "identity"),
    "3**40 * 2**25000": ([(3, 40), (2, 25000)], "identity"),
    "10**7000": ([(10, 7000)], "identity"),
    "12 * 10**7000": ([(10, 7000), (12, 1)], "identity"),
    "5**9000 * 2**9003": ([(5, 9000), (2, 9003)], "identity"),
    # K next to n + 1/2.  round(K) reads the float that log10 gives, and
    # that float is ilog10's bit for bit, so no boundary lies here.
    "K next to 25000.5": ([(_near_half(25000), 1)], None),
    "K next to 30001.5": ([(_near_half(15000), 1), (2**15001, 1)], None),
}


@pytest.mark.parametrize("name", list(BOUNDARY_CASES))
def test_boundary_cases_fall_back_to_exact_arithmetic(paths, name):
    pairs, settled_by = BOUNDARY_CASES[name]
    c = BigCount._from_factors(pairs)
    assert summary(c) == expected(math.prod(r**m for r, m in pairs))
    fired = {k for k, v in paths.items() if v}
    assert fired == ({settled_by} if settled_by else set())


@pytest.mark.parametrize(
    "levels, count, digits, sci, k_rounded",
    [
        (3600, 10**12, 3556302500768, "1.9e+3556302500767", 11813781191217),
        (2, 10**12, digits_of_pow2(10**12), "9.5e+301029995663", 10**12),
        (10, 10**12, 10**12 + 1, "1.0e+1000000000000", 3321928094887),
        # Within the first margin of 10**(7 * 10**7), and too large to
        # form: settled at twice the precision.
        (10**70 + 1, 10**6, 7 * 10**7 + 1, "1.0e+70000000", 232534967),
    ],
)
def test_huge_counts_never_form_the_product(paths, levels, count, digits, sci, k_rounded):
    c = count_configurations(platform_of([(levels, count)]))
    assert (c.digit_count, c.sci(), round(c.log2)) == (digits, sci, k_rounded)
    assert paths["product"] == 0 and "exact" not in vars(c)


@pytest.mark.parametrize(
    "pairs, n, e2, e5",
    [
        ([(3, 5)], 7, 0, 0),  # 3**5 has more bits than n: no product formed
        ([(3, 2)], 5, 0, 0),  # the part prime to 10 exceeds n
        ([(2, 3)], 1, 1, 0),  # 2**2 left over, more than n has bits
        ([(3, 1)], 3, 1, 0),  # an exponent of 2 nothing supplies
        ([(2, 1), (5, 2)], 1, 0, 3),  # an exponent of 5 nothing supplies
        ([(6, 2), (5, 1)], 9, 2, 1),  # 180 == 9 * 4 * 5
        ([(10, 4), (7, 1)], 7, 4, 4),
    ],
)
def test_identity_check_agrees_with_the_product(pairs, n, e2, e5):
    product = math.prod(r**m for r, m in pairs)
    assert capacity._is_product(pairs, n, e2, e5) == (product == n * 2**e2 * 5**e5)


def test_exact_is_formed_on_demand_and_kept():
    pairs = [(3600, 3000), (7, 2)]
    c = count_configurations(platform_of(pairs))
    assert "exact" not in vars(c)
    assert c.exact == 3600**3000 * 49
    assert vars(c)["exact"] is c.exact
    assert count_configurations(platform_of(pairs), mode=CountMode.EXACT) == c
    assert count_configurations(platform_of(pairs), mode=CountMode.LOG_SPACE).exact is None


def test_count_keeps_value_semantics():
    lazy = count_configurations(platform_of([(3600, 3000)]))
    eager = BigCount.from_exact(3600**3000)
    assert lazy == eager and hash(lazy) == hash(eager)
    assert lazy != BigCount.from_exact(3600**3000 + 1)
    assert count_configurations(platform_of([(3600, 3000), (2, 1)])) == BigCount.from_exact(
        3600**3000 * 2
    )
    assert repr(BigCount.from_exact(1024)) == "BigCount(log10=3.010299956639812, exact=1024)"
    assert pickle.loads(pickle.dumps(lazy)) == eager
    with pytest.raises(FrozenInstanceError):
        lazy.log10 = 1.0


def test_all_mechanical_platform_shares_one_count():
    rep = analyze(platform_of([(3600, 3000), (2, 5)]))
    assert rep.count_all is rep.count_mechanical
    rep = analyze(platform_of([(3600, 3000), (2, 5)], non_mechanical={1}))
    assert rep.count_all is not rep.count_mechanical


def _str(n):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@given(
    st.lists(
        st.one_of(
            st.tuples(st.integers(1, 3600), st.integers(0, 3000)),
            st.tuples(st.sampled_from([10, 1000, 2**64, 10**70 - 1]), st.integers(0, 300)),
        ),
        max_size=4,
    )
)
@settings(max_examples=150, deadline=None)
@example([(1000, 5000)])
@example([(10, 7)])
@example([])
def test_decimal_matches_the_product(pairs):
    c = BigCount._from_factors(pairs)
    assert c.decimal() == _str(math.prod(r**m for r, m in pairs))
    assert "exact" not in vars(c)


def test_decimal_of_a_count_made_from_an_int_or_in_log_space():
    assert BigCount.from_exact(10**40 + 7).decimal() == str(10**40 + 7)
    # 9,543 digits, past str()'s default limit of 4,300.
    assert BigCount.from_exact(3**20_000).decimal() == _str(3**20_000)
    with pytest.raises(ValueError, match="log-space"):
        BigCount(log10=2.0).decimal()


# 1 to 6 factors: small levels, a huge level to the power 1 (the one
# factor of a count made from an int), and bases that repeat.
_RENDER_PAIRS = st.lists(
    st.one_of(
        st.tuples(st.integers(2, 3600), st.integers(1, 3000)),
        st.tuples(st.integers(2, 10**600), st.just(1)),
        st.tuples(st.sampled_from([2, 3, 10, 3600]), st.integers(0, 5000)),
    ),
    min_size=1,
    max_size=6,
)


@given(_RENDER_PAIRS)
@settings(max_examples=150, deadline=None)
@example([(3**20_000, 1)])
@example([(6, 100), (6, 100), (6, 1)])
@example([(7, 1)])
def test_render_gives_every_digit_of_the_product(pairs):
    n = capacity._product(pairs)
    assert capacity._render(pairs, capacity.ndigits(n)) == _str(n)


def test_render_is_one_square_and_multiply_chain(monkeypatch):
    # bit_length(max m) squares, then one product for each set bit of each
    # m, whatever the order of the groups; no power is formed apart.
    products = []

    class Counting(decimal.Context):
        def multiply(self, a, b):
            products.append(a is b)
            return super().multiply(a, b)

        def power(self, *args):
            raise AssertionError("power called")

    monkeypatch.setattr(decimal, "Context", Counting)
    pairs = [(3, 1000), (7, 37), (3601, 1), (13, 0b101101), (2, 0)]
    n = capacity._product(pairs)
    squares = max(m for _, m in pairs).bit_length()
    for order in (pairs, pairs[::-1], pairs[2:] + pairs[:2]):
        products.clear()
        assert capacity._render(order, capacity.ndigits(n)) == _str(n)
        assert products.count(True) == squares
        assert products.count(False) == sum(bin(m).count("1") for _, m in pairs)
    products.clear()
    assert capacity._render([], 1) == "1" and products == []


def test_render_converts_a_long_int_by_halves(monkeypatch):
    # Decimal(n) takes time quadratic in n's length, so no int of more
    # than 4,096 bits (the README's bound) reaches it, and the digits
    # still come out whole.
    widths = []

    class Recording(decimal.Decimal):
        def __new__(cls, value="0", context=None):
            if isinstance(value, int):
                widths.append(value.bit_length())
            return super().__new__(cls, value, context)

    monkeypatch.setattr(decimal, "Decimal", Recording)
    digits = BigCount.from_exact(7**200_000).decimal()
    assert 0 < max(widths) <= 4096
    assert digits == BigCount._from_factors([(7, 200_000)]).decimal()


def test_render_raises_rather_than_round():
    pairs = [(3, 30_000), (7, 5), (11, 1)]
    n = capacity._product(pairs)
    assert n % 10 and capacity._render(pairs, capacity.ndigits(n)) == _str(n)
    with pytest.raises(decimal.Inexact):
        capacity._render(pairs, capacity.ndigits(n) - 3)


def test_decimal_raises_rather_than_drop_a_digit():
    c = BigCount._from_factors([(3, 30_000)])
    short = BigCount._trusted(**{**vars(c), "_digit_count": c.digit_count - 3})
    with pytest.raises(decimal.Inexact):
        short.decimal()


# Exact powers of ten, which put every leading digit past the first on a
# rounding boundary that only the exact identity check settles.
_TENS = st.integers(1, 12_000).flatmap(
    lambda m: st.sampled_from([[(10, m)], [(2, m), (5, m)], [(5, m), (3, 1), (2, m)]])
)


@given(
    st.lists(st.tuples(st.integers(2, 3600), st.integers(0, 3000)), max_size=3),
    st.one_of(st.just([]), _TENS),
)
@settings(max_examples=60, deadline=None)
@example([(3, 30_000)], [])
@example([(10**70 - 1, 300)], [])
@example([], [(2, 30_000), (5, 30_000)])
@example([(7, 1)], [])
def test_leading_digits_past_the_kept_ones_match_the_product(pairs, tens):
    pairs += tens
    c = BigCount._from_factors(pairs)
    digits = _str(math.prod(r**m for r, m in pairs))
    assert [c.leading(k) for k in range(1, 61)] == [digits[:k] for k in range(1, 61)]
    assert c.leading(len(digits) + 1) == digits
    assert "exact" not in vars(c)


@pytest.mark.parametrize("k", [0, -2])
def test_leading_refuses_fewer_than_one_digit(k):
    counts = (
        BigCount._from_factors([(3, 30_000)]),
        BigCount.from_exact(3**30),
        BigCount(log10=3.2),
    )
    for c in counts:
        for call in (c.leading, c.sci):
            with pytest.raises(ValueError, match="k >= 1"):
                call(k)
    assert "exact" not in vars(counts[0])


@pytest.mark.parametrize("k", [True, 2.5, math.nan, math.inf, "3"], ids=repr)
def test_leading_refuses_a_k_that_is_not_an_int(k):
    # Else NaN reads every digit, True one and 2.5 fails in a slice.
    counts = (
        BigCount._from_factors([(3, 30_000)]),
        BigCount.from_exact(3**30),
        BigCount(log10=3.2),
    )
    for c in counts:
        for call in (c.leading, c.sci):
            with pytest.raises(ValueError) as info:
                call(k)
            assert str(info.value) == f"leading digits need an int k, got {k!r}"
    assert "exact" not in vars(counts[0])


@pytest.mark.parametrize("k", [18, 309, 400])
def test_log_space_leading_refuses_more_digits_than_a_float_holds(k):
    c = BigCount(log10=1234 + math.log10(3.7))
    assert len(c.leading(17)) == 17
    with pytest.raises(ValueError, match=r"at most 17 leading digits, got k=%d$" % k):
        c.leading(k)


def test_leading_digits_past_the_int_to_str_limit():
    # 700 digits, more than a limit of 640 allows: off the logarithm of a
    # 524,834-digit count, and off the 9,543-digit int 3**20000.
    c = BigCount._from_factors([(3, 1_100_000)])
    n = 3**20_000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        leads = c.leading(700), BigCount.from_exact(n).leading(700)
    finally:
        sys.set_int_max_str_digits(limit)
    assert leads == (c.decimal()[:700], _str(n)[:700])
    assert "exact" not in vars(c)
