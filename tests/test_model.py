import pytest
from hypothesis import given, strategies as st

from mechx.model import (
    Continuous,
    DiscreteStates,
    DofGroup,
    NonIntegralSpan,
    Platform,
    ProcessorSpec,
    mechanical_groups,
    resolve_levels,
)


def cont_group(lo, hi, res, label="g", mult=1, tags=()):
    return DofGroup(
        label=label,
        multiplicity=mult,
        levels_spec=Continuous(minimum=lo, maximum=hi, resolution=res),
        tags=frozenset(tags),
    )


class TestResolveLevels:
    def test_discrete_passthrough(self):
        g = DofGroup("hand", 2, DiscreteStates(2))
        assert resolve_levels(g) == 2

    @pytest.mark.parametrize(
        "lo,hi,res,expected",
        [
            (0, 360, 0.1, 3600),
            (-119.5, 119.5, 0.1, 2390),
            (-1.5, 1.5, 0.1, 30),
            (0, 150, 0.08, 1875),
            (0, 1, 0.01, 100),
            (-180, 180, 0.000001, 360000000),
            (0, 160, 1, 160),
            (-88.5, -2, 0.1, 865),
        ],
    )
    def test_no_endpoint_term(self, lo, hi, res, expected):
        # span/resolution, not span/resolution + 1
        assert resolve_levels(cont_group(lo, hi, res)) == expected

    def test_strict_rejects_non_integral(self):
        g = cont_group(0, 10.05, 0.1)
        with pytest.raises(NonIntegralSpan) as err:
            resolve_levels(g)
        assert err.value.label == "g"
        assert err.value.nearest == 100 or err.value.nearest == 101

    def test_lenient_rounds(self):
        g = cont_group(0, 10.05, 0.1)
        assert resolve_levels(g, strict=False) == round(10.05 / 0.1)

    def test_tolerance_accepts_float_noise(self):
        # 66.9/0.1 is 668.99999999999... in floats; must not raise.
        g = cont_group(-21.7, 45.2, 0.1)
        assert resolve_levels(g) == 669


class TestInvariants:
    def test_state_count_positive(self):
        with pytest.raises(ValueError):
            DiscreteStates(0)

    def test_range_order(self):
        with pytest.raises(ValueError):
            Continuous(10, 10, 0.1)
        with pytest.raises(ValueError):
            Continuous(10, 5, 0.1)

    def test_resolution_positive(self):
        with pytest.raises(ValueError):
            Continuous(0, 10, 0)
        with pytest.raises(ValueError):
            Continuous(0, 10, -0.1)

    def test_span_at_least_resolution(self):
        with pytest.raises(ValueError):
            Continuous(0, 0.05, 0.1)

    def test_multiplicity_positive(self):
        with pytest.raises(ValueError):
            DofGroup("g", 0, DiscreteStates(2))

    def test_label_non_empty(self):
        with pytest.raises(ValueError):
            DofGroup("", 1, DiscreteStates(2))

    def test_transistors_non_negative(self):
        with pytest.raises(ValueError):
            ProcessorSpec("x", -1)

    def test_platform_kind_checked(self):
        with pytest.raises(ValueError):
            Platform(name="p", kind="robotic")

    def test_platform_duplicate_labels(self):
        g = DofGroup("a", 1, DiscreteStates(2))
        with pytest.raises(ValueError):
            Platform(name="p", kind="artificial", groups=(g, g))


class TestMechanicalGroups:
    def test_filters_tagged(self):
        groups = (
            DofGroup("servo", 2, DiscreteStates(3600)),
            DofGroup("led", 1, DiscreteStates(2), tags=frozenset(["non-mechanical"])),
            DofGroup("gripper", 1, DiscreteStates(2)),
        )
        p = Platform(name="p", kind="artificial", groups=groups)
        kept = mechanical_groups(p)
        assert [g.label for g in kept] == ["servo", "gripper"]

    def test_other_tags_not_filtered(self):
        g = DofGroup("servo", 1, DiscreteStates(10), tags=frozenset(["estimated"]))
        p = Platform(name="p", kind="artificial", groups=(g,))
        assert mechanical_groups(p) == [g]


@given(
    levels=st.integers(min_value=1, max_value=10**6),
    res=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    lo=st.integers(min_value=-1000, max_value=1000),
)
def test_integral_spans_resolve_exactly(levels, res, lo):
    """With binary-exact resolutions, the constructed span resolves back
    to the chosen level count in strict mode."""
    g = cont_group(lo, lo + levels * res, res)
    assert resolve_levels(g) == levels
