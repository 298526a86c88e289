"""Acceptance gate: the ten headline claims this package must reproduce.

Each test prints one "criterion N: PASS ..." line on success (run with
``pytest tests/test_acceptance.py -s`` to see them); a failing criterion
shows up as an ordinary pytest failure for that test.  Tolerances are
pinned in the assertions, not configurable.
"""

import random

import pytest

from mechx.aemachine import (
    INCREMENTER,
    Outcome,
    format_run,
    map_tape,
    run,
    to_mechanization,
    traces_isomorphic,
)
from mechx.capacity import (
    CountMode,
    analyze,
    computational_capacity,
    count_configurations,
)
from mechx.figures import trend_table
from mechx.model import Continuous, DiscreteStates, DofGroup, Platform, resolve_levels
from mechx.specfile import (
    DATASET_MANIFEST,
    SpecFileError,
    dataset_lookup,
    load_dataset,
    parse_platform,
    serialize_platform,
)

from conftest import (
    SIMPLE_ROBOT,
    brute_force_count,
    machine_maps,
    random_document,
    random_group_list,
    random_machine,
    random_tape,
)
from test_dataset import GROUP_TABLE

DATASET = [doc.platform for doc in load_dataset()]


def _report(n: int, message: str):
    print(f"criterion {n}: PASS {message}")


def test_criterion_01_simple_robot_bits():
    platform = parse_platform(SIMPLE_ROBOT).platform
    report = analyze(platform)
    assert abs(report.bits_all - 25.63) <= 0.01
    assert report.bits_all_rounded == 26
    assert abs(report.bits_mechanical - 24.63) <= 0.01
    assert report.bits_mechanical_rounded == 25
    _report(1, f"simple robot K(all)={report.bits_all:.2f} -> 26, "
               f"K(mech)={report.bits_mechanical:.2f} -> 25")


def test_criterion_02_reference_humanoid():
    platform = dataset_lookup("nao").platform
    assert any(g.label == "unlisted-arm-pair" for g in platform.groups)
    count = count_configurations(platform)
    assert abs(count.log10 - 71.6) <= 0.1
    assert abs(count.log2 - 238) <= 0.5
    _report(2, f"log10 C={count.log10:.3f}, K={count.log2:.1f} bits")


def test_criterion_03_fountain_exact_and_log():
    fountain = dataset_lookup("bellagio").platform
    count = count_configurations(fountain)
    assert abs(count.log2 - 27372) <= 1
    assert abs(count.log10 - 8239.7) <= 0.1
    assert count.digit_count == 8240

    oarsmen = count_configurations(
        dataset_lookup("bellagio-all-oarsmen").platform
    )
    assert abs(oarsmen.log2 - 34452) <= 1
    hi_res = count_configurations(dataset_lookup("bellagio-hi-res").platform)
    assert abs(hi_res.log2 - 39046) <= 1

    for platform in (fountain,):
        exact = count_configurations(platform, mode=CountMode.EXACT)
        log_only = count_configurations(platform, mode=CountMode.LOG_SPACE)
        assert exact.exact is not None and log_only.exact is None
        assert abs(exact.log2 - log_only.log2) <= 1e-9 * exact.log2
    _report(3, f"fountain K={count.log2:.1f} bits, C has {count.digit_count} "
               f"digits, exact/log agree to 1e-9")


def test_criterion_04_worm_models():
    anatomy = count_configurations(dataset_lookup("c-elegans-anatomy").platform)
    assert abs(anatomy.log2 - 490.7) <= 0.5
    assert abs(anatomy.log10 - 147.7) <= 0.1
    behavior = count_configurations(
        dataset_lookup("c-elegans-agar").platform
    )
    assert abs(behavior.log2 - 22.6) <= 0.5
    assert behavior.exact == 6_400_000
    _report(4, f"anatomy K={anatomy.log2:.1f}, behavior C="
               f"{behavior.exact} (K={behavior.log2:.1f})")


def test_criterion_05_transistor_bound():
    cap = computational_capacity(10**11)
    assert cap.bits == 1e11
    assert cap.config_digits - 1 == 30_102_999_566
    _report(5, f"10^11 transistors -> 10^{cap.config_digits - 1} "
               f"configurations, integer-exact")


def test_criterion_06_dataset_fidelity():
    assert len(GROUP_TABLE) == 142
    for stem, label, multiplicity, levels in GROUP_TABLE:
        platform = dataset_lookup(stem).platform
        group = next(g for g in platform.groups if g.label == label)
        assert group.multiplicity == multiplicity, (stem, label)
        assert resolve_levels(group) == levels, (stem, label)
    _report(6, f"all {len(GROUP_TABLE)} bundled group rows resolve exactly")


def test_criterion_07_trend_gaps():
    fig2 = trend_table(DATASET, "fig2_mech_configs")
    assert len(fig2) == 19
    worst_log10 = max(p.y for p in fig2)
    assert worst_log10 <= 140
    fig3 = trend_table(DATASET, "fig3_bits_vs_bits")
    assert len(fig3) == 19
    smallest_gap = min(p.x - p.y for p in fig3)
    assert smallest_gap > 10**6 - 600
    _report(7, f"max log10 C_mech={worst_log10:.1f} <= 140, min "
               f"computational-mechanical gap={smallest_gap:.1f} bits")


def test_criterion_08_counting_properties():
    rng = random.Random(80808)
    brute_cases = 0
    for _ in range(1000):
        groups = random_group_list(rng)
        count = count_configurations(
            Platform(name="p", kind="artificial", groups=tuple(groups))
        )
        assert count.exact == brute_force_count(groups)
        brute_cases += 1

    for _ in range(200):
        left = random_group_list(rng)
        right = [
            DofGroup(
                label=f"r{i}",
                multiplicity=g.multiplicity,
                levels_spec=g.levels_spec,
                tags=g.tags,
            )
            for i, g in enumerate(random_group_list(rng))
        ]
        a = count_configurations(
            Platform(name="a", kind="artificial", groups=tuple(left))
        )
        b = count_configurations(
            Platform(name="b", kind="artificial", groups=tuple(right))
        )
        both = count_configurations(
            Platform(name="ab", kind="artificial", groups=tuple(left + right))
        )
        # Additivity in bits is multiplicativity in counts, exactly.
        assert both.exact == a.exact * b.exact
        # Monotonicity: adding groups never shrinks the count.
        assert both.exact >= a.exact

    for _ in range(100):
        n = rng.randint(1, 500)
        m = rng.randint(1, 6)
        res = rng.choice((0.25, 0.5, 1.0, 2.0))
        coarse = DofGroup(
            label="c",
            multiplicity=m,
            levels_spec=Continuous(0.0, n * res, res),
        )
        fine = DofGroup(
            label="c",
            multiplicity=m,
            levels_spec=Continuous(0.0, n * res, res / 10),
        )
        c = count_configurations(
            Platform(name="c", kind="artificial", groups=(coarse,))
        )
        f = count_configurations(
            Platform(name="f", kind="artificial", groups=(fine,))
        )
        # Ten-fold finer resolution adds exactly M log2(10) bits.
        assert f.exact == c.exact * 10**m

    for _ in range(300):
        groups = tuple(random_group_list(rng, max_c=10**18))
        platform = Platform(name="x", kind="artificial", groups=groups)
        exact = count_configurations(platform, mode=CountMode.EXACT)
        log_only = count_configurations(platform, mode=CountMode.LOG_SPACE)
        assert abs(exact.log2 - log_only.log2) <= 1e-9 * max(exact.log2, 1.0)

    _report(8, f"{brute_cases} brute-force cases plus additivity, "
               f"monotonicity, refinement, exact-vs-log agreement")


def test_criterion_09_machine_equivalence():
    rng = random.Random(90909)
    for _ in range(500):
        machine = random_machine(rng)
        tape = random_tape(rng, machine)
        smap, qmap = machine_maps(rng, machine)
        twin = to_mechanization(machine, smap, qmap)
        a = run(machine, tape, max_steps=10_000, trace=True)
        b = run(twin, map_tape(tape, smap), max_steps=10_000, trace=True)
        assert traces_isomorphic(a, b, smap, qmap)

    for n in range(12):
        tape = {i: "1" for i in range(1, n + 1)}
        result = run(INCREMENTER.machine, tape, max_steps=1000)
        assert result.outcome is Outcome.HALTED
        assert result.final.cells == {i: "1" for i in range(1, n + 2)}

    first = format_run(run(INCREMENTER.machine, INCREMENTER.tape, 100, trace=True))
    second = format_run(run(INCREMENTER.machine, INCREMENTER.tape, 100, trace=True))
    assert first == second
    _report(9, "500 relabeled twins isomorphic; incrementer oracle and "
               "determinism hold")


def test_criterion_10_round_trip():
    for stem in DATASET_MANIFEST:
        doc = dataset_lookup(stem)
        reparsed = parse_platform(serialize_platform(doc.platform)).platform
        assert reparsed == doc.platform, stem

    rng = random.Random(101010)
    for _ in range(1000):
        text = random_document(rng)
        first = parse_platform(text).platform
        canon = serialize_platform(first)
        assert parse_platform(canon).platform == first
        assert serialize_platform(parse_platform(canon).platform) == canon

    rejected = 0
    for _ in range(100):
        canon = serialize_platform(parse_platform(random_document(rng)).platform)
        lines = canon.splitlines()
        idx = rng.randrange(len(lines))
        lines[idx] += ' "broken'
        with pytest.raises(SpecFileError) as info:
            parse_platform("\n".join(lines) + "\n")
        assert info.value.line == idx + 1
        rejected += 1
    _report(10, f"29 bundled + 1000 random documents round-trip; "
                f"{rejected} mutations rejected with line numbers")
