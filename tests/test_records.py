"""Value semantics of the frozen record classes: construction, repr,
equality, hashing, immutability, pickling and copying; and the copying
and pickling of the package's errors.

The repr strings are the output of the frozen dataclasses these classes
used to be, so a change to any of them is a change to the public
interface.
"""

import copy
import math
import pickle
import sys
from dataclasses import FrozenInstanceError

import pytest

from mechx.aemachine import (
    INCREMENTER,
    BlankNotPreserved,
    Machine,
    MachineConfig,
    MachineFile,
    NonBijectiveMap,
    Outcome,
    RunResult,
    UndeclaredSymbolInTape,
    parse_machine,
    run,
    to_mechanization,
)
from mechx.capacity import BigCount, CapacityReport, ComparisonReport, analyze, compare
from mechx.figures import AxisSpec, FigureBundle, TrendPoint, build_figure
from mechx.model import (
    Continuous,
    DiscreteStates,
    DofGroup,
    Platform,
    ProcessorSpec,
    resolve_levels,
)
from mechx import MAX_INT_DIGITS, DatasetCorrupt
from mechx.specfile import (
    Diagnostic,
    MissingPlatformName,
    PlatformDocument,
    SpecFileError,
    parse_platform,
    serialize_platform,
)


def _group():
    return DofGroup("arm", 2, DiscreteStates(3), frozenset({"x"}))


def _platform(name="rig"):
    wrist = DofGroup("wrist", 1, Continuous(0.0, 1.5, 0.5))
    return Platform(name, "artificial", (_group(), wrist), 2001, ProcessorSpec("chip", 47), ("a note",))


def _bot():
    return Platform("bot", "natural", (DofGroup("led", 1, DiscreteStates(2), {"non-mechanical"}),))


def _point(y=47.0):
    return TrendPoint("rig", 2001.0, y, "artificial")


def _axes():
    return AxisSpec("year", "transistors", y_log=True)


_PLATFORM_REPR = (
    "Platform(name='rig', kind='artificial', groups=(DofGroup(label='arm', multiplicity=2, "
    "levels_spec=DiscreteStates(count=3), tags=frozenset({'x'})), DofGroup(label='wrist', "
    "multiplicity=1, levels_spec=Continuous(minimum=0.0, maximum=1.5, resolution=0.5), "
    "tags=frozenset())), year=2001, processor=ProcessorSpec(name='chip', "
    "transistors=47), notes=('a note',))"
)
_REPORT_REPR = (
    "CapacityReport(name='rig', count_all=BigCount(log10=1.4313637641589874, exact=27), "
    "count_mechanical=BigCount(log10=1.4313637641589874, exact=27), "
    "computational=ComputationalCapacity(bits=47.0, config_digits=15))"
)
_MACHINE_REPR = (
    "Machine(flavor='computation', states=('q_scan', 'q_done'), symbols=('e', '1'), "
    "blank='e', transitions={('q_scan', '1'): ('q_scan', '1', 1), ('q_scan', 'e'): "
    "('q_done', '1', 0)}, initial_state='q_scan')"
)
_FINAL_REPR = "MachineConfig(cells={1: '1', 2: '1'}, head=2, state='q_done', step_count=2)"

# name: (make an instance, make one that differs in a field, repr of the first)
RECORDS = {
    "DiscreteStates": (lambda: DiscreteStates(3), lambda: DiscreteStates(4), "DiscreteStates(count=3)"),
    "Continuous": (
        lambda: Continuous(0.0, 1.5, 0.5),
        lambda: Continuous(0.0, 1.5, 0.25),
        "Continuous(minimum=0.0, maximum=1.5, resolution=0.5)",
    ),
    "DofGroup": (
        _group,
        lambda: DofGroup("arm", 2, DiscreteStates(3)),
        "DofGroup(label='arm', multiplicity=2, levels_spec=DiscreteStates(count=3), "
        "tags=frozenset({'x'}))",
    ),
    "ProcessorSpec": (
        lambda: ProcessorSpec("chip", 47),
        lambda: ProcessorSpec("chip", 48),
        "ProcessorSpec(name='chip', transistors=47)",
    ),
    "Platform": (_platform, lambda: _platform("rig2"), _PLATFORM_REPR),
    "BigCount": (
        lambda: BigCount._from_factors([(3, 3)]),
        lambda: BigCount.from_exact(28),
        "BigCount(log10=1.4313637641589874, exact=27)",
    ),
    "CapacityReport": (lambda: analyze(_platform()), lambda: analyze(_bot()), _REPORT_REPR),
    "ComparisonReport": (
        lambda: compare(_platform(), _bot()),
        lambda: compare(_bot(), _platform()),
        "ComparisonReport(left='rig', right='bot', "
        "count_left=BigCount(log10=1.4313637641589874, exact=27), "
        "count_right=BigCount(log10=0.0, exact=1), "
        "bits_difference=4.754887502163468, log10_ratio=1.4313637641589874, bits_ratio=inf)",
    ),
    "Diagnostic": (
        lambda: Diagnostic(3, "msg"),
        lambda: Diagnostic(4, "msg"),
        "Diagnostic(line=3, message='msg')",
    ),
    "PlatformDocument": (
        lambda: PlatformDocument(_platform(), {"platform": 1}, True, False),
        lambda: PlatformDocument(_platform(), {"platform": 2}, True, False),
        f"PlatformDocument(platform={_PLATFORM_REPR}, source_line_map={{'platform': 1}}, "
        "scientific_transistors=True, kind_defaulted=False)",
    ),
    "TrendPoint": (
        _point,
        lambda: _point(48.0),
        "TrendPoint(label='rig', x=2001.0, y=47.0, series='artificial')",
    ),
    "AxisSpec": (
        _axes,
        lambda: AxisSpec("year", "transistors"),
        "AxisSpec(x_label='year', y_label='transistors', x_log=False, y_log=True)",
    ),
    "FigureBundle": (
        lambda: FigureBundle("fig1", (_point(),), "a,b\n", "<svg/>", _axes()),
        lambda: FigureBundle("fig2", (_point(),), "a,b\n", "<svg/>", _axes()),
        "FigureBundle(figure_id='fig1', points=(TrendPoint(label='rig', x=2001.0, y=47.0, "
        "series='artificial'),), csv='a,b\\n', svg='<svg/>', "
        "axis_spec=AxisSpec(x_label='year', y_label='transistors', x_log=False, y_log=True))",
    ),
    "Machine": (
        lambda: copy.deepcopy(INCREMENTER.machine),
        lambda: Machine("mechanization", ("q",), ("e",), "e", {}, "q"),
        _MACHINE_REPR,
    ),
    "MachineConfig": (
        lambda: MachineConfig({2: "1"}, 1, "q_scan"),
        lambda: MachineConfig({2: "1"}, 1, "q_scan", 1),
        "MachineConfig(cells={2: '1'}, head=1, state='q_scan', step_count=0)",
    ),
    "RunResult": (
        lambda: run(INCREMENTER.machine, {1: "1"}, 10, trace=True),
        lambda: run(INCREMENTER.machine, {1: "1"}, 10),
        f"RunResult(outcome=<Outcome.HALTED: 'halted'>, final={_FINAL_REPR}, "
        "trace=(TraceStep(state='q_scan', head=1, read='1', written='1', move=1), "
        "TraceStep(state='q_scan', head=2, read='e', written='1', move=0)))",
    ),
    "MachineFile": (
        lambda: MachineFile(INCREMENTER.machine, {1: "1"}),
        lambda: MachineFile(INCREMENTER.machine),
        f"MachineFile(machine={_MACHINE_REPR}, tape={{1: '1'}})",
    ),
}
# Records with a dict among their fields (or their fields' fields).
UNHASHABLE = {"PlatformDocument", "Machine", "MachineConfig", "RunResult", "MachineFile"}

records = pytest.mark.parametrize("name", list(RECORDS))


@records
def test_repr_is_unchanged(name):
    make, _, expected = RECORDS[name]
    assert type(make()).__name__ == name
    assert repr(make()) == expected


@records
def test_equality_by_class_and_fields(name):
    make, other, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other() and not a == other()
    for rival_name, (rival, _, _) in RECORDS.items():
        if rival_name != name:
            assert a != rival() and a.__eq__(rival()) is NotImplemented
    assert a.__eq__(tuple(vars(a).values())) is NotImplemented


def test_a_subclass_instance_is_never_equal():
    class Levels(DiscreteStates):
        pass

    assert repr(Levels(3)) == "test_a_subclass_instance_is_never_equal.<locals>.Levels(count=3)"
    assert DiscreteStates(3) != Levels(3) and Levels(3) == Levels(3)


@records
def test_hash_follows_equality(name):
    make, _, _ = RECORDS[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(make())
    else:
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1


@records
def test_assignment_and_deletion_are_refused(name):
    obj = RECORDS[name][0]()
    field = next(iter(vars(obj)))
    before = repr(obj)
    with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
        setattr(obj, field, None)
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        obj.extra = 1
    with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
        delattr(obj, field)
    assert repr(obj) == before


@records
@pytest.mark.parametrize(
    "clone",
    [lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(name, clone):
    obj = RECORDS[name][0]()
    twin = clone(obj)
    assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)


def test_machine_keeps_its_compiled_tables_outside_the_fields():
    machine = copy.deepcopy(INCREMENTER.machine)
    run(machine, {}, 5)
    assert "_tables" in vars(machine)
    assert machine == INCREMENTER.machine and repr(machine) == _MACHINE_REPR
    assert pickle.loads(pickle.dumps(machine)) == machine


def test_positional_keyword_and_default_construction():
    assert Platform("p", "natural") == Platform(
        name="p", kind="natural", groups=(), year=None, processor=None, notes=()
    )
    assert Continuous(0, 1, resolution=0.5) == Continuous(maximum=1, minimum=0, resolution=0.5)
    assert RunResult(Outcome.HALTED, MachineConfig({}, 1, "q")).trace is None
    with pytest.raises(TypeError):
        Platform("p")  # kind is required
    with pytest.raises(TypeError):
        DiscreteStates(1, 2)
    with pytest.raises(TypeError):
        DiscreteStates(count=1, levels=2)
    with pytest.raises(TypeError):
        DiscreteStates(1, count=1)
    match DiscreteStates(5):
        case DiscreteStates(n):
            assert n == 5


def test_post_init_normalizes_fields():
    group = DofGroup("g", 1, DiscreteStates(2), ["a", "a"])
    assert group.tags == frozenset({"a"}) and type(group.tags) is frozenset
    platform = Platform("p", "natural", [group], notes=["n"])
    assert platform.groups == (group,) and platform.notes == ("n",)
    machine = Machine("computation", ["q"], ["e"], "e", {}, "q")
    assert machine.states == ("q",) and machine.symbols == ("e",)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: DiscreteStates(0), ValueError, "state count must be >= 1"),
        (lambda: Continuous(1, 0, 0.1), ValueError, "range maximum must exceed minimum"),
        (lambda: Continuous(0, 1, 0), ValueError, "resolution must be positive"),
        (lambda: Continuous(0, 1, 2), ValueError, "is smaller than resolution"),
        (lambda: Continuous(-1e308, 1e308, 1e-308), ValueError, "is not finite"),
        (lambda: DofGroup("", 1, DiscreteStates(2)), ValueError, "label must be non-empty"),
        (lambda: DofGroup("g", 0, DiscreteStates(2)), ValueError, "multiplicity must be >= 1"),
        (lambda: DofGroup("g", 1, 2), TypeError, "levels_spec must be"),
        (lambda: ProcessorSpec("c", -1), ValueError, "transistor count must be >= 0"),
        (lambda: Platform("", "natural"), ValueError, "platform name must be non-empty"),
        (lambda: Platform("p", "robot"), ValueError, "kind must be one of"),
        (lambda: Platform("p", "natural", (_group(), _group())), ValueError, "duplicate group"),
        (lambda: TrendPoint("p", math.inf, 1.0, "s"), ValueError, "non-finite coordinates"),
        (lambda: Machine("x", ("q",), ("e",), "e", {}, "q"), ValueError, "flavor must be"),
        (lambda: Machine("computation", ("q",), ("e",), "b", {}, "q"), ValueError, "blank"),
        (
            lambda: Machine("computation", (), ("e",), "e", {}, "q"),
            ValueError,
            "^machine needs at least one state$",
        ),
        (
            lambda: Machine("computation", ("q", "q"), ("e",), "e", {}, "q"),
            ValueError,
            "^duplicate state names$",
        ),
        (
            lambda: Machine("computation", ("q",), ("e", "e"), "e", {}, "q"),
            ValueError,
            "^duplicate symbol names$",
        ),
        (
            lambda: Machine("computation", ("q",), ("e",), "e", {("q", "e"): ("r", "e", 0)}, "q"),
            ValueError,
            r"^transition \('q','e'\) references unknown state$",
        ),
        (
            lambda: Machine("computation", ("q",), ("e",), "e", {("q", "e"): ("q", "x", 0)}, "q"),
            ValueError,
            r"^transition \('q','e'\) references unknown symbol$",
        ),
        (
            lambda: Machine("computation", ("q",), ("e",), "e", {("q", "e"): ("q", "e", 2)}, "q"),
            ValueError,
            r"^move must be -1, 0, or \+1, got 2$",
        ),
        (lambda: MachineConfig({0: "e"}, 1, "q"), ValueError, "cell index must be"),
        (lambda: MachineConfig({}, 0, "q"), ValueError, "head must be >= 1"),
        (lambda: MachineConfig({}, 1, "q", -1), ValueError, "step_count must be >= 0"),
        (
            lambda: RunResult(Outcome.HALTED, MachineConfig({}, 1, "q"), ()),
            TypeError,
            "trace must be None or a Trace",
        ),
    ],
)
def test_post_init_checks_still_fire(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DiscreteStates(2.5), "DiscreteStates.count must be an int, got 2.5"),
        (lambda: DiscreteStates(math.nan), "DiscreteStates.count must be an int, got nan"),
        (
            lambda: DofGroup("g", 1.5, DiscreteStates(3)),
            "DofGroup.multiplicity must be an int, got 1.5",
        ),
        (
            lambda: DofGroup("g", math.nan, DiscreteStates(3)),
            "DofGroup.multiplicity must be an int, got nan",
        ),
        (lambda: ProcessorSpec("c", 1.5), "ProcessorSpec.transistors must be an int, got 1.5"),
        (lambda: ProcessorSpec("c", math.nan), "ProcessorSpec.transistors must be an int, got nan"),
        (lambda: MachineConfig({}, 1.5, "q"), "MachineConfig.head must be an int, got 1.5"),
        (lambda: MachineConfig({}, math.nan, "q"), "MachineConfig.head must be an int, got nan"),
        (
            lambda: MachineConfig({}, 1, "q", 2.0),
            "MachineConfig.step_count must be an int, got 2.0",
        ),
        (
            lambda: DofGroup("g", True, DiscreteStates(3)),
            "DofGroup.multiplicity must be an int, got True",
        ),
        (lambda: DiscreteStates(False), "DiscreteStates.count must be an int, got False"),
        (lambda: Platform("p", "natural", year=1.5), "Platform.year must be an int, got 1.5"),
        (lambda: Platform("p", "natural", year=True), "Platform.year must be an int, got True"),
    ],
    ids=[
        "states", "states-nan", "group", "group-nan", "processor", "processor-nan",
        "head", "head-nan", "step-count", "group-bool", "states-bool", "year", "year-bool",
    ],
)
def test_counts_must_be_ints(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# Each field checked by _require_int, as (record, field, build from value).
_INT_FIELDS = [
    ("Platform", "year", lambda v: Platform("p", "natural", year=v)),
    (
        "DofGroup",
        "multiplicity",
        lambda v: Platform("p", "natural", (DofGroup("g", v, DiscreteStates(2)),)),
    ),
    (
        "DiscreteStates",
        "count",
        lambda v: Platform("p", "natural", (DofGroup("g", 1, DiscreteStates(v)),)),
    ),
    ("ProcessorSpec", "transistors", lambda v: ProcessorSpec("c", v)),
    ("MachineConfig", "head", lambda v: MachineConfig({}, v, "q")),
    ("MachineConfig", "step_count", lambda v: MachineConfig({}, 1, "q", v)),
]


@pytest.mark.parametrize(
    "record, field, build", _INT_FIELDS, ids=[f"{r}.{f}" for r, f, _ in _INT_FIELDS]
)
def test_ints_of_more_than_max_int_digits_are_refused(record, field, build):
    # The largest int of MAX_INT_DIGITS digits is kept, and a platform
    # holding it is written and read back; the next int could not be
    # written as text and is refused when the record is made.
    largest = 10**MAX_INT_DIGITS - 1
    for too_big in (largest + 1, -largest - 1, 10 ** (2 * MAX_INT_DIGITS)):
        with pytest.raises(ValueError) as info:
            build(too_big)
        assert str(info.value) == f"{record}.{field} has more than {MAX_INT_DIGITS} digits"
    if field == "transistors":  # bounded by the largest float first
        with pytest.raises(ValueError, match="transistor count must be at most"):
            build(largest)
        return
    kept = build(largest)
    if isinstance(kept, Platform):
        assert parse_platform(serialize_platform(kept)).platform == kept


def test_default_factories_give_each_instance_its_own_dict():
    first, second = PlatformDocument(_platform()), PlatformDocument(_platform())
    assert first.source_line_map == second.source_line_map == {}
    assert first.source_line_map is not second.source_line_map
    first.source_line_map["platform"] = 1
    assert PlatformDocument(_platform()).source_line_map == {}
    tape_a, tape_b = MachineFile(INCREMENTER.machine), MachineFile(INCREMENTER.machine)
    assert tape_a.tape == tape_b.tape == {} and tape_a.tape is not tape_b.tape
    tape_a.tape[1] = "1"
    assert MachineFile(INCREMENTER.machine).tape == {}


@records
def test_unknown_names_raise_the_standard_attribute_error(name):
    obj = RECORDS[name][0]()
    cls = type(obj)
    with pytest.raises(AttributeError) as info:
        obj.no_such_name
    assert str(info.value) == f"'{name}' object has no attribute 'no_such_name'"
    assert (info.value.name, info.value.obj) == ("no_such_name", obj)
    # Defaults live in _defaults only, so a field an instance lacks is
    # never read from the class.
    assert not any(hasattr(cls, field) for field in cls._fields)
    if cls._build is None:  # a field left unset stays missing
        with pytest.raises(AttributeError, match=f"^'{name}' object has no attribute "):
            getattr(cls._trusted(), cls._fields[0])


# Small enough to form outright, and past _EXACT_BITS: read off fixed-point
# logarithms, and too long for repr.
FACTORS = [[(3, 40), (7, 5)], [(3, 20_000), (10, 3)]]


@pytest.mark.parametrize("pairs", FACTORS, ids=["small", "large"])
def test_count_from_factors_is_the_count_of_its_product(pairs):
    eager = BigCount.from_exact(math.prod(r**m for r, m in pairs))
    for clone in (lambda c: c, lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy):
        lazy = clone(BigCount._from_factors(pairs))
        assert "exact" not in vars(lazy)
        assert lazy == eager and eager == lazy and not lazy != eager
        assert hash(lazy) == hash(eager)
        if eager.digit_count <= sys.get_int_max_str_digits():  # repr prints the int
            assert repr(lazy) == repr(eager)
        assert lazy.exact is lazy.exact
        assert pickle.loads(pickle.dumps(lazy)) == eager


@pytest.mark.parametrize("pairs", FACTORS, ids=["small", "large"])
def test_summaries_of_a_count_from_factors_leave_it_unformed(pairs):
    c = BigCount._from_factors(pairs)
    eager = BigCount.from_exact(math.prod(r**m for r, m in pairs))
    assert c.digit_count == eager.digit_count and c.sci() == eager.sci()
    assert [c.leading(k) for k in range(1, 21)] == [eager.leading(k) for k in range(1, 21)]
    assert "exact" not in vars(c)


def test_count_takes_record_arguments():
    match BigCount(2.0, 100):
        case BigCount(log10, exact):
            assert (log10, exact) == (2.0, 100)
    with pytest.raises(TypeError, match=r"^BigCount\(\) takes 2 positional arguments but 3"):
        BigCount(1.0, 10, 2)
    with pytest.raises(ValueError, match="^exact count must be >= 1$"):
        BigCount(0.0, 0)


def test_repr_of_a_count_past_the_str_limit_names_its_digit_count():
    report = analyze(Platform("big", "artificial", (DofGroup("g", 20000, DiscreteStates(3)),)))
    count = "BigCount(log10=9542.42509439325, exact=<int of 9543 digits>)"
    assert repr(report) == (
        f"CapacityReport(name='big', count_all={count}, count_mechanical={count}, "
        "computational=None)"
    )
    assert "exact" not in vars(report.count_all)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit: the int itself
    try:
        assert repr(report.count_all) == repr(BigCount.from_exact(3**20000))
    finally:
        sys.set_int_max_str_digits(limit)
    assert repr(BigCount.from_exact(3**20000)) == count
    # Formed, this count would take 1.5 TB.
    huge = Platform("huge", "artificial", (DofGroup("g", 10**12, DiscreteStates(3600)),))
    assert repr(analyze(huge).count_all).endswith(", exact=<int of 3556302500768 digits>)")


def _raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return info.value


_ODD = 'platform "p"\n\ngroup "g" count 1 range 0 1 resolution 0.3\n'

# name: the error as the package raises it, made afresh.
ERRORS = {
    "NonIntegralSpan-read": lambda: _raised(analyze, parse_platform(_ODD).platform),
    "NonIntegralSpan-built": lambda: _raised(
        resolve_levels, DofGroup("g", 1, Continuous(0, 1, 0.3))
    ),
    "ParseError": lambda: _raised(parse_platform, 'platform "p"\nwibble\n'),
    "DuplicateGroupLabel": lambda: _raised(
        parse_platform, 'platform "p"\ngroup "g" count 1 states 2\ngroup "g" count 1 states 3\n'
    ),
    "MissingPlatformName": lambda: _raised(parse_platform, "kind natural\n"),
    "MissingPlatformName-line": lambda: MissingPlatformName(3),
    "SpecFileError": lambda: SpecFileError(0, "no bundled platform matches 'x'"),
    "DatasetCorrupt": lambda: DatasetCorrupt("nao.mechx: line 2: unknown keyword 'x'"),
    "MachineFormatError": lambda: _raised(parse_machine, "flavor computation\nrule\n"),
    "_FieldError": lambda: _raised(
        Machine, "computation", ("q", "q"), ("e",), "e", {}, "q"
    ),
    "UndeclaredSymbolInTape": lambda: _raised(run, INCREMENTER.machine, {1: "z"}, 5),
    "NonBijectiveMap": lambda: _raised(to_mechanization, INCREMENTER.machine, {}, {}),
    "BlankNotPreserved": lambda: BlankNotPreserved("blank 'e' maps to 'a', expected 'b'"),
    "UnknownFigureId": lambda: _raised(build_figure, [], "nope"),
}


@pytest.mark.parametrize("name", ERRORS)
@pytest.mark.parametrize(
    "clone",
    [lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_errors_survive_copy_and_pickle(name, clone):
    # Each error's args are its constructor's, so a copy is made by
    # calling the class again; a pickled group keeps the line it was
    # read from.
    exc = ERRORS[name]()
    assert type(exc).__name__ == name.split("-")[0]
    twin = clone(exc)
    assert type(twin) is type(exc) and str(twin) == str(exc) and twin.args == exc.args
    for attr in ("line", "group", "field", "label", "ratio", "nearest"):
        assert getattr(twin, attr, None) == getattr(exc, attr, None)
    if hasattr(exc, "group"):
        assert twin.group.__dict__.get("_line") == exc.group.__dict__.get("_line")


def test_error_reprs_show_their_constructor_arguments():
    assert repr(ERRORS["ParseError"]()) == "ParseError(2, \"unknown keyword 'wibble'\")"
    assert repr(ERRORS["MissingPlatformName"]()) == "MissingPlatformName(0)"
    assert repr(ERRORS["_FieldError"]()) == "_FieldError('states', 'duplicate state names')"
    assert repr(ERRORS["NonIntegralSpan-built"]()) == (
        "NonIntegralSpan(DofGroup(label='g', multiplicity=1, levels_spec=Continuous("
        "minimum=0, maximum=1, resolution=0.3), tags=frozenset()), 3.3333333333333335, 3)"
    )
