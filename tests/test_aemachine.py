"""Abstract machine semantics, relabeling twins, and the .aem format."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import mechx
from mechx import MAX_INT_DIGITS
from mechx.aemachine import (
    COMPUTATION,
    FLAVORS,
    HALTED,
    INCREMENTER,
    MECHANIZATION,
    MOVE_LEFT,
    MOVE_RIGHT,
    MOVE_STAY,
    BlankNotPreserved,
    Machine,
    MachineConfig,
    MachineFormatError,
    NonBijectiveMap,
    Outcome,
    UndeclaredSymbolInTape,
    format_run,
    map_tape,
    parse_machine,
    relabel,
    run,
    serialize_machine,
    step,
    to_mechanization,
    traces_isomorphic,
)

from mechx.specfile import ParseError, parse_platform

from conftest import machine_maps, random_machine, random_tape


def mk(transitions, states=("q0", "q1"), symbols=("e", "1"), init="q0"):
    return Machine(
        flavor=COMPUTATION,
        states=states,
        symbols=symbols,
        blank="e",
        transitions=transitions,
        initial_state=init,
    )


class TestStep:
    def test_empty_table_halts_immediately(self):
        m = mk({})
        result = run(m, {1: "1"}, max_steps=100)
        assert result.outcome is Outcome.HALTED
        assert result.final.step_count == 0
        assert result.final.state == "q0"
        assert result.final.cells == {1: "1"}

    def test_step_returns_halted_singleton(self):
        m = mk({})
        cfg = MachineConfig(cells={}, head=1, state="q0", step_count=0)
        assert step(m, cfg) is HALTED

    def test_halted_is_the_outcome_run_reports(self):
        m = mk({})
        cfg = MachineConfig(cells={}, head=1, state="q0", step_count=0)
        assert step(m, cfg) is HALTED is Outcome.HALTED
        assert run(m, {}, max_steps=1).outcome is HALTED
        assert mechx.HALTED is mechx.Outcome.HALTED
        assert repr(HALTED) == "<Outcome.HALTED: 'halted'>"

    def test_left_move_clamps_at_cell_one(self):
        m = mk({("q0", "e"): ("q1", "1", MOVE_LEFT)})
        cfg = step(m, MachineConfig(cells={}, head=1, state="q0", step_count=0))
        assert cfg.head == 1
        assert cfg.cells == {1: "1"}

    def test_blank_write_removes_cell(self):
        m = mk({("q0", "1"): ("q1", "e", MOVE_STAY)})
        result = run(m, {1: "1", 5: "1"}, max_steps=10)
        assert result.final.cells == {5: "1"}

    def test_stay_keeps_head(self):
        m = mk({("q0", "e"): ("q1", "1", MOVE_STAY)})
        result = run(m, {}, max_steps=10)
        assert result.final.head == 1

    def test_undeclared_tape_symbol_rejected(self):
        m = mk({})
        with pytest.raises(UndeclaredSymbolInTape):
            run(m, {1: "zz"}, max_steps=1)

    def test_step_refuses_an_undeclared_state_or_symbol(self):
        m = mk({})
        with pytest.raises(ValueError, match="^state 'zz' not declared by the machine$"):
            step(m, MachineConfig(cells={}, head=1, state="zz"))
        with pytest.raises(
            UndeclaredSymbolInTape, match="^cell 2 holds undeclared symbol 'zz'$"
        ):
            step(m, MachineConfig(cells={2: "zz"}, head=2, state="q0"))

    def test_bad_cell_index_rejected(self):
        m = mk({})
        with pytest.raises(ValueError):
            run(m, {0: "1"}, max_steps=1)

    @pytest.mark.parametrize(
        "use",
        [
            lambda cells: MachineConfig(cells=cells, head=1, state="q0"),
            lambda cells: run(mk({}), cells, max_steps=1),
            lambda cells: serialize_machine(mk({}), cells),
        ],
        ids=["MachineConfig", "run", "serialize_machine"],
    )
    @pytest.mark.parametrize("idx", [True, False, 0, -1, 1.0, "1"])
    def test_one_rule_for_a_cell_index(self, use, idx):
        # A bool is no cell index: .aem text would write it as "True".
        with pytest.raises(ValueError) as info:
            use({idx: "1"})
        assert str(info.value) == f"cell index must be an integer >= 1, got {idx!r}"

    def test_serialize_refuses_an_undeclared_symbol(self):
        with pytest.raises(UndeclaredSymbolInTape) as info:
            serialize_machine(mk({}), {1: "1", 2: "zz"})
        assert str(info.value) == "cell 2 holds undeclared symbol 'zz'"

    def test_blank_cells_in_input_dropped(self):
        m = mk({})
        result = run(m, {1: "e", 2: "1"}, max_steps=1)
        assert result.final.cells == {2: "1"}

    def test_max_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            run(mk({}), {}, max_steps=0)

    @pytest.mark.parametrize(
        "budget", [True, 2.5, float("nan"), float("inf"), "5"], ids=repr
    )
    def test_max_steps_must_be_an_int(self, budget):
        # Else a float stops deep in the kernel or never, and True runs a step.
        looper = mk({("q0", "e"): ("q0", "e", MOVE_STAY)})
        with pytest.raises(ValueError) as info:
            run(looper, {}, max_steps=budget)
        assert str(info.value) == f"max_steps must be an int, got {budget!r}"

    @pytest.mark.parametrize("move", [1.0, -1.0, 0.0, True], ids=repr)
    def test_move_must_be_an_int(self, move):
        # Else 1.0 passes as +1 and run() fails indexing the tape with a float.
        with pytest.raises(ValueError) as info:
            mk({("q0", "e"): ("q0", "e", move)})
        assert str(info.value) == f"move must be -1, 0, or +1, got {move!r}"


class TestRun:
    def test_writer_fills_three_cells(self):
        m = mk({("q0", "e"): ("q0", "1", MOVE_RIGHT)})
        result = run(m, {}, max_steps=3)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert result.final.cells == {1: "1", 2: "1", 3: "1"}
        assert result.final.head == 4
        assert result.final.step_count == 3

    @pytest.mark.parametrize("n", list(range(25)))
    def test_incrementer_adds_one_mark(self, n):
        # Contract: n marks in, n+1 marks out, after exactly n+1 steps,
        # halting on the freshly written cell.
        m = INCREMENTER.machine
        tape = {i: "1" for i in range(1, n + 1)}
        result = run(m, tape, max_steps=1000)
        assert result.outcome is Outcome.HALTED
        assert result.final.state == "q_done"
        assert result.final.step_count == n + 1
        assert result.final.head == n + 1
        assert result.final.cells == {i: "1" for i in range(1, n + 2)}

    def test_budget_boundary(self):
        mover = mk({("q0", "e"): ("q0", "e", MOVE_RIGHT)})
        result = run(mover, {}, max_steps=5)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert result.final.step_count == 5
        assert result.final.head == 6

    def test_exact_budget_for_halting_machine(self):
        # Iteration stops the moment the step budget is spent; discovering
        # a halt costs one more probe, so a budget of exactly 4 reports
        # budget_exhausted even though the incrementer is already done.
        m, tape = INCREMENTER.machine, INCREMENTER.tape
        assert run(m, tape, max_steps=5).outcome is Outcome.HALTED
        assert run(m, tape, max_steps=5).final.step_count == 4
        clipped = run(m, tape, max_steps=4)
        assert clipped.outcome is Outcome.BUDGET_EXHAUSTED
        assert clipped.final == run(m, tape, max_steps=5).final

    def test_trace_disabled_by_default(self):
        result = run(INCREMENTER.machine, INCREMENTER.tape, max_steps=10)
        assert result.trace is None

    def test_format_run_exact(self):
        result = run(INCREMENTER.machine, INCREMENTER.tape, 100, trace=True)
        assert format_run(result) == (
            "outcome halted\n"
            "final state=q_done head=4 steps=4 cells=[1:1 2:1 3:1 4:1]\n"
            "0 q_scan 1 1 1 R\n"
            "1 q_scan 2 1 1 R\n"
            "2 q_scan 3 1 1 R\n"
            "3 q_scan 4 e 1 S\n"
        )

    def test_deterministic(self):
        a = run(INCREMENTER.machine, INCREMENTER.tape, 100, trace=True)
        b = run(INCREMENTER.machine, INCREMENTER.tape, 100, trace=True)
        assert format_run(a) == format_run(b)
        assert a == b

    def test_outcome_values(self):
        assert Outcome.HALTED.value == "halted"
        assert Outcome.BUDGET_EXHAUSTED.value == "budget_exhausted"


IDENT_SYMS = {"e": "e", "1": "1"}
IDENT_STATES = {"q_scan": "q_scan", "q_done": "q_done"}


class TestRelabel:
    def test_identity_to_mechanization_changes_only_flavor(self):
        m = INCREMENTER.machine
        twin = to_mechanization(m, IDENT_SYMS, IDENT_STATES)
        assert twin.flavor == MECHANIZATION
        assert twin.states == m.states
        assert twin.symbols == m.symbols
        assert twin.transitions == m.transitions
        assert twin.blank == m.blank

    def test_inverse_maps_recover_machine(self):
        m = INCREMENTER.machine
        smap = {"e": "rest", "1": "extend"}
        qmap = {"q_scan": "sweep", "q_done": "lock"}
        twin = to_mechanization(m, smap, qmap)
        assert twin.blank == "rest"
        back = relabel(
            twin,
            {v: k for k, v in smap.items()},
            {v: k for k, v in qmap.items()},
            flavor=COMPUTATION,
        )
        assert back == m

    def test_new_blank_assertion(self):
        m = INCREMENTER.machine
        smap = {"e": "rest", "1": "extend"}
        twin = to_mechanization(m, smap, IDENT_STATES, new_blank="rest")
        assert twin.blank == "rest"
        with pytest.raises(BlankNotPreserved):
            to_mechanization(m, smap, IDENT_STATES, new_blank="extend")

    def test_non_bijective_symbol_map(self):
        m = INCREMENTER.machine
        with pytest.raises(NonBijectiveMap):
            to_mechanization(m, {"e": "x", "1": "x"}, IDENT_STATES)

    def test_incomplete_symbol_map(self):
        m = INCREMENTER.machine
        with pytest.raises(NonBijectiveMap):
            to_mechanization(m, {"e": "x"}, IDENT_STATES)

    def test_non_bijective_state_map(self):
        m = INCREMENTER.machine
        with pytest.raises(NonBijectiveMap):
            relabel(m, IDENT_SYMS, {"q_scan": "a", "q_done": "a"})

    def test_only_computation_machines_invert(self):
        m = INCREMENTER.machine
        twin = to_mechanization(m, IDENT_SYMS, IDENT_STATES)
        with pytest.raises(ValueError):
            to_mechanization(twin, IDENT_SYMS, IDENT_STATES)

    def test_map_tape(self):
        assert map_tape({1: "1", 7: "e"}, {"e": "a", "1": "b"}) == {
            1: "b",
            7: "a",
        }


class TestTraceIsomorphism:
    def test_identity_isomorphic(self):
        a = run(INCREMENTER.machine, INCREMENTER.tape, 100, trace=True)
        b = run(INCREMENTER.machine, INCREMENTER.tape, 100, trace=True)
        assert traces_isomorphic(a, b, IDENT_SYMS, IDENT_STATES)

    def test_tape_divergence_detected(self):
        a = run(INCREMENTER.machine, {1: "1"}, 100, trace=True)
        b = run(INCREMENTER.machine, {1: "1", 2: "1"}, 100, trace=True)
        assert not traces_isomorphic(a, b, IDENT_SYMS, IDENT_STATES)

    def test_untraced_runs_rejected(self):
        a = run(INCREMENTER.machine, INCREMENTER.tape, 100, trace=True)
        b = run(INCREMENTER.machine, INCREMENTER.tape, 100)
        with pytest.raises(ValueError):
            traces_isomorphic(a, b, IDENT_SYMS, IDENT_STATES)

    def test_wrong_map_not_isomorphic(self):
        a = run(INCREMENTER.machine, INCREMENTER.tape, 100, trace=True)
        swapped = {"e": "1", "1": "e"}
        assert not traces_isomorphic(a, a, swapped, IDENT_STATES)


def test_random_machines_relabel_isomorphic():
    # The load-bearing equivalence: renaming symbols and states changes
    # nothing about a computation except the names in its trace.
    rng = random.Random(31337)
    checked = 0
    for _ in range(500):
        m = random_machine(rng)
        tape = random_tape(rng, m)
        smap, qmap = machine_maps(rng, m)
        twin = to_mechanization(m, smap, qmap)
        a = run(m, tape, max_steps=10_000, trace=True)
        b = run(twin, map_tape(tape, smap), max_steps=10_000, trace=True)
        assert traces_isomorphic(a, b, smap, qmap)
        assert b.final.state == qmap[a.final.state]
        assert b.final.head == a.final.head
        assert b.final.step_count == a.final.step_count
        assert b.final.cells == map_tape(a.final.cells, smap)
        checked += 1
    assert checked == 500


def test_random_machines_structural_invariants():
    rng = random.Random(777)
    for _ in range(200):
        m = random_machine(rng)
        tape = random_tape(rng, m)
        result = run(m, tape, max_steps=500, trace=True)
        # Sparse representation never stores blanks and cannot grow by
        # more than one cell per step.
        assert all(s != m.blank for s in result.final.cells.values())
        assert len(result.final.cells) <= len(tape) + result.final.step_count
        assert result.final.head >= 1
        assert all(t.head >= 1 for t in result.trace)
        assert len(result.trace) == result.final.step_count


class TestFormat:
    def test_round_trip_fixture(self):
        text = serialize_machine(INCREMENTER.machine, INCREMENTER.tape)
        doc = parse_machine(text)
        assert doc.machine == INCREMENTER.machine
        assert doc.tape == INCREMENTER.tape
        assert serialize_machine(doc.machine, doc.tape) == text

    def test_serialized_layout(self):
        # Rules come out in (state, symbol) declaration order, tape cells
        # in index order.
        text = serialize_machine(INCREMENTER.machine, INCREMENTER.tape)
        assert text == (
            "flavor computation\n"
            "states q_scan q_done\n"
            "symbols blank e 1\n"
            "init q_scan\n"
            "rule q_scan e -> q_done 1 S\n"
            "rule q_scan 1 -> q_scan 1 R\n"
            "tape 1 1\n"
            "tape 2 1\n"
            "tape 3 1\n"
        )

    def test_blank_declared_last_comes_first_and_round_trips(self):
        m = Machine("computation", ("q",), ("x", "e"), "e", {}, "q")
        assert m.symbols == ("e", "x")
        assert m == Machine("computation", ("q",), ("e", "x"), "e", {}, "q")
        assert parse_machine(serialize_machine(m)).machine == m

    def test_comments_and_blanks_ignored(self):
        text = (
            "# header\n"
            "flavor computation\n"
            "\n"
            "states a b   # two states\n"
            "symbols blank . x\n"
            "init a\n"
        )
        m = parse_machine(text).machine
        assert m.states == ("a", "b")
        assert m.blank == "."

    def test_random_round_trip(self):
        rng = random.Random(5150)
        for _ in range(200):
            m = random_machine(rng)
            tape = random_tape(rng, m)
            text = serialize_machine(m, tape)
            doc = parse_machine(text)
            assert doc.machine.flavor == m.flavor
            assert doc.machine.states == m.states
            assert doc.machine.blank == m.blank
            assert doc.machine.symbols == m.symbols
            assert doc.machine.transitions == m.transitions
            assert doc.machine.initial_state == m.initial_state
            assert doc.tape == tape
            assert serialize_machine(doc.machine, doc.tape) == text

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_machine_and_tape_round_trip(self, data):
        # Names hold any character but the blanks, "#" and the line ends;
        # the blank may sit anywhere among the declared symbols.
        chars = st.sampled_from("ab01_.->*\xa0\u3000\x0c\u2028\xe9")
        name = st.text(chars, min_size=1, max_size=3)
        states = data.draw(st.lists(name, min_size=1, max_size=4, unique=True))
        symbols = data.draw(st.lists(name, min_size=1, max_size=4, unique=True))
        state, symbol = st.sampled_from(states), st.sampled_from(symbols)
        blank = data.draw(symbol)
        keys = data.draw(st.lists(st.tuples(state, symbol), unique=True))
        rule = st.tuples(state, symbol, st.sampled_from((-1, 0, 1)))
        machine = Machine(
            flavor=data.draw(st.sampled_from(FLAVORS)),
            states=states,
            symbols=symbols,
            blank=blank,
            transitions={key: data.draw(rule) for key in keys},
            initial_state=data.draw(state),
        )
        tape = data.draw(st.dictionaries(st.integers(1, 10**30), symbol, max_size=6))
        text = serialize_machine(machine, tape)
        doc = parse_machine(text)
        assert doc.machine == machine
        assert doc.tape == tape
        assert serialize_machine(doc.machine, doc.tape) == text

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_machines_with_any_names_round_trip_or_are_refused(self, data):
        # Names may also be empty, hold a blank, a line end or "#", or not be
        # a str, which .aem cannot write: Machine refuses exactly those, and
        # every machine it accepts reads back unchanged.
        name = st.text(st.sampled_from("ab_ \t\r\n#\xa0"), max_size=3) | st.just(7)
        states = data.draw(st.lists(name, min_size=1, max_size=3, unique=True))
        symbols = data.draw(st.lists(name, min_size=1, max_size=3, unique=True))
        state, symbol = st.sampled_from(states), st.sampled_from(symbols)
        rule = st.tuples(state, symbol, st.sampled_from((-1, 0, 1)))
        keys = data.draw(st.lists(st.tuples(state, symbol), max_size=3, unique=True))

        def build():
            return Machine(
                flavor=COMPUTATION,
                states=states,
                symbols=symbols,
                blank=data.draw(symbol),
                transitions={key: data.draw(rule) for key in keys},
                initial_state=data.draw(state),
            )

        def writable(n):
            return isinstance(n, str) and n and not set(n) & set(" \t\r\n#")

        if not all(map(writable, states + symbols)):
            with pytest.raises(ValueError, match="is not one .aem word"):
                build()
            return
        machine = build()
        assert parse_machine(serialize_machine(machine)).machine == machine

    @pytest.mark.parametrize("limit", [MAX_INT_DIGITS, 0], ids=["limit-on", "limit-off"])
    def test_cell_index_digits_bounded_as_in_files(self, limit):
        # A cell index of MAX_INT_DIGITS digits is taken and round-trips; one
        # more digit is refused with one text by all three, whether or not
        # the interpreter itself could convert the index.
        m = INCREMENTER.machine
        widest, over = {10**MAX_INT_DIGITS - 1: "1"}, {10**MAX_INT_DIGITS: "1"}
        makers = (
            lambda cells: MachineConfig(cells, 1, m.initial_state),
            lambda cells: run(m, cells, 1),
            lambda cells: serialize_machine(m, cells),
        )
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for make in makers:
                make(widest)
            assert parse_machine(serialize_machine(m, widest)).tape == widest
            for make in makers:
                with pytest.raises(ValueError) as exc:
                    make(over)
                assert str(exc.value) == f"cell index has more than {MAX_INT_DIGITS} digits"
        finally:
            sys.set_int_max_str_digits(default)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_tapes_round_trip_or_are_refused(self, data):
        # A tape of any keys and values: serialize_machine either writes
        # text that reads back as the same tape, or refuses it with the
        # ValueError run() gives for the same cells.
        m = INCREMENTER.machine
        index = st.one_of(
            st.integers(-2, 10**30),
            st.booleans(),
            st.floats(allow_nan=False),
            st.text("1x", max_size=2),
        )
        symbol = st.one_of(st.sampled_from(m.symbols), st.text("1ez", max_size=2))
        tape = data.draw(st.dictionaries(index, symbol, max_size=5))
        try:
            text = serialize_machine(m, tape)
        except ValueError as exc:
            with pytest.raises(type(exc)) as ran:
                run(m, tape, 1)
            assert str(ran.value) == str(exc)
            return
        doc = parse_machine(text)
        assert doc.tape == tape
        assert all(type(idx) is int for idx in tape)
        assert serialize_machine(doc.machine, doc.tape) == text

    @pytest.mark.parametrize(
        "text,line",
        [
            ("flavor computation\nflavor computation\n", 2),
            ("flavor turing\n", 1),
            ("flavor computation\nstates\n", 2),
            ("flavor computation\nstates a\nsymbols . x\n", 3),
            ("flavor computation\nstates a\nsymbols blank\n", 3),
            ("flavor computation\nstates a\nsymbols blank .\ninit a b\n", 4),
            ("wibble\n", 1),
            (
                "flavor computation\nstates a\nsymbols blank .\ninit a\n"
                "rule a . -> a .\n",
                5,
            ),
            (
                "flavor computation\nstates a\nsymbols blank .\ninit a\n"
                "rule a . -> a . X\n",
                5,
            ),
            (
                "flavor computation\nstates a\nsymbols blank .\ninit a\n"
                "rule a . -> a . S\nrule a . -> a . L\n",
                6,
            ),
            (
                "flavor computation\nstates a\nsymbols blank .\ninit a\n"
                "tape 0 .\n",
                5,
            ),
            (
                "flavor computation\nstates a\nsymbols blank .\ninit a\n"
                "tape one .\n",
                5,
            ),
            (
                "flavor computation\nstates a\nsymbols blank . x\ninit a\n"
                "tape 3 x\ntape 3 x\n",
                6,
            ),
            # Errors found once every statement is read name the line of
            # the statement at fault.
            ("flavor computation\nstates a\nsymbols blank .\ninit zz\n", 4),
            ("flavor computation\nstates a\nsymbols blank .\ninit a\ntape 4 zz\n", 5),
        ],
    )
    def test_format_errors_carry_line(self, text, line):
        with pytest.raises(MachineFormatError) as info:
            parse_machine(text)
        assert info.value.line == line

    @pytest.mark.parametrize(
        "text",
        [
            "states a\nsymbols blank .\ninit a\n",
            "flavor computation\nsymbols blank .\ninit a\n",
            "flavor computation\nstates a\ninit a\n",
            "flavor computation\nstates a\nsymbols blank .\n",
        ],
    )
    def test_document_level_errors(self, text):
        with pytest.raises(MachineFormatError) as info:
            parse_machine(text)
        assert info.value.line == 0

    def test_duplicate_rule_message_names_first_line(self):
        text = (
            "flavor computation\nstates a\nsymbols blank .\ninit a\n"
            "rule a . -> a . S\nrule a . -> a . L\n"
        )
        with pytest.raises(MachineFormatError) as info:
            parse_machine(text)
        assert "line 5" in str(info.value)


@pytest.mark.parametrize("index", ["٣", "1_0", "３", "+٣", "3.0", "0x3"])
def test_tape_index_takes_only_ascii_digits(index):
    text = f"flavor computation\nstates a\nsymbols blank . x\ninit a\ntape {index} x\n"
    with pytest.raises(MachineFormatError) as info:
        parse_machine(text)
    assert str(info.value) == f"line 5: cell index must be an integer, got {index!r}"


def test_tape_index_may_carry_a_sign():
    text = "flavor computation\nstates a\nsymbols blank . x\ninit a\ntape +3 x\n"
    assert parse_machine(text).tape == {3: "x"}
    with pytest.raises(MachineFormatError, match="^line 5: cell index must be >= 1$"):
        parse_machine(text.replace("+3", "-3"))


_DECLARED = "flavor computation\nstates a\nsymbols blank . x\ninit a\n"

# The exact text of every statement error the .aem reader raises.
_ERROR_TEXTS = [
    ("flavor computation\nflavor computation\n", "line 2: duplicate 'flavor' line"),
    ("flavor computation\nstates a\nstates a\n", "line 3: duplicate 'states' line"),
    (
        "flavor computation\nsymbols blank .\nsymbols blank .\n",
        "line 3: duplicate 'symbols' line",
    ),
    ("flavor computation\ninit a\ninit a\n", "line 3: duplicate 'init' line"),
    # The duplicate check comes before the statement's shape check.
    ("flavor computation\nflavor turing\n", "line 2: duplicate 'flavor' line"),
    ("states a\nstates\n", "line 2: duplicate 'states' line"),
    ("states a\nsymbols blank .\ninit a\n", "missing 'flavor' line"),
    ("flavor computation\nsymbols blank .\ninit a\n", "missing 'states' line"),
    ("flavor computation\nstates a\ninit a\n", "missing 'symbols' line"),
    ("flavor computation\nstates a\nsymbols blank .\n", "missing 'init' line"),
    # Missing statements are reported in declaration order, after the loop.
    ("init a\n", "missing 'flavor' line"),
    ("flavor computation\n", "missing 'states' line"),
    ("states\n", "line 1: expected at least one state name"),
    (
        "flavor turing\n",
        "line 1: expected 'flavor computation' or 'flavor mechanization'",
    ),
    (
        "flavor computation extra\n",
        "line 1: expected 'flavor computation' or 'flavor mechanization'",
    ),
    ("symbols . x\n", "line 1: expected 'symbols blank <name> [<name> ...]'"),
    ("symbols blank\n", "line 1: expected 'symbols blank <name> [<name> ...]'"),
    ("init\n", "line 1: expected 'init <state>'"),
    ("init a b\n", "line 1: expected 'init <state>'"),
    ("rule a . -> a .\n", "line 1: expected 'rule <state> <read> -> <state> <write> L|S|R'"),
    ("rule a . => a . S\n", "line 1: expected 'rule <state> <read> -> <state> <write> L|S|R'"),
    ("rule a . -> a . X\n", "line 1: expected 'rule <state> <read> -> <state> <write> L|S|R'"),
    (
        "rule a . -> a . S\nrule a . -> a x L\n",
        "line 2: duplicate rule for (a, .); first on line 1",
    ),
    ("wibble\n", "line 1: unknown keyword 'wibble'"),
    ("tape 1\n", "line 1: expected 'tape <cell-index> <symbol>'"),
    ("tape 1 x y\n", "line 1: expected 'tape <cell-index> <symbol>'"),
    ("tape one x\n", "line 1: cell index must be an integer, got 'one'"),
    ("tape - x\n", "line 1: cell index must be an integer, got '-'"),
    ("tape 0 x\n", "line 1: cell index must be >= 1"),
    ("tape -3 x\n", "line 1: cell index must be >= 1"),
    ("tape 3 x\ntape +3 x\n", "line 2: cell 3 set twice"),
    (
        f"tape {'1' * 4301} x\n",
        "line 1: cell index has 4301 digits, above the limit of 4300",
    ),
    (
        f"tape -{'0' * 4301} x\n",
        "line 1: cell index has 4301 digits, above the limit of 4300",
    ),
]

# Errors the Machine record raises once every statement is read: (text,
# line of the statement at fault, message).  Each test is named after the
# message alone.
_RECORD_ERRORS = [
    (_DECLARED + "tape 4 zz\n", 5, "tape cell 4 holds undeclared symbol 'zz'"),
    (
        "flavor computation\nstates a\nsymbols blank .\ninit zz\n",
        4,
        "initial state 'zz' not declared",
    ),
    (_DECLARED.replace("states a", "states a a"), 2, "duplicate state names"),
    (_DECLARED.replace(". x", ". x ."), 3, "duplicate symbol names"),
    (_DECLARED + "rule a . -> b . S\n", 5, "transition ('a','.') references unknown state"),
    (_DECLARED + "rule a y -> a . S\n", 5, "transition ('a','y') references unknown symbol"),
    # A rule is checked for its states before its symbols, and rules in
    # file order.
    (_DECLARED + "rule a y -> b . S\n", 5, "transition ('a','y') references unknown state"),
    (
        _DECLARED + "rule a x -> a y S\nrule a . -> b . S\n",
        5,
        "transition ('a','x') references unknown symbol",
    ),
]


@pytest.mark.parametrize(
    "text, message",
    _ERROR_TEXTS + [(text, f"line {line}: {message}") for text, line, message in _RECORD_ERRORS],
    ids=[message[:40] for _, message in _ERROR_TEXTS]
    + [message[:40] for _, _, message in _RECORD_ERRORS],
)
def test_machine_format_error_text(text, message):
    with pytest.raises(MachineFormatError) as info:
        parse_machine(text)
    assert str(info.value) == message
    line, _, rest = message.partition(": ")
    if line.startswith("line "):
        assert (info.value.line, info.value.message) == (int(line[5:]), rest)
    else:
        assert (info.value.line, info.value.message) == (0, message)


def _year(literal: str):
    """What the .mechx reader makes of ``literal`` as a year."""
    try:
        return parse_platform(f'platform "p"\nyear {literal}\n').platform.year
    except ParseError as exc:
        if exc.message == f"expected year (an integer), found {literal!r}":
            return "not an integer"
        assert exc.message == f"year has {len(literal)} digits, above the limit of 4300"
        return "over the limit"


def _tape_index(literal: str):
    """What the .aem reader makes of ``literal`` as a tape cell index."""
    try:
        (index,) = parse_machine(f"{_DECLARED}tape {literal} x\n").tape
        return index
    except MachineFormatError as exc:
        if exc.message == f"cell index must be an integer, got {literal!r}":
            return "not an integer"
        if exc.message == "cell index must be >= 1":  # an integer, out of range
            return int(literal)
        assert exc.message == f"cell index has {len(literal)} digits, above the limit of 4300"
        return "over the limit"


@pytest.mark.parametrize(
    "literal, verdict",
    [
        ("7", 7),
        ("+7", 7),
        ("007", 7),
        ("-0", 0),
        ("+", "not an integer"),
        ("-", "not an integer"),
        ("٣", "not an integer"),
        ("３", "not an integer"),
        ("1_0", "not an integer"),
        ("3.0", "not an integer"),
        ("0x3", "not an integer"),
        ("1e3", "not an integer"),
        ("9" * 4300, int("9" * 4300)),
        ("9" * 4301, "over the limit"),
    ],
    ids=[
        "7", "+7", "007", "-0", "plus", "minus", "arabic-indic", "fullwidth",
        "underscore", "point", "hex", "exponent", "4300-digits", "4301-digits",
    ],
)
def test_both_readers_read_integers_alike(literal, verdict):
    assert _year(literal) == _tape_index(literal) == verdict
