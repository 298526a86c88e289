"""The compiled tape-machine kernel against a plain dict-based reference.

``reference_run`` and ``reference_format`` keep the simulator's original
semantics: a sparse dict tape, one (state, symbol) lookup per step and one
TraceStep per traced step.  The kernel must agree with them on outcome,
final configuration, every trace step and the listing text.
"""

import contextlib
import copy
import hashlib
import io
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mechx import aemachine, cli
from mechx.aemachine import (
    _LINES_PER_WRITE,
    COMPUTATION,
    HALTED,
    INCREMENTER,
    Machine,
    MachineConfig,
    MachineFile,
    Outcome,
    RunResult,
    TraceStep,
    format_run,
    map_tape,
    parse_machine,
    run,
    serialize_machine,
    step,
    to_mechanization,
    traces_isomorphic,
)

from conftest import machine_maps, random_machine, random_tape

_LETTER = {-1: "L", 0: "S", 1: "R"}


def reference_advance(machine, cells, head, state, max_steps):
    """Up to ``max_steps`` transitions on the sparse dict ``cells``, in
    place: (outcome, head, state, steps, trace)."""
    steps, log = 0, []
    while steps < max_steps:
        read = cells.get(head, machine.blank)
        rule = machine.transitions.get((state, read))
        if rule is None:
            return Outcome.HALTED, head, state, steps, log
        next_state, written, move = rule
        log.append(TraceStep(state, head, read, written, move))
        if written == machine.blank:
            cells.pop(head, None)
        else:
            cells[head] = written
        head = max(1, head + move)
        state = next_state
        steps += 1
    return Outcome.BUDGET_EXHAUSTED, head, state, steps, log


def reference_run(machine, tape, max_steps):
    cells = {i: s for i, s in tape.items() if s != machine.blank}
    outcome, head, state, steps, log = reference_advance(
        machine, cells, 1, machine.initial_state, max_steps
    )
    return outcome, MachineConfig(cells, head, state, steps), log


def reference_format(outcome, final, trace):
    cells = " ".join(f"{i}:{s}" for i, s in sorted(final.cells.items()))
    lines = [
        f"outcome {outcome.value}",
        f"final state={final.state} head={final.head} "
        f"steps={final.step_count} cells=[{cells}]",
    ]
    for n, t in enumerate(trace):
        lines.append(f"{n} {t.state} {t.head} {t.read} {t.written} {_LETTER[t.move]}")
    return "\n".join(lines) + "\n"


def reference_isomorphic(a, b, symbol_map, state_map):
    return a.outcome == b.outcome and len(a.trace) == len(b.trace) and all(
        tb.state == state_map.get(ta.state)
        and tb.head == ta.head
        and tb.read == symbol_map.get(ta.read)
        and tb.written == symbol_map.get(ta.written)
        and tb.move == ta.move
        for ta, tb in zip(a.trace, b.trace)
    )


def assert_agrees(machine, tape, max_steps):
    outcome, final, trace = reference_run(machine, tape, max_steps)
    traced = run(machine, tape, max_steps, trace=True)
    plain = run(machine, tape, max_steps)
    assert plain.outcome is traced.outcome is outcome
    assert plain.final == traced.final == final
    assert plain.trace is None
    assert len(traced.trace) == len(trace)
    assert list(traced.trace) == trace
    assert traced.trace == tuple(trace)
    if trace:
        assert traced.trace[-1] == trace[-1]
        assert traced.trace[1:4] == tuple(trace[1:4])
    text = reference_format(outcome, final, trace)
    assert format_run(traced) == text
    streamed = io.StringIO()
    assert format_run(traced, streamed) is None
    assert streamed.getvalue() == text
    # The listing of the same run with every id logged, none replayed.
    assert format_run(plain_run(machine, tape, max_steps)) == text
    return outcome, trace


_KERNEL = aemachine._kernel


def plain_run(machine, tape, max_steps):
    """A traced run with macro steps off: the plain loop takes every step
    and the trace holds no reference.  Its loop calls are not counted by
    the ``kernel_calls`` fixture."""
    with mock.patch.multiple(aemachine, _PROBE_CREDIT=-1, _kernel=_KERNEL):
        result = run(machine, tape, max_steps, trace=True)
    assert not result.trace._replays
    return result


def replayed_pieces(trace, steps):
    """(reference, start head, TraceSteps) of each replayed piece of
    ``trace``, whose steps are ``steps``."""
    pieces, at = [], 0  # at: the steps before the piece
    for offset, length, replayed in trace._runs():
        if replayed:
            pieces.append(((offset, length), steps[at].head, steps[at : at + length]))
        at += length
    return pieces


def wide_machine(rng, n_states, n_symbols, moves=(-1, 0, 1), fill=0.8):
    """A random machine with a chosen size and move distribution."""
    states = tuple(f"q{i}" for i in range(n_states))
    symbols = tuple(f"s{i}" for i in range(n_symbols))
    transitions = {
        (q, s): (rng.choice(states), rng.choice(symbols), rng.choice(moves))
        for q in states
        for s in symbols
        if rng.random() < fill
    }
    return Machine(
        flavor=COMPUTATION,
        states=states,
        symbols=symbols,
        blank=rng.choice(symbols),
        transitions=transitions,
        initial_state=states[0],
    )


def spread_tape(rng, machine, top):
    """Cells anywhere in 1..top, blanks included, plus one far cell."""
    cells = {
        idx: rng.choice(machine.symbols)
        for idx in rng.sample(range(1, top), rng.randint(0, 300))
    }
    cells[rng.randint(top, 10**12)] = rng.choice(machine.symbols)
    return cells


def test_random_machines_match_reference():
    # The blank sits at any index of the declared symbols.
    rng = random.Random(4242)
    for _ in range(300):
        m = random_machine(rng)
        assert_agrees(m, random_tape(rng, m), rng.choice((1, 2, 50, 3000)))


def test_left_edge_clamps_match_reference():
    rng = random.Random(17)
    clamps = 0
    for _ in range(200):
        size = rng.randint(1, 4), rng.randint(2, 4)
        m = wide_machine(rng, *size, moves=(-1, -1, -1, 0, 1))
        _, trace = assert_agrees(m, random_tape(rng, m), 400)
        clamps += sum(t.head == 1 and t.move == -1 for t in trace)
    assert clamps > 1000


def test_far_cells_and_tape_growth_match_reference():
    # Right-moving machines cross the points where the dense tape doubles
    # and pick up cells that started beyond it.
    rng = random.Random(99)
    for _ in range(100):
        size = rng.randint(1, 5), rng.randint(2, 5)
        m = wide_machine(rng, *size, moves=(1, 1, 1, 0, -1), fill=0.9)
        assert_agrees(m, spread_tape(rng, m, 3000), rng.choice((300, 2000, 6000)))
    # A runner that copies each cell it passes over, next to every power
    # of two up to 4096.
    runner = Machine(
        flavor=COMPUTATION,
        states=("r",),
        symbols=("b", "x", "y"),
        blank="b",
        transitions={("r", s): ("r", s, 1) for s in ("b", "x", "y")},
        initial_state="r",
    )
    edges = {c + d for c in (2**k for k in range(8, 13)) for d in (-1, 0, 1)}
    tape = {c: rng.choice("xy") for c in edges | {10**12}}
    _, trace = assert_agrees(runner, tape, 5000)
    assert {t.head: t.read for t in trace if t.read != "b"} == {
        c: tape[c] for c in edges
    }


def test_halt_at_exactly_max_steps():
    rng = random.Random(555)
    found = 0
    while found < 40:
        m = random_machine(rng)
        tape = random_tape(rng, m)
        outcome, final, _ = reference_run(m, tape, 200)
        if outcome is not Outcome.HALTED or final.step_count == 0:
            continue
        n = final.step_count
        assert assert_agrees(m, tape, n)[0] is Outcome.BUDGET_EXHAUSTED
        assert assert_agrees(m, tape, n + 1)[0] is Outcome.HALTED
        found += 1


def test_three_hundred_symbols():
    # Symbol codes and rule ids past one byte.
    rng = random.Random(300)
    for _ in range(3):
        m = wide_machine(rng, 3, 300, fill=0.95)
        tape = {i: rng.choice(m.symbols) for i in range(1, 400)}
        assert_agrees(m, tape, 5000)


def test_step_matches_reference():
    rng = random.Random(8080)
    for _ in range(400):
        m = random_machine(rng)
        cells = random_tape(rng, m)
        head = rng.choice((1, 2, rng.randint(1, 25), 10**12))
        if rng.random() < 0.3:
            cells[head] = rng.choice(m.symbols)
        state = rng.choice(m.states)
        config = MachineConfig(cells, head, state, rng.randint(0, 9))
        want = dict(cells)
        outcome, *want_config, _, _ = reference_advance(m, want, head, state, 1)
        got = step(m, config)
        if outcome is Outcome.HALTED:
            assert got is HALTED
        else:
            assert got == MachineConfig(want, *want_config, config.step_count + 1)


def test_traces_isomorphic_matches_reference():
    rng = random.Random(2718)
    verdicts = set()
    for _ in range(300):
        m = random_machine(rng)
        tape = random_tape(rng, m)
        smap, qmap = machine_maps(rng, m)
        twin = to_mechanization(m, smap, qmap)
        a = run(m, tape, 300, trace=True)
        b = run(twin, map_tape(tape, smap), 300, trace=True)
        # The same names shuffled are usually the wrong maps.
        wrong_s, wrong_q = list(smap.values()), list(qmap.values())
        rng.shuffle(wrong_s)
        rng.shuffle(wrong_q)
        wrong = dict(zip(smap, wrong_s)), dict(zip(qmap, wrong_q))
        for s, q in ((smap, qmap), wrong):
            verdict = traces_isomorphic(a, b, s, q)
            assert verdict == reference_isomorphic(a, b, s, q)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_trace_equals_tuples_not_lists():
    # The trace compares as the tuple of TraceSteps it replaced did.
    traced = run(INCREMENTER.machine, INCREMENTER.tape, 100, trace=True)
    steps = tuple(traced.trace)
    assert traced.trace == steps and steps == traced.trace
    assert traced.trace == run(INCREMENTER.machine, INCREMENTER.tape, 100, True).trace
    assert traced.trace != steps[:-1]
    assert traced.trace != list(steps) and list(steps) != traced.trace


def test_run_result_trace_must_come_from_run():
    traced = run(INCREMENTER.machine, INCREMENTER.tape, 100, trace=True)
    with pytest.raises(TypeError, match="Trace made by run"):
        RunResult(traced.outcome, traced.final, tuple(traced.trace))


def test_far_cell_is_cheap(tmp_path, capsys):
    # One cell a trillion cells out costs nothing beyond its entry.
    path = tmp_path / "far.aem"
    path.write_text(
        "flavor computation\nstates a\nsymbols blank b 1\ninit a\n"
        "rule a b -> a 1 R\ntape 1000000000000 1\n"
    )
    tracemalloc.start()
    try:
        code = cli.main(["aem-run", str(path), "--max-steps", "10"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1] == (
        "final state=a head=11 steps=10 "
        "cells=[1:1 2:1 3:1 4:1 5:1 6:1 7:1 8:1 9:1 10:1 1000000000000:1]"
    )
    assert peak < 256 * 1024


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


COUNTER = """\
flavor computation
states ret inc
symbols blank b m 0 1
init ret
rule ret m -> inc m R
rule ret 0 -> ret 0 L
rule ret 1 -> ret 1 L
rule inc 0 -> ret 1 L
rule inc 1 -> inc 0 R
rule inc b -> ret 1 L
tape 1 m
"""


def test_traced_listing_streams_in_little_memory(tmp_path):
    # A binary counter never halts, so every step is traced and listed.
    # Keeping a TraceStep per step and the whole listing took about 200
    # bytes a step; the columns take 8, and the listing streams.
    steps = 200_000
    path = tmp_path / "counter.aem"
    path.write_text(COUNTER)
    argv = ["aem-run", str(path), "--max-steps", str(steps), "--trace"]
    with contextlib.redirect_stdout(_Discard()):
        cli.main(argv[:3] + ["10"])  # imports and first-use work, untraced
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 24 * steps


def test_traced_counter_costs_a_few_bytes_a_step(tmp_path):
    # The trace keeps one byte of rule id a step; the listing derives the
    # heads a chunk at a time as it writes.  Two columns took 10.8 bytes.
    steps = 200_000
    path = tmp_path / "counter.aem"
    path.write_text(COUNTER)
    argv = ["aem-run", str(path), "--max-steps", str(steps), "--trace"]
    with contextlib.redirect_stdout(_Discard()):
        cli.main(argv[:3] + ["10"])  # imports and first-use work, untraced
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 6 * steps


class _Digest:
    """A stdout that keeps only the SHA-256 of what it is given."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)

    def flush(self):
        pass


def test_final_line_costs_little_per_cell(tmp_path):
    # A runner leaves a mark on every cell it passes.  The final line is
    # written from the kernel's tape of codes, with no dict of cells, no
    # copy of it and no string per cell; those took 208 bytes a cell.
    cells = 100_000
    path = tmp_path / "runner.aem"
    path.write_text(
        "flavor computation\nstates r\nsymbols blank b x\ninit r\nrule r b -> r x R\n"
    )
    argv = ["aem-run", str(path), "--max-steps", str(cells)]
    out = _Digest()
    with contextlib.redirect_stdout(_Discard()):
        cli.main(argv[:3] + ["10"])
    with contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    marks = " ".join(f"{i}:x" for i in range(1, cells + 1))
    want = (
        "outcome budget_exhausted\n"
        f"final state=r head={cells + 1} steps={cells} cells=[{marks}]\n"
    )
    assert code == 0
    assert out.sha.hexdigest() == hashlib.sha256(want.encode()).hexdigest()
    assert peak < 48 * cells


def test_derived_heads_across_chunks_match_reference():
    # Long runs that clamp at cell 1 again and again, or run far to the
    # right, across several chunks of the listing; far cells and the blank
    # at any declared index.  Every head comes from the rule ids alone.
    rng = random.Random(1313)
    late_clamps = late_steps = 0
    for moves in ((-1, -1, 0, 1), (1, 1, 0, -1)) * 15:
        size = rng.randint(1, 4), rng.randint(2, 4)
        m = wide_machine(rng, *size, moves=moves, fill=1.0)  # never halts
        budget = 3 * _LINES_PER_WRITE + rng.randint(0, _LINES_PER_WRITE)
        _, trace = assert_agrees(m, spread_tape(rng, m, 600), budget)
        late = trace[_LINES_PER_WRITE:]
        late_steps += len(late)
        late_clamps += sum(t.head == 1 and t.move == -1 for t in late)
    assert late_steps > 60 * _LINES_PER_WRITE
    assert late_clamps > 5000


@pytest.mark.parametrize("n_rules, typecode", [(255, "B"), (256, "B"), (257, "H")])
def test_rule_counts_at_the_column_width_edge(n_rules, typecode):
    # 16 states by 16 symbols that the run can reach, and a 17th state that
    # no rule enters.  The rule for the initial state on a blank is
    # declared last, so the first step from a blank cell 1 logs the largest
    # rule id; the other rule ids are shuffled over the slots.
    rng = random.Random(n_rules)
    states = tuple(f"q{i}" for i in range(17))
    symbols = tuple(f"s{i}" for i in range(16))
    blank = rng.choice(symbols)
    start = (states[0], blank)
    reached = [(q, s) for q in states[:16] for s in symbols if (q, s) != start]
    rng.shuffle(reached)
    keys = (reached + [(states[16], s) for s in symbols])[: n_rules - 1] + [start]
    m = Machine(
        flavor=COMPUTATION,
        states=states,
        symbols=symbols,
        blank=blank,
        transitions={
            key: (rng.choice(states[:16]), rng.choice(symbols), rng.choice((-1, 0, 1)))
            for key in keys
        },
        initial_state=states[0],
    )
    seen = set()
    for _ in range(4):
        tape = spread_tape(rng, m, 300)
        tape.pop(1, None)
        assert_agrees(m, tape, 3 * _LINES_PER_WRITE)
        trace = run(m, tape, 3 * _LINES_PER_WRITE, trace=True).trace
        assert trace._literal.typecode == typecode and trace._literal[0] == n_rules - 1
        seen.update(trace._literal)
    assert len(seen) > 100


def test_trace_indexing_matches_its_tuple():
    rng = random.Random(606)
    for _ in range(30):
        m = wide_machine(rng, 3, 3, moves=(-1, -1, 0, 1), fill=1.0)
        budget = rng.choice((1, 7, 2 * _LINES_PER_WRITE + 5))
        trace = run(m, random_tape(rng, m), budget, trace=True).trace
        steps = tuple(trace)
        n = len(steps)
        for i in {0, n // 2, n - 1, -1, -n, rng.randrange(-n, n)}:
            assert trace[i] == steps[i]
        slices = (
            slice(None), slice(3, None), slice(None, -2), slice(1, n, 3),
            slice(None, None, -1), slice(-5, 2, -2), slice(n - 1, 0, 1 - _LINES_PER_WRITE),
            slice(5, 5), slice(n + 10, None), slice(-n - 10, 3), slice(None, None, 7),
        )
        for s in slices:
            assert trace[s] == steps[s]
        assert tuple(reversed(trace)) == steps[::-1]
        for k in {0, n // 3, n - 1}:
            assert trace.index(steps[k]) == steps.index(steps[k])
            assert trace.index(steps[k], k) == steps.index(steps[k], k)
            assert trace.index(steps[k], -n, k + 1) == steps.index(steps[k], -n, k + 1)
        assert trace.count(steps[0]) == steps.count(steps[0])
        with pytest.raises(ValueError, match="is not in the trace"):
            trace.index(TraceStep("nowhere", 1, "s0", "s0", 0))
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                trace[bad]
        with pytest.raises(TypeError):
            trace[1.0]


def test_final_built_on_first_read_is_the_eager_one():
    # run() keeps the kernel's tape and builds ``final`` when it is read;
    # the result must equal, print, pickle and copy as one built from the
    # reference's cells in index order, as run() used to build it.
    rng = random.Random(5150)
    for i in range(80):
        m = random_machine(rng)
        tape = spread_tape(rng, m, 600) if i % 2 else random_tape(rng, m)
        budget, traced = rng.choice((1, 40, 3000)), bool(i % 3)
        outcome, ref, _ = reference_run(m, tape, budget)

        def fresh():
            return run(m, tape, budget, trace=traced)

        lazy = fresh()
        final = MachineConfig(
            dict(sorted(ref.cells.items())), ref.head, ref.state, ref.step_count
        )
        eager = RunResult(outcome, final, lazy.trace)
        assert format_run(lazy) == format_run(eager)
        assert "final" not in vars(lazy)  # the final line came from the tape
        assert lazy == eager and eager == lazy and fresh() == eager
        assert lazy.final is lazy.final
        assert repr(fresh()) == repr(eager)
        assert fresh().final == final and repr(fresh().final) == repr(final)
        assert pickle.dumps(fresh().final) == pickle.dumps(final)
        assert pickle.dumps(fresh()) == pickle.dumps(eager)
        twin = pickle.loads(pickle.dumps(fresh()))
        assert twin == eager and list(vars(twin)) == ["outcome", "final", "trace"]
        assert copy.copy(fresh()) == eager and copy.deepcopy(fresh()) == eager
        for record in (fresh(), fresh().final):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(record)
        with pytest.raises(AttributeError, match="no attribute 'cells'"):
            fresh().cells


def test_tape_grows_without_a_temporary_list(tmp_path):
    # Doubling the dense tape with a list of zeros as long as the tape
    # peaked at 16.1 bytes a cell; zeros from a bytes object add one byte
    # a cell while the list grows.
    cells = 100_000
    path = tmp_path / "runner.aem"
    path.write_text(
        "flavor computation\nstates r\nsymbols blank b x\ninit r\nrule r b -> r x R\n"
    )
    argv = ["aem-run", str(path), "--max-steps", str(cells)]
    with contextlib.redirect_stdout(_Discard()):
        cli.main(argv[:3] + ["10"])
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 14 * cells


def test_trace_equality_walks_no_tuples():
    # Comparing two long traces held a tuple of every step on both sides,
    # 192 bytes a step.  Over equal rule lists the id columns are compared;
    # over a reordered twin's rules the mapped ids, a chunk at a time.
    steps = 200_000
    mf = parse_machine(COUNTER)
    reordered = Machine(
        flavor=mf.machine.flavor,
        states=mf.machine.states,
        symbols=mf.machine.symbols,
        blank=mf.machine.blank,
        transitions=dict(reversed(mf.machine.transitions.items())),
        initial_state=mf.machine.initial_state,
    )
    a = run(mf.machine, mf.tape, steps, trace=True)
    others = (
        run(mf.machine, mf.tape, steps, trace=True),
        run(reordered, mf.tape, steps, trace=True),
    )
    for other in others:
        tracemalloc.start()
        try:
            same = a == other  # the results' traces compare as above
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same
        assert peak < 4 * steps
    assert a.trace != run(mf.machine, mf.tape, steps - 1, trace=True).trace


def test_traces_isomorphic_compares_a_chunk_at_a_time():
    # Mapping a's whole id column and listing b's peaked at 16.1 bytes a
    # step; a chunk of _LINES_PER_WRITE ids at a time costs a few KB.
    steps = 200_000
    mf = parse_machine(COUNTER)
    smap, qmap = machine_maps(random.Random(88), mf.machine)
    twin = to_mechanization(mf.machine, smap, qmap)
    a = run(mf.machine, mf.tape, steps, trace=True)
    b = run(twin, map_tape(mf.tape, smap), steps, trace=True)
    wrong_q = dict(zip(qmap, reversed(list(qmap.values()))))
    for q, want in ((qmap, True), (wrong_q, False)):
        tracemalloc.start()
        try:
            verdict = traces_isomorphic(a, b, smap, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict is want
        assert peak < 2 * steps


def test_traces_of_a_round_tripped_machine_compare_without_steps(monkeypatch):
    # A machine read back from its .aem text is equal to it but numbers
    # its rules in another order; its trace still compares by rule ids.
    m = parse_machine(COUNTER).machine
    twin = parse_machine(serialize_machine(m)).machine
    assert twin == m and twin._tables.rules != m._tables.rules
    a, b = (run(x, {1: "m"}, 5000, trace=True).trace for x in (m, twin))
    other = run(twin, {1: "m", 2: "1"}, 5000, trace=True).trace

    def no_steps(*args):
        raise AssertionError("TraceStep built")

    monkeypatch.setattr(aemachine.Trace, "__iter__", no_steps)
    assert a == b and b == a
    assert a != other and other != a


def test_traces_stored_apart_compare_by_their_steps():
    # The same run with macro steps and without: one trace holds replays by
    # reference and the other every id, so the id streams are compared,
    # under one numbering of the rules and under the numbering a machine
    # read back from its .aem text has.  One changed id makes them differ.
    m = parse_machine(COUNTER).machine
    twin = parse_machine(serialize_machine(m)).machine
    a = run(m, {1: "m"}, 20_000, trace=True).trace
    assert a._replays
    for x in (m, twin):
        b = plain_run(x, {1: "m"}, 20_000).trace
        assert a == b and b == a
        b._literal[12_345] = (b._literal[12_345] + 1) % len(x.transitions)
        assert a != b and b != a


def test_a_read_back_twin_compares_without_walking_pieces(monkeypatch):
    # The traced 10^6-step binary counter and the same run of its machine
    # read back from .aem text store the same pieces under other rule
    # numbers: one renumbering of the literal ids settles the comparison.
    mf = counter(2, (0,))
    twin = parse_machine(serialize_machine(mf.machine)).machine
    a, b = (run(x, mf.tape, 10**6, trace=True) for x in (mf.machine, twin))
    assert a.trace._replays and a.trace._tables.rules != b.trace._tables.rules
    walks = []
    real = aemachine.Trace._runs

    def counted(self):
        walks.append(self)
        return real(self)

    monkeypatch.setattr(aemachine.Trace, "_runs", counted)
    same_names = ({s: s for s in twin.symbols}, {q: q for q in twin.states})
    assert a.trace == b.trace and b.trace == a.trace
    assert traces_isomorphic(a, b, *same_names) and traces_isomorphic(b, a, *same_names)
    assert walks == []


def two_byte_rules(machine):
    """``machine`` widened, with a rule for each pad symbol from its initial
    state, none of them reached: more than 256 rules, so its traces hold
    two-byte ids."""
    wide = widened(machine)
    q = wide.initial_state
    pads = {(q, s): (q, s, 0) for s in wide.symbols[len(machine.symbols) :]}
    return Machine(
        flavor=wide.flavor,
        states=wide.states,
        symbols=wide.symbols,
        blank=wide.blank,
        transitions={**wide.transitions, **pads},
        initial_state=q,
    )


@pytest.mark.parametrize(
    "typecode, make", [("B", lambda m: m), ("H", two_byte_rules)], ids=("B", "H")
)
def test_a_rule_the_other_lacks_makes_traces_differ(typecode, make):
    # Both runners log the same ids, but each writes its own symbol: a's
    # rule has no id among b's rules.
    runner = "flavor computation\nstates r\nsymbols blank b x y\ninit r\nrule r b -> r {} R\n"
    a, b = (make(parse_machine(runner.format(w)).machine) for w in "xy")
    ta, tb = (run(x, {}, 100, trace=True).trace for x in (a, b))
    assert ta._literal.typecode == tb._literal.typecode == typecode
    assert ta._literal == tb._literal
    assert ta != tb and tb != ta
    assert tuple(ta) != tuple(tb)


def test_renumbered_ids_that_differ_in_one_step_compare_unequal():
    # b's rules are numbered apart from a's; a's ids, renumbered, fit b's
    # typecode, and one step of b is changed to another rule.
    m = parse_machine(COUNTER).machine
    twin = parse_machine(serialize_machine(m)).machine
    a = run(m, {1: "m"}, 20_000, trace=True).trace
    b = run(twin, {1: "m"}, 20_000, trace=True).trace
    assert a._tables.rules != b._tables.rules and a._replays == b._replays
    assert a == b
    last = len(b._literal) - 1
    b._literal[last] = (b._literal[last] + 1) % len(twin.transitions)
    assert tuple(a)[:-1] == tuple(b)[:-1] and tuple(a)[-1] != tuple(b)[-1]
    assert a != b and b != a


def test_trace_equality_agrees_with_tuples():
    rng = random.Random(6464)
    verdicts = set()
    for _ in range(200):
        m = random_machine(rng)
        # The same rules in another order give the same steps.
        twin = Machine(
            flavor=m.flavor,
            states=m.states,
            symbols=m.symbols,
            blank=m.blank,
            transitions=dict(rng.sample(list(m.transitions.items()), len(m.transitions))),
            initial_state=m.initial_state,
        )
        # One rule more, from a state no run reaches: that rule has no id
        # in a's rules to map to.
        wider = Machine(
            flavor=m.flavor,
            states=(*m.states, "unreached"),
            symbols=m.symbols,
            blank=m.blank,
            transitions={**m.transitions, ("unreached", m.blank): (m.initial_state, m.blank, 0)},
            initial_state=m.initial_state,
        )
        # The first rule writing another symbol: a's steps by that rule
        # have no id to map to.
        altered = dict(m.transitions)
        for (q, s), (q2, w, move) in list(altered.items())[:1]:
            altered[q, s] = (q2, next(x for x in m.symbols if x != w), move)
        altered = Machine(
            flavor=m.flavor,
            states=m.states,
            symbols=m.symbols,
            blank=m.blank,
            transitions=altered,
            initial_state=m.initial_state,
        )
        tape = random_tape(rng, m)
        budget = rng.choice((1, 20, 300))
        a = run(m, tape, budget, trace=True).trace
        for other_machine, other_tape, other_budget in (
            (m, tape, budget),
            (twin, tape, budget),
            (m, random_tape(rng, m), budget),
            (twin, tape, rng.choice((1, 20, 300))),
            (wider, tape, budget),
            (wider, random_tape(rng, m), rng.choice((1, 20, 300))),
            (altered, tape, budget),
        ):
            b = run(other_machine, other_tape, other_budget, trace=True).trace
            want = tuple(a) == tuple(b)
            assert (a == b) == (b == a) == want
            assert (a == tuple(b)) == (tuple(a) == b) == want
            assert (a != b) == (not want)
            verdicts.add(want)
    assert verdicts == {True, False}


# Macro steps: run() replays the steps from a block of cells it has seen
# in the same state and place, and falls back to the plain loop while
# that does not pay.  These machines make it do both.


def counter(base, digits=()):
    """A never-halting little-endian counter in ``base``: marker "m" in
    cell 1, the digits from cell 2, blank "b"; "inc" carries rightwards and
    "ret" walks back to the marker."""
    ds = [str(d) for d in range(base)]
    lines = [
        "flavor computation",
        "states ret inc",
        "symbols blank b m " + " ".join(ds),
        "init ret",
        "rule ret m -> inc m R",
    ]
    lines += [f"rule ret {d} -> ret {d} L" for d in ds]
    lines += [f"rule inc {d} -> ret {int(d) + 1} L" for d in ds[:-1]]
    lines += [f"rule inc {ds[-1]} -> inc 0 R", "rule inc b -> ret 1 L", "tape 1 m"]
    lines += [f"tape {i} {d}" for i, d in enumerate(digits, start=2)]
    return parse_machine("\n".join(lines) + "\n")


def dwelling_runner(symbols, dwell):
    """Stays ``dwell`` steps on each cell, then writes the next symbol of
    ``symbols`` (the first is the blank) and moves right, so each block
    of cells holds the head for many steps."""
    states = tuple(f"d{i}" for i in range(dwell))
    transitions = {}
    for i, q in enumerate(states):
        for j, s in enumerate(symbols):
            if i < dwell - 1:
                transitions[(q, s)] = (states[i + 1], s, 0)
            else:
                transitions[(q, s)] = (states[0], symbols[(j + 1) % len(symbols)], 1)
    return Machine(
        flavor=COMPUTATION,
        states=states,
        symbols=tuple(symbols),
        blank=symbols[0],
        transitions=transitions,
        initial_state=states[0],
    )


def shifting_sweeper(rng, cells, dwell):
    """Sweeps between a marker in cell 1 and a wall after ``cells`` random
    cells of six symbols, staying ``dwell`` steps on each.  Each rightward
    pass shifts the cells one to the right, so a block rarely shows the
    same content twice.  Returns (machine, tape)."""
    content = "stuvxy"
    transitions = {("l0", "m"): ("rs0", "m", 1)}
    for i in range(dwell):
        last = i == dwell - 1
        for c in content:
            for d in content:
                stay = (f"r{c}{i + 1}", d, 0)
                transitions[(f"r{c}{i}", d)] = (f"r{d}0", c, 1) if last else stay
            transitions[(f"l{i}", c)] = ("l0", c, -1) if last else (f"l{i + 1}", c, 0)
    for c in content:
        transitions[(f"r{c}0", "w")] = ("l0", "w", -1)
    states = ["l0", *(f"l{i}" for i in range(1, dwell))]
    states += [f"r{c}{i}" for c in content for i in range(dwell)]
    machine = Machine(
        flavor=COMPUTATION,
        states=tuple(states),
        symbols=("b", "m", "w", *content),
        blank="b",
        transitions=transitions,
        initial_state="l0",
    )
    tape = {i: rng.choice(content) for i in range(2, cells + 2)}
    tape.update({1: "m", cells + 2: "w"})
    return machine, tape


# Crosses between cells 8 and 9, the edge of blocks 0 and 1, for ever.
EDGE_BOUNCER = Machine(
    flavor=COMPUTATION,
    states=("a", "c", "d"),
    symbols=("b", "x", "y"),
    blank="b",
    transitions={
        ("a", "b"): ("a", "b", 1),
        ("a", "x"): ("c", "x", 1),
        ("c", "b"): ("d", "y", -1),
        ("c", "y"): ("d", "y", -1),
        ("d", "x"): ("c", "x", 1),
    },
    initial_state="a",
)


def widened(machine):
    """The same machine with unused symbols declared up to 300 in all, so
    its run keeps a tape wider than a byte a cell."""
    extra = tuple(f"pad{i}" for i in range(300 - len(machine.symbols)))
    return Machine(
        flavor=machine.flavor,
        states=machine.states,
        symbols=machine.symbols + extra,
        blank=machine.blank,
        transitions=machine.transitions,
        initial_state=machine.initial_state,
    )


def both_tapes(machine):
    """``machine`` and its widened twin: run() keeps a byte tape for the
    first and a list for the second."""
    return machine, widened(machine)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (lo, hi, limit) window of each call run() and step() make to
    the transition loop."""
    calls = []
    real = aemachine._kernel

    def counting(tables, tape, head, base, lo, hi, limit, trace):
        calls.append((lo, hi, limit))
        return real(tables, tape, head, base, lo, hi, limit, trace)

    monkeypatch.setattr(aemachine, "_kernel", counting)
    return calls


def test_counters_in_macro_steps_match_reference(kernel_calls):
    # Budgets anywhere, mostly inside a macro step whose first visit is
    # cached by then, so the last stretch runs through the plain loop.
    rng = random.Random(210)
    counters = (
        (2, ()), (2, (1, 0, 1)), (3, ()), (3, (2,) * 7 + (1,)), (10, (9,) * 9),
    )
    for base, digits in counters:
        mf = counter(base, digits)
        for budget in [rng.randint(1, 12_000) for _ in range(3)] + [20_000]:
            for m in both_tapes(mf.machine):
                assert_agrees(m, mf.tape, budget)
    # By 30,000 steps thousand-line boundaries of the listing fall inside
    # replayed pieces of the binary and the ternary counter.
    for base in (2, 3):
        mf = counter(base)
        for m in both_tapes(mf.machine):
            assert_agrees(m, mf.tape, 30_000)
        trace = run(mf.machine, mf.tape, 30_000, trace=True).trace
        starts = accumulate((length for _, length, _ in trace._runs()), initial=0)
        assert any(
            at // 1000 < (at + length - 1) // 1000
            for at, (_, length, replayed) in zip(starts, trace._runs())
            if replayed
        )
    # The binary counter's 10^5 steps take a few hundred loop calls.
    mf = counter(2)
    for m in both_tapes(mf.machine):
        del kernel_calls[:]
        final = run(m, mf.tape, 100_000).final
        assert final == reference_run(m, mf.tape, 100_000)[1]
        assert len(kernel_calls) < 400


def test_budget_ends_at_every_step_of_a_cached_macro_step():
    # From step 2,000 the binary counter replays cached macro steps; a
    # budget that ends at any step inside one must stop there.
    mf = counter(2)
    _, _, trace = reference_run(mf.machine, mf.tape, 2_600)
    for m in both_tapes(mf.machine):
        for budget in range(2_000, 2_600, 7):
            got = run(m, mf.tape, budget, trace=True)
            want = reference_run(m, mf.tape, budget)
            assert got.outcome is want[0] and got.final == want[1]
            assert got.trace == tuple(trace[:budget])


# Sweeps block 0 back and forth in 37 steps and leaves it in state A for
# cell 9, where block 1 holds the same codes as block 0 did.  In block 0
# A's left move clamps at cell 1; in block 1 it leaves the block, reads
# "e" in cell 8 and halts.  Replaying block 0's macro step would be wrong.
BLOCK_ZERO = parse_machine(
    """\
flavor computation
states A A2 W V U T S
symbols blank b m e x
init A
rule A m -> A2 m L
rule A2 m -> W m R
rule W b -> W x R
rule W e -> V e L
rule V x -> V x L
rule V m -> U m R
rule U x -> U x R
rule U e -> T e L
rule T x -> T x L
rule T m -> S m R
rule S x -> S x R
rule S e -> A e R
tape 1 m
tape 8 e
tape 9 m
tape 16 e
"""
)


# A binary counter that moves left at the marker in cell 1, which clamps,
# before it counts.  Block 0 holds the marker and seven digits, so most
# counts are taken in macro steps of block 0 that are replayed.
CLAMPING_COUNTER = parse_machine(
    """\
flavor computation
states ret bounce inc
symbols blank b m 0 1
init ret
rule ret m -> bounce m L
rule bounce m -> inc m R
rule ret 0 -> ret 0 L
rule ret 1 -> ret 1 L
rule inc 0 -> ret 1 L
rule inc 1 -> inc 0 R
rule inc b -> ret 1 L
tape 1 m
"""
)


def test_block_zero_clamps_where_a_later_block_leaves(kernel_calls):
    tape = BLOCK_ZERO.tape
    for m in both_tapes(BLOCK_ZERO.machine):
        del kernel_calls[:]
        outcome, _ = assert_agrees(m, tape, 100)
        final = run(m, tape, 100).final
        assert outcome is Outcome.HALTED
        assert (final.head, final.state, final.step_count) == (8, "A2", 38)
        # Block 1 was looked up as a macro step, not run by a plain stretch.
        assert (9, 17, 100 - 37) in kernel_calls
    # Replayed steps that clamp at cell 1, listed from their reference.
    mf = CLAMPING_COUNTER
    for m in both_tapes(mf.machine):
        for budget in (1_000, 4_321, 20_000):
            _, steps = assert_agrees(m, mf.tape, budget)
        pieces = replayed_pieces(run(m, mf.tape, budget, trace=True).trace, steps)
        assert any(t.head == 1 and t.move == -1 for _, _, piece in pieces for t in piece)


def test_far_cells_pulled_in_at_block_edges(kernel_calls):
    # A runner that stays four steps on each cell takes 32-step macro
    # steps.  Starting cells wait until the tape reaches them; these sit
    # at and next to the edges where it doubles, and each must be read
    # where it was.
    rng = random.Random(1024)
    edges = {c + d for c in (256, 512, 1024, 2048) for d in (-8, -1, 0, 1, 8)}
    edges |= {c + d for c in (8, 16, 32, 64, 128) for d in (-1, 0, 1)}
    tape = {c: rng.choice("xy") for c in edges | {10**12}}
    budget = 4 * 2060
    for m in both_tapes(dwelling_runner(("b", "x", "y"), 4)):
        del kernel_calls[:]
        _, trace = assert_agrees(m, tape, budget)
        read = {t.head: t.read for t in trace if t.read != "b"}
        assert {c: read[c] for c in edges} == {c: tape[c] for c in edges}
        # Every step past cell 64 was taken in a macro step.  Before it
        # nearly every block holds other codes, so misses used up the
        # credit and the traced and the untraced run each ran one plain
        # stretch to the end of the tape.
        assert [c for c in kernel_calls if c[1] - c[0] != 8] == [(1, 64, 1024)] * 2


def test_a_plain_stretch_ends_where_the_tape_does(monkeypatch):
    # A plain stretch runs over the whole tape for at most _PLAIN_STEPS
    # steps.  When the head reaches the end of the tape first, the stretch
    # ends there without halting, the tape grows, and the next call is a
    # macro step's again, from the head's block.
    calls = []
    real = aemachine._kernel

    def recording(tables, tape, head, base, lo, hi, limit, trace):
        halted, head, base, n = real(tables, tape, head, base, lo, hi, limit, trace)
        calls.append((lo, hi, limit, halted, head, n))
        return halted, head, base, n

    monkeypatch.setattr(aemachine, "_kernel", recording)
    rng = random.Random(1024)
    tape = {c: rng.choice("xy") for c in range(1, 600)}
    for m in both_tapes(dwelling_runner(("b", "x", "y"), 4)):
        del calls[:]
        assert run(m, tape, 4 * 2060).outcome is Outcome.BUDGET_EXHAUSTED
        stretches = [i for i, c in enumerate(calls) if c[1] - c[0] != 8]
        early = 0
        for i in stretches:
            lo, hi, limit, halted, head, n = calls[i]
            assert lo == 1 and limit == aemachine._PLAIN_STEPS and not halted
            if n < limit:
                assert head == hi  # the head left the tape
                early += 1
            after = calls[i + 1]
            assert after[:2] == (head - (head - 1) % 8, head - (head - 1) % 8 + 8)
        # Cells 64 to 512 each ended a stretch early; the last ran in full.
        assert early == 4 and len(stretches) == 5


def test_three_hundred_symbols_in_macro_steps():
    # Codes past one byte in the cached blocks; rule ids past one byte in
    # the replayed trace.  Every block of the first 400 cells holds the
    # same codes, the next 200 cells are random.
    rng = random.Random(3000)
    symbols = tuple(f"s{i}" for i in range(300))
    m = dwelling_runner(symbols, 4)
    tape = {i: symbols[292 + (i - 1) % 8] for i in range(1, 401)}
    tape.update({i: rng.choice(symbols) for i in range(401, 601)})
    for budget in (2_800, 3_001, 1_633):
        _, steps = assert_agrees(m, tape, budget)
    assert run(m, tape, 100, trace=True).trace._literal.typecode == "H"
    # A macro step cached in one block is replayed in others: the same
    # reference, listed from another head.
    heads = {}
    for ref, head, _ in replayed_pieces(run(m, tape, 1_633, trace=True).trace, steps):
        heads.setdefault(ref, set()).add(head)
    assert max(map(len, heads.values())) > 1


def test_cache_fills_and_clears(monkeypatch, kernel_calls):
    # Three block contents in turn, each followed by four blank blocks.
    # With room for two macro steps the cache is full at every third
    # lookup and is cleared; the run must still agree with the reference.
    patterns = ("xxxxyyyy", "xyxyxyxy", "yyxxyyxx")
    blocks = 300
    tape = {
        1 + 8 * k + i: c
        for k in range(0, blocks, 5)
        for i, c in enumerate(patterns[k // 5 % 3])
    }
    budget = 32 * blocks
    entries = aemachine._CACHE_ENTRIES
    for m in both_tapes(dwelling_runner(("b", "x", "y"), 4)):
        monkeypatch.setattr(aemachine, "_CACHE_ENTRIES", entries)
        del kernel_calls[:]
        assert_agrees(m, tape, budget)
        roomy = len(kernel_calls)
        del kernel_calls[:]
        monkeypatch.setattr(aemachine, "_CACHE_ENTRIES", 2)
        assert_agrees(m, tape, budget)
        # assert_agrees runs twice, traced and not.  A roomy cache misses on
        # the four contents once; a small one on a pattern and the blank
        # block after it, two in every five blocks.
        assert roomy <= 2 * 5
        assert len(kernel_calls) >= 2 * 2 * blocks // 5


def test_macro_steps_keep_traces_isomorphic():
    rng = random.Random(1414)
    cases = [(counter(2).machine, counter(2).tape, 20_000),
             (counter(3).machine, counter(3).tape, 20_000),
             (widened(counter(3).machine), counter(3).tape, 20_000),
             (BLOCK_ZERO.machine, BLOCK_ZERO.tape, 100),
             (dwelling_runner(("b", "x", "y"), 4), {}, 5_000),
             (PERIOD_TWO.machine, PERIOD_TWO.tape, 20_000)]
    for m, tape, budget in cases:
        smap, qmap = machine_maps(rng, m)
        twin = to_mechanization(m, smap, qmap)
        a = run(m, tape, budget, trace=True)
        b = run(twin, map_tape(tape, smap), budget, trace=True)
        assert traces_isomorphic(a, b, smap, qmap)
        assert reference_isomorphic(a, b, smap, qmap)
        wrong_q = dict(zip(qmap, reversed(list(qmap.values()))))
        assert traces_isomorphic(a, b, smap, wrong_q) == reference_isomorphic(
            a, b, smap, wrong_q
        )


@pytest.mark.parametrize("traced", [False, True])
def test_macro_steps_that_do_not_pay_fall_back_to_the_plain_loop(kernel_calls, traced):
    # A bouncer across a block edge takes one-step macro steps, a sweeper
    # over fresh content eight-step ones that are never seen again.  Once
    # the credit runs out, the plain loop takes 1,024 steps a call.
    steps = 100_000
    sweeper, sweep_tape = shifting_sweeper(random.Random(77), 700, 1)
    for m, tape in ((EDGE_BOUNCER, {8: "x"}), (sweeper, sweep_tape)):
        want = reference_run(m, tape, steps)[1]
        for twin in both_tapes(m):
            del kernel_calls[:]
            result = run(twin, tape, steps, trace=traced)
            assert len(kernel_calls) <= steps / 64
            assert result.final == want


def test_macro_step_cache_stays_bounded():
    # A sweeper that stays four steps on each cell over fresh content
    # misses at nearly every lookup and caches each 32-step macro step:
    # about 7,000 of them in 10^6 steps, enough to fill the cache six
    # times.  A full cache is cleared, so it never holds more than about
    # 400 KB, whatever the length of the run.
    sweeper, tape = shifting_sweeper(random.Random(78), 700, 4)
    run(sweeper, tape, 1000)
    tracemalloc.start()
    try:
        result = run(sweeper, tape, 1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.final.step_count == 1_000_000
    assert peak < 512 * 1024


# Loopers: machines that stay inside one block for ever.  At cell 1, where
# each left move clamps, with period 1; between cells 20 and 21 of block 2
# with period 2; and on one cell through five or nine states, periods that
# do not divide the steps of a loop call.
CLAMP_LOOPER = parse_machine(
    "flavor computation\nstates a\nsymbols blank e\ninit a\nrule a e -> a e L\n"
)
PERIOD_TWO = parse_machine(
    """\
flavor computation
states a b c
symbols blank e w x
init a
rule a e -> a e R
rule a w -> b w R
rule b e -> c x L
rule b x -> c x L
rule c w -> b w R
tape 20 w
"""
)


def spinner(period):
    """A looper that stays on cell 1 and goes round ``period`` states."""
    return parse_machine(
        "flavor computation\nstates "
        + " ".join(f"q{i}" for i in range(period))
        + "\nsymbols blank e\ninit q0\n"
        + "".join(f"rule q{i} e -> q{(i + 1) % period} e S\n" for i in range(period))
    )


PERIOD_FIVE, PERIOD_NINE = spinner(5), spinner(9)


def _jumps(trace):
    """The references in ``trace`` that repeat a run of ids more than once:
    the cycles the run jumped."""
    refs = trace._replays
    return sum(refs[i + 3] > 1 for i in range(0, len(refs), 4))


@pytest.mark.parametrize("wide", [False, True], ids=["byte-tape", "list-tape"])
def test_in_block_cycles_match_reference(wide):
    # Loop calls take 1,024 steps.  Each looper is jumped once, the
    # period-nine one 25 calls in.
    budgets = (1, 1_023, 1_024, 1_025, 2_049, 5_000, 20_000)
    for mf in (CLAMP_LOOPER, PERIOD_TWO, PERIOD_NINE):
        m = widened(mf.machine) if wide else mf.machine
        for budget in budgets:
            assert_agrees(m, mf.tape, budget)
        assert _jumps(run(m, mf.tape, 10**6, trace=True).trace) == 1
    # Random machines that never halt: many end in a cycle inside a block,
    # some after wandering over several.
    rng = random.Random(840)
    jumped = 0
    for _ in range(60):
        m = wide_machine(rng, rng.randint(1, 4), rng.randint(2, 4), fill=1.0)
        tape = {i: rng.choice(m.symbols) for i in rng.sample(range(1, 40), rng.randint(0, 30))}
        m = widened(m) if wide else m
        budget = rng.randint(2_000, 8_000)
        assert_agrees(m, tape, budget)
        jumped += _jumps(run(m, tape, budget, trace=True).trace) > 0
    assert 20 <= jumped < 60


def test_loopers_jump_whole_cycles(kernel_calls):
    # A million steps of a cycle take a few loop calls, and its trace a few
    # calls' worth of ids and one reference.  Both runs, and the listing,
    # equal those of a plain replay: no macro steps, every id logged.
    steps = 200_000
    for mf in (CLAMP_LOOPER, PERIOD_TWO):
        del kernel_calls[:]
        result = run(mf.machine, mf.tape, 10**6, trace=True)
        assert len(kernel_calls) <= 10
        assert result.final.step_count == len(result.trace) == 10**6
        assert len(result.trace._literal) <= 3 * aemachine._PLAIN_STEPS
        jumped = run(mf.machine, mf.tape, steps, trace=True)
        plain = plain_run(mf.machine, mf.tape, steps)
        assert len(plain.trace._literal) == steps
        assert jumped == plain and plain == jumped
        assert jumped.trace == plain.trace and plain.trace == jumped.trace
        assert jumped.trace != run(mf.machine, mf.tape, steps - 1, trace=True).trace
        listings = [_Digest(), _Digest()]
        format_run(jumped, listings[0])
        format_run(plain, listings[1])
        assert listings[0].sha.digest() == listings[1].sha.digest()


def _first_jump(trace):
    """(step, period) of the first cycle ``trace`` jumped: the step its
    repeats start at and the steps a repeat takes."""
    refs, replayed = trace._replays, 0
    for i in range(0, len(refs), 4):
        at, _, n, reps = refs[i : i + 4]
        if reps > 1:
            return at + replayed, n
        replayed += n * reps
    raise AssertionError("no cycle was jumped")


@pytest.mark.parametrize(
    "block, mf",
    [
        pytest.param(block, mf, id=f"block-{block}-{name}")
        for block in (4, 8, 16, 64)
        for name, mf in (
            ("clamp", CLAMP_LOOPER), ("period-2", PERIOD_TWO),
            ("period-5", PERIOD_FIVE), ("period-9", PERIOD_NINE),
        )
        # Blocks of 4 part cells 20 and 21: a cycle across blocks.
        if (block, mf) != (4, PERIOD_TWO)
    ],
)
def test_every_in_block_cycle_is_jumped(monkeypatch, kernel_calls, block, mf):
    # Brent's mark finds a cycle inside a block whatever its period and
    # the block size, a few dozen loop calls in, and the run jumps it.
    monkeypatch.setattr(aemachine, "_BLOCK", block)
    m, tape = mf.machine, mf.tape
    del kernel_calls[:]
    at, period = _first_jump(run(m, tape, 10**6, trace=True).trace)
    assert len(kernel_calls) <= 40
    # One step short of a whole period past the mark's match, a whole
    # period, and one step more.
    for budget in (at + period - 1, at + period, at + period + 1):
        assert_agrees(m, tape, budget)
    for traced in (False, True):
        del kernel_calls[:]
        result = run(m, tape, 10**12, trace=traced)
        assert len(kernel_calls) <= 40
        # The same configuration as as many steps into the cycle.
        _, want, _ = reference_run(m, tape, at + (10**12 - at) % period)
        assert result.final == MachineConfig(want.cells, want.head, want.state, 10**12)
        assert not traced or len(result.trace) == 10**12


def test_aem_run_jumps_the_period_nine_looper_end_to_end(tmp_path):
    # 10^12 steps through the command line, in a child with a deadline: a
    # cycle rule that missed this looper would run for days, and so fails
    # here instead of hanging the suite.
    path = tmp_path / "nine.aem"
    path.write_text(serialize_machine(PERIOD_NINE.machine))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "mechx.cli", "aem-run", str(path), "--max-steps", str(10**12)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    # 10^12 is 1 modulo 9.
    assert proc.stdout == (
        "outcome budget_exhausted\nfinal state=q1 head=1 steps=1000000000000 cells=[]\n"
    )


def test_traced_ceiling_counter_keeps_replays_by_reference():
    # The benchmark's traced binary counter of 10^6 steps: all but about
    # 8,000 of its steps replay cached macro steps.  Copying their ids took
    # 1,014 KB; each replay is now one reference of 32 bytes.
    mf = counter(2)
    run(mf.machine, mf.tape, 1_000, trace=True)
    tracemalloc.start()
    try:
        result = run(mf.machine, mf.tape, 10**6, trace=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.trace) == 10**6
    assert peak <= 150 * 1024


def _listing_peak(result):
    """The tracemalloc peak of listing ``result`` to a sink that keeps
    nothing."""
    format_run(result, _Discard())
    tracemalloc.start()
    try:
        format_run(result, _Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_replayed_text_is_kept_a_pointer_a_step():
    # The benchmark's traced binary counter of 10^6 steps and its traced
    # ternary counter of 230,784 steps: the listing keeps the text of each
    # replayed piece, a pointer a step, with equal tails shared.  Streaming
    # the text of every step took 171 and 175 KB.
    for mf, steps in ((counter(2), 10**6), (counter(3, (2,)), 230_784)):
        result = run(mf.machine, mf.tape, steps, trace=True)
        assert len(result.trace) == steps
        assert _listing_peak(result) <= 512 * 1024


def test_listing_forgets_kept_text(monkeypatch):
    # The ternary counter's 50,000 steps replay 7 pieces from as many
    # (reference, head) pairs, 6,559 steps in all.  With _TAIL_STEPS at 16
    # the listing forgets the kept text at each new pair, so it makes the
    # text of more pieces, and lists the same.
    mf = counter(3)
    result = run(mf.machine, mf.tape, 50_000, trace=True)
    replayed = replayed_pieces(result.trace, tuple(result.trace))
    pieces = {(ref, head): len(steps) for ref, head, steps in replayed}
    assert (len(pieces), sum(pieces.values())) == (7, 6_559)
    made = []
    real = aemachine._heads

    def counting(moves, ids, head):
        made.append(len(ids))
        return real(moves, ids, head)

    monkeypatch.setattr(aemachine, "_heads", counting)
    format_run(result, _Discard())
    kept_once = len(made)
    del made[:]
    monkeypatch.setattr(aemachine, "_TAIL_STEPS", 16)
    format_run(result, _Discard())
    assert len(made) > kept_once
    assert_agrees(mf.machine, mf.tape, 50_000)
    # run() makes no reference of several repeats, but a trace may hold one:
    # each repeat is a piece of its own, listed from the tails kept for the
    # first.  The machine steps right, then left.
    m = parse_machine(
        "flavor computation\nstates a\nsymbols blank b x\ninit a\n"
        "rule a b -> a x R\nrule a x -> a b L\n"
    ).machine
    result = run(m, {}, 1, trace=True)
    result.trace._literal.extend([1] + [0, 1] * 19)
    result.trace._replay(0, 40, 1)
    result.trace._replay(0, 40, 3)
    pieces = [piece for piece in result.trace._runs() if piece[2]]
    assert pieces == [(0, 40, True)] * 4
    assert format_run(result) == reference_format(result.outcome, result.final, result.trace)
    # A head of n cells or fewer may clamp within n steps.
    assert aemachine._heads([1, -1], [1, 1, 1], 3) == [3, 2, 1, 1]


def test_reversed_walks_the_pieces_once(monkeypatch):
    # Walking the pieces again from the first for each chunk made reversed
    # take time in the square of the trace's length.
    mf = counter(2)
    trace = run(mf.machine, mf.tape, 10**5, trace=True).trace
    want = tuple(trace)[::-1]
    calls = []
    real = aemachine.Trace._runs

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(aemachine.Trace, "_runs", counting)
    assert tuple(reversed(trace)) == want
    assert len(calls) == 1


def test_reversed_holds_less_than_a_byte_a_step():
    # The benchmark's traced binary counter of 10^6 steps.  Keeping the
    # rule ids of every thousand steps held 1,084 KB before the first step;
    # each piece's place and start head take a fraction of that.
    mf = counter(2)
    trace = run(mf.machine, mf.tape, 10**6, trace=True).trace
    next(reversed(trace))
    tracemalloc.start()
    try:
        steps = reversed(trace)
        first = next(steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == trace[-1]
    assert peak < len(trace)


# (least n, most n, least reps, most reps) of the references built below;
# run() makes only the last two shapes, and cycles of 840 steps.
_REFERENCE_SHAPES = (
    (1, 500, 2, 4), (1_001, 2_500, 2, 3), (1, 1_000, 1, 1), (1_001, 2_500, 1, 1),
)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_every_reference_shape_reads_as_its_steps(seed):
    # Random literal ids and references of every shape, against the tuple
    # of the steps they stand for, heads clamped at cell 1.
    rng = random.Random(seed)
    m = wide_machine(rng, 3, 3, moves=(-1, -1, 0, 1), fill=1.0)
    result = run(m, {}, 1, trace=True)
    trace, rules = result.trace, result.trace._tables.rules
    ids = list(trace._literal)
    for low, high, least, most in rng.sample(_REFERENCE_SHAPES, rng.randint(1, 4)):
        n = rng.randint(low, high)
        count = max(n - len(trace._literal), 0) + rng.randint(0, 1_000)
        fresh = [rng.randrange(len(rules)) for _ in range(count)]
        trace._literal.extend(fresh)
        ids += fresh
        first, reps = rng.randint(0, len(trace._literal) - n), rng.randint(least, most)
        ids += trace._literal[first : first + n].tolist() * reps
        trace._replay(first, n, reps)
    steps, head = [], 1
    for r in ids:
        q, s, w, move = rules[r]
        steps.append(TraceStep(q, head, s, w, move))
        head = max(1, head + move)
    steps = tuple(steps)
    n = len(steps)
    assert len(trace) == n and tuple(trace) == steps
    assert tuple(reversed(trace)) == steps[::-1]
    for _ in range(3):
        a, b = sorted(rng.randint(-n, n) for _ in range(2))
        stride = rng.randint(1, 1_500)
        for s in (slice(a, b), slice(b, a, -1), slice(a, b, stride), slice(b, a, -stride)):
            assert trace[s] == steps[s]
        k = rng.randrange(n)
        assert trace[k] == steps[k]
        assert trace.index(steps[k]) == steps.index(steps[k])
    plain = run(m, {}, 1, trace=True).trace
    del plain._literal[:]
    plain._literal.extend(ids)
    assert trace == steps and trace == plain and plain == trace
    plain._literal[-1] = (ids[-1] + 1) % len(rules)
    assert trace != plain and plain != trace
    assert format_run(result) == reference_format(result.outcome, result.final, steps)


LOOPER = parse_machine(
    "flavor computation\nstates a c\nsymbols blank b x\ninit a\n"
    "rule a b -> c x R\nrule c b -> a b L\nrule a x -> c x R\n"
)


def test_traced_budget_is_at_most_sys_maxsize(tmp_path, capsys):
    # A trace's length is a Python index.  At the limit the looper's cycle
    # is jumped to its last step; one more is refused before the run, and
    # aem-run says so in one line.
    result = run(LOOPER.machine, LOOPER.tape, sys.maxsize, trace=True)
    assert result.final.step_count == len(result.trace) == sys.maxsize
    with pytest.raises(ValueError, match=f"traced run must be <= {sys.maxsize}$"):
        run(LOOPER.machine, LOOPER.tape, sys.maxsize + 1, trace=True)
    assert run(LOOPER.machine, LOOPER.tape, 10**23).final.step_count == 10**23
    path = tmp_path / "looper.aem"
    path.write_text(serialize_machine(LOOPER.machine))
    for budget in (sys.maxsize + 1, 10**23):
        code = cli.main(["aem-run", str(path), "--max-steps", str(budget), "--trace"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: max_steps of a traced run must be <= {sys.maxsize}\n"


# A random machine that runs right for ever and blanks every mark it
# passes: after 135,100 steps its tape is 262,144 cells, all blank.
BLANK_RUNNER = parse_machine(
    """\
flavor computation
states q0 q1 q2 q3
symbols blank s0 s1
init q0
rule q0 s0 -> q3 s0 R
rule q0 s1 -> q2 s1 S
rule q2 s0 -> q2 s0 L
rule q2 s1 -> q0 s1 R
rule q3 s0 -> q3 s0 R
rule q3 s1 -> q3 s0 R
"""
    + "".join(f"tape {i} s1\n" for i in (5, 6, 8, 9, 10, 11, 12, 14, 15, 16, 19))
)


def test_blank_runner_keeps_a_byte_a_cell():
    # A list of codes took 8 bytes a cell, 2,176 KB in all.
    steps = 135_100
    run(BLANK_RUNNER.machine, BLANK_RUNNER.tape, 1_000)
    tracemalloc.start()
    try:
        result = run(BLANK_RUNNER.machine, BLANK_RUNNER.tape, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.final.step_count == steps
    assert peak <= 512 * 1024


def test_final_line_skips_blank_cells_and_stays_the_same(monkeypatch):
    # The final line of a tape that is mostly blank, on either store: the
    # blank runner's, and a runner's that keeps a few marks far apart and
    # one far cell.  Only chunks of cells holding a mark are listed cell
    # by cell.
    keeper = Machine(
        flavor=COMPUTATION,
        states=("r",),
        symbols=("b", "x"),
        blank="b",
        transitions={("r", "b"): ("r", "b", 1), ("r", "x"): ("r", "x", 1)},
        initial_state="r",
    )
    marks = {5: "x", 2_999: "x", 3_000: "x", 3_001: "x", 70_000: "x", 10**9: "x"}
    listed = []
    real = aemachine._cell_chunks

    def counting(symbols, codes, far):
        for cells in real(symbols, codes, far):
            listed.append(len(cells))
            yield cells

    monkeypatch.setattr(aemachine, "_cell_chunks", counting)
    for mf, steps in ((BLANK_RUNNER, 135_100), (MachineFile(keeper, marks), 100_000)):
        outcome, final, _ = reference_run(mf.machine, mf.tape, steps)
        want = reference_format(outcome, final, ())
        for m in both_tapes(mf.machine):
            del listed[:]
            result = run(m, mf.tape, steps)
            assert format_run(result) == want
            assert result.final == final
            assert sum(listed) == len(final.cells) and 0 not in listed[:-1]


@given(st.integers(0, 2**32 - 1), st.sampled_from((1, 30, 900, 2_000, 20_000)))
@settings(max_examples=80, deadline=None)
def test_a_trace_takes_at_most_an_id_a_step(seed, budget):
    # References are kept only where they take less room than the ids they
    # stand for, so a trace never holds more than one id a step; as
    # allocated, arrays add at most a sixteenth and a few items.
    rng = random.Random(seed)
    kind = rng.randrange(3)
    if kind < 2:
        m = random_machine(rng) if kind else wide_machine(rng, 3, 3, fill=1.0)
        tape = random_tape(rng, m)
    else:
        mf = counter(rng.choice((2, 3, 10)))
        m, tape = mf.machine, mf.tape
    trace = run(m, tape, budget, trace=True).trace
    ids, refs = trace._literal, trace._replays
    assert len(ids) * ids.itemsize + len(refs) * refs.itemsize <= len(trace) * ids.itemsize
    assert sys.getsizeof(ids) + sys.getsizeof(refs) <= len(trace) * ids.itemsize * 17 // 16 + 256
