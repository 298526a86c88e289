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
import pickle
import random
import tracemalloc

import pytest

from mechx import cli
from mechx.aemachine import (
    _LINES_PER_WRITE,
    COMPUTATION,
    HALTED,
    INCREMENTER,
    Machine,
    MachineConfig,
    Outcome,
    RunResult,
    TraceStep,
    format_run,
    map_tape,
    run,
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
    return outcome, trace


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
        assert trace._ids.typecode == typecode and trace._ids[0] == n_rules - 1
        seen.update(trace._ids)
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
