"""Single-tape machine simulator, in two flavors.

A "computation" machine is the classic read/write-head automaton; a
"mechanization" machine is the same control structure with its symbols
read as motion primitives (e.g. flexion/extension) executed along a
discretized workspace.  The two are structurally identical: inverting a
computation machine through a pair of bijective relabelings yields a
mechanization machine whose traces match the original step for step.

Tape cells are indexed from 1 and stored sparsely (blanks implicit).
The head clamps at cell 1; a left move at the edge stays put.  The
transition table may be partial: a missing entry means the machine
halts.

    >>> m, tape = INCREMENTER.machine, {1: "1", 2: "1", 3: "1"}
    >>> result = run(m, tape, max_steps=100)
    >>> sorted(result.final.cells.items())
    [(1, '1'), (2, '1'), (3, '1'), (4, '1')]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Union

COMPUTATION = "computation"
MECHANIZATION = "mechanization"
FLAVORS = (COMPUTATION, MECHANIZATION)

MOVE_LEFT, MOVE_STAY, MOVE_RIGHT = -1, 0, +1
_MOVE_LETTERS = {"L": MOVE_LEFT, "S": MOVE_STAY, "R": MOVE_RIGHT}
_LETTER_OF_MOVE = {v: k for k, v in _MOVE_LETTERS.items()}


class UndeclaredSymbolInTape(ValueError):
    pass


class NonBijectiveMap(ValueError):
    pass


class BlankNotPreserved(ValueError):
    pass


class MachineFormatError(ValueError):
    """Description-file problem, with a 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}" if line else message)


Transition = tuple[str, str, int]  # (next state, written symbol, move)


@dataclass(frozen=True)
class Machine:
    """Immutable machine definition.

    ``transitions`` maps (state, read symbol) to (next state, written
    symbol, move); pairs with no entry halt the machine.
    """

    flavor: str
    states: tuple[str, ...]
    symbols: tuple[str, ...]
    blank: str
    transitions: Mapping[tuple[str, str], Transition]
    initial_state: str

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}, got {self.flavor!r}")
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.states:
            raise ValueError("machine needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbol names")
        if self.blank not in self.symbols:
            raise ValueError(f"blank {self.blank!r} is not a declared symbol")
        if self.initial_state not in self.states:
            raise ValueError(f"initial state {self.initial_state!r} not declared")
        table = dict(self.transitions)
        for (q, s), (q2, w, move) in table.items():
            if q not in self.states or q2 not in self.states:
                raise ValueError(f"transition ({q!r},{s!r}) references unknown state")
            if s not in self.symbols or w not in self.symbols:
                raise ValueError(f"transition ({q!r},{s!r}) references unknown symbol")
            if move not in (-1, 0, 1):
                raise ValueError(f"move must be -1, 0, or +1, got {move!r}")
        object.__setattr__(self, "transitions", table)


@dataclass(frozen=True)
class MachineConfig:
    """A point-in-time machine configuration (tape, head, state)."""

    cells: Mapping[int, str]
    head: int
    state: str
    step_count: int = 0

    def __post_init__(self):
        cells = dict(self.cells)
        for idx in cells:
            if not isinstance(idx, int) or idx < 1:
                raise ValueError(f"cell index must be an integer >= 1, got {idx!r}")
        if self.head < 1:
            raise ValueError(f"head must be >= 1, got {self.head}")
        if self.step_count < 0:
            raise ValueError("step_count must be >= 0")
        object.__setattr__(self, "cells", cells)


class _HaltedType:
    """Singleton returned by step() when no transition applies."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "HALTED"


HALTED = _HaltedType()


class TraceStep(NamedTuple):
    state: str
    head: int
    read: str
    written: str
    move: int


class Outcome(str, Enum):
    HALTED = "halted"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class RunResult:
    outcome: Outcome
    final: MachineConfig
    trace: Optional[tuple[TraceStep, ...]] = None


def step(machine: Machine, config: MachineConfig) -> Union[MachineConfig, _HaltedType]:
    """One transition.  Returns the successor configuration, or HALTED
    when the table has no entry for (state, read symbol)."""
    if config.state not in machine.states:
        raise ValueError(f"state {config.state!r} not declared by the machine")
    read = config.cells.get(config.head, machine.blank)
    if read not in machine.symbols:
        raise UndeclaredSymbolInTape(
            f"cell {config.head} holds undeclared symbol {read!r}"
        )
    cells = dict(config.cells)
    outcome, head, state, steps, _ = _advance(
        machine, cells, config.head, config.state, 1, False
    )
    if outcome is Outcome.HALTED:
        return HALTED
    return MachineConfig(
        cells=cells, head=head, state=state, step_count=config.step_count + steps
    )


def _advance(
    machine: Machine,
    cells: dict[int, str],
    head: int,
    state: str,
    max_steps: int,
    trace: bool,
) -> tuple[Outcome, int, str, int, list[TraceStep]]:
    """The transition loop behind step() and run(): takes up to
    ``max_steps`` transitions, updating ``cells`` in place, and returns
    (outcome, head, state, steps taken, trace)."""
    # Hot loop mutates local copies; immutable values are built at the end.
    table = machine.transitions
    blank = machine.blank
    steps = 0
    log: list[TraceStep] = []
    outcome = Outcome.BUDGET_EXHAUSTED
    while steps < max_steps:
        read = cells.get(head, blank)
        rule = table.get((state, read))
        if rule is None:
            outcome = Outcome.HALTED
            break
        next_state, written, move = rule
        if trace:
            log.append(TraceStep(state, head, read, written, move))
        if written == blank:
            cells.pop(head, None)
        else:
            cells[head] = written
        head = max(1, head + move)
        state = next_state
        steps += 1
    return outcome, head, state, steps, log


def run(
    machine: Machine,
    initial_cells: Mapping[int, str],
    max_steps: int,
    trace: bool = False,
) -> RunResult:
    """Iterate step() from (initial_cells, head 1, initial state) until
    the machine halts or ``max_steps`` transitions have been taken."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    cells: dict[int, str] = {}
    for idx, sym in initial_cells.items():
        if not isinstance(idx, int) or idx < 1:
            raise ValueError(f"cell index must be an integer >= 1, got {idx!r}")
        if sym not in machine.symbols:
            raise UndeclaredSymbolInTape(f"cell {idx} holds undeclared symbol {sym!r}")
        if sym != machine.blank:
            cells[idx] = sym

    outcome, head, state, steps, log = _advance(
        machine, cells, 1, machine.initial_state, max_steps, trace
    )
    final = MachineConfig(cells=cells, head=head, state=state, step_count=steps)
    return RunResult(
        outcome=outcome, final=final, trace=tuple(log) if trace else None
    )


def _check_bijection(mapping: Mapping[str, str], domain: tuple[str, ...], what: str):
    if set(mapping.keys()) != set(domain):
        raise NonBijectiveMap(f"{what} map domain does not equal the machine's {what}s")
    if len(set(mapping.values())) != len(domain):
        raise NonBijectiveMap(f"{what} map is not injective")


def relabel(
    machine: Machine,
    symbol_map: Mapping[str, str],
    state_map: Mapping[str, str],
    flavor: Optional[str] = None,
) -> Machine:
    """Rename every state and symbol through total bijections; structure
    is otherwise untouched."""
    _check_bijection(symbol_map, machine.symbols, "symbol")
    _check_bijection(state_map, machine.states, "state")
    return Machine(
        flavor=machine.flavor if flavor is None else flavor,
        states=tuple(state_map[q] for q in machine.states),
        symbols=tuple(symbol_map[s] for s in machine.symbols),
        blank=symbol_map[machine.blank],
        transitions={
            (state_map[q], symbol_map[s]): (state_map[q2], symbol_map[w], move)
            for (q, s), (q2, w, move) in machine.transitions.items()
        },
        initial_state=state_map[machine.initial_state],
    )


def to_mechanization(
    machine: Machine,
    symbol_map: Mapping[str, str],
    state_map: Mapping[str, str],
    new_blank: Optional[str] = None,
) -> Machine:
    """Invert a computation machine into its mechanization twin.

    Motion primitives replace tape symbols but the transition structure
    is preserved exactly.  The relabeled blank becomes the twin's blank;
    pass ``new_blank`` to assert which primitive that must be (anything
    else would change halting behavior on unset cells).
    """
    if machine.flavor != COMPUTATION:
        raise ValueError("only computation-flavor machines can be inverted")
    out = relabel(machine, symbol_map, state_map, flavor=MECHANIZATION)
    if new_blank is not None and out.blank != new_blank:
        raise BlankNotPreserved(
            f"blank {machine.blank!r} maps to {out.blank!r}, expected {new_blank!r}"
        )
    return out


def map_tape(tape: Mapping[int, str], symbol_map: Mapping[str, str]) -> dict[int, str]:
    """Apply a symbol bijection to a sparse tape."""
    return {idx: symbol_map[sym] for idx, sym in tape.items()}


def traces_isomorphic(
    a: RunResult,
    b: RunResult,
    symbol_map: Mapping[str, str],
    state_map: Mapping[str, str],
) -> bool:
    """True iff the two traced runs are the same computation up to the
    given renamings (heads and moves must match verbatim)."""
    if a.trace is None or b.trace is None:
        raise ValueError("both runs must be produced with tracing enabled")
    if a.outcome != b.outcome or len(a.trace) != len(b.trace):
        return False
    for ta, tb in zip(a.trace, b.trace):
        if (
            tb.state != state_map.get(ta.state)
            or tb.head != ta.head
            or tb.read != symbol_map.get(ta.read)
            or tb.written != symbol_map.get(ta.written)
            or tb.move != ta.move
        ):
            return False
    return True


def format_run(result: RunResult) -> str:
    """Canonical text form of a RunResult: outcome line, final summary,
    then one 'step state head read write move' line per traced step."""
    lines = [f"outcome {result.outcome.value}"]
    f = result.final
    cells = " ".join(f"{i}:{s}" for i, s in sorted(f.cells.items()))
    lines.append(
        f"final state={f.state} head={f.head} steps={f.step_count} cells=[{cells}]"
    )
    if result.trace is not None:
        for n, t in enumerate(result.trace):
            lines.append(
                f"{n} {t.state} {t.head} {t.read} {t.written} {_LETTER_OF_MOVE[t.move]}"
            )
    return "\n".join(lines) + "\n"


# Description files (".aem") -------------------------------------------------


@dataclass(frozen=True)
class MachineFile:
    """A parsed machine description plus its optional starting tape."""

    machine: Machine
    tape: dict[int, str] = field(default_factory=dict)


def parse_machine(text: str) -> MachineFile:
    """Parse the line-oriented ".aem" format:

        flavor computation
        states q_scan q_done
        symbols blank e 1
        init q_scan
        rule q_scan 1 -> q_scan 1 R
        rule q_scan e -> q_done 1 S
        tape 1 1

    "#" comments and blank lines are ignored.  The first name after
    "symbols blank" is the blank symbol; serialize_machine writes the
    blank first, so a round trip keeps it.
    """
    flavor: Optional[str] = None
    states: Optional[tuple[str, ...]] = None
    symbols: Optional[tuple[str, ...]] = None
    blank: Optional[str] = None
    init: Optional[str] = None
    rules: dict[tuple[str, str], Transition] = {}
    rule_lines: dict[tuple[str, str], int] = {}
    tape: dict[int, str] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tok = body.split()
        kw = tok[0]
        if kw == "flavor":
            if flavor is not None:
                raise MachineFormatError(lineno, "duplicate 'flavor' line")
            if len(tok) != 2 or tok[1] not in FLAVORS:
                raise MachineFormatError(
                    lineno, "expected 'flavor computation' or 'flavor mechanization'"
                )
            flavor = tok[1]
        elif kw == "states":
            if states is not None:
                raise MachineFormatError(lineno, "duplicate 'states' line")
            if len(tok) < 2:
                raise MachineFormatError(lineno, "expected at least one state name")
            states = tuple(tok[1:])
        elif kw == "symbols":
            if symbols is not None:
                raise MachineFormatError(lineno, "duplicate 'symbols' line")
            if len(tok) < 3 or tok[1] != "blank":
                raise MachineFormatError(
                    lineno, "expected 'symbols blank <name> [<name> ...]'"
                )
            blank = tok[2]
            symbols = tuple(tok[2:])
        elif kw == "init":
            if init is not None:
                raise MachineFormatError(lineno, "duplicate 'init' line")
            if len(tok) != 2:
                raise MachineFormatError(lineno, "expected 'init <state>'")
            init = tok[1]
        elif kw == "rule":
            # rule <state> <read> -> <state> <write> L|S|R
            if len(tok) != 7 or tok[3] != "->" or tok[6] not in _MOVE_LETTERS:
                raise MachineFormatError(
                    lineno, "expected 'rule <state> <read> -> <state> <write> L|S|R'"
                )
            key = (tok[1], tok[2])
            if key in rules:
                first = rule_lines[key]
                raise MachineFormatError(
                    lineno,
                    f"duplicate rule for ({tok[1]}, {tok[2]}); first on line {first}",
                )
            rules[key] = (tok[4], tok[5], _MOVE_LETTERS[tok[6]])
            rule_lines[key] = lineno
        elif kw == "tape":
            if len(tok) != 3:
                raise MachineFormatError(lineno, "expected 'tape <cell-index> <symbol>'")
            try:
                idx = int(tok[1])
            except ValueError:
                raise MachineFormatError(
                    lineno, f"cell index must be an integer, got {tok[1]!r}"
                ) from None
            if idx < 1:
                raise MachineFormatError(lineno, "cell index must be >= 1")
            if idx in tape:
                raise MachineFormatError(lineno, f"cell {idx} set twice")
            tape[idx] = tok[2]
        else:
            raise MachineFormatError(lineno, f"unknown keyword {kw!r}")

    if flavor is None:
        raise MachineFormatError(0, "missing 'flavor' line")
    if states is None:
        raise MachineFormatError(0, "missing 'states' line")
    if symbols is None or blank is None:
        raise MachineFormatError(0, "missing 'symbols' line")
    if init is None:
        raise MachineFormatError(0, "missing 'init' line")
    try:
        machine = Machine(
            flavor=flavor,
            states=states,
            symbols=symbols,
            blank=blank,
            transitions=rules,
            initial_state=init,
        )
    except ValueError as exc:
        raise MachineFormatError(0, str(exc)) from exc
    for idx, sym in tape.items():
        if sym not in machine.symbols:
            raise MachineFormatError(
                0, f"tape cell {idx} holds undeclared symbol {sym!r}"
            )
    return MachineFile(machine=machine, tape=tape)


def serialize_machine(machine: Machine, tape: Optional[Mapping[int, str]] = None) -> str:
    """Canonical ".aem" text: declarations with the blank as the first
    symbol, rules in that declaration order of (state, symbol), then tape
    cells in index order."""
    symbols = (machine.blank,) + tuple(s for s in machine.symbols if s != machine.blank)
    lines = [
        f"flavor {machine.flavor}",
        "states " + " ".join(machine.states),
        "symbols blank " + " ".join(symbols),
        f"init {machine.initial_state}",
    ]
    order = {name: i for i, name in enumerate(machine.states)}
    sorder = {name: i for i, name in enumerate(symbols)}
    for (q, s), (q2, w, move) in sorted(
        machine.transitions.items(), key=lambda kv: (order[kv[0][0]], sorder[kv[0][1]])
    ):
        lines.append(f"rule {q} {s} -> {q2} {w} {_LETTER_OF_MOVE[move]}")
    if tape:
        for idx in sorted(tape):
            lines.append(f"tape {idx} {tape[idx]}")
    return "\n".join(lines) + "\n"


def load_machine(path) -> MachineFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_machine(fh.read())


def _incrementer() -> MachineFile:
    # Unary incrementer: skip right over 1s, append one 1, halt.
    machine = Machine(
        flavor=COMPUTATION,
        states=("q_scan", "q_done"),
        symbols=("e", "1"),
        blank="e",
        transitions={
            ("q_scan", "1"): ("q_scan", "1", MOVE_RIGHT),
            ("q_scan", "e"): ("q_done", "1", MOVE_STAY),
        },
        initial_state="q_scan",
    )
    return MachineFile(machine=machine, tape={1: "1", 2: "1", 3: "1"})


INCREMENTER = _incrementer()
