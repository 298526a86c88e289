"""Single-tape machine simulator, in two flavors.

A "computation" machine is the classic read/write-head automaton; a
"mechanization" machine is the same control structure with its symbols
read as motion primitives (e.g. flexion/extension) executed along a
discretized workspace.  The two are structurally identical: inverting a
computation machine through a pair of bijective relabelings yields a
mechanization machine whose traces match the original step for step.

Tape cells are indexed from 1 and given and returned sparsely (blanks
implicit).  The head clamps at cell 1; a left move at the edge stays
put.  The transition table may be partial: a missing entry means the
machine halts.  Runs go through one kernel over integer tables compiled
once per machine, a loop that returns when the head leaves a window of
cells, over a tape of a byte a cell for up to 256 symbols.  run() takes
memoized macro steps over blocks of 8 cells: the steps from a block's
state, head offset and codes until the head leaves it are cached and
replayed on later visits, while a credit of steps saved against lookups
made falls back to the plain loop when they do not pay.  A visit that
comes back to where it was inside its block is a cycle, and the run
jumps its whole periods.  A trace keeps the rule id of each step,
and holds the steps a replay or a jump repeats by reference; the heads
follow from the rules' moves.  A run's final configuration is built
from the kernel's tape only when it is read.

    >>> m, tape = INCREMENTER.machine, {1: "1", 2: "1", 3: "1"}
    >>> result = run(m, tape, max_steps=100)
    >>> sorted(result.final.cells.items())
    [(1, '1'), (2, '1'), (3, '1'), (4, '1')]
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from collections.abc import Mapping, Sequence
from enum import Enum
from itertools import accumulate, chain, islice
from operator import eq

from . import (
    _BLANKS, MAX_INT_DIGITS, _Factory, _LineError, _Record, _is_int, _lines,
    _over_digit_limit, _require_int,
)

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


class MachineFormatError(_LineError):
    """Description-file problem, with a 1-based line number."""


class _FieldError(ValueError):
    """A Machine that cannot be built, and the part at fault: ``field``
    is "states", "symbols", "initial_state" or a transition's (state,
    read symbol) key."""

    def __init__(self, field, message: str):
        super().__init__(field, message)
        self.field = field

    def __str__(self):
        return self.args[1]


Transition = tuple[str, str, int]  # (next state, written symbol, move)

# A name .aem can write, and a word of a reader line: no blank, line end or "#".
_NAME_RE = re.compile(f"[^{_BLANKS}\n#]+")


class Machine(_Record):
    """Immutable machine definition.

    ``transitions`` maps (state, read symbol) to (next state, written
    symbol, move); pairs with no entry halt the machine.  ``symbols`` is
    stored with the blank first, as .aem files list it, and the others in
    the given order, so a machine equals its own round trip.  A state
    or symbol name is one .aem word: a name that is not a str, is empty
    or holds a space, tab, CR, LF or "#" raises ValueError.
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
        states, symbols = set(self.states), set(self.symbols)
        if len(states) != len(self.states):
            raise _FieldError("states", "duplicate state names")
        if len(symbols) != len(self.symbols):
            raise _FieldError("symbols", "duplicate symbol names")
        for field, names in (("states", self.states), ("symbols", self.symbols)):
            for name in names:
                if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
                    raise _FieldError(
                        field,
                        f"{field[:-1]} name {name!r} is not one .aem word: a "
                        "non-empty str with no blank, line end or '#'",
                    )
        if self.blank not in symbols:
            raise ValueError(f"blank {self.blank!r} is not a declared symbol")
        blank_first = (self.blank, *(s for s in self.symbols if s != self.blank))
        object.__setattr__(self, "symbols", blank_first)
        if self.initial_state not in self.states:
            raise _FieldError(
                "initial_state", f"initial state {self.initial_state!r} not declared"
            )
        object.__setattr__(self, "transitions", dict(self.transitions))
        # Compiled once, in the instance __dict__ but outside the record
        # fields, so equality and repr do not see it.
        self.__dict__["_tables"] = _Tables(self)


def _check_cells(cells: Mapping[int, str], code: Mapping[str, int] | None = None) -> None:
    # The tape-cell rule of MachineConfig, run(), step() and serialize_machine:
    # an int index >= 1 of at most MAX_INT_DIGITS digits, no bool, and a
    # declared symbol when ``code`` is given.
    for idx, sym in cells.items():
        if not _is_int(idx) or idx < 1:
            raise ValueError(f"cell index must be an integer >= 1, got {idx!r}")
        if _over_digit_limit(idx):
            raise ValueError(f"cell index has more than {MAX_INT_DIGITS} digits")
        if code is not None and sym not in code:
            raise UndeclaredSymbolInTape(f"cell {idx} holds undeclared symbol {sym!r}")


class MachineConfig(_Record):
    """A point-in-time machine configuration (tape, head, state)."""

    cells: Mapping[int, str]
    head: int
    state: str
    step_count: int = 0

    def __post_init__(self):
        cells = dict(self.cells)
        _check_cells(cells)
        _require_int(self, "head")
        _require_int(self, "step_count")
        if self.head < 1:
            raise ValueError(f"head must be >= 1, got {self.head}")
        if self.step_count < 0:
            raise ValueError("step_count must be >= 0")
        object.__setattr__(self, "cells", cells)


TraceStep = namedtuple("TraceStep", "state head read written move")


class Outcome(str, Enum):
    HALTED = "halted"
    BUDGET_EXHAUSTED = "budget_exhausted"


# What step() returns when no transition applies.
HALTED = Outcome.HALTED


class _Tables:
    """A Machine compiled to integer tables, checking each transition as
    it fills the transition's slot.

    Symbol code i is ``machine.symbols[i]``, so code 0 is the blank.
    State i owns the slots ``i * nsym`` to ``i * nsym + nsym - 1``, so
    the kernel carries a state as that slot base.  ``table[base + read]``
    is None (halt) or (next base, written code, move, rule id), and
    ``rules[rule id]`` is (state, read, written, move) by name and
    ``moves[rule id]`` its move.
    """

    __slots__ = ("symbols", "code", "nsym", "states", "base", "table", "rules", "moves")

    def __init__(self, machine: Machine):
        self.symbols = machine.symbols
        self.code = {s: i for i, s in enumerate(self.symbols)}
        self.nsym = len(self.symbols)
        self.states = machine.states
        self.base = {q: i * self.nsym for i, q in enumerate(self.states)}
        self.table: list = [None] * (len(self.states) * self.nsym)
        self.rules: list[tuple[str, str, str, int]] = []
        for (q, s), (q2, w, move) in machine.transitions.items():
            if q not in self.base or q2 not in self.base:
                raise _FieldError((q, s), f"transition ({q!r},{s!r}) references unknown state")
            if s not in self.code or w not in self.code:
                raise _FieldError((q, s), f"transition ({q!r},{s!r}) references unknown symbol")
            if not _is_int(move) or move not in (-1, 0, 1):
                raise ValueError(f"move must be -1, 0, or +1, got {move!r}")
            slot = self.base[q] + self.code[s]
            self.table[slot] = (self.base[q2], self.code[w], move, len(self.rules))
            self.rules.append((q, s, w, move))
        self.moves = [m for _, _, _, m in self.rules]

    def state_of(self, base: int) -> str:
        return self.states[base // self.nsym]


def _heads(moves: list[int], ids, head: int) -> list[int]:
    """The head at each step of the rule ids ``ids`` from ``head``, then
    the head after the last of them."""
    heads = list(accumulate(map(moves.__getitem__, ids), initial=head))
    # A head above len(ids) cannot reach cell 0; below, a left move at
    # cell 1 may have stayed put.
    if head <= len(ids) and min(heads) < 1:
        heads = [head]
        for move in map(moves.__getitem__, ids):
            head = head + move or 1
            heads.append(head)
    return heads


class Trace(Sequence):
    """The steps of a traced run as a read-only sequence of TraceStep.

    Stored as the rule id of each step: one byte for up to 256 rules, two
    for up to 65,536, four beyond.  ``_literal`` holds the ids the kernel
    logged, in order.  Steps that repeat ids logged before, a replayed
    macro step or whole periods of a cycle, are held by reference when
    that takes less room than their ids: each four numbers (at, first, n,
    reps) of ``_replays`` put, after the first ``at`` literal ids, the
    ``n`` ids from literal offset ``first``, ``reps`` times over.  Heads
    are not stored.  Every run starts at cell 1 and each step moves the
    head by its rule's move, clamped at cell 1, so the heads follow from
    the ids.
    """

    __slots__ = ("_tables", "_literal", "_replays", "_replayed")

    def __init__(self, tables: _Tables):
        # array is an extension module loaded from disk; importing it here
        # keeps it off the start-up path of commands that never trace.
        from array import array

        self._tables = tables
        n = len(tables.rules)
        self._literal = array("B" if n <= 1 << 8 else "H" if n <= 1 << 16 else "i")
        self._replays = array("q")
        self._replayed = 0  # steps held by reference

    def __len__(self) -> int:
        return len(self._literal) + self._replayed

    def _replay(self, first: int, n: int, reps: int) -> None:
        """Log ``reps`` repeats of the ``n`` ids from literal offset ``first``."""
        ids = self._literal
        if n * reps * ids.itemsize <= 4 * self._replays.itemsize:  # a copy is no larger
            ids += ids[first : first + n] * reps
        else:
            self._replays.extend((len(ids), first, n, reps))
            self._replayed += n * reps

    def _runs(self):
        """(offset, length, replayed) for each piece of the trace in step
        order, its rule ids being ``_literal[offset : offset + length]``:
        the literal ids up to each reference (and then to the end), then
        each repeat of the reference, replayed, all in pieces of at most
        _LINES_PER_WRITE ids."""
        end, refs, w = len(self._literal), self._replays, _LINES_PER_WRITE
        done = 0  # the literal ids before the next piece
        for i in range(0, len(refs) + 1, 4):
            at, source, n, reps = refs[i : i + 4] if i < len(refs) else (end, 0, 0, 0)
            for a in range(done, at, w):
                yield a, min(w, at - a), False
            done = at
            for _ in range(reps):
                for a in range(source, source + n, w):
                    yield a, min(w, source + n - a), True

    def __iter__(self):
        rules, moves, ids, head = self._tables.rules, self._tables.moves, self._literal, 1
        for offset, length, _ in self._runs():
            piece = ids[offset : offset + length]
            heads = _heads(moves, piece, head)
            head = heads[-1]
            for r, h in zip(piece, heads):
                q, s, w, m = rules[r]
                yield TraceStep(q, h, s, w, m)

    def __getitem__(self, i):
        # Each lookup walks the steps once from the first.
        wanted = range(len(self))[i]  # an index or a range, checked as a tuple would
        if isinstance(wanted, int):
            return next(islice(self, wanted, None))
        up = wanted if wanted.step > 0 else wanted[::-1]
        steps = tuple(islice(self, up.start, up.stop, up.step))
        return steps if wanted.step > 0 else steps[::-1]

    def __reversed__(self):
        # One walk keeps each piece's place and the head it starts at;
        # then the pieces are listed from the last.
        rules, moves, ids, head = self._tables.rules, self._tables.moves, self._literal, 1
        pieces = []
        for offset, length, _ in self._runs():
            pieces.append((offset, length, head))
            head = _heads(moves, ids[offset : offset + length], head)[-1]
        for offset, length, head in reversed(pieces):
            piece = ids[offset : offset + length]
            heads = _heads(moves, piece, head)
            for r, h in zip(reversed(piece), heads[-2::-1]):
                q, s, w, m = rules[r]
                yield TraceStep(q, h, s, w, m)

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        start, stop, _ = slice(start, stop).indices(len(self))
        for i, step in enumerate(islice(self, start, stop), start):
            if step == value:
                return i
        raise ValueError(f"{value!r} is not in the trace")

    def _matches(self, other: Trace, rules: Sequence) -> bool:
        """Whether ``other`` takes the same steps as this trace with its
        rules renamed to ``rules``, a list in rule id order.

        Only the rule ids are compared: a machine's rules are distinct, a
        rule maps only to a rule with the same move, and both runs start
        at cell 1, so equal ids give equal heads."""
        if len(self) != len(other):
            return False
        # Each of this trace's rules becomes other's id for it, or -1.
        number = {rule: i for i, rule in enumerate(other._tables.rules)}
        to_other = [number.get(rule, -1) for rule in rules]
        ids, theirs = self._literal, other._literal
        if to_other != list(range(len(to_other))):  # put ids in other's numbering
            try:  # a rule other lacks maps to -1, which no "B" or "H" id holds
                ids = type(theirs)(theirs.typecode, map(to_other.__getitem__, ids))
            except OverflowError:
                return False
        if (ids, self._replays) == (theirs, other._replays):
            return True
        # This trace's pieces against as many of other's ids at a time.
        stream = chain.from_iterable(theirs[o : o + n] for o, n, _ in other._runs())
        return all(
            ids[offset : offset + length].tolist() == list(islice(stream, length))
            for offset, length, _ in self._runs()
        )

    def __eq__(self, other):
        # Compares like a tuple of TraceSteps: equal to a Trace or tuple
        # with the same steps, never to a list.  Only a tuple is walked.
        if isinstance(other, Trace):
            return self._matches(other, self._tables.rules)
        if not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(tuple(self))


class RunResult(_Record):
    """What run() returns; ``trace`` is None unless run() was asked for it,
    and otherwise the Trace that run() recorded."""

    outcome: Outcome
    final: MachineConfig
    trace: Trace | None = None

    def __post_init__(self):
        # format_run and traces_isomorphic read the trace's columns.
        if self.trace is not None and not isinstance(self.trace, Trace):
            raise TypeError(
                "trace must be None or a Trace made by run(), "
                f"got {type(self.trace).__name__}"
            )

    # run() leaves ``final`` unset and keeps what the kernel left in
    # ``_end``, outside the record fields: (symbols, codes, far, head,
    # state, steps), the tape as in _kernel.  ``final`` is built from it
    # on first read; format_run writes the final line from it directly.
    _deferred = ("final",)

    def _build(self, name: str) -> MachineConfig:
        symbols, codes, far, head, state, steps = self._end
        cells = {
            i: symbols[c]
            for start, chunk in _marked_chunks(codes)
            for i, c in enumerate(chunk, start)
            if c
        }
        cells.update((i, symbols[c]) for i, c in reversed(far))
        return MachineConfig._trusted(cells=cells, head=head, state=state, step_count=steps)

    def __getstate__(self):
        # Pickles and copies hold the fields only, as an eager one does.
        return dict(zip(self._fields, self._values()))


def _kernel(
    tables: _Tables,
    tape: bytearray | list[int],
    head: int,
    base: int,
    lo: int,
    hi: int,
    limit: int,
    trace: Trace | None,
) -> tuple[bool, int, int, int]:
    """The transition loop behind step() and run(): takes up to ``limit``
    transitions on ``tape``, symbol codes indexed by cell (index 0
    unused), while the head stays in the window [lo, hi), and logs each
    step to ``trace`` when given.  A left move at cell 1 stays put.
    Returns (halted, head, base, steps taken); the head is outside the
    window only when the last step moved it out."""
    table = tables.table
    if trace is not None:
        log = trace._literal.append
    for n in range(limit):
        rule = table[base + tape[head]]
        if rule is None:
            return True, head, base, n
        base, tape[head], move, rid = rule
        if trace is not None:
            log(rid)
        head += move
        if head < lo:
            if head:
                return False, head, base, n + 1
            head = 1
        elif head >= hi:
            return False, head, base, n + 1
    return False, head, base, limit


def step(machine: Machine, config: MachineConfig) -> MachineConfig | Outcome:
    """One transition.  Returns the successor configuration, or HALTED
    when the table has no entry for (state, read symbol)."""
    tables = machine._tables
    if config.state not in tables.base:
        raise ValueError(f"state {config.state!r} not declared by the machine")
    read = config.cells.get(config.head, machine.blank)
    _check_cells({config.head: read}, tables.code)  # only the cell it reads
    # One step touches only the cell under the head.  Run it on a window
    # whose cell 1 is the real cell 1 when the head is there, so a left
    # move clamps, and otherwise the cell left of the head.
    shift = 0 if config.head == 1 else config.head - 2
    window = [0, 0, 0, 0]
    window[config.head - shift] = tables.code[read]
    halted, head, base, _ = _kernel(
        tables, window, config.head - shift, tables.base[config.state], 1, 4, 1, None
    )
    if halted:
        return HALTED
    cells = dict(config.cells)
    written = window[config.head - shift]
    if written:
        cells[config.head] = tables.symbols[written]
    else:
        cells.pop(config.head, None)
    state, steps = tables.state_of(base), config.step_count + 1
    return MachineConfig._trusted(cells=cells, head=head + shift, state=state, step_count=steps)


# Cells per block of a macro step: block k is cells 1 + kB to (k + 1)B.
_BLOCK = 8
# What a cache hit costs, in plain steps; a miss costs twice as much.
_LOOKUP_STEPS = 12
# Steps a plain stretch over the whole tape takes at most; see run().
_PLAIN_STEPS = 1024
# The credit macro steps start from, and try again with after a plain
# stretch: room for two misses, then one more lookup.
_PROBE_CREDIT = 4 * _LOOKUP_STEPS
# Macro steps cached at most; a full cache is cleared.
_CACHE_ENTRIES = 1024


def run(
    machine: Machine,
    initial_cells: Mapping[int, str],
    max_steps: int,
    trace: bool = False,
) -> RunResult:
    """Iterate step() from (initial_cells, head 1, initial state) until
    the machine halts or ``max_steps`` transitions have been taken.

    Runs in memoized macro steps: from the block the head is in, the run
    of steps until the head leaves it depends only on the state, the
    head's place in the block, whether it is block 0 (where a left move
    clamps) and the block's codes, so it is cached under those and
    replayed on the next visit.  A credit tracks whether that pays: each
    hit earns the steps it saves, its length less _LOOKUP_STEPS, and each
    miss costs twice _LOOKUP_STEPS.  When the credit is negative the plain
    loop runs over the whole tape for _PLAIN_STEPS steps or until the head
    reaches the end of the tape, and then macro steps are tried again.
    Inside a block the loop also takes at most _PLAIN_STEPS steps a call.
    Brent's cycle check compares the state, head and codes after each
    call with a mark, first the visit's start, moved to the call's end
    whenever the visit's steps reach twice the mark's.  An end equal to
    the mark closes a cycle, and the run jumps as many whole periods as
    the budget holds, so every cycle that stays in one block is jumped.

    The tape holds a byte a cell when the machine has at most 256
    symbols, and a list entry a cell otherwise.  A traced run takes at
    most ``sys.maxsize`` steps, the longest sequence Python can index."""
    if not _is_int(max_steps):
        raise ValueError(f"max_steps must be an int, got {max_steps!r}")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if trace and max_steps > sys.maxsize:  # a trace's length is a Python index
        raise ValueError(f"max_steps of a traced run must be <= {sys.maxsize}")
    tables = machine._tables
    if tables.nsym <= 256:
        # A cache key holds a block's codes as hex text: quicker to make
        # and to hash than a tuple of them.
        tape, codes_of = bytearray(_BLOCK), bytearray.hex
    else:
        tape, codes_of = [0] * _BLOCK, tuple
    _check_cells(initial_cells, tables.code)
    far = sorted(  # the starting cells the tape has not reached, last first
        ((idx, c) for idx, sym in initial_cells.items() if (c := tables.code[sym])), reverse=True
    )

    log = Trace(tables) if trace else None
    head, base, steps, halted = 1, tables.base[machine.initial_state], 0, False
    cache: dict = {}
    credit = _PROBE_CREDIT
    while steps < max_steps:
        size = len(tape)
        if head + _BLOCK > size:  # grow so the head's block fits
            tape += bytes(size)
            size += size
        while far and far[-1][0] < size:  # starting cells the tape now reaches
            idx, code = far.pop()
            tape[idx] = code
        left = max_steps - steps
        if credit < 0:  # macro steps do not pay for now: a plain stretch
            limit = min(left, _PLAIN_STEPS)
            halted, head, base, n = _kernel(tables, tape, head, base, 1, size, limit, log)
            credit = _PROBE_CREDIT
        else:
            lo = head - (head - 1) % _BLOCK
            hi = lo + _BLOCK
            key = (base, head - lo, lo == 1, codes_of(tape[lo:hi]))
            hit = cache.get(key)
            if hit is not None and hit[3] <= left:
                exit_offset, base, tape[lo:hi], n, first = hit
                head = lo + exit_offset
                if log is not None:  # the rule ids the first visit logged
                    log._replay(first, n, 1)
                credit += n - _LOOKUP_STEPS
            else:  # a miss: the visit runs until the head leaves the block
                n, mark, at = 0, key, 0  # the mark, the end after ``at`` steps
                while True:
                    limit = min(left - n, _PLAIN_STEPS)
                    halted, head, base, m = _kernel(tables, tape, head, base, lo, hi, limit, log)
                    n += m
                    if halted or n == left or not lo <= head < hi:
                        break
                    end = (base, head - lo, lo == 1, codes_of(tape[lo:hi]))
                    if end == mark:  # a cycle, its steps all logged as literals
                        period = n - at
                        reps = (left - n) // period
                        n += reps * period
                        if log is not None:
                            log._replay(len(log._literal) - period, period, reps)
                    elif n >= 2 * at:
                        mark, at = end, n
                # Cache a whole macro step if it is longer than a lookup; a
                # shorter one would save nothing when replayed.
                if n > _LOOKUP_STEPS and not lo <= head < hi:
                    if len(cache) >= _CACHE_ENTRIES:
                        cache.clear()
                    first = len(log._literal) - n if log is not None else 0  # where it was logged
                    cache[key] = (head - lo, base, tape[lo:hi], n, first)
                credit -= 2 * _LOOKUP_STEPS
        steps += n
        if halted:
            break
    return RunResult._trusted(
        outcome=Outcome.HALTED if halted else Outcome.BUDGET_EXHAUSTED,
        trace=log,
        _end=(tables.symbols, tape, far, head, tables.state_of(base), steps),
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
    flavor: str | None = None,
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
    new_blank: str | None = None,
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
    qmap, smap = state_map.get, symbol_map.get
    renamed = [(qmap(q), smap(s), smap(w), m) for q, s, w, m in a.trace._tables.rules]
    return a.outcome == b.outcome and a.trace._matches(b.trace, renamed)


# Trace lines, or tape cells of the final line, per write when format_run
# streams; a power of ten, which format_run's step numbers rely on.
_LINES_PER_WRITE = 1000
# Steps of the replayed pieces whose text format_run keeps, a pointer a
# step; past them it forgets them all.
_TAIL_STEPS = 1 << 14


def _marked_chunks(codes: bytearray | list[int]):
    """(first index, codes) for each _LINES_PER_WRITE dense cells the
    kernel left, skipping those that are all blank: a count in C finds
    them, so a long blank stretch costs no loop in Python."""
    for start in range(0, len(codes), _LINES_PER_WRITE):
        chunk = codes[start : start + _LINES_PER_WRITE]
        if chunk.count(0) < len(chunk):
            yield start, chunk


def _cell_chunks(symbols: tuple, codes, far: list[tuple[int, int]]):
    """The cells the kernel left as lists of "index:symbol", by index, a
    bounded number at a time."""
    for start, chunk in _marked_chunks(codes):
        yield [f"{i}:{symbols[c]}" for i, c in enumerate(chunk, start) if c]
    yield [f"{i}:{symbols[c]}" for i, c in reversed(far)]


def format_run(result: RunResult, out=None) -> str | None:
    """Canonical text form of a RunResult: outcome line, final summary,
    then one 'step state head read write move' line per traced step.

    Returns the text, or with ``out`` (anything with a ``write(str)``
    method) writes it there a bounded number of lines at a time and
    returns None, so a long listing is never held whole."""
    parts: list[str] = []
    write = parts.append if out is None else out.write
    end = result.__dict__.get("_end")
    if end is None:
        f = result.final
        state, head, steps = f.state, f.head, f.step_count
        chunks = [[f"{i}:{s}" for i, s in sorted(f.cells.items())]]
    else:
        symbols, codes, far, head, state, steps = end
        chunks = _cell_chunks(symbols, codes, far)
    write(
        f"outcome {result.outcome.value}\n"
        f"final state={state} head={head} steps={steps} cells=["
    )
    sep = ""
    for cells in chunks:
        if cells:
            write(sep + " ".join(cells))
            sep = " "
    write("]\n")
    if result.trace is not None:
        _write_steps(result.trace, write)
    return "".join(parts) if out is None else None


def _write_steps(trace: Trace, write) -> None:
    """Write a line per step of ``trace``, _LINES_PER_WRITE lines at a
    time: the step number, then its tail " state head read written move".

    A tail depends only on the rule and the head, so the tails of a
    replayed piece follow from its reference and the head it starts at.
    The first time a piece is met from a head, its tails are made and kept
    under those, a pointer a step, with equal tails shared through one
    dict; each replay from that head then costs no text of its own, as the
    parts of its number and its tail go to the join as they are.  Literal
    steps are written in one pass, a line at a time.  The kept pieces are
    counted by their steps, and at _TAIL_STEPS all are forgotten."""
    rules, moves, literal = trace._tables.rules, trace._tables.moves, trace._literal
    # A rule's line is its step number, before[rule id], its head, after[rule id].
    before = [f" {q} " for q, _, _, _ in rules]
    after = [f" {s} {w} {_LETTER_OF_MOVE[m]}\n" for _, s, w, m in rules]
    w = _LINES_PER_WRITE
    kept: dict = {}  # (offset, length, start head) -> (tails, head after)
    shared: dict = {}  # each tail kept, as itself
    steps_kept = 0

    # Thousand k holds steps k * w to k * w + w - 1, w a power of ten, so
    # past the first a step number is k, then a zero-padded remainder.
    numbers = [str(j) for j in range(w)]
    thousand, prefix, off = 0, "", 0  # off: the lines of this thousand written
    lines: list[str] = []

    def put(ids, heads, tails) -> None:
        """Add the lines of the next steps, from their ``ids`` and ``heads``
        in one pass, or from their kept ``tails``; write each thousand when
        full."""
        nonlocal thousand, prefix, off, lines
        if tails is None:
            low = min(heads)
            text = [str(h) for h in range(low, max(heads) + 1)]
        end, a = len(ids if tails is None else tails), 0
        while a < end:  # up to the end of the steps or of the thousand
            b = min(end, a + w - off)
            nums = numbers if b - a == w else numbers[off : off + b - a]
            if tails is None:  # zip stops at the last of nums
                lines += [
                    f"{prefix}{n}{before[r]}{text[h - low]}{after[r]}"
                    for n, r, h in zip(nums, ids[a:] if a else ids, heads[a:] if a else heads)
                ]
            else:  # three parts a line, in place
                start = len(lines)
                lines += [prefix] * (3 * (b - a))
                lines[start + 1 :: 3] = nums
                lines[start + 2 :: 3] = tails if b - a == len(tails) else tails[a:b]
            off += b - a
            a = b
            if off == w:
                write("".join(lines))
                lines = []
                thousand += 1
                if thousand == 1:  # pad the remainders under w // 10 with zeros
                    numbers[: w // 10] = [str(w + j)[1:] for j in range(w // 10)]
                prefix, off = str(thousand), 0

    head = 1
    for offset, length, replayed in trace._runs():
        if replayed:
            key = (offset, length, head)
            entry = kept.get(key)
            if entry is None:
                if steps_kept >= _TAIL_STEPS:
                    kept.clear()
                    shared.clear()
                    steps_kept = 0
                ids = literal[offset : offset + length]
                heads = _heads(moves, ids, head)
                tails = [f"{before[r]}{h}{after[r]}" for r, h in zip(ids, heads)]
                entry = kept[key] = list(map(shared.setdefault, tails, tails)), heads[-1]
                steps_kept += length
            tails, head = entry
            put(None, None, tails)
        else:
            ids = literal[offset : offset + length]
            heads = _heads(moves, ids, head)
            head = heads.pop()
            put(ids, heads, None)
    if lines:
        write("".join(lines))


# Description files (".aem") -------------------------------------------------


# Statements that appear exactly once, in the order a missing one is reported.
_SINGLETONS = ("flavor", "states", "symbols", "init")


class MachineFile(_Record):
    """A parsed machine description plus its optional starting tape."""

    machine: Machine
    tape: dict[int, str] = _Factory(dict)


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
    declared: dict[str, list[str]] = {}  # singleton keyword -> its operands
    rules: dict[tuple[str, str], Transition] = {}
    tape: dict[int, str] = {}
    # The line of each statement: singletons by Machine field name, rules
    # by (state, read symbol), tape statements by cell index.
    lines: dict = {}

    for lineno, raw in enumerate(_lines(text), start=1):
        tok = _NAME_RE.findall(raw.split("#", 1)[0])
        if not tok:
            continue
        kw = tok[0]
        if kw in _SINGLETONS:
            if kw in declared:
                raise MachineFormatError(lineno, f"duplicate '{kw}' line")
            declared[kw] = tok[1:]
            lines["initial_state" if kw == "init" else kw] = lineno
        if kw == "flavor":
            if len(tok) != 2 or tok[1] not in FLAVORS:
                raise MachineFormatError(
                    lineno, "expected 'flavor computation' or 'flavor mechanization'"
                )
        elif kw == "states":
            if len(tok) < 2:
                raise MachineFormatError(lineno, "expected at least one state name")
        elif kw == "symbols":
            if len(tok) < 3 or tok[1] != "blank":
                raise MachineFormatError(
                    lineno, "expected 'symbols blank <name> [<name> ...]'"
                )
        elif kw == "init":
            if len(tok) != 2:
                raise MachineFormatError(lineno, "expected 'init <state>'")
        elif kw == "rule":
            # rule <state> <read> -> <state> <write> L|S|R
            if len(tok) != 7 or tok[3] != "->" or tok[6] not in _MOVE_LETTERS:
                raise MachineFormatError(
                    lineno, "expected 'rule <state> <read> -> <state> <write> L|S|R'"
                )
            key = (tok[1], tok[2])
            if key in rules:
                first = lines[key]
                raise MachineFormatError(
                    lineno,
                    f"duplicate rule for ({tok[1]}, {tok[2]}); first on line {first}",
                )
            rules[key] = (tok[4], tok[5], _MOVE_LETTERS[tok[6]])
            lines[key] = lineno
        elif kw == "tape":
            if len(tok) != 3:
                raise MachineFormatError(lineno, "expected 'tape <cell-index> <symbol>'")
            idx = MachineFormatError._integer(lineno, "cell index", tok[1])
            if idx is None:
                raise MachineFormatError(
                    lineno, f"cell index must be an integer, got {tok[1]!r}"
                )
            if idx < 1:
                raise MachineFormatError(lineno, "cell index must be >= 1")
            if idx in tape:
                raise MachineFormatError(lineno, f"cell {idx} set twice")
            tape[idx] = tok[2]
            lines[idx] = lineno
        else:
            raise MachineFormatError(lineno, f"unknown keyword {kw!r}")

    for kw in _SINGLETONS:
        if kw not in declared:
            raise MachineFormatError(0, f"missing '{kw}' line")
    flavor, states, symbols, init = (declared[kw] for kw in _SINGLETONS)
    try:
        machine = Machine(
            flavor=flavor[0],
            states=states,
            symbols=symbols[1:],
            blank=symbols[1],
            transitions=rules,
            initial_state=init[0],
        )
    except _FieldError as exc:
        raise MachineFormatError(lines[exc.field], str(exc)) from exc
    for idx, sym in tape.items():
        if sym not in machine._tables.code:
            raise MachineFormatError(
                lines[idx], f"tape cell {idx} holds undeclared symbol {sym!r}"
            )
    return MachineFile(machine=machine, tape=tape)


def serialize_machine(machine: Machine, tape: Mapping[int, str] | None = None) -> str:
    """Canonical ".aem" text: declarations with the blank as the first
    symbol, rules in that declaration order of (state, symbol), then tape
    cells in index order.  A cell parse_machine would refuse raises ValueError."""
    tables, tape = machine._tables, tape or {}
    _check_cells(tape, tables.code)
    lines = [
        f"flavor {machine.flavor}",
        "states " + " ".join(machine.states),
        "symbols blank " + " ".join(tables.symbols),
        f"init {machine.initial_state}",
    ]
    for entry in tables.table:  # slot order: by state, then by symbol code
        if entry is not None:
            q, s, w, move = tables.rules[entry[3]]
            q2 = tables.state_of(entry[0])
            lines.append(f"rule {q} {s} -> {q2} {w} {_LETTER_OF_MOVE[move]}")
    for idx in sorted(tape):
        lines.append(f"tape {idx} {tape[idx]}")
    return "\n".join(lines) + "\n"


# Unary incrementer: skip right over 1s, append one 1, halt.
INCREMENTER = MachineFile(
    machine=Machine(
        flavor=COMPUTATION,
        states=("q_scan", "q_done"),
        symbols=("e", "1"),
        blank="e",
        transitions={
            ("q_scan", "1"): ("q_scan", "1", MOVE_RIGHT),
            ("q_scan", "e"): ("q_done", "1", MOVE_STAY),
        },
        initial_state="q_scan",
    ),
    tape={1: "1", 2: "1", 3: "1"},
)
