"""Shared generators for randomized tests, and the benchmark's modules.

Everything here is deterministic under a caller-supplied random.Random;
tests seed their own instances so failures reproduce.
"""

from __future__ import annotations

import importlib
import pathlib
import random
import string
import sys

import pytest

from mechx.aemachine import COMPUTATION, Machine

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def bench():
    """The benchmark's oracle and generator modules, imported from
    perfbench/ without writing bytecode there; sys.path and sys.modules
    are left as found."""
    names = ("oracle", "gen")
    saved = {name: sys.modules.pop(name, None) for name in names}
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        oracle, gen = map(importlib.import_module, names)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return oracle, gen


# Three-group fixture used across the parser and acceptance tests: one
# binary gripper, two 3600-position servos, one indicator LED that does
# not count as mechanical output.
SIMPLE_ROBOT = """\
platform "simple-robot"
kind artificial
group "gripper" count 1 states 2
group "servo" count 2 range 0 360 resolution 0.1
group "led" count 1 states 2 tag "non-mechanical"
"""


def random_machine(rng: random.Random) -> Machine:
    """A small computation machine: up to 6 states, up to 4 symbols with
    the blank at any index, transition table about 80 percent full."""
    n_states = rng.randint(1, 6)
    n_symbols = rng.randint(2, 4)
    states = tuple(f"q{i}" for i in range(n_states))
    symbols = tuple(f"s{i}" for i in range(n_symbols))
    transitions = {}
    for q in states:
        for s in symbols:
            if rng.random() < 0.8:
                transitions[(q, s)] = (
                    rng.choice(states),
                    rng.choice(symbols),
                    rng.choice((-1, 0, 1)),
                )
    return Machine(
        flavor=COMPUTATION,
        states=states,
        symbols=symbols,
        blank=rng.choice(symbols),
        transitions=transitions,
        initial_state=states[0],
    )


def random_tape(rng: random.Random, machine: Machine) -> dict[int, str]:
    """Sparse tape with at most 16 non-blank cells in 1..20."""
    non_blank = [s for s in machine.symbols if s != machine.blank]
    cells = {}
    for idx in rng.sample(range(1, 21), rng.randint(0, 16)):
        cells[idx] = rng.choice(non_blank)
    return cells


def machine_maps(rng: random.Random, machine: Machine):
    """A random pair of relabeling bijections (primed names)."""
    shuffled_syms = list(machine.symbols)
    rng.shuffle(shuffled_syms)
    symbol_map = {s: f"p_{t}" for s, t in zip(machine.symbols, shuffled_syms)}
    shuffled_states = list(machine.states)
    rng.shuffle(shuffled_states)
    state_map = {q: f"p_{t}" for q, t in zip(machine.states, shuffled_states)}
    return symbol_map, state_map


_LABEL_CHARS = string.ascii_lowercase + string.digits + " -_/()."
_NASTY = ['a"b', "a\\b", "tab\there", "new\nline", "  spaced  "]

# Binary-exact resolutions so span = levels * resolution holds exactly in
# floats and strict parsing never trips on the generated documents.
_EXACT_RESOLUTIONS = (0.25, 0.5, 1.0, 2.0, 4.0)


def _label(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return rng.choice(_NASTY)
    return "".join(
        rng.choice(_LABEL_CHARS) for _ in range(rng.randint(1, 12))
    ).strip() or "x"


def random_document(rng: random.Random) -> str:
    """A valid random .mechx document (strict-parse clean)."""
    lines = [f'platform "{_esc(_label(rng))}"']
    lines.append(f"kind {rng.choice(('artificial', 'natural'))}")
    if rng.random() < 0.5:
        lines.append(f"year {rng.randint(1900, 2030)}")
    if rng.random() < 0.5:
        t = rng.randint(1, 10**10)
        if rng.random() < 0.5:
            lines.append(f'processor "{_esc(_label(rng))}" transistors {t}')
        else:
            lines.append(f"processor transistors {t}")
    for _ in range(rng.randint(0, 3)):
        lines.append(f'note "{_esc(_label(rng))}"')
    labels = set()
    for _ in range(rng.randint(0, 6)):
        label = _label(rng)
        while label in labels:
            label += "x"
        labels.add(label)
        count = rng.randint(1, 30)
        if rng.random() < 0.5:
            levels = f"states {rng.randint(1, 5000)}"
        else:
            n = rng.randint(1, 4000)
            res = rng.choice(_EXACT_RESOLUTIONS)
            lo = rng.randint(-500, 500)
            levels = f"range {lo} {lo + n * res} resolution {res}"
        tags = ""
        if rng.random() < 0.2:
            tags = ' tag "non-mechanical"'
        if rng.random() < 0.1:
            tags += ' tag "estimated"'
        lines.append(f'group "{_esc(label)}" count {count} {levels}{tags}')
    if rng.random() < 0.3:
        lines.insert(rng.randint(0, len(lines)), "# comment line")
        lines.append("")
    return "\n".join(lines) + "\n"


def _esc(s: str) -> str:
    return (
        s.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )


def random_group_list(rng: random.Random, max_c: int = 10**6):
    """Groups whose total configuration count stays at or below max_c,
    small enough for brute-force enumeration."""
    from mechx.model import Continuous, DiscreteStates, DofGroup, resolve_levels

    while True:
        groups = []
        for i in range(rng.randint(0, 3)):
            mult = rng.randint(1, 3)
            if rng.random() < 0.7:
                spec = DiscreteStates(rng.randint(1, 12))
            else:
                levels = rng.randint(1, 12)
                res = rng.choice(_EXACT_RESOLUTIONS)
                lo = rng.randint(-10, 10)
                spec = Continuous(lo, lo + levels * res, res)
            groups.append(DofGroup(f"g{i}", mult, spec))
        c = 1
        for g in groups:
            c *= resolve_levels(g) ** g.multiplicity
        if c <= max_c:
            return groups


def brute_force_count(groups) -> int:
    """Independent oracle: enumerate the Cartesian product one tuple at
    a time instead of multiplying."""
    import itertools

    from mechx.model import resolve_levels

    ranges = []
    for g in groups:
        levels = resolve_levels(g)
        ranges.extend([range(levels)] * g.multiplicity)
    return sum(1 for _ in itertools.product(*ranges))
