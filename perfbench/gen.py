"""Seeded inputs for the benchmark's workloads.

A workload is a pool of blocks of commands.  Each block follows a fixed
design that is the same for every seed: how many commands of each kind,
which size stratum each input is drawn from, which runs are traced.  The
seed draws the instance: the inputs themselves, where in its stratum each
size falls, and the order of the commands.  Sizes sit near the midpoints
of equal strata of their distribution, so every run does about the same
amount of work whatever the seed; on a shared machine that is what keeps
run-to-run spread down to the machine's own noise.  The same seed always
gives byte-identical files and commands.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass, field

import oracle

WORKLOADS = ("catalog", "bigcount", "tape")
# Instances of the design per pool.  With fewer, a few inputs set a run's
# median: over ten seeds, its spread on bigcount was up to twice as wide
# with two, and on tape twice as wide with one.
BLOCKS = 3


@dataclass(frozen=True)
class Command:
    argv: tuple  # arguments after "python -m mechx.cli"
    kind: str  # a label for the report, e.g. "compute-json"
    spec: tuple  # what the oracle needs to build the expected result


@dataclass
class Pool:
    files: dict = field(default_factory=dict)  # relative path -> text
    blocks: list = field(default_factory=list)  # lists of Command, run in turn
    once: list = field(default_factory=list)  # Commands run once, first


def _grid(rng: random.Random, n: int) -> list:
    """n points in (0, 1), ascending: the midpoints of n equal strata, each
    moved at random by up to a tenth of a stratum."""
    return [(i + 0.5 + 0.2 * (rng.random() - 0.5)) / n for i in range(n)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _esc(s: str) -> str:
    return (
        s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
    )


# catalog ----------------------------------------------------------------

_LABEL_CHARS = string.ascii_lowercase + string.digits + " -_/()."
_NASTY = ['a"b', "a\\b", "tab\there", "new\nline", "  spaced  "]
_EXACT_RESOLUTIONS = (0.25, 0.5, 1.0, 2.0, 4.0)
MALFORMED = ("unterminated", "duplicate", "non-integral", "missing-file", "non-finite")


def _label(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return rng.choice(_NASTY)
    text = "".join(rng.choice(_LABEL_CHARS) for _ in range(rng.randint(1, 12)))
    return text.strip() or "x"


def random_document(rng: random.Random, min_groups: int = 0) -> tuple:
    """A small valid .mechx document, as (lines, group labels)."""
    lines = [f'platform "{_esc(_label(rng))}"', f"kind {rng.choice(('artificial', 'natural'))}"]
    if rng.random() < 0.5:
        lines.append(f"year {rng.randint(1900, 2030)}")
    if rng.random() < 0.5:
        t = rng.randint(1, 10**10)
        name = f'"{_esc(_label(rng))}" ' if rng.random() < 0.5 else ""
        lines.append(f"processor {name}transistors {t}")
    for _ in range(rng.randint(0, 3)):
        lines.append(f'note "{_esc(_label(rng))}"')
    labels: list = []
    for _ in range(rng.randint(min_groups, 6)):
        label = _label(rng)
        while label in labels:
            label += "x"
        labels.append(label)
        if rng.random() < 0.5:
            levels = f"states {rng.randint(1, 5000)}"
        else:
            n, res, lo = rng.randint(1, 4000), rng.choice(_EXACT_RESOLUTIONS), rng.randint(-500, 500)
            levels = f"range {lo} {lo + n * res} resolution {res}"
        tags = ' tag "non-mechanical"' if rng.random() < 0.2 else ""
        if rng.random() < 0.1:
            tags += ' tag "estimated"'
        lines.append(f'group "{_esc(label)}" count {rng.randint(1, 30)} {levels}{tags}')
    if rng.random() < 0.3:
        lines.insert(rng.randint(0, len(lines)), "# comment line")
    return lines, labels


def _malformed(rng: random.Random, kind: str) -> tuple:
    """A document with one seeded defect, and the spec its check needs."""
    lines, labels = random_document(rng, min_groups=1)
    extra = "extra"
    while extra in labels:
        extra += "x"
    if kind == "unterminated":
        at = rng.randint(0, len(lines))
        lines.insert(at, 'note "unterminated note')
        return lines, ("validate-error", at + 1, "unterminated string literal")
    if kind == "duplicate":
        label = rng.choice(labels)
        lines.append(f'group "{_esc(label)}" count 1 states 2')
        return lines, ("validate-error", len(lines), f"duplicate group label {label!r}")
    if kind == "non-integral":
        lines.append(f'group "{extra}" count 1 range 0 {rng.randint(1, 50)}.05 resolution 0.1')
        return lines, ("validate-ok",)
    if kind == "non-finite":
        lines.append(f'group "{extra}" count 1 range 0 1e{rng.randint(309, 999)} resolution 1')
        return lines, ("validate-error", len(lines), None)
    raise ValueError(kind)


_CATALOG_COMPUTE = {  # mode -> compute flags
    "text": (),
    "json": ("--json",),
    "mechanical-only": ("--mechanical-only",),
    "log-space": ("--log-space",),
}


def catalog(seed: int, names: list) -> Pool:
    """Everyday use of the bundled dataset plus linting of small files."""
    rng = random.Random(f"catalog:{seed}")
    pool = Pool()
    name_cycle = names[:]
    rng.shuffle(name_cycle)
    next_name = iter(name_cycle * (1 + 10 * BLOCKS // len(names)))
    figures = [1, 2, 3, 4, 5]
    rng.shuffle(figures)
    next_figure = iter(figures * (1 + 3 * BLOCKS // 5))
    for b in range(BLOCKS):
        cmds = []
        for mode, flags in list(_CATALOG_COMPUTE.items()) * 2:
            name = next(next_name)
            cmds.append(Command(("compute", f"@{name}", *flags), f"compute-{mode}", ("compute", name, mode)))
        for _ in range(4):
            left, right = rng.sample(names, 2)
            cmds.append(Command(("compare", f"@{left}", f"@{right}"), "compare", ("compare", left, right)))
        cmds.append(Command(("dataset-list",), "dataset-list", ("dataset-list",)))
        for i in range(3):
            fig = next(next_figure)
            out = (f"fig{fig}-{b}-{i}.csv", f"fig{fig}-{b}-{i}.svg")
            cmds.append(Command(("plot", "--figure", str(fig), "--out-csv", out[0], "--out-svg", out[1]),
                                "plot", ("plot", fig, *out)))
        for i in range(5):
            path = f"doc-{b}-{i}.mechx"
            lines, _ = random_document(rng)
            pool.files[path] = "\n".join(lines) + "\n"
            cmds.append(Command(("validate", path), "validate", ("validate-ok", path)))
        for kind in MALFORMED:
            path = f"bad-{b}-{kind}.mechx"
            if kind == "missing-file":
                cmds.append(Command(("validate", path), f"validate-{kind}", ("missing-file", path)))
                continue
            lines, spec = _malformed(rng, kind)
            pool.files[path] = "\n".join(lines) + "\n"
            cmds.append(Command(("validate", path), f"validate-{kind}", (spec[0], path, *spec[1:])))
        rng.shuffle(cmds)
        pool.blocks.append(cmds)
    return pool


# bigcount ---------------------------------------------------------------

EXACT_DIGITS_LIMIT = 100_000


def bigcount(seed: int) -> Pool:
    """Files of 1-4 groups whose configuration counts run to 10^5+ digits."""
    rng = random.Random(f"bigcount:{seed}")
    pool = Pool()
    for b in range(BLOCKS):
        # The design of block b: which file each group goes to, and which
        # multiplicity and level strata it draws from.
        design = random.Random(f"bigcount-design:{b}")
        sizes = [1, 2, 3, 4]
        design.shuffle(sizes)
        m_strata, r_strata = list(range(10)), list(range(10))
        design.shuffle(m_strata)
        design.shuffle(r_strata)
        non_mech = set(design.sample(range(10), 3))
        mults, levels = _grid(rng, 10), _grid(rng, 10)
        paths, digits = [], []
        k = 0
        for j, size in enumerate(sizes):
            path = f"big-{b}-{j}.mechx"
            lines = [f'platform "big-{b}-{j}"', "kind artificial"]
            log10 = 0.0
            for g in range(size):
                m = round(_log_uniform(mults[m_strata[k]], 1e3, 1e5))
                r = round(_log_uniform(levels[r_strata[k]], 2, 3600))
                if rng.random() < 0.5:
                    spec = f"states {r}"
                else:
                    res = rng.choice(_EXACT_RESOLUTIONS)
                    lo = rng.randint(-100, 100)
                    spec = f"range {lo} {lo + r * res:g} resolution {res}"
                tag = ' tag "non-mechanical"' if k in non_mech else ""
                lines.append(f'group "g{g}" count {m} {spec}{tag}')
                log10 += m * math.log10(r)
                k += 1
            pool.files[path] = "\n".join(lines) + "\n"
            paths.append(path)
            digits.append(log10)
        cmds = []
        for j, path in enumerate(paths):
            for mode, flags in (("text", ()), ("log-space", ("--log-space",)),
                                ("mechanical-only", ("--mechanical-only",))):
                cmds.append(Command(("compute", path, *flags), f"compute-{mode}", ("compute", path, mode)))
            other = paths[(j + 1) % len(paths)]
            cmds.append(Command(("compare", path, other), "compare", ("compare", path, other)))
            if digits[j] < EXACT_DIGITS_LIMIT - 1:
                cmds.append(Command(("compute", path, "--exact", "--json"), "compute-exact-json",
                                    ("compute", path, "exact-json")))
        rng.shuffle(cmds)
        pool.blocks.append(cmds)
    return pool


# tape -------------------------------------------------------------------


def counter_machine(base: int, digits: list) -> str:
    """A never-halting little-endian counter: marker "m" in cell 1, digits
    from cell 2, blank "b".  "inc" carries rightwards, "ret" walks back to
    the marker."""
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
    return "\n".join(lines) + "\n"


def random_machine(rng: random.Random) -> str:
    """Like the test suite's random machines, but the blank may be any
    symbol; the file lists it first, as the format requires."""
    states = [f"q{i}" for i in range(rng.randint(1, 6))]
    symbols = [f"s{i}" for i in range(rng.randint(2, 4))]
    blank = rng.choice(symbols)
    lines = [
        "flavor computation",
        "states " + " ".join(states),
        "symbols blank " + " ".join([blank] + [s for s in symbols if s != blank]),
        f"init {states[0]}",
    ]
    for q in states:
        for s in symbols:
            if rng.random() < 0.8:
                lines.append(
                    f"rule {q} {s} -> {rng.choice(states)} {rng.choice(symbols)} {rng.choice('LSR')}"
                )
    non_blank = [s for s in symbols if s != blank]
    for idx in sorted(rng.sample(range(1, 21), rng.randint(0, 16))):
        lines.append(f"tape {idx} {rng.choice(non_blank)}")
    return "\n".join(lines) + "\n"


def random_machine_of(rng: random.Random, budget: int, halts_quickly: bool) -> str:
    """A random machine that halts within QUICK_STEPS steps, or one that is
    still running when its budget runs out."""
    limit = QUICK_STEPS + 1 if halts_quickly else budget
    while True:
        text = random_machine(rng)
        run = oracle.reference_run(oracle.parse_aem(text), limit, traced=False)
        if halts_quickly:
            fits = run.outcome == "halted" and run.steps <= QUICK_STEPS
        else:
            fits = run.outcome == "budget_exhausted"
        if fits:
            return text


QUICK_STEPS = 200
CEILING_STEPS = 10**6
# One block, by budget stratum from the smallest: the machine, and whether
# the run is traced.  A third of the runs are traced; counters and long
# random machines run to their budget, quick random machines do not.  The
# layout puts the median and the 90th percentile in the middle of groups
# of runs that cost the same whatever the seed: seven of the twelve runs
# cost little beyond start-up, and the two dearest, a traced counter at
# about 2.4e5 steps and an untraced one at about 7.5e5, cost about the same.
TAPE_SLOTS = (
    ("long", False), ("counter", False), ("quick", True), ("quick", False),
    ("counter", True), ("quick", False), ("counter", False), ("quick", True),
    ("long", False), ("counter", True), ("quick", False), ("counter", False),
)


def tape(seed: int) -> Pool:
    """Tape machines run for log-uniform step budgets, a third traced."""
    rng = random.Random(f"tape:{seed}")
    # The largest traced run is the same on every seed, so the peak memory
    # of a child does not depend on which budgets were drawn.
    pool = Pool(files={"tape-ceiling.aem": counter_machine(2, [])})
    pool.once.append(_aem_command("tape-ceiling.aem", CEILING_STEPS, "binary", True, False))
    for b in range(BLOCKS):
        budgets = [round(_log_uniform(u, 1e3, 1e6)) for u in _grid(rng, len(TAPE_SLOTS))]
        strict = set(rng.sample(range(len(TAPE_SLOTS)), 3))
        cmds = []
        for i, ((machine, traced), budget) in enumerate(zip(TAPE_SLOTS, budgets)):
            path = f"tape-{b}-{i}.aem"
            if machine == "counter":
                base = rng.choice((2, 3))
                digits = [rng.randrange(base) for _ in range(rng.randint(0, 6))]
                pool.files[path] = counter_machine(base, digits)
                kind = "binary" if base == 2 else "ternary"
            else:
                pool.files[path] = random_machine_of(rng, budget, machine == "quick")
                kind = f"random-{machine}"
            cmds.append(_aem_command(path, budget, kind, traced, i in strict))
        rng.shuffle(cmds)
        pool.blocks.append(cmds)
    return pool


def _aem_command(path: str, budget: int, kind: str, traced: bool, strict: bool) -> Command:
    argv = ["aem-run", path, "--max-steps", str(budget)]
    if traced:
        argv.append("--trace")
    if strict:
        argv.append("--strict-halt")
    label = f"aem-{kind}" + ("-trace" if traced else "") + ("-strict" if strict else "")
    return Command(tuple(argv), label, ("aem", path, budget, traced, strict))


def make_pool(workload: str, seed: int, names: list) -> Pool:
    if workload == "catalog":
        return catalog(seed, names)
    if workload == "bigcount":
        return bigcount(seed)
    if workload == "tape":
        return tape(seed)
    raise ValueError(f"unknown workload {workload!r}")
