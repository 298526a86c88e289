"""Command-line interface.

    mechx compute @nao
    mechx compare @bellagio @cat
    mechx dataset-list
    mechx plot --figure 3 --out-csv fig3.csv --out-svg fig3.svg
    mechx validate myrobot.mechx
    mechx aem-run incrementer.aem --max-steps 1000 --trace

Platform arguments are either paths to .mechx files or "@name"
references into the bundled dataset.  Results go to standard output,
errors to standard error.  Exit codes: 0 success, 1 usage error,
2 parse/validation error, 3 budget exhausted (aem-run --strict-halt).
"""

from __future__ import annotations

import gc
import math
import os
import sys
from types import SimpleNamespace

from . import DatasetCorrupt, _lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_lines(data[: exc.start].decode("utf-8")))
        raise ValueError(
            f"cannot read {path!r}: line {line}: "
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        ) from exc
    return text


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc}") from exc


def _guarded(write) -> None:
    """Call ``write``, which writes to stdout, then flush.  If the reader has
    gone (say, `| head`), the first failed write ends it quietly, and stdout
    points at the null device so the flush at exit cannot fail again."""
    try:
        write()
        sys.stdout.flush()
    except BrokenPipeError:
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())


def _emit(lines, payload: dict | None = None) -> int:
    """Write ``lines``, or a ``payload`` as the line
    ``json.dumps(payload, sort_keys=True)`` gives, to stdout in 64 KiB
    pieces: an exact count can run to a million digits, and a single write
    would encode a second copy of all of them at once.  The JSON line is
    written part by part, never joined, and without importing ``json``."""
    if payload is None:
        parts = ["\n".join(lines)]
    else:
        # Strings are escaped by the C function json.dumps itself calls, so
        # the bytes are json's.  The commands' values are str, int, finite
        # float and None only; ints and floats print as their repr, as in
        # json.
        from _json import encode_basestring_ascii as quote

        parts = []
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, str):
                value = quote(value)
            elif value is None:
                value = "null"
            else:
                value = repr(value)
            parts += (", ", quote(key), ": ", value)
        parts[:1] = ["{"]
        parts.append("}")

    def write():
        for text in parts:
            for i in range(0, len(text), 1 << 16):
                sys.stdout.write(text[i : i + (1 << 16)])
        sys.stdout.write("\n")

    _guarded(write)
    return EXIT_OK


def _one_line(name: str) -> str:
    # A name in text output, with a line feed written as its .mechx escape.
    return name.replace("\n", "\\n")


def _load_document(ref: str):
    from . import specfile

    if ref.startswith("@"):
        try:
            return specfile.dataset_lookup(ref[1:])
        except KeyError as exc:
            raise specfile.SpecFileError(0, exc.args[0]) from exc
    return specfile.parse_platform(_read_text(ref))


def cmd_compute(args) -> int:
    from .capacity import (
        EXACT_DIGITS_LIMIT,
        CountMode,
        analyze,
        computational_capacity,
        count_configurations,
    )

    platform = _load_document(args.platform).platform
    mode = (
        CountMode.EXACT if args.exact else CountMode.LOG_SPACE if args.log_space else CountMode.BOTH
    )
    if args.mechanical_only:
        # Non-mechanical groups stay unresolved, so a non-integral range
        # on one of them cannot stop the count that is printed.
        mech = count_configurations(platform, mechanical_only=True, mode=mode)
        counts = [("mechanical", mech)]
        processor = platform.processor
        computational = None if processor is None else computational_capacity(processor)
    else:
        report = analyze(platform, mode=mode)
        counts = [("all", report.count_all), ("mechanical", report.count_mechanical)]
        computational = report.computational
    if mode is CountMode.EXACT:
        # The digit count comes from the count's logarithm, so a count
        # too large to form is refused before any product is built.
        for _, c in counts:
            if c.digit_count > EXACT_DIGITS_LIMIT:
                raise ValueError(
                    f"exact count has {c.digit_count} digits, "
                    f"above the limit of {EXACT_DIGITS_LIMIT}"
                )
    rendered: dict = {}  # id(count) -> decimal string; a shared count renders once

    payload = {"platform": platform.name, "kind": platform.kind, "mode": mode.value}
    dof = sum(g.multiplicity for g in platform.groups)
    lines = [
        f"platform: {_one_line(platform.name)}",
        f"kind: {platform.kind}",
        f"degrees of freedom: {dof} ({len(platform.groups)} groups)",
    ]
    for label, c in counts:
        bits = c.log2
        if args.json:
            payload[f"k_bits_{label}"] = bits
            payload[f"k_bits_{label}_rounded"] = round(bits)
            payload[f"log10_c_{label}"] = c.log10
            payload[f"c_digits_{label}"] = c.digit_count
            if mode is CountMode.EXACT:
                if id(c) not in rendered:
                    rendered[id(c)] = c.decimal()
                payload[f"c_exact_{label}"] = rendered[id(c)]
        else:
            lines += [
                f"C({label}) = {c.sci()} ({c.digit_count} digits)",
                f"K({label}) = {round(bits)} bits (rounded)",
                f"K({label}) = {bits!r} bits",
            ]
    if computational is not None:
        p, cap = platform.processor, computational
        payload["transistors"] = p.transistors
        payload["computational_bits"] = cap.bits
        payload["computational_config_digits"] = cap.config_digits
        name = _one_line(p.name) or "(unnamed)"
        lines += [
            f"processor: {name}, {p.transistors} transistors",
            f"computational capacity = {cap.bits!r} bits "
            f"({cap.config_digits} digits as a configuration count)",
        ]
    return _emit(lines, payload if args.json else None)


def cmd_compare(args) -> int:
    from .capacity import compare

    rep = compare(_load_document(args.left).platform, _load_document(args.right).platform)
    payload = {
        "left": rep.left,
        "right": rep.right,
        "k_bits_left": rep.count_left.log2,
        "k_bits_right": rep.count_right.log2,
        "bits_difference": rep.bits_difference,
        "log10_ratio": rep.log10_ratio,
        # JSON has no infinity: a right-hand count of 0 bits gives null.
        "bits_ratio": rep.bits_ratio if math.isfinite(rep.bits_ratio) else None,
        "larger": rep.larger,
    }
    lines = [
        f"left: {_one_line(rep.left)}, K(mechanical) = {rep.count_left.log2!r} bits",
        f"right: {_one_line(rep.right)}, K(mechanical) = {rep.count_right.log2!r} bits",
        f"difference (left - right) = {rep.bits_difference!r} bits",
        f"log10 configuration ratio = {rep.log10_ratio!r}",
        f"bits ratio = {rep.bits_ratio!r}",
        f"larger: {_one_line(rep.larger) or '(equal)'}",
    ]
    return _emit(lines, payload if args.json else None)


def cmd_dataset_list(args) -> int:
    from . import specfile

    return _emit(
        f"@{stem:24s} {doc.platform.kind:10s} {doc.platform.name}"
        for stem, doc in zip(specfile.DATASET_MANIFEST, specfile.load_dataset())
    )


def cmd_plot(args) -> int:
    from . import figures, specfile

    dataset = [doc.platform for doc in specfile.load_dataset()]
    figure_id = figures.FIGURE_IDS[args.figure - 1]
    diagnostics: list = []
    bundle = figures.build_figure(
        dataset,
        figure_id,
        width=args.width,
        height=args.height,
        diagnostics=diagnostics,
    )
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)
    _write_text(args.out_csv, bundle.csv)
    _write_text(args.out_svg, bundle.svg)
    npoints = len(bundle.points)
    return _emit([f"{figure_id}: {npoints} points -> {args.out_csv}, {args.out_svg}"])


def cmd_validate(args) -> int:
    from . import specfile

    doc = specfile.parse_platform(_read_text(args.file))
    diags = specfile.validate(doc)
    ok = f"ok: {doc.platform.name!r} parsed with {len(diags)} warnings"
    return _emit([*map(str, diags), ok])


def cmd_aem_run(args) -> int:
    from . import aemachine

    mf = aemachine.parse_machine(_read_text(args.file))
    result = aemachine.run(
        mf.machine, mf.tape, max_steps=args.max_steps, trace=args.trace
    )
    _guarded(lambda: aemachine.format_run(result, sys.stdout))
    if args.strict_halt and result.outcome is aemachine.Outcome.BUDGET_EXHAUSTED:
        print(
            f"error: budget of {args.max_steps} steps exhausted before halting",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_OK


_REF = ".mechx file path or @dataset-name"

# The subcommands, described once.  Each has its handler, its help, its
# positionals as name -> help, and its options as flag -> the keywords
# of argparse's add_argument(), in the order argparse adds them: an
# option is a store_true flag or takes one value.  "exclusive" names the
# options of a mutually exclusive group.  build_parser() makes argparse
# from this table; _match() reads the argv it can settle alone.
_COMMANDS = {
    "compute": {
        "func": cmd_compute,
        "help": "capacity report for one platform",
        "positionals": {"platform": _REF},
        "options": {
            "--exact": {"action": "store_true", "help": "exact big-int arithmetic only"},
            "--log-space": {"action": "store_true", "help": "log-space arithmetic only"},
            "--mechanical-only": {"action": "store_true"},
            "--json": {"action": "store_true", "help": "one-line JSON output"},
        },
        "exclusive": ("--exact", "--log-space"),
    },
    "compare": {
        "func": cmd_compare,
        "help": "compare two platforms",
        "positionals": {"left": _REF, "right": _REF},
        "options": {"--json": {"action": "store_true"}},
    },
    "dataset-list": {
        "func": cmd_dataset_list,
        "help": "list bundled platforms",
        "positionals": {},
        "options": {},
    },
    "plot": {
        "func": cmd_plot,
        "help": "emit CSV and SVG for a canned figure",
        "positionals": {},
        "options": {
            "--figure": {"type": int, "choices": (1, 2, 3, 4, 5), "required": True},
            "--out-csv": {"required": True},
            "--out-svg": {"required": True},
            "--width": {"type": float, "default": 640},
            "--height": {"type": float, "default": 480},
        },
    },
    "validate": {
        "func": cmd_validate,
        "help": "lint a .mechx file",
        "positionals": {"file": None},
        "options": {},
    },
    "aem-run": {
        "func": cmd_aem_run,
        "help": "run a machine description",
        "positionals": {"file": ".aem machine file"},
        "options": {
            "--max-steps": {"type": int, "required": True},
            "--trace": {"action": "store_true"},
            "--strict-halt": {
                "action": "store_true",
                "help": "exit 3 if the step budget runs out before the machine halts",
            },
        },
    },
}


def _match(argv: list[str]) -> SimpleNamespace | None:
    """What argparse would make of ``argv``, when that is plain to see, and
    otherwise None.  It is plain when the command is named in full, each
    option is spelled in full and given once, each option's value follows
    it as a word not starting with "-" and passes the option's type and
    choices, every required option is given and no two exclusive ones
    are, and the positionals are as many as the command takes.
    Everything else is argparse's: help, abbreviations, ``--opt=value``,
    ``--``, "-" and negative numbers, repeats and every usage error."""
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    options = spec["options"]
    values = {"command": argv[0], "func": spec["func"]}
    for flag, kw in options.items():
        default = False if kw.get("action") == "store_true" else kw.get("default")
        values[flag[2:].replace("-", "_")] = default
    given, positionals = set(), []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        kw = options.get(word)
        if kw is None or word in given:
            return None
        given.add(word)
        if kw.get("action") == "store_true":
            value = True
        else:
            text = next(words, "-")
            if text.startswith("-"):
                return None
            try:
                value = kw.get("type", str)(text)
            except (TypeError, ValueError):
                return None
            if "choices" in kw and value not in kw["choices"]:
                return None
        values[word[2:].replace("-", "_")] = value
    if len(positionals) != len(spec["positionals"]):
        return None
    if len(given.intersection(spec.get("exclusive", ()))) > 1:
        return None
    if any(kw.get("required") and flag not in given for flag, kw in options.items()):
        return None
    values.update(zip(spec["positionals"], positionals))
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser of the ``_COMMANDS`` table: it answers help and
    usage errors, and every argv ``_match()`` leaves to it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse exits with code 2 on bad flags; route through our own
        # exception so usage problems map to exit code 1 instead.
        def error(self, message):
            raise _UsageError(message)

    parser = Parser(
        prog="mechx",
        description="Configuration counting and capacity comparison for "
        "mechanical platforms.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec["help"])
        for positional, text in spec["positionals"].items():
            p.add_argument(positional, help=text)
        exclusive = spec.get("exclusive", ())
        group = p.add_mutually_exclusive_group() if exclusive else None
        for flag, kw in spec["options"].items():
            (group if flag in exclusive else p).add_argument(flag, **kw)
        p.set_defaults(func=spec["func"])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv)
    if args is None:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except _UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        # argparse (CPython 3.11's at least) fills a positional with []
        # when "--" is given twice, as in "compare @nao -- --".
        missing = [
            name
            for name in _COMMANDS[args.command]["positionals"]
            if not isinstance(getattr(args, name), str)
        ]
        if missing:
            print(
                f"usage error: the following arguments are required: {', '.join(missing)}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        # Covers the readers' and the count's errors, each naming its line
        # where it has one, and unreadable files.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DatasetCorrupt as exc:
        print(f"error: bundled dataset corrupt: {exc}", file=sys.stderr)
        return EXIT_DATA


def run(argv: list[str] | None = None) -> int:
    """The ``mechx`` command: ``main``, then ``gc.freeze()``.

    A command is one process, and at exit the interpreter runs full
    collections over every object still alive, most of them made by
    start-up, which costs more than most commands.  Frozen objects are in no generation that a
    collection visits; everything else about exit (atexit handlers, the
    final flush and its exit code 120, freeing objects as their modules
    are cleared) is unchanged.  ``main`` alone never touches the
    collector."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
