import ast
import doctest
import inspect
import os
import pathlib
import subprocess
import sys
import typing

import pytest

import mechx
from mechx import aemachine, capacity, cli, figures, model, specfile


def test_package_imports_only_stdlib():
    """Every absolute import in the package names a standard-library module."""
    src = pathlib.Path(mechx.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so none may guard input.
    src = pathlib.Path(mechx.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_neither_typing_nor_threading():
    # Annotations are written "X | None" over collections.abc, and the
    # dataset lock comes from _thread, so no command loads either module.
    src = pathlib.Path(mechx.__file__).parent
    unused = {"typing", "threading"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and unused & {alias.name for alias in node.names}
        or isinstance(node, ast.ImportFrom) and node.module in unused
    ]
    assert found == []


def test_every_annotation_resolves():
    # Annotations are strings (from __future__ import annotations), so a
    # name missing from its module shows only when something reads them.
    failed = []
    for module in (mechx, model, capacity, specfile, aemachine, figures, cli):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            targets = [(name, obj)]
            if isinstance(obj, type):
                targets += [
                    (f"{name}.{attr}", vars(obj)[attr])
                    for attr in vars(obj)
                    if inspect.isfunction(vars(obj)[attr])
                ]
            for label, target in targets:
                if not (isinstance(target, type) or inspect.isfunction(target)):
                    continue
                try:
                    typing.get_type_hints(target)
                except Exception as exc:
                    failed.append(f"{module.__name__}.{label}: {exc!r}")
    assert failed == []


def test_cli_writes_stdout_only_through_its_guard_and_writer():
    # A reader that leaves early ends a command quietly only when the
    # command writes through cli._emit or cli._guarded.
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    bare_prints, writers = [], set()
    for statement in tree.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "print":
                files = [ast.unparse(k.value) for k in node.keywords if k.arg == "file"]
                if files != ["sys.stderr"]:
                    bare_prints.append(node.lineno)
            elif isinstance(node, ast.Attribute) and node.attr in ("write", "flush"):
                if ast.unparse(node.value) == "sys.stdout":
                    writers.add(getattr(statement, "name", None))
    assert bare_prints == []
    assert writers == {"_guarded", "_emit"}


def test_figures_spells_out_the_svg_text_element_once():
    # Every label of a figure goes through figures._text, which owns the
    # element, its attribute order, the font and the escaping.
    source = pathlib.Path(figures.__file__).read_text(encoding="utf-8")
    assert (source.count("<text"), source.count("font-family")) == (1, 1)


def _records(cls=mechx._Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("mechx."):
            yield sub
            yield from _records(sub)


def test_records_take_construction_and_value_semantics_from_the_base():
    # _Record alone builds, compares, prints and guards its instances, and
    # only _Record._trusted makes one without its checks.
    base = {
        "__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
        "__getattr__", "_values",
    }
    records = {cls.__name__: sorted(base & set(vars(cls))) for cls in _records()}
    assert {"BigCount", "RunResult", "MachineConfig"} <= set(records)
    assert {name: own for name, own in records.items() if own} == {}
    # No attribute hook slows every read: a field built on first read is a
    # descriptor on that field alone, and only where _build can build it.
    for cls in (mechx._Record, *_records()):
        assert not {"__getattr__", "__getattribute__"} & set(vars(cls)), cls
        deferred = {k for k, v in vars(cls).items() if isinstance(v, mechx._Deferred)}
        if cls._build is None:
            assert deferred == set(), cls
        else:
            assert deferred == set(vars(cls)["_deferred"]) <= set(cls._fields), cls
    assert {c.__name__ for c in _records() if c._build} == {"BigCount", "RunResult"}
    src = pathlib.Path(mechx.__file__).parent
    makers, cached = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and path.name != "__init__.py":
                if ast.unparse(node.func) in ("object.__new__", "cls.__new__"):
                    makers.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom):
                if any(alias.name == "cached_property" for alias in node.names):
                    cached.append(f"{path.name}:{node.lineno}")
    assert makers == [] and cached == []


PUBLIC_NAMES = [
    "ARTIFICIAL", "NATURAL", "NON_MECHANICAL_TAG", "Continuous", "DiscreteStates",
    "DofGroup", "NonIntegralSpan", "Platform", "ProcessorSpec", "mechanical_groups",
    "resolve_levels", "BigCount", "CapacityReport", "ComparisonReport",
    "ComputationalCapacity", "CountMode", "LOG10_2", "analyze", "compare",
    "computational_capacity", "count_configurations", "digits_of_pow2", "ilog10",
    "ndigits", "DatasetCorrupt", "Diagnostic",
    "DuplicateGroupLabel", "MissingPlatformName", "ParseError", "PlatformDocument",
    "SpecFileError", "dataset_lookup", "load_dataset", "parse_platform",
    "serialize_platform", "validate", "HALTED", "Machine", "MachineConfig",
    "MachineFile", "Outcome", "RunResult", "TraceStep",
    "parse_machine", "run", "serialize_machine", "step", "to_mechanization",
    "traces_isomorphic", "FigureBundle", "TrendPoint", "build_figure", "emit_csv",
    "emit_svg_scatter", "trend_table",
]


def _run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh ``python -S`` with this package on the path."""
    src = str(pathlib.Path(mechx.__file__).parent.parent)
    return subprocess.run(
        [sys.executable, "-S", *flags, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
        check=True,
    )


def test_all_lists_the_public_names_in_order():
    assert mechx.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_submodules_object(name):
    owners = [
        module
        for module in (model, capacity, specfile, aemachine, figures)
        if name in vars(module)
    ]
    assert owners
    assert all(getattr(mechx, name) is getattr(m, name) for m in owners)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from mechx import *", namespace)
    assert all(namespace[name] is getattr(mechx, name) for name in PUBLIC_NAMES)


def test_dir_lists_every_public_name():
    listed = dir(mechx)
    assert set(PUBLIC_NAMES) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'mechx' has no attribute 'nope'$"):
        getattr(mechx, "nope")


def test_import_loads_submodules_on_first_use():
    out = _run_python(
        "import sys, mechx\n"
        "print(sorted(m for m in sys.modules if m.startswith('mechx.')))\n"
        "print(mechx.capacity.ndigits(12345))\n"
        "print(sorted(m for m in sys.modules if m.startswith('mechx.')))\n"
    ).stdout.splitlines()
    assert out == ["[]", "5", "['mechx.capacity', 'mechx.model']"]


@pytest.mark.parametrize(
    "reader, siblings", [("aemachine", []), ("specfile", ["mechx.model"])]
)
def test_readers_share_rules_through_the_package_only(reader, siblings):
    # The line error and the integer rule both readers use live in
    # mechx/__init__.py, so neither reader imports the other.
    out = _run_python(
        f"import sys, mechx.{reader}\n"
        f"print(sorted(m for m in sys.modules if m.startswith('mechx.') and m != 'mechx.{reader}'))\n"
    ).stdout
    assert out == f"{siblings}\n"


def test_cli_leaves_figures_and_tape_machine_unloaded(tmp_path):
    # A handler's "from . import figures" gets no line in -X importtime, so
    # the probe reads sys.modules after each command.  plot and aem-run are
    # its positive controls.
    (tmp_path / "m.aem").write_text(
        aemachine.serialize_machine(aemachine.INCREMENTER.machine, aemachine.INCREMENTER.tape)
    )
    proc = _run_python(
        "import contextlib, io, os, sys\n"
        "from mechx import cli\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "probe = {'mechx.capacity', 'mechx.figures', 'mechx.aemachine', 'csv'}\n"
        "def loaded():\n"
        "    print(sorted(probe & set(sys.modules)))\n"
        "def main(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        "    loaded()\n"
        "loaded()\n"
        "main('compute', '@nao')\n"
        "main('plot', '--figure', '1', '--out-csv', 'f.csv', '--out-svg', 'f.svg')\n"
        "main('aem-run', 'm.aem', '--max-steps', '10')\n"
    )
    assert proc.stdout.splitlines() == [
        "[]",
        "['mechx.capacity']",
        "['csv', 'mechx.capacity', 'mechx.figures']",
        "['csv', 'mechx.aemachine', 'mechx.capacity', 'mechx.figures']",
    ]


# argparse, and the gettext and locale it brings, serve help and usage
# errors only; typing and threading serve no command.
HEAVY = (
    "argparse", "dataclasses", "gettext", "inspect", "decimal", "json", "locale",
    "typing", "threading",
)


def test_everyday_commands_leave_heavy_modules_unloaded(tmp_path):
    (tmp_path / "p.mechx").write_text('platform "p"\ngroup "g" count 2 states 3\n')
    (tmp_path / "m.aem").write_text(
        aemachine.serialize_machine(aemachine.INCREMENTER.machine, aemachine.INCREMENTER.tape)
    )
    proc = _run_python(
        "import contextlib, io, os, sys\n"
        "from mechx import cli\n"
        f"os.chdir({str(tmp_path)!r})\n"
        f"heavy = {HEAVY!r}\n"
        "def main(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        "    print(sorted(set(heavy) & set(sys.modules)))\n"
        "main('compute', '@nao')\n"
        "main('compare', '@nao', '@cat')\n"
        "main('validate', 'p.mechx')\n"
        "main('dataset-list')\n"
        "main('aem-run', 'm.aem', '--max-steps', '10', '--trace')\n"
        "main('plot', '--figure', '3', '--out-csv', 'f.csv', '--out-svg', 'f.svg')\n"
        "main('compute', '@nao', '--json')\n"
        "main('compute', '@nao', '--exact', '--json')\n",
        "-X",
        "importtime",
    )
    # --json writes its line without the json package; only --exact
    # renders digits, in decimal.
    assert proc.stdout.splitlines() == ["[]"] * 7 + ["['decimal']"]
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "json" not in imported
    assert "typing" not in imported and "threading" not in imported
    assert "dataclasses" not in imported and "inspect" not in imported


def test_aem_run_loads_only_the_tape_machine_and_help_loads_argparse(tmp_path):
    (tmp_path / "m.aem").write_text(
        aemachine.serialize_machine(aemachine.INCREMENTER.machine, aemachine.INCREMENTER.tape)
    )
    proc = _run_python(
        "import contextlib, io, os, sys\n"
        "from mechx import cli\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "def main(*argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        "    print(out.getvalue().splitlines()[0])\n"
        "    print(sorted(m for m in sys.modules if m.startswith('mechx.') or m in HEAVY))\n"
        f"HEAVY = {HEAVY!r}\n"
        "main('aem-run', 'm.aem', '--max-steps', '10', '--trace')\n"
        "main('--help')\n",
        "-X",
        "importtime",
    )
    assert proc.stdout.splitlines() == [
        "outcome halted",
        "['mechx.aemachine', 'mechx.cli']",
        "usage: mechx [-h] command ...",
        "['argparse', 'gettext', 'locale', 'mechx.aemachine', 'mechx.cli']",
    ]
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "argparse" in imported


def test_compute_of_a_bundled_platform_parses_one_file():
    out = _run_python(
        "from mechx import cli, specfile\n"
        "texts = []\n"
        "parse = specfile.parse_platform\n"
        "specfile.parse_platform = lambda text: texts.append(text) or parse(text)\n"
        "cli.main(['compute', '@nao'])\n"
        "print(len(texts), sorted(specfile._documents))\n"
    ).stdout.splitlines()
    assert out[0] == "platform: NAO"
    assert out[-1] == "1 ['nao']"


@pytest.mark.parametrize("module", [mechx, aemachine], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
