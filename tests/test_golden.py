"""Byte-for-byte goldens for the command line.

Each file under ``tests/golden/`` records, for one or more commands, the
exit code, stdout and stderr, plus the bytes of any file the command
writes (the CSV and SVG of ``plot``).  A file is a run of sections:

    == <byte count> <command> | <stream>
    <exactly that many bytes>

followed by one newline.  The goldens are the contract for the output
format: a failure here means output changed.  They are never rewritten
to make a change pass.
"""

from __future__ import annotations

import contextlib
import functools
import io
import shutil
import sys
import warnings
from pathlib import Path

import pytest

from mechx import cli
from mechx.specfile import DATASET_MANIFEST

GOLDEN = Path(__file__).parent / "golden"

COMPUTE_FLAGS = (
    (),
    ("--json",),
    ("--log-space",),
    ("--log-space", "--json"),
    ("--exact", "--json"),
    ("--mechanical-only",),
)

COMPARE_PAIRS = (
    ("nao", "roomba"),
    ("roomba", "nao"),
    ("nao", "nao"),
    ("bellagio", "cat"),
    ("bellagio-hi-res", "bellagio"),
    ("c-elegans-anatomy", "c-elegans-agar"),
    ("drosophila", "kr60ha"),
    ("human-mocap", "asimo"),
    ("keepon", "kismet"),
    ("pr2", "human-breath"),
    ("human-wa-eval", "nao"),
)

PLOT_FILES = ("fig.csv", "fig.svg")

# Help and usage errors, which argparse answers.
USAGE_ARGVS = (
    ("--help",),
    ("compute", "--help"),
    ("aem-run", "--help"),
    (),
    ("frobnicate",),
    ("compute",),
    ("compute", "@nao", "--exact", "--log-space"),
    ("plot", "--figure", "9", "--out-csv", "a", "--out-svg", "b"),
    ("aem-run", "f", "--max-steps", "x"),
)


def _cases():
    """(golden file, argv, files the command writes) for every case."""
    for stem in DATASET_MANIFEST:
        for flags in COMPUTE_FLAGS:
            yield f"compute/{stem}", ("compute", f"@{stem}", *flags), ()
    for left, right in COMPARE_PAIRS:
        for flags in ((), ("--json",)):
            yield "compare", ("compare", f"@{left}", f"@{right}", *flags), ()
    yield "dataset-list", ("dataset-list",), ()
    for n in range(1, 6):
        argv = ("plot", "--figure", str(n), "--out-csv", "fig.csv", "--out-svg", "fig.svg")
        yield f"plot/fig{n}", argv, PLOT_FILES
    yield "aem-run", ("aem-run", "incrementer.aem", "--max-steps", "1000", "--trace"), ()
    yield "aem-run", (
        "aem-run", "incrementer.aem", "--max-steps", "2", "--trace", "--strict-halt"
    ), ()
    yield "errors", ("compute", "missing.mechx"), ()
    yield "errors", ("validate", "missing.mechx"), ()
    yield "errors", ("aem-run", "missing.aem", "--max-steps", "5"), ()
    yield "errors", ("compute", "@no-such-platform"), ()
    for argv in USAGE_ARGVS:
        yield "usage", argv, ()


CASES = tuple(_cases())


def run_case(argv, files=()) -> dict[str, bytes]:
    """Run one command in the current directory and return its sections.

    Any warning fails the run: on the command line it would reach
    stderr, which the goldens pin.
    """
    out, err = io.StringIO(), io.StringIO()
    limit = sys.get_int_max_str_digits()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
    finally:
        sys.set_int_max_str_digits(limit)
    cmd = " ".join(argv)
    sections = {
        f"{cmd} | exit": str(code).encode(),
        f"{cmd} | stdout": out.getvalue().encode("utf-8"),
        f"{cmd} | stderr": err.getvalue().encode("utf-8"),
    }
    for name in files:
        sections[f"{cmd} | {name}"] = Path(name).read_bytes()
    return sections


@functools.lru_cache(maxsize=None)
def read_golden(name: str) -> dict[str, bytes]:
    data = (GOLDEN / f"{name}.golden").read_bytes()
    sections, pos = {}, 0
    while pos < len(data):
        eol = data.index(b"\n", pos)
        marker, size, key = data[pos:eol].decode("utf-8").split(" ", 2)
        assert marker == "==", f"{name}: malformed section header at byte {pos}"
        start = eol + 1
        end = start + int(size)
        assert data[end : end + 1] == b"\n", f"{name}: section {key!r} overruns"
        sections[key] = data[start:end]
        pos = end + 1
    return sections


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copy(GOLDEN / "incrementer.aem", tmp_path / "incrementer.aem")
    monkeypatch.chdir(tmp_path)
    # argparse wraps help to the terminal width it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


@pytest.mark.parametrize(
    "name,argv,files", CASES, ids=[" ".join(argv) or "(no arguments)" for _, argv, _ in CASES]
)
def test_golden(workdir, name, argv, files):
    got = run_case(argv, files)
    want = read_golden(name)
    for key, value in got.items():
        assert key in want, f"no golden section {key!r}"
        assert value.decode("utf-8") == want[key].decode("utf-8"), key


def test_every_golden_section_is_a_case():
    expected: dict[str, set] = {}
    for name, argv, files in CASES:
        cmd = " ".join(argv)
        streams = ("exit", "stdout", "stderr", *files)
        expected.setdefault(name, set()).update(f"{cmd} | {s}" for s in streams)
    on_disk = {
        str(p.relative_to(GOLDEN).with_suffix(""))
        for p in GOLDEN.rglob("*.golden")
    }
    assert on_disk == set(expected)
    for name, keys in expected.items():
        assert set(read_golden(name)) == keys, name
