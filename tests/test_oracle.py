"""mechx against the benchmark's oracle, on inputs from the benchmark's
generators.

``perfbench/oracle.py`` answers every command independently of mechx: its
own readers, fixed-point logarithms, decimal conversion and a reference
tape interpreter.  Here Hypothesis draws the generators' seeds, ``cli.main``
runs in process, and the oracle's checks judge (exit code, stdout, stderr)
as the benchmark judges a child process.  ``perfbench/selfcheck.py`` lifts
the interpreter's int-to-str limit, so it runs in a subprocess only.
"""

import contextlib
import io
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechx import cli
from mechx.capacity import _EXACT_BITS, count_configurations
from mechx.specfile import parse_platform

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SEEDS = st.integers(0, 2**32 - 1)
# (CLI flags, the oracle's name for the mode)
MODES = [((), "both"), (("--log-space",), "log_space"), (("--exact",), "exact")]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


def call(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, as bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue().encode(), err.getvalue().encode()


def agree(check, argv):
    code, out, err = call(argv)
    assert check(code, out, err, "") is None, argv


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_compute_and_compare_agree_with_the_oracle(bench, workdir, seed):
    oracle, gen = bench
    rng = random.Random(seed)
    docs = []
    for side in ("left", "right"):
        text = "\n".join(gen.random_document(rng)[0]) + "\n"
        docs.append((write(workdir / f"{side}.mechx", text), oracle.parse_doc(text)))
    (path, doc), (other, other_doc) = docs
    # Text output writes a line feed in a platform or processor name as
    # the two characters \n, while the oracle expects the name as it is;
    # JSON carries the name unchanged, so only text output is skipped.
    names = [d.name + (d.processor[0] if d.processor else "") for d in (doc, other_doc)]
    text_ok = "\n" not in "".join(names)
    for flags, mode in MODES:
        for as_json in (False, True) if text_ok else (True,):
            for mech in (False, True):
                argv = ["compute", path, *flags]
                argv += ["--json"] * as_json + ["--mechanical-only"] * mech
                agree(oracle.expect_compute(doc, mode, as_json, mech), argv)
    if text_ok:
        agree(oracle.expect_compare(doc, other_doc), ["compare", path, other])


def test_exact_json_past_the_exact_bits_agrees_with_the_oracle(bench, workdir):
    oracle, gen = bench
    # The smallest file of a bigcount pool whose counts are past _EXACT_BITS,
    # so mechx reads them off its logarithm and renders them from factors.
    files = gen.bigcount(5).files.values()
    sized = [(oracle.parse_doc(t).count(mechanical_only=True).log2, t) for t in files]
    _, text = min(s for s in sized if s[0] > _EXACT_BITS)
    path = write(workdir / "big.mechx", text)
    doc = oracle.parse_doc(text)
    for mech in (False, True):
        argv = ["compute", path, "--exact", "--json"] + ["--mechanical-only"] * mech
        agree(oracle.expect_compute(doc, "exact", True, mech), argv)
    c = count_configurations(parse_platform(text).platform)
    assert c.decimal() == oracle.to_decimal(doc.count().exact())
    assert "exact" not in vars(c)


@given(SEEDS, st.sampled_from([1, 10, 1000, 20_000]), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_random_machines_agree_with_the_reference_interpreter(
    bench, workdir, seed, budget, traced, strict
):
    oracle, gen = bench
    text = gen.random_machine(random.Random(seed))
    path = write(workdir / "random.aem", text)
    argv = ["aem-run", path, "--max-steps", budget]
    argv += ["--trace"] * traced + ["--strict-halt"] * strict
    agree(oracle.expect_aem(text, budget, traced, strict), argv)


@given(SEEDS, st.sampled_from([100_000, 20_000, 1000, 1]), st.booleans())
@settings(max_examples=15, deadline=None)
def test_counters_agree_with_the_reference_interpreter(bench, workdir, seed, budget, traced):
    # Counters never halt and repeat their blocks: the macro steps' case.
    oracle, gen = bench
    rng = random.Random(seed)
    base = rng.choice((2, 3))
    text = gen.counter_machine(base, [rng.randrange(base) for _ in range(rng.randint(0, 6))])
    path = write(workdir / "counter.aem", text)
    argv = ["aem-run", path, "--max-steps", budget] + ["--trace"] * traced
    agree(oracle.expect_aem(text, budget, traced, False), argv)


def test_benchmark_selfcheck_passes():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selfcheck.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout.splitlines()[-1:]) == (0, ["selfcheck: 0 problems"]), (
        proc.stdout[-2000:] + proc.stderr[-2000:]
    )
