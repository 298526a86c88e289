"""mechx benchmark: one closed-loop client driving ``python -m mechx.cli``.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a mechx checkout.  The run generates its inputs from
the seed, computes the oracle's answers, then starts one command at a time
(the next only after the last has exited) until ``--seconds`` have passed
and at least MIN_COMMANDS commands have run, finishing the current pass
over the pool of commands.
Every command's exit code, stdout and stderr are checked.

``--trace 0`` reports the end-to-end metrics from child processes;
``--trace 1`` reports per-layer metrics from probe processes and an
in-process pass with spans.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import gen
import oracle
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")

MIN_COMMANDS = 100  # so the 90th percentile has ten samples beyond it
SETUPS = 5  # setup_s is the median of this many complete set-ups
PROBES = 5
NEIGHBOURS = 5  # a command is timed against the median of 2 * 5 + 1 yardsticks
CHILD_TIMEOUT_S = 60.0
HARD_STOP_S = 120.0  # end the run after the pass that crosses this
STARTUP = [sys.executable, "-c", "pass"]  # the bare interpreter start-up
# The yardstick timed after every command: start-up without the site
# module, whose .pth hooks may import whole packages (on the two-vCPU host
# the benchmark was written on, 65 of STARTUP's 80 ms).  It costs a fifth
# as much, varies less, and still slows down when the host does.
YARDSTICK = [sys.executable, "-S", "-c", "pass"]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8")
    return env


class Children:
    """The benchmark's child processes, run one at a time by spawner.py,
    which reports each child's own rusage from wait4."""

    def __init__(self):
        self.helper = subprocess.Popen(
            [sys.executable, "-S", os.path.join(ROOT, "perfbench", "spawner.py")],
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )

    def run(self, argv: list, cwd: str) -> tuple:
        """Run one child to completion.

        Returns (code, stdout, stderr, wall_s, cpu_s, peak_rss_mb)."""
        out_path, err_path = os.path.join(cwd, ".stdout"), os.path.join(cwd, ".stderr")
        self.helper.stdin.write(json.dumps([argv, cwd, out_path, err_path, CHILD_TIMEOUT_S]) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited")
        code, wall, cpu, rss_kb = json.loads(reply)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return code, stdout, stderr, wall, cpu, rss_kb / 1024.0

    def close(self) -> None:
        """Kill the spawner and any child it is running, and wait for them."""
        try:
            os.killpg(self.helper.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.helper.wait()
        self.helper.stdin.close()
        self.helper.stdout.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:  # a killed child is reaped by init
            try:
                os.killpg(self.helper.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


WARMUP = gen.Command(("dataset-list",), "dataset-list", ("dataset-list",))


def mechx_argv(cmd: gen.Command) -> list:
    return [sys.executable, "-m", "mechx.cli", *cmd.argv]


# Set-up -----------------------------------------------------------------

_MODES = {  # generator mode -> (CLI mode, JSON, mechanical only)
    "text": ("both", False, False),
    "json": ("both", True, False),
    "mechanical-only": ("both", False, True),
    "log-space": ("log_space", False, False),
    "exact-json": ("exact", True, False),
}


def build_check(cmd: gen.Command, files: dict, bundled: dict) -> oracle.Check:
    spec = cmd.spec
    op = spec[0]

    def doc(ref: str):
        return bundled[ref] if ref in bundled else oracle.parse_doc(files[ref])

    if op == "compute":
        mode, as_json, mech = _MODES[spec[2]]
        return oracle.expect_compute(doc(spec[1]), mode, as_json, mech)
    if op == "compare":
        return oracle.expect_compare(doc(spec[1]), doc(spec[2]))
    if op == "dataset-list":
        return oracle.expect_dataset_list(bundled)
    if op == "plot":
        return oracle.expect_plot(bundled, *spec[1:])
    if op == "validate-ok":
        return oracle.expect_validate_ok(files[spec[1]])
    if op == "validate-error":
        return oracle.expect_validate_error(spec[2], spec[3])
    if op == "missing-file":
        return oracle.expect_missing_file(spec[1])
    if op == "aem":
        return oracle.expect_aem(files[spec[1]], *spec[2:])
    raise ValueError(f"no oracle for {spec!r}")


def verdict(check: oracle.Check, code: int, out: bytes, err: bytes, workdir: str):
    """The check's reason for failing the command, or None.  Output too
    malformed for the check to read fails the command, not the run."""
    try:
        return check(code, out, err, workdir)
    except Exception as exc:  # noqa: BLE001 - any crash in a check is a failed command
        return f"output could not be checked: {exc!r}"


class Setup:
    """Inputs written to a fresh directory, and one warm-up command: what
    setup_s times.  ``add_checks`` then computes the oracle's answers."""

    def __init__(self, workload: str, seed: int, children: Children):
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
        names = sorted(f[: -len(".mechx")] for f in os.listdir(os.path.join(SRC, "mechx", "data"))
                       if f.endswith(".mechx"))
        self.pool = gen.make_pool(workload, seed, names)
        digest = hashlib.sha256()
        for path, text in self.pool.files.items():
            with open(os.path.join(self.dir, path), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            digest.update(f"{path}\0{text}\0".encode())
        for cmd in self.pool.once + [c for b in self.pool.blocks for c in b]:
            digest.update(repr(cmd).encode())
        self.digest = digest.hexdigest()
        # The same warm-up for every workload and seed.
        self.warmup = children.run(mechx_argv(WARMUP), self.dir)[:3]

    def add_checks(self) -> None:
        """The oracle's answers.  They are the benchmark's own work, the
        same whatever mechx does, and on ``tape`` their pure-Python
        reference runs made set-up time swing by a third between passes,
        so they are computed once per run and kept out of setup_s."""
        bundled = oracle.read_bundled(ROOT)
        self.checks = [[build_check(c, self.pool.files, bundled) for c in b] for b in self.pool.blocks]
        self.once_checks = [build_check(c, self.pool.files, bundled) for c in self.pool.once]
        self.warmup_failure = verdict(oracle.expect_dataset_list(bundled), *self.warmup, self.dir)

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# Closed loop --------------------------------------------------------------


def schedule(setup: "Setup", seconds: float, min_commands: int = 0):
    """Yield (command, check) pairs: the pool's once-only commands, then
    whole passes over its blocks until the time and command floors are
    met.  Stopping only between passes keeps the mix of commands the same
    however fast the machine is."""
    t0 = time.perf_counter()
    yield from zip(setup.pool.once, setup.once_checks)
    done = len(setup.pool.once)
    while True:
        for block, checks in zip(setup.pool.blocks, setup.checks):
            yield from zip(block, checks)
            done += len(block)
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and done >= min_commands) or elapsed >= HARD_STOP_S:
            return


def _local_reference(values: list, i: int) -> float:
    """Median of the yardsticks within NEIGHBOURS places of the i-th."""
    return statistics.median(values[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1])


def end_to_end(setup: Setup, seconds: float, children: Children) -> tuple:
    """The timed loop.  Each command is followed by a bare interpreter
    start-up (YARDSTICK), and times are gated as multiples of the
    yardsticks around it: on a shared machine the speed of the whole host
    drifts by tens of percent within seconds, and the ratio to yardsticks
    timed in the same few seconds cancels most of that."""
    runs, probes = [], []
    for cmd, check in schedule(setup, seconds, MIN_COMMANDS):
        code, out, err, wall, cpu, rss = children.run(mechx_argv(cmd), setup.dir)
        runs.append((cmd.kind, wall, cpu, rss, verdict(check, code, out, err, setup.dir)))
        probes.append(children.run(YARDSTICK, setup.dir)[3:5])
    p_wall, p_cpu = [p[0] for p in probes], [p[1] for p in probes]
    # (kind, wall, cpu, rss, failure, wall / yardstick wall, cpu / yardstick cpu)
    samples = [
        (*r, r[1] / _local_reference(p_wall, i), r[2] / _local_reference(p_cpu, i))
        for i, r in enumerate(runs)
    ]
    rel = [s[5] for s in samples]
    metrics = {
        "cmd_x_p50": (statistics.median(rel), "x"),
        "cmd_x_p90": (statistics.quantiles(rel, n=10)[8], "x"),
        "cmd_x_mean": (statistics.fmean(rel), "x"),
        "cmd_cpu_x_p50": (statistics.median(s[6] for s in samples), "x"),
        "peak_rss_mb": (max(s[3] for s in samples), "MB"),
        "ok_ratio": (sum(s[4] is None for s in samples) / len(samples), "ratio"),
    }
    walls = [s[1] for s in samples]
    raw = {
        "cmds_per_s": len(walls) / sum(walls),
        "cmd_ms_p50": statistics.median(walls) * 1e3,
        "cmd_ms_p90": statistics.quantiles(walls, n=10)[8] * 1e3,
        "cmd_cpu_ms_p50": statistics.median(s[2] for s in samples) * 1e3,
        "yardstick_ms_p50": statistics.median(p_wall) * 1e3,
    }
    print("raw times (not gated): " + ", ".join(f"{k} {v:.2f}" for k, v in raw.items()))
    return samples, metrics


# Traced pass ----------------------------------------------------------------

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mechx.cli; "
    "print(time.perf_counter() - t)"
)
_DATASET_PROBE = (
    "import time, mechx.specfile as s; t = time.perf_counter(); s.load_dataset(); "
    "print(time.perf_counter() - t)"
)


def probes(cwd: str, children: Children) -> dict:
    """Medians over fresh interpreters: bare startup, import of the CLI
    module, and the first (uncached) parse of the bundled dataset."""
    startup, imports, dataset = [], [], []
    for _ in range(PROBES):
        startup.append(children.run(STARTUP, cwd)[3])
        for code, sink in ((_IMPORT_PROBE, imports), (_DATASET_PROBE, dataset)):
            rc, out, err, *_ = children.run([sys.executable, "-c", code], cwd)
            if rc != 0:
                raise RuntimeError(f"probe failed: {err.decode(errors='replace')}")
            sink.append(float(out))
    return {
        "python.startup_ms": (statistics.median(startup) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(imports) * 1e3, "ms"),
        "specfile.load_dataset_cold_ms": (statistics.median(dataset) * 1e3, "ms"),
    }


def traced(setup: Setup, seconds: float, children: Children, spans_path: str) -> tuple:
    """Run the pool in-process for ``seconds``, each command once without
    spans and once with them.  Returns (samples, metrics, ok)."""
    metrics = probes(setup.dir, children)
    modules = spans.load_mechx(SRC)
    main = sys.modules["mechx.cli"].main
    rec, layer = spans.Recorder(), spans.Metrics()
    root = rec.wrap("cli.main", main)
    samples, plain_ns, traced_ns = [], 0, 0
    cwd = os.getcwd()
    os.chdir(setup.dir)
    try:
        spans.call_main(main, setup.pool.blocks[0][0].argv)  # warm caches
        for cid, (cmd, check) in enumerate(schedule(setup, seconds)):
            # A traced tape run's listing is hashed as it streams, not kept.
            head = oracle.AEM_HEADER_LINES if cmd.spec[0] == "aem" and cmd.spec[3] else None
            # The two runs of a command go back to back, each first in
            # turn, so neither the host's drift nor warm caches favour one.
            for with_spans in (cid % 2 == 0, cid % 2 == 1):
                if not with_spans:
                    t0 = time.perf_counter_ns()
                    spans.call_main(main, cmd.argv, head)
                    plain_ns += time.perf_counter_ns() - t0
                    continue
                undo = spans.instrument(rec, modules)
                try:
                    rec.command, base = cid, len(rec.spans)
                    t0 = time.perf_counter_ns()
                    code, out, err = spans.call_main(root, cmd.argv, head)
                    traced_ns += time.perf_counter_ns() - t0
                finally:
                    spans.restore(undo)
                layer.add_command(rec.spans[base:], base, out)
                samples.append((cmd.kind, 0.0, 0.0, 0.0, verdict(check, code, out, err, setup.dir), 0.0, 0.0))
    finally:
        os.chdir(cwd)
    metrics.update(layer.result(traced_ns / plain_ns))
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in rec.spans:
            fh.write(json.dumps(s[:5]) + "\n")
    print(f"spans: {len(rec.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    for name, ns in sorted(layer.layer_self.items()):
        print(f"self time  {name:10s} {ns / len(samples) / 1e6:10.3f} ms per command")
    return samples, metrics, layer.self_time_mismatches == 0


# Report -----------------------------------------------------------------


def report(samples: list, metrics: dict) -> None:
    by_kind: dict = {}
    for kind, wall, _, _, failure, _, _ in samples:
        entry = by_kind.setdefault(kind, [0, 0, [], None])
        entry[0] += 1
        entry[1] += failure is not None
        entry[2].append(wall)
        if failure is not None and entry[3] is None:
            entry[3] = failure
    print(f"{'kind':28s} {'n':>5s} {'failed':>6s} {'p50 ms':>9s}")
    for kind, (n, failed, walls, first) in sorted(by_kind.items()):
        print(f"{kind:28s} {n:5d} {failed:6d} {statistics.median(walls) * 1e3:9.1f}")
        if first:
            print(f"    first failure: {first[:300]}")
    failed = sum(s[4] is not None for s in samples)
    print(f"commands: {len(samples)}, failed: {failed}, fail_ratio: {failed / len(samples):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mechx", "cli.py")):
        print(f"error: no mechx sources under {SRC}", file=sys.stderr)
        return 2
    # Turn a termination request into SystemExit, so the running child is
    # killed and reaped and the work directories are removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.set_int_max_str_digits(0)
    os.makedirs(WORK, exist_ok=True)
    children = Children()
    setups, times = [], []
    try:
        for _ in range(1 if args.trace else SETUPS):
            t0 = time.perf_counter()
            setups.append(Setup(args.workload, args.seed, children))
            times.append(time.perf_counter() - t0)
        setup = setups[-1]
        setup.add_checks()
        deterministic = len({s.digest for s in setups}) == 1
        if not deterministic:
            print("error: the same seed generated different inputs", file=sys.stderr)
        if setup.warmup_failure:
            print(f"warm-up command failed: {setup.warmup_failure}")
        if args.trace:
            os.makedirs(OUT, exist_ok=True)
            spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
            samples, metrics, consistent = traced(setup, args.seconds, children, spans_path)
            if not consistent:
                print("error: span self times do not add up to cli.main", file=sys.stderr)
        else:
            samples, metrics = end_to_end(setup, args.seconds, children)
            metrics["setup_s"] = (statistics.median(times), "s")
            consistent = True
    finally:
        children.close()
        for s in setups:
            s.remove()
    report(samples, metrics)
    result = {
        "correct": deterministic and consistent,
        "attempted": len(samples),
        "failed": sum(s[4] is not None for s in samples),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
