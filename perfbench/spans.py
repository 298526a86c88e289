"""The traced pass: mechx run in-process, with spans around each layer.

Spans wrap mechx's public functions at every name a caller looks up (a
function imported into another module is wrapped there too) and are
removed again afterwards.  Each span records its name, start, end, parent
span and command id; spans stay in memory until the pass ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import re
import statistics
import sys
import traceback
import types
from time import perf_counter_ns

import oracle

LAYERS = ("cli", "specfile", "model", "capacity", "figures", "aemachine")

# Wrapped functions, by the module that defines them.  A ``keep`` function
# extracts what the metrics need from (args, kwargs, result) once the span
# has closed.


def _keep_analyze(args, kwargs, report):
    platform = args[0] if args else kwargs["platform"]
    return sum(g.multiplicity for g in platform.groups), report


def _keep_run(args, kwargs, result):
    traced = kwargs.get("trace", args[3] if len(args) > 3 else False)
    return bool(traced), result.final.step_count


SPANS = {
    "mechx.specfile.parse_platform": None,
    "mechx.specfile.validate": None,
    "mechx.specfile.load_dataset": None,
    "mechx.specfile.dataset_lookup": None,
    "mechx.model.resolve_levels": None,
    "mechx.model.span_is_integral": None,
    "mechx.capacity.analyze": _keep_analyze,
    "mechx.capacity.compare": None,
    "mechx.capacity.count_configurations": lambda args, kwargs, result: result,
    "mechx.capacity.computational_capacity": None,
    "mechx.capacity.digits_of_pow2": None,
    "mechx.figures.build_figure": None,
    "mechx.figures.trend_table": None,
    "mechx.figures.emit_csv": None,
    "mechx.figures.emit_svg_scatter": None,
    "mechx.aemachine.load_machine": None,
    "mechx.aemachine.parse_machine": None,
    "mechx.aemachine.run": _keep_run,
    "mechx.aemachine.format_run": None,
}
# Methods and properties of BigCount that render a count.
FORMAT_SPANS = ("digit_count", "leading", "sci")
_FORMAT_NAMES = tuple(f"capacity.BigCount.{a}" for a in FORMAT_SPANS)


class Recorder:
    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent, command, kept]
        self.stack: list = []
        self.command = -1

    def wrap(self, name: str, fn, keep=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if keep is not None:
                span[5] = keep(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def load_mechx(src: str):
    """Import the mechx under ``src`` and every layer module it has."""
    sys.path.insert(0, src)
    mods = []
    for layer in LAYERS:
        try:
            mods.append(importlib.import_module(f"mechx.{layer}"))
        except ModuleNotFoundError:
            continue
    if not mods or not mods[0].__file__.startswith(src):
        raise RuntimeError(f"mechx was not imported from {src}")
    return mods


def instrument(rec: Recorder, modules: list) -> list:
    """Wrap every binding of the SPANS functions; returns the undo list."""
    undo, wrappers = [], {}
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if not isinstance(val, types.FunctionType):
                continue
            key = f"{val.__module__}.{val.__qualname__}"
            if key not in SPANS:
                continue
            if id(val) not in wrappers:
                wrappers[id(val)] = rec.wrap(key[len("mechx.") :], val, SPANS[key])
            undo.append((mod, attr, val))
            setattr(mod, attr, wrappers[id(val)])
    capacity = sys.modules.get("mechx.capacity")
    big = getattr(capacity, "BigCount", None)
    for attr in FORMAT_SPANS if big is not None else ():
        orig = big.__dict__.get(attr)
        name = f"capacity.BigCount.{attr}"
        if isinstance(orig, property):
            new = property(rec.wrap(name, orig.fget))
        elif isinstance(orig, types.FunctionType):
            new = rec.wrap(name, orig)
        else:
            continue
        undo.append((big, attr, orig))
        setattr(big, attr, new)
    return undo


def restore(undo: list) -> None:
    for obj, attr, orig in reversed(undo):
        setattr(obj, attr, orig)


class _Sink(io.RawIOBase):
    """Where an in-process command's output goes.  Keeps everything, or
    with ``head_lines`` set only that many leading lines: the rest streams
    into a SHA-256, so a traced run's listing is never held in memory."""

    def __init__(self, head_lines=None):
        super().__init__()
        self.head, self.lines = bytearray(), head_lines
        self.rest = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        start = 0
        while self.lines and start < len(b):
            end = b.find(b"\n", start) + 1
            if end:
                self.lines -= 1
            else:
                end = len(b)
            self.head += b[start:end]
            start = end
        if self.lines is None:
            self.head += b[start:]
        else:
            self.rest.update(memoryview(b)[start:])
        return len(b)

    def value(self) -> bytes:
        if self.lines is None:
            return bytes(self.head)
        return oracle.Streamed(self.head, self.rest.hexdigest())


def call_main(main, argv, head_lines=None) -> tuple:
    """Run ``main(argv)`` as the interpreter would: (code, stdout, stderr).
    ``head_lines`` is passed to the stdout sink."""
    sinks = _Sink(head_lines), _Sink()
    out, err = (io.TextIOWrapper(s, encoding="utf-8", newline="\n", write_through=True) for s in sinks)
    saved = sys.stdout, sys.stderr, sys.get_int_max_str_digits()
    sys.stdout, sys.stderr = out, err
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        err.write(traceback.format_exc())
        code = 1
    finally:
        sys.stdout, sys.stderr = saved[0], saved[1]
        sys.set_int_max_str_digits(saved[2])
        out.flush()
        err.flush()
    return int(code or 0), sinks[0].value(), sinks[1].value()


# Per-layer metrics ----------------------------------------------------------


def _median(xs: list) -> float:
    return statistics.median(xs) if xs else 0.0


def _mean(xs: list) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _exact(count):
    """The exact integer a count holds, read without calling any property
    that might compute it."""
    return vars(count).get("exact")


def _printed(n: int, text: str) -> bool:
    """Whether n's decimal digits appear in ``text`` as the CLI prints an
    exact count: a quoted JSON string.  Only the last 24 digits are
    compared, so the test costs no big-number conversion."""
    if n < 10**24:
        return f'"{n}"' in text
    return re.search(r'\d%s"' % str(n % 10**24).zfill(24), text) is not None


class Metrics:
    """Accumulates per-layer figures one command at a time."""

    def __init__(self):
        self.durations: dict = {}  # span name -> [ns]
        self.cli_self: list = []
        self.format_ns: list = []
        self.exact_bits: list = []
        self.reports = self.useful = 0
        self.analyze_big: list = []
        self.nested = {"analyze.count": 0, "analyze.resolve": 0, "figure.count": 0}
        self.runs = {False: [0, 0], True: [0, 0]}  # traced -> [steps, ns]
        self.steps: list = []
        self.self_time_mismatches = 0
        self.layer_self: dict = {}  # layer -> self ns summed over commands

    def add_command(self, spans: list, base: int, out: bytes) -> None:
        """Fold in the spans of one command: ``spans[0]`` is its cli.main
        span and ``base`` that span's index in the recorder."""
        children: list = [[] for _ in spans]
        for k, s in enumerate(spans[1:], start=1):
            if not 0 <= s[3] - base < k:
                self.self_time_mismatches += 1
                return
            children[s[3] - base].append((s[1], s[2]))
        selfs = []
        for s, intervals in zip(spans, children):
            covered, reached = 0, s[1]
            for start, end in sorted(intervals):
                start, end = max(start, reached), min(end, s[2])
                if end > start:
                    covered += end - start
                    reached = end
            selfs.append(s[2] - s[1] - covered)
        # Holds only if every child lies inside its parent and siblings do
        # not overlap, which is what makes self times meaningful.
        if sum(selfs) != spans[0][2] - spans[0][1]:
            self.self_time_mismatches += 1
        self.cli_self.append(selfs[0])
        for s, ns in zip(spans, selfs):
            layer = s[0].split(".", 1)[0]
            self.layer_self[layer] = self.layer_self.get(layer, 0) + ns

        def inside(i: int, names: tuple) -> bool:
            p = spans[i][3]
            while p >= base:
                if spans[p - base][0] in names:
                    return True
                p = spans[p - base][3]
            return False

        fmt, counts, text = 0, [], None
        for i, (name, t0, t1, _, _, kept) in enumerate(spans):
            self.durations.setdefault(name, []).append(t1 - t0)
            if name in _FORMAT_NAMES and not inside(i, _FORMAT_NAMES):
                fmt += t1 - t0
            if name == "capacity.count_configurations":
                counts.append(kept)
                if inside(i, ("capacity.analyze",)):
                    self.nested["analyze.count"] += 1
                if inside(i, ("figures.build_figure",)):
                    self.nested["figure.count"] += 1
            elif name == "model.resolve_levels" and inside(i, ("capacity.analyze",)):
                self.nested["analyze.resolve"] += 1
            elif name == "capacity.analyze":
                dof, report = kept
                if dof >= 1000:
                    self.analyze_big.append(t1 - t0)
                pair = [report.count_all, report.count_mechanical]
                counts += pair
                exacts = [_exact(c) for c in pair if _exact(c) is not None]
                if exacts:
                    self.reports += 1
                    if text is None:
                        text = out.decode("utf-8", errors="replace")
                    self.useful += any(_printed(e, text) for e in exacts)
            elif name == "aemachine.run":
                traced, steps = kept
                self.runs[traced][0] += steps
                self.runs[traced][1] += t1 - t0
                self.steps.append(steps)
        for s in spans:
            s[5] = None  # let go of reports and exact integers
        if fmt:
            self.format_ns.append(fmt)
        if counts:
            seen = {id(c): c for c in counts}.values()
            self.exact_bits.append(sum((_exact(c) or 0).bit_length() for c in seen))

    def result(self, overhead_ratio: float) -> dict:
        d = self.durations

        def median(name: str, ns_per_unit: float) -> float:
            return _median(d.get(name, [])) / ns_per_unit

        def per(count: int, name: str) -> float:
            calls = len(d.get(name, []))
            return count / calls if calls else 0.0

        def steps_per_s(traced: bool) -> float:
            steps, ns = self.runs[traced]
            return steps / (ns / 1e9) if ns else 0.0

        return {
            "specfile.parse_platform_us": (median("specfile.parse_platform", 1e3), "us"),
            "specfile.validate_us": (median("specfile.validate", 1e3), "us"),
            "capacity.digits_of_pow2_us": (median("capacity.digits_of_pow2", 1e3), "us"),
            "capacity.analyze_us": (median("capacity.analyze", 1e3), "us"),
            "capacity.analyze_ms_big": (_mean(self.analyze_big) / 1e6, "ms"),
            "capacity.count_calls_per_analyze": (
                per(self.nested["analyze.count"], "capacity.analyze"), "calls"),
            "model.resolve_levels_calls_per_analyze": (
                per(self.nested["analyze.resolve"], "capacity.analyze"), "calls"),
            "capacity.format_ms": (_mean(self.format_ns) / 1e6, "ms"),
            "capacity.exact_bits_built": (_mean(self.exact_bits), "bits"),
            "capacity.exact_useful_ratio": (
                self.useful / self.reports if self.reports else 1.0, "ratio"),
            "cli.self_ms": (_mean(self.cli_self) / 1e6, "ms"),
            "figures.build_figure_ms": (median("figures.build_figure", 1e6), "ms"),
            "figures.trend_table_ms": (median("figures.trend_table", 1e6), "ms"),
            "figures.emit_svg_ms": (median("figures.emit_svg_scatter", 1e6), "ms"),
            "figures.count_calls": (
                per(self.nested["figure.count"], "figures.build_figure"), "calls"),
            "aemachine.run_steps_per_s": (steps_per_s(False), "1/s"),
            "aemachine.run_traced_steps_per_s": (steps_per_s(True), "1/s"),
            "aemachine.format_run_ms": (_mean(d.get("aemachine.format_run", [])) / 1e6, "ms"),
            "aemachine.steps": (_mean(self.steps), "steps"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
