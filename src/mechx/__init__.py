"""mechx: configuration-counting toolkit for mechanical platforms.

Measures how expressive a machine (or animal model) is by counting the
distinct static configurations its degrees of freedom can reach, and
compares that against the configuration count of its onboard computer.
Ships a platform-description file format with a bundled dataset, an
inverted-machine simulator, and figure emitters.

    >>> import mechx
    >>> doc = mechx.dataset_lookup("nao")
    >>> report = mechx.analyze(doc.platform)
    >>> report.bits_all_rounded
    238
"""

import importlib

__version__ = "0.1.0"

# Integer literals in .mechx and .aem files have at most this many digits:
# the interpreter's default limit on converting a string to an int.
MAX_INT_DIGITS = 4300


# What the .mechx and .aem readers share sits here, beside MAX_INT_DIGITS,
# as does the base of the frozen value classes: every submodule can import
# it without importing another.
class _LineError(ValueError):
    """Base of the description-file errors; carries a 1-based line number
    (0 when the problem is not tied to a specific line)."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}" if line else message)

    @classmethod
    def _integer(cls, line: int, what: str, text: str):
        """The value of ``text`` if it is an integer literal, ASCII digits
        after an optional sign, and otherwise None.  Raises ``cls`` for a
        literal of more than MAX_INT_DIGITS digits."""
        # int() alone would also take underscores and other scripts' digits.
        digits = text[1:] if text[:1] in ("+", "-") else text
        if not (digits.isascii() and digits.isdigit()):
            return None
        if len(digits) > MAX_INT_DIGITS:
            raise cls(
                line, f"{what} has {len(digits)} digits, above the limit of {MAX_INT_DIGITS}"
            )
        return int(text)


# Blanks separate tokens in both readers; every other character, NBSP and
# form feed included, belongs to a word or a string.
_BLANKS = " \t\r"


def _lines(text: str) -> list[str]:
    """The lines of a description file, split at LF, CRLF and CR only,
    as text-mode open() reads them; form feeds, U+2028 and the other
    breaks str.splitlines() knows stay inside their line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


class _Factory:
    """A record field default made afresh for each instance, as in
    ``tape: dict = _Factory(dict)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


class _Deferred:
    """A field ``_trusted`` may leave out: its first read keeps ``_build(name)``
    in the instance dict, which later reads find first.  The class lacks it."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __get__(self, record, cls):
        if record is None:
            raise AttributeError(f"type object {cls.__name__!r} has no attribute {self.name!r}")
        return record.__dict__.setdefault(self.name, record._build(self.name))


class _Record:
    """Base of the package's frozen value classes.

    A subclass lists its fields as annotations, with optional defaults,
    and may check them in ``__post_init__``.  Instances compare, hash and
    print by their fields as frozen dataclasses do, and refuse assignment
    and deletion with ``dataclasses.FrozenInstanceError``.  The fields
    are read once per class from ``__annotations__``, so no code is
    generated and ``dataclasses`` is imported only to raise that error.
    Instances keep a ``__dict__``, which pickling and ``copy`` use.

    ``_trusted(**fields)`` makes an instance of values the package made,
    with no copies and no checks.  A field it leaves out, one of the
    subclass's ``_deferred``, is built on first read by its ``_build(name)``
    and kept; equality, hashing and repr build it too.  Defaults live in
    ``_defaults``, off the class, so a missing field never reads as its
    class default.  repr shows each field by ``_field_repr(name)``.
    """

    _fields: tuple = ()
    _defaults: dict = {}
    _build = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(vars(cls).get("__annotations__", ()))
        cls._fields = cls.__match_args__ = cls._fields + own
        defaults = {f: vars(cls)[f] for f in own if f in vars(cls)}
        cls._defaults = {**cls._defaults, **defaults}
        for name in defaults:
            delattr(cls, name)
        for name in vars(cls).get("_deferred", ()):  # each built by _build
            setattr(cls, name, _Deferred(name))

    @classmethod
    def _trusted(cls, **fields):
        record = object.__new__(cls)
        record.__dict__.update(fields)
        return record

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for name in fields[len(args) :]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
                values[name] = value.make() if isinstance(value, _Factory) else value
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in values else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def _field_repr(self, name: str) -> str:
        return repr(getattr(self, name))

    def __repr__(self):
        fields = ", ".join(f"{f}={self._field_repr(f)}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _require_int(record: _Record, field: str) -> None:
    # Counts, years, heads and step numbers must be exact ints: a float,
    # NaN included, would pass the range checks and then fail deep inside
    # a count or a tape lookup, and a bool would be written as "True".  An
    # int of more than MAX_INT_DIGITS digits could not be written as text.
    value = getattr(record, field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(
            f"{type(record).__name__}.{field} must be an int, got {value!r}"
        )
    # Below 2**(3 * MAX_INT_DIGITS) an int has at most MAX_INT_DIGITS digits.
    if value.bit_length() > 3 * MAX_INT_DIGITS and abs(value) >= 10**MAX_INT_DIGITS:
        raise ValueError(
            f"{type(record).__name__}.{field} has more than {MAX_INT_DIGITS} digits"
        )


# The public names, by the submodule that defines them.  Importing the
# package imports none of these submodules: each is imported when one of
# its names, or the submodule itself, is first looked up here.
_EXPORTS = {
    "model": (
        "ARTIFICIAL", "NATURAL", "NON_MECHANICAL_TAG", "Continuous",
        "DiscreteStates", "DofGroup", "NonIntegralSpan", "Platform",
        "ProcessorSpec", "mechanical_groups", "resolve_levels",
    ),
    "capacity": (
        "BigCount", "CapacityReport", "ComparisonReport", "ComputationalCapacity",
        "CountMode", "LOG10_2", "analyze", "compare", "computational_capacity",
        "count_configurations", "digits_of_pow2", "ilog10", "ndigits",
    ),
    "specfile": (
        "DatasetCorrupt", "Diagnostic", "DuplicateGroupLabel",
        "MissingPlatformName", "ParseError", "PlatformDocument", "Severity",
        "SpecFileError", "dataset_lookup", "load_dataset", "parse_platform",
        "serialize_platform", "validate",
    ),
    "aemachine": (
        "HALTED", "Machine", "MachineConfig", "MachineFile", "Outcome",
        "RunResult", "TraceStep", "parse_machine", "run", "serialize_machine",
        "step", "to_mechanization", "traces_isomorphic",
    ),
    "figures": (
        "FigureBundle", "TrendPoint", "build_figure", "emit_csv",
        "emit_svg_scatter", "trend_table",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    # Called only for names not yet in the module globals; the value is
    # stored there, so each name is resolved once.
    for module, names in _EXPORTS.items():
        if name == module or name in names:
            sub = importlib.import_module(f".{module}", __name__)
            globals()[name] = value = sub if name == module else getattr(sub, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
