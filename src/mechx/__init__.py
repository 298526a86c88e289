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
        "count_configurations", "digits_of_pow2", "ilog10",
        "kinematic_expressivity", "ndigits",
    ),
    "specfile": (
        "DatasetCorrupt", "Diagnostic", "DuplicateGroupLabel",
        "MissingPlatformName", "ParseError", "PlatformDocument", "Severity",
        "SpecFileError", "dataset_lookup", "load_dataset", "parse_platform",
        "serialize_platform", "validate",
    ),
    "aemachine": (
        "HALTED", "Machine", "MachineConfig", "MachineFile", "Outcome",
        "RunResult", "TraceStep", "load_machine", "parse_machine", "run",
        "serialize_machine", "step", "to_mechanization", "traces_isomorphic",
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
