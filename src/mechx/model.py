"""Domain model for described platforms.

A platform (robot, fountain, animal model) is a named collection of
homogeneous actuator groups.  Each group either enumerates its states
directly or gives a travel range plus a resolution step, from which a
discrete level count is derived.
"""

from __future__ import annotations

import math
import sys

from . import _LineError, _Record, _require_int

# Relative tolerance for deciding that span/resolution is an integer.
INTEGRALITY_REL_TOL = 1e-9

# Groups carrying this tag are excluded from mechanical-only analyses.
NON_MECHANICAL_TAG = "non-mechanical"

ARTIFICIAL = "artificial"
NATURAL = "natural"
KINDS = (ARTIFICIAL, NATURAL)


class NonIntegralSpan(_LineError):
    """Raised when a continuous span does not divide evenly by its
    resolution, which usually indicates a typo in the description.
    ``line`` is the line ``group`` was read from, or 0 for a group built
    in code."""

    def __init__(self, group: DofGroup, ratio: float, nearest: int):
        super().__init__(
            group.__dict__.get("_line", 0),
            f"group {group.label!r}: span/resolution = {ratio!r} deviates from "
            f"{nearest} by more than {INTEGRALITY_REL_TOL:g} (relative)",
        )
        self.group, self.ratio, self.nearest = self.args = (group, ratio, nearest)
        self.label = group.label


class DiscreteStates(_Record):
    """An explicitly enumerated number of states per degree of freedom."""

    count: int

    def __post_init__(self):
        _require_int(self, "count")
        if self.count < 1:
            raise ValueError(f"state count must be >= 1, got {self.count}")


class Continuous(_Record):
    """A continuous travel range discretized by a resolution step; only
    the span/resolution ratio matters."""

    minimum: float
    maximum: float
    resolution: float

    def __post_init__(self):
        if not self.maximum > self.minimum:
            raise ValueError(
                f"range maximum must exceed minimum "
                f"({self.minimum!r} .. {self.maximum!r})"
            )
        if not self.resolution > 0:
            raise ValueError(f"resolution must be positive, got {self.resolution!r}")
        if (self.maximum - self.minimum) < self.resolution:
            raise ValueError(
                f"span {self.maximum - self.minimum!r} is smaller than "
                f"resolution {self.resolution!r}"
            )
        if not math.isfinite(self.ratio):
            raise ValueError(f"span/resolution = {self.ratio!r} is not finite")

    @property
    def ratio(self) -> float:
        """span / resolution: the level count before rounding."""
        return (self.maximum - self.minimum) / self.resolution


LevelsSpec = DiscreteStates | Continuous


class DofGroup(_Record):
    """A set of identical degrees of freedom sharing one level count.

    ``multiplicity`` is how many such degrees of freedom the platform has;
    ``levels_spec`` determines how many distinct positions each can take.
    """

    label: str
    multiplicity: int
    levels_spec: LevelsSpec
    tags: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.label:
            raise ValueError("group label must be non-empty")
        _require_int(self, "multiplicity")
        if self.multiplicity < 1:
            raise ValueError(
                f"group {self.label!r}: multiplicity must be >= 1, "
                f"got {self.multiplicity}"
            )
        if not isinstance(self.levels_spec, (DiscreteStates, Continuous)):
            raise TypeError(
                f"group {self.label!r}: levels_spec must be DiscreteStates "
                f"or Continuous"
            )
        object.__setattr__(self, "tags", frozenset(self.tags))

    @property
    def is_mechanical(self) -> bool:
        return NON_MECHANICAL_TAG not in self.tags


class ProcessorSpec(_Record):
    """Onboard processor, summarized by its transistor count, from 0 to
    the largest float: its capacity in bits is that count as a float."""

    name: str
    transistors: int

    def __post_init__(self):
        _require_int(self, "transistors")
        if self.transistors < 0:
            raise ValueError(
                f"transistor count must be >= 0, got {self.transistors}"
            )
        if self.transistors > sys.float_info.max:
            raise ValueError(
                f"transistor count must be at most {sys.float_info.max!r}"
            )


class Platform(_Record):
    """A named artificial or natural system described by its actuator groups.

    ``year`` is annotation-only metadata (release/first-description year,
    usually an estimate); no capacity number depends on it.
    """

    name: str
    kind: str
    groups: tuple[DofGroup, ...] = ()
    year: int | None = None
    processor: ProcessorSpec | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("platform name must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.year is not None:
            _require_int(self, "year")
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "notes", tuple(self.notes))
        seen = set()
        for g in self.groups:
            if g.label in seen:
                raise ValueError(f"duplicate group label {g.label!r}")
            seen.add(g.label)


def resolve_levels(group: DofGroup) -> int:
    """Number of distinct positions available to each DOF in ``group``.

    Discrete state counts pass through unchanged.  Continuous ranges are
    discretized as span / resolution, with no endpoint +1 term; a span
    that is not an integral multiple of the resolution (within
    ``INTEGRALITY_REL_TOL`` relative) raises :class:`NonIntegralSpan`.
    """
    spec = group.levels_spec
    if isinstance(spec, DiscreteStates):
        return spec.count
    ratio = spec.ratio
    nearest = round(ratio)  # at least 1, as span >= resolution
    if abs(ratio - nearest) > INTEGRALITY_REL_TOL * nearest:
        raise NonIntegralSpan(group, ratio, nearest)
    return nearest


def mechanical_groups(platform: Platform) -> list[DofGroup]:
    """The platform's groups with non-mechanical outputs (lights, displays)
    filtered out; order is preserved."""
    return [g for g in platform.groups if g.is_mechanical]
