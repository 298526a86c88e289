"""Checks that the bundled platform files carry exactly the intended data.

Every group row is pinned: a typo in a range, resolution, or multiplicity
in any data file fails here with the offending platform and label named.
"""

import pytest

from mechx.capacity import analyze
from mechx.model import resolve_levels
from mechx.specfile import (
    DATASET_MANIFEST,
    _normalize,
    dataset_lookup,
    is_computable,
    load_dataset,
    parse_platform,
    serialize_platform,
    validate,
)

# (stem, platform name, kind, year, (processor name, transistors) or None)
METADATA = [
    ("aibo", "Aibo", "artificial", 1999, ("64 bit RISC", 1_000_000)),
    ("asimo", "ASIMO", "artificial", 2000, ("Pentium III-M 1.2 GHz", 44_000_000)),
    ("baxter", "Baxter", "artificial", 2012,
     ("3rd Gen Intel Core i7-3770", 1_400_000_000)),
    ("bellagio", "Bellagio Fountain", "artificial", None, None),
    ("bellagio-all-oarsmen", "Bellagio Fountain (all Oarsmen)", "artificial",
     None, None),
    ("bellagio-hi-res", "Bellagio Fountain (0.1 deg)", "artificial",
     None, None),
    ("big-dog", "Big Dog", "artificial", 2005, ("Pentium CPU", 1_300_000_000)),
    ("c-elegans-agar", "C. elegans (agar behavior)", "natural", None, None),
    ("c-elegans-anatomy", "C. elegans (anatomy)", "natural", None, None),
    ("cat", "Cat", "natural", None, None),
    ("cheetah", "Cheetah", "artificial", 2013, ("", 731_000_000)),
    ("darwin", "Darwin", "artificial", 2010, ("Intel Atom Z510", 47_000_000)),
    ("drosophila", "Drosophila", "natural", None, None),
    ("human-breath", "Human (breath)", "natural", None, None),
    ("human-mocap", "Human (mocap)", "natural", None, None),
    ("human-wa-eval", "Human (WA-eval)", "natural", None, None),
    ("keepon", "KeepOn", "artificial", 2007, ("PS234", 1_000_000)),
    ("khepera-iv", "Khepera IV", "artificial", 2015,
     ("ARM Cortex-A8", 2_000_000_000)),
    ("kismet", "Kismet", "artificial", 1998, ("Motorola 68332 (4)", 1_680_000)),
    ("kr60ha", "KR60HA", "artificial", 2005, ("", 100_000_000)),
    ("lbr-iiwa", "LBR iiwa", "artificial", 2013, ("", 731_000_000)),
    ("little-dog", "Little Dog", "artificial", 2006,
     ("Pentium CPU", 2_000_000_000)),
    ("nao", "NAO", "artificial", 2008, ("Atom Z530", 47_000_000)),
    ("packbot", "Packbot", "artificial", 2002, ("Pentium 3", 45_000_000)),
    ("pr2", "PR2", "artificial", 2010,
     ("Two Quad-Core i7 Xeon (8 cores)", 1_462_000_000)),
    ("robonaut2", "Robonaut2", "artificial", 2011, ("", 262_200_000)),
    ("robosapien", "RoboSapien", "artificial", 2004,
     ("200MHz ARM9", 26_000_000)),
    ("roomba", "Roomba", "artificial", 2002, ("", 1_000_000)),
    ("simon", "Simon", "artificial", 2009, ("", 2_000_000_000)),
]

# (stem, group label, multiplicity, resolved level count)
GROUP_TABLE = [
    ("aibo", "head pan", 1, 1780),
    ("aibo", "head tilt", 1, 1250),
    ("aibo", "head roll", 1, 580),
    ("aibo", "shoulders", 4, 1000),
    ("aibo", "torso", 1, 2340),
    ("aibo", "knees", 4, 1750),
    ("aibo", "l/r ears", 2, 200),
    ("aibo", "tail (front to back)", 1, 450),
    ("aibo", "tail (left to right)", 1, 250),
    ("asimo", "head", 3, 1875),
    ("asimo", "arms", 14, 1875),
    ("asimo", "hands", 4, 1875),
    ("asimo", "torso", 1, 1875),
    ("asimo", "legs", 12, 1875),
    ("baxter", "l/r S1 gripper", 2, 2),
    ("baxter", "l/r E1", 2, 1530),
    ("baxter", "l/r W1", 2, 2100),
    ("baxter", "l/r S0", 2, 1950),
    ("baxter", "l/r E0", 2, 3500),
    ("baxter", "l/r W0", 2, 3505),
    ("baxter", "l/r W2", 2, 3505),
    ("bellagio", "oarsmen RX", 208, 160),
    ("bellagio", "oarsmen RY", 208, 160),
    ("bellagio", "oarsmen water", 208, 2),
    ("bellagio", "shooters", 1175, 2),
    ("bellagio", "lights", 6200, 13),
    ("bellagio-all-oarsmen", "cannon axis", 1383, 160),
    ("bellagio-all-oarsmen", "cannon water", 1383, 2),
    ("bellagio-all-oarsmen", "lights", 6200, 13),
    ("bellagio-hi-res", "cannon axis", 1383, 1600),
    ("bellagio-hi-res", "cannon water", 1383, 2),
    ("bellagio-hi-res", "lights", 6200, 13),
    ("big-dog", "leg joints (5 per leg, 4 legs)", 20, 1875),
    ("c-elegans-agar", "shape modes 1/2/4", 3, 40),
    ("c-elegans-agar", "shape mode 3", 1, 100),
    ("c-elegans-anatomy", "segment curvature", 100, 30),
    ("cat", "muscles", 517, 100),
    ("cheetah", "hip rotation", 4, 300),
    ("cheetah", "hip", 4, 1500),
    ("cheetah", "knee", 4, 2000),
    ("cheetah", "spine", 1, 200),
    ("darwin", "neck pitch", 1, 500),
    ("darwin", "neck roll", 1, 1800),
    ("darwin", "l/r elbow", 2, 1500),
    ("darwin", "l/r shoulder rotation", 2, 2000),
    ("darwin", "l/r shoulder compression", 2, 300),
    ("darwin", "l/r knee", 2, 1500),
    ("darwin", "l/r foot", 2, 900),
    ("darwin", "l/r waist rotation", 2, 300),
    ("darwin", "l/r knee/foot", 2, 1500),
    ("darwin", "l/r waist bend", 2, 1000),
    ("drosophila", "tarsus 5", 6, 1800),
    ("drosophila", "tarsus 4", 6, 1800),
    ("drosophila", "tarsus 3", 6, 1800),
    ("drosophila", "tarsus 2", 6, 1800),
    ("drosophila", "tarsus 1", 6, 1800),
    ("drosophila", "tibia", 6, 1800),
    ("drosophila", "femur", 6, 1800),
    ("drosophila", "trochanter", 6, 3600),
    ("drosophila", "coxa", 6, 100),
    ("drosophila", "wing cells", 12, 2),
    ("drosophila", "wing hinge", 6, 1800),
    ("drosophila", "halteres", 6, 3600),
    ("drosophila", "head thorax abdomen", 9, 450),
    ("drosophila", "proboscis", 1, 2),
    ("drosophila", "antennae", 12, 100),
    ("drosophila", "bristles", 200, 2),
    ("drosophila", "hairs", 1000, 2),
    ("human-breath", "muscle-spring elements", 1500, 1_000_000),
    ("human-mocap", "joint DOFs", 66, 360_000_000),
    ("keepon", "tilt", 1, 1000),
    ("keepon", "pan", 1, 4500),
    ("keepon", "pon", 1, 1250),
    ("keepon", "side", 1, 625),
    ("khepera-iv", "l/r wheel", 2, 3600),
    ("kismet", "l/r ears pitch", 2, 1350),
    ("kismet", "l/r ears yaw", 2, 450),
    ("kismet", "l/r eyelids", 2, 30),
    ("kismet", "l/r brows pitch", 2, 200),
    ("kismet", "l/r lips", 2, 600),
    ("kismet", "jaw", 1, 450),
    ("kr60ha", "axis 1", 1, 3700),
    ("kr60ha", "axis 2", 1, 1700),
    ("kr60ha", "axis 3", 1, 1780),
    ("kr60ha", "axis 4", 1, 7000),
    ("kr60ha", "axis 5", 1, 2380),
    ("kr60ha", "axis 6", 1, 7000),
    ("lbr-iiwa", "axis 1", 1, 3400),
    ("lbr-iiwa", "axis 2", 1, 2400),
    ("lbr-iiwa", "axis 3", 1, 3400),
    ("lbr-iiwa", "axis 4", 1, 2400),
    ("lbr-iiwa", "axis 5", 1, 3400),
    ("lbr-iiwa", "axis 6", 1, 2400),
    ("lbr-iiwa", "axis 7", 1, 3500),
    ("little-dog", "l/r front knee RY", 2, 2340),
    ("little-dog", "l/r front hip RX", 2, 680),
    ("little-dog", "l/r front hip RY", 2, 337),
    ("little-dog", "l/r back knee RY", 2, 2340),
    ("little-dog", "l/r back hip RX", 2, 680),
    ("little-dog", "l/r back hip RY", 2, 337),
    ("nao", "l/r hand", 2, 2),
    ("nao", "head yaw", 1, 2390),
    ("nao", "head pitch", 1, 680),
    ("nao", "l/r shoulder pitch", 2, 2390),
    ("nao", "l/r shoulder yaw", 2, 2390),
    ("nao", "l/r shoulder roll", 2, 865),
    ("nao", "l/r wrist yaw", 2, 2090),
    ("nao", "pelvis", 1, 1076),
    ("nao", "l/r hip roll", 2, 669),
    ("nao", "l/r hip pitch", 2, 1157),
    ("nao", "l/r knee pitch", 2, 1263),
    ("nao", "l/r ankle pitch", 2, 1211),
    ("nao", "l/r ankle roll", 2, 669),
    ("nao", "unlisted-arm-pair", 2, 940),
    ("packbot", "shoulder rotation", 1, 3600),
    ("packbot", "shoulder pivot", 1, 2200),
    ("packbot", "E1 pivot", 1, 3400),
    ("packbot", "E2 pivot", 1, 3400),
    ("packbot", "gripper rotation", 1, 3600),
    ("packbot", "gripper open/close", 1, 1800),
    ("packbot", "head rotation", 1, 3600),
    ("packbot", "flipper", 1, 3600),
    ("pr2", "l/r shoulder pan", 2, 1700),
    ("pr2", "l/r shoulder tilt", 2, 1150),
    ("pr2", "l/r upper arm roll", 2, 2700),
    ("pr2", "l/r elbow flex", 2, 1400),
    ("pr2", "l/r forearm roll", 2, 3600),
    ("pr2", "l/r wrist pitch", 2, 1300),
    ("pr2", "l/r wrist roll", 2, 3600),
    ("pr2", "head pan", 1, 3500),
    ("pr2", "head tilt", 1, 1150),
    ("robonaut2", "head yaw/pitch/roll", 3, 1875),
    ("robonaut2", "l/r hands", 24, 1875),
    ("robonaut2", "l/r arms", 14, 1875),
    ("robosapien", "l/r elbows", 2, 1800),
    ("robosapien", "l/r shoulders", 2, 1800),
    ("robosapien", "torso", 1, 1350),
    ("robosapien", "l/r hips", 2, 1200),
    ("roomba", "l/r wheel", 2, 3600),
    ("simon", "torso", 2, 1500),
    ("simon", "l/r arm", 14, 2000),
    ("simon", "face", 5, 2000),
]


def test_manifest_is_sorted_and_complete():
    assert len(DATASET_MANIFEST) == 29
    assert list(DATASET_MANIFEST) == sorted(DATASET_MANIFEST)
    assert {m[0] for m in METADATA} == set(DATASET_MANIFEST)


def test_group_table_is_exhaustive():
    assert len(GROUP_TABLE) == 142
    per_stem = {}
    for stem, *_ in GROUP_TABLE:
        per_stem[stem] = per_stem.get(stem, 0) + 1
    for stem in DATASET_MANIFEST:
        doc = dataset_lookup(stem)
        assert len(doc.platform.groups) == per_stem.get(stem, 0), stem


@pytest.mark.parametrize("stem,label,multiplicity,levels", GROUP_TABLE)
def test_group_row(stem, label, multiplicity, levels):
    platform = dataset_lookup(stem).platform
    match = [g for g in platform.groups if g.label == label]
    assert len(match) == 1, f"{stem}: group {label!r} missing"
    group = match[0]
    assert group.multiplicity == multiplicity
    assert resolve_levels(group) == levels


@pytest.mark.parametrize("stem,name,kind,year,processor", METADATA)
def test_metadata_row(stem, name, kind, year, processor):
    platform = dataset_lookup(stem).platform
    assert platform.name == name
    assert platform.kind == kind
    assert platform.year == year
    if processor is None:
        assert platform.processor is None
    else:
        assert platform.processor.name == processor[0]
        assert platform.processor.transistors == processor[1]


def test_no_group_is_tagged_non_mechanical():
    # Fountain lights and every other bundled group count toward the
    # mechanical total; only the parser test fixtures use the tag.
    for doc in load_dataset():
        assert all(g.is_mechanical for g in doc.platform.groups)


def test_naturals_have_no_year_or_processor():
    for doc in load_dataset():
        if doc.platform.kind == "natural":
            assert doc.platform.year is None
            assert doc.platform.processor is None


def test_robots_have_year_and_processor():
    for doc in load_dataset():
        p = doc.platform
        if p.kind == "artificial" and not p.name.startswith("Bellagio"):
            assert p.year is not None, p.name
            assert p.processor is not None, p.name


def test_wa_eval_stub():
    doc = dataset_lookup("human-wa-eval")
    assert doc.platform.groups == ()
    assert not is_computable(doc.platform)
    assert any(n.startswith("non-computable") for n in doc.platform.notes)
    everyone_else = [
        d for d in load_dataset() if d.platform.name != doc.platform.name
    ]
    assert len(everyone_else) == 28
    assert all(is_computable(d.platform) for d in everyone_else)


def test_validate_clean():
    # Bundled files produce at most informational notices, never warnings
    # about spans or processors.
    for stem, doc in zip(DATASET_MANIFEST, load_dataset()):
        for diag in validate(doc):
            assert diag.message.startswith("informational:"), (stem, diag)


def test_round_trip_preserves_analysis():
    for stem, doc in zip(DATASET_MANIFEST, load_dataset()):
        if not is_computable(doc.platform):
            continue
        reparsed = parse_platform(serialize_platform(doc.platform)).platform
        assert reparsed == doc.platform, stem
        a = analyze(doc.platform)
        b = analyze(reparsed)
        assert a.count_all.exact == b.count_all.exact, stem
        assert a.count_all.log10 == b.count_all.log10, stem
        assert a.count_mechanical.exact == b.count_mechanical.exact, stem


def test_serialized_files_are_canonical():
    # The shipped bytes equal the serializer's output, so the dataset
    # cannot drift from the canonical form.
    from importlib import resources

    root = resources.files("mechx.data")
    for stem, doc in zip(DATASET_MANIFEST, load_dataset()):
        raw = (root / f"{stem}.mechx").read_text(encoding="utf-8")
        stripped = []
        for line in raw.split("\n"):
            body = line.split("#", 1)[0].rstrip() if "#" in line else line
            if body.strip():
                stripped.append(body)
        canonical = serialize_platform(doc.platform)
        assert "\n".join(stripped) + "\n" == canonical, stem


def _scan_lookup(name):
    """The lookup as a scan of every file in manifest order: the first
    file whose stem or normalized platform name matches."""
    wanted = _normalize(name)
    for stem, doc in zip(DATASET_MANIFEST, load_dataset()):
        if wanted == stem or wanted == _normalize(doc.platform.name):
            return doc
    raise KeyError(name)


def test_no_stem_is_an_earlier_files_platform_name():
    # dataset_lookup reads the file named by a stem directly; this is
    # what makes that agree with the scan.
    names = [_normalize(doc.platform.name) for doc in load_dataset()]
    for i, stem in enumerate(DATASET_MANIFEST):
        assert stem not in names[:i], stem


def test_lookup_returns_what_the_scan_finds():
    queries = []
    for stem, doc in zip(DATASET_MANIFEST, load_dataset()):
        for name in (stem, doc.platform.name):
            punctuated = "(" + name.replace("-", "/").replace(" ", ". ") + ")!"
            queries += [name, name.upper(), punctuated]
    for query in queries:
        assert dataset_lookup(query) is _scan_lookup(query), query
    with pytest.raises(KeyError):
        dataset_lookup("(no such platform)")
