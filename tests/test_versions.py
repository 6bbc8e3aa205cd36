import random
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_timeline, ref_above, ref_matches, ref_position, ref_tokens
from patchsim.strategies import first_nonvulnerable
from patchsim.versions import VersionConstraint, affected_releases, version_key


class Ordering(Enum):
    """The expected order of two version keys."""

    LT = -1
    EQ = 0
    GT = 1


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ("9.2", "9.10", Ordering.LT),
        ("6u6", "6u13", Ordering.LT),
        ("21.0.0.213", "21.0.0.213", Ordering.EQ),
        ("9.2", "9.2.1", Ordering.LT),
        ("10", "9.9", Ordering.GT),
        ("1.2b", "1.2", Ordering.GT),
        ("2.0beta", "2.0", Ordering.GT),
        ("5u13", "6u6", Ordering.LT),
    ],
)
def test_compare_examples(a, b, expected):
    ka, kb = version_key(a), version_key(b)
    assert Ordering((ka > kb) - (ka < kb)) is expected


def test_update_notation_normalizes_to_numeric_segments():
    assert version_key("6u13") == version_key("6.13")
    assert version_key("6u13") != version_key("6.u.13.x")


def test_non_decimal_digits_are_letters():
    # "²" is a digit to str.isdigit but not to int(): it tokenizes like the "a" of "1a"
    assert version_key("1²") == ((0, 1), (1, "²"))
    assert version_key("1²") > version_key("1a")


def test_one_version_order_for_every_vendor():
    versions = [("6u20", 0), ("6u13", 0), ("6u6", 1), ("7u1", 2)]
    acme = make_timeline(("acme", "runtime"), versions)
    oracle = make_timeline(("oracle", "jre"), versions)
    assert [(r.version, r.sort_key) for r in acme.releases] == [(r.version, r.sort_key) for r in oracle.releases]
    c = VersionConstraint.from_mapping({"startExcluding": "6u6", "endIncluding": "6.20"})
    assert {r.version for r in affected_releases(c, acme)} == {r.version for r in affected_releases(c, oracle)}
    assert {r.version for r in affected_releases(c, oracle)} == {"6u13", "6u20"}


_version_text = st.text(alphabet="0123456789abu.-", min_size=1, max_size=12)


@given(_version_text, _version_text)
def test_comparator_totality(a, b):
    ka, kb = version_key(a), version_key(b)
    assert [ka < kb, ka == kb, ka > kb].count(True) == 1
    assert (ka < kb) == (kb > ka)


@settings(max_examples=300)
@given(_version_text, _version_text, _version_text)
def test_comparator_transitivity(a, b, c):
    k0, k1, k2 = (version_key(v) for v in sorted([a, b, c], key=version_key))
    assert k0 <= k1 <= k2
    assert k0 <= k2


# separators, the update letter, ASCII and Arabic-Indic decimal digits, a
# superscript digit that is not decimal, letters, "*" and a tab
@settings(max_examples=500)
@given(st.text(alphabet=".-_+ u0123456789\u0663\u00b2abZ*\t", max_size=16))
def test_version_key_matches_the_independent_tokenizer(text):
    expected = ref_tokens(text)
    assert version_key(text) == tuple((0, t) if isinstance(t, int) else (1, t) for t in expected)


# ---------------------------------------------------------------------------
# Constraint parsing and matching


def test_exact_constraint_round_trip():
    c = VersionConstraint.from_mapping({"exact": "10.1.3"})
    assert c.kind == "exact"
    assert ref_position(c, version_key("10.1.3")) == 0
    assert ref_position(c, version_key("10.1.4")) == 1
    assert c.to_mapping() == {"exact": "10.1.3"}


def test_range_bounds_inclusive_exclusive():
    c = VersionConstraint.from_mapping({"startExcluding": "1.0", "endIncluding": "2.0"})
    assert ref_position(c, version_key("1.0")) == -1
    assert ref_position(c, version_key("1.1")) == 0
    assert ref_position(c, version_key("2.0")) == 0
    assert ref_position(c, version_key("2.0.1")) == 1


def test_wildcard_is_unbounded():
    c = VersionConstraint.from_mapping({"startIncluding": "*", "endIncluding": "9.2"})
    assert c.start is None
    assert ref_position(c, version_key("0.1")) == 0
    assert ref_position(c, version_key("9.2")) == 0
    assert ref_position(c, version_key("9.3")) == 1


@pytest.mark.parametrize(
    "mapping",
    [
        {"exact": "1.0", "endIncluding": "2.0"},
        {"startIncluding": "1.0", "startExcluding": "1.1"},
        {"endIncluding": "1.0", "endExcluding": "1.1"},
        {"bogus": "1.0"},
        {"startIncluding": "2.0", "endIncluding": "1.0"},
    ],
)
def test_malformed_constraints_rejected(mapping):
    with pytest.raises(ValueError):
        VersionConstraint.from_mapping(mapping)


def test_fixes_is_strictly_above_the_range():
    inclusive = VersionConstraint.from_mapping({"endIncluding": "9.2"})
    assert ref_position(inclusive, version_key("9.2")) == 0
    assert ref_position(inclusive, version_key("9.3")) == 1
    exclusive = VersionConstraint.from_mapping({"endExcluding": "9.2"})
    assert ref_position(exclusive, version_key("9.2")) == 1
    unbounded = VersionConstraint.from_mapping({"startIncluding": "1.0"})
    assert ref_position(unbounded, version_key("99.0")) == 0
    # the end of an empty range is above it, not below it
    empty = VersionConstraint.from_mapping({"startExcluding": "9.2", "endExcluding": "9.2"})
    assert ref_position(empty, version_key("9.2")) == 1


def _drawn_version(rng):
    """Few distinct numbers, so bounds and versions often coincide or differ
    only by a trailing segment ("1" < "1.0" < "1.0a"). Tags include non-ASCII
    letters, "²" and "*", which tokenize as letters; now and then a version is
    a tag alone (a bare "*" bound is a wildcard, a bare "*" exact is not)."""
    tag = rng.choice(["", "", "", "a", "b", "é", "É", "ß", "²", "*"])
    if tag and rng.random() < 0.05:
        return tag
    segments = [str(rng.randint(1, 3))] + [str(rng.randint(0, 2)) for _ in range(rng.randint(0, 2))]
    return ".".join(segments) + tag


def _drawn_bound(rng):
    return "*" if rng.random() < 0.15 else _drawn_version(rng)


def _drawn_mapping(rng):
    """An exact, one-sided or two-sided match, with equal bounds and "*" sides."""
    roll = rng.random()
    if roll < 0.2:
        return {"exact": _drawn_version(rng)}
    start = rng.choice(["startIncluding", "startExcluding"])
    end = rng.choice(["endIncluding", "endExcluding"])
    if roll < 0.4:
        return {start: _drawn_bound(rng)}
    if roll < 0.6:
        return {end: _drawn_bound(rng)}
    low = _drawn_bound(rng)
    return {start: low, end: low if rng.random() < 0.3 else _drawn_bound(rng)}


def test_position_matches_reference_on_random_mappings():
    rng = random.Random(7)
    checked = 0
    for _ in range(5000):
        mapping = _drawn_mapping(rng)
        try:
            constraint = VersionConstraint.from_mapping(mapping)
        except ValueError:  # reversed bounds
            continue
        bounds = [v for v in mapping.values() if v != "*"]
        for version in bounds + [_drawn_version(rng) for _ in range(4)]:
            inside, above = ref_matches(mapping, version), ref_above(mapping, version)
            assert not (inside and above), (mapping, version)
            expected = 0 if inside else 1 if above else -1
            assert ref_position(constraint, version_key(version)) == expected, (mapping, version)
            checked += 1
    assert checked > 10_000


# "6u13" and "6.13" share one key; "1" < "1.0" < "1.0a" differ only by a trailing segment
_SPAN_VERSIONS = ["1", "1.0", "1.0a", "2.0", "6u13", "6.13", "6.13.1", "9.2", "9.10"]


@st.composite
def _span_mappings(draw):
    """Exact, one-sided (a "*" side is unbounded), two-sided and empty ranges."""
    version = st.sampled_from(_SPAN_VERSIONS)
    shape = draw(st.sampled_from(["exact", "start", "end", "range", "empty"]))
    start = draw(st.sampled_from(["startIncluding", "startExcluding"]))
    end = draw(st.sampled_from(["endIncluding", "endExcluding"]))
    if shape == "exact":
        return {"exact": draw(version)}
    if shape in ("start", "end"):
        return {start if shape == "start" else end: draw(st.one_of(version, st.just("*")))}
    if shape == "empty":
        v = draw(version)
        return {"startExcluding": v, "endExcluding": v}
    low, high = sorted((draw(version), draw(version)), key=version_key)
    return {start: low, end: high}


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_SPAN_VERSIONS), max_size=10), _span_mappings())
def test_span_matches_the_position_oracle(versions, mapping):
    constraint = VersionConstraint.from_mapping(mapping)
    keys = sorted(map(version_key, versions))
    lo, hi = constraint.span(keys)
    positions = [ref_position(constraint, key) for key in keys]
    assert [i for i in range(len(keys)) if lo <= i < hi] == [i for i, p in enumerate(positions) if p == 0]
    # from the end bound's own index on, and only there, every key is above the range
    assert list(range(hi, len(keys))) == [i for i, p in enumerate(positions) if p == 1]


# ---------------------------------------------------------------------------
# Affected-release expansion


def _timeline(versions):
    return make_timeline(("adobe", "reader"), versions)


def test_affected_end_including_92():
    timeline = _timeline([("9.1", 0), ("9.2", 3), ("9.3", 6)])
    c = VersionConstraint.from_mapping({"endIncluding": "9.2"})
    assert {r.version for r in affected_releases(c, timeline)} == {"9.1", "9.2"}


def test_affected_end_including_flash_213():
    timeline = _timeline([("21.0.0.182", 0), ("21.0.0.213", 4), ("21.0.0.242", 9)])
    c = VersionConstraint.from_mapping({"endIncluding": "21.0.0.213"})
    assert {r.version for r in affected_releases(c, timeline)} == {"21.0.0.182", "21.0.0.213"}


def test_affected_exact():
    timeline = _timeline([("10.1.2", 0), ("10.1.3", 1), ("10.1.4", 2)])
    c = VersionConstraint.from_mapping({"exact": "10.1.3"})
    assert {r.version for r in affected_releases(c, timeline)} == {"10.1.3"}


def test_affected_matches_reference_filter_on_random_inputs():
    rng = random.Random(20210412)
    for _ in range(150):
        versions = []
        used = set()
        for i in range(rng.randint(1, 50)):
            v = f"{rng.randint(1, 9)}.{rng.randint(0, 20)}" + (".{}".format(rng.randint(0, 5)) if rng.random() < 0.4 else "")
            if v in used:
                continue
            used.add(v)
            versions.append((v, i % 24))
        timeline = _timeline(versions)
        names = [v for v, _ in versions]
        roll = rng.random()
        if roll < 0.25:
            mapping = {"exact": rng.choice(names)}
        elif roll < 0.7:
            mapping = {rng.choice(["endIncluding", "endExcluding"]): rng.choice(names)}
            if rng.random() < 0.5:
                mapping[rng.choice(["startIncluding", "startExcluding"])] = "*"
        else:
            mapping = {rng.choice(["startIncluding", "startExcluding"]): rng.choice(names)}
        try:
            constraint = VersionConstraint.from_mapping(mapping)
        except ValueError:
            continue
        got = {r.version for r in affected_releases(constraint, timeline)}
        expected = {v for v, _ in versions if ref_matches(mapping, v)}
        assert got == expected, (mapping, sorted(used))


# ---------------------------------------------------------------------------
# First escape release


def _fnv_setup():
    timeline = _timeline([("9.1", 0), ("9.2", 1), ("9.3", 2)])
    releases = {r.version: r for r in timeline.releases}
    return timeline, releases


def _blocked(timeline, *mappings):
    """Releases of the timeline that any of the constraint mappings affects."""
    out = set()
    for mapping in mappings:
        out |= affected_releases(VersionConstraint.from_mapping(mapping), timeline)
    return out


def test_first_nonvulnerable_picks_escape_when_released():
    timeline, releases = _fnv_setup()
    blocked = _blocked(timeline, {"endIncluding": "9.2"})
    got = first_nonvulnerable(timeline, blocked, at=2, installed=releases["9.1"])
    assert got is releases["9.3"]


def test_first_nonvulnerable_absent_before_fix_release():
    timeline, releases = _fnv_setup()
    blocked = _blocked(timeline, {"endIncluding": "9.2"})
    assert first_nonvulnerable(timeline, blocked, at=1, installed=releases["9.1"]) is None


def test_first_nonvulnerable_vacuous_constraint_takes_next_newer():
    timeline, releases = _fnv_setup()
    blocked = _blocked(timeline, {"exact": "0.0"})
    got = first_nonvulnerable(timeline, blocked, at=2, installed=releases["9.2"])
    assert got is releases["9.3"]


def test_first_nonvulnerable_latest_pick():
    timeline = make_timeline(("adobe", "reader"), [("9.1", 0), ("9.3", 1), ("9.4", 2)])
    releases = {r.version: r for r in timeline.releases}
    blocked = _blocked(timeline, {"endIncluding": "9.2"})
    first = first_nonvulnerable(timeline, blocked, at=2, installed=releases["9.1"], pick="first")
    latest = first_nonvulnerable(timeline, blocked, at=2, installed=releases["9.1"], pick="latest")
    assert first is releases["9.3"]
    assert latest is releases["9.4"]


def test_latest_pick_prefers_newest_version_over_newest_release():
    # an old-branch maintenance release that lands later must not win
    timeline = make_timeline(("adobe", "reader"), [("9.1", 0), ("10.0", 1), ("9.3", 2)])
    releases = {r.version: r for r in timeline.releases}
    blocked = _blocked(timeline, {"endIncluding": "9.2"})
    latest = first_nonvulnerable(timeline, blocked, at=3, installed=releases["9.1"], pick="latest")
    assert latest is releases["10.0"]


def test_first_nonvulnerable_properties_on_random_inputs():
    rng = random.Random(97)
    for _ in range(100):
        versions = []
        used = set()
        for i in range(rng.randint(2, 12)):
            v = f"{rng.randint(1, 5)}.{rng.randint(0, 9)}"
            if v not in used:
                used.add(v)
                versions.append((v, rng.randint(0, 23)))
        timeline = _timeline(versions)
        mappings = [{"endIncluding": rng.choice([v for v, _ in versions])} for _ in range(rng.randint(0, 2))]
        installed = rng.choice(timeline.releases)
        at = rng.randint(0, 23)
        got = first_nonvulnerable(timeline, _blocked(timeline, *mappings), at=at, installed=installed)
        if got is None:
            continue
        assert got.release_month <= at
        assert got.sort_key > installed.sort_key
        for mapping in mappings:
            assert not ref_matches(mapping, got.version)
