import json
import random
import re
from collections import Counter

import pytest

from conftest import campaign, make_catalog, make_timeline, random_catalog, ref_matches, save_catalog, vuln
from patchsim.catalog import (
    AttackVector,
    Catalog,
    ReleaseTimeline,
    catalog_diagnostics,
    load_catalog,
    validate_catalog,
)
from patchsim.months import DataError, Horizon
from patchsim.versions import affected_releases


def test_fixture_loads_fully_linked(fixture_catalog):
    cat = fixture_catalog
    assert set(cat.timelines) == {("adobe", "reader"), ("adobe", "flash")}
    assert len(cat.timelines[("adobe", "reader")].releases) == 5
    assert set(cat.vulns) == {"CVE-2009-4324", "CVE-2009-0520", "CVE-2011-0611"}
    assert len(cat.campaigns) == 4
    for c in cat.campaigns:
        for cve in c.cve_ids:
            assert cve in cat.vulns
    # months normalized to indices
    reader = cat.timelines[("adobe", "reader")].releases
    assert [r.release_month for r in reader] == [0, 5, 14, 34, 41]
    assert cat.campaign_cve_ids() == frozenset(cat.vulns)


def test_vector_only_campaign_retained(fixture_catalog):
    basalt = [c for c in fixture_catalog.campaigns if c.apt_name == "Basalt"]
    assert len(basalt) == 1
    assert basalt[0].vector_only
    assert basalt[0].vectors == frozenset({AttackVector.VALID_ACCOUNTS})


def test_unknown_cve_named_in_error(tmp_path, fixture_paths):
    bad = tmp_path / "campaigns.csv"
    bad.write_text("apt,date,cves,vectors\nGhost,2010-01,CVE-1999-0001,spearphishing\n")
    with pytest.raises(DataError, match="CVE-1999-0001"):
        load_catalog(fixture_paths["releases"], fixture_paths["vulns"], bad)


_BEYOND_HORIZON = {
    "releases.csv": "vendor,product,version,release_date\nadobe,reader,99.0,2020-02\n",
    "vulns.json": json.dumps([{"cve": "CVE-2020-0001", "reserved": "2019-12", "published": "2020-02", "affected": []}]),
    "campaigns.csv": "apt,date,cves,vectors\nGhost,2020-02,,undetermined\n",
}


@pytest.mark.parametrize("name", list(_BEYOND_HORIZON))
def test_release_beyond_horizon_rejected(tmp_path, fixture_paths, name):
    paths = {**fixture_paths, name.split(".")[0]: tmp_path / name}
    paths[name.split(".")[0]].write_text(_BEYOND_HORIZON[name])
    with pytest.raises(DataError, match=re.escape(name) + ".*after the horizon end"):
        load_catalog(paths["releases"], paths["vulns"], paths["campaigns"])


def test_duplicate_release_rejected(tmp_path, fixture_paths):
    bad = tmp_path / "releases.csv"
    bad.write_text(
        "vendor,product,version,release_date\n"
        "adobe,reader,9.1,2008-01\n"
        "adobe,reader,9.1,2008-02\n"
    )
    with pytest.raises(DataError, match="duplicate"):
        load_catalog(bad, fixture_paths["vulns"], fixture_paths["campaigns"])


def test_duplicate_cve_rejected(tmp_path, fixture_paths):
    entries = json.loads(fixture_paths["vulns"].read_text())
    entries.append(entries[0])
    bad = tmp_path / "vulns.json"
    bad.write_text(json.dumps(entries))
    with pytest.raises(DataError, match="duplicate CVE"):
        load_catalog(fixture_paths["releases"], bad, fixture_paths["campaigns"])


def test_day_dates_truncate_and_pre_epoch_clamps(tmp_path, fixture_paths):
    releases = tmp_path / "releases.csv"
    releases.write_text(
        "vendor,product,version,release_date\n"
        "adobe,reader,9.0,2005-06-15\n"
        "adobe,reader,9.1,2008-03-09\n"
    )
    campaigns = tmp_path / "campaigns.csv"
    campaigns.write_text("apt,date,cves,vectors\nGhost,2010-01,,undetermined\n")
    vulns = tmp_path / "vulns.json"
    vulns.write_text("[]")
    cat = load_catalog(releases, vulns, campaigns)
    months = [r.release_month for r in cat.timelines[("adobe", "reader")].releases]
    assert months == [0, 2]
    assert cat.notes == (
        ("truncated", f"{releases}:2: field release_date", "2005-06-15"),
        ("clamped", f"{releases}:2: field release_date", "2005-06-15"),
        ("truncated", f"{releases}:3: field release_date", "2008-03-09"),
    )
    assert cat == Catalog(cat.horizon, cat.timelines, cat.vulns, cat.campaigns)  # notes are not compared


def test_same_apt_same_month_merges_cve_sets(tmp_path, fixture_paths):
    campaigns = tmp_path / "campaigns.csv"
    campaigns.write_text(
        "apt,date,cves,vectors\n"
        "Ghost,2010-01,CVE-2009-4324,spearphishing\n"
        "Ghost,2010-01,CVE-2009-0520,drive-by\n"
        "Ghost,2010-02,CVE-2009-0520,drive-by\n"
    )
    cat = load_catalog(fixture_paths["releases"], fixture_paths["vulns"], campaigns)
    assert len(cat.campaigns) == 2
    merged = next(c for c in cat.campaigns if c.start_month == 24)
    assert merged.cve_ids == {"CVE-2009-4324", "CVE-2009-0520"}
    assert merged.vectors == {AttackVector.SPEARPHISHING, AttackVector.DRIVE_BY}
    assert cat.notes == (("merged", f"{campaigns}:3", "Ghost/2010-01"),)


def test_unknown_vector_rejected(tmp_path, fixture_paths):
    campaigns = tmp_path / "campaigns.csv"
    campaigns.write_text("apt,date,cves,vectors\nGhost,2010-01,,carrier-pigeon\n")
    with pytest.raises(DataError, match="carrier-pigeon"):
        load_catalog(fixture_paths["releases"], fixture_paths["vulns"], campaigns)


def test_campaign_without_cves_or_vectors_rejected(tmp_path, fixture_paths):
    campaigns = tmp_path / "campaigns.csv"
    campaigns.write_text("apt,date,cves,vectors\nGhost,2010-01,,\n")
    with pytest.raises(DataError, match="neither"):
        load_catalog(fixture_paths["releases"], fixture_paths["vulns"], campaigns)


def test_bad_header_rejected(tmp_path, fixture_paths):
    bad = tmp_path / "releases.csv"
    bad.write_text("vendor,product,release_date\nadobe,reader,2008-01\n")
    with pytest.raises(DataError, match="header"):
        load_catalog(bad, fixture_paths["vulns"], fixture_paths["campaigns"])


def test_errors_carry_file_and_line(tmp_path, fixture_paths):
    bad = tmp_path / "releases.csv"
    bad.write_text(
        "vendor,product,version,release_date\n"
        "adobe,reader,9.1,2008-01\n"
        "adobe,reader,9.2,not-a-date\n"
    )
    with pytest.raises(DataError, match=r"releases\.csv:3"):
        load_catalog(bad, fixture_paths["vulns"], fixture_paths["campaigns"])


def test_save_load_round_trip(tmp_path, fixture_catalog):
    paths = save_catalog(fixture_catalog, tmp_path)
    reloaded = load_catalog(paths["releases"], paths["vulns"], paths["campaigns"], fixture_catalog.horizon)
    assert reloaded == fixture_catalog


# ---------------------------------------------------------------------------
# Validation: a clean fixture yields nothing; each injected defect yields
# exactly its own violation.


def _clean_catalog():
    v = vuln("CVE-2010-0001", 3, 5, ("acme", "app", {"endIncluding": "1.2"}))
    c = campaign("Alpha", 6, ["CVE-2010-0001"])
    return make_catalog({("acme", "app"): [("1.0", 0), ("1.2", 2), ("2.0", 4)]}, [v], [c], horizon_end=23)


def test_valid_catalog_has_no_violations(fixture_catalog):
    assert validate_catalog(fixture_catalog) == []
    assert validate_catalog(_clean_catalog()) == []


def _rules(catalog):
    return [v.rule for v in validate_catalog(catalog)]


def test_reserved_after_published_flagged():
    cat = _clean_catalog()
    bad = vuln("CVE-2010-0001", 9, 5, ("acme", "app", {"endIncluding": "1.2"}))
    cat.vulns["CVE-2010-0001"] = bad
    assert _rules(cat) == ["reserved-after-published"]


def test_duplicate_version_key_flagged():
    cat = make_catalog({("acme", "app"): [("6u13", 0), ("6.13", 2)]}, horizon_end=23)
    assert _rules(cat) == ["duplicate-version-key"]


def test_timeline_sorts_its_releases():
    # by month, then by version within a month, in whatever order the releases come
    timeline = make_timeline(("acme", "app"), [("1.10", 2), ("2.0", 0), ("1.9", 2)])
    assert [r.version for r in timeline.releases] == ["2.0", "1.9", "1.10"]
    assert ReleaseTimeline(tuple(reversed(timeline.releases))) == timeline


def test_diagnostics_count_dead_constraints():
    v1 = vuln("CVE-2010-0001", 3, 5, ("acme", "app", {"endIncluding": "1.2"}))
    v2 = vuln("CVE-2010-0002", 3, 5, ("acme", "app", {"exact": "7.7"}))
    v3 = vuln("CVE-2010-0003", 3, 5, ("acme", "ghostware", {"endIncluding": "1.0"}))
    cat = make_catalog(
        {("acme", "app"): [("1.0", 0), ("1.2", 2)]},
        [v1, v2, v3],
        [campaign("Alpha", 6, ["CVE-2010-0001"])],
        horizon_end=23,
    )
    diag = catalog_diagnostics(cat)
    assert [d["cve"] for d in diag["constraints_matching_no_release"]] == ["CVE-2010-0002"]
    assert [d["cve"] for d in diag["constraints_for_products_without_timeline"]] == ["CVE-2010-0003"]
    assert diag["vector_only_campaigns"] == 0


def _constraints_affecting_no_release(cat):
    """Oracle: each constraint on a cataloged product whose affected_releases is
    empty, in CVE order, as catalog_diagnostics lists it."""
    return [
        {"cve": cve, "vendor": pc.vendor, "product": pc.product, "match": pc.constraint.to_mapping()}
        for cve, record in sorted(cat.vulns.items())
        for pc in record.affected
        if pc.key in cat.timelines and not affected_releases(pc.constraint, cat.timelines[pc.key])
    ]


def test_diagnostics_list_exactly_the_constraints_affecting_no_release():
    rng = random.Random(1105)
    catalogs = [random_catalog(rng) for _ in range(300)]
    empty_range = vuln("CVE-2010-0001", 3, 5, ("acme", "app", {"startExcluding": "1.2", "endExcluding": "1.2"}))
    between = vuln("CVE-2010-0002", 3, 5, ("acme", "app", {"exact": "1.1"}))  # between releases 1.0 and 1.2
    point = vuln("CVE-2010-0003", 3, 5, ("acme", "app", {"startIncluding": "1.2", "endIncluding": "1.2"}))
    timeline = [("1.0", 0), ("1.2", 2), ("1.10", 4)]
    catalogs.append(make_catalog({("acme", "app"): timeline}, [empty_range, between, point], horizon_end=23))
    dead = on_catalog = 0
    for cat in catalogs:
        expected = _constraints_affecting_no_release(cat)
        assert catalog_diagnostics(cat)["constraints_matching_no_release"] == expected
        dead += len(expected)
        on_catalog += sum(pc.key in cat.timelines for record in cat.vulns.values() for pc in record.affected)
    assert [(d["cve"], d["match"]) for d in expected] == [
        ("CVE-2010-0001", {"startExcluding": "1.2", "endExcluding": "1.2"}),
        ("CVE-2010-0002", {"exact": "1.1"}),
    ]
    assert 2 < dead < on_catalog  # the draws hold constraints that match and ones that do not


# ---------------------------------------------------------------------------
# Affects-index


def test_affects_index_matches_reference_on_random_catalogs():
    rng = random.Random(4324)
    shapes = {"multi-product": 0, "wildcard": 0, "update-notation": 0, "off-catalog": 0}
    for _ in range(200):
        # the oracle reads the match objects as drawn, not the parsed constraints
        drawn: dict = {}
        cat = random_catalog(rng, affected_out=drawn)
        assert set(cat.slices) == set(cat.vulns) == set(drawn)
        for cve, affected in drawn.items():
            expected = set()
            for vendor, product, match in affected:
                timeline = cat.timelines.get((vendor, product))
                if timeline is None:
                    shapes["off-catalog"] += 1
                    continue
                expected |= {rel for rel in timeline.releases if ref_matches(match, rel.version)}
                shapes["wildcard"] += "*" in match.values()
                shapes["update-notation"] += vendor == "oracle"
            shapes["multi-product"] += len({(vendor, product) for vendor, product, _ in affected}) > 1
            assert cat.affected_by(cve) == expected, (cve, affected)
        # `hitting` and `affected_by` each read the slices their own way, so each has an oracle
        for timeline in cat.timelines.values():
            for rel in timeline.releases:
                ids = sorted(
                    cve
                    for cve, affected in drawn.items()
                    if any((vendor, product) == rel.product and ref_matches(match, rel.version)
                           for vendor, product, match in affected)
                )
                assert cat.hitting[rel] == tuple(ids), rel
    # every widened shape of random_catalog was exercised
    assert all(shapes.values()), shapes


def test_custom_horizon_threading(tmp_path, fixture_paths):
    horizon = Horizon.from_strings("2008-01", "2012-01")
    cat = load_catalog(
        fixture_paths["releases"], fixture_paths["vulns"], fixture_paths["campaigns"], horizon
    )
    assert cat.horizon.end_index == 48
    assert validate_catalog(cat) == []


# ---------------------------------------------------------------------------
# Each distinct text parsed once per load


def _all_months(catalog):
    """Every month index the loader produced, in a fixed order."""
    months = [r.release_month for key in sorted(catalog.timelines) for r in catalog.timelines[key].releases]
    for cve in sorted(catalog.vulns):
        months += [catalog.vulns[cve].reserved_month, catalog.vulns[cve].published_month]
    return months + [c.start_month for c in catalog.campaigns]


def test_parse_memo_lives_for_one_load(fixture_paths):
    # a memo that outlived the call would hand the second load the first load's month indexes
    paths = (fixture_paths["releases"], fixture_paths["vulns"], fixture_paths["campaigns"])
    late = load_catalog(*paths, Horizon.from_strings("2008-01"))
    early = load_catalog(*paths, Horizon.from_strings("2007-01"))
    assert [month + 12 for month in _all_months(late)] == _all_months(early)


def test_a_text_that_fails_is_not_remembered(tmp_path, fixture_paths, capsys):
    from patchsim.cli import run

    # "2008-13" on lines 3 and 5 names line 3; a second load, where it first appears on
    # line 4, names line 4, not a line remembered from the first load
    rows = [
        "adobe,reader,9.1,2008-01",
        "adobe,reader,9.2,2008-13",
        "adobe,reader,9.3,2009-03",
        "adobe,reader,9.4,2008-13",
    ]
    data = ["--vulns", str(fixture_paths["vulns"]), "--campaigns", str(fixture_paths["campaigns"])]
    for name, lines, line in (("releases.csv", rows, 3), ("later.csv", rows[:1] + rows[2:], 4)):
        path = tmp_path / name
        path.write_text("\n".join(["vendor,product,version,release_date", *lines]) + "\n")
        assert run(["validate", "--releases", str(path), *data]) == 1
        assert f"{path}:{line}: field release_date" in capsys.readouterr().err, name


def test_each_distinct_text_is_parsed_once_per_load(fixture_paths, monkeypatch):
    import patchsim.catalog

    versions, dates = Counter(), Counter()
    version_key, parse_clamped = patchsim.catalog.version_key, Horizon.parse_clamped

    def counted_key(text):
        versions[text] += 1
        return version_key(text)

    def counted_date(horizon, text):
        dates[text] += 1
        return parse_clamped(horizon, text)

    monkeypatch.setattr(patchsim.catalog, "version_key", counted_key)
    monkeypatch.setattr(Horizon, "parse_clamped", counted_date)
    paths = (fixture_paths["releases"], fixture_paths["vulns"], fixture_paths["campaigns"])
    catalog = load_catalog(*paths)
    texts = {r.version for t in catalog.timelines.values() for r in t.releases}
    constraints = [pc.constraint for v in catalog.vulns.values() for pc in v.affected]
    texts |= {b.version for c in constraints for b in (c.start, c.end) if b is not None}
    assert set(versions) == texts and set(versions.values()) == {1}
    assert len(dates) > 1 and set(dates.values()) == {1}
    load_catalog(*paths)
    assert set(versions) == texts and set(versions.values()) == {2}
    assert set(dates.values()) == {2}
