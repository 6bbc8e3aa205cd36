import json
import random
import re

import pytest

from conftest import campaign, make_catalog, make_timeline, random_catalog, ref_matches, save_catalog, vuln
from patchsim.catalog import (
    AttackVector,
    ReleaseTimeline,
    catalog_diagnostics,
    load_catalog,
    validate_catalog,
)
from patchsim.months import DataError, Horizon


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


def test_day_dates_truncate_and_pre_epoch_clamps(tmp_path, fixture_paths, caplog):
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
    with caplog.at_level("INFO", logger="patchsim.catalog"):
        cat = load_catalog(releases, vulns, campaigns)
    months = [r.release_month for r in cat.timelines[("adobe", "reader")].releases]
    assert months == [0, 2]
    assert any("clamped" in rec.message for rec in caplog.records)
    assert any("truncated" in rec.message for rec in caplog.records)


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


# ---------------------------------------------------------------------------
# Affects-index


def test_affects_index_matches_reference_on_random_catalogs():
    rng = random.Random(4324)
    shapes = {"multi-product": 0, "wildcard": 0, "update-notation": 0, "off-catalog": 0}
    for _ in range(200):
        # the oracle reads the match objects as drawn, not the parsed constraints
        drawn: dict = {}
        cat = random_catalog(rng, affected_out=drawn)
        assert set(cat.affected) == set(cat.vulns) == set(drawn)
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
            assert cat.affected[cve] == expected, (cve, affected)
    # every widened shape of random_catalog was exercised
    assert all(shapes.values()), shapes


def test_custom_horizon_threading(tmp_path, fixture_paths):
    horizon = Horizon.from_strings("2008-01", "2012-01")
    cat = load_catalog(
        fixture_paths["releases"], fixture_paths["vulns"], fixture_paths["campaigns"], horizon
    )
    assert cat.horizon.end_index == 48
    assert validate_catalog(cat) == []
