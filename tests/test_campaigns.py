import itertools
import random

import pytest

from conftest import campaign, make_catalog, random_catalog, ref_above, ref_matches, ref_targeted_releases, vuln
from patchsim.campaigns import (
    AttackScenario,
    TieRule,
    build_campaign_matrix,
    campaign_scenarios,
    classify_attack,
    classify_campaign,
    venn_counts,
)


# ---------------------------------------------------------------------------
# Exposure matrices


def _targeted(matrix, catalog) -> set:
    """The releases an exposure's spans cover."""
    return {rel for key, lo, hi in matrix.spans for rel in catalog.timelines[key].by_version[lo:hi]}


def test_exposure_rows_set_from_start_month():
    v = vuln("CVE-2010-0001", 2, 4, ("acme", "app", {"endIncluding": "1.1"}))
    c = campaign("Alpha", 5, ["CVE-2010-0001"])
    cat = make_catalog({("acme", "app"): [("1.0", 0), ("1.1", 2), ("2.0", 4)]}, [v], [c], horizon_end=11)
    matrix = build_campaign_matrix(c, cat)
    targeted = _targeted(matrix, cat)
    assert {rel.version: rel in targeted for rel in cat.timelines[("acme", "app")].releases} == {
        "1.0": True, "1.1": True, "2.0": False,
    }
    assert matrix.campaign.start_month == 5


def test_exposure_union_of_overlapping_cves_has_no_double_count():
    v1 = vuln("CVE-2010-0001", 0, 1, ("acme", "app", {"endIncluding": "1.1"}))
    v2 = vuln("CVE-2010-0002", 0, 1, ("acme", "app", {"endIncluding": "2.0"}))
    c = campaign("Alpha", 3, ["CVE-2010-0001", "CVE-2010-0002"])
    cat = make_catalog({("acme", "app"): [("1.0", 0), ("1.1", 1), ("2.0", 2)]}, [v1, v2], [c], horizon_end=11)
    matrix = build_campaign_matrix(c, cat)
    assert matrix.spans == ((("acme", "app"), 0, 3),)  # [0, 2) and [0, 3) merged
    assert matrix.cells.tolist() == [1, 1, 1]


def test_fixture_exposure_reader_cve(fixture_catalog):
    reader_campaign = next(
        c for c in fixture_catalog.campaigns if c.apt_name == "Nightshade" and c.start_month == 23
    )
    matrix = build_campaign_matrix(reader_campaign, fixture_catalog)
    targeted = {rel.version for rel in _targeted(matrix, fixture_catalog)}
    assert targeted == {"9.1", "9.2"}
    assert matrix.campaign.start_month == 23


def test_exposure_empty_for_products_without_timeline():
    v = vuln("CVE-2010-0001", 0, 1, ("acme", "ghost", {"endIncluding": "9.9"}))
    c = campaign("Alpha", 3, ["CVE-2010-0001"])
    cat = make_catalog({("acme", "app"): [("1.0", 0)]}, [v], [c], horizon_end=11)
    assert build_campaign_matrix(c, cat).empty


def test_exposure_uses_shared_space(fixture_catalog):
    # every exposure holds the catalog's own horizon, as its deployments do, and one cell per targeted release
    for c in fixture_catalog.campaigns:
        if c.vector_only:
            continue
        matrix = build_campaign_matrix(c, fixture_catalog)
        assert matrix.horizon is fixture_catalog.horizon
        assert matrix.cells.nbytes == len(_targeted(matrix, fixture_catalog))


def test_exposure_csv_export(fixture_catalog):
    quartz = next(c for c in fixture_catalog.campaigns if c.apt_name == "Quartz")
    matrix = build_campaign_matrix(quartz, fixture_catalog)
    flash_213 = next(r for r in fixture_catalog.timelines[("adobe", "flash")].releases if r.version == "21.0.0.213")
    assert flash_213 in _targeted(matrix, fixture_catalog)
    assert matrix.campaign.start_month == 14  # targeted from month 14 to the end of the window


def test_exposure_spans_are_merged_and_cover_the_targeted_releases(fixture_catalog):
    # per product the spans are sorted, non-empty, disjoint and non-touching, and they
    # cover exactly the releases that the reference matcher finds for the campaign's CVEs
    catalogs = [fixture_catalog] + [random_catalog(random.Random(seed)) for seed in range(200)]
    merged = 0
    for index, cat in enumerate(catalogs):
        for c in cat.campaigns:
            matrix = build_campaign_matrix(c, cat)
            spans = matrix.spans
            assert spans == tuple(sorted(spans)), (index, c)
            assert all(lo < hi for _, lo, hi in spans), (index, c)
            for (key, _, hi), (next_key, next_lo, _) in zip(spans, spans[1:]):
                assert key != next_key or hi < next_lo, (index, c, spans)
            assert _targeted(matrix, cat) == ref_targeted_releases(cat, c), (index, c)
            assert matrix.empty == (not spans)
            slices = [(pc.key, lo, hi) for cve in c.cve_ids for pc, lo, hi in cat.slices[cve] if lo < hi]
            merged += len(slices) > len(spans)
    assert merged > 100  # many exposures merge overlapping or touching slices


# ---------------------------------------------------------------------------
# Attack classification (reserved=5, published=6 style triples)


def _vuln(reserved, published):
    return vuln("CVE-2010-0001", reserved, published, ("acme", "app", {"exact": "1.0"}))


@pytest.mark.parametrize(
    "exploited,reserved,published,fix,expected",
    [
        (2, 5, 6, 7, AttackScenario.UU_U),
        (5, 3, 8, 4, AttackScenario.KU_P),
        (9, 7, 8, None, AttackScenario.KK_U),
        (2, 5, 6, 1, AttackScenario.UU_P),
        (5, 3, 8, 9, AttackScenario.KU_U),
        (9, 7, 8, 9, AttackScenario.KK_P),
    ],
)
def test_classify_attack_examples(exploited, reserved, published, fix, expected):
    assert classify_attack(_vuln(reserved, published), exploited, fix) is expected


def test_classify_attack_inclusive_ties():
    # equal months count as "at or after" on both axes
    assert classify_attack(_vuln(3, 5), 5, None) is AttackScenario.KK_U
    assert classify_attack(_vuln(3, 5), 3, None) is AttackScenario.KU_U
    assert classify_attack(_vuln(3, 5), 4, 4) is AttackScenario.KU_P


def test_classify_attack_exclusive_ties():
    rule = TieRule.EXCLUSIVE
    assert classify_attack(_vuln(3, 5), 5, None, rule) is AttackScenario.KU_U
    assert classify_attack(_vuln(3, 5), 3, None, rule) is AttackScenario.UU_U
    assert classify_attack(_vuln(3, 5), 4, 4, rule) is AttackScenario.KU_U
    assert classify_attack(_vuln(3, 5), 4, 3, rule) is AttackScenario.KU_P


def test_classifier_is_total_and_single_valued_over_all_orderings():
    # every ordering (with ties) of exploit, reserved, published and fix
    # months maps to exactly one of the six classes
    values = range(4)
    seen = set()
    for t_e, t_r, t_p in itertools.product(values, repeat=3):
        if t_r > t_p:
            continue
        for fix in list(values) + [None]:
            scenario = classify_attack(_vuln(t_r, t_p), t_e, fix)
            assert isinstance(scenario, AttackScenario)
            seen.add(scenario)
    assert seen == set(AttackScenario)


# ---------------------------------------------------------------------------
# Fix-month derivation


def test_fix_month_is_earliest_escape_across_products():
    record = vuln(
        "CVE-2010-0001",
        0,
        1,
        ("acme", "app", {"endIncluding": "1.1"}),
        ("acme", "other", {"endIncluding": "3.0"}),
    )
    timelines = {
        ("acme", "app"): [("1.0", 0), ("1.1", 2), ("2.0", 6)],
        ("acme", "other"): [("3.0", 0), ("3.1", 4)],
    }
    c = campaign("Alpha", 5, ["CVE-2010-0001"])
    assert make_catalog(timelines, [record], [c], horizon_end=11).fix_month == {"CVE-2010-0001": 4}
    assert make_catalog(timelines, [record], horizon_end=11).fix_month == {}  # only campaign CVEs are asked for
    # per product: a catalog holding only that product's timeline
    for key, month in [(("acme", "app"), 6), (("acme", "other"), 4)]:
        single = make_catalog({key: timelines[key]}, [record], [c], horizon_end=11)
        assert single.fix_month == {"CVE-2010-0001": month}, key


def test_fix_month_skips_releases_another_constraint_affects():
    # 2.0 and 2.1 lie above [1.0, 1.5) but inside [2.0, 2.3): the first escape is 1.5
    record = vuln(
        "CVE-2010-0001",
        0,
        1,
        ("acme", "app", {"startIncluding": "1.0", "endExcluding": "1.5"}),
        ("acme", "app", {"startIncluding": "2.0", "endExcluding": "2.3"}),
    )
    c = campaign("Alpha", 4, ["CVE-2010-0001"])
    releases = [("1.0", 0), ("2.0", 1), ("2.1", 2), ("1.5", 6), ("2.3", 8)]
    cat = make_catalog({("acme", "app"): releases}, [record], [c], horizon_end=11)
    assert cat.fix_month == {"CVE-2010-0001": 6}
    assert campaign_scenarios(c, cat) == {"CVE-2010-0001": AttackScenario.KK_U}


def test_fix_month_of_an_empty_range_counts_the_releases_at_its_end():
    # {"startExcluding": "2.0", "endExcluding": "2.0"} affects nothing, and 2.0 itself lies above
    # it: the escape is 2.0 (month 3), not 3.0, although the range's start bisects past 2.0
    empty = vuln("CVE-2008-000A", 0, 0, ("acme", "app", {"startExcluding": "2.0", "endExcluding": "2.0"}))
    exact = vuln("CVE-2008-000B", 0, 0, ("acme", "app", {"exact": "1.0"}))
    c = campaign("Alpha", 1, ["CVE-2008-000A", "CVE-2008-000B"])
    releases = [("1.0", 0), ("2.0", 3), ("3.0", 6)]
    cat = make_catalog({("acme", "app"): releases}, [empty, exact], [c], horizon_end=11)
    assert cat.affected_by("CVE-2008-000A") == frozenset()
    assert cat.fix_month == {"CVE-2008-000A": 3, "CVE-2008-000B": 3}
    assert campaign_scenarios(c, cat) == {"CVE-2008-000A": AttackScenario.KK_U, "CVE-2008-000B": AttackScenario.KK_U}


def test_fix_month_absent_when_no_release_escapes():
    record = vuln("CVE-2010-0001", 0, 1, ("acme", "app", {"startIncluding": "1.0"}))
    c = campaign("Alpha", 5, ["CVE-2010-0001"])
    cat = make_catalog({("acme", "app"): [("1.0", 0), ("2.0", 3)]}, [record], [c], horizon_end=11)
    assert cat.fix_month == {"CVE-2010-0001": None}


def test_classifying_never_builds_the_release_index(fixture_catalog):
    # fix months read the campaign CVEs' slices; the release -> CVE index is the builders' own
    assert fixture_catalog.fix_month
    assert "hitting" not in vars(fixture_catalog)
    for c in fixture_catalog.campaigns:
        classify_campaign(c, fixture_catalog)
    assert "hitting" not in vars(fixture_catalog)


def test_fix_month_matches_reference_on_random_catalogs():
    rng = random.Random(7)
    fixed = unfixed = 0
    for _ in range(300):
        # the oracle reads the match objects as drawn, not the parsed constraints
        drawn: dict = {}
        cat = random_catalog(rng, affected_out=drawn)
        expected = {}
        for cve in cat.campaign_cve_ids():
            by_product: dict = {}
            for vendor, product, match in drawn[cve]:
                by_product.setdefault((vendor, product), []).append(match)
            expected[cve] = min(
                (
                    rel.release_month
                    for key, matches in by_product.items() if key in cat.timelines
                    for rel in cat.timelines[key].releases
                    if any(ref_above(m, rel.version) for m in matches)
                    and not any(ref_matches(m, rel.version) for m in matches)
                ),
                default=None,
            )
        assert cat.fix_month == expected
        unfixed += sum(month is None for month in expected.values())
        fixed += sum(month is not None for month in expected.values())
    assert fixed and unfixed, (fixed, unfixed)  # the draws hold CVEs with and without an escape


# ---------------------------------------------------------------------------
# Campaign grouping


def test_classify_campaign_single_published_cve_is_kk(fixture_catalog):
    c = next(c for c in fixture_catalog.campaigns if c.start_month == 23)
    assert classify_campaign(c, fixture_catalog) == {"KK"}


def test_classify_campaign_reserved_only_is_ku(fixture_catalog):
    c = next(c for c in fixture_catalog.campaigns if c.apt_name == "Quartz")
    assert classify_campaign(c, fixture_catalog) == {"KU"}


def test_classify_campaign_mixes_groups():
    pre = vuln("CVE-2010-0001", 8, 9, ("acme", "app", {"exact": "1.0"}))
    pub = vuln("CVE-2010-0002", 0, 1, ("acme", "app", {"exact": "1.0"}))
    c = campaign("Alpha", 5, ["CVE-2010-0001", "CVE-2010-0002"])
    cat = make_catalog({("acme", "app"): [("1.0", 0)]}, [pre, pub], [c], horizon_end=11)
    assert classify_campaign(c, cat) == {"UU", "KK"}


def test_fixture_venn_counts(fixture_catalog):
    counts = venn_counts(fixture_catalog)
    assert counts["KK"] == 2
    assert counts["KU"] == 1
    assert counts["UU"] == 0
    assert counts["total"] == 3  # the vector-only campaign is not counted
    region_sum = sum(v for k, v in counts.items() if k != "total")
    assert region_sum == counts["total"]


def test_venn_regions_partition_on_random_catalogs():
    rng = random.Random(4242)
    for _ in range(30):
        cat = random_catalog(rng)
        counts = venn_counts(cat)
        cve_bearing = sum(
            1 for c in cat.campaigns if c.cve_ids and classify_campaign(c, cat)
        )
        assert sum(v for k, v in counts.items() if k != "total") == counts["total"] == cve_bearing
