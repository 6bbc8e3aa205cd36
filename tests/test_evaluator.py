import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import patchsim.evaluator
from conftest import (
    assert_success_months_match_reference,
    campaign,
    configs_with_delay,
    make_catalog,
    months_of,
    random_catalog,
    ref_monthly,
    ref_overall_probability,
    ref_percent_1dp,
    ref_success_months,
    runs_of,
    vuln,
)
from patchsim.campaigns import ExposureMatrix, build_campaign_matrix
from patchsim.catalog import Catalog, load_catalog
from patchsim.cli import DEFAULT_STRATEGIES, _evaluation_files
from patchsim.evaluator import (
    CampaignOutcome,
    evaluate,
    exposure_matrices,
    monthly_probabilities,
    odds_ratio,
    overall_probability,
    percent_1dp,
    probability_at,
    successful_months,
)
from patchsim.strategies import (
    Scenario,
    StrategyConfig,
    StrategyKind,
    apply_apt_first,
    build_matrix,
)


def _one_row_catalog():
    v = vuln("CVE-2010-0001", 0, 1, ("acme", "app", {"exact": "1.0"}))
    c = campaign("Alpha", 2, ["CVE-2010-0001"])
    return make_catalog({("acme", "app"): [("1.0", 0), ("2.0", 4)]}, [v], [c], horizon_end=11)


def test_successful_months_single_row_product():
    cat = _one_row_catalog()
    deployment = build_matrix(cat, StrategyConfig(StrategyKind.IMMEDIATE))  # 1.0 installed on [0, 3]
    exposure = build_campaign_matrix(cat.campaigns[0], cat)
    assert months_of(successful_months(deployment, exposure)) == {2, 3}


def test_successful_months_disjoint_sets_are_empty():
    v = vuln("CVE-2010-0001", 0, 1, ("acme", "app", {"exact": "9.9"}))
    c = campaign("Alpha", 2, ["CVE-2010-0001"])
    cat = make_catalog({("acme", "app"): [("1.0", 0), ("2.0", 4)]}, [v], [c], horizon_end=11)
    deployment = build_matrix(cat, StrategyConfig(StrategyKind.IMMEDIATE))
    exposure = build_campaign_matrix(c, cat)
    assert months_of(successful_months(deployment, exposure)) == frozenset()


def test_successful_months_includes_apt_first_transition_hit():
    # targeted outgoing version is only exposed during the transition month
    v = vuln("CVE-2010-0001", 0, 1, ("acme", "app", {"exact": "1.0"}))
    c = campaign("Alpha", 4, ["CVE-2010-0001"])
    cat = make_catalog({("acme", "app"): [("1.0", 0), ("2.0", 4)]}, [v], [c], horizon_end=11)
    optimistic = build_matrix(cat, StrategyConfig(StrategyKind.IMMEDIATE))
    exposure = build_campaign_matrix(c, cat)
    assert months_of(successful_months(optimistic, exposure)) == frozenset()
    pessimistic = apply_apt_first(optimistic)
    assert months_of(successful_months(pessimistic, exposure)) == {4}


def test_successful_months_reads_only_rows_installed_at_the_campaign_start():
    # hand-built (lo, hi) per row around a campaign starting in month 4: row 0 is
    # replaced exactly in the start month, row 1 is installed after the start,
    # rows 2 and 3 are never installed (lo == hi), row 4 spans the start
    space = object()
    deployment = SimpleNamespace(space=space, intervals=((0, 6, 0, 7, 2), (4, 9, 0, 7, 5)))
    record = campaign("Alpha", 4, ["CVE-2010-0001"])

    def hit(*rows):
        return months_of(successful_months(deployment, ExposureMatrix(space=space, rows=rows, campaign=record)))

    assert hit(0) == frozenset()
    assert hit(1) == {6, 7, 8}
    assert hit(2) == hit(3) == frozenset()
    assert hit(4) == {4}
    assert hit(0, 1, 2, 3, 4) == {4, 6, 7, 8}


def test_empty_intervals_give_no_run_and_no_success():
    # a campaign starting in month 4: rows 0 and 2 are never installed (lo == hi,
    # before and after the start), rows 1 and 3 are replaced exactly in the start month
    space = object()
    deployment = SimpleNamespace(space=space, intervals=((3, 0, 5, 2), (3, 4, 5, 4)))
    record = campaign("Alpha", 4, ["CVE-2010-0001"])
    for rows in ((0,), (1,), (2,), (3,), (0, 1, 2, 3)):
        runs = successful_months(deployment, ExposureMatrix(space=space, rows=rows, campaign=record))
        assert runs == ()
        assert not CampaignOutcome(record, runs).success


def test_overlapping_and_touching_runs_merge():
    # rows installed over [4, 6), [6, 8), [8, 9) touch, [5, 7) overlaps them,
    # [10, 11) lies inside [10, 12), and [0, 3) is clipped to the start month 1
    space = object()
    deployment = SimpleNamespace(space=space, intervals=((4, 6, 8, 5, 10, 10, 0), (6, 8, 9, 7, 12, 11, 3)))
    record = campaign("Alpha", 1, ["CVE-2010-0001"])
    runs = successful_months(deployment, ExposureMatrix(space=space, rows=tuple(range(7)), campaign=record))
    assert runs == ((1, 3), (4, 9), (10, 12))


def test_successful_months_rejects_mismatched_spaces(fixture_catalog):
    small = _one_row_catalog()
    deployment = build_matrix(fixture_catalog, StrategyConfig(StrategyKind.IMMEDIATE))
    exposure = build_campaign_matrix(small.campaigns[0], small)
    with pytest.raises(ValueError, match="space"):
        successful_months(deployment, exposure)


# ---------------------------------------------------------------------------
# Probability arithmetic


def _outcome(apt, start, months):
    return CampaignOutcome(campaign(apt, start, ["CVE-2010-0001"]), runs_of(months))


def test_probability_at_counts_active_campaigns():
    outcomes = [_outcome("A", 0, {3}), _outcome("B", 2, set())]
    assert probability_at(outcomes, 3) == Fraction(1, 2)
    assert probability_at(outcomes, 1) == Fraction(0, 1)


def test_probability_at_none_when_no_campaign_active():
    outcomes = [_outcome("A", 5, {6})]
    assert probability_at(outcomes, 4) is None


def test_probability_at_all_succeeding():
    outcomes = [_outcome(a, 0, {1}) for a in "ABC"]
    assert probability_at(outcomes, 1) == 1


def test_monthly_probabilities_read_each_month():
    outcomes = [_outcome("A", 0, {3}), _outcome("B", 2, {2, 3}), _outcome("C", 5, {6})]
    assert monthly_probabilities(outcomes, 7) == (
        0, 0, Fraction(1, 2), 1, 0, 0, Fraction(1, 3)
    )
    assert monthly_probabilities(outcomes, 2) == (0, 0)
    assert monthly_probabilities([_outcome("A", 3, {3})], 4) == (None, None, None, 1)


def test_monthly_probabilities_ignore_months_before_start():
    # a success month before the campaign starts is not a success of an active campaign
    outcomes = [_outcome("A", 2, {1, 2}), _outcome("B", 0, set())]
    assert monthly_probabilities(outcomes, 3) == (0, 0, Fraction(1, 2))
    assert [probability_at(outcomes, m) for m in range(3)] == [ref_monthly(outcomes, m) for m in range(3)]


def test_monthly_probabilities_clip_runs_to_the_start_and_the_window():
    # runs that begin before the campaign start or end past n_months count
    # only inside [start, n_months)
    outcomes = [
        CampaignOutcome(campaign("A", 2, ["CVE-2010-0001"]), ((0, 4),)),
        CampaignOutcome(campaign("B", 0, ["CVE-2010-0001"]), ((1, 9),)),
        CampaignOutcome(campaign("C", 3, ["CVE-2010-0001"]), ((0, 2), (7, 9))),
    ]
    assert monthly_probabilities(outcomes, 5) == (0, 1, 1, Fraction(2, 3), Fraction(1, 3))
    assert monthly_probabilities(outcomes, 5) == tuple(ref_monthly(outcomes, m) for m in range(5))
    assert monthly_probabilities(outcomes[2:], 2) == (None, None)


def test_overall_counts_each_campaign_once():
    lucky = _outcome("A", 0, set(range(10)))
    assert overall_probability([lucky]) == 1
    many = [_outcome(str(i), 0, {1} if i < 36 else set()) for i in range(72)]
    assert overall_probability(many) == Fraction(1, 2)
    with pytest.raises(ValueError):
        overall_probability([])


# ---------------------------------------------------------------------------
# Odds ratios


def test_odds_ratio_tabulated_values():
    assert odds_ratio(0.5833, 0.2222) == pytest.approx(4.9, abs=0.05)
    assert odds_ratio(0.75, 0.2222) == pytest.approx(10.5, abs=0.05)


def test_odds_ratio_self_is_exactly_one():
    p = Fraction(16, 72)
    assert odds_ratio(p, p) == 1.0


def test_odds_ratio_undefined_cases():
    assert odds_ratio(1, Fraction(1, 2)) is None
    assert odds_ratio(Fraction(1, 2), 0) is None
    assert odds_ratio(Fraction(1, 2), 1) is None
    with pytest.raises(ValueError):
        odds_ratio(-0.1, 0.5)


def test_percent_rendering_one_decimal():
    assert percent_1dp(Fraction(16, 72)) == "22.2"
    assert percent_1dp(Fraction(1, 2000)) == "0.1"
    assert percent_1dp(Fraction(3, 2000)) == "0.2"
    assert percent_1dp(Fraction(42, 72)) == "58.3"
    assert percent_1dp(Fraction(63, 72)) == "87.5"
    assert percent_1dp(Fraction(1, 1)) == "100.0"
    assert percent_1dp(Fraction(0, 1)) == "0.0"


@given(
    st.one_of(
        st.fractions(min_value=0, max_value=1),
        st.builds(Fraction, st.integers(0, 2000), st.just(2000)),  # half-way cases
    )
)
@example(Fraction(1, 2000))
@example(Fraction(3, 2000))
@example(Fraction(1999, 2000))
def test_percent_rendering_matches_fraction_arithmetic(value):
    assert percent_1dp(value) == ref_percent_1dp(value)


# ---------------------------------------------------------------------------
# Full evaluation on the bundled fixture (three matrix campaigns)


def _report(reports, kind, delay, scenario):
    return next(
        r
        for r in reports
        if r.config.kind is kind and r.config.delay_months == delay and r.scenario is scenario
    )


def test_fixture_evaluation_probabilities(fixture_catalog):
    configs = [
        StrategyConfig(StrategyKind.IMMEDIATE),
        StrategyConfig(StrategyKind.PLANNED, 1),
        StrategyConfig(StrategyKind.REACTIVE, 1),
        StrategyConfig(StrategyKind.INFORMED_REACTIVE, 1),
    ]
    reports = evaluate(fixture_catalog, configs)
    assert len(reports) == 8

    assert _report(reports, StrategyKind.IMMEDIATE, 0, Scenario.UPDATE_FIRST).overall == Fraction(1, 3)
    assert _report(reports, StrategyKind.IMMEDIATE, 0, Scenario.APT_FIRST).overall == Fraction(1, 3)
    assert _report(reports, StrategyKind.PLANNED, 1, Scenario.UPDATE_FIRST).overall == Fraction(1, 3)
    assert _report(reports, StrategyKind.PLANNED, 1, Scenario.APT_FIRST).overall == Fraction(2, 3)
    assert _report(reports, StrategyKind.REACTIVE, 1, Scenario.UPDATE_FIRST).overall == Fraction(2, 3)
    assert _report(reports, StrategyKind.INFORMED_REACTIVE, 1, Scenario.UPDATE_FIRST).overall == Fraction(1, 3)

    baseline = _report(reports, StrategyKind.IMMEDIATE, 0, Scenario.UPDATE_FIRST)
    assert baseline.odds_vs_baseline == 1.0
    pessimistic_planned = _report(reports, StrategyKind.PLANNED, 1, Scenario.APT_FIRST)
    assert pessimistic_planned.odds_vs_baseline == pytest.approx(4.0)


def test_fixture_campaign_outcomes(fixture_catalog):
    reports = evaluate(fixture_catalog, [StrategyConfig(StrategyKind.REACTIVE, 1)], [Scenario.UPDATE_FIRST])
    (report,) = reports
    by_key = {o.campaign.key: o for o in report.outcomes}
    assert len(by_key) == 3  # the vector-only campaign is excluded
    assert months_of(by_key[("Nightshade", 23)].success_months) == {23}
    assert months_of(by_key[("Quartz", 14)].success_months) == frozenset(range(14, 21))
    assert not by_key[("Nightshade", 42)].success


def test_fixture_monthly_series(fixture_catalog):
    reports = evaluate(fixture_catalog, [StrategyConfig(StrategyKind.IMMEDIATE)], [Scenario.UPDATE_FIRST])
    (report,) = reports
    assert report.monthly[13] is None  # no campaign active yet
    assert report.monthly[14] == 1  # Quartz active and succeeding
    assert report.monthly[20] == 0  # Quartz active, update already landed
    assert report.monthly[23] == 0  # two active, none succeeding
    assert len(report.monthly) == fixture_catalog.horizon.n_months


def test_equal_configs_build_one_matrix(fixture_catalog, monkeypatch):
    # the reactive pick means nothing to immediate and planned: the configs
    # equal the default baseline and planned:1, so two builds, not three
    built = []

    def counting(catalog, config):
        built.append(config)
        return build_matrix(catalog, config)

    monkeypatch.setattr(patchsim.evaluator, "build_matrix", counting)
    evaluate(fixture_catalog, [StrategyConfig.parse("immediate", "latest"), StrategyConfig.parse("planned:1", "latest")])
    assert built == [StrategyConfig(StrategyKind.IMMEDIATE), StrategyConfig(StrategyKind.PLANNED, 1)]


def _count_computations(monkeypatch, name: str) -> list:
    """Record each computation of the cached property Catalog.<name>."""
    computed, compute = [], Catalog.__dict__[name].func

    def counting(catalog):
        computed.append(catalog)
        return compute(catalog)

    prop = cached_property(counting)
    prop.__set_name__(Catalog, name)
    monkeypatch.setattr(Catalog, name, prop)
    return computed


def test_start_releases_are_computed_once_per_catalog(fixture_paths, monkeypatch):
    # every config's build_matrix reads its start releases and, for immediate
    # and planned, its upgrade path from the catalog, so evaluating ten configs
    # computes each once and unions the campaign CVEs' affected releases no
    # more often than evaluating one
    unions = []
    campaign_cve_ids = Catalog.campaign_cve_ids

    def counting(catalog):
        unions.append(catalog)
        return campaign_cve_ids(catalog)

    monkeypatch.setattr(Catalog, "campaign_cve_ids", counting)
    starts, upgrades = _count_computations(monkeypatch, "start"), _count_computations(monkeypatch, "upgrades")
    built = []

    def building(catalog, config):
        built.append(build_matrix(catalog, config))
        return built[-1]

    monkeypatch.setattr(patchsim.evaluator, "build_matrix", building)
    configs = [StrategyConfig.parse(token) for token in DEFAULT_STRATEGIES.split(",")]
    calls = []
    for some in (configs[:1], configs):
        catalog = load_catalog(fixture_paths["releases"], fixture_paths["vulns"], fixture_paths["campaigns"])
        for log in (unions, starts, upgrades, built):
            log.clear()
        assert len(evaluate(catalog, some)) == 2 * len(some)
        calls.append(len(unions))
        assert starts == upgrades == [catalog]
        assert len(built) == len(some) and all(matrix.start is catalog.start for matrix in built)
    assert calls[0] == calls[1]


def test_evaluate_builds_neither_the_affects_index_nor_fix_months(fixture_catalog):
    # the builders read `hitting` and exposure reads the campaign CVEs' slices; fix months
    # are only for classifying
    configs = [StrategyConfig.parse(token) for token in DEFAULT_STRATEGIES.split(",")]
    assert len(evaluate(fixture_catalog, configs)) == 2 * len(configs)
    assert "fix_month" not in vars(fixture_catalog)


def test_an_evaluated_catalog_is_freed_without_the_cycle_collector(fixture_paths):
    # the indexes that builds share live on the catalog and must not point back at it: a
    # reference cycle would keep every index alive after the run, until a collection
    configs = [StrategyConfig.parse(token) for token in DEFAULT_STRATEGIES.split(",")]
    gc.disable()
    try:
        catalog = load_catalog(fixture_paths["releases"], fixture_paths["vulns"], fixture_paths["campaigns"])
        evaluate(catalog, configs)
        freed = weakref.ref(catalog)
        del catalog
        assert freed() is None
    finally:
        gc.enable()


def test_baseline_reuses_its_report_outcomes(fixture_catalog, monkeypatch):
    # the default baseline (immediate, update-first) is also a report: each of
    # the 20 default reports scores every exposure once, and the baseline none
    scored = Counter()

    def counting(deployment, exposure):
        scored[(deployment.config, deployment.scenario)] += 1
        return successful_months(deployment, exposure)

    monkeypatch.setattr(patchsim.evaluator, "successful_months", counting)
    configs = [StrategyConfig.parse(token) for token in DEFAULT_STRATEGIES.split(",")]
    reports = evaluate(fixture_catalog, configs)
    assert len(reports) == len(scored) == 20
    assert set(scored.values()) == {len(exposure_matrices(fixture_catalog))}


def test_evaluate_builds_each_config_and_scores_each_pair_once(fixture_catalog, monkeypatch):
    # duplicate configs, apt-first listed first and a baseline that is no report:
    # three distinct configs are built once, five distinct pairs scored once
    built, scored = Counter(), Counter()

    def building(catalog, config):
        built[config] += 1
        return build_matrix(catalog, config)

    def counting(deployment, exposure):
        scored[(deployment.config, deployment.scenario)] += 1
        return successful_months(deployment, exposure)

    monkeypatch.setattr(patchsim.evaluator, "build_matrix", building)
    monkeypatch.setattr(patchsim.evaluator, "successful_months", counting)
    configs = [StrategyConfig.parse(token) for token in ("planned:1", "planned:1", "reactive:3")]
    scenarios = [Scenario.APT_FIRST, Scenario.UPDATE_FIRST]
    baseline = (StrategyConfig.parse("planned:7"), Scenario.APT_FIRST)
    reports = evaluate(fixture_catalog, configs, scenarios, baseline=baseline)
    pairs = [(c, s) for c in configs for s in scenarios]
    assert built == Counter({config: 1 for config in [baseline[0], *configs]})
    assert set(scored) == {baseline, *pairs}
    assert set(scored.values()) == {len(exposure_matrices(fixture_catalog))}
    assert [(r.config, r.scenario) for r in reports] == pairs
    assert reports[0].outcomes is reports[2].outcomes  # a repeated config reads the one scored pair


def test_recorded_success_months_are_the_reported_ones(fixture_catalog, monkeypatch):
    # a traced benchmark run stores what each successful_months call returns and
    # compares it with evaluate()'s outcomes: both must be the same runs
    recorded = {}

    def recording(deployment, exposure):
        runs = successful_months(deployment, exposure)
        recorded[(deployment.config, deployment.scenario, exposure.campaign.key)] = runs
        return runs

    monkeypatch.setattr(patchsim.evaluator, "successful_months", recording)
    configs = [StrategyConfig.parse(token) for token in DEFAULT_STRATEGIES.split(",")]
    for catalog in [fixture_catalog] + [random_catalog(random.Random(seed)) for seed in range(10)]:
        if not exposure_matrices(catalog):
            continue
        recorded.clear()
        reports = evaluate(catalog, configs)
        composed = {(r.config, r.scenario, o.campaign.key): o.success_months for r in reports for o in r.outcomes}
        assert composed == recorded


def test_evaluate_is_deterministic(fixture_catalog):
    configs = [StrategyConfig(StrategyKind.PLANNED, 3), StrategyConfig(StrategyKind.REACTIVE, 3)]
    first = evaluate(fixture_catalog, configs)
    second = evaluate(fixture_catalog, configs)
    assert _evaluation_files(first, fixture_catalog)["evaluate.json"] == (
        _evaluation_files(second, fixture_catalog)["evaluate.json"]
    )


def test_evaluate_requires_configs_and_scenarios(fixture_catalog):
    with pytest.raises(ValueError):
        evaluate(fixture_catalog, [])
    with pytest.raises(ValueError):
        evaluate(fixture_catalog, [StrategyConfig(StrategyKind.IMMEDIATE)], [])


def test_campaigns_without_matching_product_excluded_from_denominator():
    v_hit = vuln("CVE-2010-0001", 0, 1, ("acme", "app", {"exact": "1.0"}))
    v_miss = vuln("CVE-2010-0002", 0, 1, ("acme", "ghost", {"exact": "9.9"}))
    campaigns = [
        campaign("Alpha", 2, ["CVE-2010-0001"]),
        campaign("Bravo", 2, ["CVE-2010-0002"]),
        campaign("Chi", 2, vectors=["spearphishing"]),
    ]
    cat = make_catalog({("acme", "app"): [("1.0", 0)]}, [v_hit, v_miss], campaigns, horizon_end=11)
    exposures = exposure_matrices(cat)
    assert [e.campaign.apt_name for e in exposures] == ["Alpha"]
    reports = evaluate(cat, [StrategyConfig(StrategyKind.IMMEDIATE)], [Scenario.UPDATE_FIRST])
    assert reports[0].overall == 1


def test_apt_first_dominates_update_first_on_fixture(fixture_catalog):
    for config in (StrategyConfig(StrategyKind.IMMEDIATE), StrategyConfig(StrategyKind.PLANNED, 7)):
        matrix = build_matrix(fixture_catalog, config)
        reports = evaluate(fixture_catalog, [config])
        update_first = _report(reports, config.kind, config.delay_months, Scenario.UPDATE_FIRST)
        apt_first = _report(reports, config.kind, config.delay_months, Scenario.APT_FIRST)
        assert apt_first.overall >= update_first.overall
        assert matrix.scenario is Scenario.UPDATE_FIRST


def test_fixture_agreement_between_planned_and_reactive(fixture_catalog):
    from patchsim.stats import pairwise_agreement

    configs = [StrategyConfig(StrategyKind.PLANNED, 1), StrategyConfig(StrategyKind.REACTIVE, 1)]
    planned, reactive = evaluate(fixture_catalog, configs, [Scenario.UPDATE_FIRST])
    proportion, ci = pairwise_agreement(planned.outcomes, reactive.outcomes)
    # planned succeeds only on Quartz; reactive also on Nightshade@23
    assert proportion == Fraction(2, 3)
    assert 0.0 <= ci.low <= float(proportion) <= ci.high <= 1.0


def test_overall_matches_reference_walker_on_random_catalogs():
    rng = random.Random(11)
    configs = [
        StrategyConfig(StrategyKind.IMMEDIATE),
        StrategyConfig(StrategyKind.REACTIVE, 1),
    ]
    checked = 0
    while checked < 25:
        cat = random_catalog(rng)
        if not exposure_matrices(cat):
            continue
        checked += 1
        for config in configs:
            for scenario in (Scenario.UPDATE_FIRST, Scenario.APT_FIRST):
                reports = evaluate(cat, [config], [scenario])
                matrix = build_matrix(cat, config)
                if scenario is Scenario.APT_FIRST:
                    matrix = apply_apt_first(matrix)
                assert reports[0].overall == ref_overall_probability(cat, matrix)


def test_monthly_series_matches_per_month_rescan_on_random_catalogs():
    rng = random.Random(23)
    configs = [StrategyConfig(StrategyKind.PLANNED, 1), StrategyConfig(StrategyKind.REACTIVE, 1)]
    checked = 0
    while checked < 25:
        cat = random_catalog(rng)
        if not exposure_matrices(cat):
            continue
        checked += 1
        for report in evaluate(cat, configs, [Scenario.UPDATE_FIRST, Scenario.APT_FIRST]):
            assert len(report.monthly) == cat.horizon.n_months
            for m, p in enumerate(report.monthly):
                assert p == ref_monthly(report.outcomes, m)
                assert probability_at(report.outcomes, m) == p
            # the documented sharing: months with the same counts share one object
            counts = [
                (sum(m in months_of(o.success_months) for o in report.outcomes),
                 sum(o.campaign.start_month <= m for o in report.outcomes))
                for m in range(cat.horizon.n_months)
            ]
            for m in range(1, cat.horizon.n_months):
                assert (report.monthly[m] is report.monthly[m - 1]) == (counts[m] == counts[m - 1])


@pytest.mark.parametrize("delay", [0, 1, 3, 7])
def test_success_months_match_per_month_oracle_on_random_catalogs(delay):
    configs = configs_with_delay(delay)
    for seed in range(100):
        assert_success_months_match_reference(random_catalog(random.Random(seed)), configs, seed)


def test_start_release_replaced_in_month_0_is_installed_only_under_apt_first():
    # reactive:0 leaves 1.0 for 2.0 in month 0: apt-first keeps 1.0 for that
    # month alone, update-first never installs it
    v = vuln("CVE-2010-0001", 0, 0, ("acme", "app", {"exact": "1.0"}))
    cat = make_catalog(
        {("acme", "app"): [("1.0", 0), ("2.0", 0)]}, [v], [campaign("Alpha", 0, [v.cve_id])], horizon_end=11
    )
    expected = {Scenario.UPDATE_FIRST: set(), Scenario.APT_FIRST: {0}}
    for kind in (StrategyKind.REACTIVE, StrategyKind.INFORMED_REACTIVE):
        for report in evaluate(cat, [StrategyConfig(kind, 0)]):
            assert months_of(report.outcomes[0].success_months) == expected[report.scenario]
            assert ref_success_months(cat, kind.value, 0, "first", report.scenario) == {
                ("Alpha", 0): expected[report.scenario]
            }
