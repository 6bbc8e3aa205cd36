import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_success_months_match_reference,
    campaign,
    configs_with_delay,
    dense,
    installed_series,
    make_catalog,
    make_timeline,
    matrix_problems,
    random_catalog,
    ref_matches,
    ref_strategy_run,
    vuln,
)
from patchsim.catalog import load_catalog
from patchsim.months import DataError
from patchsim.strategies import (
    REACTIVE_PICKS,
    Scenario,
    StrategyConfig,
    StrategyKind,
    apply_apt_first,
    build_matrix,
    count_updates,
    first_nonvulnerable,
)

IMMEDIATE = StrategyConfig(StrategyKind.IMMEDIATE)


def _installed_versions(matrix, key):
    """Per-month sorted version names for one product."""
    return [sorted(r.version for r in cells) for cells in installed_series(matrix, key)]


def _constant_segments(matrix, key):
    """Compress the single-version series into [(version, first, last)]."""
    series = _installed_versions(matrix, key)
    segments = []
    for m, versions in enumerate(series):
        assert len(versions) == 1
        v = versions[0]
        if segments and segments[-1][0] == v:
            segments[-1] = (v, segments[-1][1], m)
        else:
            segments.append((v, m, m))
    return segments


# ---------------------------------------------------------------------------
# Strategy config parsing


def test_config_grammar():
    assert StrategyConfig.parse("immediate") == StrategyConfig(StrategyKind.IMMEDIATE)
    assert StrategyConfig.parse("planned:3") == StrategyConfig(StrategyKind.PLANNED, 3)
    assert StrategyConfig.parse("informed:7") == StrategyConfig(StrategyKind.INFORMED_REACTIVE, 7)
    assert StrategyConfig.parse("reactive:1", "latest").reactive_pick == "latest"
    assert StrategyConfig.parse("immediate", "latest") == StrategyConfig(
        StrategyKind.IMMEDIATE, reactive_pick="latest"
    )
    # the pick only matters to reactive kinds: elsewhere it is not part of the config
    assert StrategyConfig.parse("planned:1", "latest") == StrategyConfig(StrategyKind.PLANNED, 1)
    assert StrategyConfig(StrategyKind.IMMEDIATE, reactive_pick="latest").reactive_pick == "first"
    assert StrategyConfig.parse("informed:1", "latest") != StrategyConfig(StrategyKind.INFORMED_REACTIVE, 1)
    with pytest.raises(ValueError):
        StrategyConfig(StrategyKind.IMMEDIATE, reactive_pick="newest")
    with pytest.raises(ValueError):
        StrategyConfig.parse("immediate:1")
    with pytest.raises(ValueError):
        StrategyConfig.parse("planned")
    with pytest.raises(ValueError):
        StrategyConfig.parse("yolo:1")
    with pytest.raises(ValueError):
        StrategyConfig(StrategyKind.IMMEDIATE, 2)


# ---------------------------------------------------------------------------
# Initial versions


def test_initial_prefers_oldest_campaign_vulnerable_release():
    v = vuln("CVE-2010-0001", 2, 4, ("acme", "app", {"exact": "9.2"}))
    cat = make_catalog(
        {("acme", "app"): [("9.1", 0), ("9.2", 0), ("9.3", 3)]},
        [v],
        [campaign("Alpha", 5, ["CVE-2010-0001"])],
        horizon_end=23,
    )
    assert cat.start[("acme", "app")].version == "9.2"


def test_initial_falls_back_to_oldest_available():
    cat = make_catalog({("acme", "app"): [("9.1", 0), ("9.2", 0)]}, horizon_end=23)
    assert cat.start[("acme", "app")].version == "9.1"


def test_initial_single_release_at_epoch():
    cat = make_catalog({("acme", "app"): [("1.0", 0)]}, horizon_end=23)
    assert cat.start[("acme", "app")].version == "1.0"


def test_initial_missing_epoch_release_is_configuration_error():
    cat = make_catalog({("acme", "late-app"): [("1.0", 3)]}, horizon_end=23)
    with pytest.raises(DataError, match="late-app"):
        cat.start


def test_fixture_initials(fixture_catalog):
    start = fixture_catalog.start
    assert start[("adobe", "reader")].version == "9.1"
    assert start[("adobe", "flash")].version == "21.0.0.182"


# ---------------------------------------------------------------------------
# Immediate


def test_immediate_takes_newest_of_month():
    cat = make_catalog(
        {("acme", "app"): [("1.0", 0), ("1.1", 3), ("1.2", 3)]}, horizon_end=11
    )
    matrix = build_matrix(cat, IMMEDIATE)
    assert _constant_segments(matrix, ("acme", "app")) == [("1.0", 0, 2), ("1.2", 3, 11)]


def test_immediate_ignores_major_downgrade():
    cat = make_catalog({("oracle", "jre"): [("6u6", 0), ("5u13", 4)]}, horizon_end=11)
    matrix = build_matrix(cat, IMMEDIATE)
    assert _constant_segments(matrix, ("oracle", "jre")) == [("6u6", 0, 11)]


def test_immediate_single_release_constant_row():
    cat = make_catalog({("acme", "app"): [("1.0", 0)]}, horizon_end=11)
    matrix = build_matrix(cat, IMMEDIATE)
    assert _constant_segments(matrix, ("acme", "app")) == [("1.0", 0, 11)]
    assert count_updates(matrix) == (1, 0)


def test_fixture_immediate_trace(fixture_catalog):
    matrix = build_matrix(fixture_catalog, IMMEDIATE)
    assert _constant_segments(matrix, ("adobe", "reader")) == [
        ("9.1", 0, 4),
        ("9.2", 5, 13),
        ("9.3", 14, 33),
        ("10.0", 34, 40),
        ("10.1", 41, 144),
    ]
    assert _constant_segments(matrix, ("adobe", "flash")) == [
        ("21.0.0.182", 0, 11),
        ("21.0.0.213", 12, 19),
        ("21.0.0.242", 20, 144),
    ]
    assert count_updates(matrix) == (8, 6)
    assert matrix_problems(matrix) == []


# ---------------------------------------------------------------------------
# Planned


def test_planned_zero_delay_equals_immediate(fixture_catalog):
    planned = build_matrix(fixture_catalog, StrategyConfig(StrategyKind.PLANNED, 0))
    assert dense(planned) == dense(build_matrix(fixture_catalog, IMMEDIATE))


def test_planned_shifts_deployments():
    cat = make_catalog({("acme", "app"): [("1.0", 0), ("1.1", 3), ("1.2", 4)]}, horizon_end=11)
    matrix = build_matrix(cat, StrategyConfig(StrategyKind.PLANNED, 1))
    assert _constant_segments(matrix, ("acme", "app")) == [("1.0", 0, 3), ("1.1", 4, 4), ("1.2", 5, 11)]


def test_planned_drops_deployments_past_horizon():
    cat = make_catalog({("acme", "app"): [("1.0", 0), ("2.0", 140)]}, horizon_end=144)
    assert count_updates(build_matrix(cat, StrategyConfig(StrategyKind.PLANNED, 7))) == (1, 0)
    # exactly at the horizon end is kept
    kept = build_matrix(cat, StrategyConfig(StrategyKind.PLANNED, 4))
    assert count_updates(kept) == (2, 1)
    assert _installed_versions(kept, ("acme", "app"))[144] == ["2.0"]


def test_fixture_planned_counts_monotone(fixture_catalog):
    planned = [build_matrix(fixture_catalog, StrategyConfig(StrategyKind.PLANNED, d)) for d in (0, 1, 3, 7)]
    counts = [count_updates(matrix)[0] for matrix in planned]
    assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# Reactive / informed reactive


def _single_app_catalog(versions, vulns, campaigns=(), horizon_end=23):
    cats = make_catalog({("acme", "app"): versions}, vulns, list(campaigns), horizon_end=horizon_end)
    return cats


def test_reactive_fix_already_out_deploys_after_delay():
    v = vuln("CVE-2010-0001", 3, 5, ("acme", "app", {"exact": "1.0"}))
    cat = _single_app_catalog([("1.0", 0), ("2.0", 4)], [v])
    matrix = build_matrix(cat, StrategyConfig(StrategyKind.REACTIVE, 1))
    assert _constant_segments(matrix, ("acme", "app")) == [("1.0", 0, 5), ("2.0", 6, 23)]


def test_reactive_decision_waits_for_fix_release():
    v = vuln("CVE-2010-0001", 3, 5, ("acme", "app", {"exact": "1.0"}))
    cat = _single_app_catalog([("1.0", 0), ("2.0", 7)], [v])
    matrix = build_matrix(cat, StrategyConfig(StrategyKind.REACTIVE, 1))
    assert _constant_segments(matrix, ("acme", "app")) == [("1.0", 0, 7), ("2.0", 8, 23)]


def test_informed_reactive_triggers_at_reservation():
    v = vuln("CVE-2010-0001", 3, 5, ("acme", "app", {"exact": "1.0"}))
    cat = _single_app_catalog([("1.0", 0), ("2.0", 2)], [v])
    matrix = build_matrix(cat, StrategyConfig(StrategyKind.INFORMED_REACTIVE, 1))
    assert _constant_segments(matrix, ("acme", "app")) == [("1.0", 0, 3), ("2.0", 4, 23)]


def test_reactive_ignores_cve_missing_installed_version():
    v = vuln("CVE-2010-0001", 3, 5, ("acme", "app", {"exact": "9.9"}))
    cat = _single_app_catalog([("1.0", 0), ("2.0", 2)], [v])
    matrix = build_matrix(cat, StrategyConfig(StrategyKind.REACTIVE, 1))
    assert _constant_segments(matrix, ("acme", "app")) == [("1.0", 0, 23)]
    assert count_updates(matrix) == (1, 0)


def test_reactive_landing_past_horizon_keeps_start_release():
    # the escape 2.0 is out when A publishes at 22, but a delay of 3 lands at 25, past month 23
    v = vuln("CVE-2010-0001", 20, 22, ("acme", "app", {"exact": "1.0"}))
    cat = _single_app_catalog([("1.0", 0), ("2.0", 4)], [v])
    matrix = build_matrix(cat, StrategyConfig(StrategyKind.REACTIVE, 3))
    assert _constant_segments(matrix, ("acme", "app")) == [("1.0", 0, 23)]
    assert matrix.transitions == ()


def test_reactive_without_escape_keeps_release_as_more_cves_fire():
    # nothing escapes A (up to the newest release 2.0); B, published later, hits 1.0 as well
    a = vuln("CVE-2010-0001", 2, 5, ("acme", "app", {"endIncluding": "2.0"}))
    b = vuln("CVE-2010-0002", 2, 9, ("acme", "app", {"exact": "1.0"}))
    cat = _single_app_catalog([("1.0", 0), ("2.0", 3)], [a, b])
    for delay in (0, 1):
        matrix = build_matrix(cat, StrategyConfig(StrategyKind.REACTIVE, delay))
        assert _constant_segments(matrix, ("acme", "app")) == [("1.0", 0, 23)]
        assert matrix.transitions == ()


def test_reactive_pending_reresolves_against_union():
    # A (exact 1.0) publishes at 5 with escape 2.0 out at 4; B (<= 2.0)
    # publishes at 6 before the pending deployment lands, so the union's
    # escape is 3.0, only released at 9: deploy at 10.
    a = vuln("CVE-2010-0001", 2, 5, ("acme", "app", {"exact": "1.0"}))
    b = vuln("CVE-2010-0002", 2, 6, ("acme", "app", {"endIncluding": "2.0"}))
    cat = _single_app_catalog([("1.0", 0), ("2.0", 4), ("3.0", 9)], [a, b])
    matrix = build_matrix(cat, StrategyConfig(StrategyKind.REACTIVE, 1))
    assert _constant_segments(matrix, ("acme", "app")) == [("1.0", 0, 9), ("3.0", 10, 23)]


def test_reactive_rescans_after_upgrading_into_published_cve():
    # B hits the running 1.0 at month 4; the escape 2.0 carries its own
    # already-published CVE A, so a second reaction lands on 3.0.
    a = vuln("CVE-2010-0001", 1, 2, ("acme", "app", {"exact": "2.0"}))
    b = vuln("CVE-2010-0002", 2, 4, ("acme", "app", {"exact": "1.0"}))
    cat = _single_app_catalog([("1.0", 0), ("2.0", 3), ("3.0", 8)], [a, b])
    matrix = build_matrix(cat, StrategyConfig(StrategyKind.REACTIVE, 0))
    assert _constant_segments(matrix, ("acme", "app")) == [("1.0", 0, 3), ("2.0", 4, 7), ("3.0", 8, 23)]


def test_reactive_latest_pick_takes_newest_escape():
    v = vuln("CVE-2010-0001", 2, 5, ("acme", "app", {"exact": "1.0"}))
    cat = _single_app_catalog([("1.0", 0), ("2.0", 3), ("2.1", 4)], [v])
    first = build_matrix(cat, StrategyConfig(StrategyKind.REACTIVE, 1, reactive_pick="first"))
    latest = build_matrix(cat, StrategyConfig(StrategyKind.REACTIVE, 1, reactive_pick="latest"))
    assert _constant_segments(first, ("acme", "app"))[1][0] == "2.0"
    assert _constant_segments(latest, ("acme", "app"))[1][0] == "2.1"


def test_fixture_reactive_trace(fixture_catalog):
    matrix = build_matrix(fixture_catalog, StrategyConfig(StrategyKind.REACTIVE, 1))
    assert _constant_segments(matrix, ("adobe", "reader")) == [("9.1", 0, 23), ("9.3", 24, 144)]
    assert _constant_segments(matrix, ("adobe", "flash")) == [
        ("21.0.0.182", 0, 20),
        ("21.0.0.242", 21, 144),
    ]
    assert count_updates(matrix) == (4, 2)


def test_fixture_informed_trace(fixture_catalog):
    matrix = build_matrix(fixture_catalog, StrategyConfig(StrategyKind.INFORMED_REACTIVE, 1))
    assert _constant_segments(matrix, ("adobe", "reader")) == [("9.1", 0, 17), ("9.3", 18, 144)]
    assert _constant_segments(matrix, ("adobe", "flash")) == [
        ("21.0.0.182", 0, 20),
        ("21.0.0.242", 21, 144),
    ]


def test_first_nonvulnerable_sees_newer_release_out_before_installed_backport():
    # 2.0 came out before the installed 1.1 backport and is still newer than it
    timeline = make_timeline(("acme", "app"), [("1.0", 0), ("2.0", 1), ("1.1", 2), ("2.1", 3)])
    v10, v20, v11, v21 = timeline.releases
    assert v11.version == "1.1"
    assert first_nonvulnerable(timeline, set(), at=5, installed=v11) is v20
    assert first_nonvulnerable(timeline, {v20}, at=5, installed=v11) is v21
    assert first_nonvulnerable(timeline, {v20}, at=2, installed=v11) is None
    assert first_nonvulnerable(timeline, set(), at=2, installed=v11, pick="latest") is v20
    assert first_nonvulnerable(timeline, set(), at=5, installed=v11, pick="latest") is v21
    assert first_nonvulnerable(timeline, set(), at=5, installed=v20) is v21
    assert first_nonvulnerable(timeline, set(), at=5, installed=v21) is None
    assert first_nonvulnerable(timeline, set(), at=5, installed=v10) is v20


@pytest.mark.parametrize("delay", [0, 1])
def test_reactive_relapse_updates_again_the_next_month(delay):
    # leaving 1.0 (hit by B at 4) lands on 2.0, already hit by A since 2: the
    # relapse update follows a month later, even without a delay
    a = vuln("CVE-2010-0001", 0, 2, ("acme", "app", {"exact": "2.0"}))
    b = vuln("CVE-2010-0002", 0, 4, ("acme", "app", {"exact": "1.0"}))
    cat = make_catalog({("acme", "app"): [("1.0", 0), ("2.0", 3), ("3.0", 3)]}, [a, b], horizon_end=11)
    expected = [(4 + delay, "1.0", "2.0"), (5 + delay, "2.0", "3.0")]
    matrix = build_matrix(cat, StrategyConfig(StrategyKind.REACTIVE, delay))
    assert [(t.month, t.outgoing.version, t.incoming.version) for t in matrix.transitions] == expected
    assert ref_strategy_run(cat, "reactive", delay)[("acme", "app")][1] == expected


# ---------------------------------------------------------------------------
# Pessimistic transform


def test_apt_first_keeps_outgoing_version_for_transition_month(fixture_catalog):
    matrix = apply_apt_first(build_matrix(fixture_catalog, IMMEDIATE))
    series = _installed_versions(matrix, ("adobe", "reader"))
    assert series[5] == ["9.1", "9.2"]
    assert series[14] == ["9.2", "9.3"]
    assert series[4] == ["9.1"]
    assert series[6] == ["9.2"]
    assert matrix_problems(matrix) == []


def test_apt_first_adds_exactly_one_cell_per_transition(fixture_catalog):
    base = build_matrix(fixture_catalog, IMMEDIATE)
    pessimistic = apply_apt_first(base)
    assert len(dense(pessimistic)) == len(dense(base)) + len(base.transitions)
    assert dense(base) <= dense(pessimistic)


def test_apt_first_without_transitions_changes_nothing():
    cat = make_catalog({("acme", "app"): [("1.0", 0)]}, horizon_end=11)
    base = build_matrix(cat, IMMEDIATE)
    assert dense(apply_apt_first(base)) == dense(base)


def test_apt_first_twice_is_idempotent(fixture_catalog):
    base = build_matrix(fixture_catalog, IMMEDIATE)
    pessimistic = apply_apt_first(base)
    twice = apply_apt_first(pessimistic)
    assert dense(pessimistic) != dense(base)  # the fixture has transitions, so apt-first shows
    assert twice.scenario is Scenario.APT_FIRST
    assert dense(twice) == dense(pessimistic)
    assert twice.steps is pessimistic.steps is base.steps  # filled once per built config


# ---------------------------------------------------------------------------
# Update counting


def test_count_updates_three_versions_one_product():
    cat = make_catalog({("acme", "app"): [("1.0", 0), ("1.1", 2), ("1.2", 5)]}, horizon_end=11)
    assert count_updates(build_matrix(cat, IMMEDIATE)) == (3, 2)


def test_count_updates_keeps_a_start_release_replaced_in_month_0():
    # without a delay, 1.0 gives way to 2.0 in month 0 and has no update-first cell
    v = vuln("CVE-2010-0001", 0, 0, ("acme", "app", {"exact": "1.0"}))
    cat = make_catalog({("acme", "app"): [("1.0", 0), ("2.0", 0)]}, [v], horizon_end=11)
    for kind in (StrategyKind.REACTIVE, StrategyKind.INFORMED_REACTIVE):
        matrix = build_matrix(cat, StrategyConfig(kind, 0))
        assert [(t.month, t.outgoing.version, t.incoming.version) for t in matrix.transitions] == [(0, "1.0", "2.0")]
        assert count_updates(matrix) == count_updates(apply_apt_first(matrix)) == (2, 1)


def test_matrix_carries_the_config_it_was_built_with(fixture_catalog):
    for config in (
        StrategyConfig(StrategyKind.PLANNED, 0),
        StrategyConfig(StrategyKind.IMMEDIATE, reactive_pick="latest"),
        StrategyConfig(StrategyKind.INFORMED_REACTIVE, 2, reactive_pick="latest"),
    ):
        assert build_matrix(fixture_catalog, config).config == config


# ---------------------------------------------------------------------------
# Randomized structural properties


_CONFIGS = [
    StrategyConfig(StrategyKind.IMMEDIATE),
    StrategyConfig(StrategyKind.PLANNED, 1),
    StrategyConfig(StrategyKind.PLANNED, 3),
    StrategyConfig(StrategyKind.REACTIVE, 1),
    StrategyConfig(StrategyKind.REACTIVE, 2, reactive_pick="latest"),
    StrategyConfig(StrategyKind.INFORMED_REACTIVE, 1),
]


def test_matrix_invariants_on_random_catalogs():
    rng = random.Random(1337)
    for _ in range(40):
        cat = random_catalog(rng, horizon_end=47)
        for config in _CONFIGS:
            matrix = build_matrix(cat, config)
            assert matrix_problems(matrix) == [], (config, matrix_problems(matrix))
            pessimistic = apply_apt_first(matrix)
            assert matrix_problems(pessimistic) == []
            assert dense(matrix) <= dense(pessimistic)
            assert len(dense(pessimistic)) == len(dense(matrix)) + len(matrix.transitions)
            assert count_updates(pessimistic) == count_updates(matrix)


def test_planned_counts_never_increase_with_delay_on_random_catalogs():
    rng = random.Random(2024)
    for _ in range(40):
        cat = random_catalog(rng, horizon_end=47)
        planned = [build_matrix(cat, StrategyConfig(StrategyKind.PLANNED, d)) for d in (0, 1, 3, 7)]
        counts = [count_updates(matrix)[0] for matrix in planned]
        assert counts == sorted(counts, reverse=True), counts
        assert dense(planned[0]) == dense(build_matrix(cat, IMMEDIATE))


def test_planned_is_immediate_truncated_and_shifted(fixture_catalog):
    """planned:k's transitions are immediate's with month <= end - k, each
    landing k months later; ref_strategy_run checks each delay on its own."""
    catalogs = [fixture_catalog] + [random_catalog(random.Random(seed)) for seed in range(300)]
    for index, cat in enumerate(catalogs):
        immediate = build_matrix(cat, IMMEDIATE)
        end = cat.horizon.end_index
        for delay in (1, 2, 3, 7):
            planned = build_matrix(cat, StrategyConfig(StrategyKind.PLANNED, delay))
            shifted = tuple(t._replace(month=t.month + delay) for t in immediate.transitions if t.month <= end - delay)
            assert planned.start == immediate.start, (index, delay)
            assert planned.transitions == shifted, (index, delay)


def test_reactive_never_installs_a_triggering_cve_on_random_catalogs():
    rng = random.Random(77)
    for _ in range(40):
        cat = random_catalog(rng, horizon_end=47)
        for kind in (StrategyKind.REACTIVE, StrategyKind.INFORMED_REACTIVE):
            informed = kind is StrategyKind.INFORMED_REACTIVE
            matrix = build_matrix(cat, StrategyConfig(kind, rng.choice([0, 1, 3])))
            for t in matrix.transitions:
                for record in cat.vulns.values():
                    trigger = record.reserved_month if informed else record.published_month
                    if trigger > t.month:
                        continue
                    hits_outgoing = any(
                        ref_matches(pc.constraint.to_mapping(), t.outgoing.version)
                        for pc in record.affected
                        if pc.key == t.incoming.product
                    )
                    if not hits_outgoing:
                        continue
                    hits_incoming = any(
                        ref_matches(pc.constraint.to_mapping(), t.incoming.version)
                        for pc in record.affected
                        if pc.key == t.incoming.product
                    )
                    assert not hits_incoming, (t, record.cve_id)


def _assert_matches_reference(catalog, config, context):
    matrix = build_matrix(catalog, config)
    expected = ref_strategy_run(catalog, config.kind.value, config.delay_months, config.reactive_pick)
    for key, (versions, transitions) in expected.items():
        assert _installed_versions(matrix, key) == [[v] for v in versions], (context, config, key)
        got_transitions = [
            (t.month, t.outgoing.version, t.incoming.version) for t in matrix.transitions if t.incoming.product == key
        ]
        assert got_transitions == transitions, (context, config, key)


@pytest.mark.parametrize("delay", [0, 1, 3])
def test_builders_match_month_walking_reference_on_random_catalogs(delay):
    for seed in range(200):
        catalog = random_catalog(random.Random(seed))
        for config in configs_with_delay(delay):
            _assert_matches_reference(catalog, config, seed)


_TWO_RANGES = {
    "overlapping": ({"startIncluding": "1.0", "endExcluding": "2.0"}, {"startIncluding": "1.5", "endIncluding": "2.1"}),
    "disjoint": ({"startIncluding": "1.0", "endExcluding": "1.5"}, {"startIncluding": "2.0", "endExcluding": "2.3"}),
}


@pytest.mark.parametrize("shape", sorted(_TWO_RANGES))
def test_one_cve_with_two_ranges_on_one_product(shape):
    # neither random_catalog nor the benchmark's generator draws two constraints of one CVE
    # on one product: `hitting` must list the CVE once per release, and the escapes that the
    # builds of a clock share must skip both ranges. CVE-2010-0002 triggers first, so the
    # first escape (2.0) is blocked by the second range once CVE-2010-0001 triggers too
    key = ("acme", "app")
    versions = [("1.0", 0), ("1.2", 1), ("1.5", 2), ("1.7", 3), ("2.0", 4), ("2.1", 5), ("2.3", 6), ("3.0", 10)]
    first, second = _TWO_RANGES[shape]
    records = [
        vuln("CVE-2010-0001", 1, 3, ("acme", "app", first), ("acme", "app", second)),
        vuln("CVE-2010-0002", 0, 1, ("acme", "app", {"endIncluding": "1.7"})),
    ]
    cat = make_catalog({key: versions}, records, [campaign("Apt", 5, ["CVE-2010-0001"])], horizon_end=14)
    releases = cat.timelines[key].releases
    union = {rel for rel in releases if ref_matches(first, rel.version) or ref_matches(second, rel.version)}
    assert cat.affected_by("CVE-2010-0001") == union
    for rel in releases:
        assert cat.hitting[rel].count("CVE-2010-0001") == (rel in union), (shape, rel.version)
    for delay in (0, 1, 3):
        for config in configs_with_delay(delay)[1:]:  # reactive and informed, both picks, on one catalog
            _assert_matches_reference(cat, config, shape)


def test_reactive_builds_on_one_catalog_match_builds_alone(fixture_paths):
    # Catalog.trigger_order is filled as builds ask for it and shared by every reactive and
    # informed build of a catalog: no build may see what another one left behind
    configs = [
        StrategyConfig(kind, delay, pick)
        for kind in (StrategyKind.REACTIVE, StrategyKind.INFORMED_REACTIVE)
        for delay in (0, 1, 3)
        for pick in REACTIVE_PICKS
    ]
    def fixture():
        return load_catalog(fixture_paths["releases"], fixture_paths["vulns"], fixture_paths["campaigns"])

    fresh = [("fixture", fixture)]
    fresh += [(seed, lambda seed=seed: random_catalog(random.Random(seed))) for seed in range(50)]
    for context, make in fresh:
        alone = {config: _start_and_transitions(make(), config) for config in configs}
        # reversed, every informed config is built before any reactive one
        for order in (configs[::-1], random.Random(str(context)).sample(configs, len(configs))):
            shared = make()
            for config in order:
                assert _start_and_transitions(shared, config) == alone[config], (context, config)


def _start_and_transitions(catalog, config):
    matrix = build_matrix(catalog, config)
    return matrix.start, matrix.transitions


_SMALL_VERSIONS = ("1.0", "1.1", "1.2", "2.0", "2.1", "3.0")


@st.composite
def _small_catalogs(draw):
    """1-3 products of 3-6 releases crowded into few months, month 0 included,
    and 2-5 CVEs with exact and range constraints whose triggers may fall in
    month 0. Fewer releases or CVEs rarely reach a relapse."""
    horizon_end = draw(st.integers(2, 10))
    timelines = {}
    for i in range(draw(st.integers(1, 3))):
        versions = draw(st.lists(st.sampled_from(_SMALL_VERSIONS), min_size=3, max_size=6, unique=True))
        later = len(versions) - 1
        months = [0] + draw(st.lists(st.integers(0, horizon_end), min_size=later, max_size=later))
        timelines[("acme", f"app{i}")] = list(zip(versions, months))
    keys = sorted(timelines)
    records = []
    for i in range(draw(st.integers(2, 5))):
        published = draw(st.integers(0, horizon_end))
        reserved = draw(st.integers(0, published))
        affected = []
        for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True)):
            bounds = draw(st.lists(st.sampled_from(_SMALL_VERSIONS), min_size=2, max_size=2))
            lo, hi = sorted(bounds, key=_SMALL_VERSIONS.index)
            matches = [
                {"exact": lo},
                {"startIncluding": lo},
                {"startExcluding": lo},
                {"endIncluding": hi},
                {"endExcluding": hi},
                {"startIncluding": lo, "endExcluding": hi},
            ]
            affected.append((key[0], key[1], draw(st.sampled_from(matches))))
        records.append(vuln(f"CVE-2010-{1000 + i}", reserved, published, *affected))
    campaigns = [
        campaign(f"Apt{i}", draw(st.integers(0, horizon_end)), [record.cve_id])
        for i, record in enumerate(records)
        if draw(st.booleans())
    ]
    return make_catalog(timelines, records, campaigns, horizon_end=horizon_end)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_small_catalogs())
def test_builders_match_month_walking_reference_on_drawn_catalogs(catalog):
    # month-0 releases and triggers make rows that are never installed (lo == hi),
    # which random_catalog does not reach, so the success months are checked here too
    for delay in range(4):
        configs = configs_with_delay(delay)
        for config in configs:
            _assert_matches_reference(catalog, config, "drawn")
        assert_success_months_match_reference(catalog, configs, "drawn")


# ---------------------------------------------------------------------------
# Matrix layout


def test_matrix_csv_export(fixture_catalog):
    matrix = build_matrix(fixture_catalog, IMMEDIATE)
    labels = fixture_catalog.horizon.labels
    assert labels[:2] == ("2008-01", "2008-02") and labels[-1] == "2020-01"
    assert len(dense(matrix)) == len(matrix.start) * len(labels)  # one release per product and month
    flash_182 = next(r for r in fixture_catalog.timelines[("adobe", "flash")].releases if r.version == "21.0.0.182")
    months = {m for rel, m in dense(matrix) if rel == flash_182}
    assert 0 in months and 11 in months and 12 not in months
