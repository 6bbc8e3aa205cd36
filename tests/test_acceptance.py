"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them; pytest -v shows the same verdicts).

Criterion 9 (full published-dataset reproduction) needs a converted dataset
directory in $PATCHSIM_DATASET and is skipped without it.
"""

import itertools
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import dense, percent_bounds, random_catalog, ref_overall_probability, survival_at, vuln
from patchsim.campaigns import AttackScenario, classify_attack, venn_counts
from patchsim.catalog import load_catalog
from patchsim.evaluator import (
    CampaignOutcome,
    evaluate,
    exposure_matrices,
    odds_ratio,
    overall_probability,
    successful_months,
)
from patchsim.stats import ExploitAgeSample, agresti_coull, exploit_ages, kaplan_meier
from patchsim.strategies import (
    Scenario,
    StrategyConfig,
    StrategyKind,
    apply_apt_first,
    build_matrix,
    count_updates,
)

TABLE_PERCENTS = [22.2, 58.3, 63.9, 61.1, 66.7, 72.2, 75.0, 73.6, 76.4, 86.1, 87.5, 84.7]
TABLE_ODDS = [1.0, 4.9, 6.2, 5.5, 7.0, 9.1, 10.5, 9.8, 11.3, 21.7, 24.5, 19.4]
TABLE_NUMERATORS = [16, 42, 46, 44, 48, 52, 54, 53, 55, 61, 62, 63]


def _verdict(name: str, ok: bool = True) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)


def _round1(x: float) -> float:
    return math.floor(x * 10 + 0.5) / 10 if x >= 0 else -math.floor(-x * 10 + 0.5) / 10


def test_criterion_1_odds_ratio_reproduction():
    baseline = Fraction(222, 1000)
    for percent, expected in zip(TABLE_PERCENTS, TABLE_ODDS):
        p = Fraction(round(percent * 10), 1000)
        got = odds_ratio(p, baseline)
        assert abs(_round1(got) - expected) <= 0.05 + 1e-12, (percent, got, expected)
    _verdict("1 odds-ratio reproduction")


def test_criterion_2_agresti_coull_reproduction():
    for successes, quoted in [(46, (52, 74)), (48, (55, 77))]:
        ci = agresti_coull(successes, 72, 0.95)
        assert abs(ci.low * 100 - quoted[0]) <= 1.0, (successes, ci.low)
        assert abs(ci.high * 100 - quoted[1]) <= 1.0, (successes, ci.high)
    assert percent_bounds(agresti_coull(46, 72, 0.95)) == (52, 74)
    _verdict("2 Agresti-Coull reproduction")


def test_criterion_3_probability_count_consistency():
    reconstructed = []
    for percent in TABLE_PERCENTS:
        k = round(percent * 72 / 100)
        value = Fraction(k, 72)
        assert abs(float(value) * 100 - percent) <= 0.05, (percent, k)
        reconstructed.append(k)
    assert sorted(reconstructed) == sorted(TABLE_NUMERATORS)
    _verdict("3 probability-count consistency")


_ORACLE_CONFIGS = [
    StrategyConfig(StrategyKind.IMMEDIATE),
    StrategyConfig(StrategyKind.PLANNED, 1),
    StrategyConfig(StrategyKind.PLANNED, 3),
    StrategyConfig(StrategyKind.PLANNED, 7),
    StrategyConfig(StrategyKind.REACTIVE, 1),
    StrategyConfig(StrategyKind.REACTIVE, 3),
    StrategyConfig(StrategyKind.INFORMED_REACTIVE, 1),
]


def test_criterion_4_oracle_equivalence():
    rng = random.Random(20080101)
    checked = 0
    while checked < 200:
        catalog = random_catalog(rng)
        exposures = exposure_matrices(catalog)
        if not exposures:
            continue
        checked += 1
        for config in _ORACLE_CONFIGS:
            optimistic = build_matrix(catalog, config)
            for matrix in (optimistic, apply_apt_first(optimistic)):
                outcomes = [
                    CampaignOutcome(e.campaign, successful_months(matrix, e)) for e in exposures
                ]
                assert overall_probability(outcomes) == ref_overall_probability(catalog, matrix), (
                    config,
                    matrix.scenario,
                )
    assert checked == 200
    _verdict("4 oracle equivalence on 200 randomized catalogs")


def test_criterion_5_pessimistic_dominance():
    rng = random.Random(424242)
    checked = 0
    while checked < 60:
        catalog = random_catalog(rng)
        exposures = exposure_matrices(catalog)
        if not exposures:
            continue
        checked += 1
        for config in _ORACLE_CONFIGS:
            optimistic = build_matrix(catalog, config)
            pessimistic = apply_apt_first(optimistic)
            assert np.all(dense(optimistic) <= dense(pessimistic))

            def overall(matrix):
                return overall_probability(
                    [CampaignOutcome(e.campaign, successful_months(matrix, e)) for e in exposures]
                )

            assert overall(pessimistic) >= overall(optimistic), config
    _verdict("5 pessimistic dominance")


def test_criterion_6_planned_monotonicity():
    rng = random.Random(73737)
    for _ in range(60):
        catalog = random_catalog(rng, horizon_end=47)
        planned = [build_matrix(catalog, StrategyConfig(StrategyKind.PLANNED, d)) for d in (0, 1, 3, 7)]
        counts = [count_updates(matrix)[0] for matrix in planned]
        assert all(a >= b for a, b in zip(counts, counts[1:])), counts
        immediate = build_matrix(catalog, StrategyConfig(StrategyKind.IMMEDIATE))
        assert np.array_equal(dense(planned[0]), dense(immediate))
    _verdict("6 planned monotonicity and zero-delay identity")


def test_criterion_7_survival_oracle():
    rng = random.Random(60601)
    for _ in range(100):
        ages = [rng.randint(-24, 100) for _ in range(rng.randint(1, 200))]
        curve = kaplan_meier([ExploitAgeSample(f"c{i}", a) for i, a in enumerate(ages)])
        assert survival_at(curve, min(ages) - 1) == 1
        last = Fraction(1)
        for _, s in curve:
            assert s <= last
            last = s
        for t in sorted(set(ages)):
            assert survival_at(curve, t) == Fraction(sum(1 for a in ages if a > t), len(ages))
    _verdict("7 survival oracle")


def test_criterion_8_scenario_classifier_totality():
    months = range(4)
    seen = set()
    for exploited, reserved, published in itertools.product(months, repeat=3):
        if reserved > published:
            continue
        for fix in list(months) + [None]:
            record = vuln("CVE-2010-0001", reserved, published, ("acme", "app", {"exact": "1.0"}))
            scenario = classify_attack(record, exploited, fix)
            assert isinstance(scenario, AttackScenario)
            knowledge, preventable = scenario.knowledge, scenario.preventable
            assert (knowledge == "KK") == (exploited >= published)
            assert (knowledge == "KU") == (reserved <= exploited < published)
            assert (knowledge == "UU") == (exploited < reserved)
            assert preventable == (fix is not None and fix <= exploited)
            seen.add(scenario)
    assert seen == set(AttackScenario)
    _verdict("8 scenario classifier totality")


# ---------------------------------------------------------------------------
# Criterion 9: published-dataset reproduction (stretch; needs converted data)

_DATASET_DIR = os.environ.get("PATCHSIM_DATASET")

_EXPECTED_TABLE = {
    # (strategy, delay): (updates_raw, update-first %, apt-first %)
    (StrategyKind.IMMEDIATE, 0): (360, 22.2, 58.3),
    (StrategyKind.PLANNED, 1): (357, 58.3, 63.9),
    (StrategyKind.REACTIVE, 1): (44, 61.1, 66.7),
    (StrategyKind.INFORMED_REACTIVE, 1): (44, 58.3, 66.7),
    (StrategyKind.PLANNED, 3): (350, 72.2, 75.0),
    (StrategyKind.REACTIVE, 3): (44, 73.6, 76.4),
    (StrategyKind.INFORMED_REACTIVE, 3): (44, 73.6, 76.4),
    (StrategyKind.PLANNED, 7): (337, 86.1, 87.5),
    (StrategyKind.REACTIVE, 7): (44, 84.7, 86.1),
    (StrategyKind.INFORMED_REACTIVE, 7): (44, 84.7, 86.1),
}


@pytest.mark.skipif(not _DATASET_DIR, reason="converted full dataset not supplied ($PATCHSIM_DATASET)")
def test_criterion_9_full_dataset_reproduction():
    base = Path(_DATASET_DIR)
    catalog = load_catalog(base / "releases.csv", base / "vulns.json", base / "campaigns.csv")
    configs = [
        StrategyConfig(kind, delay) if delay else StrategyConfig(kind)
        for kind, delay in _EXPECTED_TABLE
    ]
    reports = evaluate(catalog, configs)
    by_key = {(r.config.kind, r.config.delay_months, r.scenario): r for r in reports}
    for (kind, delay), (updates, uf_pct, af_pct) in _EXPECTED_TABLE.items():
        uf = by_key[(kind, delay, Scenario.UPDATE_FIRST)]
        af = by_key[(kind, delay, Scenario.APT_FIRST)]
        assert uf.updates_raw == updates, (kind, delay, uf.updates_raw)
        assert abs(float(uf.overall) * 100 - uf_pct) <= 1.4, (kind, delay, uf.overall)
        assert abs(float(af.overall) * 100 - af_pct) <= 1.4, (kind, delay, af.overall)

    venn = venn_counts(catalog)
    assert venn["total"] == 162
    assert venn["KK"] == 119

    samples = exploit_ages(catalog)
    pre_publication = sum(1 for s in samples if s.age < 0) / len(samples)
    assert abs(pre_publication * 100 - 40.0) <= 1.4
    within_month = sum(1 for s in samples if 0 <= s.age <= 1) / len(samples)
    assert abs(within_month * 100 - 27.0) <= 1.4
    _verdict("9 full-dataset reproduction")
