import math
import random
from fractions import Fraction
from statistics import NormalDist

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import campaign, curve_problems, make_catalog, percent_bounds, random_catalog, survival_at, vuln
from patchsim.campaigns import TieRule
from patchsim.stats import (
    ExploitAgeSample,
    agresti_coull,
    exploit_ages,
    kaplan_meier,
)


def test_quantile_against_scipy_oracle():
    scipy_stats = pytest.importorskip("scipy.stats")
    for confidence in [0.002, 0.4, 0.63, 0.8, 0.95, 0.99, 0.9998]:
        z = scipy_stats.norm.ppf((1 + confidence) / 2)
        n_adj = 200 + z * z
        center = (100 + z * z / 2) / n_adj
        half = z * math.sqrt(center * (1 - center) / n_adj)
        ci = agresti_coull(100, 200, confidence)
        assert ci.center == pytest.approx(center, abs=1e-12)
        assert (ci.low, ci.high) == pytest.approx((center - half, center + half), abs=1e-10)


def test_quantile_rejects_degenerate_probabilities():
    for p in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            agresti_coull(1, 10, confidence=p)


def test_agresti_coull_reproduces_quoted_intervals():
    # quoted whole-percent intervals are matched within one percentage
    # point pre-rounding (the 48/72 upper bound is 76.50, quoted as 77)
    ci = agresti_coull(46, 72, 0.95)
    assert percent_bounds(ci) == (52, 74)
    assert ci.low * 100 == pytest.approx(52, abs=1.0)
    assert ci.high * 100 == pytest.approx(74, abs=1.0)
    ci = agresti_coull(48, 72, 0.95)
    assert percent_bounds(ci)[0] == 55
    assert ci.low * 100 == pytest.approx(55, abs=1.0)
    assert ci.high * 100 == pytest.approx(77, abs=1.0)


def test_agresti_coull_zero_successes_clamps_low():
    ci = agresti_coull(0, 40, 0.95)
    assert ci.low == 0.0
    assert ci.high == pytest.approx(0.104, abs=5e-4)


def test_agresti_coull_rejects_bad_counts():
    for successes, trials in [(-1, 10), (11, 10), (0, 0)]:
        with pytest.raises(ValueError):
            agresti_coull(successes, trials)
    with pytest.raises(ValueError):
        agresti_coull(1, 10, confidence=1.0)


def test_agresti_coull_width_shrinks_with_trials():
    widths = [
        ci.high - ci.low
        for ci in (agresti_coull(n // 2, n, 0.95) for n in (10, 40, 160, 640))
    ]
    assert widths == sorted(widths, reverse=True)
    assert all(a > b for a, b in zip(widths, widths[1:]))


@settings(max_examples=200)
@given(st.integers(0, 500), st.integers(1, 500), st.sampled_from([0.8, 0.9, 0.95, 0.99]))
def test_agresti_coull_invariants(successes, trials, confidence):
    if successes > trials:
        successes = trials
    ci = agresti_coull(successes, trials, confidence)
    assert 0.0 <= ci.low <= ci.high <= 1.0
    assert ci.low <= ci.center <= ci.high
    # symmetric around the adjusted center before clamping
    z = NormalDist().inv_cdf((1 + confidence) / 2)
    half = z * math.sqrt(ci.center * (1 - ci.center) / (trials + z * z))
    assert ci.low == pytest.approx(max(0.0, ci.center - half))
    assert ci.high == pytest.approx(min(1.0, ci.center + half))


# ---------------------------------------------------------------------------
# Kaplan-Meier


def test_km_uncensored_example():
    curve = kaplan_meier([ExploitAgeSample(f"c{i}", age) for i, age in enumerate([-2, 0, 1, 5])])
    assert survival_at(curve, -3) == 1
    assert survival_at(curve, -2) == Fraction(3, 4)
    assert survival_at(curve, 0) == Fraction(1, 2)
    assert survival_at(curve, 1) == Fraction(1, 4)
    assert survival_at(curve, 5) == 0
    assert curve_problems(curve) == []


def test_km_single_sample_steps_to_zero():
    curve = kaplan_meier([ExploitAgeSample("c", 0)])
    assert curve == ((0, Fraction(0)),)
    assert survival_at(curve, -1) == 1


def test_km_tied_ages_single_step():
    curve = kaplan_meier([ExploitAgeSample(f"c{i}", 3) for i in range(5)])
    assert curve == ((3, Fraction(0)),)


def test_km_censoring_reduces_risk_set_without_event():
    # censored at 1: the event at 2 sees only one subject at risk
    curve = kaplan_meier(
        [
            ExploitAgeSample("a", 0),
            ExploitAgeSample("b", 1, censored=True),
            ExploitAgeSample("c", 2),
        ]
    )
    assert survival_at(curve, 0) == Fraction(2, 3)
    assert survival_at(curve, 2) == 0


def test_km_empty_input_rejected():
    with pytest.raises(ValueError):
        kaplan_meier([])


@settings(max_examples=150)
@given(st.lists(st.integers(-24, 120), min_size=1, max_size=200))
def test_km_uncensored_equals_empirical_survival(ages):
    samples = [ExploitAgeSample(f"c{i}", age) for i, age in enumerate(ages)]
    curve = kaplan_meier(samples)
    n = len(ages)
    for t in sorted(set(ages)) + [min(ages) - 1, max(ages) + 1]:
        empirical = Fraction(sum(1 for a in ages if a > t), n)
        assert survival_at(curve, t) == empirical
    assert curve_problems(curve) == []
    assert survival_at(curve, min(ages) - 1) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 8), st.integers(0, 4)), min_size=1, max_size=60))
def test_km_matches_scipy_on_censored_samples(drawn):
    # scipy's Kaplan-Meier estimate is the oracle; a draw of 0 or 1 of 0..4 censors, about 40%
    scipy_stats = pytest.importorskip("scipy.stats")
    samples = [ExploitAgeSample(f"c{i}", age, flag < 2) for i, (age, flag) in enumerate(drawn)]
    curve = kaplan_meier(samples)
    sf = scipy_stats.ecdf(scipy_stats.CensoredData(
        uncensored=[s.age for s in samples if not s.censored], right=[s.age for s in samples if s.censored])).sf
    steps, previous = [], 1.0
    for age, value in zip(sf.quantiles, sf.probabilities):  # every sample age, censored ones included
        assert abs(float(survival_at(curve, int(age))) - value) <= 1e-12
        if value != previous:
            steps.append(int(age))
            previous = value
    assert steps == [t for t, _ in curve]


# ---------------------------------------------------------------------------
# Exploit ages


def _age_catalog():
    v1 = vuln("CVE-2010-0001", 8, 10, ("acme", "app", {"exact": "1.0"}))
    v2 = vuln("CVE-2010-0002", 2, 4, ("acme", "app", {"exact": "1.0"}))
    v3 = vuln("CVE-2010-0003", 1, 2, ("acme", "app", {"exact": "1.0"}))
    campaigns = [
        campaign("Alpha", 8, ["CVE-2010-0001"]),
        campaign("Bravo", 14, ["CVE-2010-0001"]),
        campaign("Chi", 4, ["CVE-2010-0002"]),
    ]
    return make_catalog({("acme", "app"): [("1.0", 0)]}, [v1, v2, v3], campaigns, horizon_end=23)


def test_exploit_age_uses_first_campaign():
    ages = {s.cve_id: s.age for s in exploit_ages(_age_catalog())}
    assert ages == {"CVE-2010-0001": -2, "CVE-2010-0002": 0}


def test_exploit_age_unexploited_omitted_or_censored():
    cat = _age_catalog()
    plain = exploit_ages(cat)
    assert all(s.cve_id != "CVE-2010-0003" for s in plain)
    with_censored = exploit_ages(cat, include_unexploited=True)
    censored = [s for s in with_censored if s.censored]
    assert [(s.cve_id, s.age) for s in censored] == [("CVE-2010-0003", 21)]


def test_exploit_age_kk_only_drops_pre_publication():
    kk = exploit_ages(_age_catalog(), kk_only=True)
    assert [(s.cve_id, s.age) for s in kk] == [("CVE-2010-0002", 0)]


def _ref_exploit_ages(catalog, include_unexploited, kk_only, tie_rule) -> list:
    """Brute force: each CVE's first-seen month is the least start month of the
    campaigns naming it, read anew for every CVE."""
    samples = []
    for cve in sorted(catalog.vulns):
        published = catalog.vulns[cve].published_month
        seen = [c.start_month for c in catalog.campaigns if cve in c.cve_ids]
        if seen:
            first = min(seen)
            by_publication = first >= published if tie_rule is TieRule.INCLUSIVE else first > published
            if not kk_only or by_publication:
                samples.append(ExploitAgeSample(cve, first - published))
        elif include_unexploited:
            samples.append(ExploitAgeSample(cve, catalog.horizon.end_index - published, censored=True))
    return samples


def test_exploit_ages_match_first_seen_reference_on_random_catalogs():
    options = [(False, False), (True, False), (False, True)]  # (include_unexploited, kk_only)
    seen_later, tie_matters = 0, 0
    for seed in range(200):
        cat = random_catalog(random.Random(seed))
        for include_unexploited, kk_only in options:
            by_rule = {}
            for tie_rule in TieRule:
                expected = _ref_exploit_ages(cat, include_unexploited, kk_only, tie_rule)
                got = exploit_ages(cat, include_unexploited, kk_only, tie_rule)
                assert got == expected, (seed, include_unexploited, kk_only, tie_rule)
                by_rule[tie_rule] = got
            tie_matters += by_rule[TieRule.INCLUSIVE] != by_rule[TieRule.EXCLUSIVE]
        starts = {}
        for c in cat.campaigns:
            for cve in c.cve_ids:
                starts.setdefault(cve, set()).add(c.start_month)
        seen_later += sum(len(months) > 1 for months in starts.values())
    assert seen_later > 100 and tie_matters > 10  # CVEs seen again later, and kk_only ties, are common


def test_exploit_age_kk_only_with_unexploited_is_rejected():
    with pytest.raises(ValueError, match="kk_only and include_unexploited"):
        exploit_ages(_age_catalog(), include_unexploited=True, kk_only=True)


def test_fixture_exploit_ages_and_survival(fixture_catalog):
    samples = exploit_ages(fixture_catalog)
    ages = {s.cve_id: s.age for s in samples}
    assert ages == {"CVE-2009-4324": 0, "CVE-2009-0520": -2, "CVE-2011-0611": 3}
    curve = kaplan_meier(samples)
    assert survival_at(curve, -2) == Fraction(2, 3)
    assert survival_at(curve, 0) == Fraction(1, 3)
    assert survival_at(curve, 3) == 0
