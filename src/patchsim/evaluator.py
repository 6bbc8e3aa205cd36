"""Compromise-probability evaluation of update strategies.

A deployment installs ever newer releases of each product, so the months in
which the installed release lies in one of a campaign's version spans form
one run. Clipped to the campaign start and merged, those runs are the months
in which an installed version was being targeted: a campaign outcome's
success runs. A campaign counts as (potentially) successful if it has at
least one run; the overall probability is the fraction of targeting
campaigns that ever succeed.
Probabilities are exact rationals internally and only rendered to percentages
at the reporting boundary.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence

from .campaigns import ExposureMatrix, build_campaign_matrix
from .catalog import CampaignRecord, Catalog
from .months import DataError
from .strategies import (
    DeploymentMatrix,
    Scenario,
    StrategyConfig,
    StrategyKind,
    apply_apt_first,
    build_matrix,
    count_updates,
)


Runs = tuple[tuple[int, int], ...]


class CampaignOutcome(NamedTuple):
    campaign: CampaignRecord
    success_months: Runs  # sorted, disjoint, non-adjacent, non-empty [a, b) month runs

    @property
    def success(self) -> bool:
        return bool(self.success_months)


class EvaluationReport(NamedTuple):
    config: StrategyConfig
    scenario: Scenario
    overall: Fraction
    # one entry per month; months with the same success and active counts share
    # one object, across every report of one evaluate call, so a reader may
    # render a value once per object
    monthly: tuple[Optional[Fraction], ...]
    updates_raw: int
    updates_net: int
    outcomes: tuple[CampaignOutcome, ...]
    odds_vs_baseline: Optional[float]


def successful_months(deployment: DeploymentMatrix, exposure: ExposureMatrix) -> Runs:
    """Months in which some installed version is targeted by the campaign, as
    sorted [a, b) runs with overlapping or touching runs merged, so equal
    months give equal runs. Per span, the steps i..j-1 whose positions lie in
    it are installed over [months[i], months[j]), through months[j] apt-first
    (the last of them stays during its transition month), or to the window
    end when no step follows."""
    if deployment.horizon is not exposure.horizon:
        raise ValueError("deployment and exposure come from different catalogs' version spaces")
    steps, end, apt = deployment.steps, deployment.horizon.n_months, deployment.scenario is Scenario.APT_FIRST
    start = exposure.campaign.start_month
    runs = []
    for key, lo, hi in exposure.spans:
        positions, months = steps[key]
        i = bisect_left(positions, lo)
        j = bisect_left(positions, hi, i)
        if i < j:  # some step installs a release of the span
            a = months[i]
            b = months[j] + apt if j < len(months) else end
            if a < start:
                a = start
            if b > a:  # skips a run over by the start, or a start release replaced in month 0
                runs.append((a, b))
    if len(runs) < 2:
        return tuple(runs)
    runs.sort()
    merged = [runs[0]]
    for a, b in runs:
        last_a, last_b = merged[-1]
        if a > last_b:
            merged.append((a, b))
        elif b > last_b:
            merged[-1] = (last_a, b)
    return tuple(merged)


def monthly_probabilities(outcomes: Sequence[CampaignOutcome], n_months: int) -> tuple[Optional[Fraction], ...]:
    """Successful over active campaigns for each month below n_months; None
    where none are active. A campaign is active from its start month on and
    counts as successful only in success months at or after its start.
    Months with the same success and active counts share one Fraction object."""
    return _monthly(outcomes, n_months, {})


def _monthly(outcomes: Sequence[CampaignOutcome], n_months: int, shared: dict) -> tuple[Optional[Fraction], ...]:
    """monthly_probabilities, taking each month's Fraction from `shared`, keyed by
    its (successes, active) counts, and adding the ones it makes."""
    starts, delta = [0] * n_months, [0] * (n_months + 1)
    for o in outcomes:
        start = o.campaign.start_month
        if start < n_months:
            starts[start] += 1
            for a, b in o.success_months:
                if a < start:
                    a = start
                if b > n_months:
                    b = n_months
                if a < b:
                    delta[a] += 1
                    delta[b] -= 1
    series: list[Optional[Fraction]] = []
    counts, value = None, None
    for hits_active in zip(accumulate(delta), accumulate(starts)):
        if hits_active != counts:
            counts = hits_active
            value = shared.get(counts)
            if value is None and counts[1]:
                value = shared[counts] = Fraction(*counts)
        series.append(value)
    return tuple(series)


def probability_at(outcomes: Sequence[CampaignOutcome], month: int) -> Optional[Fraction]:
    """Successful over active campaigns at one month; None when none are active."""
    return monthly_probabilities(outcomes, month + 1)[month] if month >= 0 else None


def overall_probability(outcomes: Sequence[CampaignOutcome]) -> Fraction:
    """Fraction of campaigns that succeed in at least one month (each counted once)."""
    if not outcomes:
        raise ValueError("no campaigns to evaluate")
    return Fraction(sum(1 for o in outcomes if o.success), len(outcomes))


def odds_ratio(p, baseline) -> Optional[float]:
    """Odds of p relative to the baseline's odds; None where undefined."""
    p = Fraction(p) if not isinstance(p, Fraction) else p
    baseline = Fraction(baseline) if not isinstance(baseline, Fraction) else baseline
    if not (0 <= p <= 1 and 0 <= baseline <= 1):
        raise ValueError("probabilities must lie in [0, 1]")
    if p == 1 or baseline in (0, 1):
        return None
    return float((p / (1 - p)) / (baseline / (1 - baseline)))


def exposure_matrices(catalog: Catalog) -> list[ExposureMatrix]:
    """Exposure matrices for campaigns that target at least one cataloged release.

    Vector-only campaigns and campaigns whose CVEs touch no product with a
    timeline are excluded here and therefore appear in no denominator.
    """
    out = []
    for campaign in catalog.campaigns:
        if campaign.vector_only:
            continue
        matrix = build_campaign_matrix(campaign, catalog)
        if not matrix.empty:
            out.append(matrix)
    return out


DEFAULT_BASELINE = (StrategyConfig(StrategyKind.IMMEDIATE), Scenario.UPDATE_FIRST)


def evaluate(
    catalog: Catalog,
    configs: Sequence[StrategyConfig],
    scenarios: Iterable[Scenario] = (Scenario.UPDATE_FIRST, Scenario.APT_FIRST),
    baseline: tuple[StrategyConfig, Scenario] = DEFAULT_BASELINE,
) -> list[EvaluationReport]:
    """One report per (strategy config, scenario), odds relative to the baseline.
    Each distinct config is built once, and each distinct pair scored once, the baseline's included."""
    configs = list(configs)
    scenarios = list(scenarios)
    if not configs:
        raise ValueError("at least one strategy config is required")
    if not scenarios:
        raise ValueError("at least one scenario is required")
    exposures = exposure_matrices(catalog)
    if not exposures:
        raise DataError("no campaign targets any cataloged release")

    matrices: dict[StrategyConfig, DeploymentMatrix] = {}
    scored: dict[tuple[StrategyConfig, Scenario], tuple[DeploymentMatrix, tuple[CampaignOutcome, ...]]] = {}
    for config, scenario in [baseline, *((c, s) for c in configs for s in scenarios)]:
        if (config, scenario) not in scored:
            if config not in matrices:
                matrices[config] = build_matrix(catalog, config)
            matrix = apply_apt_first(matrices[config]) if scenario is Scenario.APT_FIRST else matrices[config]
            outcomes = tuple(CampaignOutcome(e.campaign, successful_months(matrix, e)) for e in exposures)
            scored[config, scenario] = matrix, outcomes
    baseline_overall = overall_probability(scored[tuple(baseline)][1])

    reports, shared = [], {}
    for config in configs:
        for scenario in scenarios:
            matrix, outcomes = scored[config, scenario]
            overall = overall_probability(outcomes)
            monthly = _monthly(outcomes, catalog.horizon.n_months, shared)
            raw, net = count_updates(matrix)
            reports.append(
                EvaluationReport(
                    config=config,
                    scenario=scenario,
                    overall=overall,
                    monthly=monthly,
                    updates_raw=raw,
                    updates_net=net,
                    outcomes=outcomes,
                    odds_vs_baseline=odds_ratio(overall, baseline_overall),
                )
            )
    return reports


def percent_1dp(value: Fraction) -> str:
    """Render an exact fraction as a percentage with one decimal,
    rounding half away from zero."""
    q, r = divmod(value.numerator * 1000, value.denominator)
    if 2 * r >= value.denominator:
        q += 1
    return f"{q // 10}.{q % 10}"
