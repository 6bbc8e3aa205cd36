"""Compromise-probability evaluation of update strategies.

For each strategy deployment and campaign exposure, the installed intervals
of the rows that the campaign targets, clipped to its start month, are the
months in which an installed version was being targeted; merged, they are a
campaign outcome's success runs. A campaign counts as (potentially)
successful if it has at least one run; the overall probability is the
fraction of targeting campaigns that ever succeed.
Probabilities are exact rationals internally and only rendered to percentages
at the reporting boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional, Sequence

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


@dataclass(frozen=True)
class CampaignOutcome:
    campaign: CampaignRecord
    success_months: Runs  # sorted, disjoint, non-adjacent, non-empty [a, b) month runs

    @property
    def success(self) -> bool:
        return bool(self.success_months)


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    config: StrategyConfig
    scenario: Scenario
    overall: Fraction
    # one entry per month; consecutive months with the same success and active
    # counts share one object, so a reader may render a value once per object
    monthly: tuple[Optional[Fraction], ...]
    updates_raw: int
    updates_net: int
    outcomes: tuple[CampaignOutcome, ...]
    odds_vs_baseline: Optional[float]


def successful_months(deployment: DeploymentMatrix, exposure: ExposureMatrix) -> Runs:
    """Months in which some installed version is targeted by the campaign, as
    sorted [a, b) runs with overlapping or touching runs merged, so equal
    months give equal runs."""
    if deployment.space is not exposure.space:
        raise ValueError("deployment and exposure matrices use different row spaces")
    lo, hi = deployment.intervals
    start = exposure.campaign.start_month
    runs = []
    for r in exposure.rows:
        a, b = lo[r], hi[r]
        if a < start:
            a = start
        if b > a:  # skips rows never installed or replaced by the start
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
    Consecutive months with the same counts share one Fraction object."""
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
            value = Fraction(*counts) if counts[1] else None
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
    """One report per (strategy config, scenario), odds relative to the baseline."""
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

    def score(config: StrategyConfig, scenario: Scenario):
        """The deployment and its outcomes; each (config, scenario) is scored once."""
        if (config, scenario) not in scored:
            if config not in matrices:
                matrices[config] = build_matrix(catalog, config)
            matrix = matrices[config]
            if scenario is Scenario.APT_FIRST:
                matrix = apply_apt_first(matrix)
            outcomes = tuple(CampaignOutcome(e.campaign, successful_months(matrix, e)) for e in exposures)
            scored[(config, scenario)] = matrix, outcomes
        return scored[(config, scenario)]

    baseline_overall = overall_probability(score(*baseline)[1])

    reports = []
    for config in configs:
        for scenario in scenarios:
            matrix, outcomes = score(config, scenario)
            overall = overall_probability(outcomes)
            monthly = monthly_probabilities(outcomes, catalog.horizon.n_months)
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
