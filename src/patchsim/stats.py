"""Interval estimation and survival analysis for strategy comparison.

Binomial proportions (successful-campaign rates) get adjusted-count
Agresti-Coull intervals, the recommended choice for sample sizes of 40 and
up. Exploit ages (months from CVE publication to first observed
exploitation, negative when exploited pre-publication) feed a product-limit
survival estimator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist
from typing import NamedTuple, Sequence

from .campaigns import TieRule
from .catalog import Catalog


class BinomialCI(NamedTuple):
    center: float
    low: float
    high: float


def agresti_coull(successes: int, trials: int, confidence: float = 0.95) -> BinomialCI:
    """Adjusted-count binomial confidence interval, clamped to [0, 1]."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"invalid counts: {successes}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    z2 = z * z
    n_adj = trials + z2
    p_adj = (successes + z2 / 2.0) / n_adj
    half = z * math.sqrt(p_adj * (1.0 - p_adj) / n_adj)
    return BinomialCI(center=p_adj, low=max(0.0, p_adj - half), high=min(1.0, p_adj + half))


# ---------------------------------------------------------------------------
# Survival of vulnerabilities past publication


class ExploitAgeSample(NamedTuple):
    cve_id: str
    age: int  # months from publication to first exploitation; may be negative
    censored: bool = False


def kaplan_meier(samples: Sequence[ExploitAgeSample]) -> tuple[tuple[int, Fraction], ...]:
    """Product-limit survival estimate over exploit ages, as the (age, survival)
    points of a right-continuous step function: each value holds from its age on.

    Censored samples leave the risk set at their age without counting as an
    event (ties: events first). With no censoring this reduces to the
    empirical survival function |{age > t}| / n.
    """
    if not samples:
        raise ValueError("survival analysis needs at least one sample")
    events: dict[int, int] = {}
    censorings: dict[int, int] = {}
    for s in samples:
        bucket = censorings if s.censored else events
        bucket[s.age] = bucket.get(s.age, 0) + 1
    at_risk = len(samples)
    survival = Fraction(1)
    points: list[tuple[int, Fraction]] = []
    for t in sorted(set(events) | set(censorings)):
        d = events.get(t, 0)
        if d:
            survival *= Fraction(at_risk - d, at_risk)
            points.append((t, survival))
        at_risk -= d + censorings.get(t, 0)
    return tuple(points)


def exploit_ages(
    catalog: Catalog,
    include_unexploited: bool = False,
    kk_only: bool = False,
    tie_rule: TieRule = TieRule.INCLUSIVE,
) -> list[ExploitAgeSample]:
    """One sample per exploited CVE: months from publication to its first
    campaign. With kk_only, CVEs first exploited before publication are
    dropped from the sample altogether. include_unexploited adds CVEs seen
    in no campaign as censored at the horizon end. Asking for both is a
    ValueError: kk_only keeps exploited CVEs only."""
    if kk_only and include_unexploited:
        raise ValueError("kk_only and include_unexploited cannot be combined")
    first_seen: dict[str, int] = {}
    for campaign in catalog.campaigns:
        for cve in campaign.cve_ids:
            if cve not in first_seen or campaign.start_month < first_seen[cve]:
                first_seen[cve] = campaign.start_month
    samples = []
    for cve in sorted(catalog.vulns):
        vuln = catalog.vulns[cve]
        if cve in first_seen:
            if kk_only and not tie_rule.happened(vuln.published_month, first_seen[cve]):
                continue
            samples.append(ExploitAgeSample(cve, first_seen[cve] - vuln.published_month))
        elif include_unexploited:
            samples.append(ExploitAgeSample(cve, catalog.horizon.end_index - vuln.published_month, censored=True))
    return samples
