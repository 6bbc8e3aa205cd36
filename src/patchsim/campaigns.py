"""Campaign exposure and vulnerability-lifecycle classification.

A campaign's exposure lists, over the rows of the shared (product-version x
month) space, every release affected by one of its CVEs. Each listed row is
targeted from the campaign start through the end of the window (a campaign is
assumed to stay active once observed), so the rows and the start month
describe the whole exposed region.

Attacks are classified on two axes at the campaign start month:

  knowledge  was the CVE already published (KK), only reserved (KU),
             or not even reserved (UU)?
  fix        was a release escaping the CVE already out (preventable)
             or not (unpreventable)?
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import NamedTuple, Optional

from .catalog import CampaignRecord, Catalog, MatrixSpace, VulnRecord
from .months import DataError


class TieRule(Enum):
    """How same-month ties are scored, given month granularity.

    INCLUSIVE: an event in the same month counts as "already happened"
    (campaign in the CVE's publication month is KK; a fix released in the
    campaign month makes it preventable). EXCLUSIVE flips both readings.
    """

    INCLUSIVE = "inclusive"
    EXCLUSIVE = "exclusive"

    def happened(self, event: int, at: int) -> bool:
        """Whether an event in month `event` counts as already happened at month `at`."""
        return event <= at if self is TieRule.INCLUSIVE else event < at


class AttackScenario(Enum):
    UU_U = "UU/U"
    UU_P = "UU/P"
    KU_U = "KU/U"
    KU_P = "KU/P"
    KK_U = "KK/U"
    KK_P = "KK/P"

    @property
    def knowledge(self) -> str:
        return self.value.split("/")[0]

    @property
    def preventable(self) -> bool:
        return self.value.endswith("P")


class ExposureMatrix(NamedTuple):
    space: MatrixSpace
    rows: tuple[int, ...]  # ascending indices of the rows targeted from campaign.start_month on
    campaign: CampaignRecord

    @property
    def empty(self) -> bool:
        return not self.rows

    @property
    def cells(self) -> memoryview:
        """The rows as a read-only mask, one byte per row of the space: 1 where
        targeted. Nothing in the package reads it; the benchmark's span tracer
        sizes exposures by its nbytes."""
        mask = bytearray(len(self.space.rows))
        for r in self.rows:
            mask[r] = 1
        return memoryview(bytes(mask))


def build_campaign_matrix(campaign: CampaignRecord, catalog: Catalog) -> ExposureMatrix:
    """List every release one of the campaign's CVEs affects: the rows of their `Catalog.slices`."""
    space, slices = catalog.space, catalog.slices
    rows: set[int] = set()
    for cve in campaign.cve_ids:
        for pc, lo, hi in slices[cve]:
            rows.update(space.version_rows[pc.key][lo:hi])
    return ExposureMatrix(space=space, rows=tuple(sorted(rows)), campaign=campaign)


def classify_attack(
    vuln: VulnRecord,
    exploited_month: int,
    fix: Optional[int],
    tie_rule: TieRule = TieRule.INCLUSIVE,
) -> AttackScenario:
    """Place one exploitation event into the six-way lifecycle classification."""
    if vuln.reserved_month > vuln.published_month:
        raise DataError(f"{vuln.cve_id}: reserved after published")
    if tie_rule.happened(vuln.published_month, exploited_month):
        knowledge = "KK"
    elif tie_rule.happened(vuln.reserved_month, exploited_month):
        knowledge = "KU"
    else:
        knowledge = "UU"
    preventable = fix is not None and tie_rule.happened(fix, exploited_month)
    return AttackScenario[f"{knowledge}_{'P' if preventable else 'U'}"]


def classify_campaign(
    campaign: CampaignRecord,
    catalog: Catalog,
    tie_rule: TieRule = TieRule.INCLUSIVE,
) -> frozenset[str]:
    """Knowledge-axis groups ({"KK"}, {"KK","UU"}, ...) the campaign belongs to."""
    return frozenset(s.knowledge for s in campaign_scenarios(campaign, catalog, tie_rule).values())


def campaign_scenarios(
    campaign: CampaignRecord,
    catalog: Catalog,
    tie_rule: TieRule = TieRule.INCLUSIVE,
) -> dict[str, AttackScenario]:
    """Per-CVE scenario labels for one campaign (earliest fix across products)."""
    return {
        cve: classify_attack(catalog.vulns[cve], campaign.start_month, catalog.fix_month[cve], tie_rule)
        for cve in sorted(campaign.cve_ids)
    }


KNOWLEDGE_ORDER = ("KK", "KU", "UU")  # how classify.csv and venn.json list a campaign's groups
# the non-empty combinations of the groups, smallest first: "KK", ..., "KK&KU", ..., "KK&KU&UU"
VENN_REGIONS = tuple("&".join(c) for n in range(1, len(KNOWLEDGE_ORDER) + 1) for c in combinations(KNOWLEDGE_ORDER, n))


def venn_counts(catalog: Catalog, tie_rule: TieRule = TieRule.INCLUSIVE) -> dict[str, int]:
    """Counts of the seven knowledge-group regions over CVE-bearing campaigns."""
    counts = {region: 0 for region in VENN_REGIONS}
    for campaign in catalog.campaigns:
        if campaign.vector_only:
            continue
        groups = classify_campaign(campaign, catalog, tie_rule)  # a campaign with a CVE has a group
        counts["&".join(sorted(groups, key=KNOWLEDGE_ORDER.index))] += 1
    counts["total"] = sum(counts.values())
    return counts
