"""patchsim: quantify software-update strategies against APT campaign timelines.

Replays per-product release histories and attributed campaign events over a
month-granular window to compute, per update strategy, the conditional
probability of compromise, update cost, odds ratios, confidence intervals,
and exploit-age survival.
"""

from .campaigns import (
    AttackScenario,
    ExposureMatrix,
    TieRule,
    build_campaign_matrix,
    classify_attack,
    classify_campaign,
    venn_counts,
)
from .catalog import (
    AttackVector,
    CampaignRecord,
    Catalog,
    LoadError,
    ReleaseTimeline,
    VersionRelease,
    Violation,
    VulnRecord,
    catalog_diagnostics,
    load_catalog,
    validate_catalog,
)
from .evaluator import (
    CampaignOutcome,
    EvaluationReport,
    evaluate,
    monthly_probabilities,
    odds_ratio,
    overall_probability,
    probability_at,
    successful_months,
)
from .months import (
    AfterHorizonError,
    DataError,
    Horizon,
    MonthFormatError,
)
from .stats import (
    BinomialCI,
    ExploitAgeSample,
    SurvivalCurve,
    agresti_coull,
    exploit_ages,
    kaplan_meier,
    pairwise_agreement,
)
from .strategies import (
    ConfigurationError,
    DeploymentMatrix,
    MatrixSpace,
    Scenario,
    ScenarioError,
    StrategyConfig,
    StrategyKind,
    apply_apt_first,
    build_matrix,
    count_updates,
    first_nonvulnerable,
    initial_versions,
)
from .versions import (
    VersionConstraint,
    affected_releases,
    version_key,
)

__version__ = "0.1.0"
