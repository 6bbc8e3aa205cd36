"""patchsim: quantify software-update strategies against APT campaign timelines.

Replays per-product release histories and attributed campaign events over a
month-granular window to compute, per update strategy, the conditional
probability of compromise, update cost, odds ratios, confidence intervals,
and exploit-age survival.

The package exports the library API that README's "Library" section shows;
every other name is imported from its own module.
"""

from .catalog import catalog_diagnostics, load_catalog, validate_catalog
from .evaluator import evaluate
from .months import DataError
from .stats import agresti_coull, exploit_ages, kaplan_meier
from .strategies import Scenario, StrategyConfig, StrategyKind

__version__ = "0.1.0"
