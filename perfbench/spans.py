"""Traced run: spans at patchsim's layer boundaries, self time and counts per layer.

Spans wrap calls into each layer's public functions. They are installed by
rebinding the name the calling module looks up (for example
`patchsim.evaluator.build_campaign_matrix`), so the command runs its own code
path; nothing in patchsim is edited, and every binding is restored on exit.
A function that is missing, or whose leading parameters changed, leaves its
layer unmeasured instead of failing the run.

Spans are kept in memory as (name, start, end, parent, run id) and written
out at the end. A layer's self time is the time its spans cover minus the
time covered by their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Per-layer metrics of the traced run: unit, and the layer whose spans feed
# them. "strategies.build" spans are renamed to the planned or reactive layer
# once the built matrix shows its kind. "trace.overhead_s" is the traced
# command's total minus the untraced median wall time.
PER_LAYER = {
    "catalog.load_s": ("s", "catalog.load"),
    "catalog.rows": ("count", "catalog.load"),
    "versions.match_s": ("s", "versions.match"),
    "versions.match_checks": ("count", "versions.match"),
    "versions.match_hit_ratio": ("ratio", "versions.match"),
    "campaigns.exposure_s": ("s", "campaigns.exposure"),
    "campaigns.exposure_built": ("count", "campaigns.exposure"),
    "campaigns.exposure_kept_ratio": ("ratio", "campaigns.exposure"),
    "campaigns.exposure_bytes": ("bytes", "campaigns.exposure"),
    "strategies.planned_s": ("s", "strategies.build"),
    "strategies.planned_transitions": ("count", "strategies.build"),
    "strategies.reactive_s": ("s", "strategies.build"),
    "strategies.reactive_transitions": ("count", "strategies.build"),
    "strategies.apt_first_s": ("s", "strategies.apt_first"),
    "evaluator.intersection_s": ("s", "evaluator.intersection"),
    "evaluator.intersection_pairs": ("count", "evaluator.intersection"),
    "evaluator.intersection_hit_ratio": ("ratio", "evaluator.intersection"),
    "evaluator.series_s": ("s", "evaluator.series"),
    "evaluator.series_fractions": ("count", "evaluator.series"),
    "evaluator.evaluate_s": ("s", "evaluator.evaluate"),
    "campaigns.classify_s": ("s", "campaigns.classify"),
    "campaigns.classify_cves": ("count", "campaigns.classify"),
    "stats.survival_s": ("s", "stats.survival"),
    "cli.render_s": ("s", "cli.render"),
    "cli.render_bytes": ("bytes", "cli.render"),
    "trace.overhead_s": ("s", None),
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_rows(tracer, catalog, args, kwargs):
    tracer.counts["catalog.rows"] += sum(len(t.releases) for t in catalog.timelines.values())


def _count_matches(tracer, matched, args, kwargs):
    tracer.counts["versions.match_checks"] += len(_arg(args, kwargs, 1, "timeline").releases)
    tracer.counts["versions.match_hits"] += len(matched)


def _count_exposure(tracer, matrix, args, kwargs):
    tracer.counts["campaigns.exposure_built"] += 1
    if not matrix.empty:
        tracer.counts["campaigns.exposure_kept"] += 1
        tracer.counts["campaigns.exposure_bytes"] += matrix.cells.nbytes


def _strategy_layer(matrix) -> str:
    return "strategies.reactive" if matrix.config.kind.name.endswith("REACTIVE") else "strategies.planned"


def _count_transitions(tracer, matrix, args, kwargs):
    tracer.counts[_strategy_layer(matrix) + "_transitions"] += len(matrix.transitions)


def _record_intersection(tracer, months, args, kwargs):
    deployment = _arg(args, kwargs, 0, "deployment")
    exposure = _arg(args, kwargs, 1, "exposure")
    tracer.counts["evaluator.intersection_pairs"] += 1
    tracer.counts["evaluator.intersection_hits"] += bool(months)
    tracer.outcomes[(deployment.config, deployment.scenario, exposure.campaign.key)] = months


def _count_fraction(tracer, fraction, args, kwargs):
    tracer.counts["evaluator.series_fractions"] += 1


def _count_classified(tracer, result, args, kwargs):
    tracer.counts["campaigns.classify_cves"] += len(_arg(args, kwargs, 0, "campaign").cve_ids)


def _count_rendered(tracer, manifest, args, kwargs):
    files = _arg(args, kwargs, 0, "files")
    tracer.counts["cli.render_bytes"] += sum(len(files[name].encode("utf-8")) for name in manifest)


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    attr: str
    params: tuple[str, ...]     # leading parameter names the wrapper relies on
    count: Optional[Callable] = None
    optional: bool = False      # a private helper: missing leaves the layer measured


TARGETS = (
    Target("catalog.load", "patchsim.cli", "load_catalog",
           ("release_path", "vuln_path", "campaign_path"), _count_rows),
    Target("versions.match", "patchsim.versions", "affected_releases", ("constraint", "timeline"), _count_matches),
    Target("campaigns.exposure", "patchsim.evaluator", "build_campaign_matrix",
           ("campaign", "catalog"), _count_exposure),
    Target("strategies.build", "patchsim.evaluator", "build_matrix", ("catalog", "config"), _count_transitions),
    Target("strategies.apt_first", "patchsim.evaluator", "apply_apt_first", ("matrix",)),
    Target("evaluator.intersection", "patchsim.evaluator", "successful_months", ("deployment", "exposure"),
           _record_intersection),
    Target("evaluator.series", "patchsim.evaluator", "probability_at", ("outcomes", "month"), _count_fraction),
    Target("evaluator.series", "patchsim.evaluator", "overall_probability", ("outcomes",)),
    Target("evaluator.evaluate", "patchsim.cli", "evaluate", ("catalog", "configs", "scenarios", "baseline")),
    Target("campaigns.classify", "patchsim.cli", "classify_campaign", ("campaign", "catalog"), _count_classified),
    Target("campaigns.classify", "patchsim.cli", "campaign_scenarios", ("campaign", "catalog"), _count_classified),
    Target("campaigns.classify", "patchsim.cli", "venn_counts", ("catalog",)),
    Target("campaigns.classify", "patchsim.campaigns", "classify_campaign",
           ("campaign", "catalog"), _count_classified),
    Target("stats.survival", "patchsim.cli", "exploit_ages", ("catalog",)),
    Target("stats.survival", "patchsim.cli", "kaplan_meier", ("samples",)),
    Target("cli.render", "patchsim.cli", "emit_files", ("files", "out_dir"), _count_rendered),
    Target("cli.render", "patchsim.cli", "emit_report", ("reports", "catalog", "out_dir")),
    Target("cli.render", "patchsim.cli", "_evaluation_files", ("reports", "catalog"), optional=True),
    Target("cli.render", "patchsim.cli", "_classify_files", ("catalog",), optional=True),
    Target("cli.render", "patchsim.cli", "_survival_files", ("catalog",), optional=True),
)


class Tracer:
    """In-memory spans for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.outcomes: dict = {}  # (config, scenario, campaign key) -> success months
        self.unmeasured: set[str] = set()  # layers whose functions are missing or changed
        self.run = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.run])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def root(self, name: str, fn: Callable, *args):
        """Run fn(*args) as the root span of a new run id; return (result, seconds)."""
        self.run += 1
        index = self.open(name)
        try:
            result = fn(*args)
        finally:
            self.close(index)
        return result, self.spans[index][2] - self.spans[index][1]

    def wrap(self, target: Target, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self.open(target.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            try:
                if target.layer == "strategies.build":
                    self.spans[index][0] = _strategy_layer(result)
                if target.count is not None:
                    target.count(self, result, args, kwargs)
            except (AttributeError, KeyError, TypeError):
                self.unmeasured.add(target.layer)  # the result no longer looks as expected
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "run")
        path.write_text(json.dumps([dict(zip(keys, span)) for span in self.spans]) + "\n", encoding="utf-8")


class Instrumented:
    """Context manager that installs the span wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumented":
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                module = None
            fn = getattr(module, target.attr, None)
            if fn is None or not _leading_params_match(fn, target.params):
                if not target.optional:
                    self.tracer.unmeasured.add(target.layer)
                continue
            self._saved.append((module, target.attr, fn))
            setattr(module, target.attr, self.tracer.wrap(target, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def _leading_params_match(fn: Callable, params: tuple[str, ...]) -> bool:
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return False
    return names[: len(params)] == list(params)


def layer_metrics(tracer: Tracer, evaluate_s: float, overhead_s: float) -> dict[str, float]:
    """Per-layer metric values; unmeasured layers are left out."""
    self_s = tracer.self_times()
    counts = tracer.counts

    def ratio(part: str, whole: str) -> float:
        return counts[part] / counts[whole] if counts[whole] else 0.0

    values = {
        "catalog.load_s": self_s.get("catalog.load", 0.0),
        "catalog.rows": counts["catalog.rows"],
        "versions.match_s": self_s.get("versions.match", 0.0),
        "versions.match_checks": counts["versions.match_checks"],
        "versions.match_hit_ratio": ratio("versions.match_hits", "versions.match_checks"),
        "campaigns.exposure_s": self_s.get("campaigns.exposure", 0.0),
        "campaigns.exposure_built": counts["campaigns.exposure_built"],
        "campaigns.exposure_kept_ratio": ratio("campaigns.exposure_kept", "campaigns.exposure_built"),
        "campaigns.exposure_bytes": counts["campaigns.exposure_bytes"],
        "strategies.planned_s": self_s.get("strategies.planned", 0.0),
        "strategies.planned_transitions": counts["strategies.planned_transitions"],
        "strategies.reactive_s": self_s.get("strategies.reactive", 0.0),
        "strategies.reactive_transitions": counts["strategies.reactive_transitions"],
        "strategies.apt_first_s": self_s.get("strategies.apt_first", 0.0),
        "evaluator.intersection_s": self_s.get("evaluator.intersection", 0.0),
        "evaluator.intersection_pairs": counts["evaluator.intersection_pairs"],
        "evaluator.intersection_hit_ratio": ratio("evaluator.intersection_hits", "evaluator.intersection_pairs"),
        "evaluator.series_s": self_s.get("evaluator.series", 0.0),
        "evaluator.series_fractions": counts["evaluator.series_fractions"],
        "evaluator.evaluate_s": evaluate_s,
        "campaigns.classify_s": self_s.get("campaigns.classify", 0.0),
        "campaigns.classify_cves": counts["campaigns.classify_cves"],
        "stats.survival_s": self_s.get("stats.survival", 0.0),
        "cli.render_s": self_s.get("cli.render", 0.0),
        "cli.render_bytes": counts["cli.render_bytes"],
        "trace.overhead_s": overhead_s,
    }
    return {name: value for name, value in values.items() if PER_LAYER[name][1] not in tracer.unmeasured}
