"""Self-tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ("releases.csv", "vulns.json", "campaigns.csv")

# The metric names the benchmark was specified with. failed_frac is printed
# with the others but travels as "attempted"/"failed" in the JSON result,
# because a metric that is 0 on every correct run has no spread to bound.
END_TO_END_NAMES = ["setup_s", "wall_s", "outcomes_per_s", "peak_rss_mb", "failed_frac"]
PER_LAYER_NAMES = [
    "catalog.load_s", "catalog.rows",
    "versions.match_s", "versions.match_checks", "versions.match_hit_ratio",
    "campaigns.exposure_s", "campaigns.exposure_built", "campaigns.exposure_kept_ratio", "campaigns.exposure_bytes",
    "strategies.planned_s", "strategies.planned_transitions",
    "strategies.reactive_s", "strategies.reactive_transitions",
    "strategies.apt_first_s",
    "evaluator.intersection_s", "evaluator.intersection_pairs", "evaluator.intersection_hit_ratio",
    "evaluator.series_s", "evaluator.series_fractions",
    "evaluator.evaluate_s",
    "campaigns.classify_s", "campaigns.classify_cves",
    "stats.survival_s",
    "cli.render_s", "cli.render_bytes",
    "trace.overhead_s",
]


@pytest.fixture(scope="module")
def patchsim():
    run.import_cli()
    import patchsim

    return patchsim


def _read(directory: Path) -> dict[str, bytes]:
    return {name: (directory / name).read_bytes() for name in INPUTS}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    shape = run.WORKLOADS[workload].shape
    first = gen.generate(shape, 7, tmp_path / "a")
    second = gen.generate(shape, 7, tmp_path / "b")
    assert first == second
    assert _read(tmp_path / "a") == _read(tmp_path / "b")


def test_different_seeds_give_different_inputs(tmp_path):
    gen.generate(gen.Shape(), 1, tmp_path / "a")
    gen.generate(gen.Shape(), 2, tmp_path / "b")
    a, b = _read(tmp_path / "a"), _read(tmp_path / "b")
    assert all(a[name] != b[name] for name in INPUTS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paper_shape_counts_stay_in_range(tmp_path, patchsim, seed):
    expected = gen.generate(gen.Shape(), seed, tmp_path)
    assert expected["cve_bearing_campaigns"] == 162
    assert expected["evaluated_campaigns"] == 72
    assert 340 <= expected["immediate_net_updates"] <= 400
    assert 420 <= expected["rows"] <= 500
    assert expected["months"] == 145

    catalog = patchsim.load_catalog(*(tmp_path / name for name in INPUTS))
    assert patchsim.validate_catalog(catalog) == []
    immediate = patchsim.StrategyConfig(patchsim.StrategyKind.IMMEDIATE)
    [report] = patchsim.evaluate(catalog, [immediate], [patchsim.Scenario.UPDATE_FIRST])
    assert report.updates_net == expected["immediate_net_updates"]
    assert len(report.outcomes) == expected["evaluated_campaigns"]
    assert sum(len(t.releases) for t in catalog.timelines.values()) == expected["rows"]
    assert len(catalog.campaigns) == expected["campaigns"]
    assert sum(1 for c in catalog.campaigns if c.cve_ids) == expected["cve_bearing_campaigns"]


def test_catalog_covers_the_special_cases(tmp_path, patchsim):
    gen.generate(gen.Shape(), 5, tmp_path)
    catalog = patchsim.load_catalog(*(tmp_path / name for name in INPUTS))
    vulns = json.loads((tmp_path / "vulns.json").read_text())
    matches = [a["match"] for v in vulns for a in v["affected"]]
    cataloged = set(catalog.timelines)

    assert any(len({(a["vendor"], a["product"]) for a in v["affected"]} & cataloged) > 1 for v in vulns)
    assert any("*" in m.values() for m in matches)
    assert any("exact" in m for m in matches) and any("exact" not in m for m in matches)
    assert any("u" in rel.version for rel in catalog.timelines[("oracle", "jre")].releases)
    diagnostics = patchsim.catalog_diagnostics(catalog)
    assert diagnostics["constraints_for_products_without_timeline"]
    assert diagnostics["vector_only_campaigns"] > 0
    campaign_rows = list(csv.DictReader((tmp_path / "campaigns.csv").read_text().splitlines()))
    assert len(campaign_rows) > len(catalog.campaigns)  # duplicate (apt, month) rows merged
    dates = [r["release_date"] for r in csv.DictReader((tmp_path / "releases.csv").read_text().splitlines())]
    dates += [r["date"] for r in campaign_rows] + [v[k] for v in vulns for k in ("reserved", "published")]
    assert any(d < "2008-01" for d in dates)
    assert any(len(d) == len("2008-01-15") for d in dates)


def test_metric_names_match_the_specification():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert list(run.END_TO_END) == [n for n in END_TO_END_NAMES if n != "failed_frac"]
    assert [m["name"] for m in bench["per_layer"]] == list(spans.PER_LAYER) == PER_LAYER_NAMES
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (u, _) in spans.PER_LAYER.items()}
    assert {w["name"]: w["why"] for w in bench["workloads"]}.items() <= {n: w.why for n, w in run.WORKLOADS.items()}.items()


def _bench(trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "paper-report",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_printed_end_to_end_metrics():
    lines, result = _bench(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if line.split()[0] in END_TO_END_NAMES}
    assert printed == {**run.END_TO_END, "failed_frac": "ratio"}


def test_printed_per_layer_metrics():
    _, result = _bench(1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == PER_LAYER_NAMES


def test_missing_or_changed_layer_function_is_unmeasured(monkeypatch, patchsim):
    evaluator, cli = patchsim.evaluator, patchsim.cli
    original = evaluator.successful_months
    monkeypatch.delattr(evaluator, "build_campaign_matrix")
    monkeypatch.setattr(cli, "venn_counts", lambda data: {})  # parameter renamed
    tracer = spans.Tracer()
    with spans.Instrumented(tracer):
        assert evaluator.successful_months is not original
    assert evaluator.successful_months is original
    assert tracer.unmeasured == {"campaigns.exposure", "campaigns.classify"}
    metrics = spans.layer_metrics(tracer, evaluate_s=1.0, overhead_s=0.1)
    assert not any(name.startswith(("campaigns.exposure", "campaigns.classify")) for name in metrics)
    assert "evaluator.intersection_s" in metrics


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, None, 1], ["inner", 2.0, 5.0, 0, 1], ["inner", 6.0, 7.0, 0, 1]]
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}
