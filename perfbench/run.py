"""patchsim benchmark: time to a correct strategy table, and the memory it needs.

    python3 perfbench/run.py --workload paper-report --seed 1 --seconds 20 --trace 0

Generates a seeded synthetic catalog for the workload, checks that it passes
`patchsim validate`, then runs the workload's CLI command in-process through
`patchsim.cli.run(argv)` in a closed loop with one client: each invocation
starts only after the previous one returned, with no threads. Every
invocation's artifacts are checked against the reference digests of the
first one, which is itself checked against counts the generator knows
independently of patchsim.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, outcomes_per_s,
peak_rss_mb, with failed_frac as attempted/failed); --trace 1 adds one traced
invocation and prints the per-layer metrics instead (see spans.py). The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. patchsim is imported from src/ next to this directory; nothing is
installed. Scratch files go under .perfbench/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

END_TO_END = {"setup_s": "s", "wall_s": "s", "outcomes_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_RUNS = 7          # fresh interpreters per run for setup_s, after one discarded
MIN_SAMPLES = 3         # invocations timed even when --seconds is shorter
CHILD_TIMEOUT_S = 150
DEFAULT_REPORTS = 20    # the CLI's default 10 strategy configs x 2 scenarios, used by every workload


@dataclass(frozen=True)
class Workload:
    command: str
    shape: gen.Shape
    why: str


WORKLOADS = {
    "paper-report": Workload(
        "report",
        gen.Shape(),
        "the command users run, at the paper's 1x shape: every layer takes a visible share, "
        "including load, classification and rendering, so fixed costs show",
    ),
    "campaign-heavy": Workload(
        "evaluate",
        gen.Shape(products=30, cves=300, off_catalog_cves=100,
                  campaigns=216, off_catalog_campaigns=270, vector_only_campaigns=54),
        "1.5x catalog with 3x campaigns: per-campaign exposure matrices dominate time and memory, "
        "so work on exposure and intersection shows here",
    ),
    "reactive-long": Workload(
        "evaluate",
        gen.Shape(epoch="1996-01", products=8, releases=100, cves=480, off_catalog_cves=100,
                  campaigns=12, off_catalog_campaigns=3, vector_only_campaigns=2),
        "289 months, 100 releases and 60 CVEs per product, 15 campaigns: the reactive and "
        "informed builders dominate and exposure is small, the bypass control for exposure work",
    ),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, invalid inputs)."""


def import_cli():
    """Import patchsim.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "patchsim" / "cli.py").is_file():
        raise BenchError(f"no patchsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import patchsim.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"patchsim imported from {cli.__file__}, not from {SRC}")
    return cli


def run_child(code: str, *args: str) -> str:
    """Run `python -c code args` in a fresh interpreter; return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child process failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return lines[-1]


SETUP_CODE = """\
import time
t0 = time.perf_counter()
import patchsim.cli
patchsim.cli.build_parser()
print(time.perf_counter() - t0)
"""

RSS_CODE = """\
import contextlib, io, json, resource, sys
from patchsim import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.run(sys.argv[1:])
print(json.dumps({"rc": rc, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def measure_setup() -> float:
    """Median seconds for `import patchsim.cli` + `build_parser()` in a fresh interpreter."""
    run_child(SETUP_CODE)  # fills the bytecode cache
    return statistics.median(float(run_child(SETUP_CODE)) for _ in range(SETUP_RUNS))


def quiet_run(cli, argv: list[str]) -> str | None:
    """One in-process invocation with its output captured; returns an error or None."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = cli.run(argv)
        except Exception:  # a crash is a failed invocation, not the end of the benchmark
            return traceback.format_exc()
    return None if rc == 0 else f"exit code {rc}: {sink.getvalue()[-300:]}"


def invoke(cli, argv: list[str]) -> tuple[float, str | None]:
    """One timed invocation after a full collection; returns (seconds, error or None)."""
    gc.collect()
    start = time.perf_counter()
    error = quiet_run(cli, argv)
    return time.perf_counter() - start, error


def read_manifest(out_dir: Path) -> dict[str, str]:
    """Artifact digests from manifest.json, after checking each against its file."""
    files = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["files"]
    for name, digest in files.items():
        if hashlib.sha256((out_dir / name).read_bytes()).hexdigest() != digest:
            raise BenchError(f"{name}: content does not match its manifest digest")
    return files


def check_against_generator(out_dir: Path, command: str, expected: dict) -> list[str]:
    """Compare the reference artifacts with counts the generator knows on its own."""
    problems = []
    reports = json.loads((out_dir / "evaluate.json").read_text(encoding="utf-8"))
    if len(reports) != DEFAULT_REPORTS:
        problems.append(f"evaluate.json has {len(reports)} reports, expected {DEFAULT_REPORTS}")
    for r in reports:
        label = f"{r['strategy']}:{r['delay_months']}@{r['scenario']}"
        outcomes = r["outcomes"]
        if len(outcomes) != expected["evaluated_campaigns"]:
            problems.append(f"{label}: {len(outcomes)} evaluated campaigns, expected {expected['evaluated_campaigns']}")
        successes = sum(1 for o in outcomes if o["success"])
        if outcomes and Fraction(r["overall_probability"]["fraction"]) != Fraction(successes, len(outcomes)):
            problems.append(f"{label}: overall probability disagrees with its outcomes")
        if r["strategy"] == "immediate" and r["scenario"] == "update-first":
            if r["updates"]["net"] != expected["immediate_net_updates"]:
                problems.append(f"immediate: {r['updates']['net']} net updates, expected {expected['immediate_net_updates']}")
    if command == "report":
        venn = json.loads((out_dir / "venn.json").read_text(encoding="utf-8"))
        if venn["total"] != expected["cve_bearing_campaigns"]:
            problems.append(f"venn.json total {venn['total']}, expected {expected['cve_bearing_campaigns']}")
        diag = json.loads((out_dir / "diagnostics.json").read_text(encoding="utf-8"))
        for key, want in (("campaigns", expected["campaigns"]), ("vulns", expected["cves"]),
                          ("products", expected["products"]),
                          ("vector_only_campaigns", expected["campaigns"] - expected["cve_bearing_campaigns"])):
            if diag[key] != want:
                problems.append(f"diagnostics.json {key} {diag[key]}, expected {want}")
    return problems


class Bench:
    """State of one benchmark run: inputs, reference digests, failure counts."""

    def __init__(self, cli, name: str, seed: int, work: Path):
        self.cli = cli
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = work
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.expected = gen.generate(self.workload.shape, seed, self.inputs)
        self.data_argv = [
            "--releases", str(self.inputs / "releases.csv"),
            "--vulns", str(self.inputs / "vulns.json"),
            "--campaigns", str(self.inputs / "campaigns.csv"),
            "--epoch", self.workload.shape.epoch,
            "--horizon", self.workload.shape.horizon,
        ]
        self.argv = [self.workload.command, *self.data_argv, "--out", str(self.out)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None

    def record(self, error: str | None, out_dir: Path) -> None:
        """Count one invocation; a failure is an error or artifacts unlike the reference."""
        self.attempted += 1
        if error is None:
            try:
                if read_manifest(out_dir) != self.reference:
                    error = "artifact digests differ from the reference"
            except (OSError, ValueError, KeyError, BenchError) as exc:
                error = f"unreadable artifacts: {exc}"
        if error is not None:
            self.failed += 1
            self.problems.append(error)

    def gate(self) -> None:
        """The generated catalog must pass `patchsim validate` before any timing."""
        _, error = invoke(self.cli, ["validate", *self.data_argv])
        if error is not None:
            raise BenchError(f"generated catalog fails validate: {error}")

    def warm_up(self) -> None:
        """First invocation: its artifacts become the reference once they agree with the generator.

        Without a valid reference every later invocation counts as failed.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        _, error = invoke(self.cli, self.argv)
        if error is None:
            try:
                problems = check_against_generator(self.out, self.workload.command, self.expected)
                if problems:
                    error = "; ".join(problems)
                else:
                    self.reference = read_manifest(self.out)
            except (OSError, ValueError, KeyError, BenchError) as exc:
                error = f"unreadable artifacts: {exc}"
        self.record(error, self.out)

    def loop(self, seconds: float) -> list[float]:
        """Closed loop, one client: wall seconds of each invocation, for `seconds`."""
        samples: list[float] = []
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
            shutil.rmtree(self.out, ignore_errors=True)
            elapsed, error = invoke(self.cli, self.argv)
            self.record(error, self.out)
            samples.append(elapsed)
        return samples

    def peak_rss_mb(self) -> float:
        """ru_maxrss of a fresh process running one invocation."""
        out = self.work / "rss-out"
        argv = [*self.argv[:-1], str(out)]
        result = json.loads(run_child(RSS_CODE, *argv))
        self.record(None if result["rc"] == 0 else f"exit code {result['rc']}", out)
        return result["maxrss_kb"] / 1024.0

    def outcomes(self) -> int:
        return DEFAULT_REPORTS * self.expected["evaluated_campaigns"]


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    setup_s = measure_setup()
    bench.warm_up()
    rss = bench.peak_rss_mb()
    samples = bench.loop(seconds)
    wall_s = statistics.median(samples)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "outcomes_per_s": bench.outcomes() / wall_s,
        "peak_rss_mb": rss,
    }
    failed_frac = bench.failed / bench.attempted
    lines = [
        f"setup_s         {setup_s:10.4f} s     median of {SETUP_RUNS} fresh interpreters: import patchsim.cli + build_parser()",
        f"wall_s          {wall_s:10.4f} s     median of {len(samples)} invocations, closed loop, 1 client, tracing off",
        f"outcomes_per_s  {values['outcomes_per_s']:10.1f} 1/s   {bench.outcomes()} outcomes (20 reports x "
        f"{bench.expected['evaluated_campaigns']} campaigns) / wall_s",
        f"peak_rss_mb     {rss:10.1f} MB    ru_maxrss of one invocation in a fresh process",
        f"failed_frac     {failed_frac:10.4f} ratio {bench.failed} of {bench.attempted} invocations failed",
    ]
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, lines


def traced(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced invocation plus probes of the remaining layers."""
    cli = bench.cli
    bench.warm_up()
    samples = bench.loop(seconds)
    wall_s = statistics.median(samples)
    import patchsim.catalog
    import patchsim.evaluator
    import patchsim.months

    shape = bench.workload.shape
    catalog = patchsim.catalog.load_catalog(
        bench.inputs / "releases.csv", bench.inputs / "vulns.json", bench.inputs / "campaigns.csv",
        patchsim.months.Horizon.from_strings(shape.epoch, shape.horizon),
    )
    tracer = spans.Tracer()
    with spans.Instrumented(tracer):
        shutil.rmtree(bench.out, ignore_errors=True)
        gc.collect()
        error, total_s = tracer.root("cli.run", quiet_run, cli, bench.argv)
        bench.record(error, bench.out)
        # layers the command does not reach are probed on their own, outside its total
        tracer.root("probe", probe_layers, cli, catalog, bench.workload.command, tracer.unmeasured)
    try:
        args = cli.build_parser().parse_args(bench.argv)
        configs = cli.parse_strategies(args.strategies, args.reactive_pick)
        scenarios = cli.parse_scenarios(args.scenarios)
        baseline = cli.parse_baseline(args.baseline, args.reactive_pick)
        start = time.perf_counter()
        reports = patchsim.evaluator.evaluate(catalog, configs, scenarios, baseline)
        evaluate_s = time.perf_counter() - start
    except (AttributeError, TypeError):
        tracer.unmeasured.add("evaluator.evaluate")
        evaluate_s, reports = 0.0, None
    if reports is not None and "evaluator.intersection" not in tracer.unmeasured:
        composed = {(r.config, r.scenario, o.campaign.key): o.success_months for r in reports for o in r.outcomes}
        if composed != tracer.outcomes:
            bench.problems.append("outcomes composed from traced layer calls differ from evaluate()")
    tracer.write(spans_path)
    values = spans.layer_metrics(tracer, evaluate_s, total_s - wall_s)
    lines = [f"{name:34s} {value:14.6g} {spans.PER_LAYER[name][0]}" for name, value in values.items()]
    lines.append(f"traced total {total_s:.4f} s vs untraced wall_s {wall_s:.4f} s "
                 f"(median of {len(samples)}); spans in {spans_path}")
    if tracer.unmeasured:
        lines.append(f"unmeasured layers: {', '.join(sorted(tracer.unmeasured))}")
    metrics = {k: {"value": v, "unit": spans.PER_LAYER[k][0]} for k, v in values.items()}
    return metrics, lines


def probe_layers(cli, catalog, command: str, unmeasured: set[str]) -> None:
    """Call the layers a command does not reach, through their traced bindings."""
    import patchsim.versions

    if "versions.match" not in unmeasured:
        # the full CVE x release incidence, once: the primitive every matching site repeats
        for cve in sorted(catalog.vulns):
            for pc in catalog.vulns[cve].affected:
                timeline = catalog.timelines.get(pc.key)
                if timeline is not None:
                    patchsim.versions.affected_releases(pc.constraint, timeline)
    if command == "report":
        return
    if "campaigns.classify" not in unmeasured:
        for campaign in catalog.campaigns:
            cli.classify_campaign(campaign, catalog)
        cli.venn_counts(catalog)
    if "stats.survival" not in unmeasured:
        cli.kaplan_meier(cli.exploit_ages(catalog))


def environment() -> str:
    import numpy

    return (f"nproc {len(os.sched_getaffinity(0))}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, BLAS threads {blas_threads()}")


def blas_threads() -> str:
    """Thread count of the OpenBLAS numpy loaded, or the environment's setting."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = SCRATCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli = import_cli()
        bench = Bench(cli, args.workload, args.seed, work)
        bench.gate()
        if args.trace:
            spans_path = SCRATCH / "spans" / f"{args.workload}-seed{args.seed}.json"
            metrics, lines = traced(bench, args.seconds, spans_path)
        else:
            metrics, lines = end_to_end(bench, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e = bench.expected
    print(f"workload {args.workload}, seed {args.seed}: patchsim {bench.workload.command}, "
          f"{e['rows']} rows x {e['months']} months, {e['cves']} CVEs, {e['campaigns']} campaigns "
          f"({e['cve_bearing_campaigns']} CVE-bearing, {e['evaluated_campaigns']} evaluated), "
          f"{bench.outcomes()} outcomes")
    print(environment())
    for line in lines + [f"problem: {p}" for p in bench.problems[:20]]:
        print(line)
    correct = bench.failed == 0 and not bench.problems
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
