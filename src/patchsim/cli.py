"""Command-line interface.

Subcommands:
  validate   load the dataset and report integrity violations
  evaluate   compare update strategies (probability, updates, odds table)
  classify   per-campaign lifecycle classes and knowledge-group counts
  survival   exploit-age survival curve as CSV
  report     run all of the above into an output directory with a manifest

Exit codes: 0 success, 1 data/validation problems, 2 usage or I/O errors
(a bad flag or config value included).

Dataset paths default to $PATCHSIM_DATA/{releases.csv,vulns.json,campaigns.csv}
when the environment variable is set. A JSON config file (--config) may hold
any long-form flag value; explicit flags override it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .campaigns import KNOWLEDGE_ORDER, TieRule, campaign_scenarios, classify_campaign, venn_counts
from .catalog import Catalog, ProductKey, catalog_diagnostics, load_catalog, validate_catalog
from .evaluator import DEFAULT_BASELINE, EvaluationReport, evaluate, percent_1dp
from .months import DEFAULT_EPOCH, DEFAULT_HORIZON_END, DataError, Horizon, split_date
from .stats import agresti_coull, exploit_ages, kaplan_meier
from .strategies import REACTIVE_PICKS, Scenario, StrategyConfig

DATA_DIR_ENV = "PATCHSIM_DATA"

DEFAULT_STRATEGIES = "immediate,planned:1,planned:3,planned:7,reactive:1,reactive:3,reactive:7,informed:1,informed:3,informed:7"
DEFAULT_SCENARIOS = ",".join(scenario.value for scenario in Scenario)

# option -> allowed values, for argparse and for --config alike
CHOICES = {
    "reactive_pick": REACTIVE_PICKS,
    "tie_rule": tuple(rule.value for rule in TieRule),
    "format": ("json", "csv", "both"),
}


def parse_scenario(token: str) -> Scenario:
    try:
        return Scenario(token)
    except ValueError:
        allowed = ", ".join(scenario.value for scenario in Scenario)
        raise ValueError(f"unknown scenario {token!r}; allowed: {allowed}") from None


def _comma_list(text: str, parse, what: str) -> list:
    """Parse each non-blank token of a comma list; an empty list or a repeated value is an error."""
    out: list = []
    for token in filter(None, map(str.strip, text.split(","))):
        value = parse(token)
        if value in out:
            raise ValueError(f"{what} {token!r} repeats an earlier one")
        out.append(value)
    if not out:
        raise ValueError(f"at least one {what} is required")
    return out


def parse_scenarios(text: str) -> list[Scenario]:
    return _comma_list(text, parse_scenario, "scenario")


def parse_strategies(text: str, reactive_pick: str) -> list[StrategyConfig]:
    return _comma_list(text, lambda token: StrategyConfig.parse(token, reactive_pick), "strategy")


def parse_products(text: str, catalog: Catalog) -> Optional[set[ProductKey]]:
    """'all' (None: no filter) or a comma list of cataloged vendor/name keys."""
    if text.strip() == "all":
        return None

    def key(token: str) -> ProductKey:
        vendor, _, name = token.partition("/")
        if not name:
            raise ValueError(f"entries must look like vendor/name, got {token!r}")
        if (vendor, name) not in catalog.timelines:
            raise ValueError(f"unknown product {token!r}")
        return vendor, name

    return set(_comma_list(text, key, "product"))


def parse_baseline(text: str, reactive_pick: str) -> tuple[StrategyConfig, Scenario]:
    token, at, scen = text.partition("@")
    cfg, scen = StrategyConfig.parse(token, reactive_pick), scen.strip()
    if at and not scen:
        raise ValueError(f"no scenario after '@' in {text!r}")
    return cfg, parse_scenario(scen) if at else Scenario.UPDATE_FIRST


def _data_flags() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    data_dir = os.environ.get(DATA_DIR_ENV)
    default = (lambda name: str(Path(data_dir) / name)) if data_dir else (lambda name: None)
    parser.add_argument("--releases", default=default("releases.csv"),
                        help="release timeline CSV (vendor,product,version,release_date)")
    parser.add_argument("--vulns", default=default("vulns.json"),
                        help="vulnerability records JSON with affected-version constraints")
    parser.add_argument("--campaigns", default=default("campaigns.csv"),
                        help="campaign events CSV (apt,date,cves,vectors)")
    parser.add_argument("--epoch", default=DEFAULT_EPOCH, help="first month of the analysis window (YYYY-MM)")
    parser.add_argument("--horizon", default=DEFAULT_HORIZON_END, help="last month of the analysis window (YYYY-MM)")
    parser.add_argument("--config", default=None,
                        help="JSON file holding any of these options; explicit flags win")
    return parser


def _strategy_flags() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--strategies", default=DEFAULT_STRATEGIES,
                        help="comma list of name[:delay] with names immediate, planned, reactive, informed")
    parser.add_argument("--scenarios", default=DEFAULT_SCENARIOS,
                        help="comma list of update-first (optimistic) and/or apt-first (pessimistic)")
    baseline_config, baseline_scenario = DEFAULT_BASELINE
    parser.add_argument("--baseline", default=f"{baseline_config.label}@{baseline_scenario.value}",
                        help="odds baseline as strategy[:delay][@scenario]")
    parser.add_argument("--reactive-pick", default=REACTIVE_PICKS[0], choices=CHOICES["reactive_pick"],
                        help="which escaping release a reactive update installs")
    return parser


def _tie_rule_flags() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--tie-rule", default=TieRule.INCLUSIVE.value, choices=CHOICES["tie_rule"],
                        help="same-month tie handling in lifecycle classification")
    return parser


def _output_flags() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--out", default=None,
                        help="directory for the artifacts and their manifest.json; report requires it, "
                             "as a flag or in --config")
    parser.add_argument("--format", default="both", choices=CHOICES["format"],
                        help="artifact family to write under --out")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchsim",
        allow_abbrev=False,
        description="Quantify update-strategy effectiveness against APT campaign timelines.",
        epilog=(
            f"Set ${DATA_DIR_ENV} to a directory holding releases.csv, vulns.json and "
            "campaigns.csv to omit the dataset flags. Exit codes: 0 ok, 1 data problems, "
            "2 usage/IO errors, a bad flag or config value included."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data, strategy, tie_rule, output = _data_flags(), _strategy_flags(), _tie_rule_flags(), _output_flags()

    def add(name: str, parents: list, help: str) -> argparse.ArgumentParser:
        # no abbreviations: each flag has one spelling, so explicit flags can beat --config
        return sub.add_parser(name, parents=parents, help=help, allow_abbrev=False)

    add("validate", [data], "check dataset integrity")

    add("evaluate", [data, strategy, output], "probability / update-count / odds table per strategy")
    add("classify", [data, tie_rule, output], "lifecycle classes per campaign, knowledge-group counts")

    p_survival = add("survival", [data, tie_rule, output], "exploit-age survival curve (CSV)")
    p_survival.add_argument("--products", default="all",
                            help="'all' or comma list of vendor/name to restrict the CVE sample")
    p_survival.add_argument("--kk-only", action="store_true",
                            help="keep only CVEs first exploited at or after publication")
    p_survival.add_argument("--include-unexploited", action="store_true",
                            help="add never-exploited CVEs as censored at the horizon end")
    add("report", [data, strategy, tie_rule, output], "full run: evaluate + classify + survival + manifest")
    return parser


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    path = Path(args.config)
    try:
        values = json.loads(path.read_text(encoding="utf-8-sig"))
    # RecursionError: nested too deeply
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"config file {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise UsageError(f"config file {path}: top-level value must be an object")
    options = set(vars(args)) - {"command", "config"}  # the subcommand's own options
    explicit = {a.lstrip("-").split("=")[0].replace("-", "_") for a in argv if a.startswith("--")}
    for key, value in values.items():
        attr = key.replace("-", "_")
        if attr not in options:
            raise UsageError(f"config file {path}: unknown option {key!r} for {args.command}")
        kind = bool if isinstance(getattr(args, attr), bool) else str
        if not isinstance(value, kind):
            raise UsageError(f"config file {path}: option {key!r} must be a {'boolean' if kind is bool else 'string'}")
        if attr in CHOICES and value not in CHOICES[attr]:
            raise UsageError(f"config file {path}: option {key!r} must be one of {', '.join(CHOICES[attr])}")
        if attr not in explicit:
            setattr(args, attr, value)
    return args


class UsageError(Exception):
    pass


def _flag_value(flag: str, parse, *values):
    """parse(*values), with a value it rejects reported as misuse of `flag`."""
    try:
        return parse(*values)
    except (ValueError, DataError) as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _load(args: argparse.Namespace) -> Catalog:
    missing = [name for name in ("releases", "vulns", "campaigns") if not getattr(args, name)]
    if missing:
        raise UsageError(
            f"missing dataset path(s): {', '.join('--' + m for m in missing)} "
            f"(or set ${DATA_DIR_ENV})"
        )
    # each date is parsed alone first only so that a malformed one names its flag;
    # from_strings parses both again and checks that the end comes after the epoch
    for flag, value in (("--epoch", args.epoch), ("--horizon", args.horizon)):
        _flag_value(flag, split_date, value)
    horizon = _flag_value("--epoch/--horizon", Horizon.from_strings, args.epoch, args.horizon)
    return load_catalog(args.releases, args.vulns, args.campaigns, horizon)


# ---------------------------------------------------------------------------
# Artifact rendering (all file output funnels through emit_files)


def emit_files(files: dict[str, str], out_dir, formats: str = "both") -> dict[str, str]:
    """Write named artifacts deterministically; returns {name: sha256}.

    `files` maps file names to full text content. The format selector drops
    whole families: 'json' keeps .json files only, 'csv' keeps .csv only.
    A manifest.json with content digests is always written.
    """
    if not files:
        raise ValueError("no artifacts to write")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc}") from exc
    selected = {
        name: text
        for name, text in files.items()
        if formats == "both"
        or (formats == "json" and name.endswith(".json"))
        or (formats == "csv" and name.endswith(".csv"))
    }
    if not selected:
        raise UsageError(f"--format {formats} selects none of {', '.join(sorted(files))}")
    manifest = {}
    for name, text in sorted(selected.items()):
        data = text.encode("utf-8")  # the bytes hashed are the bytes written, on any platform
        manifest[name] = hashlib.sha256(data).hexdigest()
        try:
            (out / name).write_bytes(data)
        except OSError as exc:
            raise UsageError(f"cannot write {out / name}: {exc}") from exc
    manifest_text = json.dumps({"tool": "patchsim", "files": manifest}, indent=2, sort_keys=True) + "\n"
    (out / "manifest.json").write_bytes(manifest_text.encode("utf-8"))
    return manifest


def emit_report(reports: list[EvaluationReport], catalog: Catalog, out_dir, formats: str = "both") -> dict[str, str]:
    """Write evaluation artifacts (JSON report, CSV table, monthly series)."""
    if not reports:
        raise ValueError("no reports to emit")
    return emit_files(_evaluation_files(reports, catalog), out_dir, formats)


def _json_list(items: list[str], depth: int) -> str:
    """A JSON array of rendered items, laid out as json.dumps(indent=2) lays
    out an array `depth` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _evaluation_json(reports: list[EvaluationReport], catalog: Catalog) -> str:
    """evaluate.json: per report its summary and campaign outcomes, in the bytes
    json.dumps(..., indent=2, sort_keys=True) + "\n" gives. It is written from
    a template because an indent makes json.dumps fall back to its pure-Python
    encoder; each leaf still goes through json.dumps, keys in sorted order."""
    sep = ",\n          "
    labels = [json.dumps(label) for label in catalog.horizon.labels]
    campaigns, parts = (), []
    rendered = []
    for r in reports:
        listed = tuple(o.campaign for o in r.outcomes)
        if listed != campaigns:  # the reports of one evaluation list the same campaigns
            campaigns = listed
            parts = [
                (f'{{\n        "apt": {json.dumps(c.apt_name)},\n        "months": ',
                 f',\n        "start": {labels[c.start_month]},\n        "success": ')
                for c in campaigns
            ]
        outcomes, successes = [], 0
        for (head, tail), o in zip(parts, r.outcomes):
            if o.success_months:
                months = sep.join([sep.join(labels[a:b]) for a, b in o.success_months])
                outcomes.append(f"{head}[\n          {months}\n        ]{tail}true\n      }}")
                successes += 1
            else:
                outcomes.append(f"{head}[]{tail}false\n      }}")
        ci = agresti_coull(successes, len(r.outcomes), 0.95)
        odds = None if r.odds_vs_baseline is None else round(r.odds_vs_baseline, 3)
        rendered.append(f"""{{
    "ci95_percent": [
      {json.dumps(round(ci.low * 100, 2))},
      {json.dumps(round(ci.high * 100, 2))}
    ],
    "delay_months": {json.dumps(r.config.delay_months)},
    "odds_vs_baseline": {json.dumps(odds)},
    "outcomes": {_json_list(outcomes, 2)},
    "overall_probability": {{
      "fraction": {json.dumps(f"{r.overall.numerator}/{r.overall.denominator}")},
      "percent": {json.dumps(percent_1dp(r.overall))}
    }},
    "scenario": {json.dumps(r.scenario.value)},
    "strategy": {json.dumps(r.config.kind.value)},
    "updates": {{
      "net": {json.dumps(r.updates_net)},
      "raw": {json.dumps(r.updates_raw)}
    }}
  }}""")
    return _json_list(rendered, 0) + "\n"


def _evaluation_files(reports: list[EvaluationReport], catalog: Catalog) -> dict[str, str]:
    eval_json = _evaluation_json(reports, catalog)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["strategy", "delay_months", "scenario", "updates_raw", "updates_net",
                     "probability_percent", "odds_vs_baseline"])
    for r in reports:
        writer.writerow([
            r.config.kind.value,
            r.config.delay_months,
            r.scenario.value,
            r.updates_raw,
            r.updates_net,
            percent_1dp(r.overall),
            "" if r.odds_vs_baseline is None else f"{r.odds_vs_baseline:.3f}",
        ])
    eval_csv = buf.getvalue()

    buf = io.StringIO()
    writer = csv.writer(buf)
    labels = [f"{r.config.label}@{r.scenario.value}" for r in reports]
    writer.writerow(["month", "date"] + labels)
    columns = []
    for r in reports:
        column, shown, text = [], object(), ""
        for p in r.monthly:
            if p is not shown:  # monthly_probabilities repeats one object while the counts hold
                shown, text = p, "" if p is None else percent_1dp(p)
            column.append(text)
        columns.append(column)
    writer.writerows(zip(range(len(catalog.horizon.labels)), catalog.horizon.labels, *columns))
    series_csv = buf.getvalue()

    return {"evaluate.json": eval_json, "evaluate.csv": eval_csv, "series.csv": series_csv}


def _classify_files(catalog: Catalog, tie_rule: TieRule) -> dict[str, str]:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["apt", "date", "classes", "cve_scenarios"])
    for campaign in catalog.campaigns:
        groups = classify_campaign(campaign, catalog, tie_rule)
        scenarios = campaign_scenarios(campaign, catalog, tie_rule)
        writer.writerow([
            campaign.apt_name,
            catalog.horizon.format(campaign.start_month),
            "|".join(sorted(groups, key=KNOWLEDGE_ORDER.index)),
            "|".join(f"{cve}={scenario.value}" for cve, scenario in sorted(scenarios.items())),
        ])
    venn = json.dumps(venn_counts(catalog, tie_rule), indent=2, sort_keys=True) + "\n"
    return {"classify.csv": buf.getvalue(), "venn.json": venn}


def _survival_files(catalog: Catalog, tie_rule: TieRule, products: Optional[set[ProductKey]] = None,
                    kk_only: bool = False, include_unexploited: bool = False) -> dict[str, str]:
    """survival.csv over the CVEs affecting one of `products`, or every CVE when None."""
    samples = _flag_value("--kk-only/--include-unexploited", exploit_ages,
                          catalog, include_unexploited, kk_only, tie_rule)
    if products is not None:
        wanted = {cve for cve, vuln in catalog.vulns.items() if any(pc.key in products for pc in vuln.affected)}
        samples = [s for s in samples if s.cve_id in wanted]
    if not samples:
        raise DataError("no exploit-age samples under the given filters")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["age_months", "survival"])
    for t, s in kaplan_meier(samples):
        writer.writerow([t, f"{float(s):.6f}"])
    return {"survival.csv": buf.getvalue()}


# ---------------------------------------------------------------------------
# Subcommand drivers


def _print_table(reports: list[EvaluationReport], out) -> None:
    by_config: dict[StrategyConfig, dict[Scenario, EvaluationReport]] = {}
    for r in reports:
        by_config.setdefault(r.config, {})[r.scenario] = r
    rows = [("Interval", "Strategy", "#Updates", "Prob.", "Odds")]
    for config, per_scenario in by_config.items():
        interval = "/" if config.delay_months == 0 else f"{config.delay_months} mo"
        ordered = [per_scenario[s] for s in (Scenario.UPDATE_FIRST, Scenario.APT_FIRST) if s in per_scenario]
        prob = "-".join(percent_1dp(r.overall) for r in ordered) + "%"
        odds = "-".join(
            "n/a" if r.odds_vs_baseline is None else f"{r.odds_vs_baseline:.1f}x" for r in ordered
        )
        rows.append((interval, config.kind.value, str(ordered[0].updates_raw), prob, odds))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip(), file=out)


def _cmd_validate(args: argparse.Namespace) -> int:
    catalog = _load(args)
    violations = validate_catalog(catalog)
    for v in violations:
        print(f"{v.entity}: {v.rule}" + (f" ({v.detail})" if v.detail else ""))
    diag = catalog_diagnostics(catalog)
    dead = diag["constraints_matching_no_release"]
    if dead:
        print(f"note: {len(dead)} constraint(s) match no cataloged release", file=sys.stderr)
    for kind, what in (("truncated", "day-level date(s) truncated to the month"),
                       ("clamped", f"pre-epoch date(s) clamped to {catalog.horizon.format(0)}"),
                       ("merged", "duplicate campaign row(s) merged into one campaign")):
        noted = [(where, text) for k, where, text in catalog.notes if k == kind]
        if noted:
            print(f"note: {len(noted)} {what}, first at {noted[0][0]} ({noted[0][1]!r})", file=sys.stderr)
    if violations:
        return 1
    print(f"ok: {diag['products']} products, {diag['vulns']} CVEs, {diag['campaigns']} campaigns")
    return 0


def _evaluate(catalog: Catalog, args: argparse.Namespace) -> list[EvaluationReport]:
    configs = _flag_value("--strategies", parse_strategies, args.strategies, args.reactive_pick)
    scenarios = _flag_value("--scenarios", parse_scenarios, args.scenarios)
    baseline = _flag_value("--baseline", parse_baseline, args.baseline, args.reactive_pick)
    return evaluate(catalog, configs, scenarios, baseline)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    catalog = _load(args)
    reports = _evaluate(catalog, args)
    _print_table(reports, sys.stdout)
    if args.out:
        emit_report(reports, catalog, args.out, args.format)
    return 0


def _emit_or_print(files: dict[str, str], args: argparse.Namespace) -> None:
    """Write the artifacts under --out when it is given, else each file's text to stdout."""
    if args.out:
        emit_files(files, args.out, args.format)
    else:
        for text in files.values():
            sys.stdout.write(text)


def _cmd_classify(args: argparse.Namespace) -> int:
    catalog = _load(args)
    _emit_or_print(_classify_files(catalog, TieRule(args.tie_rule)), args)
    return 0


def _cmd_survival(args: argparse.Namespace) -> int:
    catalog = _load(args)
    products = _flag_value("--products", parse_products, args.products, catalog)
    tie_rule = TieRule(args.tie_rule)
    _emit_or_print(_survival_files(catalog, tie_rule, products, args.kk_only, args.include_unexploited), args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if not args.out:
        raise UsageError("report needs an output directory: --out, or \"out\" in --config")
    catalog = _load(args)
    reports = _evaluate(catalog, args)
    files = _evaluation_files(reports, catalog)
    tie_rule = TieRule(args.tie_rule)
    files.update(_classify_files(catalog, tie_rule))
    files.update(_survival_files(catalog, tie_rule))
    files["diagnostics.json"] = json.dumps(catalog_diagnostics(catalog), indent=2, sort_keys=True) + "\n"
    emit_files(files, args.out, args.format)
    _print_table(reports, sys.stdout)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "evaluate": _cmd_evaluate,
    "classify": _cmd_classify,
    "survival": _cmd_survival,
    "report": _cmd_report,
}


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        args = _apply_config_file(args, argv)
        return _COMMANDS[args.command](args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
