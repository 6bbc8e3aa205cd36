import argparse
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import patchsim
from conftest import campaign, make_catalog, random_catalog, ref_evaluation_json, save_catalog, vuln
from patchsim.campaigns import TieRule
from patchsim.cli import (
    CHOICES,
    DEFAULT_STRATEGIES,
    _evaluation_files,
    build_parser,
    emit_report,
    parse_baseline,
    parse_scenarios,
    parse_strategies,
    run,
)
from patchsim.evaluator import DEFAULT_BASELINE, evaluate
from patchsim.months import Horizon
from patchsim.strategies import REACTIVE_PICKS, Scenario, StrategyConfig, StrategyKind


def _data_args(fixture_paths):
    return [
        "--releases", str(fixture_paths["releases"]),
        "--vulns", str(fixture_paths["vulns"]),
        "--campaigns", str(fixture_paths["campaigns"]),
    ]


def test_validate_ok_fixture(fixture_paths, capsys):
    assert run(["validate", *_data_args(fixture_paths)]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out


def test_validate_notes_what_the_loader_changed(tmp_path, fixture_paths, capsys):
    releases, campaigns = tmp_path / "releases.csv", tmp_path / "campaigns.csv"
    releases.write_text(fixture_paths["releases"].read_text() + "acme,old,1.0,2006-05-17\nacme,old,1.1,2007-02\n")
    campaigns.write_text(fixture_paths["campaigns"].read_text() + "Quartz,2009-03-02,,valid-accounts\n")
    argv = ["validate", *_data_args(fixture_paths), "--releases", str(releases), "--campaigns", str(campaigns)]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("ok: ")
    assert err == (
        f"note: 2 day-level date(s) truncated to the month, first at {releases}:10: field release_date ('2006-05-17')\n"
        f"note: 2 pre-epoch date(s) clamped to 2008-01, first at {releases}:10: field release_date ('2006-05-17')\n"
        f"note: 1 duplicate campaign row(s) merged into one campaign, first at {campaigns}:6 ('Quartz/2009-03')\n"
    )


def test_validate_corrupted_fixture_exits_1(tmp_path, fixture_paths, capsys):
    vulns = tmp_path / "vulns.json"
    entries = json.loads(fixture_paths["vulns"].read_text())
    entries[0]["reserved"] = "2010-06"  # after its published month
    vulns.write_text(json.dumps(entries))
    code = run([
        "validate",
        "--releases", str(fixture_paths["releases"]),
        "--vulns", str(vulns),
        "--campaigns", str(fixture_paths["campaigns"]),
    ])
    assert code == 1
    assert "reserved-after-published" in capsys.readouterr().out


def test_missing_file_exits_2(fixture_paths, capsys):
    code = run([
        "validate",
        "--releases", "/nonexistent/releases.csv",
        "--vulns", str(fixture_paths["vulns"]),
        "--campaigns", str(fixture_paths["campaigns"]),
    ])
    assert code == 2


def test_unparsable_data_exits_1(tmp_path, fixture_paths):
    bad = tmp_path / "releases.csv"
    bad.write_text("vendor,product,version,release_date\nadobe,reader,9.1,never\n")
    code = run([
        "validate",
        "--releases", str(bad),
        "--vulns", str(fixture_paths["vulns"]),
        "--campaigns", str(fixture_paths["campaigns"]),
    ])
    assert code == 1


def test_unknown_flag_exits_2(fixture_paths):
    assert run(["validate", "--frobnicate"]) == 2


def test_missing_dataset_paths_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("PATCHSIM_DATA", raising=False)
    assert run(["validate"]) == 2
    assert "PATCHSIM_DATA" in capsys.readouterr().err


def test_env_var_supplies_default_paths(fixture_paths, monkeypatch, capsys):
    monkeypatch.setenv("PATCHSIM_DATA", str(fixture_paths["releases"].parent))
    assert run(["validate"]) == 0


def test_evaluate_prints_table(fixture_paths, capsys):
    code = run([
        "evaluate", *_data_args(fixture_paths),
        "--strategies", "immediate,planned:1,reactive:1",
        "--scenarios", "update-first,apt-first",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Strategy" in out and "#Updates" in out and "Odds" in out
    assert "immediate" in out and "planned" in out and "reactive" in out
    assert "33.3-33.3%" in out  # immediate fixture probability both scenarios


def test_evaluate_writes_deterministic_artifacts(fixture_paths, tmp_path):
    args = [
        "evaluate", *_data_args(fixture_paths),
        "--strategies", "immediate,reactive:1",
        "--out", str(tmp_path / "a"),
    ]
    assert run(args) == 0
    args[-1] = str(tmp_path / "b")
    assert run(args) == 0
    manifest_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    manifest_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest_a == manifest_b
    assert set(manifest_a["files"]) == {"evaluate.json", "evaluate.csv", "series.csv"}
    payload = json.loads((tmp_path / "a" / "evaluate.json").read_text())
    assert payload[0]["strategy"] == "immediate"
    assert payload[0]["overall_probability"]["percent"] == "33.3"


def test_evaluate_json_is_the_encoders_bytes_on_fixture_and_random_catalogs(fixture_catalog):
    configs = parse_strategies(DEFAULT_STRATEGIES, "first")
    for catalog in [fixture_catalog] + [random_catalog(random.Random(seed)) for seed in range(50)]:
        reports = evaluate(catalog, configs)
        assert _evaluation_files(reports, catalog)["evaluate.json"] == ref_evaluation_json(reports, catalog)


def test_evaluate_json_is_the_encoders_bytes_for_escaped_names_and_extreme_outcomes():
    names = ['Quote"d', "Back\\slash", "Tab\tbed", "Bell\x07", "Ωmega é"]
    v = vuln("CVE-2010-0001", 0, 1, ("acme", "app", {"exact": "1.0"}))
    campaigns = [campaign(name, 3 + i, ["CVE-2010-0001"]) for i, name in enumerate(names)]
    catalog = make_catalog({("acme", "app"): [("1.0", 0), ("2.0", 1)]}, [v], campaigns, horizon_end=11)
    immediate, planned = StrategyConfig(StrategyKind.IMMEDIATE), StrategyConfig(StrategyKind.PLANNED, 7)
    reports = evaluate(catalog, [immediate, planned], baseline=(planned, Scenario.APT_FIRST))
    # immediate replaces 1.0 before any campaign starts, planned:7 keeps it until month 8;
    # under the planned:7@apt-first baseline every campaign succeeds, so no odds ratio is defined
    assert [[o.success for o in r.outcomes] for r in reports] == [[False] * 5] * 2 + [[True] * 5] * 2
    assert [r.odds_vs_baseline for r in reports] == [None] * 4
    text = _evaluation_files(reports, catalog)["evaluate.json"]
    assert text == ref_evaluation_json(reports, catalog)
    assert '"months": [],' in text and '"odds_vs_baseline": null,' in text and "\\u03a9" in text


def test_format_selector_limits_files(fixture_paths, tmp_path):
    run([
        "evaluate", *_data_args(fixture_paths),
        "--strategies", "immediate",
        "--out", str(tmp_path), "--format", "json",
    ])
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"evaluate.json", "manifest.json"}
    text = (tmp_path / "manifest.json").read_text()  # a one-entry manifest keeps the encoder's layout too
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_classify_outputs(fixture_paths, tmp_path):
    assert run(["classify", *_data_args(fixture_paths), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "classify.csv").read_text().splitlines()
    assert rows[0] == "apt,date,classes,cve_scenarios"
    nightshade = next(r for r in rows if r.startswith("Nightshade,2009-12"))
    assert "KK" in nightshade and "CVE-2009-4324=KK/P" in nightshade
    venn = json.loads((tmp_path / "venn.json").read_text())
    assert venn["KK"] == 2 and venn["KU"] == 1 and venn["total"] == 3


def test_survival_csv(fixture_paths, capsys):
    assert run(["survival", *_data_args(fixture_paths), "--products", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "age_months,survival"
    assert lines[1] == "-2,0.666667"
    assert lines[-1] == "3,0.000000"


def test_survival_product_filter(fixture_paths, capsys):
    assert run(["survival", *_data_args(fixture_paths), "--products", "adobe/flash"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["-2,0.000000"]


def test_survival_unknown_product_exits_2(fixture_paths):
    assert run(["survival", *_data_args(fixture_paths), "--products", "acme/ghost"]) == 2


def test_survival_products_is_a_comma_list_like_the_others(fixture_paths, capsys):
    # a trailing comma leaves an empty token, which every comma list skips
    assert run(["survival", *_data_args(fixture_paths), "--products", "adobe/flash,"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["-2,0.000000"]


@pytest.mark.parametrize(
    "products,message",
    [
        ("", "--products: at least one product is required"),
        ("nope", "--products: entries must look like vendor/name, got 'nope'"),
        ("acme/ghost", "--products: unknown product 'acme/ghost'"),
    ],
    ids=["empty", "no-slash", "unknown"],
)
def test_survival_bad_products_exit_2_naming_the_flag(products, message, fixture_paths, capsys):
    assert run(["survival", *_data_args(fixture_paths), "--products", products]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_report_bundles_everything(fixture_paths, tmp_path, capsys):
    code = run([
        "report", *_data_args(fixture_paths),
        "--strategies", "immediate,planned:1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    text = (tmp_path / "manifest.json").read_text()
    manifest = json.loads(text)
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"  # the encoder's own layout
    assert set(manifest["files"]) == {
        "evaluate.json", "evaluate.csv", "series.csv",
        "classify.csv", "venn.json", "survival.csv", "diagnostics.json",
    }
    for name, digest in manifest["files"].items():  # each file holds the very bytes its entry hashes
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


_FIXTURE_REPORT_DIGESTS = {
    "diagnostics.json": "95d0abd1d073ac9febe9d0c8bd0c4e9ea386a1883e4475bc075005ba7e443fc5",
    "evaluate.csv": "fa8ccba3dd3928525e9cdb6dd633c6ff35bdbd0c647943c94f20999f851dffee",
    "evaluate.json": "ac49b1f2ceec60fbde71c575765423888ff91100db6a2dc468b98d4322d6373f",
    "series.csv": "77a8e3db3a66720b6d7c6252d53b04826da53cac11724518c58b3b3dc1c45971",
    "survival.csv": "8a5780c0c40cfadbca3e6e00baf6ca55933e46b2dd11d11f1b961888dda4d03a",
}


@pytest.mark.parametrize(
    "flags, classify_digests",
    [
        ([], {
            "classify.csv": "2c0454eaa4a2e0844739f66dc8db720602a9cbc35350c59b04969fcfbd14a540",
            "venn.json": "75076672441778ef181ecdfdd26ab83773870c2b8f4e7104c471254393d5b0e0",
        }),
        (["--reactive-pick", "latest", "--tie-rule", "exclusive"], {
            "classify.csv": "50271b028d3674fa5a611ab5163954154128da248c1e1347be7e4b46149d0fa6",
            "venn.json": "b86e1450c6e547e97356ce07af82c06ef52e8f108b7f97b861f5d373d7952a96",
        }),
    ],
)
def test_report_artifacts_match_pinned_digests(fixture_paths, tmp_path, capsys, flags, classify_digests):
    # every artifact byte is pinned: a change to any output must update these digests on purpose
    assert run(["report", *_data_args(fixture_paths), *flags, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == {"tool": "patchsim", "files": {**_FIXTURE_REPORT_DIGESTS, **classify_digests}}


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


def test_report_reads_inputs_and_config_that_start_with_a_bom(fixture_paths, tmp_path, capsys):
    paths = {}
    for name, path in fixture_paths.items():
        paths[name] = tmp_path / path.name
        paths[name].write_bytes(BOM + path.read_bytes())
    config = tmp_path / "run.json"
    config.write_bytes(BOM + json.dumps({"out": str(tmp_path / "out")}).encode())
    assert run(["report", *_data_args(paths), "--config", str(config)]) == 0
    assert run(["report", *_data_args(fixture_paths), "--out", str(tmp_path / "plain")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest == json.loads((tmp_path / "plain" / "manifest.json").read_text())
    assert _FIXTURE_REPORT_DIGESTS.items() <= manifest["files"].items()


def test_config_file_supplies_values_and_flags_override(fixture_paths, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "releases": str(fixture_paths["releases"]),
        "vulns": str(fixture_paths["vulns"]),
        "campaigns": str(fixture_paths["campaigns"]),
        "strategies": "immediate",
        "scenarios": "update-first",
    }))
    assert run(["evaluate", "--config", str(config)]) == 0
    table = capsys.readouterr().out
    assert "immediate" in table and "planned" not in table
    # explicit flag beats the config file
    assert run(["evaluate", "--config", str(config), "--strategies", "planned:3"]) == 0
    table = capsys.readouterr().out
    assert "planned" in table and "immediate" not in table


def test_report_out_may_come_from_config_file(fixture_paths, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out": str(tmp_path / "from-config"), "strategies": "immediate"}))
    assert run(["report", *_data_args(fixture_paths), "--config", str(config)]) == 0
    assert (tmp_path / "from-config" / "manifest.json").exists()


def test_config_file_unknown_key_rejected(fixture_paths, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"bogus": 1}))
    assert run(["evaluate", "--config", str(config)]) == 2


def test_config_file_cannot_change_the_subcommand(fixture_paths, tmp_path, capsys):
    for key in ("command", "config"):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({key: "validate"}))
        assert run(["evaluate", *_data_args(fixture_paths), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err, err


def test_abbreviated_flag_is_rejected_not_overridden_by_config(fixture_paths, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"strategies": "planned:3"}))
    argv = ["evaluate", *_data_args(fixture_paths), "--strat", "immediate", "--config", str(config)]
    assert run(argv) == 2
    assert "unrecognized arguments: --strat" in capsys.readouterr().err
    assert run(["--hel"]) == 2  # the top-level parser takes no abbreviations either


def test_help_documents_every_interface_flag():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a.choices, dict))
    helps = {name: sub.format_help() for name, sub in subparsers.choices.items()}
    common = ["--releases", "--vulns", "--campaigns", "--epoch", "--horizon", "--config"]
    for name, text in helps.items():
        for flag in common:
            assert flag in text, (name, flag)
    for flag in ["--strategies", "--scenarios", "--baseline", "--reactive-pick", "--out", "--format"]:
        assert flag in helps["evaluate"], flag
        assert flag in helps["report"], flag
    for flag in ["--products", "--kk-only", "--include-unexploited", "--tie-rule", "--out"]:
        assert flag in helps["survival"], flag
    # only the subcommands that classify take a tie rule
    for name in ["classify", "survival", "report"]:
        assert "--tie-rule" in helps[name], name
    for name in ["validate", "evaluate"]:
        assert "--tie-rule" not in helps[name], name


def test_each_flag_is_declared_once():
    # a subcommand shares the Action objects of its parent parsers, so one
    # object per option string means each flag is declared in one place
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a.choices, dict))
    declared: dict[str, set] = {}
    for sub in subparsers.choices.values():
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction):
                for option in action.option_strings:
                    declared.setdefault(option, set()).add(action)
    assert {option: len(actions) for option, actions in declared.items() if len(actions) > 1} == {}


def test_strategy_grammar_error_exits_2(fixture_paths):
    assert run(["evaluate", *_data_args(fixture_paths), "--strategies", "warp:9000"]) == 2


def test_emit_report_rejects_empty_list(tmp_path, fixture_catalog):
    with pytest.raises(ValueError):
        emit_report([], fixture_catalog, tmp_path)


def test_emit_report_same_inputs_same_digests(tmp_path, fixture_catalog):
    reports = evaluate(fixture_catalog, [StrategyConfig(StrategyKind.IMMEDIATE)], [Scenario.UPDATE_FIRST])
    first = emit_report(reports, fixture_catalog, tmp_path / "x")
    second = emit_report(reports, fixture_catalog, tmp_path / "y")
    assert first == second


def _no_epoch_release(tmp_path, fixture_paths):
    releases = tmp_path / "releases.csv"
    releases.write_text(fixture_paths["releases"].read_text() + "acme,late,1.0,2009-01\n")
    return ["evaluate", *_data_args(fixture_paths), "--releases", str(releases)]


def _directory_input(tmp_path, fixture_paths):
    return ["validate", *_data_args(fixture_paths), "--vulns", str(tmp_path)]


def _non_string_config(tmp_path, fixture_paths):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"strategies": 3}))
    return ["evaluate", *_data_args(fixture_paths), "--config", str(config)]


def _format_selects_nothing(tmp_path, fixture_paths):
    return ["survival", *_data_args(fixture_paths), "--format", "json", "--out", str(tmp_path / "out")]


def _reserved_after_published(tmp_path, fixture_paths):
    vulns = tmp_path / "vulns.json"
    entries = json.loads(fixture_paths["vulns"].read_text())
    entries[0]["reserved"] = "2010-06"  # a campaign CVE, reserved after its published month
    vulns.write_text(json.dumps(entries))
    return ["classify", *_data_args(fixture_paths), "--vulns", str(vulns)]


def _no_targeting_campaign(tmp_path, fixture_paths):
    campaigns = tmp_path / "campaigns.csv"
    campaigns.write_text("apt,date,cves,vectors\nBasalt,2010-05,,valid-accounts\n")
    return ["evaluate", *_data_args(fixture_paths), "--campaigns", str(campaigns)]


def _malformed_affected(**fields):
    """Overwrite fields of the first CVE's first affected item, then validate."""
    def make_argv(tmp_path, fixture_paths):
        vulns = tmp_path / "vulns.json"
        entries = json.loads(fixture_paths["vulns"].read_text())
        entries[0]["affected"][0].update(fields)
        vulns.write_text(json.dumps(entries))
        return ["validate", *_data_args(fixture_paths), "--vulns", str(vulns)]
    return make_argv


def _overlong_digit_run(tmp_path, fixture_paths):
    releases = tmp_path / "releases.csv"
    releases.write_text(fixture_paths["releases"].read_text() + "adobe,reader," + "1" * 5000 + ",2009-01\n")
    return ["validate", *_data_args(fixture_paths), "--releases", str(releases)]


def _malformed_entry(**fields):
    """Overwrite fields of the first CVE entry, then validate."""
    def make_argv(tmp_path, fixture_paths):
        vulns = tmp_path / "vulns.json"
        entries = json.loads(fixture_paths["vulns"].read_text())
        entries[0].update(fields)
        vulns.write_text(json.dumps(entries))
        return ["validate", *_data_args(fixture_paths), "--vulns", str(vulns)]
    return make_argv


def _bad_epoch(tmp_path, fixture_paths):
    return ["validate", *_data_args(fixture_paths), "--epoch", "2008-13"]


def _bad_choice_config(tmp_path, fixture_paths):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"tie_rule": "bogus"}))
    return ["classify", *_data_args(fixture_paths), "--config", str(config)]


def _bad_strategy_delay(tmp_path, fixture_paths):
    return ["evaluate", *_data_args(fixture_paths), "--strategies", "planned:x"]


def _bad_baseline_scenario(tmp_path, fixture_paths):
    return ["evaluate", *_data_args(fixture_paths), "--baseline", "immediate@bogus"]


def _bad_scenarios_token(tmp_path, fixture_paths):
    return ["evaluate", *_data_args(fixture_paths), "--scenarios", "update-first,bogus"]


def _report_without_out(tmp_path, fixture_paths):
    return ["report", *_data_args(fixture_paths)]


def _tie_rule_config_for_evaluate(tmp_path, fixture_paths):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"tie_rule": "exclusive"}))
    return ["evaluate", *_data_args(fixture_paths), "--config", str(config)]


def _non_utf8_releases(tmp_path, fixture_paths):
    releases = tmp_path / "releases.csv"
    releases.write_bytes(b"vendor,product,version,release_date\nadobe,reader,9.1\xff,2008-01\n")
    return ["validate", *_data_args(fixture_paths), "--releases", str(releases)]


def _non_utf8_after_bom(tmp_path, fixture_paths):
    releases = tmp_path / "releases.csv"
    releases.write_bytes(BOM + b"vendor,product,version,release_date\nadobe,reader,9.1,2008-01\nadobe,reader,9.2\xfe,2008-06\n")
    return ["validate", *_data_args(fixture_paths), "--releases", str(releases)]


def _superscript_version(tmp_path, fixture_paths):
    releases = tmp_path / "releases.csv"
    releases.write_text(fixture_paths["releases"].read_text() + "adobe,reader,1\u00b2,2009-01\n", encoding="utf-8")
    return ["validate", *_data_args(fixture_paths), "--releases", str(releases)]


def _appended_row(name, row):
    """Append one row to the releases or campaigns file, then validate."""
    def make_argv(tmp_path, fixture_paths):
        path = tmp_path / fixture_paths[name].name
        path.write_text(fixture_paths[name].read_text() + row)
        return ["validate", *_data_args(fixture_paths), f"--{name}", str(path)]
    return make_argv


def _long_field(name):
    """A row whose quoted field is over csv.field_size_limit()."""
    row = {"releases": 'adobe,reader,"{}",2009-01\n', "campaigns": 'Basalt,2010-05,"{}",undetermined\n'}[name]
    return _appended_row(name, row.format("x" * 200_000))


def _wide_row(name):
    """A row with one field more than the header."""
    row = {"releases": "adobe,reader,9.9,2009-01,extra\n", "campaigns": "Basalt,2010-05,,valid-accounts,drive-by\n"}
    return _appended_row(name, row[name])


def _deeply_nested_vulns(tmp_path, fixture_paths):
    vulns = tmp_path / "vulns.json"
    vulns.write_text("[" * 100_000)
    return ["validate", *_data_args(fixture_paths), "--vulns", str(vulns)]


def _deeply_nested_config(tmp_path, fixture_paths):
    config = tmp_path / "run.json"
    config.write_text("[" * 100_000)
    return ["validate", *_data_args(fixture_paths), "--config", str(config)]


def _non_utf8_config(tmp_path, fixture_paths):
    config = tmp_path / "run.json"
    config.write_bytes(b'{"strategies": "immediate\xff"}')
    return ["validate", *_data_args(fixture_paths), "--config", str(config)]


def _flags(command, *flags):
    """Run `command` on the fixture with extra flags."""
    def make_argv(tmp_path, fixture_paths):
        return [command, *_data_args(fixture_paths), *flags]
    return make_argv


def _file_flag(command, flag, name, text):
    """Run `command` on the fixture with `flag` naming a file that holds `text`."""
    def make_argv(tmp_path, fixture_paths):
        path = tmp_path / name
        path.write_text(text)
        return [command, *_data_args(fixture_paths), flag, str(path)]
    return make_argv


def _out_under_file(tmp_path, fixture_paths):
    (tmp_path / "plain").write_text("")
    return ["evaluate", *_data_args(fixture_paths), "--out", str(tmp_path / "plain" / "out")]


def _out_name_is_directory(tmp_path, fixture_paths):
    (tmp_path / "out" / "evaluate.json").mkdir(parents=True)
    return ["evaluate", *_data_args(fixture_paths), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize(
    "make_argv,code,fragment",
    [
        (_no_epoch_release, 1, "acme/late"),
        (_directory_input, 2, "Is a directory"),
        (_non_string_config, 2, "'strategies'"),
        (_format_selects_nothing, 2, "--format json"),
        (_reserved_after_published, 1, "CVE-2009-4324: reserved after published"),
        (_no_targeting_campaign, 1, "no campaign targets any cataloged release"),
        (_malformed_affected(match={"endIncluding": 5}), 1,
         "entry #0 (CVE-2009-4324): affected[0].match: constraint fields ['endIncluding'] must be version strings"),
        (_malformed_affected(match={"exact": None}), 1, "affected[0].match: constraint fields ['exact']"),
        (_malformed_affected(match={"endIncluding": ["9.2"]}), 1, "affected[0].match: constraint fields"),
        (_malformed_affected(vendor=None), 1, "affected[0] vendor and product must be strings"),
        (_malformed_affected(vendor=""), 1,
         "entry #0 (CVE-2009-4324): affected[0] vendor and product must be non-empty strings"),
        (_malformed_affected(product="  "), 1,
         "entry #0 (CVE-2009-4324): affected[0] vendor and product must be non-empty strings"),
        (_report_without_out, 2, "--out"),
        (_tie_rule_config_for_evaluate, 2, "unknown option 'tie_rule' for evaluate"),
        (_non_utf8_releases, 1, "releases.csv:2: not UTF-8 text (byte 0xff)"),
        (_non_utf8_after_bom, 1, "releases.csv:3: not UTF-8 text (byte 0xfe)"),
        (_superscript_version, 0, "ok: "),
        (_overlong_digit_run, 1, "releases.csv:10: field version: Exceeds the limit (4300 digits)"),
        (_malformed_affected(match={"endIncluding": "1" * 5000}), 1,
         "entry #0 (CVE-2009-4324): affected[0].match: Exceeds the limit (4300 digits)"),
        (_malformed_affected(match={"exact": "1" * 5000}), 1,
         "entry #0 (CVE-2009-4324): affected[0].match: Exceeds the limit (4300 digits)"),
        (_malformed_entry(cve=None), 1, "vulns.json: entry #0: 'cve' must be a non-empty string, got None"),
        (_malformed_entry(cve=12345), 1, "vulns.json: entry #0: 'cve' must be a non-empty string, got 12345"),
        (_malformed_affected(match={"startIncluding": "9.3", "endIncluding": "9.1"}), 1,
         "affected[0].match: range bounds reversed"),
        (_bad_epoch, 2, "--epoch: month out of range in '2008-13'"),
        (_bad_choice_config, 2, "run.json: option 'tie_rule' must be one of inclusive, exclusive"),
        (_bad_strategy_delay, 2, "--strategies: strategy 'planned' delay must be a whole number of months, got 'x'"),
        (_bad_baseline_scenario, 2, "--baseline: unknown scenario 'bogus'; allowed: update-first, apt-first"),
        (_bad_scenarios_token, 2, "--scenarios: unknown scenario 'bogus'; allowed: update-first, apt-first"),
        (_malformed_entry(reserved="2009/12"), 1,
         "vulns.json: entry #0 (CVE-2009-4324): field reserved: expected YYYY-MM date, got '2009/12'"),
        (_malformed_entry(published="2009/12"), 1,
         "vulns.json: entry #0 (CVE-2009-4324): field published: expected YYYY-MM date, got '2009/12'"),
        (_long_field("releases"), 1, "releases.csv:10: field larger than field limit"),
        (_long_field("campaigns"), 1, "campaigns.csv:6: field larger than field limit"),
        (_wide_row("releases"), 1, "releases.csv:10: 5 fields, the header has 4"),
        (_wide_row("campaigns"), 1, "campaigns.csv:6: 5 fields, the header has 4"),
        (_appended_row("releases", "\nadobe,reader,9.9,2009-01,extra\n"), 1,
         "releases.csv:11: 5 fields, the header has 4"),
        (_appended_row("campaigns", 'Basalt,2010-06,,"valid-accounts|\ndrive-by"\nBasalt,2010-07,,drive-by,x\n'), 1,
         "campaigns.csv:8: 5 fields, the header has 4"),
        (_deeply_nested_vulns, 1, "vulns.json: invalid JSON: maximum recursion depth exceeded"),
        (_deeply_nested_config, 2, "run.json: maximum recursion depth exceeded"),
        (_non_utf8_config, 2, "run.json: 'utf-8' codec can't decode byte 0xff"),
        (_flags("survival", "--kk-only", "--include-unexploited"), 2,
         "--kk-only/--include-unexploited: kk_only and include_unexploited cannot be combined"),
        (_file_flag("validate", "--vulns", "vulns.json", "{}"), 1, "vulns.json: top-level value must be an array"),
        (_malformed_entry(affected={}), 1, "entry #0 (CVE-2009-4324): 'affected' must be an array"),
        (_malformed_affected(match="9.1"), 1, "entry #0 (CVE-2009-4324): affected[0].match must be an object"),
        (_appended_row("campaigns", ",2010-06,CVE-2009-4324,\n"), 1, "campaigns.csv:6: apt and date must be non-empty"),
        (_file_flag("validate", "--config", "run.json", "[]"), 2, "run.json: top-level value must be an object"),
        (_flags("validate", "--epoch", "2010-01", "--horizon", "2009-01"), 2,
         "--epoch/--horizon: horizon end '2009-01' must be after epoch '2010-01'"),
        (_flags("evaluate", "--strategies", "planned:-1"), 2, "--strategies: delay_months must be >= 0"),
        (_out_under_file, 2, "cannot create output directory"),
        (_out_name_is_directory, 2, "cannot write"),
        (_flags("survival", "--kk-only", "--products", "adobe/flash"), 1,
         "no exploit-age samples under the given filters"),
        (_flags("evaluate", "--baseline", "immediate@"), 2, "--baseline: no scenario after '@' in 'immediate@'"),
        (_flags("evaluate", "--strategies", "planned:1_0"), 2,
         "--strategies: strategy 'planned' delay must be a whole number of months, got '1_0'"),
        (_flags("evaluate", "--strategies", "planned:+3"), 2,
         "--strategies: strategy 'planned' delay must be a whole number of months, got '+3'"),
        (_flags("evaluate", "--strategies", "reactive:\uff11"), 2,
         "--strategies: strategy 'reactive' delay must be a whole number of months, got '\uff11'"),
        (_appended_row("releases", "adobe,reader,9.9,2009-02-31\n"), 1,
         "releases.csv:10: field release_date: day out of range in '2009-02-31'"),
        (_flags("validate", "--horizon", "2020-01-99"), 2, "--horizon: day out of range in '2020-01-99'"),
        (_flags("evaluate", "--strategies", "immediate:"), 2, "--strategies: immediate takes no delay"),
        (_appended_row("campaigns", "Basalt,2010/05,,drive-by\n"), 1,
         "campaigns.csv:6: field date: expected YYYY-MM date, got '2010/05'"),
        (_flags("evaluate", "--strategies", "planned:1,planned:01"), 2,
         "--strategies: strategy 'planned:01' repeats an earlier one"),
        (_flags("evaluate", "--scenarios", "update-first, update-first"), 2,
         "--scenarios: scenario 'update-first' repeats an earlier one"),
        (_flags("survival", "--products", "adobe/flash,adobe/flash"), 2,
         "--products: product 'adobe/flash' repeats an earlier one"),
    ],
    ids=["no-epoch-release", "directory-input", "non-string-config", "format-selects-nothing",
         "reserved-after-published", "no-targeting-campaign", "integer-bound", "null-exact",
         "list-bound", "null-vendor", "empty-vendor", "blank-product", "report-without-out", "tie-rule-config-for-evaluate",
         "non-utf8-input", "non-utf8-after-bom", "superscript-digit-version", "overlong-digit-run", "overlong-digit-bound",
         "overlong-digit-exact", "null-cve", "numeric-cve",
         "reversed-range", "bad-epoch-flag", "bad-choice-config", "bad-strategy-delay",
         "bad-baseline-scenario", "bad-scenarios-token", "bad-reserved-date", "bad-published-date",
         "long-releases-field", "long-campaigns-field", "wide-releases-row", "wide-campaigns-row",
         "wide-row-after-blank-line", "wide-row-after-multiline-field",
         "nested-vulns", "nested-config", "non-utf8-config", "kk-only-with-unexploited",
         "object-vulns", "object-affected", "string-match", "empty-apt", "list-config", "horizon-before-epoch",
         "negative-delay", "out-under-file", "output-name-is-directory", "no-survival-samples",
         "baseline-without-scenario", "underscored-delay", "signed-delay", "fullwidth-delay",
         "nonexistent-release-day", "nonexistent-horizon-day", "immediate-empty-delay", "bad-campaign-date",
         "repeated-strategy", "repeated-scenario", "repeated-product"],
)
def test_boundary_errors_exit_with_code_and_message(make_argv, code, fragment, tmp_path, fixture_paths, capsys):
    assert run(make_argv(tmp_path, fixture_paths)) == code
    out, err = capsys.readouterr()
    if code == 0:  # data that only looks malformed loads cleanly
        assert not err and fragment in out, (out, err)
    else:
        assert err.startswith("error: ") and fragment in err, err
    assert not (tmp_path / "out" / "manifest.json").exists()


def _shuffle_rows(src: dict, dst: Path, rng: random.Random) -> dict:
    """Copy the three input files with their data rows in random order."""
    dst.mkdir()
    out = {name: dst / path.name for name, path in src.items()}
    for name in ("releases", "campaigns"):
        header, *rows = src[name].read_text().splitlines(keepends=True)
        rng.shuffle(rows)
        out[name].write_text(header + "".join(rows))
    entries = json.loads(src["vulns"].read_text())
    rng.shuffle(entries)
    out["vulns"].write_text(json.dumps(entries))
    return out


def _report_manifest(paths: dict, horizon: str, hash_seed: str, out: Path) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(Path(patchsim.__file__).parents[1])}
    argv = [
        sys.executable, "-m", "patchsim.cli", "report",
        "--releases", str(paths["releases"]), "--vulns", str(paths["vulns"]),
        "--campaigns", str(paths["campaigns"]), "--horizon", horizon, "--out", str(out),
    ]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return (out / "manifest.json").read_text()


@pytest.mark.parametrize("dataset", ["fixture", "random"])
def test_report_independent_of_hash_seed_and_row_order(dataset, fixture_paths, tmp_path):
    if dataset == "fixture":
        paths, horizon = fixture_paths, "2020-01"
    else:
        # four products including an Oracle "6u13" timeline, multi-product CVEs
        catalog = random_catalog(random.Random(13))
        assert ("oracle", "jre") in catalog.timelines
        paths, horizon = save_catalog(catalog, tmp_path / "data"), "2009-12"
    shuffled = _shuffle_rows(paths, tmp_path / "shuffled", random.Random(7))
    manifests = [
        _report_manifest(paths, horizon, "0", tmp_path / "seed0"),
        _report_manifest(paths, horizon, "1", tmp_path / "seed1"),
        _report_manifest(shuffled, horizon, "1", tmp_path / "shuffled-out"),
    ]
    assert manifests[0] == manifests[1] == manifests[2]


def test_report_loads_no_numpy(fixture_paths, tmp_path):
    # the package needs only the standard library: every module a report loads,
    # numpy included, is patchsim's own or the standard library's. The set is
    # taken before the import, because site may load third-party modules first.
    argv = ["report", *_data_args(fixture_paths), "--out", str(tmp_path / "out")]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from patchsim.cli import run\n"
        f"rc = run({argv!r})\n"
        "added = {name for name in set(sys.modules) - before if name.split('.')[0] != 'patchsim'}\n"
        "foreign = sorted(name for name in added if name.split('.')[0] not in sys.stdlib_module_names)\n"
        "assert not foreign, f'modules outside the standard library were imported: {foreign}'\n"
        "sys.exit(rc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(patchsim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_defaults_are_the_librarys(fixture_paths):
    args = build_parser().parse_args(["report", *_data_args(fixture_paths)])
    assert parse_baseline(args.baseline, args.reactive_pick) == DEFAULT_BASELINE
    assert parse_scenarios(args.scenarios) == list(Scenario)
    assert Horizon.from_strings(args.epoch, args.horizon) == Horizon.from_strings()
    assert args.reactive_pick == StrategyConfig(StrategyKind.REACTIVE, 1).reactive_pick
    assert TieRule(args.tie_rule) is TieRule.INCLUSIVE
    assert CHOICES["tie_rule"] == tuple(rule.value for rule in TieRule)
    assert CHOICES["reactive_pick"] == REACTIVE_PICKS


def test_parse_helpers():
    configs = parse_strategies("immediate, planned:3", "first")
    assert configs[1] == StrategyConfig(StrategyKind.PLANNED, 3)
    cfg, scenario = parse_baseline("reactive:1@apt-first", "first")
    assert cfg == StrategyConfig(StrategyKind.REACTIVE, 1)
    assert scenario is Scenario.APT_FIRST
    # the scenario after '@' is stripped, as each --scenarios token is
    assert parse_baseline("immediate@ apt-first", "first") == (StrategyConfig(StrategyKind.IMMEDIATE), Scenario.APT_FIRST)
    with pytest.raises(ValueError):
        parse_strategies("", "first")


def test_help_exits_zero():
    assert run(["--help"]) == 0
    assert run(["evaluate", "--help"]) == 0


def _argv_exiting(code: int, fixture_paths, tmp_path) -> list[str]:
    if code == 0:
        return ["evaluate", *_data_args(fixture_paths), "--strategies", "immediate", "--out", str(tmp_path)]
    if code == 1:
        bad = tmp_path / "releases.csv"
        bad.write_text("vendor,product,version,release_date\nadobe,reader,9.1,never\n")
        return ["validate", "--releases", str(bad), "--vulns", str(fixture_paths["vulns"]),
                "--campaigns", str(fixture_paths["campaigns"])]
    return ["evaluate", *_data_args(fixture_paths), "--strategies", "bogus"]


@pytest.mark.parametrize("code", [0, 1, 2])
@pytest.mark.parametrize("collecting", [True, False])
def test_run_leaves_the_cycle_collector_as_it_found_it(code, collecting, fixture_paths, tmp_path, capsys):
    # run pauses automatic collection for the command; whatever the exit, the caller's setting comes back
    argvs = [_argv_exiting(code, fixture_paths, tmp_path)] + ([["validate", "--frobnicate"], ["--help"]] if code == 2 else [])
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv in argvs:
            assert run(argv) == (0 if argv == ["--help"] else code)
            assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_a_command_leaves_no_more_cycles_than_its_parser(fixture_paths, tmp_path, capsys):
    # with automatic collection paused, what a command leaves in reference cycles waits for
    # the next collection; it must be no more than the parser that build_parser makes
    argv = ["evaluate", *_data_args(fixture_paths), "--out", str(tmp_path)]
    was = gc.isenabled()
    gc.disable()
    try:
        assert run(argv) == 0  # what a first call sets up once is not garbage
        gc.collect()
        build_parser()
        parser_cycles = gc.collect()
        assert run(argv) == 0
        assert 0 < gc.collect() <= parser_cycles
    finally:
        if was:
            gc.enable()
