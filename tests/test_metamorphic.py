"""Metamorphic oracles over the whole pipeline. Renaming every vendor,
product, CVE and APT id by an order-reversing map, or shifting every date and
the window by the same number of months, must not move any number `report`
prints or writes: stdout and the artifacts that hold no name or date stay
byte-identical, and series.csv differs only in its date column. Adding a
product that no CVE affects moves only update counts and the product count,
and adding vector-only campaigns moves only classify.csv and the campaign
counts of diagnostics.json. Splitting a range constraint into two pieces that
cover the same releases moves nothing."""

import csv
import importlib.util
import io
import json
import random
import re
import sys
from functools import cmp_to_key
from pathlib import Path

import pytest

from conftest import make_timeline, random_catalog, ref_compare, ref_matches, save_catalog
from patchsim.catalog import CampaignRecord, Catalog, ProductConstraint, VulnRecord, load_catalog
from patchsim.cli import run
from patchsim.months import DEFAULT_EPOCH, DEFAULT_HORIZON_END, Horizon

NAMELESS = ("evaluate.csv", "survival.csv", "venn.json")  # no identifier and no date in them
ARTIFACTS = ("evaluate.json", "evaluate.csv", "series.csv", "classify.csv", "venn.json", "survival.csv", "diagnostics.json")
SHIFT = 5  # months: 2009-12 moves to 2010-05, across a year boundary
# a YYYY-MM that starts a field, so never the "2009-43" inside CVE-2009-4324
_DATE = re.compile(r"(?<![\w-])(\d{4})-(\d{2})(?!\d)")
# the fixture, the benchmark generator's paper shape at seed 1, then random_catalog seeds
DATASETS = ["fixture", "paper-report", 13, 21, 55]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _paper_report(directory, monkeypatch):
    """(paths, epoch, horizon) of the generator's paper shape at seed 1; gen.py
    is loaded by path, as test_workload_digests.py loads it."""
    spec = importlib.util.spec_from_file_location("gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "gen", gen)  # dataclasses look their module up by name
    spec.loader.exec_module(gen)
    shape = gen.Shape()
    gen.generate(shape, 1, directory)
    paths = {name: directory / file for name, file in
             (("releases", "releases.csv"), ("vulns", "vulns.json"), ("campaigns", "campaigns.csv"))}
    return paths, shape.epoch, shape.horizon


def _dataset(name, fixture_paths, directory, monkeypatch):
    """(paths, epoch, horizon) of one dataset."""
    if name == "fixture":
        return fixture_paths, DEFAULT_EPOCH, DEFAULT_HORIZON_END
    if name == "paper-report":
        return _paper_report(directory, monkeypatch)
    return save_catalog(random_catalog(random.Random(name)), directory), "2008-01", "2009-12"


def _report(paths, epoch, horizon, out, capsys, names=(*NAMELESS, "series.csv")) -> tuple[str, dict[str, bytes]]:
    """stdout and the named artifacts of one `report` run."""
    files = [f"--{name}={paths[name]}" for name in ("releases", "vulns", "campaigns")]
    code = run(["report", *files, f"--epoch={epoch}", f"--horizon={horizon}", f"--out={out}"])
    stdout, stderr = capsys.readouterr()
    assert code == 0, stderr
    return stdout, {name: (out / name).read_bytes() for name in names}


def _series(data: bytes) -> tuple[list, list]:
    """series.csv split into its rows less the date column, and that column."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    return [row[:1] + row[2:] for row in rows], [row[1] for row in rows]


def _reversing(prefix: str, names) -> dict[str, str]:
    """A renaming of `names` that reverses their order."""
    ordered = sorted(set(names))
    return {name: f"{prefix}{len(ordered) - i:04d}" for i, name in enumerate(ordered)}


def _renamed(cat: Catalog) -> Catalog:
    """The catalog with vendors, products, CVE ids and APT names each renamed
    in reverse order, so every product, CVE and campaign is visited in the
    opposite order to the original's."""
    keys = set(cat.timelines) | {pc.key for record in cat.vulns.values() for pc in record.affected}
    vendor, product = _reversing("v", (v for v, _ in keys)), _reversing("p", (p for _, p in keys))
    cve, apt = _reversing("CVE-", cat.vulns), _reversing("apt", (c.apt_name for c in cat.campaigns))
    timelines = {}
    for (v, p), timeline in cat.timelines.items():
        key = (vendor[v], product[p])
        timelines[key] = make_timeline(key, [(rel.version, rel.release_month) for rel in timeline.releases])
    vulns = {
        cve[record.cve_id]: VulnRecord(
            cve[record.cve_id],
            record.reserved_month,
            record.published_month,
            tuple(ProductConstraint(vendor[pc.vendor], product[pc.product], pc.constraint) for pc in record.affected),
        )
        for record in cat.vulns.values()
    }
    campaigns = sorted(
        (CampaignRecord(apt[c.apt_name], c.start_month, frozenset(cve[i] for i in c.cve_ids), c.vectors)
         for c in cat.campaigns),
        key=lambda c: (c.apt_name, c.start_month),
    )
    return Catalog(cat.horizon, timelines, vulns, tuple(campaigns))


def _shifted(text: str) -> str:
    """Every YYYY-MM in the text SHIFT months later; a day part stays."""

    def later(m: re.Match) -> str:
        total = int(m.group(1)) * 12 + int(m.group(2)) - 1 + SHIFT
        return f"{total // 12:04d}-{total % 12 + 1:02d}"

    return _DATE.sub(later, text)


@pytest.mark.parametrize("dataset", DATASETS)
def test_order_reversing_rename_moves_no_number(dataset, fixture_paths, tmp_path, capsys, monkeypatch):
    paths, epoch, horizon = _dataset(dataset, fixture_paths, tmp_path / "data", monkeypatch)
    base_out, base = _report(paths, epoch, horizon, tmp_path / "base", capsys)
    cat = load_catalog(paths["releases"], paths["vulns"], paths["campaigns"], Horizon.from_strings(epoch, horizon))
    renamed = _renamed(cat)
    assert [c.apt_name for c in renamed.campaigns] != [c.apt_name for c in cat.campaigns]  # names really moved
    renamed_paths = save_catalog(renamed, tmp_path / "renamed")
    out, files = _report(renamed_paths, epoch, horizon, tmp_path / "renamed-out", capsys)
    assert out == base_out
    assert files == base


@pytest.mark.parametrize("dataset", DATASETS)
def test_shifting_every_date_moves_no_number(dataset, fixture_paths, tmp_path, capsys, monkeypatch):
    paths, epoch, horizon = _dataset(dataset, fixture_paths, tmp_path / "data", monkeypatch)
    base_out, base = _report(paths, epoch, horizon, tmp_path / "base", capsys)
    (tmp_path / "shifted").mkdir()
    shifted_paths = {name: tmp_path / "shifted" / path.name for name, path in paths.items()}
    for name, path in paths.items():
        shifted_paths[name].write_text(_shifted(path.read_text(encoding="utf-8")), encoding="utf-8")
    assert shifted_paths["campaigns"].read_text() != paths["campaigns"].read_text()
    out, files = _report(shifted_paths, _shifted(epoch), _shifted(horizon), tmp_path / "shifted-out", capsys)
    assert out == base_out
    for name in NAMELESS:
        assert files[name] == base[name], name
    rows, dates = _series(files["series.csv"])
    base_rows, base_dates = _series(base["series.csv"])
    assert rows == base_rows
    assert dates[1:] == [_shifted(date) for date in base_dates[1:]]


def _appended(paths, directory, name: str, rows: str) -> dict:
    """Copies of the input files, with `rows` appended to the `name` file."""
    directory.mkdir()
    copies = {key: directory / path.name for key, path in paths.items()}
    for key, path in paths.items():
        copies[key].write_bytes(path.read_bytes() + (rows.encode() if key == name else b""))
    return copies


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _table(stdout: str) -> list[list[str]]:
    """The stdout table's cells; columns are at least two spaces apart."""
    return [re.split(r" {2,}", line) for line in stdout.splitlines()]


@pytest.mark.parametrize("dataset", DATASETS)
def test_a_product_no_cve_affects_moves_only_update_counts(dataset, fixture_paths, tmp_path, capsys, monkeypatch):
    paths, epoch, horizon = _dataset(dataset, fixture_paths, tmp_path / "data", monkeypatch)
    base_out, base = _report(paths, epoch, horizon, tmp_path / "base", capsys, ARTIFACTS)
    # out at the epoch, upgraded in the window's last month: only immediate installs the upgrade
    added = f"zz-idle,app,1.0,{epoch}\nzz-idle,app,2.0,{horizon}\n"
    grown = _appended(paths, tmp_path / "grown", "releases", added)
    out, files = _report(grown, epoch, horizon, tmp_path / "grown-out", capsys, ARTIFACTS)
    for name in ("series.csv", "classify.csv", "venn.json", "survival.csv"):
        assert files[name] == base[name], name
    reports, base_reports = json.loads(files["evaluate.json"]), json.loads(base["evaluate.json"])
    for report, base_report in zip(reports, base_reports, strict=True):
        upgraded = report["strategy"] == "immediate"
        base_updates = base_report.pop("updates")
        assert report.pop("updates") == {"raw": base_updates["raw"] + 1 + upgraded, "net": base_updates["net"] + upgraded}
        assert report == base_report
    rows, base_rows = _csv_rows(files["evaluate.csv"]), _csv_rows(base["evaluate.csv"])
    assert [row[:3] + row[5:] for row in rows] == [row[:3] + row[5:] for row in base_rows]  # less updates_raw/net
    table, base_table = _table(out), _table(base_out)
    assert [row[:2] + row[3:] for row in table] == [row[:2] + row[3:] for row in base_table]  # less #Updates
    assert [int(row[2]) for row in table[1:]] == [int(row[2]) + 1 + (row[1] == "immediate") for row in base_table[1:]]
    diagnostics, base_diagnostics = json.loads(files["diagnostics.json"]), json.loads(base["diagnostics.json"])
    assert diagnostics == {**base_diagnostics, "products": base_diagnostics["products"] + 1}


@pytest.mark.parametrize("dataset", DATASETS)
def test_vector_only_campaigns_move_only_classify_rows(dataset, fixture_paths, tmp_path, capsys, monkeypatch):
    paths, epoch, horizon = _dataset(dataset, fixture_paths, tmp_path / "data", monkeypatch)
    base_out, base = _report(paths, epoch, horizon, tmp_path / "base", capsys, ARTIFACTS)
    added = f"zz-vectors,{epoch},,spearphishing\nzz-vectors,{horizon},,drive-by|valid-accounts\n"
    grown = _appended(paths, tmp_path / "grown", "campaigns", added)
    out, files = _report(grown, epoch, horizon, tmp_path / "grown-out", capsys, ARTIFACTS)
    assert out == base_out
    for name in ("evaluate.json", "evaluate.csv", "series.csv", "venn.json", "survival.csv"):
        assert files[name] == base[name], name
    classified = _csv_rows(files["classify.csv"])
    assert [row for row in classified if row[0] != "zz-vectors"] == _csv_rows(base["classify.csv"])
    assert [row for row in classified if row[0] == "zz-vectors"] == [["zz-vectors", date, "", ""] for date in (epoch, horizon)]
    diagnostics, base_diagnostics = json.loads(files["diagnostics.json"]), json.loads(base["diagnostics.json"])
    assert diagnostics == {
        **base_diagnostics,
        "campaigns": base_diagnostics["campaigns"] + 2,
        "vector_only_campaigns": base_diagnostics["vector_only_campaigns"] + 2,
    }


def _split_point(catalog: Catalog, item: dict):
    """A release version r at which one affected item's range splits into two
    pieces that each match a release: r matches, and so does one version below it."""
    if "exact" in item["match"]:
        return None
    timeline = catalog.timelines.get((item["vendor"].strip(), item["product"].strip()))
    if timeline is None:
        return None
    matched = sorted({rel.version for rel in timeline.releases if ref_matches(item["match"], rel.version)},
                     key=cmp_to_key(ref_compare))
    higher = [v for v in matched if ref_compare(v, matched[0]) > 0]
    return higher[len(higher) // 2] if higher else None


@pytest.mark.parametrize("overlap", [True, False], ids=["shared-release", "adjacent"])
@pytest.mark.parametrize("dataset", DATASETS)
def test_splitting_a_range_constraint_moves_nothing(dataset, overlap, fixture_paths, tmp_path, capsys, monkeypatch):
    # [start, end] becomes [start, r] and [r, end], or [start, r) and [r, end], for the first
    # range of a campaign CVE that has a release r to split at
    paths, epoch, horizon = _dataset(dataset, fixture_paths, tmp_path / "data", monkeypatch)
    base_out, base = _report(paths, epoch, horizon, tmp_path / "base", capsys, ARTIFACTS)
    cat = load_catalog(paths["releases"], paths["vulns"], paths["campaigns"], Horizon.from_strings(epoch, horizon))
    entries = json.loads(paths["vulns"].read_text(encoding="utf-8"))
    exploited = cat.campaign_cve_ids()
    entry, j, r = next((entry, j, r) for entry in sorted(entries, key=lambda e: e["cve"]) if entry["cve"] in exploited
                       for j, item in enumerate(entry["affected"]) if (r := _split_point(cat, item)) is not None)
    item = entry["affected"][j]
    starts = {k: v for k, v in item["match"].items() if k.startswith("start")}
    ends = {k: v for k, v in item["match"].items() if k.startswith("end")}
    pieces = [{**starts, "endIncluding" if overlap else "endExcluding": r}, {"startIncluding": r, **ends}]
    entry["affected"][j:j + 1] = [{**item, "match": match} for match in pieces]
    split = {**paths, "vulns": tmp_path / "split-vulns.json"}
    split["vulns"].write_text(json.dumps(entries), encoding="utf-8")
    out, files = _report(split, epoch, horizon, tmp_path / "split-out", capsys, ARTIFACTS)
    assert out == base_out
    assert files == base
