"""CLI fuzz test: malformed inputs and configs exit 0, 1 or 2, never with an exception.

Each example builds a small valid dataset with generated extra CVEs, releases
and campaigns, then applies up to two faults: `match` objects with values of
mixed types, malformed affected items or vulns.json entries, an unparsable
vulns.json, malformed release or campaign CSV rows, or a config JSON object
with arbitrary values. `run()` is called in-process on files in a fresh
temporary directory. A config whose only fault is an `epoch` or `horizon`
that is not YYYY-MM is misuse and must exit 2.
"""

import contextlib
import copy
import csv
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from patchsim.cli import run

RELEASES = [
    ["acme", "app", "1.0", "2007-06"],
    ["acme", "app", "2.0", "2009-06"],
    ["oracle", "jre", "6u13", "2008-01"],
    ["oracle", "jre", "6u20", "2010-03-14"],
]
VULNS = [
    {"cve": "CVE-2009-0001", "reserved": "2009-01", "published": "2009-03",
     "affected": [{"vendor": "acme", "product": "app", "match": {"endExcluding": "2.0"}}]},
    {"cve": "CVE-2010-0002", "reserved": "2009-11", "published": "2010-02",
     "affected": [{"vendor": "oracle", "product": "jre", "match": {"endIncluding": "6u13"}}]},
]
CAMPAIGNS = [
    ["Alpha", "2009-03", "CVE-2009-0001", "spearphishing"],
    ["Beta", "2010-01-20", "CVE-2010-0002|CVE-2009-0001", ""],
]
BOUND_FIELDS = ["exact", "startIncluding", "startExcluding", "endIncluding", "endExcluding"]
COMMANDS = [
    ["validate"],
    ["classify", "--tie-rule", "exclusive"],
    ["survival", "--kk-only"],
    ["evaluate", "--strategies", "immediate,reactive:1,informed:1"],
    ["report", "--strategies", "planned:1,reactive:1"],
]
FAULTS = ["match", "affected", "entry", "vulns-file", "release-row", "campaign-row", "config"]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3000), st.floats(allow_nan=True),
    st.text(max_size=6), st.lists(st.text(max_size=3), max_size=2), st.just({}),
)
versions = st.sampled_from(["1.0", "1.5", "2.0", "2.1", "3", "6u13", "6u15", "6u20", "7u1"])
dates = st.sampled_from(["2007-03", "2008-01", "2009-05", "2010-07-04", "2011-12"])
products = st.sampled_from([("acme", "app"), ("oracle", "jre")])
matches = st.one_of(
    versions.map(lambda v: {"exact": v}),
    st.dictionaries(st.sampled_from(BOUND_FIELDS[1:]), versions | st.just("*"), max_size=2),
)
affected_items = st.tuples(products, matches).map(
    lambda pm: {"vendor": pm[0][0], "product": pm[0][1], "match": pm[1]})
vuln_bodies = st.tuples(st.lists(dates, min_size=2, max_size=2).map(sorted),
                        st.lists(affected_items, min_size=1, max_size=2)).map(
    lambda da: {"reserved": da[0][0], "published": da[0][1], "affected": da[1]})


def _dataset(draw):
    """A valid dataset: the fixed rows plus generated CVEs, releases and campaigns."""
    vulns = copy.deepcopy(VULNS)
    for i, body in enumerate(draw(st.lists(vuln_bodies, max_size=3))):
        vulns.append({"cve": f"CVE-2011-{i:04d}", **body})
    seen = {tuple(row[:3]) for row in RELEASES}
    releases = list(RELEASES)
    for (vendor, product), version, date in draw(st.lists(st.tuples(products, versions, dates), max_size=3)):
        if (vendor, product, version) not in seen:
            seen.add((vendor, product, version))
            releases.append([vendor, product, version, date])
    cve_ids = [v["cve"] for v in vulns]
    campaigns = list(CAMPAIGNS) + draw(st.lists(st.tuples(
        st.sampled_from(["Alpha", "Gamma"]), dates,
        st.lists(st.sampled_from(cve_ids), min_size=1, max_size=2).map("|".join),
        st.sampled_from(["", "drive-by", "supply-chain|spearphishing"]),
    ).map(list), max_size=2))
    return vulns, releases, campaigns


def _apply(fault, draw, vulns, releases, campaigns):
    """Corrupt the dataset in place; return the vulns.json text when the fault replaces it."""
    entry = draw(st.sampled_from(vulns)) if fault in ("match", "affected", "entry") else None
    if fault == "match":
        item = draw(st.sampled_from(entry["affected"]))
        item["match"] = draw(st.one_of(
            st.tuples(st.sampled_from(BOUND_FIELDS), scalars).map(lambda kv: dict([kv])),
            st.dictionaries(st.sampled_from(BOUND_FIELDS), versions | scalars, min_size=1, max_size=3),
        ))
    elif fault == "affected":
        item = draw(st.sampled_from(entry["affected"]))
        key = draw(st.sampled_from(["vendor", "product", "match", None]))
        if key is None:
            entry["affected"][entry["affected"].index(item)] = draw(scalars)
        else:
            item[key] = draw(scalars)
    elif fault == "entry":
        key = draw(st.sampled_from(["cve", "reserved", "published", "affected"]))
        if draw(st.booleans()):
            del entry[key]
        else:
            entry[key] = draw(scalars | st.sampled_from(["2031-01", "2009-13", "CVE-2009-0001"]))
    elif fault == "vulns-file":
        return draw(st.sampled_from(["", "{", "{}", "[1]", "null", "[{}]"]) | st.text(max_size=8))
    elif fault == "release-row":
        releases.append(draw(st.lists(st.text(max_size=4) | versions | dates, max_size=5)))
    elif fault == "campaign-row":
        campaigns.append(draw(st.lists(
            st.text(max_size=4) | dates | st.sampled_from(["CVE-2011-9999", "drive-by|bogus", ""]), max_size=5)))
    return None


configs = st.dictionaries(
    st.sampled_from(["strategies", "scenarios", "baseline", "tie_rule", "reactive-pick", "format", "epoch",
                     "horizon", "kk_only", "include_unexploited", "products", "command", "bogus"]),
    st.sampled_from(["immediate", "planned:2,reactive:1", "update-first", "apt-first", "exclusive", "latest",
                     "json", "csv", "2009-01", "2011-06", "acme/app", "nonsense"]) | scalars,
    max_size=3,
)


@st.composite
def cases(draw):
    """(faults, vulns, releases, campaigns, vulns.json text or None, config) for one run."""
    faults = draw(st.sets(st.sampled_from(FAULTS), max_size=2))
    vulns, releases, campaigns = _dataset(draw)
    vulns_text = None
    for fault in [f for f in FAULTS if f in faults]:  # in this order, each fault finds its target intact
        vulns_text = _apply(fault, draw, vulns, releases, campaigns) or vulns_text
    config = draw(configs) if "config" in faults else {}
    return faults, vulns, releases, campaigns, vulns_text, config


_YEAR_MONTH = re.compile(r"\d{4}-(0[1-9]|1[0-2])(-\d{2})?", re.ASCII)  # a day part is read and ignored


def _misused_window(config: dict) -> bool:
    """True when the config sets `epoch` or `horizon` to something that is not YYYY-MM."""
    return any(
        key in config and not (isinstance(config[key], str) and _YEAR_MONTH.fullmatch(config[key]))
        for key in ("epoch", "horizon")
    )


def _csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(command=st.sampled_from(COMMANDS), case=cases())
@example(command=["validate"], case=({"config"}, VULNS, RELEASES, CAMPAIGNS, None, {"epoch": "2008-13"}))
@example(command=COMMANDS[-1], case=({"config"}, VULNS, RELEASES, CAMPAIGNS, None, {"horizon": "soon"}))
def test_cli_exits_0_1_or_2_on_malformed_input(command, case):
    faults, vulns, releases, campaigns, vulns_text, config = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "releases.csv").write_text(_csv(["vendor", "product", "version", "release_date"], releases),
                                           encoding="utf-8")
        (root / "vulns.json").write_text(json.dumps(vulns) if vulns_text is None else vulns_text,
                                         encoding="utf-8")
        (root / "campaigns.csv").write_text(_csv(["apt", "date", "cves", "vectors"], campaigns), encoding="utf-8")
        argv = [*command, "--releases", str(root / "releases.csv"), "--vulns", str(root / "vulns.json"),
                "--campaigns", str(root / "campaigns.csv")]
        if "horizon" not in config:  # an explicit flag would override the config's horizon
            argv += ["--horizon", "2012-12"]
        if command[0] != "validate":
            argv += ["--out", str(root / "out")]
        if "config" in faults:
            (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(root / "config.json")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if faults == {"config"} and _misused_window(config):
        assert code == 2, (argv, config, code)
