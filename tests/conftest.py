from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import pytest

from patchsim.catalog import (
    CampaignRecord,
    Catalog,
    ProductConstraint,
    ProductKey,
    ReleaseTimeline,
    VersionRelease,
    VulnRecord,
)
from patchsim.evaluator import evaluate, exposure_matrices
from patchsim.months import Horizon
from patchsim.stats import agresti_coull
from patchsim.strategies import Scenario, StrategyConfig, StrategyKind
from patchsim.versions import VersionConstraint, version_key

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def fixture_paths():
    return {
        "releases": DATA_DIR / "releases.csv",
        "vulns": DATA_DIR / "vulns.json",
        "campaigns": DATA_DIR / "campaigns.csv",
    }


@pytest.fixture()
def fixture_catalog(fixture_paths):
    from patchsim.catalog import load_catalog

    return load_catalog(fixture_paths["releases"], fixture_paths["vulns"], fixture_paths["campaigns"])


# ---------------------------------------------------------------------------
# Programmatic catalog construction


def make_timeline(product: ProductKey, versions: list[tuple[str, int]]) -> ReleaseTimeline:
    """Build a timeline from (version, month) pairs."""
    return ReleaseTimeline(tuple(VersionRelease(product, v, version_key(v), m) for v, m in versions))


def make_catalog(
    timelines_spec: dict[tuple[str, str], list[tuple[str, int]]],
    vulns: list[VulnRecord] = (),
    campaigns: list[CampaignRecord] = (),
    horizon_end: int = 144,
) -> Catalog:
    horizon = Horizon(2008, 1, horizon_end)
    timelines = {key: make_timeline(key, versions) for key, versions in timelines_spec.items()}
    return Catalog(
        horizon=horizon,
        timelines=timelines,
        vulns={v.cve_id: v for v in vulns},
        campaigns=tuple(sorted(campaigns, key=lambda c: (c.apt_name, c.start_month))),
    )


def vuln(cve, reserved, published, *affected) -> VulnRecord:
    """affected: (vendor, product, match-mapping) triples."""
    return VulnRecord(
        cve,
        reserved,
        published,
        tuple(ProductConstraint(v, p, VersionConstraint.from_mapping(m)) for v, p, m in affected),
    )


def campaign(apt, month, cves=(), vectors=()) -> CampaignRecord:
    from patchsim.catalog import AttackVector

    tags = frozenset(AttackVector(t) for t in vectors) if vectors else frozenset()
    return CampaignRecord(apt, month, frozenset(cves), tags)


def save_catalog(catalog: Catalog, directory) -> dict[str, Path]:
    """Write the catalog back out as releases.csv / vulns.json / campaigns.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fmt = catalog.horizon.format

    release_path = directory / "releases.csv"
    with release_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vendor", "product", "version", "release_date"])
        for key in sorted(catalog.timelines):
            for rel in catalog.timelines[key].releases:
                writer.writerow([*rel.product, rel.version, fmt(rel.release_month)])

    vuln_path = directory / "vulns.json"
    entries = []
    for cve in sorted(catalog.vulns):
        record = catalog.vulns[cve]
        entries.append(
            {
                "cve": cve,
                "reserved": fmt(record.reserved_month),
                "published": fmt(record.published_month),
                "affected": [
                    {"vendor": pc.vendor, "product": pc.product, "match": pc.constraint.to_mapping()}
                    for pc in record.affected
                ],
            }
        )
    vuln_path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    campaign_path = directory / "campaigns.csv"
    with campaign_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["apt", "date", "cves", "vectors"])
        for c in catalog.campaigns:
            writer.writerow(
                [
                    c.apt_name,
                    fmt(c.start_month),
                    "|".join(sorted(c.cve_ids)),
                    "|".join(sorted(v.value for v in c.vectors)),
                ]
            )
    return {"releases": release_path, "vulns": vuln_path, "campaigns": campaign_path}


# ---------------------------------------------------------------------------
# Structural checks of built matrices and curves


def dense(matrix) -> frozenset:
    """A deployment as its (release, month) cells, one for each month in which
    the release is installed, walked month by month from the start releases,
    the transitions and the scenario."""
    moves = {(t.incoming.product, t.month): t for t in matrix.transitions}
    apt_first = matrix.scenario is Scenario.APT_FIRST
    cells = set()
    for key, installed in matrix.start.items():
        for m in range(matrix.horizon.n_months):
            t = moves.get((key, m))
            if t is not None:
                if apt_first:
                    cells.add((t.outgoing, m))
                installed = t.incoming
            cells.add((installed, m))
    return frozenset(cells)


def installed_series(matrix, product) -> list[set]:
    """Per-month installed set of releases for one product."""
    out: list[set] = [set() for _ in range(matrix.horizon.n_months)]
    for rel, m in dense(matrix):
        if rel.product == product:
            out[m].add(rel)
    return out


def matrix_problems(matrix) -> list[str]:
    """Structural self-checks of a deployment matrix; empty when well-formed."""
    problems: list[str] = []
    # the builders' order, in which they fill each product's steps
    products = [t.incoming.product for t in matrix.transitions]
    if products != sorted(products):
        problems.append("transitions are not grouped by product in key order")
    for key, group in groupby(matrix.transitions, key=lambda t: t.incoming.product):
        months = [t.month for t in group]
        if any(a >= b for a, b in zip(months, months[1:])):
            problems.append(f"{key}: transition months do not strictly increase: {months}")
    transition_months = {(t.incoming.product, t.month): t for t in matrix.transitions}
    for key in sorted(matrix.start):
        prev_max = None
        for m, installed in enumerate(installed_series(matrix, key)):
            if matrix.scenario is Scenario.UPDATE_FIRST and len(installed) != 1:
                problems.append(f"{key}: month {m} has {len(installed)} versions installed")
            if matrix.scenario is Scenario.APT_FIRST:
                if len(installed) > 2 or not installed:
                    problems.append(f"{key}: month {m} has {len(installed)} versions installed")
                if len(installed) == 2:
                    t = transition_months.get((key, m))
                    if t is None or {t.outgoing, t.incoming} != installed:
                        problems.append(f"{key}: month {m} pairs versions without a transition")
            for rel in installed:
                if rel.release_month > m:
                    problems.append(f"{key}: {rel.version} installed at {m} before release")
            cur_max = max((r.sort_key for r in installed), default=None)
            if prev_max is not None and cur_max is not None and cur_max < prev_max:
                problems.append(f"{key}: version downgrade entering month {m}")
            prev_max = cur_max if cur_max is not None else prev_max
    return problems


def percent_bounds(ci) -> tuple[int, int]:
    """Whole-percent bounds of a BinomialCI, rounded half away from zero."""

    def round_half_away(x: float) -> int:
        return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))

    return round_half_away(ci.low * 100), round_half_away(ci.high * 100)


def survival_at(curve, age) -> Fraction:
    """Value of a right-continuous survival curve at `age`."""
    value = Fraction(1)
    for t, s in curve:
        if t > age:
            break
        value = s
    return value


def curve_problems(curve) -> list[str]:
    """Structural self-checks of a survival curve; empty when well-formed."""
    problems = []
    last = Fraction(1)
    last_t = None
    for t, s in curve:
        if last_t is not None and t <= last_t:
            problems.append(f"breakpoints not strictly increasing at {t}")
        if s > last:
            problems.append(f"survival increases at {t}")
        if not 0 <= s <= 1:
            problems.append(f"survival out of range at {t}")
        last, last_t = s, t
    return problems


# ---------------------------------------------------------------------------
# Randomized catalogs for property and oracle tests


def configs_with_delay(delay: int) -> list[StrategyConfig]:
    """Every builder at one delay: immediate or planned, then reactive and informed under both picks."""
    return [StrategyConfig(StrategyKind.PLANNED, delay) if delay else StrategyConfig(StrategyKind.IMMEDIATE)] + [
        StrategyConfig(kind, delay, reactive_pick=pick)
        for kind in (StrategyKind.REACTIVE, StrategyKind.INFORMED_REACTIVE)
        for pick in ("first", "latest")
    ]


def random_catalog(rng: random.Random, horizon_end: int = 23, affected_out: dict | None = None) -> Catalog:
    """Seeded catalog with dotted products, sometimes an Oracle product using
    "6u13" update notation, multi-product CVEs (some naming a product with no
    timeline) and "*" bounds. When given, `affected_out` receives each CVE's
    (vendor, product, match object) triples as drawn."""
    n_products = rng.randint(1, 5)
    timelines_spec = {}
    for i in range(n_products):
        key = (rng.choice(["acme", "umbrella", "initech"]), f"app{i}")
        major, minor = rng.randint(1, 3), rng.randint(0, 2)
        month = 0
        versions = [(f"{major}.{minor}", 0)]
        used = {f"{major}.{minor}"}
        for _ in range(rng.randint(0, 9)):
            month = min(horizon_end, month + rng.randint(0, 5))
            if rng.random() < 0.15 and major > 1:
                v = f"{major - 1}.{rng.randint(0, 9)}"  # old-branch maintenance release
            else:
                if rng.random() < 0.3:
                    major, minor = major + 1, 0
                else:
                    minor += rng.randint(1, 3)
                v = f"{major}.{minor}"
            if v in used:
                continue
            used.add(v)
            versions.append((v, month))
        timelines_spec[key] = versions
    if rng.random() < 0.4:
        major, update = rng.randint(5, 7), rng.randint(0, 20)
        month = 0
        versions = [(f"{major}u{update}", 0)]
        for _ in range(rng.randint(0, 8)):
            month = min(horizon_end, month + rng.randint(0, 5))
            if rng.random() < 0.25:
                major, update = major + 1, 0
            else:
                update += rng.randint(1, 12)
            versions.append((f"{major}u{update}", month))
        timelines_spec[("oracle", "jre")] = versions

    keys = sorted(timelines_spec)
    vulns = []
    for i in range(rng.randint(1, 8)):
        reserved = rng.randint(0, horizon_end)
        published = rng.randint(reserved, horizon_end)
        affected = []
        for key in rng.sample(keys, rng.randint(1, min(2, len(keys)))):
            names = [v for v, _ in timelines_spec[key]]
            roll = rng.random()
            if roll < 0.25:
                match = {"exact": rng.choice(names)}
            elif roll < 0.75:
                match = {rng.choice(["endIncluding", "endExcluding"]): rng.choice(names)}
                if rng.random() < 0.3:
                    match[rng.choice(["startIncluding", "startExcluding"])] = "*"
            elif roll < 0.95:
                match = {rng.choice(["startIncluding", "startExcluding"]): rng.choice(names)}
            else:
                match = {"endIncluding": "*"}
            affected.append((key[0], key[1], match))
        if rng.random() < 0.1:
            affected.append(("acme", "ghost", {"endIncluding": "9.9"}))
        vulns.append(vuln(f"CVE-2010-{1000 + i}", reserved, published, *affected))
        if affected_out is not None:
            affected_out[vulns[-1].cve_id] = affected

    campaigns = {}
    for i in range(rng.randint(1, 20)):
        apt = rng.choice(["Alpha", "Bravo", "Chi", "Delta", "Echo"])
        month = rng.randint(0, horizon_end)
        if (apt, month) in campaigns:
            continue
        if vulns and rng.random() < 0.9:
            cves = frozenset(v.cve_id for v in rng.sample(vulns, rng.randint(1, min(3, len(vulns)))))
            campaigns[(apt, month)] = campaign(apt, month, cves)
        else:
            campaigns[(apt, month)] = campaign(apt, month, vectors=["undetermined"])

    return make_catalog(timelines_spec, vulns, list(campaigns.values()), horizon_end=horizon_end)


# ---------------------------------------------------------------------------
# Independent reference implementations (oracles). These deliberately avoid
# the package's comparison and matrix machinery: token lists, Python sets,
# and plain loops only.


def ref_tokens(version: str) -> list:
    """Decimal runs are numbers; every other run between the separators
    ".-_+ " is a letter run, whatever its characters ("é", "²", "*")."""
    runs = groupby(version.strip().lower(), lambda ch: None if ch in ".-_+ " else ch.isdecimal())
    parts = ["".join(chars) for decimal, chars in runs if decimal is not None]
    out = []
    for i, part in enumerate(parts):
        if part == "u" and 0 < i < len(parts) - 1 and parts[i - 1].isdecimal() and parts[i + 1].isdecimal():
            continue
        out.append(int(part) if part.isdecimal() else part)
    return out


def ref_compare(a: str, b: str) -> int:
    ta, tb = ref_tokens(a), ref_tokens(b)
    for x, y in zip(ta, tb):
        if x == y:
            continue
        x_num, y_num = isinstance(x, int), isinstance(y, int)
        if x_num != y_num:
            return -1 if x_num else 1  # numbers sort before letters
        return -1 if x < y else 1
    if len(ta) == len(tb):
        return 0
    return -1 if len(ta) < len(tb) else 1


def ref_matches(match: dict, version: str) -> bool:
    if "exact" in match:
        return ref_compare(version, match["exact"]) == 0
    ok = True
    if "startIncluding" in match and match["startIncluding"] != "*":
        ok = ok and ref_compare(version, match["startIncluding"]) >= 0
    if "startExcluding" in match and match["startExcluding"] != "*":
        ok = ok and ref_compare(version, match["startExcluding"]) > 0
    if "endIncluding" in match and match["endIncluding"] != "*":
        ok = ok and ref_compare(version, match["endIncluding"]) <= 0
    if "endExcluding" in match and match["endExcluding"] != "*":
        ok = ok and ref_compare(version, match["endExcluding"]) < 0
    return ok


def ref_above(match: dict, version: str) -> bool:
    """True when the version lies past the range's end: past an endIncluding
    or exact version, or at or past an endExcluding. With no end bound, no
    version is above."""
    if "exact" in match:
        return ref_compare(version, match["exact"]) > 0
    if match.get("endIncluding", "*") != "*":
        return ref_compare(version, match["endIncluding"]) > 0
    if match.get("endExcluding", "*") != "*":
        return ref_compare(version, match["endExcluding"]) >= 0
    return False


def ref_position(constraint: VersionConstraint, key: tuple) -> int:
    """Where a version key lies against a parsed constraint, one comparison at
    a time: -1 below the range, 0 inside it, 1 strictly above it (never
    without an end bound). The end bound is tested first, so the end of an
    empty range such as {"startExcluding": "1.0", "endExcluding": "1.0"} is above it."""
    end, start = constraint.end, constraint.start
    if end is not None and (key > end.key or (key == end.key and not end.inclusive)):
        return 1
    if start is not None and (key < start.key or (key == start.key and not start.inclusive)):
        return -1
    return 0


def ref_targeted_releases(catalog: Catalog, campaign_record: CampaignRecord) -> set:
    targeted = set()
    for cve in campaign_record.cve_ids:
        record = catalog.vulns.get(cve)
        if record is None:
            continue
        for pc in record.affected:
            timeline = catalog.timelines.get(pc.key)
            if timeline is None:
                continue
            for rel in timeline.releases:
                if ref_matches(pc.constraint.to_mapping(), rel.version):
                    targeted.add(rel)
    return targeted


def ref_overall_probability(catalog: Catalog, matrix) -> Fraction | None:
    """Month-walking recount of the overall compromise probability."""
    n_months = matrix.horizon.n_months
    installed_by_month: list[set] = [set() for _ in range(n_months)]
    for rel, m in dense(matrix):
        installed_by_month[m].add(rel)
    included = succeeded = 0
    for record in catalog.campaigns:
        if not record.cve_ids:
            continue
        targeted = ref_targeted_releases(catalog, record)
        if not targeted:
            continue
        included += 1
        for m in range(record.start_month, n_months):
            if installed_by_month[m] & targeted:
                succeeded += 1
                break
    if not included:
        return None
    return Fraction(succeeded, included)


def months_of(runs) -> frozenset:
    """The months of a campaign outcome's [a, b) success runs."""
    return frozenset(m for a, b in runs for m in range(a, b))


def runs_of(months) -> tuple:
    """The canonical [a, b) runs of a set of months: sorted, disjoint and
    non-adjacent."""
    runs: list = []
    for m in sorted(months):
        if runs and runs[-1][1] == m:
            runs[-1] = (runs[-1][0], m + 1)
        else:
            runs.append((m, m + 1))
    return tuple(runs)


def ref_success_months(
    catalog: Catalog, kind: str, delay: int = 0, pick: str = "first", scenario: Scenario = Scenario.UPDATE_FIRST
) -> dict:
    """Per evaluated campaign key, the months from its start on in which an
    installed version is targeted, from ref_strategy_run's per-month installed
    versions (plus, under apt-first, each outgoing version in its transition
    month) and ref_targeted_releases. Campaigns that target no cataloged
    release are left out, as from the denominator."""
    installed: list[set] = [set() for _ in range(catalog.horizon.n_months)]  # (product, version)
    for key, (versions, transitions) in ref_strategy_run(catalog, kind, delay, pick).items():
        for m, version in enumerate(versions):
            installed[m].add((key, version))
        if scenario is Scenario.APT_FIRST:
            for m, outgoing, _ in transitions:
                installed[m].add((key, outgoing))
    out = {}
    for record in catalog.campaigns:
        targeted = {(rel.product, rel.version) for rel in ref_targeted_releases(catalog, record)}
        if targeted:
            out[record.key] = {m for m in range(record.start_month, len(installed)) if installed[m] & targeted}
    return out


def assert_success_months_match_reference(catalog: Catalog, configs, context) -> None:
    """evaluate()'s success months of every report are canonical runs whose
    months equal ref_success_months; a catalog whose campaigns target no cataloged release has nothing to score."""
    if not exposure_matrices(catalog):
        return
    for report in evaluate(catalog, configs):
        config = report.config
        expected = ref_success_months(
            catalog, config.kind.value, config.delay_months, config.reactive_pick, report.scenario
        )
        for o in report.outcomes:
            runs = o.success_months
            # canonical runs: a tuple of sorted, disjoint, non-adjacent, non-empty [a, b)
            assert isinstance(runs, tuple), (context, config, report.scenario, runs)
            assert all(a < b for a, b in runs), (context, config, report.scenario, runs)
            assert all(b < a for (_, b), (a, _) in zip(runs, runs[1:])), (context, config, report.scenario, runs)
            assert o.success == bool(expected[o.campaign.key]), (context, config, report.scenario)
        got = {o.campaign.key: months_of(o.success_months) for o in report.outcomes}
        assert got == expected, (context, config, report.scenario)


def ref_monthly(outcomes, month: int) -> Fraction | None:
    """Per-month rescan: successful over active campaigns at `month`, None
    when no campaign is active yet."""
    active = [o for o in outcomes if o.campaign.start_month <= month]
    if not active:
        return None
    return Fraction(sum(1 for o in active if month in months_of(o.success_months)), len(active))


def ref_percent_1dp(value: Fraction) -> str:
    """Percentage with one decimal, half away from zero, by Fraction arithmetic."""
    scaled = value * 1000
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    return f"{q // 10}.{q % 10}"


def ref_evaluation_json(reports, catalog: Catalog) -> str:
    """evaluate.json as the whole payload built as dicts and rendered by
    json.dumps(indent=2, sort_keys=True), the encoder's own layout."""
    labels = catalog.horizon.labels
    payload = []
    for report in reports:
        ci = agresti_coull(sum(1 for o in report.outcomes if o.success), len(report.outcomes), 0.95)
        payload.append({
            "strategy": report.config.kind.value,
            "delay_months": report.config.delay_months,
            "scenario": report.scenario.value,
            "overall_probability": {
                "fraction": f"{report.overall.numerator}/{report.overall.denominator}",
                "percent": ref_percent_1dp(report.overall),
            },
            "ci95_percent": [round(ci.low * 100, 2), round(ci.high * 100, 2)],
            "updates": {"raw": report.updates_raw, "net": report.updates_net},
            "odds_vs_baseline": (
                None if report.odds_vs_baseline is None else round(report.odds_vs_baseline, 3)
            ),
            "outcomes": [
                {
                    "apt": o.campaign.apt_name,
                    "start": labels[o.campaign.start_month],
                    "success": o.success,
                    "months": [labels[m] for m in sorted(months_of(o.success_months))],
                }
                for o in report.outcomes
            ],
        })
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def ref_strategy_run(catalog: Catalog, kind: str, delay: int = 0, pick: str = "first") -> dict:
    """Month-walking reference for the strategy builders.

    kind is immediate, planned, reactive or informed. Returns, per product
    key, the installed version string of every month and the transitions as
    (month, outgoing version, incoming version). Affects and ordering come
    from ref_matches/ref_compare only.
    """
    end = catalog.horizon.end_index
    exploited = {cve for c in catalog.campaigns for cve in c.cve_ids if cve in catalog.vulns}
    trigger = {
        cve: v.reserved_month if kind == "informed" else v.published_month for cve, v in catalog.vulns.items()
    }

    def earliest(pool):  # earliest released, then lowest version
        best = None
        for rel in pool:
            if best is None or rel.release_month < best.release_month or (
                rel.release_month == best.release_month and ref_compare(rel.version, best.version) < 0
            ):
                best = rel
        return best

    def newest(pool):
        best = None
        for rel in pool:
            if best is None or ref_compare(rel.version, best.version) > 0:
                best = rel
        return best

    out = {}
    for key in sorted(catalog.timelines):
        releases = list(catalog.timelines[key].releases)
        hit = {
            rel: {
                cve
                for cve, record in catalog.vulns.items()
                for pc in record.affected
                if pc.key == key and ref_matches(pc.constraint.to_mapping(), rel.version)
            }
            for rel in releases
        }
        at_epoch = [rel for rel in releases if rel.release_month == 0]
        start = earliest([rel for rel in at_epoch if hit[rel] & exploited] or at_epoch)
        installed = []
        if kind in ("immediate", "planned"):
            # the newest release out in months 1 .. m - delay, or the start
            for m in range(end + 1):
                installed.append(newest([start] + [r for r in releases if 1 <= r.release_month <= m - delay]))
        else:

            def escape(current, outstanding, at, how):
                pool = [
                    rel
                    for rel in releases
                    if rel.release_month <= at
                    and ref_compare(rel.version, current.version) > 0
                    and not hit[rel] & outstanding
                ]
                return earliest(pool) if how == "first" else newest(pool)

            def schedule(current, outstanding, now):
                rel = escape(current, outstanding, end, "first")
                return None if rel is None else max(now, rel.release_month) + delay

            current, outstanding, pending = start, set(), None
            for m in range(end + 1):
                fired = {cve for cve in hit[current] if trigger[cve] == m}
                if fired:
                    outstanding |= fired
                    if pending is None:
                        pending = schedule(current, outstanding, m)
                if pending == m:
                    rel = escape(current, outstanding, m, pick)
                    if rel is None:
                        pending = schedule(current, outstanding, m)
                    else:
                        current = rel
                        outstanding = {cve for cve in hit[current] if trigger[cve] <= m}
                        pending = schedule(current, outstanding, m) if outstanding else None
                        if pending == m:  # one version change a month at most
                            pending = m + 1
                installed.append(current)
        transitions = []
        previous = start
        for m, rel in enumerate(installed):
            if rel is not previous:
                transitions.append((m, previous.version, rel.version))
            previous = rel
        out[key] = ([rel.version for rel in installed], transitions)
    return out
