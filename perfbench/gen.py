"""Seeded synthetic catalogs shaped like the paper's dataset.

`generate(shape, seed, directory)` writes releases.csv, vulns.json and
campaigns.csv and returns the counts the benchmark checks the program's
results against. Those counts come from the generator's own bookkeeping
(integer version tuples and plain month arithmetic), never from patchsim, so
they are an independent reference.

Every catalog covers the loader's and simulator's special cases:
multi-product CVEs, "*" bounds, exact and range constraints, "6u13" versions
under vendor oracle, CVEs on products without a timeline (their campaigns
drop out of the denominator), vector-only campaigns, duplicate (apt, month)
rows that merge, pre-epoch dates that clamp and day-precision dates that
truncate. The same shape and seed always give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

VECTORS = (
    "spearphishing", "drive-by", "supply-chain", "valid-accounts",
    "external-remote-services", "public-facing-app", "removable-media", "undetermined",
)


@dataclass(frozen=True)
class Shape:
    """Size and shape of one synthetic catalog."""

    epoch: str = "2008-01"
    horizon: str = "2020-01"
    products: int = 20              # products with a release timeline
    pre_epoch_releases: int = 2     # per product, dated before the epoch
    releases: int = 20              # per product, mainline releases inside the window
    backport_rate: float = 0.05     # per mainline release: chance of an older-branch release
    cves: int = 230                 # CVEs on cataloged products
    multi_product_rate: float = 0.1  # share of those that also hit a second product
    off_catalog_cves: int = 70      # CVEs only on products without a timeline
    campaigns: int = 72             # campaigns with a CVE on a cataloged product
    off_catalog_campaigns: int = 90  # CVE-bearing campaigns outside the catalog
    vector_only_campaigns: int = 18
    max_campaign_cves: int = 3
    duplicate_row_rate: float = 0.08  # campaigns written as two rows that merge

    def scaled(self, factor: int) -> "Shape":
        """Products, CVEs and campaigns all times `factor` (same window)."""
        return replace(
            self,
            products=self.products * factor,
            cves=self.cves * factor,
            off_catalog_cves=self.off_catalog_cves * factor,
            campaigns=self.campaigns * factor,
            off_catalog_campaigns=self.off_catalog_campaigns * factor,
            vector_only_campaigns=self.vector_only_campaigns * factor,
        )


def _abs_month(text: str) -> int:
    year, month = text.split("-")[:2]
    return int(year) * 12 + int(month) - 1


def _date(rng: random.Random, absolute: int) -> str:
    """Calendar string for an absolute month; a third carry a day part."""
    text = f"{absolute // 12:04d}-{absolute % 12 + 1:02d}"
    if rng.random() < 0.3:
        text += f"-{rng.randint(1, 28):02d}"
    return text


def _version_text(key: tuple[int, ...], oracle: bool) -> str:
    if oracle:
        return str(key[0]) if len(key) == 1 else f"{key[0]}u{key[1]}"
    return ".".join(str(part) for part in key)


def _next_key(rng: random.Random, key: tuple[int, ...], oracle: bool) -> tuple[int, ...]:
    if oracle:
        # 6 -> 6u1 -> ... -> 7 ; (7,) sorts above every (6, n) and below (7, 1)
        if rng.random() < 0.06:
            return (key[0] + 1,)
        return (key[0], (key[1] if len(key) > 1 else 0) + rng.randint(1, 3))
    major, minor, patch = key
    r = rng.random()
    if r < 0.08:
        return (major + 1, 0, 0)
    if r < 0.35:
        return (major, minor + 1, 0)
    return (major, minor, patch + 1)


@dataclass
class _Release:
    key: tuple[int, ...]
    month: int  # window index; pre-epoch releases hold their real (negative) offset


@dataclass
class _Product:
    vendor: str
    name: str
    oracle: bool
    mainline: list[_Release]   # increasing key and month
    backports: list[_Release]

    def version(self, release: _Release) -> str:
        return _version_text(release.key, self.oracle)


def _make_product(rng: random.Random, index: int, shape: Shape, n_months: int) -> _Product:
    oracle = index == 0
    vendor, name = ("oracle", "jre") if oracle else (f"vendor{index:03d}", f"product{index:03d}")
    key: tuple[int, ...] = (rng.randint(5, 6),) if oracle else (rng.randint(1, 12), rng.randint(0, 4), 0)
    mainline: list[_Release] = []
    for j in range(shape.pre_epoch_releases):
        mainline.append(_Release(key, -rng.randint(3, 40) * (shape.pre_epoch_releases - j)))
        key = _next_key(rng, key, oracle)
    months = sorted(rng.randint(1, n_months - 1) for _ in range(shape.releases))
    backports: list[_Release] = []
    for month in months:
        mainline.append(_Release(key, month))
        if rng.random() < shape.backport_rate and key[0] > 1:
            # an older branch's maintenance release: below whatever is
            # installed by then, so the immediate strategy skips it
            older = (key[0] - 1, 90 + len(backports)) if oracle else (key[0] - 1, 50 + len(backports), 0)
            backports.append(_Release(older, rng.randint(month, n_months - 1)))
        key = _next_key(rng, key, oracle)
    mainline_keys = {rel.key for rel in mainline}
    backports = [rel for rel in backports if rel.key not in mainline_keys]
    return _Product(vendor, name, oracle, mainline, backports)


def _constraint(rng: random.Random, product: _Product, lo: int, hi: int) -> dict:
    """NVD-style match object covering mainline[lo..hi]; the fix is mainline[hi + 1]."""
    line = product.mainline
    v = lambda i: product.version(line[i])  # noqa: E731
    has_fix = hi + 1 < len(line)
    if lo == hi and rng.random() < 0.4:
        return {"exact": v(hi)}
    forms = ["start-end-incl", "star-start"]
    if has_fix:
        forms += ["start-fix", "start-fix", "star-fix", "open-fix"]
    else:
        # only a range that reaches the newest release may be open-ended; one
        # mid-history would leave the reactive strategies with no escape from then on
        forms += ["open-end"] * 2
    if lo > 0:
        forms.append("after-end-incl")
    form = rng.choice(forms)
    if form == "start-fix":
        return {"startIncluding": v(lo), "endExcluding": v(hi + 1)}
    if form == "star-fix":
        return {"startIncluding": "*", "endExcluding": v(hi + 1)}
    if form == "open-fix":
        return {"endExcluding": v(hi + 1)}
    if form == "star-start":
        return {"startIncluding": "*", "endIncluding": v(hi)}
    if form == "after-end-incl":
        return {"startExcluding": v(lo - 1), "endIncluding": v(hi)}
    if form == "open-end":
        return {"startIncluding": v(lo), "endIncluding": "*"}
    return {"startIncluding": v(lo), "endIncluding": v(hi)}


def _affected_range(rng: random.Random, product: _Product, stratum: float) -> tuple[int, int]:
    """Affected mainline indices [lo, hi]; `stratum` in [0, 1) places hi along the history."""
    hi = min(int(stratum * len(product.mainline)), len(product.mainline) - 1)
    lo = max(0, hi - rng.choice((0, 0, 1, 2, 3, 5, 8)))
    return lo, hi


def generate(shape: Shape, seed: int, directory) -> dict:
    """Write the three input files under `directory`; return the expected counts."""
    rng = random.Random(seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    epoch = _abs_month(shape.epoch)
    n_months = _abs_month(shape.horizon) - epoch + 1
    end = n_months - 1

    def window(month: int) -> int:
        return min(max(month, 0), end)

    products = [_make_product(rng, i, shape, n_months) for i in range(shape.products)]

    # -- releases.csv -------------------------------------------------------
    rows = []
    for p in products:
        for rel in p.mainline + p.backports:
            rows.append((p.vendor, p.name, p.version(rel), _date(rng, epoch + rel.month)))
    rng.shuffle(rows)  # the loader must not depend on input row order

    # -- vulns.json ---------------------------------------------------------
    vulns = []
    published: dict[str, int] = {}  # window month of each CVE's publication
    on_catalog: list[str] = []
    for i in range(shape.cves):
        cve = f"CVE-{2000 + i // 9000}-{i % 9000 + 1000}"
        # round-robin products and jittered, evenly spread fix points keep the
        # amount of work per seed steady while every range stays random
        product = products[i % len(products)]
        per_product = -(-shape.cves // len(products))
        lo, hi = _affected_range(rng, product, (i // len(products) + rng.random()) / per_product)
        line = product.mainline
        pub = line[hi + 1].month + rng.randint(-1, 3) if hi + 1 < len(line) else line[hi].month + rng.randint(1, 24)
        pub = min(pub, end)
        affected = [{"vendor": product.vendor, "product": product.name,
                     "match": _constraint(rng, product, lo, hi)}]
        if rng.random() < shape.multi_product_rate:
            # shared code: the second product's fix ships around the same month
            other = rng.choice([p for p in products if p is not product])
            fix2 = next((j for j, rel in enumerate(other.mainline) if rel.month >= pub - 1), len(other.mainline))
            hi2 = max(fix2 - 1, 0)
            lo2 = max(0, hi2 - rng.choice((0, 1, 2, 3)))
            affected.append({"vendor": other.vendor, "product": other.name,
                             "match": _constraint(rng, other, lo2, hi2)})
        if rng.random() < 0.05:
            affected.append({"vendor": "offvendor", "product": f"tool{rng.randrange(8)}",
                             "match": {"endExcluding": f"{rng.randint(2, 9)}.0"}})
        res = pub - rng.randint(0, 6)
        vulns.append({"cve": cve, "reserved": _date(rng, epoch + res), "published": _date(rng, epoch + pub),
                      "affected": affected})
        published[cve] = window(pub)
        on_catalog.append(cve)
    off_catalog: list[str] = []
    for i in range(shape.off_catalog_cves):
        cve = f"CVE-{2100 + i // 9000}-{i % 9000 + 1000}"
        pub = rng.randint(-12, end)
        res = pub - rng.randint(0, 6)
        vulns.append({
            "cve": cve, "reserved": _date(rng, epoch + res), "published": _date(rng, epoch + pub),
            "affected": [{"vendor": "offvendor", "product": f"tool{rng.randrange(8)}",
                          "match": rng.choice(({"exact": "1.0"}, {"startIncluding": "*", "endExcluding": "2.5"},
                                               {"startIncluding": "1.2", "endIncluding": "3.1"}))}],
        })
        published[cve] = window(pub)
        off_catalog.append(cve)

    # -- campaigns.csv ------------------------------------------------------
    n_total = shape.campaigns + shape.off_catalog_campaigns + shape.vector_only_campaigns
    n_apts = max(1, n_total // 3)
    used: set[tuple[str, int]] = set()
    lines = []

    def add_campaign(cves: list[str], vectors: list[str], month: int) -> None:
        while True:
            apt = f"APT{rng.randint(1, n_apts)}"
            if (apt, window(month)) not in used:
                break
            month = rng.randint(0, end)
        used.add((apt, window(month)))
        if month <= 0 and rng.random() < 0.5:
            month = -rng.randint(1, 12)  # a pre-epoch date that clamps to the epoch
        parts = [(cves, vectors)]
        if rng.random() < shape.duplicate_row_rate:
            # two rows with the same apt and month; the loader merges them
            half = max(1, len(cves) // 2)
            parts = [(cves[:half], vectors or [rng.choice(VECTORS)]), (cves[half:] or cves, vectors[:1])]
        for part_cves, part_vectors in parts:
            lines.append((apt, _date(rng, epoch + month), "|".join(part_cves), "|".join(part_vectors)))

    def some_vectors(k: int) -> list[str]:
        return sorted(rng.sample(VECTORS, k))

    for campaign in range(shape.campaigns):
        cves = [rng.choice(on_catalog)]
        for _ in range(campaign % shape.max_campaign_cves):
            cves.append(rng.choice(on_catalog if rng.random() < 0.7 else off_catalog))
        cves = sorted(set(cves))
        # mostly after publication (KK); some zero-days before it (KU, UU)
        month = window(published[cves[0]] + rng.choice((-8, -3, -1, 0, 1, 2, 4, 6, 9, 14, 20, 30)))
        add_campaign(cves, some_vectors(rng.randint(0, 2)), month)
    for _ in range(shape.off_catalog_campaigns):
        cves = sorted({rng.choice(off_catalog) for _ in range(rng.randint(1, 2))})
        add_campaign(cves, some_vectors(rng.randint(0, 2)), rng.randint(0, end))
    for _ in range(shape.vector_only_campaigns):
        add_campaign([], some_vectors(rng.randint(1, 2)), rng.randint(0, end))
    rng.shuffle(lines)

    _write_csv(directory / "releases.csv", ("vendor", "product", "version", "release_date"), rows)
    (directory / "vulns.json").write_text(json.dumps(vulns, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    _write_csv(directory / "campaigns.csv", ("apt", "date", "cves", "vectors"), lines)

    return {
        "products": len(products),
        "rows": len(rows),
        "months": n_months,
        "cves": len(vulns),
        "campaigns": n_total,
        "cve_bearing_campaigns": shape.campaigns + shape.off_catalog_campaigns,
        "evaluated_campaigns": shape.campaigns,
        # immediate deploys every month with a new mainline release; backports
        # never beat what is installed by then and same-month releases collapse
        "immediate_net_updates": sum(len({r.month for r in p.mainline if r.month > 0}) for p in products),
    }


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")
