"""Domain model and dataset ingestion.

A Catalog bundles everything one analysis run needs: per-product release
timelines, vulnerability records with affected-version constraints, and
attributed campaign events. It is immutable after loading and safe to share
across threads.

Input formats:
  releases.csv   vendor,product,version,release_date
  vulns.json     [{cve, reserved, published, affected: [{vendor, product, match}]}]
  campaigns.csv  apt,date,cves,vectors   (cves/vectors are |-separated)

Dates are YYYY-MM or YYYY-MM-DD; day parts are truncated to the month.
Dates before the epoch clamp to month 0 (the entity is simply "already
there" when the window opens); dates past the horizon end are errors.
Campaign rows with the same apt and month merge. Each truncation, clamp and
merge is kept in `Catalog.notes`, naming its file and line.
"""

from __future__ import annotations

import csv
import io
import json
from enum import Enum
from functools import cached_property
from itertools import accumulate, groupby
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

from .months import DataError, Frozen, Horizon
from .versions import VersionConstraint, version_key

ProductKey = tuple[str, str]  # (vendor, name)


class AttackVector(Enum):
    SPEARPHISHING = "spearphishing"
    DRIVE_BY = "drive-by"
    SUPPLY_CHAIN = "supply-chain"
    VALID_ACCOUNTS = "valid-accounts"
    EXTERNAL_REMOTE_SERVICES = "external-remote-services"
    PUBLIC_FACING_APP = "public-facing-app"
    REMOVABLE_MEDIA = "removable-media"
    UNDETERMINED = "undetermined"


_VECTORS = {v.value: v for v in AttackVector}


class VersionRelease(Frozen):
    """One release of a product; equal releases agree on all four fields. Indexes
    hash releases constantly, so the hash is computed once, from (product, version)."""

    __slots__ = ("product", "version", "sort_key", "release_month", "_hash")

    def __init__(self, product: ProductKey, version: str, sort_key: tuple, release_month: int):
        init = object.__setattr__
        init(self, "product", product)
        init(self, "version", version)
        init(self, "sort_key", sort_key)
        init(self, "release_month", release_month)
        init(self, "_hash", hash((product, version)))

    def _key(self) -> tuple:
        return self.product, self.version, self.sort_key, self.release_month

    def __hash__(self) -> int:
        return self._hash


class Transition(NamedTuple):
    month: int
    outgoing: VersionRelease
    incoming: VersionRelease


class ReleaseTimeline(Frozen):
    """One product's releases in (release_month, sort_key) order, equal when they
    are, and what range questions read: `running_max`, the newest sort_key so
    far; `by_version`, the releases in sort_key order; `keys`, their sort_keys."""

    def __init__(self, releases: tuple[VersionRelease, ...]):
        ordered = tuple(sorted(releases, key=lambda r: (r.release_month, r.sort_key)))
        by_version = tuple(sorted(ordered, key=lambda r: r.sort_key))
        running_max = tuple(accumulate((r.sort_key for r in ordered), max))
        keys = tuple(r.sort_key for r in by_version)
        vars(self).update(releases=ordered, running_max=running_max, by_version=by_version, keys=keys)

    def _key(self) -> tuple[VersionRelease, ...]:
        return self.releases


class ProductConstraint(NamedTuple):
    vendor: str
    product: str
    constraint: VersionConstraint

    @property
    def key(self) -> ProductKey:
        return (self.vendor, self.product)


class VulnRecord(NamedTuple):
    cve_id: str
    reserved_month: int
    published_month: int
    affected: tuple[ProductConstraint, ...]


class CampaignRecord(NamedTuple):
    apt_name: str
    start_month: int
    cve_ids: frozenset[str]
    vectors: frozenset[AttackVector]

    @property
    def key(self) -> tuple[str, int]:
        return (self.apt_name, self.start_month)

    @property
    def vector_only(self) -> bool:
        return not self.cve_ids


class Catalog(Frozen):
    """One dataset over one window; catalogs are equal when their first four
    fields are. `notes` lists what the loader changed in the data, as
    (kind, where, text) with kind "truncated", "clamped" or "merged"."""

    def __init__(self, horizon: Horizon, timelines: dict[ProductKey, ReleaseTimeline], vulns: dict[str, VulnRecord],
                 campaigns: tuple[CampaignRecord, ...], notes: tuple[tuple[str, str, str], ...] = ()):
        vars(self).update(horizon=horizon, timelines=timelines, vulns=vulns, campaigns=campaigns, notes=notes)

    def _key(self) -> tuple:
        return self.horizon, self.timelines, self.vulns, self.campaigns

    def campaign_cve_ids(self) -> frozenset[str]:
        out: set[str] = set()
        for c in self.campaigns:
            out |= c.cve_ids
        return frozenset(out)

    @cached_property
    def slices(self) -> dict[str, tuple[tuple[ProductConstraint, int, int], ...]]:
        """CVE id -> (constraint, lo, hi) for each of its constraints on a product
        with a timeline, in record order: the constraint's `span` over that
        timeline's `keys`, so `by_version[lo:hi]` is what it affects and
        `by_version[hi:]` lies above it. The one place that asks `span`."""
        timelines = self.timelines
        return {
            cve: tuple((pc, *pc.constraint.span(timelines[pc.key].keys)) for pc in v.affected if pc.key in timelines)
            for cve, v in self.vulns.items()
        }

    def affected_by(self, cve: str) -> frozenset[VersionRelease]:
        """Every cataloged release one of the CVE's constraints matches: the union
        of its `slices`. Products without a timeline contribute nothing."""
        hit: set[VersionRelease] = set()
        for pc, lo, hi in self.slices[cve]:
            hit.update(self.timelines[pc.key].by_version[lo:hi])
        return frozenset(hit)

    @cached_property
    def start(self) -> dict[ProductKey, VersionRelease]:
        """The release every strategy starts from, per product in key order:
        the oldest one already out at the epoch, preferring one that a
        campaign-exploited CVE affects."""
        exploited, hitting = self.campaign_cve_ids(), self.hitting
        chosen: dict[ProductKey, VersionRelease] = {}
        for key in sorted(self.timelines):
            at_epoch = [r for r in self.timelines[key].releases if r.release_month <= 0]
            if not at_epoch:
                raise DataError(f"product {key[0]}/{key[1]} has no release at or before {self.horizon.format(0)}")
            # releases are in (release_month, sort_key) order, so the first is the oldest
            chosen[key] = ([r for r in at_epoch if not exploited.isdisjoint(hitting[r])] or at_epoch)[0]
        return chosen

    @cached_property
    def upgrades(self) -> tuple[Transition, ...]:
        """The immediate strategy's transitions, products in key order and
        months increasing within a product: from month 1 on (month 0 is the
        common start), each month's newest release is installed when it is
        a strict upgrade over the installed one. planned:k lands each of
        them k months later, dropping those that would land past the window."""
        transitions: list[Transition] = []
        for key in sorted(self.timelines):
            current = self.start[key]
            for month, releases in groupby(self.timelines[key].releases, key=lambda r: r.release_month):
                candidate = max(releases, key=lambda r: r.sort_key)
                if 1 <= month <= self.horizon.end_index and candidate.sort_key > current.sort_key:  # never downgrade
                    transitions.append(Transition(month, current, candidate))
                    current = candidate
        return tuple(transitions)

    @cached_property
    def position(self) -> dict[VersionRelease, int]:
        """Release -> its index in its product's `by_version`, the axis of `slices`."""
        return {rel: i for t in self.timelines.values() for i, rel in enumerate(t.by_version)}

    @cached_property
    def upgrade_steps(self) -> dict[ProductKey, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per product, the `position` of its start release and of each of its
        `upgrades`' incoming releases, and the months each is installed from:
        0, then each upgrade's month. planned:k shifts and cuts these, as it
        does the upgrades."""
        position = self.position
        steps = {key: ([position[rel]], [0]) for key, rel in self.start.items()}
        for t in self.upgrades:
            positions, months = steps[t.incoming.product]
            positions.append(position[t.incoming])
            months.append(t.month)
        return {key: (tuple(positions), tuple(months)) for key, (positions, months) in steps.items()}

    @cached_property
    def hitting(self) -> dict[VersionRelease, tuple[str, ...]]:
        """Release -> the ids of every CVE affecting it, in id order and each once;
        an empty tuple for an unaffected release. Each (constraint, lo, hi) of a
        CVE's `slices` adds the CVE to `by_version[lo:hi]` of its product."""
        index = {key: [[] for _ in t.by_version] for key, t in self.timelines.items()}  # parallel to by_version
        slices = self.slices
        for cve in sorted(slices):
            for pc, lo, hi in slices[cve]:
                for cves in index[pc.key][lo:hi]:
                    if not cves or cves[-1] != cve:  # two constraints of the CVE may overlap
                        cves.append(cve)
        return {rel: tuple(cves) for key, t in self.timelines.items() for rel, cves in zip(t.by_version, index[key])}

    @cached_property
    def trigger_order(self) -> dict:
        """`strategies.TriggerOrder` for the published (False) and the reserved
        (True) clock; shared by every reactive or informed build."""
        from .strategies import TriggerOrder  # the builders' own index; strategies imports this module

        return {informed: TriggerOrder(self, informed) for informed in (False, True)}

    @cached_property
    def fix_month(self) -> dict[str, Optional[int]]:
        """Campaign CVE id -> release month of the earliest cataloged release
        above one of its `slices` (in `by_version[hi:]`) that is not in
        `affected_by(cve)`; None when no release escapes. Products without a
        timeline contribute nothing."""
        index: dict[str, Optional[int]] = {}
        for cve in sorted(self.campaign_cve_ids()):
            affected = self.affected_by(cve)
            above = (rel for pc, _, hi in self.slices[cve] for rel in self.timelines[pc.key].by_version[hi:])
            index[cve] = min((rel.release_month for rel in above if rel not in affected), default=None)
        return index


class Violation(NamedTuple):
    entity: str
    rule: str
    detail: str = ""


# ---------------------------------------------------------------------------
# Loading


class _Parser:
    """Reads the version and date texts of one load, each distinct text once.
    A text that fails is never stored, so each of its occurrences raises
    naming its own file and line. A record's location comes from a function,
    called only when an error or a note names it."""

    def __init__(self, horizon: Horizon):
        self.horizon = horizon
        self.keys: dict[str, tuple] = {}
        self.dates: dict[str, tuple[int, bool, bool, str]] = {}
        self.notes: list[tuple[str, str, str]] = []  # Catalog.notes, in the order met

    def version_key(self, text: str) -> tuple:
        key = self.keys.get(text)
        if key is None:
            key = self.keys[text] = version_key(text)
        return key

    def month(self, text: str, at: Callable[[], str], field: str) -> int:
        """The month index of date field `field` of the record at `at()`; a
        malformed or post-horizon date is a DataError."""
        parsed = self.dates.get(text)
        if parsed is None:
            year_month = text.strip()
            try:
                index, clamped = self.horizon.parse_clamped(year_month)
            except DataError as exc:
                raise DataError(f"{at()}: field {field}: {exc}") from exc
            # an accepted YYYY-MM-DD is 10 long, YYYY-MM 7
            parsed = self.dates[text] = index, len(year_month) == 10, clamped, year_month
        index, truncated, clamped, year_month = parsed
        if truncated:
            self.notes.append(("truncated", f"{at()}: field {field}", year_month))
        if clamped:
            self.notes.append(("clamped", f"{at()}: field {field}", year_month))
        return index


def _read_text(path: Path) -> str:
    """The whole file as UTF-8 text, less one leading byte-order mark; a byte
    that is not UTF-8 is a data error naming its line."""
    # not "utf-8-sig": its error offsets skip the mark, and the line count reads these bytes
    data = path.read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})") from exc


def _csv_rows(path: Path, header: list[str]) -> Iterator[tuple[int, list]]:
    """Each record of a CSV file that must start with `header`, with the line
    it starts on (blank lines skipped but counted) and its fields padded with
    None to the header's width; an unparsable or too-wide record is a data error."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    width = len(header)
    try:
        fields = next(reader, None)
        if fields != header:
            raise DataError(f"{path}: header must be {','.join(header)}, got {fields}")
        line = reader.line_num  # the last physical line read: a record starts on the next one
        for fields in reader:
            if fields:
                if len(fields) > width:
                    raise DataError(f"{path}:{line + 1}: {len(fields)} fields, the header has {width}")
                yield line + 1, fields + [None] * (width - len(fields))
            line = reader.line_num
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc


def _load_releases(path: Path, parse: _Parser) -> dict[ProductKey, ReleaseTimeline]:
    rows: dict[ProductKey, list[VersionRelease]] = {}
    seen: set[tuple[str, str, str]] = set()

    def at() -> str:
        return f"{path}:{line}"

    for line, (vendor, name, version, date) in _csv_rows(path, ["vendor", "product", "version", "release_date"]):
        vendor, name, version = vendor.strip(), (name or "").strip(), (version or "").strip()
        if not vendor or not name or not version or date is None:
            raise DataError(f"{at()}: vendor, product, version and release_date must be non-empty")
        release = (vendor, name, version)
        if release in seen:
            raise DataError(f"{at()}: duplicate release {vendor}/{name} {version}")
        seen.add(release)
        month = parse.month(date, at, "release_date")
        try:
            sort_key = parse.version_key(version)
        except ValueError as exc:  # a digit run too long for int()
            raise DataError(f"{at()}: field version: {exc}") from exc
        key = (vendor, name)
        rows.setdefault(key, []).append(VersionRelease(key, version, sort_key, month))
    return {key: ReleaseTimeline(tuple(rels)) for key, rels in rows.items()}


def _load_vulns(path: Path, parse: _Parser) -> dict[str, VulnRecord]:
    try:
        entries = json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise DataError(f"{path}: top-level value must be an array")
    vulns: dict[str, VulnRecord] = {}

    def at() -> str:
        return f"{path}: entry #{i} ({cve})"

    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"{path}: entry #{i}: expected an object")
        try:
            cve = entry["cve"]
            reserved_raw = entry["reserved"]
            published_raw = entry["published"]
            affected_raw = entry["affected"]
        except KeyError as exc:
            raise DataError(f"{path}: entry #{i}: missing field {exc.args[0]!r}") from exc
        if not isinstance(cve, str) or not cve.strip():
            raise DataError(f"{path}: entry #{i}: 'cve' must be a non-empty string, got {cve!r}")
        cve = cve.strip()
        if cve in vulns:
            raise DataError(f"{path}: entry #{i}: duplicate CVE id {cve}")
        reserved = parse.month(str(reserved_raw), at, "reserved")
        published = parse.month(str(published_raw), at, "published")
        if not isinstance(affected_raw, list):
            raise DataError(f"{at()}: 'affected' must be an array")
        affected = []
        for j, item in enumerate(affected_raw):
            if not isinstance(item, dict) or not item.keys() >= {"vendor", "product", "match"}:
                raise DataError(f"{at()}: affected[{j}] needs vendor, product and match")
            vendor, product, match = item["vendor"], item["product"], item["match"]
            if not isinstance(vendor, str) or not isinstance(product, str):
                raise DataError(f"{at()}: affected[{j}] vendor and product must be strings")
            vendor, product = vendor.strip(), product.strip()
            if not vendor or not product:
                raise DataError(f"{at()}: affected[{j}] vendor and product must be non-empty strings")
            if not isinstance(match, dict):
                raise DataError(f"{at()}: affected[{j}].match must be an object")
            try:
                constraint = VersionConstraint.from_mapping(match, parse.version_key)
            except ValueError as exc:
                raise DataError(f"{at()}: affected[{j}].match: {exc}") from exc
            affected.append(ProductConstraint(vendor, product, constraint))
        vulns[cve] = VulnRecord(cve, reserved, published, tuple(affected))
    return vulns


def _load_campaigns(path: Path, parse: _Parser, vulns: dict[str, VulnRecord]) -> tuple[CampaignRecord, ...]:
    merged: dict[tuple[str, int], tuple[set[str], set[AttackVector]]] = {}

    def at() -> str:
        return f"{path}:{line}"

    for line, (apt, date, cve_field, vector_field) in _csv_rows(path, ["apt", "date", "cves", "vectors"]):
        apt = apt.strip()
        if not apt or date is None:
            raise DataError(f"{at()}: apt and date must be non-empty")
        month = parse.month(date, at, "date")
        cves = {c.strip() for c in (cve_field or "").split("|") if c.strip()}
        unknown = cves.difference(vulns)  # looks up each campaign CVE, not each vulnerability
        if unknown:
            raise DataError(f"{at()}: campaign {apt} references unknown CVE {min(unknown)}")
        try:
            vectors = {_VECTORS[tag] for tag in map(str.strip, (vector_field or "").split("|")) if tag}
        except KeyError as exc:
            allowed = ", ".join(sorted(_VECTORS))
            raise DataError(f"{at()}: unknown attack vector {exc.args[0]!r}; allowed: {allowed}") from None
        if not cves and not vectors:
            raise DataError(f"{at()}: campaign {apt} has neither CVEs nor attack vectors")
        key = (apt, month)
        if key in merged:
            parse.notes.append(("merged", at(), f"{apt}/{parse.horizon.format(month)}"))
            old_cves, old_vectors = merged[key]
            old_cves |= cves
            old_vectors |= vectors
        else:
            merged[key] = (cves, vectors)
    campaigns = [
        CampaignRecord(apt, month, frozenset(cves), frozenset(vectors))
        for (apt, month), (cves, vectors) in merged.items()
    ]
    campaigns.sort(key=lambda c: (c.apt_name, c.start_month))
    return tuple(campaigns)


def load_catalog(release_path, vuln_path, campaign_path, horizon: Optional[Horizon] = None) -> Catalog:
    """Load and cross-link the three dataset files into a Catalog."""
    horizon = horizon or Horizon.from_strings()
    parse = _Parser(horizon)  # one per call: nothing parsed outlives the load
    timelines = _load_releases(Path(release_path), parse)
    vulns = _load_vulns(Path(vuln_path), parse)
    campaigns = _load_campaigns(Path(campaign_path), parse, vulns)
    return Catalog(horizon, timelines, vulns, campaigns, tuple(parse.notes))


# ---------------------------------------------------------------------------
# Validation


def validate_catalog(catalog: Catalog) -> list[Violation]:
    """The integrity rules a loaded catalog can still break; violations are
    data, not exceptions. Loading already rejects out-of-window months,
    reversed ranges and unknown campaign CVEs, and timelines sort themselves."""
    out: list[Violation] = []
    for key, timeline in catalog.timelines.items():
        first_version: dict[tuple, str] = {}
        for rel in timeline.releases:
            first = first_version.setdefault(rel.sort_key, rel.version)
            if first != rel.version:
                detail = f"normalizes identically to {first!r}"
                out.append(Violation(f"{key[0]}/{key[1]} {rel.version}", "duplicate-version-key", detail))
    for cve, vuln in catalog.vulns.items():
        if vuln.reserved_month > vuln.published_month:
            out.append(Violation(cve, "reserved-after-published", f"{vuln.reserved_month} > {vuln.published_month}"))
    return out


def catalog_diagnostics(catalog: Catalog) -> dict:
    """Non-fatal data-quality counters (e.g. constraints matching no release)."""
    dead_constraints = [
        {"cve": cve, "vendor": pc.vendor, "product": pc.product, "match": pc.constraint.to_mapping()}
        for cve, slices in sorted(catalog.slices.items()) for pc, lo, hi in slices
        if lo >= hi  # by_version[lo:hi] is empty: the constraint matches no release
    ]
    off_catalog = [
        {"cve": cve, "vendor": pc.vendor, "product": pc.product}
        for cve, vuln in sorted(catalog.vulns.items()) for pc in vuln.affected if pc.key not in catalog.timelines
    ]
    vector_only = sum(1 for c in catalog.campaigns if c.vector_only)
    return {
        "constraints_matching_no_release": dead_constraints,
        "constraints_for_products_without_timeline": off_catalog,
        "vector_only_campaigns": vector_only,
        "campaigns": len(catalog.campaigns),
        "products": len(catalog.timelines),
        "vulns": len(catalog.vulns),
    }
