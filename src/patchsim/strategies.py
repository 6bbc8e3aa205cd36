"""Update-strategy simulation: each product's start release and its transitions.

Four strategies are modeled:

  immediate  adopt each month's newest release as soon as it appears
  planned    immediate's transitions, each deployed a fixed delay later
  reactive   update only when a published CVE hits the installed version
  informed   like reactive, but triggered at CVE reservation time

Every transition installs a strictly newer release, so each product's
installed version only goes up: a deployment is, per product, the positions
in `by_version` it installs, ascending, and the months it installs them.
build_matrix produces an optimistic deployment (within a transition month
only the incoming version is installed). The pessimistic scenario
additionally keeps the outgoing version installed during its transition
month, modeling an attacker who strikes before the update lands.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from itertools import islice
from typing import Container, Optional

from .catalog import Catalog, ProductKey, ReleaseTimeline, Transition, VersionRelease
from .months import Frozen, Horizon

Steps = dict[ProductKey, tuple[tuple[int, ...], tuple[int, ...]]]


class Scenario(Enum):
    UPDATE_FIRST = "update-first"
    APT_FIRST = "apt-first"


REACTIVE_PICKS = ("first", "latest")  # which escaping release a reactive update installs; the first is the default


class StrategyKind(Enum):
    IMMEDIATE = "immediate"
    PLANNED = "planned"
    REACTIVE = "reactive"
    INFORMED_REACTIVE = "informed"


class StrategyConfig(Frozen):
    """A strategy's kind, delay and reactive pick, checked when made and equal when all three are."""

    def __init__(self, kind: StrategyKind, delay_months: int = 0, reactive_pick: str = REACTIVE_PICKS[0]):
        if delay_months < 0:
            raise ValueError("delay_months must be >= 0")
        if kind is StrategyKind.IMMEDIATE and delay_months != 0:
            raise ValueError("immediate strategy has no delay")
        if reactive_pick not in REACTIVE_PICKS:
            raise ValueError(f"reactive_pick must be {' or '.join(map(repr, REACTIVE_PICKS))}, got {reactive_pick!r}")
        if kind in (StrategyKind.IMMEDIATE, StrategyKind.PLANNED):
            reactive_pick = REACTIVE_PICKS[0]  # unused here: equal configs build once
        vars(self).update(kind=kind, delay_months=delay_months, reactive_pick=reactive_pick)

    def _key(self) -> tuple[StrategyKind, int, str]:
        return self.kind, self.delay_months, self.reactive_pick

    @property
    def label(self) -> str:
        if self.kind is StrategyKind.IMMEDIATE:
            return "immediate"
        return f"{self.kind.value}:{self.delay_months}"

    @classmethod
    def parse(cls, token: str, reactive_pick: str = REACTIVE_PICKS[0]) -> "StrategyConfig":
        """Parse a 'name[:delay]' token, e.g. 'planned:3'."""
        name, colon, delay = token.strip().partition(":")
        try:
            kind = StrategyKind(name)
        except ValueError:
            allowed = ", ".join(sorted(k.value for k in StrategyKind))
            raise ValueError(f"unknown strategy {name!r}; allowed: {allowed}") from None
        if kind is StrategyKind.IMMEDIATE:
            if colon:  # "immediate:" too: an empty delay is still a delay
                raise ValueError("immediate takes no delay")
            return cls(kind, reactive_pick=reactive_pick)
        if not delay:
            raise ValueError(f"strategy {name!r} needs a delay, e.g. {name}:1")
        digits = delay.removeprefix("-")  # a negative delay is rejected when the config is made
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"strategy {name!r} delay must be a whole number of months, got {delay!r}")
        return cls(kind, int(delay), reactive_pick)


class DeploymentMatrix(Frozen):
    """One strategy's start release per product and its transitions (products in
    key order, months increasing within a product) under one scenario, over the
    catalog's horizon. `steps` holds the same deployment per product as
    (positions, months): the `Catalog.position` of the start release and of each
    incoming release, ascending, and 0 followed by each transition month, so
    the release at positions[i] is installed from months[i] until months[i + 1],
    or to the horizon end after the last step."""

    def __init__(self, scenario: Scenario, config: StrategyConfig, start: dict[ProductKey, VersionRelease],
                 transitions: tuple[Transition, ...], steps: Steps, horizon: Horizon):
        vars(self).update(scenario=scenario, config=config, start=start, transitions=transitions, steps=steps,
                          horizon=horizon)


def _reactive(catalog: Catalog, config: StrategyConfig) -> tuple[list[Transition], Steps]:
    """Update only in response to CVEs hitting the installed version.

    The decision clock starts at the CVE trigger (publication, or reservation
    when informed) or, if later, at the month the first escaping release
    becomes available; the deployment lands `delay` months after the decision
    and installs a release clear of every outstanding CVE. A product changes
    version at most once a month: when already-triggered CVEs hit the release
    just installed, the next update lands the following month at the earliest.

    The CVEs outstanding at month m are a prefix of those hitting the
    installed release in trigger order (`Catalog.trigger_order`), so each
    product visits only its trigger and landing months. The first escape from
    each prefix by the horizon end is found once per clock: it is the first
    escape at a landing month if it is out by then, and otherwise there is none.
    Returns the transitions and their steps.
    """
    delay, pick = config.delay_months, config.reactive_pick
    end, hitting, position = catalog.horizon.end_index, catalog.hitting, catalog.position
    order = catalog.trigger_order[config.kind is StrategyKind.INFORMED_REACTIVE]

    transitions: list[Transition] = []
    steps: Steps = {}
    for key in sorted(catalog.timelines):
        current, m, last = catalog.start[key], 0, -1  # last: the month of the last transition
        positions, landed = [position[current]], [0]
        months, cves, escapes = order[current]
        while cves:
            m = max(m, months[0])
            escape = escapes[bisect_right(months, m)]  # clear of the CVEs outstanding at m
            if escape is None:  # the outstanding CVEs only grow, so no later escape exists
                break
            land = max(max(m, escape.release_month) + delay, last + 1)  # at most one change a month
            if land > end:  # the deployment would land outside the window
                break
            due = bisect_right(months, land)  # cves[:due] are outstanding at land
            if pick == "first":
                rel = escapes[due]  # the first escape at land, if it is out by then
            else:
                rel = first_nonvulnerable(catalog.timelines[key], _Blocked(cves[:due], hitting), land, current, pick)
            # otherwise CVEs triggered since m blocked every candidate out by land: reschedule
            if rel is not None and rel.release_month <= land:
                transitions.append(Transition(land, current, rel))
                positions.append(position[rel])
                landed.append(land)
                current, last = rel, land
                months, cves, escapes = order[current]
            m = land
        steps[key] = tuple(positions), tuple(landed)
    return transitions, steps


class TriggerOrder(dict):
    """One clock's index for the reactive builders: release -> (months, cves,
    escapes). cves are the CVEs hitting the release sorted by (trigger month,
    id) and months their trigger months, so cves[:bisect_right(months, m)] have
    triggered by month m; escapes[due] is the first release newer than it that
    none of cves[:due] hits, out by the horizon end, or None. An entry is filled
    on its first lookup and each escape on its first need. Neither depends on a
    build's delay, pick or landing month, so every build on the clock shares them."""

    def __init__(self, catalog: Catalog, informed: bool):
        super().__init__()
        self.hitting, self.timelines, self.end = catalog.hitting, catalog.timelines, catalog.horizon.end_index
        self.month = {cve: v.reserved_month if informed else v.published_month for cve, v in catalog.vulns.items()}

    def __missing__(self, rel: VersionRelease) -> tuple[tuple[int, ...], tuple[str, ...], "_Escapes"]:
        cves = tuple(sorted(self.hitting[rel], key=self.month.__getitem__))  # hitting is in id order
        escapes = _Escapes(self.timelines[rel.product], self.hitting, self.end, rel, cves)
        entry = self[rel] = tuple(map(self.month.__getitem__, cves)), cves, escapes
        return entry


class _Escapes(dict):
    """due -> the first release newer than `installed` that none of cves[:due] hits, out by
    month `end`. Like its TriggerOrder, it holds no reference back to the catalog, so a
    catalog is freed as soon as the last reference to it goes, without a cycle collection."""

    __slots__ = ("timeline", "hitting", "end", "installed", "cves")

    def __init__(self, timeline: ReleaseTimeline, hitting: dict[VersionRelease, tuple[str, ...]], end: int,
                 installed: VersionRelease, cves: tuple[str, ...]):
        super().__init__()
        self.timeline, self.hitting, self.end, self.installed, self.cves = timeline, hitting, end, installed, cves

    def __missing__(self, due: int) -> Optional[VersionRelease]:
        blocked = _Blocked(self.cves[:due], self.hitting)
        escape = self[due] = first_nonvulnerable(self.timeline, blocked, self.end, self.installed)
        return escape


class _Blocked:
    """Releases hit by an outstanding CVE: those whose `Catalog.hitting` entry names one."""

    def __init__(self, outstanding: tuple[str, ...], hitting: dict[VersionRelease, tuple[str, ...]]):
        self.outstanding, self.hitting = frozenset(outstanding), hitting

    def __contains__(self, rel: VersionRelease) -> bool:
        return not self.outstanding.isdisjoint(self.hitting[rel])


def first_nonvulnerable(
    timeline: ReleaseTimeline,
    blocked: Container[VersionRelease],
    at: int,
    installed: VersionRelease,
    pick: str = "first",
) -> Optional[VersionRelease]:
    """Release available at `at`, newer than `installed` and not in `blocked`.

    pick="first" takes the earliest-released qualifying version (minimal
    churn); pick="latest" takes the newest qualifying version instead. The
    timeline is sorted by (release_month, sort_key), so the scan stops at the
    first release past `at`, and the first qualifying release is the earliest.
    It starts at the first release newer than every one before it and newer
    than `installed`: no earlier release is newer than `installed`.
    """
    best = None
    for rel in islice(timeline.releases, bisect_right(timeline.running_max, installed.sort_key), None):
        if rel.release_month > at:
            break
        if rel.sort_key <= installed.sort_key or rel in blocked:
            continue
        if pick == "first":
            return rel
        if best is None or (rel.sort_key, rel.release_month) > (best.sort_key, best.release_month):
            best = rel
    return best


def build_matrix(catalog: Catalog, config: StrategyConfig) -> DeploymentMatrix:
    """The update-first deployment of one strategy: each product's start
    release and the transitions the strategy makes from it."""
    if config.kind in (StrategyKind.IMMEDIATE, StrategyKind.PLANNED):
        delay, last = config.delay_months, catalog.horizon.end_index - config.delay_months
        transitions = [Transition(t.month + delay, t.outgoing, t.incoming) for t in catalog.upgrades if t.month <= last]
        steps = {}
        for key, (positions, months) in catalog.upgrade_steps.items():
            n = bisect_right(months, last, 1)  # the start and the upgrades that land by the horizon end
            steps[key] = positions[:n], (0, *[month + delay for month in months[1:n]])
    else:
        transitions, steps = _reactive(catalog, config)
    return DeploymentMatrix(Scenario.UPDATE_FIRST, config, catalog.start, tuple(transitions), steps, catalog.horizon)


def apply_apt_first(matrix: DeploymentMatrix) -> DeploymentMatrix:
    """Keep the outgoing version installed during each transition month.
    This only sets the scenario tag that scoring reads, and the copy shares
    the matrix's steps, so applying it twice gives the same deployment."""
    return DeploymentMatrix(Scenario.APT_FIRST, matrix.config, matrix.start, matrix.transitions, matrix.steps,
                            matrix.horizon)


def count_updates(matrix: DeploymentMatrix) -> tuple[int, int]:
    """(raw, net) update counts: installations including each product's start
    release, and the transitions alone. Every transition installs a strictly
    newer release, so no release is counted twice; a start release replaced in
    month 0 still counts, in both scenarios."""
    net = len(matrix.transitions)
    return net + len(matrix.start), net
