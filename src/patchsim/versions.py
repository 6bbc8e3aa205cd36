"""Version ordering and NVD-style version-range constraints.

Version strings are normalized into tuples of segments. Numeric runs compare
numerically, alphabetic runs lexically, and a shorter key sorts before any
extension of it ("9.2" < "9.2.1"). One rule holds for every vendor: a lone
"u" between two numbers is dropped, so Oracle's update notation "6u13" reads
as "6.13".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

# Segment encoding: numeric runs become (0, int), alphabetic runs (1, str).
# Plain tuple comparison then yields a total order with numbers sorting
# before letters, which is what mixed tags like "9.2" vs "9.2b" need.
_NUM = 0
_ALPHA = 1

Segment = tuple[int, object]


def _tokenize(raw: str) -> list[Segment]:
    segments: list[Segment] = []
    run = ""
    run_digit = False
    for ch in raw.strip().lower():
        if ch in ".-_+ ":
            if run:
                segments.append((_NUM, int(run)) if run_digit else (_ALPHA, run))
                run = ""
            continue
        is_digit = ch.isdecimal()  # int() reads decimal digits only: "²" is a letter
        if run and is_digit != run_digit:
            segments.append((_NUM, int(run)) if run_digit else (_ALPHA, run))
            run = ""
        run += ch
        run_digit = is_digit
    if run:
        segments.append((_NUM, int(run)) if run_digit else (_ALPHA, run))
    return segments


def version_key(raw: str) -> tuple[Segment, ...]:
    """Normalize a raw version string into a comparable key."""
    segments = _tokenize(raw)
    # "6u13" means major 6, update 13: drop a lone "u" wedged between numbers
    return tuple(
        seg
        for i, seg in enumerate(segments)
        if not (
            seg == (_ALPHA, "u")
            and 0 < i < len(segments) - 1
            and segments[i - 1][0] == _NUM
            and segments[i + 1][0] == _NUM
        )
    )


@dataclass(frozen=True)
class Bound:
    """One side of a constraint, tokenized once when made: a version that
    cannot be tokenized (a digit run too long for int()) fails here, at load."""

    version: str
    inclusive: bool
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", version_key(self.version))


@dataclass(frozen=True)
class VersionConstraint:
    """Either a single exact version or a (possibly half-open) range.

    Field semantics mirror NVD CPE match objects: startIncluding/startExcluding
    and endIncluding/endExcluding. A "*" bound means unbounded on that side.
    """

    kind: str  # "exact" | "range"
    start: Optional[Bound] = None
    end: Optional[Bound] = None
    raw: str = field(default="", compare=False)  # original match text, provenance only

    def __post_init__(self):
        if self.kind not in ("exact", "range"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "exact" and (self.start is None or self.end is None):
            raise ValueError("exact constraint needs a version literal")

    @classmethod
    def from_mapping(cls, obj: dict) -> "VersionConstraint":
        """Parse a constraint object such as {"endIncluding": "9.2"}."""
        raw = json.dumps(obj, sort_keys=True)
        not_text = sorted(key for key, value in obj.items() if not isinstance(value, str))
        if not_text:
            raise ValueError(f"constraint fields {not_text} must be version strings in {raw}")
        if "exact" in obj:
            extras = set(obj) - {"exact"}
            if extras:
                raise ValueError(f"exact constraint mixed with {sorted(extras)} in {raw}")
            b = Bound(obj["exact"], True)
            return cls("exact", b, b, raw=raw)
        known = {"startIncluding", "startExcluding", "endIncluding", "endExcluding"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown constraint fields {sorted(unknown)} in {raw}")
        if "startIncluding" in obj and "startExcluding" in obj:
            raise ValueError(f"both start bounds present in {raw}")
        if "endIncluding" in obj and "endExcluding" in obj:
            raise ValueError(f"both end bounds present in {raw}")
        start = end = None
        if "startIncluding" in obj:
            start = Bound(obj["startIncluding"], True)
        elif "startExcluding" in obj:
            start = Bound(obj["startExcluding"], False)
        if "endIncluding" in obj:
            end = Bound(obj["endIncluding"], True)
        elif "endExcluding" in obj:
            end = Bound(obj["endExcluding"], False)
        # "*" means unbounded on that side
        if start is not None and start.version == "*":
            start = None
        if end is not None and end.version == "*":
            end = None
        if start is not None and end is not None and start.key > end.key:
            raise ValueError(f"range bounds reversed in {raw}")
        return cls("range", start, end, raw=raw)

    def to_mapping(self) -> dict:
        if self.kind == "exact":
            return {"exact": self.start.version}
        obj: dict = {}
        if self.start is not None:
            obj["startIncluding" if self.start.inclusive else "startExcluding"] = self.start.version
        if self.end is not None:
            obj["endIncluding" if self.end.inclusive else "endExcluding"] = self.end.version
        return obj

    def position(self, key: tuple) -> int:
        """Where a version key lies against the range: -1 below it, 0 inside
        it, 1 strictly above it (never without an end bound). An exact
        constraint is a range whose two inclusive bounds are equal.

        The end bound is tested first, so the end of an empty range such as
        {"startExcluding": "1.0", "endExcluding": "1.0"} reads as above it.
        """
        end, start = self.end, self.start
        if end is not None and (key > end.key or (key == end.key and not end.inclusive)):
            return 1
        if start is not None and (key < start.key or (key == start.key and not start.inclusive)):
            return -1
        return 0


def affected_releases(constraint: VersionConstraint, timeline) -> frozenset:
    """All releases in the timeline whose cached sort_key the constraint's
    `position` puts inside its range."""
    position = constraint.position
    return frozenset(rel for rel in timeline.releases if position(rel.sort_key) == 0)
