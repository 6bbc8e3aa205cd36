"""Version ordering and NVD-style version-range constraints.

Version strings are normalized into tuples of segments. Numeric runs compare
numerically, alphabetic runs lexically, and a shorter key sorts before any
extension of it ("9.2" < "9.2.1"). One rule holds for every vendor: a lone
"u" between two numbers is dropped, so Oracle's update notation "6u13" reads
as "6.13".
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Optional, Sequence

# Segment encoding: numeric runs become (0, int), alphabetic runs (1, str).
# Plain tuple comparison then yields a total order with numbers sorting
# before letters, which is what mixed tags like "9.2" vs "9.2b" need.
_NUM = 0
_ALPHA = 1

Segment = tuple[int, object]

# a run of decimal digits, or a run of anything else up to a separator ".-_+ ";
# \d is what str.isdecimal() and int() accept, so "²" reads as a letter
_RUN = re.compile(r"\d+|[^\d.\-_+ ]+")


def version_key(raw: str) -> tuple[Segment, ...]:
    """Normalize a raw version string into a comparable key."""
    segments = [(_NUM, int(run)) if run.isdecimal() else (_ALPHA, run) for run in _RUN.findall(raw.strip().lower())]
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


class Bound(NamedTuple):
    """One side of a constraint and its version key, read when the constraint is
    made: a digit run too long for int() fails there, at load."""

    version: str
    inclusive: bool
    key: tuple


class VersionConstraint(NamedTuple):
    """Either a single exact version or a (possibly half-open) range.

    Field semantics mirror NVD CPE match objects: startIncluding/startExcluding
    and endIncluding/endExcluding. A "*" bound means unbounded on that side.
    """

    kind: str  # "exact" | "range"
    start: Optional[Bound] = None
    end: Optional[Bound] = None

    @classmethod
    def from_mapping(cls, obj: dict, key_of: Callable[[str], tuple] = version_key) -> "VersionConstraint":
        """Parse a constraint object such as {"endIncluding": "9.2"}, reading
        each bound's version with `key_of`; a malformed one is a ValueError that
        quotes it as sorted JSON."""

        def bad(problem: str) -> ValueError:
            return ValueError(f"{problem} in {json.dumps(obj, sort_keys=True)}")

        not_text = sorted(key for key, value in obj.items() if not isinstance(value, str))
        if not_text:
            raise bad(f"constraint fields {not_text} must be version strings")
        if "exact" in obj:
            extras = set(obj) - {"exact"}
            if extras:
                raise bad(f"exact constraint mixed with {sorted(extras)}")
            b = Bound(obj["exact"], True, key_of(obj["exact"]))
            return cls("exact", b, b)
        known = {"startIncluding", "startExcluding", "endIncluding", "endExcluding"}
        unknown = set(obj) - known
        if unknown:
            raise bad(f"unknown constraint fields {sorted(unknown)}")
        for side in ("start", "end"):
            if f"{side}Including" in obj and f"{side}Excluding" in obj:
                raise bad(f"both {side} bounds present")

        def bound(side: str) -> Optional[Bound]:
            for kind, inclusive in (("Including", True), ("Excluding", False)):
                if obj.get(side + kind, "*") != "*":  # "*" means unbounded on that side
                    return Bound(obj[side + kind], inclusive, key_of(obj[side + kind]))
            return None

        start, end = bound("start"), bound("end")
        if start is not None and end is not None and start.key > end.key:
            raise bad("range bounds reversed")
        return cls("range", start, end)

    def to_mapping(self) -> dict:
        if self.kind == "exact":
            return {"exact": self.start.version}
        obj: dict = {}
        if self.start is not None:
            obj["startIncluding" if self.start.inclusive else "startExcluding"] = self.start.version
        if self.end is not None:
            obj["endIncluding" if self.end.inclusive else "endExcluding"] = self.end.version
        return obj

    def span(self, keys: Sequence[tuple]) -> tuple[int, int]:
        """(lo, hi) over ascending version keys: keys[lo:hi] are inside the
        range and keys[hi:] strictly above it (none without an end bound). An
        exact constraint is a range whose two inclusive bounds are equal.

        hi is the end bound's own bisect, so for an empty range such as
        {"startExcluding": "1.0", "endExcluding": "1.0"} it may lie below lo:
        the slice is then empty, and the end of the range is above it.
        """
        start, end = self.start, self.end
        lo = 0 if start is None else (bisect_left if start.inclusive else bisect_right)(keys, start.key)
        hi = len(keys) if end is None else (bisect_right if end.inclusive else bisect_left)(keys, end.key)
        return lo, hi


def affected_releases(constraint: VersionConstraint, timeline) -> frozenset:
    """All releases in the timeline whose sort_key lies inside the
    constraint's range: one slice of the timeline's version order."""
    lo, hi = constraint.span(timeline.keys)
    return frozenset(timeline.by_version[lo:hi])
