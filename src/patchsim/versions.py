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
    runs = _RUN.findall(raw.strip().lower())
    key = [(_NUM, int(run)) if run.isdecimal() else (_ALPHA, run) for run in runs]
    # "6u13" means major 6, update 13: drop a lone "u" wedged between numbers
    for i in range(len(runs) - 2, 0, -1):  # backwards, so deleting keeps the lower indices
        if runs[i] == "u" and runs[i - 1].isdecimal() and runs[i + 1].isdecimal():
            del key[i]
    return tuple(key)


class Bound(NamedTuple):
    """One side of a constraint and its version key, read when the constraint is
    made: a digit run too long for int() fails there, at load."""

    version: str
    inclusive: bool
    key: tuple


# a range constraint's bound fields: (0 for the start or 1 for the end, inclusive)
_RANGE_FIELDS = {
    "startIncluding": (0, True), "startExcluding": (0, False), "endIncluding": (1, True), "endExcluding": (1, False),
}


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

        bounds: list = [None, None]  # the start and the end field, as (version, inclusive)
        not_text, unknown = [], []
        for name, value in obj.items():
            field = _RANGE_FIELDS.get(name)
            if not isinstance(value, str):
                not_text.append(name)
            elif field is not None:
                bounds[field[0]] = value, field[1]
            elif name != "exact":
                unknown.append(name)
        if not_text:
            raise bad(f"constraint fields {sorted(not_text)} must be version strings")
        if "exact" in obj:
            if len(obj) > 1:
                raise bad(f"exact constraint mixed with {sorted(set(obj) - {'exact'})}")
            b = Bound(obj["exact"], True, key_of(obj["exact"]))
            return cls("exact", b, b)
        if unknown:
            raise bad(f"unknown constraint fields {sorted(unknown)}")
        for side in ("start", "end"):
            if f"{side}Including" in obj and f"{side}Excluding" in obj:
                raise bad(f"both {side} bounds present")
        # "*" means unbounded on that side
        start, end = [None if b is None or b[0] == "*" else Bound(b[0], b[1], key_of(b[0])) for b in bounds]
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
