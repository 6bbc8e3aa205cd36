"""Month-index arithmetic over a fixed analysis horizon.

All dates inside the simulator are plain integers: the number of months
elapsed since the configured epoch (index 0). Calendar strings only appear
at the I/O boundary. The package's error and record base types live here too.
"""

from __future__ import annotations

import re
from functools import cached_property

_DATE_RE = re.compile(r"([0-9]{4})-([0-9]{2})(?:-([0-9]{2}))?")
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)  # not calendar.monthrange: it imports datetime and locale

DEFAULT_EPOCH = "2008-01"
DEFAULT_HORIZON_END = "2020-01"


class DataError(Exception):
    """A problem in input data; every data error the library raises is this type."""


class Frozen:
    """Base of records whose fields are set once, when made (a cached property fills
    itself once); records of one type are equal when their `_key()` is, by default identity."""

    __slots__ = ()

    def _key(self):
        return id(self)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._key()!r}"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")


def split_date(text: str) -> tuple[int, int]:
    """Split ASCII YYYY-MM or YYYY-MM-DD into (year, month); the day must
    exist in its month and is then dropped."""
    m = _DATE_RE.fullmatch(text.strip())
    if not m:
        raise DataError(f"expected YYYY-MM date, got {text!r}")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise DataError(f"month out of range in {text!r}")
    leap_day = month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    if m.group(3) and not 1 <= int(m.group(3)) <= _MONTH_DAYS[month - 1] + leap_day:
        raise DataError(f"day out of range in {text!r}")
    return year, month


class Horizon(Frozen):
    """Analysis window [epoch, end], both inclusive, month granularity."""

    def __init__(self, epoch_year: int, epoch_month: int, end_index: int):
        vars(self).update(epoch_year=epoch_year, epoch_month=epoch_month, end_index=end_index)

    def _key(self) -> tuple[int, int, int]:
        return self.epoch_year, self.epoch_month, self.end_index

    @classmethod
    def from_strings(cls, epoch: str = DEFAULT_EPOCH, end: str = DEFAULT_HORIZON_END) -> "Horizon":
        ey, em = split_date(epoch)
        ny, nm = split_date(end)
        end_index = 12 * (ny - ey) + (nm - em)
        if end_index <= 0:
            raise DataError(f"horizon end {end!r} must be after epoch {epoch!r}")
        return cls(ey, em, end_index)

    @property
    def n_months(self) -> int:
        return self.end_index + 1

    def parse_clamped(self, text: str) -> tuple[int, bool]:
        """Parse a YYYY-MM (day suffix tolerated and ignored) into an index;
        pre-epoch dates clamp to index 0.

        Returns (index, clamped). Dates past the horizon still raise: the
        window end is a hard bound, while "before the epoch" just means
        "already available when the analysis starts".
        """
        year, month = split_date(text)
        index = 12 * (year - self.epoch_year) + (month - self.epoch_month)
        if index > self.end_index:
            raise DataError(f"{text!r} is after the horizon end {self.format(self.end_index)}")
        if index < 0:
            return 0, True
        return index, False

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """format(m) for every month of the window, computed once."""
        return tuple(self.format(m) for m in range(self.n_months))

    def format(self, index: int) -> str:
        if not 0 <= index <= self.end_index:
            raise ValueError(f"month index {index} outside [0, {self.end_index}]")
        total = (self.epoch_year * 12 + self.epoch_month - 1) + index
        return f"{total // 12:04d}-{total % 12 + 1:02d}"
