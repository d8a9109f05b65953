"""Monthly index series: parsing, alignment, differencing and rebasing.

Everything upstream of trend fitting lives here. Index values are kept in
index points relative to the series' published base period (base = 100 by
convention); the difference between a headline index and one of its
components is measured in the same units.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np


class SeriesError(ValueError):
    """Invalid series content or an operation on incompatible series."""


class ParseError(SeriesError):
    """Malformed CSV input; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True, order=True)
class MonthStamp:
    """A calendar month of years 0..9999. Ordering is (year, month)."""

    year: int
    month: int

    def __post_init__(self):
        # years stop at 4 digits, so that every stamp reads back from its YYYY-MM text
        if not (0 <= self.year <= 9999 and 1 <= self.month <= 12):
            raise ValueError(
                f"no month {self.year}-{self.month}: year must be in 0..9999 and month in 1..12"
            )
        # what _ordinal reads; not a field, so equality, order, hash and repr ignore it
        object.__setattr__(self, "_ord", self.year * 12 + self.month - 1)

    def add_months(self, n: int) -> "MonthStamp":
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"month count must be an integer, got {n!r}")
        return _stamp(_ordinal(self) + n)

    @classmethod
    def parse(cls, token: str) -> "MonthStamp":
        """Parse a ``YYYY-MM`` token."""
        return _stamp(_parse_ordinal(token))

    def __str__(self) -> str:
        return _month_text(_ordinal(self))


def months_between(later: MonthStamp, earlier: MonthStamp) -> int:
    """Signed whole-month distance, positive when ``later`` is after ``earlier``."""
    return _ordinal(later) - _ordinal(earlier)


_ordinal = operator.attrgetter("_ord")  # a stamp's year * 12 + month - 1, kept at construction


_STAMPS: dict[int, MonthStamp] = {}  # by ordinal; an invalid ordinal raises and is not kept


def _stamp(ordinal) -> MonthStamp:
    stamp = _STAMPS.get(ordinal)
    if stamp is None:
        stamp = _STAMPS[int(ordinal)] = MonthStamp(int(ordinal) // 12, int(ordinal) % 12 + 1)
    return stamp


_TEXTS: dict[int, str] = {}  # by ordinal, as _STAMPS


def _month_text(ordinal) -> str:
    text = _TEXTS.get(ordinal)
    if text is None:
        year, month = divmod(int(ordinal), 12)
        text = _TEXTS[int(ordinal)] = f"{year:04d}-{month + 1:02d}"
    return text


def _parse_ordinal(token: str) -> int:
    """The ordinal of a ``YYYY-MM`` token; ValueError says what is wrong with it."""
    parts = token.strip().split("-")
    if len(parts) != 2 or len(parts[0]) != 4 or len(parts[1]) != 2 or not "".join(parts).isdigit():
        raise ValueError(f"malformed date token {token!r}, expected YYYY-MM")
    year, month = int(parts[0]), int(parts[1])
    if not 1 <= month <= 12:
        raise ValueError(f"malformed date token {token!r}: month out of range")
    return year * 12 + month - 1


Observation = tuple[MonthStamp, float]


class _ObservationMixin:
    """Storage, validation and read access shared by both series types.

    A series is two aligned arrays: ``_months``, strictly increasing month
    ordinals (year * 12 + month - 1), and ``_values``, finite float64 values.
    ``observations``, ``stamps`` and ``values`` are views built on demand.
    Subclasses name themselves for error messages with a ``_label`` property.

    Per-month paths work on the ordinals and value arrays. ``MonthStamp`` objects are
    built only at the API boundary, where a caller receives them, and each month's
    ``MonthStamp`` is built once per process (interned by ordinal).
    """

    def _store(self, observations) -> None:
        obs = tuple(observations)
        months = np.array([_ordinal(stamp) for stamp, _ in obs], dtype=np.int64)
        self._check(months, np.array([float(value) for _, value in obs], dtype=np.float64))

    def _check(self, months: np.ndarray, values: np.ndarray) -> None:
        """Keep the arrays if they hold a valid series; report the first bad month."""
        if not len(months):
            raise SeriesError(f"empty {self._label}")
        bad = ~np.isfinite(values)
        bad[1:] |= months[1:] <= months[:-1]
        if bad.any():
            i = int(bad.argmax())
            at = f"at {_stamp(months[i])} in {self._label}"
            if not math.isfinite(values[i]):
                raise SeriesError(f"non-finite value {float(values[i])!r} {at}")
            raise SeriesError(f"stamps not strictly increasing {at}")
        self._months, self._values = months, values

    @classmethod
    def _from_arrays(cls, months: np.ndarray, values: np.ndarray, **fields):
        """A series of these months and values, validated as the constructor does."""
        series = cls.__new__(cls)
        vars(series).update(fields)
        series._check(months, values)
        return series

    def _take(self, keep):
        """This series cut to the positions ``keep`` (a slice or an index array)."""
        part = object.__new__(type(self))
        vars(part).update(vars(self), _months=self._months[keep], _values=self._values[keep])
        return part

    def _window(self, start: MonthStamp, end: MonthStamp) -> slice:
        """The positions of the months in ``start..end``."""
        find = self._months.searchsorted
        return slice(int(find(_ordinal(start))), int(find(_ordinal(end) + 1)))

    def restrict(self, start: MonthStamp, end: MonthStamp):
        """The same series cut to the months in ``start..end``."""
        keep = self._window(start, end)
        if keep.stop <= keep.start:
            raise SeriesError(f"{self._label} has no data in {start}..{end}")
        return self._take(keep)

    @property
    def observations(self) -> tuple[Observation, ...]:
        return tuple(zip(self.stamps, self.values))

    @property
    def stamps(self) -> tuple[MonthStamp, ...]:
        return tuple(_stamp(m) for m in self._months.tolist())

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values.tolist())

    @property
    def start(self) -> MonthStamp:
        return _stamp(self._months[0])

    @property
    def end(self) -> MonthStamp:
        return _stamp(self._months[-1])

    def __len__(self) -> int:
        return len(self._months)

    def _lookup(self, months) -> tuple[np.ndarray, np.ndarray]:
        """Each of the ordinals ``months``: its position here, and whether it is observed
        (the position of an unobserved month means nothing)."""
        at = np.minimum(self._months.searchsorted(months), len(self._months) - 1)
        return at, self._months[at] == months

    def value_at(self, stamp: MonthStamp) -> float:
        found = self._values[self._window(stamp, stamp)]
        if not len(found):
            raise SeriesError(f"no observation for {stamp}")
        return float(found[0])

    def has(self, stamp: MonthStamp) -> bool:
        return len(self._months[self._window(stamp, stamp)]) > 0

    def missing_months(self) -> tuple[MonthStamp, ...]:
        """Months inside the span with no observation (gaps are legal at parse time)."""
        first = self._months[0]
        missing = np.ones(int(self._months[-1] - first) + 1, dtype=bool)
        missing[self._months - first] = False
        return tuple(_stamp(m) for m in (np.flatnonzero(missing) + first).tolist())

    def is_contiguous(self) -> bool:
        return int(self._months[-1] - self._months[0]) + 1 == len(self._months)


class MonthlySeries(_ObservationMixin):
    """One published monthly index series.

    Parameters
    ----------
    series_id : str
        Identifier of the published series.
    base_note : str
        Free-text note about the published base period (e.g. "1982-84=100").
    observations : tuple of (MonthStamp, float)
        Strictly increasing stamps, finite index-point values.
    """

    def __init__(self, series_id: str, base_note: str, observations: tuple[Observation, ...]):
        self.series_id = series_id
        self.base_note = base_note
        self._store(observations)

    @property
    def _label(self) -> str:
        return f"series {self.series_id!r}"


class DifferenceSeries(_ObservationMixin):
    """Aligned per-month difference between two index series (minuend - subtrahend)."""

    def __init__(self, minuend_id: str, subtrahend_id: str, observations: tuple[Observation, ...]):
        self.minuend_id = minuend_id
        self.subtrahend_id = subtrahend_id
        self._store(observations)

    @property
    def _label(self) -> str:
        return f"difference {self.minuend_id!r}-{self.subtrahend_id!r}"


def _read_csv(text: str, header: str, error: type[Exception]) -> list[tuple[int, list[str]]]:
    """The 1-based ``(line number, fields)`` of each non-blank line after ``header``, which
    must be the first non-blank line (else ``error`` names the line and the text found).
    CR and the whitespace around a line are ignored."""
    lines = [(n, line) for n, raw in enumerate(text.split("\n"), start=1) if (line := raw.strip())]
    line_no, found = lines[0] if lines else (1, "")
    if found != header:
        raise error(f"line {line_no}: expected header {header!r}, got {found!r}")
    return [(n, line.split(",")) for n, line in lines[1:]]


def _write_csv(header: str, rows) -> str:
    """``header`` and one comma-joined line per row, each ending in a newline. ``None`` is
    an empty field; other values are written with ``str``, a float's exact ``repr``."""
    lines = [header]
    lines += [",".join(["" if v is None else str(v) for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


# the plain text that parse_series_csv reads in bulk
_PLAIN_ROW = r"[0-9]{4}-(?:0[1-9]|1[0-2]),[-+0-9.eE]+"
_PLAIN_SERIES_CSV = re.compile(rf"date,value(?:\n{_PLAIN_ROW})+\n?")
# the 7 bytes of YYYY-MM to its ordinal: year * 12 + month - 1, less the ASCII '0's
_DATE_WEIGHTS = np.array([12000, 1200, 120, 12, 0, 10, 1], dtype=np.int64)
_DATE_OFFSET = ord("0") * int(_DATE_WEIGHTS.sum()) + 1


def parse_series_csv(text: str, series_id: str, base_note: str = "") -> MonthlySeries:
    """Parse ``date,value`` CSV content into a :class:`MonthlySeries`.

    The first non-blank line must be exactly ``date,value``; data rows are
    ``YYYY-MM,<decimal>`` in any order. LF and CRLF line endings are accepted.
    Errors report the offending 1-based line number.

    A plain text (the header, then ``YYYY-MM,<value>`` rows of ASCII digits, one LF
    each, the last LF optional) is read in bulk. Every other text, and a plain one that
    fails a check, is read line by line, and only that reader reports errors.
    """
    if _PLAIN_SERIES_CSV.fullmatch(text):
        fields = text[len("date,value\n") :].rstrip("\n").replace("\n", ",").split(",")
        dates = np.frombuffer("".join(fields[0::2]).encode(), dtype=np.uint8).reshape(-1, 7)
        months = dates @ _DATE_WEIGHTS - _DATE_OFFSET
        order = np.argsort(months)
        try:
            return MonthlySeries._from_arrays(
                months[order],
                np.array([float(v) for v in fields[1::2]])[order],
                series_id=series_id,
                base_note=base_note,
            )
        except ValueError:  # float() refused a value, or _check a non-finite or repeated one
            pass  # the line walker below names the line
    seen: dict[int, int] = {}
    values: list[float] = []
    for line_no, parts in _read_csv(text, "date,value", ParseError):
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line_no=line_no)
        try:
            month = _parse_ordinal(parts[0])
        except ValueError as exc:
            raise ParseError(str(exc), line_no=line_no) from None
        if month in seen:
            raise ParseError(
                f"duplicate month {_month_text(month)} (first seen on line {seen[month]})",
                line_no=line_no,
            )
        seen[month] = line_no
        try:
            value = float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric value {parts[1]!r}", line_no=line_no) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {parts[1]!r}", line_no=line_no)
        values.append(value)

    if not values:
        raise ParseError("empty series")
    months = np.fromiter(seen, dtype=np.int64, count=len(values))
    order = np.argsort(months)
    return MonthlySeries._from_arrays(
        months[order], np.array(values)[order], series_id=series_id, base_note=base_note
    )


def series_to_csv(series: _ObservationMixin) -> str:
    """Render any stamped series back to the ``date,value`` CSV format."""
    # the rows _write_csv would write: "%r" of a float is its str
    months = map(_month_text, series._months.tolist())
    rows = map("%s,%r".__mod__, zip(months, series._values.tolist()))
    return "\n".join(["date,value", *rows, ""])


def align(a: MonthlySeries, b: MonthlySeries) -> tuple[MonthlySeries, MonthlySeries]:
    """Restrict both series to the exact intersection of their months."""
    common, keep_a, keep_b = np.intersect1d(
        a._months, b._months, assume_unique=True, return_indices=True
    )
    if not len(common):
        raise SeriesError(
            f"no overlapping months between {a.series_id!r} and {b.series_id!r}"
        )
    return a._take(keep_a), b._take(keep_b)


def difference(headline: MonthlySeries, component: MonthlySeries) -> DifferenceSeries:
    """Per-month ``headline - component`` over the aligned intersection."""
    ha, ca = align(headline, component)
    ids = {"minuend_id": headline.series_id, "subtrahend_id": component.series_id}
    return DifferenceSeries._from_arrays(ha._months, ha._values - ca._values, **ids)


def rebase(series: MonthlySeries, anchor: MonthStamp, anchor_value: float) -> MonthlySeries:
    """Scale the whole series so its value at ``anchor`` equals ``anchor_value``.

    Rescaling preserves all pairwise ratios; only the start level changes.
    """
    if not series.has(anchor):
        raise SeriesError(f"anchor month {anchor} absent from {series.series_id!r}")
    at_anchor = series.value_at(anchor)
    if at_anchor == 0.0:
        raise SeriesError(f"cannot rebase {series.series_id!r}: zero value at {anchor}")
    values = series._values * (anchor_value / at_anchor)
    values[series._window(anchor, anchor)] = anchor_value
    note = f"rebased to {anchor_value!r} at {anchor}"
    if series.base_note:
        note = f"{series.base_note}; {note}"
    return MonthlySeries._from_arrays(
        series._months, values, series_id=series.series_id, base_note=note
    )


__all__ = [
    "MonthStamp",
    "MonthlySeries",
    "DifferenceSeries",
    "SeriesError",
    "ParseError",
    "months_between",
    "parse_series_csv",
    "series_to_csv",
    "align",
    "difference",
    "rebase",
]
