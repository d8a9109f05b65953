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
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, islice


class SeriesError(ValueError):
    """Invalid series content or an operation on incompatible series."""


class ParseError(SeriesError):
    """Malformed CSV input; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class _Record:
    """Base of the frozen records: the fields are the names a subclass annotates, in order.

    Two records are equal when they are of the same class and their fields are equal;
    the hash, ``__match_args__`` and the ``repr`` text follow the fields as a frozen
    dataclass's do. Assigning or deleting an attribute raises AttributeError, so a
    subclass's ``__init__`` stores its fields with one ``vars(self).update(...)``.
    Instances keep their ``__dict__``, which ``copy`` and ``pickle`` read and restore.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__annotations__)

    def _astuple(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._astuple())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MonthStamp(_Record):
    """A calendar month of years 0..9999. Ordering is (year, month)."""

    year: int
    month: int

    def __init__(self, year, month):
        # years stop at 4 digits, so that every stamp reads back from its YYYY-MM text
        if not (0 <= year <= 9999 and 1 <= month <= 12):
            raise ValueError(
                f"no month {year}-{month}: year must be in 0..9999 and month in 1..12"
            )
        # _ord, what _ordinal reads, is no field; equality, order and hash compare it,
        # as they would (year, month)
        vars(self).update(year=year, month=month, _ord=year * 12 + month - 1)

    def __eq__(self, other):
        return self._ord == other._ord if other.__class__ is self.__class__ else NotImplemented

    def __lt__(self, other):
        return self._ord < other._ord if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return self._ord <= other._ord if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other):
        return self._ord > other._ord if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other):
        return self._ord >= other._ord if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._ord)

    def add_months(self, n: int) -> "MonthStamp":
        """The stamp ``n`` months on; ``n`` is an integer (NumPy integers too, ``bool`` not)."""
        try:
            if isinstance(n, bool):
                raise TypeError
            return _stamp(_ordinal(self) + operator.index(n))
        except TypeError:
            raise TypeError(f"month count must be an integer, got {n!r}") from None

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

    A series is two aligned standard-library arrays: ``_months``, an ``array('q')`` of
    strictly increasing month ordinals (year * 12 + month - 1), and ``_values``, an
    ``array('d')`` of finite float64 values. Neither is resized once stored, so numpy code
    reads them through zero-copy views (``np.asarray(series._values)``).
    ``observations``, ``stamps`` and ``values`` are tuples built on demand.
    Subclasses name themselves for error messages with a ``_label`` property.

    Per-month paths work on the ordinals and value arrays. ``MonthStamp`` objects are
    built only at the API boundary, where a caller receives them, and each month's
    ``MonthStamp`` is built once per process (interned by ordinal).
    """

    def _store(self, observations) -> None:
        obs = tuple(observations)
        months = array("q", [_ordinal(stamp) for stamp, _ in obs])
        self._check(months, array("d", [float(value) for _, value in obs]))

    def _check(self, months: array, values: array) -> None:
        """Keep the arrays if they hold a valid series; report the first bad month."""
        if not len(months):
            raise SeriesError(f"empty {self._label}")
        increasing = map(operator.lt, months, islice(months, 1, None))
        if not (all(map(math.isfinite, values)) and all(increasing)):
            for i, (month, value) in enumerate(zip(months, values)):
                at = f"at {_stamp(month)} in {self._label}"
                if not math.isfinite(value):
                    raise SeriesError(f"non-finite value {value!r} {at}")
                if i and month <= months[i - 1]:
                    raise SeriesError(f"stamps not strictly increasing {at}")
        self._months, self._values = months, values

    @classmethod
    def _from_arrays(cls, months: array, values: array, **fields):
        """A series of these months and values, validated as the constructor does."""
        series = cls.__new__(cls)
        vars(series).update(fields)
        series._check(months, values)
        return series

    def _with(self, months: array, values: array):
        """A series like this one, holding ``months`` and ``values`` unchecked."""
        part = object.__new__(type(self))
        vars(part).update(vars(self), _months=months, _values=values)
        return part

    def _take(self, keep: slice):
        """This series cut to the positions ``keep``."""
        return self._with(self._months[keep], self._values[keep])

    def _window(self, start: MonthStamp, end: MonthStamp) -> slice:
        """The positions of the months in ``start..end``."""
        months = self._months
        return slice(bisect_left(months, _ordinal(start)), bisect_left(months, _ordinal(end) + 1))

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
        return tuple(map(_stamp, self._months))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values)

    @property
    def start(self) -> MonthStamp:
        return _stamp(self._months[0])

    @property
    def end(self) -> MonthStamp:
        return _stamp(self._months[-1])

    def __len__(self) -> int:
        return len(self._months)

    def _lookup(self, months: list[int]) -> list[int | None]:
        """The position here of each of the ordinals ``months`` (at least one); None where
        it is not observed."""
        own = self._months
        lo, hi = bisect_left(own, min(months)), bisect_right(own, max(months))
        return list(map(dict(zip(own[lo:hi], range(lo, hi))).get, months))

    def value_at(self, stamp: MonthStamp) -> float:
        at = self._window(stamp, stamp)
        if at.stop == at.start:
            raise SeriesError(f"no observation for {stamp}")
        return self._values[at.start]

    def has(self, stamp: MonthStamp) -> bool:
        at = self._window(stamp, stamp)
        return at.stop > at.start

    def missing_months(self) -> tuple[MonthStamp, ...]:
        """Months inside the span with no observation (gaps are legal at parse time)."""
        months = self._months
        pairs = zip(months, islice(months, 1, None))
        return tuple(_stamp(m) for a, b in pairs for m in range(a + 1, b))

    def is_contiguous(self) -> bool:
        return self._months[-1] - self._months[0] + 1 == len(self._months)


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
_ORDINALS: dict[str, int] = {}  # by the YYYY-MM text of a plain row: _TEXTS the other way round


def _by_month(months: list[int], values: list[float]) -> tuple[array, array]:
    """``months`` and ``values`` as a series' arrays, both put in the order of ``months``."""
    if months != sorted(months):
        order = sorted(range(len(months)), key=months.__getitem__)
        months, values = [months[i] for i in order], [values[i] for i in order]
    return array("q", months), array("d", values)


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
        dates = fields[0::2]
        months = list(map(_ORDINALS.get, dates))
        if None in months:  # a month this process has not read before
            _ORDINALS.update((date, int(date[:4]) * 12 + int(date[5:]) - 1) for date in dates)
            months = list(map(_ORDINALS.__getitem__, dates))
        try:
            arrays = _by_month(months, list(map(float, fields[1::2])))
            return MonthlySeries._from_arrays(*arrays, series_id=series_id, base_note=base_note)
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
    arrays = _by_month(list(seen), values)
    return MonthlySeries._from_arrays(*arrays, series_id=series_id, base_note=base_note)


def series_to_csv(series: _ObservationMixin) -> str:
    """Render any stamped series back to the ``date,value`` CSV format."""
    # the rows _write_csv would write: "%r" of a float is its str
    months = map(_month_text, series._months)
    rows = map("%s,%r".__mod__, zip(months, series._values))
    return "\n".join(["date,value", *rows, ""])


def align(a: MonthlySeries, b: MonthlySeries) -> tuple[MonthlySeries, MonthlySeries]:
    """Restrict both series to the exact intersection of their months."""

    def span(s: MonthlySeries) -> MonthlySeries:
        months = s._months
        return s._take(slice(bisect_left(months, lo), bisect_right(months, hi)))

    def common_part(s: MonthlySeries) -> MonthlySeries:
        keep = [month in common for month in s._months]
        return s._with(array("q", compress(s._months, keep)), array("d", compress(s._values, keep)))

    # first the span both cover; inside it, both most often observe the same months
    lo, hi = max(a._months[0], b._months[0]), min(a._months[-1], b._months[-1])
    a, b = span(a), span(b)
    if a._months != b._months:
        common = set(a._months).intersection(b._months)
        a, b = common_part(a), common_part(b)
    if not len(a):
        raise SeriesError(
            f"no overlapping months between {a.series_id!r} and {b.series_id!r}"
        )
    return a, b


def difference(headline: MonthlySeries, component: MonthlySeries) -> DifferenceSeries:
    """Per-month ``headline - component`` over the aligned intersection."""
    ha, ca = align(headline, component)
    ids = {"minuend_id": headline.series_id, "subtrahend_id": component.series_id}
    values = array("d", map(operator.sub, ha._values, ca._values))
    return DifferenceSeries._from_arrays(ha._months, values, **ids)


def rebase(series: MonthlySeries, anchor: MonthStamp, anchor_value: float) -> MonthlySeries:
    """Scale the whole series so its value at ``anchor`` equals ``anchor_value``.

    Rescaling preserves all pairwise ratios; only the start level changes.
    """
    if not series.has(anchor):
        raise SeriesError(f"anchor month {anchor} absent from {series.series_id!r}")
    at_anchor = series.value_at(anchor)
    if at_anchor == 0.0:
        raise SeriesError(f"cannot rebase {series.series_id!r}: zero value at {anchor}")
    scale = anchor_value / at_anchor
    values = array("d", [value * scale for value in series._values])
    values[series._window(anchor, anchor).start] = anchor_value
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
