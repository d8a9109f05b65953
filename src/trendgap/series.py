"""Monthly index series: parsing, alignment, differencing and rebasing.

Everything upstream of trend fitting lives here. Index values are kept in
index points relative to the series' published base period (base = 100 by
convention); the difference between a headline index and one of its
components is measured in the same units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


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
    """A calendar month. Ordering is (year, month)."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")

    @property
    def t(self) -> float:
        """Fractional-year time coordinate: January maps to the whole year."""
        return self.year + (self.month - 1) / 12.0

    def add_months(self, n: int) -> "MonthStamp":
        total = self.year * 12 + (self.month - 1) + n
        return MonthStamp(total // 12, total % 12 + 1)

    @classmethod
    def parse(cls, token: str) -> "MonthStamp":
        """Parse a ``YYYY-MM`` token."""
        parts = token.strip().split("-")
        if (
            len(parts) != 2
            or len(parts[0]) != 4
            or len(parts[1]) != 2
            or not parts[0].isdigit()
            or not parts[1].isdigit()
        ):
            raise ValueError(f"malformed date token {token!r}, expected YYYY-MM")
        year, month = int(parts[0]), int(parts[1])
        if not 1 <= month <= 12:
            raise ValueError(f"malformed date token {token!r}: month out of range")
        return cls(year, month)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def months_between(later: MonthStamp, earlier: MonthStamp) -> int:
    """Signed whole-month distance, positive when ``later`` is after ``earlier``."""
    return (later.year - earlier.year) * 12 + (later.month - earlier.month)


Observation = tuple[MonthStamp, float]


class _ObservationMixin:
    """Shared validation and read access for stamped series dataclasses.

    Subclasses name themselves for error messages with a ``_label`` property.
    """

    observations: tuple[Observation, ...]

    def __post_init__(self):
        obs = tuple((stamp, float(value)) for stamp, value in self.observations)
        if not obs:
            raise SeriesError(f"empty {self._label}")
        prev = None
        for stamp, value in obs:
            if not math.isfinite(value):
                raise SeriesError(f"non-finite value {value!r} at {stamp} in {self._label}")
            if prev is not None and stamp <= prev:
                raise SeriesError(f"stamps not strictly increasing at {stamp} in {self._label}")
            prev = stamp
        object.__setattr__(self, "observations", obs)

    def restrict(self, start: MonthStamp, end: MonthStamp):
        """The same series cut to the months in ``start..end``."""
        kept = tuple(o for o in self.observations if start <= o[0] <= end)
        if not kept:
            raise SeriesError(f"{self._label} has no data in {start}..{end}")
        return replace(self, observations=kept)

    @property
    def stamps(self) -> tuple[MonthStamp, ...]:
        return tuple(s for s, _ in self.observations)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.observations)

    @property
    def start(self) -> MonthStamp:
        return self.observations[0][0]

    @property
    def end(self) -> MonthStamp:
        return self.observations[-1][0]

    def __len__(self) -> int:
        return len(self.observations)

    def value_at(self, stamp: MonthStamp) -> float:
        try:
            return self._index()[stamp]
        except KeyError:
            raise SeriesError(f"no observation for {stamp}") from None

    def has(self, stamp: MonthStamp) -> bool:
        return stamp in self._index()

    def _index(self) -> dict[MonthStamp, float]:
        cached = getattr(self, "_stamp_index", None)
        if cached is None:
            cached = dict(self.observations)
            object.__setattr__(self, "_stamp_index", cached)
        return cached

    def missing_months(self) -> tuple[MonthStamp, ...]:
        """Months inside the span with no observation (gaps are legal at parse time)."""
        gaps = []
        for (a, _), (b, _) in zip(self.observations, self.observations[1:]):
            for k in range(1, months_between(b, a)):
                gaps.append(a.add_months(k))
        return tuple(gaps)

    def is_contiguous(self) -> bool:
        return months_between(self.end, self.start) + 1 == len(self.observations)


@dataclass(frozen=True)
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

    series_id: str
    base_note: str
    observations: tuple[Observation, ...]

    @property
    def _label(self) -> str:
        return f"series {self.series_id!r}"


@dataclass(frozen=True)
class DifferenceSeries(_ObservationMixin):
    """Aligned per-month difference between two index series (minuend - subtrahend)."""

    minuend_id: str
    subtrahend_id: str
    observations: tuple[Observation, ...]

    @property
    def _label(self) -> str:
        return f"difference {self.minuend_id!r}-{self.subtrahend_id!r}"


def parse_series_csv(text: str, series_id: str, base_note: str = "") -> MonthlySeries:
    """Parse ``date,value`` CSV content into a :class:`MonthlySeries`.

    The header row must be exactly ``date,value``; data rows are
    ``YYYY-MM,<decimal>`` in any order. LF and CRLF line endings are accepted.
    Errors report the offending 1-based line number.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise ParseError("empty input")
    header = lines[0].rstrip("\r").strip()
    if header != "date,value":
        raise ParseError(f"expected header 'date,value', got {header!r}", line_no=1)

    seen: dict[MonthStamp, int] = {}
    rows: list[Observation] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r").strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line_no=line_no)
        try:
            stamp = MonthStamp.parse(parts[0])
        except ValueError as exc:
            raise ParseError(str(exc), line_no=line_no) from None
        if stamp in seen:
            raise ParseError(
                f"duplicate month {stamp} (first seen on line {seen[stamp]})",
                line_no=line_no,
            )
        seen[stamp] = line_no
        try:
            value = float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric value {parts[1]!r}", line_no=line_no) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {parts[1]!r}", line_no=line_no)
        rows.append((stamp, value))

    if not rows:
        raise ParseError("empty series")
    rows.sort(key=lambda o: o[0])
    return MonthlySeries(series_id, base_note, tuple(rows))


def series_to_csv(series: _ObservationMixin) -> str:
    """Render any stamped series back to the ``date,value`` CSV format."""
    lines = ["date,value"]
    lines.extend(f"{stamp},{value!r}" for stamp, value in series.observations)
    return "\n".join(lines) + "\n"


def align(a: MonthlySeries, b: MonthlySeries) -> tuple[MonthlySeries, MonthlySeries]:
    """Restrict both series to the exact intersection of their months."""
    common = set(a.stamps) & set(b.stamps)
    if not common:
        raise SeriesError(
            f"no overlapping months between {a.series_id!r} and {b.series_id!r}"
        )
    keep_a = tuple(o for o in a.observations if o[0] in common)
    keep_b = tuple(o for o in b.observations if o[0] in common)
    return (
        MonthlySeries(a.series_id, a.base_note, keep_a),
        MonthlySeries(b.series_id, b.base_note, keep_b),
    )


def difference(headline: MonthlySeries, component: MonthlySeries) -> DifferenceSeries:
    """Per-month ``headline - component`` over the aligned intersection."""
    ha, ca = align(headline, component)
    obs = tuple(
        (stamp, hv - cv)
        for (stamp, hv), (_, cv) in zip(ha.observations, ca.observations)
    )
    return DifferenceSeries(headline.series_id, component.series_id, obs)


def rebase(series: MonthlySeries, anchor: MonthStamp, anchor_value: float) -> MonthlySeries:
    """Scale the whole series so its value at ``anchor`` equals ``anchor_value``.

    Rescaling preserves all pairwise ratios; only the start level changes.
    """
    if not series.has(anchor):
        raise SeriesError(f"anchor month {anchor} absent from {series.series_id!r}")
    at_anchor = series.value_at(anchor)
    if at_anchor == 0.0:
        raise SeriesError(f"cannot rebase {series.series_id!r}: zero value at {anchor}")
    factor = anchor_value / at_anchor
    obs = tuple(
        (stamp, anchor_value if stamp == anchor else value * factor)
        for stamp, value in series.observations
    )
    note = f"rebased to {anchor_value!r} at {anchor}"
    if series.base_note:
        note = f"{series.base_note}; {note}"
    return MonthlySeries(series.series_id, note, obs)
