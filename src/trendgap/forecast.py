"""Successor-trend construction and difference-series forecasting.

After a turning point the next trend can be drawn before data confirms it:
either as a mirror reflection of the finished trend or as a straight line
through two chosen anchor points. Forecasts then follow one of three
regimes: ride the trend, close the current deviation linearly by a
deadline, or swing through the trend in a pendulum overshoot.
"""

from __future__ import annotations

import json
import math

from .series import MonthStamp, _ordinal, _read_csv, _Record, _stamp, _write_csv, months_between
from .trend import LinearSegment

ALONG_TREND = "along-trend"
RETURN_TO_TREND = "return-to-trend"
PENDULUM = "pendulum"

_CSV_HEADER = "date,predicted,low,high"


class ForecastError(ValueError):
    """A forecast precondition was violated."""


class Forecast(_Record):
    """A predicted difference path with a descriptive +/- sigma band.

    The path starts the month after ``origin`` and its stamps increase
    strictly. ``band_sigma`` is the residual sigma of the trend the forecast
    leans on; the band is descriptive, not a confidence interval.
    """

    mode: str
    origin: MonthStamp
    path: tuple[tuple[MonthStamp, float], ...]
    band_sigma: float

    def __init__(self, mode, origin, path, band_sigma):
        stamps, values = zip(*path) if path else ((), ())
        values = tuple(map(float, values))
        path, band_sigma = tuple(zip(stamps, values)), float(band_sigma)
        if not 0.0 <= band_sigma < math.inf:
            raise ValueError(f"band_sigma must be finite and >= 0, got {band_sigma}")
        if not stamps:
            raise ValueError("empty forecast path")
        vars(self).update(mode=mode, origin=origin, path=path, band_sigma=band_sigma)
        months = list(map(_ordinal, stamps))
        expected = _ordinal(origin) + 1
        # the usual path, every month after the origin and finite, passes in one check
        if months == list(range(expected, expected + len(months))) and math.isfinite(sum(values)):
            return
        if months[0] != expected:
            raise ValueError(
                f"path must start the month after origin ({_stamp(expected)}), got {stamps[0]}"
            )
        for a, b, stamp in zip(months, months[1:], stamps[1:]):
            if b <= a:
                raise ValueError(f"path stamps not strictly increasing at {stamp}")
        for stamp, value in zip(stamps, values):
            if not math.isfinite(value):
                raise ValueError(f"non-finite forecast value {value!r} at {stamp}")

    @classmethod
    def _run_on(cls, mode, origin, stamps, values, band_sigma) -> "Forecast":
        """``cls(mode, origin, tuple(zip(stamps, values)), band_sigma)`` for ``stamps`` that run
        on one by one from the month after ``origin`` and float ``values``: stored as they are
        when every value is finite and the band valid, else built by ``__init__``, which names
        the fault."""
        path = tuple(zip(stamps, values))
        if path and math.isfinite(sum(values)) and 0.0 <= band_sigma < math.inf:
            forecast = cls.__new__(cls)
            vars(forecast).update(mode=mode, origin=origin, path=path, band_sigma=band_sigma)
            return forecast
        return cls(mode, origin, path, band_sigma)

    @property
    def stamps(self) -> tuple[MonthStamp, ...]:
        return tuple(s for s, _ in self.path)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.path)

    def to_csv(self) -> str:
        """Render as ``date,predicted,low,high`` rows (low/high = value -/+ sigma)."""
        band = self.band_sigma
        return _write_csv(_CSV_HEADER, ((s, v, v - band, v + band) for s, v in self.path))

    @classmethod
    def from_csv(cls, text: str) -> "Forecast":
        """Read :meth:`to_csv` text back: the band is the first row's predicted minus low,
        and the mode is ``"unknown"``, since the text does not record it."""
        rows = []
        for line_no, fields in _read_csv(text, _CSV_HEADER, ValueError):
            try:
                date, pred, low, high = fields
                rows.append((MonthStamp.parse(date), float(pred), float(low), float(high)))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
        if not rows:
            raise ValueError("no forecast rows")
        path = tuple((stamp, value) for stamp, value, _, _ in rows)
        return cls("unknown", rows[0][0].add_months(-1), path, rows[0][1] - rows[0][2])

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "origin": str(self.origin),
            "path": [[str(s), v] for s, v in self.path],
            "band_sigma": self.band_sigma,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def mirror_trend(
    prev: LinearSegment, pivot: tuple[MonthStamp, float], duration: int
) -> LinearSegment:
    """Reflect a finished trend at a pivot to draw its successor.

    The new segment starts at the pivot point with the previous slope negated
    and runs for ``duration`` months. Its r-squared and residual sigma are
    inherited from the previous segment as priors, flagged synthetic.
    """
    if duration < 12:
        raise ForecastError(f"mirror duration must be >= 12 months, got {duration}")
    if prev.slope == 0.0:
        raise ForecastError("mirror of a zero-slope trend is undefined")
    stamp, value = pivot
    try:
        end = stamp.add_months(duration)
    except ValueError as exc:  # a month past 9999-12
        raise ForecastError(str(exc)) from None
    return LinearSegment(
        start=stamp,
        end=end,
        intercept=float(value),
        slope=-prev.slope,
        r_squared=prev.r_squared,
        residual_sigma=prev.residual_sigma,
        synthetic=True,
    )


def endpoint_trend(
    start: tuple[MonthStamp, float], end: tuple[MonthStamp, float]
) -> LinearSegment:
    """Straight trend line through two anchor points (slope in points/year)."""
    (s0, v0), (s1, v1) = start, end
    n_months = months_between(s1, s0)
    if n_months <= 0:
        raise ForecastError(f"end anchor {s1} must come after start anchor {s0}")
    slope = (float(v1) - float(v0)) / (n_months / 12.0)
    return LinearSegment(
        start=s0,
        end=s1,
        intercept=float(v0),
        slope=slope,
        r_squared=1.0,
        residual_sigma=0.0,
        synthetic=True,
    )


def _trend_forecast(
    mode: str, trend: LinearSegment, origin: MonthStamp, steps: int, deviation=None
) -> Forecast:
    """The ``steps`` months after ``origin`` on ``trend``, each plus ``deviation(m)`` at step m
    when given (none is added otherwise, so a -0.0 trend value stays -0.0).

    A month past 9999-12 or a non-finite value raises ForecastError. The months come
    first, so a path that leaves the calendar stops there before any value is computed.
    """
    at, k = _ordinal(origin), months_between(origin, trend.start)
    months = range(1, steps + 1)
    try:
        stamps = tuple(map(_stamp, range(at + 1, at + steps + 1)))
        if deviation is None:
            values = [trend._at(k + m) for m in months]
        else:
            values = [trend._at(k + m) + deviation(m) for m in months]
        # the months run on from the origin by construction
        return Forecast._run_on(mode, origin, stamps, values, trend.residual_sigma)
    except ValueError as exc:
        raise ForecastError(str(exc)) from None


def forecast_along_trend(
    trend: LinearSegment, origin: MonthStamp, horizon: int
) -> Forecast:
    """Evaluate the trend line monthly for ``horizon`` months after ``origin``."""
    if horizon < 1:
        raise ForecastError(f"horizon must be >= 1, got {horizon}")
    return _trend_forecast(ALONG_TREND, trend, origin, horizon)


def forecast_return_to_trend(
    current: tuple[MonthStamp, float],
    trend: LinearSegment,
    deadline: MonthStamp,
    horizon: int | None = None,
) -> Forecast:
    """Close the current deviation in equal monthly steps, landing on the trend.

    The deviation at the origin is divided into equal parts so the path sits
    exactly on the trend line at the deadline. A ``horizon`` past the deadline
    goes on as ``forecast_along_trend(trend, deadline, rest)`` would, under the
    mode ``return-to-trend+along-trend``; one before the deadline is refused.
    """
    origin, value = current
    n = months_between(deadline, origin)
    if n < 1:
        raise ForecastError(f"deadline {deadline} must come after origin {origin}")
    if horizon is not None and horizon < n:
        raise ForecastError(f"horizon {horizon} ends before deadline {deadline}")
    deviation = float(value) - trend.predicted(origin)
    first = _trend_forecast(RETURN_TO_TREND, trend, origin, n, lambda m: deviation * (1.0 - m / n))
    if horizon is None or horizon == n:
        return first
    rest = _trend_forecast(ALONG_TREND, trend, deadline, horizon - n)
    # both halves are checked, and the second runs on from the first's last month
    stamps, values = first.stamps + rest.stamps, first.values + rest.values
    mode = f"{RETURN_TO_TREND}+{ALONG_TREND}"
    return Forecast._run_on(mode, origin, stamps, values, first.band_sigma)


def forecast_pendulum(
    current: tuple[MonthStamp, float],
    trend: LinearSegment,
    amplitude: float,
    half_period: int,
    horizon: int,
) -> Forecast:
    """Swing the deviation through the trend line in a free-pendulum overshoot.

    The deviation follows a cosine schedule: it starts at the current value,
    crosses the trend, and reaches ``amplitude`` on the far side after
    ``half_period`` months; the return half-wave then rebounds the same
    distance past the trend, and the swing repeats over longer horizons.
    """
    if amplitude <= 0.0:
        raise ForecastError(f"amplitude must be > 0, got {amplitude}")
    if half_period < 2:
        raise ForecastError(f"half_period must be >= 2 months, got {half_period}")
    if horizon < 1:
        raise ForecastError(f"horizon must be >= 1, got {horizon}")
    origin, value = current
    start_dev = float(value) - trend.predicted(origin)
    side = math.copysign(1.0, start_dev) if start_dev != 0.0 else 1.0

    def deviation(m: int) -> float:
        phase = math.pi * m / half_period
        wave = math.cos(phase)
        if m <= half_period / 2:
            # leaving the start position: scale by the observed deviation
            return wave * abs(start_dev) * side
        # past the first crossing: full swings of the target amplitude
        return wave * amplitude * side

    return _trend_forecast(PENDULUM, trend, origin, horizon, deviation)


def chain_forecasts(first: Forecast, second: Forecast) -> tuple[tuple[MonthStamp, float], ...]:
    """Concatenate two forecast paths (the second must pick up where the first ends)."""
    if second.origin != first.path[-1][0]:
        raise ForecastError(
            f"second forecast must originate at {first.path[-1][0]}, "
            f"got {second.origin}"
        )
    return first.path + second.path


__all__ = [
    "ALONG_TREND",
    "RETURN_TO_TREND",
    "PENDULUM",
    "ForecastError",
    "Forecast",
    "mirror_trend",
    "endpoint_trend",
    "forecast_along_trend",
    "forecast_return_to_trend",
    "forecast_pendulum",
    "chain_forecasts",
]
