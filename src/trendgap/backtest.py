"""Score forecasts against realized observations.

A forecast is only worth keeping if it beats what it replaced: the scorer
compares a predicted path to actuals over their overlapping months, and the
rolling harness replays an origin-by-origin evaluation in which each fit
sees strictly nothing after its own origin.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable

from .forecast import Forecast
from .series import DifferenceSeries, MonthStamp, _ordinal, _Record, _write_csv


class BacktestError(ValueError):
    """Invalid backtest input."""


class BacktestReport(_Record):
    """Error metrics over the months where forecast and actuals overlap.

    ``bias`` is the mean signed error (predicted - actual);
    ``direction_hit_rate`` is the fraction of consecutive overlapping month
    pairs whose month-over-month changes agree in sign, with zero changes on
    either side excluded from the count (vacuously 1.0 when nothing counts).
    """

    n: int
    mae: float
    rmse: float
    bias: float
    direction_hit_rate: float
    origin: MonthStamp | None

    def __init__(self, n, mae, rmse, bias, direction_hit_rate, origin=None):
        vars(self).update(
            n=n,
            mae=mae,
            rmse=rmse,
            bias=bias,
            direction_hit_rate=direction_hit_rate,
            origin=origin,
        )

    def to_dict(self) -> dict:
        doc = {
            "n": self.n,
            "mae": self.mae,
            "rmse": self.rmse,
            "bias": self.bias,
            "direction_hit_rate": self.direction_hit_rate,
        }
        if self.origin is not None:
            doc["origin"] = str(self.origin)
        return doc


def score(
    forecast: Forecast, actual: DifferenceSeries, origin: MonthStamp | None = None
) -> BacktestReport:
    """Compare a forecast path to realized values month by month; tag the report with ``origin``."""
    path, months = forecast.path, actual._months
    first = _ordinal(path[0][0])
    end, stop = first + len(path) - 1, bisect_left(months, first) + len(path)
    # a path with no gap, all of whose months the actuals observe, reads them by offset
    if _ordinal(path[-1][0]) == end and stop <= len(months) and months[stop - 1] == end:
        at = range(stop - len(path), stop)
    else:
        at = actual._lookup([_ordinal(stamp) for stamp, _ in path])
    # one walk over the overlapping months: the errors, and the sign agreement of each
    # month-over-month change with the previous overlapping month's
    errors, hits, counted, last = [], 0, 0, None
    for (_, pred), i in zip(path, at):
        if i is None:
            continue
        act = actual._values[i]
        if last is not None:
            dp, da = pred - last[0], act - last[1]
            if dp != 0.0 and da != 0.0:
                counted += 1
                hits += (dp > 0) == (da > 0)
        last = pred, act
        errors.append(pred - act)
    if not errors:
        raise BacktestError("forecast and actuals share no months")

    n = len(errors)
    mae = sum(map(abs, errors)) / n
    rmse = math.sqrt(sum([e * e for e in errors]) / n)
    bias = sum(errors) / n
    hit_rate = hits / counted if counted else 1.0

    return BacktestReport(n, mae, rmse, bias, hit_rate, origin)


Forecaster = Callable[[DifferenceSeries, MonthStamp, int], Forecast]


def rolling_backtest(
    diff: DifferenceSeries,
    forecaster: Forecaster,
    origins: list[MonthStamp],
    horizon: int,
) -> list[BacktestReport]:
    """Replay a forecaster at several origins without lookahead.

    At each origin the forecaster receives only the history up to and
    including that origin, plus the origin stamp and horizon, and must return
    a :class:`Forecast`. Each report is scored against the full actuals and
    tagged with its origin.

    Parameters
    ----------
    diff : DifferenceSeries
        Realized difference series (history and actuals both come from it).
    forecaster : callable
        ``forecaster(history, origin, horizon) -> Forecast``.
    origins : list of MonthStamp
        Forecast origins; each must leave at least ``horizon`` months of
        actuals after it.
    horizon : int
        Months to forecast past each origin.
    """
    if horizon < 1:
        raise BacktestError(f"horizon must be >= 1, got {horizon}")
    months, reports = diff._months, []
    for origin in origins:
        at = _ordinal(origin)
        stop = bisect_right(months, at)
        if not stop or months[stop - 1] != at:
            raise BacktestError(f"origin {origin} is not an observed month")
        if months[-1] < at + horizon:
            raise BacktestError(
                f"origin {origin} leaves fewer than {horizon} months of actuals"
            )
        forecast = forecaster(diff._take(slice(stop)), origin, horizon)
        reports.append(score(forecast, diff, origin))
    return reports


def reports_to_csv(reports: list[BacktestReport]) -> str:
    """One row per origin: ``origin,n,mae,rmse,bias,hit_rate``."""
    return _write_csv(
        "origin,n,mae,rmse,bias,hit_rate",
        ((r.origin, r.n, r.mae, r.rmse, r.bias, r.direction_hit_rate) for r in reports),
    )


__all__ = [
    "BacktestError",
    "BacktestReport",
    "Forecaster",
    "score",
    "rolling_backtest",
    "reports_to_csv",
]
