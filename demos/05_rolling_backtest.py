#!/usr/bin/env python3
"""Scoring the recovery rule at many origins without peeking ahead.

The rolling harness hands each forecast only the history up to its origin.
Here the recovery rule (close the current deviation onto the successor trend
by a fixed deadline, then ride the trend) is replayed monthly through 2009
and compared with a flat persistence forecast.
"""

from pathlib import Path

from trendgap import (
    MonthStamp,
    difference,
    endpoint_trend,
    forecast_along_trend,
    forecast_return_to_trend,
    Forecast,
    months_between,
    parse_series_csv,
    reports_to_csv,
    rolling_backtest,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name, series_id):
    return parse_series_csv((FIXTURES / name).read_text(), series_id)


def main():
    gap = difference(
        load("cpi_all_items_sa.csv", "CUSR0000SA0"),
        load("cpi_motor_fuel_sa.csv", "CUSR0000SETB"),
    )
    successor = endpoint_trend((MonthStamp(2009, 1), -50.0), (MonthStamp(2016, 1), 75.0))
    deadline = MonthStamp(2009, 12)

    def recovery_rule(history, origin, horizon):
        current = (origin, history.value_at(origin))
        if origin >= deadline:
            return forecast_along_trend(successor, origin, horizon)
        if months_between(deadline, origin) < horizon:
            # past the deadline the path rides the successor trend
            return forecast_return_to_trend(current, successor, deadline, horizon)
        first = forecast_return_to_trend(current, successor, deadline)
        return Forecast(first.mode, origin, first.path[:horizon], first.band_sigma)

    def persistence(history, origin, horizon):
        flat = endpoint_trend(
            (origin, history.value_at(origin)),
            (origin.add_months(horizon), history.value_at(origin)),
        )
        return forecast_along_trend(flat, origin, horizon)

    origins = [MonthStamp(2009, m) for m in range(3, 10)]
    horizon = 6

    print(f"recovery rule, horizon {horizon} months:")
    recovery_reports = rolling_backtest(gap, recovery_rule, origins, horizon)
    print(reports_to_csv(recovery_reports))

    print("persistence baseline:")
    persistence_reports = rolling_backtest(gap, persistence, origins, horizon)
    print(reports_to_csv(persistence_reports))

    better = sum(
        r.mae < p.mae for r, p in zip(recovery_reports, persistence_reports)
    )
    print(f"recovery beats persistence at {better}/{len(origins)} origins")


if __name__ == "__main__":
    main()
