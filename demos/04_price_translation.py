#!/usr/bin/env python3
"""From index points to price statements.

A falling gap means the component index outruns the headline: holding the
headline near its level, a 90-point drop from 173 is a 52% price rise. For
crude petroleum the difference level doubles as a dollar figure, so the
successor trend extrapolates straight into dollars per barrel, and the crude
gap's swings show up in the motor-fuel gap months later.
"""

from pathlib import Path

from trendgap import (
    CRUDE_OIL_HEURISTIC,
    MonthStamp,
    calibrate_price,
    component_index_from_difference,
    difference,
    endpoint_trend,
    extrapolate_headline,
    fit_ols,
    forecast_along_trend,
    forecast_return_to_trend,
    index_to_price,
    lead_lag,
    months_between,
    parse_calibration_pairs_csv,
    parse_series_csv,
    percent_change,
    trailing_growth_rate,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name, series_id):
    return parse_series_csv((FIXTURES / name).read_text(), series_id)


def main():
    cpi = load("cpi_all_items_sa.csv", "CUSR0000SA0")
    motor_gap = difference(cpi, load("cpi_motor_fuel_sa.csv", "CUSR0000SETB"))
    crude_gap = difference(
        load("ppi_all_commodities.csv", "WPU00000000"),
        load("ppi_crude_petroleum.csv", "WPU0561"),
    )

    # Motor fuel, spring 2009: translate the gap forecast into an index path.
    origin = MonthStamp(2009, 3)
    drawn = endpoint_trend((MonthStamp(2009, 1), -50.0), (MonthStamp(2016, 1), 75.0))
    recovery = forecast_return_to_trend(
        (origin, motor_gap.value_at(origin)), drawn, MonthStamp(2009, 12)
    )
    growth = trailing_growth_rate(cpi, origin)
    headline_path = extrapolate_headline(cpi, origin, len(recovery.path), growth)
    component = component_index_from_difference(headline_path, recovery)
    start_index = cpi.value_at(origin) - motor_gap.value_at(origin)
    end_index = component[-1][1]
    print(
        f"motor fuel index {start_index:.0f} -> {end_index:.0f} by {component[-1][0]}: "
        f"{percent_change(start_index, end_index):+.1f}%"
    )

    # Crude petroleum: the gap level reads as dollars per barrel.
    print(f"\nheuristic: gap -120 <-> {index_to_price(CRUDE_OIL_HEURISTIC, -120.0):.2f} USD")
    pairs = parse_calibration_pairs_csv((FIXTURES / "crude_price_pairs.csv").read_text())
    fitted = calibrate_price(pairs)
    print(
        f"fitted on {len(pairs)} pairs: price = {fitted.alpha:.3f} * gap + "
        f"{fitted.beta:.2f} (R^2 {fitted.fit_r_squared:.4f})"
    )

    successor = fit_ols(crude_gap, (MonthStamp(2009, 7), MonthStamp(2010, 12)))
    horizon = months_between(MonthStamp(2016, 1), MonthStamp(2010, 12))
    long_run = forecast_along_trend(successor, MonthStamp(2010, 12), horizon)
    for stamp, value in long_run.path[11::12]:
        print(
            f"  {stamp}: gap {value:+7.1f} -> {index_to_price(CRUDE_OIL_HEURISTIC, value):5.1f} "
            f"USD/bbl (fitted: {index_to_price(fitted, value):5.1f})"
        )

    # The crude gap moves first; motor fuel follows it months later.
    window = (MonthStamp(2008, 1), MonthStamp(2010, 12))
    lag, corr = lead_lag(crude_gap.restrict(*window), motor_gap.restrict(*window), 12)
    print(f"\ncrude leads motor fuel by {lag} months over 2008-2010 (corr {corr:.3f})")


if __name__ == "__main__":
    main()
