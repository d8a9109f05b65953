"""The package's public surface: one list of names, built from the modules' own."""

import trendgap
from trendgap import backtest, fitting, forecast, prices, series

#: ``trendgap.__all__`` as it stood before the modules' lists became its source.
EARLIER_ALL = [
    "__version__",
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
    "MAX_TRANSITION_MONTHS",
    "FitError",
    "LinearSegment",
    "TransitionWindow",
    "TrendModel",
    "DeviationClass",
    "fit_ols",
    "residual",
    "classify_deviation",
    "detect_breakpoints",
    "select_breakpoint_count",
    "build_trend_model",
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
    "PriceError",
    "PriceCalibration",
    "CRUDE_OIL_HEURISTIC",
    "percent_change",
    "component_index_from_difference",
    "extrapolate_headline",
    "trailing_growth_rate",
    "calibrate_price",
    "index_to_price",
    "parse_calibration_pairs_csv",
    "lead_lag",
    "BacktestError",
    "BacktestReport",
    "score",
    "rolling_backtest",
    "reports_to_csv",
]

MODULES = (series, fitting, forecast, prices, backtest)


def test_package_list_is_the_module_lists_in_order():
    expected = ["__version__"]
    for module in MODULES:
        expected += module.__all__
    assert trendgap.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        assert hasattr(trendgap, name), name


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(trendgap, name) is getattr(module, name), name


def test_earlier_names_kept_in_order_with_forecaster_added():
    assert len(EARLIER_ALL) == 51
    added = [name for name in trendgap.__all__ if name not in EARLIER_ALL]
    assert added == ["Forecaster"]
    assert [name for name in trendgap.__all__ if name != "Forecaster"] == EARLIER_ALL
    assert trendgap.__all__.index("Forecaster") == trendgap.__all__.index("BacktestReport") + 1
