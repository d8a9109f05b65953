"""The package's public surface: one list of names, built from the modules' own,
and the modules a fresh interpreter loads for it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trendgap
from trendgap import backtest, fitting, forecast, prices, series

from conftest import CONFIGS, FIXTURES, PIPELINES, run_stages

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


def test_star_import_binds_each_module_object():
    namespace = {}
    exec("from trendgap import *", namespace)
    assert namespace["__version__"] == trendgap.__version__
    for module in MODULES:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        trendgap.no_such_name


def test_dir_lists_every_public_name():
    assert set(trendgap.__all__) <= set(dir(trendgap))


STAGES = {"trendgap.fitting", "trendgap.forecast", "trendgap.prices", "trendgap.backtest"}


#: Standard-library modules ``loaded_by`` reports: the records are plain classes, so no
#: ``trendgap`` module loads ``dataclasses`` or the ``inspect`` it imports. numpy loads
#: ``inspect`` itself, so the checks of a process with numpy leave these out.
PROBED = {"dataclasses", "inspect"}


def loaded_by(code: str) -> set[str]:
    """The ``trendgap`` modules, and ``numpy`` and those of ``PROBED`` if loaded, after
    ``code`` runs in a fresh interpreter."""
    src = str(Path(trendgap.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    shown = sorted(PROBED | {"numpy"})
    probe = (
        f"{code}\nimport sys\n"
        f"print(*[m for m in sys.modules if m.split('.')[0] == 'trendgap' or m in {shown}])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


#: What ``import trendgap.cli`` loads: no trend or stage module, and no numpy.
CLI_MODULES = {"trendgap", "trendgap.series", "trendgap.cli"}


def test_importing_the_cli_loads_series_only():
    assert loaded_by("import trendgap.cli") == CLI_MODULES


def test_trend_loads_on_first_use_without_a_stage_module():
    """Reading a model and asking ``zone`` which trend governs a month, inside its segment,
    in its transition and past its last month, loads no numpy."""
    code = """\
import json
import trendgap
from trendgap import MonthStamp
assert trendgap.trend.TrendModel.__module__ == 'trendgap.trend'
fit = {"intercept_A": 1.0, "slope_B": 12.0, "r_squared": 0.5, "residual_sigma": 1.0}
model = trendgap.trend.TrendModel.from_json(json.dumps({
    "segments": [{"start": "2000-01", "end": "2000-12", **fit}],
    "transitions": [{"start": "2001-01", "end": "2001-06"}],
}))
assert model.zone(MonthStamp(2000, 3)) == ("trend-0", model.segments[0])
assert model.zone(MonthStamp(2001, 2)) == ("transition", None)
assert model.zone(MonthStamp(2002, 1)) == ("extrapolation", model.segments[0])
"""
    assert loaded_by(code) == {"trendgap", "trendgap.series", "trendgap.trend"}


def test_a_stage_module_loads_on_first_use():
    assert loaded_by("import trendgap") == {"trendgap", "trendgap.series"}
    code = "import trendgap\nassert trendgap.fitting.fit_ols is trendgap.fit_ols"
    fitting = {"trendgap.trend", "trendgap.fitting", "numpy"}
    assert loaded_by(code) - PROBED == {"trendgap", "trendgap.series"} | fitting


def cli_run(*argv) -> str:
    return f"from trendgap.cli import main\nassert main({list(argv)!r}) == 0"


MOTOR_CONFIG = str(FIXTURES / "motor_config.json")


def test_diff_loads_no_stage_module(tmp_path):
    loaded = loaded_by(cli_run("diff", "--config", MOTOR_CONFIG, "--out", str(tmp_path)))
    assert "trendgap.series" in loaded
    assert not loaded & (STAGES | {"numpy"} | PROBED)


def test_fit_loads_only_fitting(tmp_path):
    run_stages(MOTOR_CONFIG, tmp_path, ("diff",))
    loaded = loaded_by(cli_run("fit", "--config", MOTOR_CONFIG, "--out", str(tmp_path)))
    assert loaded & STAGES == {"trendgap.fitting"}


#: The README's fixture pipelines, in order, the modules beyond the CLI's that each
#: subcommand loads, and whether it loads numpy: only the subcommands that fit, price or
#: fit a baseline do. Both ``diff``s load no trend code either.
STARTUP = [
    ("motor", "diff", set(), False),
    ("motor", "fit", {"trend", "fitting"}, True),
    ("motor", "forecast", {"trend", "forecast"}, False),
    ("motor", "backtest", {"trend", "fitting", "forecast", "backtest"}, True),
    ("crude", "diff", set(), False),
    ("crude", "fit", {"trend", "fitting"}, True),
    ("crude", "forecast", {"trend", "fitting", "forecast", "prices"}, True),
    ("crude", "translate", {"trend", "forecast", "prices"}, True),
    ("crude", "backtest", {"trend", "forecast", "backtest"}, False),
]


@pytest.mark.parametrize(
    "name, command, stages, numpy",
    STARTUP,
    ids=[f"{name}-{command}" for name, command, _, _ in STARTUP],
)
def test_each_fixture_subcommand_loads_exactly_its_stage_modules(
    tmp_path, name, command, stages, numpy
):
    steps = PIPELINES[name]
    run_stages(CONFIGS[name], tmp_path, steps[: steps.index(command)])
    loaded = loaded_by(cli_run(command, "--config", str(CONFIGS[name]), "--out", str(tmp_path)))
    expected = CLI_MODULES | {f"trendgap.{stage}" for stage in stages}
    if numpy:
        loaded -= PROBED
    assert loaded == expected | ({"numpy"} if numpy else set())
