"""Command-line pipeline behavior, exit codes and file formats."""

import errno
import hashlib
import http.client
import io
import json
import shutil
import urllib.error
import urllib.request
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendgap import (
    Forecast,
    MonthStamp,
    TrendModel,
    extrapolate_headline,
    fit_ols,
    forecast_along_trend,
    mirror_trend,
    parse_series_csv,
    rolling_backtest,
    trailing_growth_rate,
)
from trendgap.cli import Section, main, series_from_api_payload

from conftest import CONFIGS, FIXTURES, PIPELINES, in_process, run_stages
from test_golden import GOLDEN_SHA256, GOLDEN_STDOUT


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def motor_out(tmp_path):
    return run_stages(CONFIGS["motor"], tmp_path / "out", ("diff",))


class TestDiff:
    def test_writes_difference_csv(self, motor_out):
        text = (motor_out / "difference.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "date,value"
        assert lines[1].startswith("1980-01,")
        assert len(lines) == 1 + 372

    def test_missing_file_exits_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "series": {
                        "headline": {"path": "nope.csv"},
                        "component": {"path": "also_nope.csv"},
                    },
                    "out": str(tmp_path / "out"),
                }
            )
        )
        assert run("diff", "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert "nope.csv" in err
        assert not (tmp_path / "out").exists()

    def test_identical_series_warns(self, tmp_path, capsys):
        src = FIXTURES / "cpi_all_items_sa.csv"
        code = run(
            "diff",
            "--headline", str(src), "--headline-id", "x",
            "--component", str(src), "--component-id", "x",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        assert "identically zero" in capsys.readouterr().err

    def test_gap_inside_the_span_warns_with_count_and_first_month(self, tmp_path, capsys):
        headline = tmp_path / "headline.csv"
        lines = (FIXTURES / "cpi_all_items_sa.csv").read_text().splitlines()
        headline.write_text("\n".join(l for l in lines if not l.startswith("2003-05,")) + "\n")
        code = run(
            "diff",
            "--headline", str(headline), "--headline-id", "hl",
            "--component", str(FIXTURES / "cpi_motor_fuel_sa.csv"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: hl is missing 1 months inside its span (first: 2003-05)\n"
        assert captured.out.startswith("difference hl - ")

    def test_refused_write_prints_no_warning(self, tmp_path, capsys):
        src = FIXTURES / "cpi_all_items_sa.csv"
        (tmp_path / "out" / "difference.csv").mkdir(parents=True)
        code = run(
            "diff",
            "--headline", str(src), "--headline-id", "x",
            "--component", str(src), "--component-id", "x",
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "it exists and is not a regular file" in err
        assert "warning:" not in err


class TestFit:
    def test_prints_slopes_and_writes_model(self, motor_out, capsys):
        run_stages(CONFIGS["motor"], motor_out, ("fit",))
        printed = capsys.readouterr().out
        assert "slope +4" in printed
        assert "slope -21" in printed
        doc = json.loads((motor_out / "trend_model.json").read_text())
        assert {"start", "end", "intercept_A", "slope_B", "r_squared", "residual_sigma"} == set(
            doc["segments"][0]
        )
        residuals = (motor_out / "residuals.csv").read_text().splitlines()
        assert residuals[0] == "date,value,predicted,residual,zone"

    def test_k_zero_single_segment(self, motor_out):
        config = {
            "segmentation": {"k": 0, "min_len": 60, "transition_halfwidth": 0},
            "out": str(motor_out),
        }
        cfg_path = motor_out / "k0.json"
        cfg_path.write_text(json.dumps(config))
        assert run("fit", "--config", str(cfg_path)) == 0
        doc = json.loads((motor_out / "trend_model.json").read_text())
        assert len(doc["segments"]) == 1
        assert doc["transitions"] == []

    def test_min_len_too_large_exits_two(self, motor_out, capsys):
        config = {
            "segmentation": {"k": 1, "min_len": 60},
            "out": str(motor_out),
        }
        cfg_path = motor_out / "short.json"
        cfg_path.write_text(json.dumps(config))
        assert run("fit", "--config", str(cfg_path), "--min-len", "400") == 2
        assert "too short" in capsys.readouterr().err


class TestForecast:
    def test_recovery_closes_at_ten_points_per_month(self, motor_out):
        run_stages(CONFIGS["motor"], motor_out, ("fit", "forecast"))
        lines = (motor_out / "forecast.csv").read_text().splitlines()
        assert lines[0] == "date,predicted,low,high"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        doc = json.loads((motor_out / "forecast.json").read_text())
        assert doc["mode"] == "return-to-trend+along-trend"
        # compare to the drawn recovery line: -50 at 2009-01 rising 125/7 a year
        trend_at = lambda k: -50.0 + (125.0 / 7.0) * (2 + k) / 12.0
        deviations = [v - trend_at(k) for k, v in enumerate(values[:9], start=1)]
        steps = [a - b for a, b in zip(deviations, deviations[1:])]
        assert all(abs(s - steps[0]) < 1e-9 for s in steps)
        assert 9.0 <= steps[0] <= 11.0
        assert abs(deviations[-1]) < 1e-9

    @pytest.mark.parametrize("index", [None, 0], ids=["last-segment", "first-segment"])
    def test_mirror_trend_is_the_library_mirror_of_the_model_segment(self, motor_out, index):
        run_stages(CONFIGS["motor"], motor_out, ("fit",))
        trend = {"kind": "mirror", "pivot": ["2009-01", -50.0], "duration": 84}
        if index is not None:
            trend["segment_index"] = index
        config = fixture_config("motor")
        config["forecast"] = {"mode": "along-trend", "origin": "2009-03", "horizon": 21}
        config["forecast"]["trend"] = trend
        cfg = motor_out / "mirror.json"
        cfg.write_text(json.dumps(config))
        run_stages(cfg, motor_out, ("forecast",))

        model = TrendModel.from_json((motor_out / "trend_model.json").read_text())
        segment = model.segments[-1 if index is None else index]
        mirrored = mirror_trend(segment, (MonthStamp(2009, 1), -50.0), 84)
        expected = forecast_along_trend(mirrored, MonthStamp(2009, 3), 21)
        assert json.loads((motor_out / "forecast.json").read_text()) == expected.to_dict()

    def test_horizon_zero_exits_two(self, motor_out, capsys):
        config = fixture_config("motor")
        config["forecast"]["horizon"] = 0
        cfg_path = motor_out / "h0.json"
        cfg_path.write_text(json.dumps(config))
        assert run("forecast", "--config", str(cfg_path), "--out", str(motor_out)) == 2
        assert "horizon" in capsys.readouterr().err


class TestTranslateAndBacktest:
    @pytest.fixture()
    def crude_out(self, tmp_path):
        return run_stages(CONFIGS["crude"], tmp_path / "crude", ("diff", "fit", "forecast"))

    def test_heuristic_prices_written(self, crude_out):
        lines = (crude_out / "forecast_prices.csv").read_text().splitlines()
        assert lines[0] == "date,price_usd,low,high"
        last = lines[-1].split(",")
        assert last[0] == "2016-01"
        assert abs(float(last[1]) - 30.0) <= 5.0

    def test_translate_with_fitted_calibration(self, crude_out):
        run_stages(CONFIGS["crude"], crude_out, ("translate",))
        lines = (crude_out / "translated_prices.csv").read_text().splitlines()
        assert lines[0] == "date,price_usd,low,high"
        assert abs(float(lines[-1].split(",")[1]) - 30.0) <= 5.0

    def test_backtest_reports(self, crude_out, capsys):
        run_stages(CONFIGS["crude"], crude_out, ("backtest",))
        lines = (crude_out / "backtest.csv").read_text().splitlines()
        assert lines[0] == "origin,n,mae,rmse,bias,hit_rate"
        assert lines[1].startswith("2009-01,12,")

    @pytest.mark.parametrize("annual_rate", [None, 2.5], ids=["trailing-rate", "given-rate"])
    def test_headline_writes_component_index(self, crude_out, annual_rate):
        config = fixture_config("crude")
        headline_path = config["series"]["headline"]["path"]
        config["translate"]["headline"] = {"path": headline_path, "id": "WPU00000000"}
        if annual_rate is not None:
            config["translate"]["annual_rate"] = annual_rate
        cfg = crude_out.parent / "headline.json"
        cfg.write_text(json.dumps(config))
        assert run("translate", "--config", str(cfg), "--out", str(crude_out)) == 0

        f = Forecast.from_csv((crude_out / "forecast.csv").read_text())
        headline = parse_series_csv(Path(headline_path).read_text(), "WPU00000000")
        rate = trailing_growth_rate(headline, f.origin) if annual_rate is None else annual_rate
        extrapolated = extrapolate_headline(headline, f.origin, len(f.path), rate)
        expected = [f"{s},{h - d!r}" for (s, h), d in zip(extrapolated, f.values)]
        lines = (crude_out / "component_index.csv").read_text().splitlines()
        assert lines == ["date,component_index", *expected]
        assert lines[1].startswith("2011-01,") and len(lines) == 1 + 61

    def test_backtest_reads_its_config_once_whatever_the_origins(self, crude_out, monkeypatch):
        """Twelve origins read the config as often as one: the forecast section is read once."""
        keys = []
        get = Section.get

        def counted(self, key, *args, **kwargs):
            keys.append(key)
            return get(self, key, *args, **kwargs)

        monkeypatch.setattr(Section, "get", counted)
        reads = []
        for origins in (["2009-01"], [str(MonthStamp(2008, 6).add_months(i)) for i in range(12)]):
            config = fixture_config("crude")
            config["backtest"]["origins"] = origins
            cfg = crude_out.parent / "origins.json"
            cfg.write_text(json.dumps(config))
            keys.clear()
            assert run("backtest", "--config", str(cfg), "--out", str(crude_out)) == 0
            assert len((crude_out / "backtest.csv").read_text().splitlines()) == 1 + len(origins)
            reads.append(list(keys))
        assert reads[0] == reads[1]

    def test_origin_after_series_end_exits_two(self, crude_out, capsys):
        config = fixture_config("crude")
        config["backtest"]["origins"] = ["2010-10"]
        cfg_path = crude_out / "late.json"
        cfg_path.write_text(json.dumps(config))
        assert run("backtest", "--config", str(cfg_path), "--out", str(crude_out)) == 2
        assert "fewer than" in capsys.readouterr().err


class TestFetchPayload:
    def test_parses_v2_payload(self):
        payload = {
            "status": "REQUEST_SUCCEEDED",
            "Results": {
                "series": [
                    {
                        "seriesID": "CUSR0000SA0",
                        "data": [
                            {"year": "2009", "period": "M13", "value": "214.0"},
                            {"year": "2009", "period": "M02", "value": "212.7"},
                            {"year": "2009", "period": "M01", "value": "211.9"},
                        ],
                    }
                ]
            },
        }
        series = series_from_api_payload(payload, "CUSR0000SA0")
        assert series.stamps == (
            series.stamps[0],
            series.stamps[0].add_months(1),
        )
        assert series.values == (211.9, 212.7)

    def test_failed_status_raises(self):
        with pytest.raises(ValueError, match="failed"):
            series_from_api_payload({"status": "REQUEST_NOT_PROCESSED"}, "X")

    def test_unknown_series_raises(self):
        payload = {"status": "REQUEST_SUCCEEDED", "Results": {"series": []}}
        with pytest.raises(ValueError, match="not in API response"):
            series_from_api_payload(payload, "X")


def fixture_config(name: str) -> dict:
    """A fixture config with its input paths made absolute."""
    config = json.loads(CONFIGS[name].read_text())
    for role in config["series"].values():
        role["path"] = str(FIXTURES / role["path"])
    calibration = config.get("translate", {}).get("calibration")
    if isinstance(calibration, dict) and "pairs_csv" in calibration:
        calibration["pairs_csv"] = str(FIXTURES / calibration["pairs_csv"])
    return config


def snapshot(out) -> dict:
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


class Delete:
    """Marks a config key to delete; its repr is stable, so test ids that show it are too."""

    def __repr__(self) -> str:
        return "DELETE"


DELETE = Delete()

#: A motor forecast section that reads ``forecast.amplitude``, and a translate section that
#: reads ``translate.annual_rate``; each BAD_KEYS row adds the value under test.
PENDULUM = {"mode": "pendulum", "origin": "2009-03", "horizon": 12, "half_period": 6}
HEADLINE = {"calibration": "heuristic", "headline": {"path": str(FIXTURES / "cpi_all_items_sa.csv")}}


BAD_KEYS = [
    ("motor", "forecast", "forecast.trend.end", DELETE, "forecast.trend.end"),
    ("motor", "forecast", "forecast.origin", DELETE, "forecast.origin"),
    ("motor", "forecast", "forecast.deadline", DELETE, "forecast.deadline"),
    ("motor", "forecast", "forecast.trend.start", 5, "forecast.trend.start"),
    ("motor", "backtest", "backtest.baseline.fit_end", DELETE, "backtest.baseline.fit_end"),
    ("motor", "fit", "segmentation.k", None, "segmentation.k"),
    ("crude", "translate", "translate.calibration.pairs_csv", DELETE, "translate.calibration.pairs_csv"),
    ("motor", "forecast", "forecast.trend", {"kind": "mirror"}, "forecast.trend.pivot"),
    ("crude", "translate", "translate.calibration", [], "translate.calibration"),
    ("crude", "diff", "series.component.id", [], "series.component.id"),
    ("motor", "diff", "series.headline.base_note", 7, "series.headline.base_note"),
    ("motor", "fit", "segmentation.k", 1.5, "segmentation.k"),
    ("motor", "forecast", "forecast.horizon", "21", "forecast.horizon"),
    ("motor", "backtest", "backtest.horizon", 9.99, "backtest.horizon"),
    ("motor", "fit", "segmentation.min_len", True, "segmentation.min_len"),
    ("crude", "translate", "translate.headline", {}, "translate.headline.path"),
    ("motor", "backtest", "backtest.baseline", {}, "backtest.baseline.fit_start"),
    ("motor", "backtest", "backtest.horizon", DELETE, "config key 'backtest.horizon' is missing"),
    ("motor", "backtest", "backtest.horizon", 0, "backtest.horizon must be >= 1"),
    ("motor", "forecast", "forecast.horizon", DELETE, "config key 'forecast.horizon' is missing"),
    ("motor", "forecast", "forecast.horizon", 8, "horizon 8 ends before forecast.deadline 2009-12"),
    ("motor", "translate", "calibration", "none", "translate needs a calibration"),
    ("motor", "backtest", "backtest.origins", [], "backtest.origins must list at least one origin"),
    ("motor", "forecast", "forecast.trend", {"kind": "segment", "index": 2}, "forecast.trend.index"),
    ("motor", "backtest", "backtest.origins", ["2000-06"],
     "backtest.baseline.fit_start 2001-01 is not before origin 2000-06"),
    ("motor", "translate", "calibration", None, "set translate.calibration or calibration"),
    ("motor", "backtest", "backtest.origins", "2009-03",
     "config key 'backtest.origins': expected a list of 'YYYY-MM' strings, got '2009-03'"),
    ("motor", "backtest", "backtest.baseline.fit_end", "2000-01",
     "backtest.baseline at origin 2009-03: window end 2000-01 before start 2001-01"),
    ("motor", "fit", "segmentation.fit_start", "2020-01",
     "segmentation.fit_start: the difference 1980-01..2010-12 has no data in 2020-01..2010-12"),
    ("motor", "fit", "segmentation.detect_end", "1970-01",
     "segmentation.detect_end: the difference 1980-01..2010-12 has no data in 1980-01..1970-01"),
    ("crude", "fit", "segmentation.fit_end", "1987-12",
     "segmentation.fit_start and segmentation.fit_end: the difference"),
    ("crude", "forecast", "forecast.trend.end", "2009-01",
     "forecast.trend.start and forecast.trend.end: window end 2009-01 before start 2009-07"),
    ("crude", "forecast", "forecast.trend", {"kind": "fit", "start": "2030-01", "end": "2031-01"},
     "forecast.trend.start and forecast.trend.end: window 2030-01..2031-01 has 0 observations"),
    ("crude", "backtest", "backtest.forecast.trend",
     {"kind": "fit", "start": "2008-12", "end": "2007-01"},
     "backtest.forecast.trend.start and backtest.forecast.trend.end at origin 2009-01: "
     "window end 2007-01 before start 2008-12"),
    ("crude", "backtest", "backtest.forecast.trend",
     {"kind": "fit", "start": "2030-01", "end": "2031-01"},
     "backtest.forecast.trend.start and backtest.forecast.trend.end at origin 2009-01: "
     "window 2030-01..2031-01 has 0 observations"),
    ("crude", "translate", "translate.calibration", {"kind": "heuristic"},
     "translate.calibration: unknown calibration {'kind': 'heuristic'}"),
    ("motor", "forecast", "forecast.trend.start", ["2009-01", "nan"],
     "config key 'forecast.trend.start': expected a number, got 'nan'"),
    ("motor", "forecast", "forecast.trend.start", ["2009-01", "-50"],
     "config key 'forecast.trend.start': expected a number, got '-50'"),
    ("motor", "forecast", "forecast.trend.start", ["2009-01", True],
     "config key 'forecast.trend.start': expected a number, got True"),
    ("motor", "forecast", "forecast", PENDULUM | {"amplitude": "2"},
     "config key 'forecast.amplitude': expected a number, got '2'"),
    ("motor", "forecast", "forecast", PENDULUM | {"amplitude": True},
     "config key 'forecast.amplitude': expected a number, got True"),
    ("motor", "translate", "translate", HEADLINE | {"annual_rate": "2"},
     "config key 'translate.annual_rate': expected a number, got '2'"),
    ("motor", "translate", "translate", HEADLINE | {"annual_rate": True},
     "config key 'translate.annual_rate': expected a number, got True"),
    ("motor", "fit", "segmentation.min_len", 3, "segmentation: min_len must be >= 6, got 3"),
    ("motor", "fit", "segmentation.transition_halfwidth", 20,
     "segmentation: transition_halfwidth 20 implies a window wider than 36 months"),
    ("motor", "forecast", "forecast.deadline", "2009-01",
     "forecast: deadline 2009-01 must come after origin 2009-03"),
    ("crude", "backtest", "backtest.forecast.deadline", "2008-12",
     "backtest.forecast at origin 2009-01: deadline 2008-12 must come after origin 2009-01"),
    ("motor", "forecast", "forecast.origin", "2030-01", "forecast.origin: no observation for 2030-01"),
    ("motor", "forecast", "forecast.origin", "1970-01", "forecast.origin: no observation for 1970-01"),
    ("motor", "forecast", "forecast", PENDULUM | {"origin": "2030-01", "amplitude": 2.0},
     "forecast.origin: no observation for 2030-01"),
    ("motor", "backtest", "backtest.origins", ["2030-01"],
     "backtest.origins: origin 2030-01 is not an observed month"),
    ("motor", "backtest", "backtest.origins", ["2010-11"],
     "backtest.origins: origin 2010-11 leaves fewer than 9 months of actuals"),
    ("crude", "backtest", "backtest.origins", ["1984-12"],
     "backtest.origins: origin 1984-12 is not an observed month"),
    ("motor", "forecast", "forecast.horizon", 120000,
     "forecast: no month 10000-1: year must be in 0..9999 and month in 1..12"),
    ("motor", "forecast", "forecast", PENDULUM | {"amplitude": 2.0, "horizon": 120000},
     "forecast: no month 10000-1: year must be in 0..9999"),
    ("motor", "forecast", "forecast.trend",
     {"kind": "mirror", "pivot": ["2009-03", 10.0], "duration": 1000000000},
     "forecast: no month 83335342-7: year must be in 0..9999"),
    ("motor", "forecast", "forecast.trend", {"kind": "endpoint", "start": ["2009-01", 1e308],
                                             "end": ["2009-02", -1e308]},
     "forecast: non-finite forecast value nan at 2009-04"),
    ("crude", "backtest", "backtest.forecast.trend",
     {"kind": "endpoint", "start": ["2009-01", 1e308], "end": ["2009-02", -1e308]},
     "backtest.forecast at origin 2009-01: non-finite forecast value nan at 2009-02"),
    ("motor", "forecast", "forecast.trend.end", ["2009-01", 75.0],
     "forecast: end anchor 2009-01 must come after start anchor 2009-01"),
    ("crude", "backtest", "backtest.forecast.trend.end", ["2009-06", -30.0],
     "backtest.forecast: end anchor 2009-06 must come after start anchor 2009-06"),
]


def case_ids(cases) -> list[str]:
    """Each case's key path; a path that an earlier case used also shows its value.

    The fixture directory shows as ``FIXTURES``, so that ids do not depend on the checkout.
    """
    ids: list[str] = []
    for _, _, key, value, _ in cases:
        ids.append(f"{key}={value!r}".replace(str(FIXTURES), "FIXTURES") if key in ids else key)
    return ids


class TestConfigErrors:
    """A missing or mistyped config key exits 2 and names its dotted path."""

    @pytest.mark.parametrize(
        "name, command, key, value, named", BAD_KEYS, ids=case_ids(BAD_KEYS)
    )
    def test_bad_key_exits_two(self, tmp_path, capsys, name, command, key, value, named):
        prepared = ("diff", "fit", "forecast") if command == "translate" else ("diff", "fit")
        out = run_stages(CONFIGS[name], tmp_path / "out", prepared)

        config = fixture_config(name)
        set_key(config, key, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        before = snapshot(out)
        capsys.readouterr()

        assert run(command, "--config", str(bad), "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert snapshot(out) == before

    @staticmethod
    def gapped_motor_config(tmp_path) -> Path:
        """The motor fixture config with 2003-05 and 2003-06 cut from its headline."""
        config = fixture_config("motor")
        headline = Path(config["series"]["headline"]["path"])
        kept = [
            line for line in headline.read_text().splitlines()
            if not line.startswith(("2003-05,", "2003-06,"))
        ]
        gapped = tmp_path / "headline.csv"
        gapped.write_text("\n".join(kept) + "\n")
        config["series"]["headline"]["path"] = str(gapped)
        cfg = tmp_path / "gapped.json"
        cfg.write_text(json.dumps(config))
        return cfg

    def test_gap_in_the_fit_window_names_the_first_missing_month(self, tmp_path, capsys):
        cfg = self.gapped_motor_config(tmp_path)
        out = tmp_path / "out"
        assert run("diff", "--config", str(cfg), "--out", str(out)) == 0
        assert "first: 2003-05" in capsys.readouterr().err
        before = snapshot(out)

        assert run("fit", "--config", str(cfg), "--out", str(out)) == 2
        assert "first missing month 2003-05" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_gap_in_the_baseline_window_names_the_baseline_and_origin(self, tmp_path, capsys):
        cfg = self.gapped_motor_config(tmp_path)
        out = tmp_path / "out"
        assert run("diff", "--config", str(cfg), "--out", str(out)) == 0
        before = snapshot(out)
        capsys.readouterr()

        assert run("backtest", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "backtest.baseline at origin 2009-03: window 2001-01..2008-06 has missing" in err
        assert snapshot(out) == before

    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[]")
        assert run("diff", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        assert "error: config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_output_directory_exits_two(self, capsys):
        assert run("diff", "--config", str(FIXTURES / "motor_config.json")) == 2
        err = capsys.readouterr().err
        assert "error: no output directory: pass --out or set 'out' in the config" in err

    def test_long_trailing_transition_names_tail_start(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = fixture_config("crude")
        config["segmentation"].update(tail_start="2005-01", detect_end="2004-12", min_len=36)
        cfg = tmp_path / "long_tail.json"
        cfg.write_text(json.dumps(config))
        assert run("diff", "--config", str(cfg), "--out", str(out)) == 0
        before = snapshot(out)
        capsys.readouterr()

        assert run("fit", "--config", str(cfg), "--out", str(out)) == 2
        assert "segmentation.tail_start" in capsys.readouterr().err
        assert snapshot(out) == before


class TestBacktestLookahead:
    @pytest.mark.parametrize(
        "trend",
        [{"kind": "segment"}, {"kind": "mirror", "pivot": ["1995-01", 0.0]}],
        ids=["segment", "mirror"],
    )
    def test_model_trend_kinds_exit_two(self, motor_out, capsys, trend):
        config = fixture_config("motor")
        run_stages(CONFIGS["motor"], motor_out, ("fit",))
        config["backtest"] = {
            "origins": ["1995-01"],
            "horizon": 12,
            "forecast": {"mode": "along-trend", "trend": trend},
        }
        cfg_path = motor_out.parent / "lookahead.json"
        cfg_path.write_text(json.dumps(config))
        capsys.readouterr()
        assert run("backtest", "--config", str(cfg_path), "--out", str(motor_out)) == 2
        assert "whole series" in capsys.readouterr().err
        assert not (motor_out / "backtest.csv").exists()

    def test_refused_before_any_input_is_read(self, tmp_path, capsys):
        config = fixture_config("motor")
        config["backtest"]["forecast"] = {"mode": "along-trend", "trend": {"kind": "mirror"}}
        cfg = tmp_path / "mirror.json"
        cfg.write_text(json.dumps(config))
        assert run("backtest", "--config", str(cfg), "--out", str(tmp_path / "empty")) == 2
        err = capsys.readouterr().err
        assert "backtest.forecast.trend.kind" in err and "whole series" in err
        assert not (tmp_path / "empty").exists()

    def test_forecast_without_model_says_fit_writes_it(self, tmp_path, capsys):
        out = run_stages(CONFIGS["motor"], tmp_path / "out", ("diff",))
        config = fixture_config("motor")
        config["forecast"]["trend"] = {"kind": "segment"}
        cfg = tmp_path / "segment.json"
        cfg.write_text(json.dumps(config))
        before = snapshot(out)
        capsys.readouterr()
        assert run("forecast", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "forecast.trend.kind" in err and "missing" in err and "'trendgap fit'" in err
        assert "backtest" not in err
        assert snapshot(out) == before


class TestBaseline:
    """``backtest.baseline`` fits OLS on ``fit_start..fit_end`` of the history up to each origin."""

    @staticmethod
    def config(origins) -> dict:
        config = fixture_config("motor")
        config["backtest"].update(
            origins=origins,
            forecast={
                "mode": "along-trend",
                "trend": {"kind": "endpoint", "start": ["2001-01", 0.0], "end": ["2008-06", 10.0]},
            },
        )
        return config

    def test_reports_match_the_forecaster_clipped_to_the_origin(self, tmp_path, motor_diff):
        # 2008-06 is fit_end, so the first four origins come at or before it
        origins = ["2001-02", "2003-07", "2006-01", "2008-06", "2008-07", "2009-03", "2010-03"]
        out = run_stages(CONFIGS["motor"], tmp_path / "out", ("diff",))
        cfg = tmp_path / "origins.json"
        cfg.write_text(json.dumps(self.config(origins)))
        assert run("backtest", "--config", str(cfg), "--out", str(out)) == 0

        fit_start, fit_end = MonthStamp(2001, 1), MonthStamp(2008, 6)

        def clipped(history, origin, h):
            return forecast_along_trend(fit_ols(history, (fit_start, min(fit_end, origin))), origin, h)

        stamps = [MonthStamp.parse(o) for o in origins]
        expected = [r.to_dict() for r in rolling_backtest(motor_diff, clipped, stamps, 9)]
        doc = json.loads((out / "backtest.json").read_text())
        assert doc["baseline_reports"] == expected
        assert [r["origin"] for r in doc["baseline_reports"]] == origins

    @pytest.mark.parametrize("origin", ["2000-06", "2001-01"])
    def test_origin_leaving_under_two_fit_months_exits_two(self, tmp_path, capsys, origin):
        out = run_stages(CONFIGS["motor"], tmp_path / "out", ("diff",))
        cfg = tmp_path / "early.json"
        cfg.write_text(json.dumps(self.config([origin])))
        before = snapshot(out)
        capsys.readouterr()
        assert run("backtest", "--config", str(cfg), "--out", str(out)) == 2
        assert "window 2001-01..2008-06 has" in capsys.readouterr().err
        assert snapshot(out) == before


class TestNonFiniteResults:
    """A config or input that yields a non-finite number exits 2 and writes nothing."""

    @pytest.mark.parametrize(
        "forecast",
        [
            {"trend": {"kind": "endpoint", "start": ["2009-06", float("nan")], "end": ["2016-01", 75.0]}},
            {"mode": "pendulum", "amplitude": 1e400, "half_period": 6},
        ],
        ids=["nan-anchor", "infinite-amplitude"],
    )
    def test_forecast_exits_two(self, tmp_path, capsys, forecast):
        out = run_stages(CONFIGS["motor"], tmp_path / "out", ("diff", "fit"))
        config = fixture_config("motor")
        config["forecast"].update(forecast)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        capsys.readouterr()
        assert run("forecast", "--config", str(bad), "--out", str(out)) == 2
        assert "non-finite forecast value" in capsys.readouterr().err
        assert not (out / "forecast.csv").exists()
        assert not (out / "forecast.json").exists()

    def test_translate_of_infinite_band_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "forecast.csv").write_text("date,predicted,low,high\n2011-01,-50.0,-inf,inf\n")
        assert run("translate", "--calibration", "heuristic", "--out", str(out)) == 2
        assert "band_sigma must be finite" in capsys.readouterr().err
        assert not (out / "translated_prices.csv").exists()

    def test_translate_of_forecast_from_year_zero_exits_two(self, tmp_path, capsys):
        # its origin, the month before the path, would fall in year -1
        out = tmp_path / "out"
        out.mkdir()
        (out / "forecast.csv").write_text("date,predicted,low,high\n0000-01,-50.0,-60.0,-40.0\n")
        assert run("translate", "--calibration", "heuristic", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{out / 'forecast.csv'}, no month -1-12: year must be in 0..9999" in err
        assert not (out / "translated_prices.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_trailing_growth_from_non_positive_headline_exits_two(self, tmp_path, capsys, value):
        out = run_stages(CONFIGS["crude"], tmp_path / "out", ("diff", "fit", "forecast"))
        headline = tmp_path / "headline.csv"
        text = (FIXTURES / "ppi_all_commodities.csv").read_text()
        headline.write_text(text.replace("\n2005-12,152.7\n", f"\n2005-12,{value}\n"))
        config = fixture_config("crude")
        config["translate"]["headline"] = {"path": str(headline), "id": "WPU00000000"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        before = snapshot(out)
        capsys.readouterr()
        assert run("translate", "--config", str(bad), "--out", str(out)) == 2
        assert "positive" in capsys.readouterr().err
        assert snapshot(out) == before


    @pytest.mark.parametrize("rate", [-150, 1e308, 2.5e62])
    def test_extrapolated_headline_out_of_range_exits_two(self, tmp_path, capsys, rate):
        out = run_stages(CONFIGS["crude"], tmp_path / "out", ("diff", "fit", "forecast"))
        config = fixture_config("crude")
        config["translate"]["headline"] = {"path": str(FIXTURES / "ppi_all_commodities.csv")}
        config["translate"]["annual_rate"] = rate
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        before = snapshot(out)
        capsys.readouterr()
        assert run("translate", "--config", str(bad), "--out", str(out)) == 2
        assert "annual_rate" in capsys.readouterr().err
        assert snapshot(out) == before

    @pytest.mark.parametrize(
        "row, bad", [("-120.0,inf", "inf"), ("nan,119.19", "nan")], ids=["inf-price", "nan-index"]
    )
    def test_non_finite_calibration_pair_exits_two(self, tmp_path, capfd, row, bad):
        out = run_stages(CONFIGS["crude"], tmp_path / "out", ("diff", "fit", "forecast"))
        pairs = tmp_path / "pairs.csv"
        text = (FIXTURES / "crude_price_pairs.csv").read_text()
        pairs.write_text(text.replace("\n-120.0,119.19\n", f"\n{row}\n"))
        config = fixture_config("crude")
        config["translate"]["calibration"]["pairs_csv"] = str(pairs)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        before = snapshot(out)
        capfd.readouterr()
        assert run("translate", "--config", str(cfg), "--out", str(out)) == 2
        err = capfd.readouterr().err
        assert "calibration pair 2 is not finite" in err and bad in err
        assert "DLASCL" not in err
        assert snapshot(out) == before


    OVERFLOW = "window 2000-01..2001-12: values too large, their sums of squares overflow"

    @pytest.mark.parametrize(
        "k, message",
        [
            (0, OVERFLOW),
            # the DP's refusal names the overflow that left no segmentation feasible
            (1, f"no feasible segmentation: {OVERFLOW}"),
            (2, f"no feasible segmentation: {OVERFLOW}"),
        ],
        ids=["k0", "k1", "k2"],
    )
    def test_fit_whose_sums_of_squares_overflow_exits_two(self, tmp_path, k, message):
        # a headline of 1e200 * (1 + 0.01 i) less a component of 1 + i: R^2 printed 1.000
        # and trend_model.json held an infinite residual sigma
        diff = tmp_path / "difference.csv"
        months = map(MonthStamp(2000, 1).add_months, range(24))
        diff.write_text("date,value\n" + "".join(
            f"{m},{1e200 * (1 + 0.01 * i) - (1 + i)!r}\n" for i, m in enumerate(months)
        ))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would end the run as an internal error
            done = in_process(
                "fit", "--difference-csv", str(diff), "--k", str(k), "--min-len", "6", "--out", str(out)
            )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: segmentation: {message}\n"
        assert not out.exists() or not any(out.iterdir())


class TestMalformedForecastCsv:
    @pytest.mark.parametrize(
        "row, detail",
        [("2011-02,-50.0,-52.0", "not enough values"), ("2011-02,x,-52.0,-48.0", "'x'")],
        ids=["short-row", "bad-number"],
    )
    def test_error_names_file_and_line_and_exits_two(self, tmp_path, capsys, row, detail):
        out = tmp_path / "out"
        out.mkdir()
        forecast = out / "forecast.csv"
        forecast.write_text(f"date,predicted,low,high\n\n2011-01,-50.0,-52.0,-48.0\n{row}\n")
        before = snapshot(out)
        assert run("translate", "--calibration", "heuristic", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{forecast}, line 4: " in err and detail in err
        assert snapshot(out) == before


def set_key(config: dict, key: str, value) -> None:
    """Set the dotted ``key`` of ``config``, making any section it lacks; DELETE removes it."""
    *parents, last = key.split(".")
    for part in parents:
        config = config.setdefault(part, {})
    if value is DELETE:
        del config[last]
    else:
        config[last] = value


def key_paths(section: dict, prefix: tuple = ()):
    for key, value in section.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def pipeline_outs(tmp_path_factory):
    """Every artefact of both fixture pipelines, one directory per config."""
    outs = {}
    for name, steps in PIPELINES.items():
        outs[name] = run_stages(CONFIGS[name], tmp_path_factory.mktemp(name) / "out", steps)
    return outs


@st.composite
def config_edits(draw):
    name = draw(st.sampled_from(sorted(PIPELINES)))
    path = draw(st.sampled_from(list(key_paths(fixture_config(name)))))
    value = draw(st.sampled_from([DELETE, None, [], {}, "x", -1, 1e400, "nan"]))
    return name, path, value, draw(st.sampled_from(PIPELINES[name]))


class TestConfigFuzz:
    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(edit=config_edits())
    def test_deleted_or_retyped_key_exits_zero_or_two(self, pipeline_outs, tmp_path_factory, edit):
        """Any edit of one key exits 0 or 2, never 1, and exit 2 leaves --out as it was."""
        name, path, value, command = edit
        config = fixture_config(name)
        set_key(config, ".".join(path), value)
        work = tmp_path_factory.mktemp("fuzz")
        out = work / "out"
        shutil.copytree(pipeline_outs[name], out)
        bad = work / "bad.json"
        bad.write_text(json.dumps(config))
        before = snapshot(out)
        done = in_process(command, "--config", str(bad), "--out", str(out))
        assert done.returncode in (0, 2), done.stderr
        if done.returncode == 2:
            assert snapshot(out) == before


# Input files that differ from a pipeline's own, written by ``flag_inputs``.
SHIFTED_DIFFERENCE, SHORT_FORECAST, SHORT_HEADLINE = "<difference>", "<forecast>", "<headline>"

FLAG_CASES = {
    "k": ("motor", "fit", {"segmentation.k": 2}, ("--k", "2")),
    "min-len": ("motor", "fit", {"segmentation.min_len": 120}, ("--min-len", "120")),
    **{
        f"difference-csv-{command}": (
            name,
            command,
            {"difference_csv": SHIFTED_DIFFERENCE},
            ("--difference-csv", SHIFTED_DIFFERENCE),
        )
        for name, command in (("motor", "fit"), ("motor", "forecast"), ("crude", "backtest"))
    },
    "forecast-csv": (
        "crude",
        "translate",
        {"translate.forecast_csv": SHORT_FORECAST},
        ("--forecast-csv", SHORT_FORECAST),
    ),
    "calibration": (
        "crude",
        "translate",
        {"translate.calibration": "heuristic"},
        ("--calibration", "heuristic"),
    ),
    "headline-and-id": (
        "motor",
        "diff",
        {"series.headline.path": SHORT_HEADLINE, "series.headline.id": "CPI"},
        ("--headline", SHORT_HEADLINE, "--headline-id", "CPI"),
    ),
    "headline-keeps-id": (
        "motor",
        "diff",
        {"series.headline.path": SHORT_HEADLINE},
        ("--headline", SHORT_HEADLINE),
    ),
    "headline-id": ("motor", "diff", {"series.headline.id": "CPI"}, ("--headline-id", "CPI")),
}


def flag_inputs(out, work) -> dict:
    """Files for ``FLAG_CASES``' placeholders: ``out``'s difference shifted up by 1,
    its first 12 forecast months, and the motor headline cut after 2004-12."""
    header, *rows = (out / "difference.csv").read_text().splitlines()
    shifted = [f"{date},{float(value) + 1.0!r}" for date, value in (r.split(",") for r in rows)]
    lines = {
        SHIFTED_DIFFERENCE: [header, *shifted],
        SHORT_FORECAST: (out / "forecast.csv").read_text().splitlines()[:13],
        SHORT_HEADLINE: (FIXTURES / "cpi_all_items_sa.csv").read_text().splitlines()[:301],
    }
    paths = {}
    for n, (placeholder, file_lines) in enumerate(lines.items()):
        path = work / f"input{n}.csv"
        path.write_text("\n".join(file_lines) + "\n")
        paths[placeholder] = str(path)
    return paths


class TestFlagsSetConfigKeys:
    @pytest.mark.parametrize(
        "name, command, keys, flags", FLAG_CASES.values(), ids=FLAG_CASES.keys()
    )
    def test_flag_run_equals_config_run(
        self, pipeline_outs, tmp_path, capsys, name, command, keys, flags
    ):
        """A flag sets its key: --out and stdout match a run with the key in the config."""
        inputs = flag_inputs(pipeline_outs[name], tmp_path)
        runs = []
        for flagged in (False, True):
            config = fixture_config(name)
            if not flagged:
                for key, value in keys.items():
                    set_key(config, key, inputs.get(value, value))
            cfg = tmp_path / f"config_{flagged}.json"
            cfg.write_text(json.dumps(config))
            out = tmp_path / f"out_{flagged}"
            shutil.copytree(pipeline_outs[name], out)
            argv = [inputs.get(arg, arg) for arg in flags] if flagged else []
            capsys.readouterr()
            assert run(command, "--config", str(cfg), "--out", str(out), *argv) == 0
            runs.append((snapshot(out), capsys.readouterr().out))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "name, command, flag, key",
        [
            ("motor", "fit", "--difference-csv", "'difference_csv'"),
            ("motor", "forecast", "--out", "'out'"),
            ("crude", "translate", "--calibration", "translate.calibration"),
            ("motor", "diff", "--headline", "series.headline.path"),
        ],
        ids=["difference-csv", "out", "calibration", "headline"],
    )
    def test_empty_flag_exits_two_naming_its_key(
        self, pipeline_outs, tmp_path, capsys, name, command, flag, key
    ):
        out = tmp_path / "out"
        shutil.copytree(pipeline_outs[name], out)
        config = fixture_config(name)
        config["out"] = str(out)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        before = snapshot(out)
        capsys.readouterr()
        assert run(command, "--config", str(cfg), flag, "") == 2
        assert key in capsys.readouterr().err
        assert snapshot(out) == before

    @pytest.mark.parametrize(
        "flags",
        [("--headline",), ("--component",), ("--headline", "--component")],
        ids=["headline", "component", "both"],
    )
    def test_relative_series_flag_resolves_against_working_directory(
        self, pipeline_outs, tmp_path, monkeypatch, capsys, flags
    ):
        """A relative series path flag names a file in the working directory, not in the
        config's directory, as --difference-csv and --forecast-csv do."""
        config = fixture_config("motor")
        shutil.copy(config["series"]["headline"]["path"], tmp_path / "local_headline.csv")
        shutil.copy(config["series"]["component"]["path"], tmp_path / "local_component.csv")
        monkeypatch.chdir(tmp_path)
        argv = [arg for flag in flags for arg in (flag, f"local_{flag[2:]}.csv")]
        assert run("diff", "--config", str(FIXTURES / "motor_config.json"), "--out", "out", *argv) == 0
        assert "CUSR0000SA0 - CUSR0000SETB" in capsys.readouterr().out
        expected = (pipeline_outs["motor"] / "difference.csv").read_bytes()
        assert (tmp_path / "out" / "difference.csv").read_bytes() == expected


class TestNoPartialArtefacts:
    """A run that cannot write every output leaves --out as it was, with no temporary file."""

    @pytest.mark.parametrize("failure", ["target-is-directory", "write-fails"])
    def test_forecast_writes_all_or_nothing(self, tmp_path, monkeypatch, capsys, failure):
        out = run_stages(CONFIGS["motor"], tmp_path / "out", ("diff", "fit", "forecast"))
        if failure == "target-is-directory":
            (out / "forecast.json").unlink()
            (out / "forecast.json").mkdir()
        else:
            write_text = Path.write_text

            def disk_full(path, *args, **kwargs):
                if "forecast.json" in path.name:
                    raise OSError(errno.ENOSPC, "No space left on device", str(path))
                return write_text(path, *args, **kwargs)

            monkeypatch.setattr(Path, "write_text", disk_full)
        before, names = snapshot(out), sorted(out.rglob("*"))
        # a longer horizon changes forecast.csv, so a write that went through would show
        config = tmp_path / "shifted.json"
        shifted = fixture_config("motor")
        shifted["forecast"]["horizon"] += 1
        config.write_text(json.dumps(shifted))
        capsys.readouterr()

        assert run("forecast", "--config", str(config), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "forecast.json" in captured.err
        assert captured.out == ""
        assert snapshot(out) == before
        assert sorted(out.rglob("*")) == names

    # each stage's last target in the crude pipeline, made a directory before the stage runs
    @pytest.mark.parametrize(
        "command, target",
        [
            ("diff", "difference.csv"),
            ("fit", "residuals.csv"),
            ("forecast", "forecast_prices.csv"),
            ("translate", "translated_prices.csv"),
            ("backtest", "backtest.json"),
        ],
    )
    def test_no_report_when_the_write_fails(self, tmp_path, capsys, command, target):
        steps = PIPELINES["crude"]
        out = run_stages(CONFIGS["crude"], tmp_path / "out", steps[: steps.index(command)])
        (out / target).mkdir(parents=True)
        before, names = snapshot(out), sorted(out.rglob("*"))
        capsys.readouterr()

        assert run(command, "--config", str(FIXTURES / "crude_config.json"), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert target in captured.err
        assert captured.out == ""
        assert snapshot(out) == before
        assert sorted(out.rglob("*")) == names


MALFORMED_MODELS = {
    "empty-object": "{}",
    "list": "[]",
    "segments-number": '{"segments": 5, "transitions": []}',
    "null-slope": None,  # the motor model with its first slope_B set to null
    "segment-string": '{"segments": ["2000-01"], "transitions": []}',
    "not-json": '{"segments": [',
}


# case: (command, the crude config key that names the file or None for the config, file text)
BROKEN_FILES = {
    "config": ("diff", None, '{"series": '),
    "config-nested-too-deep": ("diff", None, "[" * 100_000),
    "headline-csv": ("diff", "series.headline.path", "date,value\n2000-01,1.0\n2000-02\n"),
    "pairs-csv": (
        "translate",
        "translate.calibration.pairs_csv",
        "index,price_usd\n-120.0,119.19\nx,1.0\n",
    ),
}


class TestMalformedInputFiles:
    """A malformed input file exits 2, names the file and leaves --out as it was."""

    @pytest.mark.parametrize("text", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
    def test_forecast_refuses_malformed_trend_model(self, pipeline_outs, tmp_path, capsys, text):
        # a segment trend reads the model; the motor config's endpoint trend would not
        out = tmp_path / "out"
        shutil.copytree(pipeline_outs["motor"], out)
        model = out / "trend_model.json"
        if text is None:
            doc = json.loads(model.read_text())
            doc["segments"][0]["slope_B"] = None
            text = json.dumps(doc)
        model.write_text(text)
        config = fixture_config("motor")
        config["forecast"]["trend"] = {"kind": "segment"}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        before = snapshot(out)
        capsys.readouterr()
        assert run("forecast", "--config", str(cfg), "--out", str(out)) == 2
        assert str(model) in capsys.readouterr().err
        assert snapshot(out) == before

    def test_forecast_reads_no_model_its_trend_does_not_use(self, pipeline_outs, tmp_path, capsys):
        # the motor forecast draws an endpoint trend, so a corrupt model file goes unread
        out = tmp_path / "out"
        shutil.copytree(pipeline_outs["motor"], out)
        (out / "trend_model.json").write_text("{not json")
        produced = ("forecast.csv", "forecast.json")
        for name in produced:
            (out / name).unlink()
        capsys.readouterr()
        assert run("forecast", "--config", str(CONFIGS["motor"]), "--out", str(out)) == 0
        assert capsys.readouterr() == (GOLDEN_STDOUT["motor forecast"], "")
        for name in produced:
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == GOLDEN_SHA256[f"motor/{name}"], name

    @pytest.mark.parametrize("command, key, text", BROKEN_FILES.values(), ids=BROKEN_FILES.keys())
    def test_error_names_the_file(self, pipeline_outs, tmp_path, capsys, command, key, text):
        out = tmp_path / "out"
        shutil.copytree(pipeline_outs["crude"], out)
        broken = tmp_path / "broken"
        broken.write_text(text)
        cfg = broken
        if key is not None:
            config = fixture_config("crude")
            set_key(config, key, str(broken))
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(config))
        before = snapshot(out)
        capsys.readouterr()
        assert run(command, "--config", str(cfg), "--out", str(out)) == 2
        assert f"{broken}, " in capsys.readouterr().err
        assert snapshot(out) == before


FETCH_ARGS = ("fetch", "--series-id", "CUSR0000SA0", "--start-year", "2009", "--end-year", "2009")


def payload_with_row(row: dict, series_id: str = "CUSR0000SA0") -> dict:
    """A v2 payload for ``series_id`` whose second data row is ``row``."""
    good = {"year": "2009", "period": "M01", "value": "211.9"}
    return {
        "status": "REQUEST_SUCCEEDED",
        "Results": {"series": [{"seriesID": series_id, "data": [good, row]}]},
    }


class FakeUrlopen:
    """Stands in for ``urllib.request.urlopen``: records the URL, JSON body and timeout of
    each request, then answers with ``reply``, an exception to raise, a response to return
    as it is, or else a payload to send as JSON."""

    def __init__(self, reply):
        self.reply = reply
        self.calls = []

    def __call__(self, request, timeout):
        self.calls.append((request.full_url, json.loads(request.data), timeout))
        if isinstance(self.reply, Exception):
            raise self.reply
        if isinstance(self.reply, io.IOBase):
            return self.reply
        return io.BytesIO(json.dumps(self.reply).encode())


class TruncatedBody(io.BytesIO):
    """A response whose body ends 991 bytes short of its Content-Length."""

    def read(self, *args):
        raise http.client.IncompleteRead(b"{" * 9, 991)


class TestFetch:
    @pytest.fixture()
    def api(self, monkeypatch):
        fake = FakeUrlopen(payload_with_row({"year": "2009", "period": "M02", "value": "212.7"}))
        monkeypatch.setattr(urllib.request, "urlopen", fake)
        return fake

    def test_writes_csv(self, tmp_path, monkeypatch, api):
        api.reply = {
            "status": "REQUEST_SUCCEEDED",
            "Results": {
                "series": [
                    {
                        "seriesID": "CUSR0000SA0",
                        "data": [
                            {"year": "2009", "period": "M02", "value": "212.7"},
                            {"year": "2009", "period": "M01", "value": "211.9"},
                        ],
                    }
                ]
            },
        }
        monkeypatch.setenv("TRENDGAP_API_BASE", "http://mirror.test/v2")
        assert run(*FETCH_ARGS, "--out", str(tmp_path)) == 0
        assert (tmp_path / "CUSR0000SA0.csv").read_text() == (
            "date,value\n2009-01,211.9\n2009-02,212.7\n"
        )
        assert api.calls == [
            (
                "http://mirror.test/v2/timeseries/data/",
                {"seriesid": ["CUSR0000SA0"], "startyear": "2009", "endyear": "2009"},
                30.0,
            )
        ]

    def test_unreachable_host_exits_two(self, tmp_path, capsys, api):
        api.reply = urllib.error.URLError("connection refused")
        out = tmp_path / "out"
        assert run(*FETCH_ARGS, "--out", str(out)) == 2
        assert "connection refused" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_out_exits_two(self, tmp_path, monkeypatch, capsys, api):
        """An empty --out is refused, not taken as the working directory."""

        monkeypatch.chdir(tmp_path)
        assert run(*FETCH_ARGS, "--out", "") == 2
        captured = capsys.readouterr()
        assert "--out" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "payload, named",
        [
            (payload_with_row({"year": "2009", "period": "M02"}), "data row 1"),
            (payload_with_row({"period": "M02", "value": "212.7"}), "data row 1"),
            (payload_with_row({"year": "2009", "period": None, "value": "212.7"}), "data row 1"),
            ({"status": "REQUEST_SUCCEEDED", "Results": []}, "not a v2 timeseries payload"),
            ([{"status": "REQUEST_SUCCEEDED"}], "not a v2 timeseries payload"),
        ],
        ids=["no-value", "no-year", "null-period", "results-list", "top-level-list"],
    )
    def test_malformed_payload_exits_two(self, tmp_path, capsys, api, payload, named):
        api.reply = payload
        out = tmp_path / "out"
        assert run(*FETCH_ARGS, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "'CUSR0000SA0'" in err and named in err
        assert not out.exists()

    def test_timeout_flag_reaches_the_request(self, tmp_path, api):
        """--timeout sets fetch.timeout, which urlopen receives as a float."""
        assert run(*FETCH_ARGS, "--out", str(tmp_path), "--timeout", "5") == 0
        [(_, _, timeout)] = api.calls
        assert type(timeout) is float and timeout == 5.0

    @pytest.mark.parametrize("timeout", ["inf", "0", "-1", "nan", "-inf", "0.0"])
    def test_timeout_must_be_finite_and_positive(self, tmp_path, capsys, api, timeout):
        """Refused before any request: inf overflows the socket deadline, 0 makes the
        socket non-blocking, and a negative or NaN one fails in the socket, naming no key."""
        out = tmp_path / "out"
        assert run(*FETCH_ARGS, "--out", str(out), f"--timeout={timeout}") == 2
        assert "fetch.timeout" in capsys.readouterr().err
        assert api.calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "series_id",
        ["../escaped", "sub/dir", ".", "..", ""],
        ids=["parent", "subdirectory", "dot", "dot-dot", "empty"],
    )
    def test_series_id_must_be_a_plain_file_name(
        self, tmp_path, monkeypatch, capsys, api, series_id
    ):
        """The series id names the CSV, so one that is not a plain file name is refused
        before any request: ``../escaped`` would write beside --out, not into it."""
        api.reply = payload_with_row({"year": "2009", "period": "M02", "value": "1"}, series_id)
        monkeypatch.chdir(tmp_path)
        argv = ("fetch", f"--series-id={series_id}", "--start-year", "2009", "--end-year", "2009")
        assert run(*argv, "--out", "out") == 2
        assert "fetch.series_id" in capsys.readouterr().err
        assert api.calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "api_base", ["http://localhost:abc/v2", "notaurl"], ids=["bad-port", "no-scheme"]
    )
    def test_an_invalid_api_base_is_refused_by_name(
        self, tmp_path, monkeypatch, capsys, api, api_base
    ):
        """A base URL with no http(s) scheme, no host or a port that does not parse is
        refused before any request, naming the variable and its value."""
        monkeypatch.setenv("TRENDGAP_API_BASE", api_base)
        monkeypatch.chdir(tmp_path)
        assert run(*FETCH_ARGS, "--out", "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: TRENDGAP_API_BASE must be an http(s) URL")
        assert err.endswith(f"; got {api_base!r}\n")
        assert api.calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "reply",
        [
            lambda: http.client.BadStatusLine("garbage"),
            TruncatedBody,
            lambda: io.BytesIO(b"not json"),
            lambda: io.BytesIO(b"\x80"),
            lambda: io.BytesIO(b"[" * 100000),
        ],
        ids=["bad-status-line", "truncated-body", "not-json", "not-utf-8", "nested-too-deep"],
    )
    def test_malformed_http_response_exits_two(self, tmp_path, capsys, api, reply):
        """An answer the HTTP client cannot read, or a body that is not JSON, is invalid
        input, named by its series."""
        api.reply = reply()
        out = tmp_path / "out"
        assert run(*FETCH_ARGS, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: API response for 'CUSR0000SA0' is malformed: ")
        assert not out.exists()


#: The usage lines and the flag and subcommand rows of ``trendgap [<sub>] --help`` at
#: 80 columns. The section titles are left out: Python 3.10 titles the flags
#: "optional arguments:", later versions "options:".
HELP_ROWS = {
    "": """\
usage: trendgap [-h] {diff,fit,forecast,translate,backtest,fetch} ...
  {diff,fit,forecast,translate,backtest,fetch}
    diff                difference two index series
    fit                 fit trends and turning points
    forecast            forecast the difference path
    translate           translate a forecast into prices
    backtest            replay forecasts against actuals
    fetch               fetch a published series into CSV
  -h, --help            show this help message and exit
""",
    "diff": """\
usage: trendgap diff [-h] [--config CONFIG] [--out OUT] [--headline HEADLINE]
                     [--headline-id HEADLINE_ID] [--component COMPONENT]
                     [--component-id COMPONENT_ID]
  -h, --help            show this help message and exit
  --config CONFIG       JSON run configuration
  --out OUT             output directory (overrides config)
  --headline HEADLINE   headline series CSV path
  --headline-id HEADLINE_ID
  --component COMPONENT
                        component series CSV path
  --component-id COMPONENT_ID
""",
    "fit": """\
usage: trendgap fit [-h] [--config CONFIG] [--out OUT]
                    [--difference-csv DIFFERENCE_CSV] [--k K]
                    [--min-len MIN_LEN]
  -h, --help            show this help message and exit
  --config CONFIG       JSON run configuration
  --out OUT             output directory (overrides config)
  --difference-csv DIFFERENCE_CSV
                        difference CSV (default <out>/difference.csv)
  --k K                 number of breakpoints
  --min-len MIN_LEN     minimum piece length (months)
""",
    "forecast": """\
usage: trendgap forecast [-h] [--config CONFIG] [--out OUT]
                         [--difference-csv DIFFERENCE_CSV]
  -h, --help            show this help message and exit
  --config CONFIG       JSON run configuration
  --out OUT             output directory (overrides config)
  --difference-csv DIFFERENCE_CSV
                        difference CSV (default <out>/difference.csv)
""",
    "translate": """\
usage: trendgap translate [-h] [--config CONFIG] [--out OUT]
                          [--forecast-csv FORECAST_CSV]
                          [--calibration CALIBRATION]
  -h, --help            show this help message and exit
  --config CONFIG       JSON run configuration
  --out OUT             output directory (overrides config)
  --forecast-csv FORECAST_CSV
                        forecast CSV (default <out>/forecast.csv)
  --calibration CALIBRATION
                        'heuristic' or omit to use the config calibration
""",
    "backtest": """\
usage: trendgap backtest [-h] [--config CONFIG] [--out OUT]
                         [--difference-csv DIFFERENCE_CSV]
  -h, --help            show this help message and exit
  --config CONFIG       JSON run configuration
  --out OUT             output directory (overrides config)
  --difference-csv DIFFERENCE_CSV
                        difference CSV (default <out>/difference.csv)
""",
    "fetch": """\
usage: trendgap fetch [-h] --series-id SERIES_ID --start-year START_YEAR
                      --end-year END_YEAR [--out OUT] [--timeout TIMEOUT]
  -h, --help            show this help message and exit
  --series-id SERIES_ID
  --start-year START_YEAR
  --end-year END_YEAR
  --out OUT             output directory (default: the working directory)
  --timeout TIMEOUT
""",
}


@pytest.mark.parametrize("command", list(HELP_ROWS), ids=lambda c: c or "top-level")
def test_help_rows_are_pinned(monkeypatch, capsys, command):
    """Every flag keeps its name, metavar, order and help text."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        run(*command.split(), "--help")
    assert stop.value.code == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert "".join(line for line in lines if line.startswith(("usage:", " "))) == HELP_ROWS[command]
