"""Command-line pipeline: diff, fit, forecast, translate, backtest, fetch.

Every subcommand, ``fetch`` included, is a stage function ``(config, base, out)``:
it reads a JSON config (each flag sets one config key), validates everything up
front and computes its outputs, report and warnings in memory. ``main`` calls each
stage the same way, writes every output or none and prints the rest only after the
write, so a failing run leaves no partial artifacts and prints no report or
warning. Exit codes: 0 success, 1 internal error, 2 invalid input or config.

Only ``series`` is imported here, and it loads no numpy. Every other name is
reached through the package as ``tg.<module>.<name>``, and the package loads a
module on the first such use, so a process loads no trend, fitting, forecasting,
price or backtest code (nor numpy) that its subcommand never uses.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path

import trendgap as tg

from .series import (
    DifferenceSeries,
    MonthlySeries,
    MonthStamp,
    SeriesError,
    _month_text,
    _ordinal,
    _write_csv,
    difference,
    months_between,
    parse_series_csv,
    series_to_csv,
)

DEFAULT_API_BASE = "https://api.bls.gov/publicAPI/v2"

#: A forecast's trend when its config names none: the fitted model's last segment.
_DEFAULT_TREND = {"kind": "segment"}

#: What a stage returns: the text of each file to write, and the report and warning lines to print.
StageResult = tuple[dict[Path, str], list[str], list[str]]


class ConfigError(ValueError):
    """The run configuration is incomplete or inconsistent."""


_REQUIRED = object()


class Section:
    """A JSON object of the config and its dotted key path, which errors name."""

    def __init__(self, values: dict, path: str = ""):
        self.values = values
        self.path = path

    def key(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, convert=None, default=_REQUIRED):
        """``values[key]`` passed through ``convert``.

        A missing required key, or a value ``convert`` rejects, raises ConfigError
        naming the full key path. ``null`` counts as absent when the default is None.
        """
        value = self.values.get(key)
        if key not in self.values or (value is None and default is None):
            if default is _REQUIRED:
                raise ConfigError(f"config key '{self.key(key)}' is missing")
            return default
        if convert is None:
            return value
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key '{self.key(key)}': {exc}") from None

    def section(self, key: str, default=_REQUIRED) -> Section | None:
        """The object at ``key``; when absent, ``default`` (None, or a dict to use)."""
        values = self.get(key, _object, default)
        return None if values is None else Section(values, self.key(key))


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


def _month(token) -> MonthStamp:
    if not isinstance(token, str):
        raise TypeError(f"expected a 'YYYY-MM' string, got {token!r}")
    return MonthStamp.parse(token)


def _months(tokens) -> list[MonthStamp]:
    if not isinstance(tokens, list):
        raise TypeError(f"expected a list of 'YYYY-MM' strings, got {tokens!r}")
    return [_month(token) for token in tokens]


def _path(value) -> Path:
    if not isinstance(value, str) or not value:
        raise TypeError(f"expected a file path, got {value!r}")
    return Path(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _integer(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _anchor(pair) -> tuple[MonthStamp, float]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise TypeError(f"expected a ['YYYY-MM', value] pair, got {pair!r}")
    return _month(pair[0]), _number(pair[1])


def _load(path: Path, parse):
    """``parse`` applied to the text of the file ``path``; a refusal names the file."""
    if not path.exists():
        raise ConfigError(f"file not found: {path}")
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ConfigError(f"{path}, {exc}") from None


def _context(args) -> tuple[Section, Path, Path]:
    """The config with the given flags set in it, the directory its relative paths
    resolve against, and the output directory."""
    path = vars(args).get("config")  # fetch takes no --config
    values = {} if path is None else _load(Path(path), json.loads)
    if not isinstance(values, dict):
        raise ConfigError("config must be a JSON object")
    config = Section(values)
    # each attribute but these three is a flag, named by the dotted config key it sets
    for key, value in vars(args).items():
        if key not in ("command", "config", "func") and value is not None:
            *parents, last = key.split(".")
            section = config
            for part in parents:
                section.values.setdefault(part, {})
                section = section.section(part)
            section.values[last] = value
    base = Path(path).parent if path else Path.cwd()
    if config.values.get("out") in (None, ""):
        raise ConfigError("no output directory: pass --out or set 'out' in the config")
    return config, base, config.get("out", _path)


def _cwd_path(value: str) -> str:
    """A path flag's value made absolute against the working directory ("" stays, to be refused)."""
    return str(Path.cwd() / value) if value else value


def _load_series(entry: Section, base: Path) -> MonthlySeries:
    path = base / entry.get("path", _path)  # an absolute path replaces base
    series_id = entry.get("id", _text, None)
    if series_id is None:
        series_id = path.stem
    base_note = entry.get("base_note", _text, "")
    return _load(path, lambda text: parse_series_csv(text, series_id, base_note=base_note))


def _write_all(outputs: dict[Path, str]) -> None:
    """Write every output or none: each to a temporary file, renamed once all are written."""
    for path in outputs:
        if path.exists() and not path.is_file():
            raise ConfigError(f"cannot write {path}: it exists and is not a regular file")
        path.parent.mkdir(parents=True, exist_ok=True)
    temporaries = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in outputs}
    try:
        for path, text in outputs.items():
            temporaries[path].write_text(text, encoding="utf-8")
        for path, temporary in temporaries.items():
            temporary.replace(path)
    finally:
        for temporary in temporaries.values():
            temporary.unlink(missing_ok=True)


def _difference_from_config(config: Section, out: Path) -> DifferenceSeries:
    path = config.get("difference_csv", _path, None) or out / "difference.csv"
    parsed = _load(path, lambda text: parse_series_csv(text, "difference"))
    return DifferenceSeries._from_arrays(
        parsed._months, parsed._values, minuend_id="minuend", subtrahend_id="subtrahend"
    )


# ---------------------------------------------------------------- subcommands


def cmd_diff(config: Section, base: Path, out: Path) -> StageResult:
    series_cfg = config.section("series", {})
    headline = _load_series(series_cfg.section("headline"), base)
    component = _load_series(series_cfg.section("component"), base)
    warnings = []
    for series in (headline, component):
        gaps = series.missing_months()
        if gaps:
            warnings.append(
                f"warning: {series.series_id} is missing {len(gaps)} months "
                f"inside its span (first: {gaps[0]})"
            )
    diff = difference(headline, component)
    if all(v == 0.0 for v in diff.values):
        warnings.append("warning: difference is identically zero")
    report = [
        f"difference {diff.minuend_id} - {diff.subtrahend_id}: "
        f"{len(diff)} months, {diff.start}..{diff.end}"
    ]
    return {out / "difference.csv": series_to_csv(diff)}, report, warnings


def cmd_fit(config: Section, base: Path, out: Path) -> StageResult:
    seg = config.section("segmentation")
    diff = _difference_from_config(config, out)
    k = seg.get("k", _integer, 1)
    min_len = seg.get("min_len", _integer, 60)
    halfwidth = seg.get("transition_halfwidth", _integer, 12)

    def cut(series, start, end, *keys):
        """``series`` cut to ``start..end``; a cut with no month names the ``keys`` that set it."""
        try:
            return series.restrict(start, end)
        except SeriesError:
            named = " and ".join(seg.key(key) for key in keys if seg.values.get(key) is not None)
            empty = f"the difference {series.start}..{series.end} has no data in {start}..{end}"
            raise ConfigError(f"{named}: {empty}") from None

    fit_start, fit_end = seg.get("fit_start", _month, None), seg.get("fit_end", _month, None)
    diff = cut(diff, fit_start or diff.start, fit_end or diff.end, "fit_start", "fit_end")
    detect_end = seg.get("detect_end", _month, None)
    detect_diff = diff if detect_end is None else cut(diff, diff.start, detect_end, "detect_end")
    tail_start = seg.get("tail_start", _month, None)
    tail = 0 if tail_start is None else months_between(diff.end, tail_start) + 1
    if tail > tg.trend.MAX_TRANSITION_MONTHS:
        raise ConfigError(
            f"config key '{seg.key('tail_start')}': {tail_start}..{diff.end} exceeds the "
            f"{tg.trend.MAX_TRANSITION_MONTHS}-month limit: {tail} months"
        )
    try:
        breakpoints = tg.fitting.detect_breakpoints(detect_diff, k, min_len)
        model = tg.fitting.build_trend_model(diff, breakpoints, halfwidth, tail_start=tail_start)
    except tg.fitting.FitError as exc:
        raise ConfigError(f"{seg.path}: {exc}") from None

    outputs = {
        out / "trend_model.json": model.to_json(),
        out / "residuals.csv": _residuals_csv(diff, model),
    }
    report = [
        f"segment {i}: {seg_fit.start}..{seg_fit.end}  "
        f"slope {seg_fit.slope:+.2f}/yr  R^2 {seg_fit.r_squared:.3f}"
        for i, seg_fit in enumerate(model.segments)
    ]
    for w in model.transitions:
        report.append(f"transition: {w.start}..{w.end} ({w.duration_months} months)")
    return outputs, report, []


def _residuals_csv(diff: DifferenceSeries, model: tg.trend.TrendModel) -> str:
    cells = []
    for month, value in zip(diff._months, diff._values):
        zone, segment = model._zone(month)
        trend = None if segment is None else segment._at(month - _ordinal(segment.start))
        residual = None if segment is None else value - trend
        cells.append((_month_text(month), value, trend, residual, zone))
    return _write_csv("date,value,predicted,residual,zone", cells)


def _model_segment(model_path: Path | None, trend: Section, key: str):
    if model_path is None or not model_path.exists():
        raise ConfigError(
            f"{trend.key('kind')} {trend.get('kind')!r} needs trend_model.json, which is "
            "missing from the output directory; 'trendgap fit' writes it"
        )
    model = _load(model_path, tg.trend.TrendModel.from_json)
    index = trend.get(key, _integer, -1)
    try:
        return model.segments[index]
    except IndexError:
        raise ConfigError(f"config key '{trend.key(key)}': {index} out of range") from None


def _forecaster_from_config(fc: Section, model_path: Path | None):
    """Read the forecast section ``fc`` once: its mode, its trend and that mode's keys.

    Returns ``build(history, origin, horizon, where)``, the forecast from ``history``,
    which reads no config value. A refusal names ``fc``, then ``where``; a ``fit`` trend's
    window, which is fitted on each history, names its keys, then ``where``.
    """
    mode = fc.get("mode")
    if mode not in (tg.forecast.ALONG_TREND, tg.forecast.RETURN_TO_TREND, tg.forecast.PENDULUM):
        raise ConfigError(f"config key '{fc.key('mode')}': unknown forecast mode {mode!r}")
    spec = fc.section("trend", _DEFAULT_TREND)
    kind, trend = spec.get("kind", default=None), None
    try:
        if kind == "endpoint":
            trend = tg.forecast.endpoint_trend(spec.get("start", _anchor), spec.get("end", _anchor))
        elif kind == "fit":
            window = spec.get("start", _month), spec.get("end", _month)
        elif kind == "segment":
            trend = _model_segment(model_path, spec, "index")
        elif kind == "mirror":
            prev = _model_segment(model_path, spec, "segment_index")
            pivot, duration = spec.get("pivot", _anchor), spec.get("duration", _integer, 84)
            trend = tg.forecast.mirror_trend(prev, pivot, duration)
        else:
            raise ConfigError(
                f"config key '{spec.key('kind')}': unknown trend kind {kind!r} "
                "(endpoint | fit | segment | mirror)"
            )
    except tg.forecast.ForecastError as exc:
        raise ConfigError(f"{fc.path}: {exc}") from None
    if mode == tg.forecast.RETURN_TO_TREND:
        deadline = fc.get("deadline", _month)
    elif mode == tg.forecast.PENDULUM:
        amplitude, half_period = fc.get("amplitude", _number), fc.get("half_period", _integer)

    def build(history, origin, horizon, where=""):
        line = trend
        if line is None:
            try:
                line = tg.fitting.fit_ols(history, window)
            except tg.fitting.FitError as exc:
                keys = f"{spec.key('start')} and {spec.key('end')}{where}"
                raise ConfigError(f"{keys}: {exc}") from None
        try:
            if mode == tg.forecast.ALONG_TREND:
                return tg.forecast.forecast_along_trend(line, origin, horizon)
            try:
                current = (origin, history.value_at(origin))
            except SeriesError as exc:
                raise ConfigError(f"{fc.key('origin')}: {exc}") from None
            if mode == tg.forecast.PENDULUM:
                return tg.forecast.forecast_pendulum(current, line, amplitude, half_period, horizon)
            if horizon < months_between(deadline, origin):
                raise ConfigError(f"horizon {horizon} ends before {fc.key('deadline')} {deadline}")
            return tg.forecast.forecast_return_to_trend(current, line, deadline, horizon)
        except tg.forecast.ForecastError as exc:
            raise ConfigError(f"{fc.path}{where}: {exc}") from None

    return build


def _calibration_from_config(config: Section, base: Path):
    cal_cfg = config.get("calibration", default=None)
    if cal_cfg in (None, "none"):
        return None
    if cal_cfg == "heuristic":
        return tg.prices.CRUDE_OIL_HEURISTIC
    if isinstance(cal_cfg, dict) and cal_cfg.get("kind") == "fitted":
        path = base / config.section("calibration").get("pairs_csv", _path)
        return tg.prices.calibrate_price(_load(path, tg.prices.parse_calibration_pairs_csv))
    raise ConfigError(f"{config.key('calibration')}: unknown calibration {cal_cfg!r}")


def _prices_csv(forecast: tg.forecast.Forecast, cal) -> str:
    band = forecast.band_sigma
    rows = []
    for stamp, value in forecast.path:
        edges = sorted(tg.prices.index_to_price(cal, value + d) for d in (-band, band))
        rows.append((stamp, tg.prices.index_to_price(cal, value), *edges))
    return _write_csv("date,price_usd,low,high", rows)


def cmd_forecast(config: Section, base: Path, out: Path) -> StageResult:
    fc = config.section("forecast")
    horizon = fc.get("horizon", _integer)
    if horizon < 1:
        raise ConfigError(f"{fc.key('horizon')} must be >= 1, got {horizon}")

    diff = _difference_from_config(config, out)
    origin = fc.get("origin", _month)
    f = _forecaster_from_config(fc, out / "trend_model.json")(diff, origin, horizon)

    outputs = {out / "forecast.csv": f.to_csv(), out / "forecast.json": f.to_json()}
    cal = _calibration_from_config(config, base)
    if cal is not None:
        outputs[out / "forecast_prices.csv"] = _prices_csv(f, cal)
    return outputs, [
        f"forecast ({f.mode}): {f.path[0][0]}..{f.path[-1][0]}, {len(f.path)} months",
        f"terminal value {f.path[-1][1]:+.2f}",
    ], []


def cmd_translate(config: Section, base: Path, out: Path) -> StageResult:
    tr = config.section("translate", {})
    forecast_csv = tr.get("forecast_csv", _path, None) or out / "forecast.csv"
    f = _load(forecast_csv, tg.forecast.Forecast.from_csv)
    cal_section = tr if tr.get("calibration", default=None) is not None else config
    cal = _calibration_from_config(cal_section, base)
    if cal is None:
        keys = f"{tr.key('calibration')} or {config.key('calibration')}"
        raise ConfigError(f"translate needs a calibration: set {keys}")

    outputs = {out / "translated_prices.csv": _prices_csv(f, cal)}

    headline_cfg = tr.section("headline", None)
    if headline_cfg is not None:
        headline = _load_series(headline_cfg, base)
        rate = tr.get("annual_rate", _number, None)
        if rate is None:
            rate = tg.prices.trailing_growth_rate(headline, f.origin)
        extrapolated = tg.prices.extrapolate_headline(headline, f.origin, len(f.path), rate)
        component = tg.prices.component_index_from_difference(extrapolated, f)
        outputs[out / "component_index.csv"] = _write_csv("date,component_index", component)

    first, last = f.path[0], f.path[-1]
    return outputs, [
        f"prices: {first[0]} -> {tg.prices.index_to_price(cal, first[1]):.2f} USD, "
        f"{last[0]} -> {tg.prices.index_to_price(cal, last[1]):.2f} USD"
    ], []


def cmd_backtest(config: Section, base: Path, out: Path) -> StageResult:
    bt = config.section("backtest")
    fc = bt.section("forecast", None) or config.section("forecast")
    trend = fc.section("trend", _DEFAULT_TREND)
    if trend.get("kind", default=None) in ("segment", "mirror"):
        raise ConfigError(
            f"{trend.key('kind')} {trend.get('kind')!r} needs trend_model.json, which backtest "
            "never uses: that model is fitted on the whole series and so sees past every origin"
        )
    diff = _difference_from_config(config, out)

    origins = bt.get("origins", _months, [])
    if not origins:
        raise ConfigError("backtest.origins must list at least one origin")
    horizon = bt.get("horizon", _integer)
    if horizon < 1:
        raise ConfigError(f"{bt.key('horizon')} must be >= 1, got {horizon}")

    def replay(forecaster) -> list[tg.backtest.BacktestReport]:
        try:
            return tg.backtest.rolling_backtest(diff, forecaster, origins, horizon)
        except tg.backtest.BacktestError as exc:
            raise ConfigError(f"{bt.key('origins')}: {exc}") from None

    baseline_cfg = bt.section("baseline", None)
    baseline_reports: list[tg.backtest.BacktestReport] = []
    if baseline_cfg is not None:
        fit_start = baseline_cfg.get("fit_start", _month)
        window = (fit_start, baseline_cfg.get("fit_end", _month))

        def baseline(history, origin, h):
            # the history ends at the origin, so the fit never sees past it
            try:
                trend = tg.fitting.fit_ols(history, window)
            except tg.fitting.FitError as exc:
                where = f"{baseline_cfg.path} at origin {origin}"
                if fit_start >= origin:
                    key = baseline_cfg.key("fit_start")
                    where = f"{key} {fit_start} is not before origin {origin}"
                raise ConfigError(f"{where}: {exc}") from None
            return tg.forecast.forecast_along_trend(trend, origin, h)

        # first, so that an origin too early for the baseline's window is named as such
        baseline_reports = replay(baseline)

    # no trend model: it is fitted on the whole series, past every origin
    build = _forecaster_from_config(fc, None)
    reports = replay(lambda history, origin, h: build(history, origin, h, f" at origin {origin}"))

    doc: dict = {"reports": [r.to_dict() for r in reports]}
    if baseline_reports:
        doc["baseline_reports"] = [r.to_dict() for r in baseline_reports]
    outputs = {
        out / "backtest.csv": tg.backtest.reports_to_csv(reports),
        out / "backtest.json": json.dumps(doc, indent=2) + "\n",
    }
    report = ["origin    n   mae      rmse     bias     hit_rate"]
    for r in reports:
        report.append(
            f"{r.origin}  {r.n:<3d} {r.mae:<8.3f} {r.rmse:<8.3f} "
            f"{r.bias:<+8.3f} {r.direction_hit_rate:.2f}"
        )
    for r in baseline_reports:
        report.append(f"{r.origin}  baseline mae {r.mae:.3f} (rmse {r.rmse:.3f})")
    return outputs, report, []


def cmd_fetch(config: Section, base: Path, out: Path) -> StageResult:
    from http.client import HTTPException
    from urllib.parse import urlsplit
    from urllib.request import Request, urlopen

    fetch = config.section("fetch")
    series_id = fetch.get("series_id", _text)
    if series_id in ("", ".", "..") or os.path.basename(series_id) != series_id:
        raise ConfigError(f"{fetch.key('series_id')} must be a plain file name, got {series_id!r}")
    timeout = fetch.get("timeout", _number)
    if not (timeout > 0 and math.isfinite(timeout)):
        raise ConfigError(f"{fetch.key('timeout')} must be finite and > 0, got {timeout}")
    query = {
        "seriesid": [series_id],
        "startyear": str(fetch.get("start_year", _integer)),
        "endyear": str(fetch.get("end_year", _integer)),
    }
    api_base = os.environ.get("TRENDGAP_API_BASE", DEFAULT_API_BASE)
    try:
        parts = urlsplit(api_base)
        parts.port  # raises ValueError on a port that is not a number in 0..65535
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"TRENDGAP_API_BASE must be an http(s) URL with a host and, if any, a valid port; "
            f"got {api_base!r}"
        ) from None
    request = Request(
        api_base + "/timeseries/data/",
        data=json.dumps(query).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    malformed = f"API response for {series_id!r} is malformed"
    try:
        with urlopen(request, timeout=timeout) as response:
            body = response.read()
    except HTTPException as exc:  # a status line or body the HTTP client cannot read
        raise ConfigError(f"{malformed}: {exc!r}") from None
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or nested too deep
        raise ConfigError(f"{malformed}: {exc!r}") from None
    series = series_from_api_payload(payload, series_id)
    report = f"fetched {series_id}: {len(series)} months, {series.start}..{series.end}"
    return {out / f"{series_id}.csv": series_to_csv(series)}, [report], []


def series_from_api_payload(payload, series_id: str):
    """Convert a v2 timeseries JSON payload into a MonthlySeries; refuse any other shape."""
    where = f"API response for {series_id!r}"
    try:
        if payload.get("status") != "REQUEST_SUCCEEDED":
            raise ConfigError(f"API request failed: {payload.get('message')}")
        entries = payload.get("Results", {}).get("series", [])
        found = [e for e in entries if e.get("seriesID") == series_id]
        rows = list(found[0].get("data", [])) if found else None
    except (AttributeError, TypeError):
        raise ConfigError(f"{where} is not a v2 timeseries payload") from None
    if rows is None:
        raise ConfigError(f"series {series_id!r} not in API response")
    obs = []
    for n, row in enumerate(rows):
        try:
            period = row["period"]
            if period.startswith("M") and period != "M13":  # M13 is the annual average
                obs.append((MonthStamp(int(row["year"]), int(period[1:])), float(row["value"])))
        except (KeyError, TypeError, AttributeError, ValueError):
            raise ConfigError(f"{where}, data row {n} is malformed: {row!r}") from None
    obs.sort(key=lambda o: o[0])
    return MonthlySeries(series_id, "", tuple(obs))


# ----------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trendgap",
        description="Trend-gap analysis of price-index differences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON run configuration")
        setting(p, "--out", "out", help="output directory (overrides config)")
        p.set_defaults(func=func)
        return p

    def setting(p, flag, key, **options):
        """Declare ``flag`` as setting the dotted config key ``key``."""
        p.add_argument(flag, dest=key, metavar=flag[2:].replace("-", "_").upper(), **options)

    p = command("diff", cmd_diff, "difference two index series")
    for role in ("headline", "component"):
        path_help = f"{role} series CSV path"
        setting(p, f"--{role}", f"series.{role}.path", type=_cwd_path, help=path_help)
        setting(p, f"--{role}-id", f"series.{role}.id")

    difference_help = "difference CSV (default <out>/difference.csv)"
    p = command("fit", cmd_fit, "fit trends and turning points")
    setting(p, "--difference-csv", "difference_csv", help=difference_help)
    setting(p, "--k", "segmentation.k", type=int, help="number of breakpoints")
    setting(p, "--min-len", "segmentation.min_len", type=int, help="minimum piece length (months)")

    p = command("forecast", cmd_forecast, "forecast the difference path")
    setting(p, "--difference-csv", "difference_csv", help=difference_help)

    p = command("translate", cmd_translate, "translate a forecast into prices")
    forecast_help = "forecast CSV (default <out>/forecast.csv)"
    setting(p, "--forecast-csv", "translate.forecast_csv", help=forecast_help)
    calibration_help = "'heuristic' or omit to use the config calibration"
    setting(p, "--calibration", "translate.calibration", help=calibration_help)

    p = command("backtest", cmd_backtest, "replay forecasts against actuals")
    setting(p, "--difference-csv", "difference_csv", help=difference_help)

    p = sub.add_parser("fetch", help="fetch a published series into CSV")
    p.set_defaults(func=cmd_fetch)
    setting(p, "--series-id", "fetch.series_id", required=True)
    setting(p, "--start-year", "fetch.start_year", type=int, required=True)
    setting(p, "--end-year", "fetch.end_year", type=int, required=True)
    out_help = "output directory (default: the working directory)"
    setting(p, "--out", "out", default=".", help=out_help)
    setting(p, "--timeout", "fetch.timeout", type=float, default=30.0)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one stage, write every output it returns or none, then print its warnings and report."""
    args = build_parser().parse_args(argv)
    try:
        outputs, report, warnings = args.func(*_context(args))
        _write_all(outputs)
        for line in warnings:
            print(line, file=sys.stderr)
        for line in report:
            print(line)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> int:
    """The ``trendgap`` process: ``main()`` on ``sys.argv``, then ``gc.freeze()``.

    Before ``main``, ``OPENBLAS_NUM_THREADS`` defaults to 1 (a value already set wins):
    the only BLAS work of any stage is a least-squares fit with two unknowns, and
    OpenBLAS would otherwise start a pool of worker threads when numpy loads.
    Frozen objects are left out of every collection, so the interpreter's exit does
    not collect what the run left behind; stdio is flushed and atexit handlers run as
    usual. ``finally`` covers argparse's ``SystemExit`` (``--help``, usage errors).
    Only this process entry sets the variable and freezes: ``main`` leaves a Python
    caller's environment and heap alone.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
