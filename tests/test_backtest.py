"""Forecast scoring and the rolling-origin harness."""

import numpy as np
import pytest

from trendgap import (
    BacktestError,
    BacktestReport,
    DifferenceSeries,
    Forecast,
    MonthStamp,
    fit_ols,
    forecast_along_trend,
    reports_to_csv,
    rolling_backtest,
    score,
)

from conftest import make_diff, make_forecast
from oracles import lookup_score, loop_oracle, old_score


def holed_forecast(first, offsets, values):
    """A forecast whose path holds ``values`` at the months ``first`` + ``offsets`` (the
    first offset 0, the rest increasing), with no band."""
    path = tuple((first.add_months(k), float(v)) for k, v in zip(offsets, values))
    return Forecast("along-trend", first.add_months(-1), path, 0.0)


def scored(scorer, forecast, actual):
    try:
        return scorer(forecast, actual)
    except BacktestError as exc:
        return str(exc)


class TestScore:
    def test_gapped_actuals_match_the_month_by_month_oracle(self):
        rng = np.random.default_rng(52)
        outcomes = set()
        for trial in range(300):
            n = int(rng.integers(1, 80))
            keep = rng.random(n) < rng.choice([1.0, 0.8, 0.4])
            act = np.round(rng.normal(0, 10, n), int(rng.choice([0, 1, 8])))
            first = MonthStamp(2000, 1).add_months(int(rng.integers(0, 12)))
            obs = tuple((first.add_months(i), float(v)) for i, v in enumerate(act) if keep[i])
            if not obs:
                continue
            actual = DifferenceSeries("m", "s", obs)
            # forecasts start before, inside and after the actuals
            start = first.add_months(int(rng.integers(-30, n + 5)))
            pred = np.round(rng.normal(0, 10, int(rng.integers(1, 30))), int(rng.choice([0, 8])))
            f = make_forecast(str(start), pred)
            want = scored(old_score, f, actual)
            assert scored(score, f, actual) == want, trial
            outcomes.add(type(want))
        assert outcomes == {BacktestReport, str}

    def test_random_paths_match_the_lookup_scorer(self, monkeypatch):
        lookups, lookup = [], DifferenceSeries._lookup  # one entry per call

        def counted_lookup(series, months):
            lookups.append(months)
            return lookup(series, months)

        monkeypatch.setattr(DifferenceSeries, "_lookup", counted_lookup)
        rng = np.random.default_rng(20)
        seen, branches = set(), set()
        for trial in range(600):
            n = int(rng.integers(1, 40))
            keep = rng.random(n) < rng.choice([1.0, 0.7, 0.3])
            # few distinct small values: equal errors, zero changes, -0.0 and exact zeros
            act = rng.normal(0, 5, n)
            if rng.random() < 0.5:
                act = rng.choice([-2.0, -0.0, 0.0, 1.0, 1.5], n)
            first = MonthStamp(1999, 1).add_months(int(rng.integers(0, 12)))
            obs = tuple((first.add_months(i), float(v)) for i, v in enumerate(act) if keep[i])
            if not obs:
                continue
            actual = DifferenceSeries("m", "s", obs)
            # paths before, across, inside and after the actuals
            start = first.add_months(int(rng.integers(-20, n + 3)))
            m = int(rng.integers(1, 25))
            pred = rng.normal(0, 5, m)
            if rng.random() < 0.5:
                pred = rng.choice([-2.0, -0.0, 0.0, 1.0], m)
            f = make_forecast(str(start), pred)
            if rng.random() < 0.3:  # a path with holes: each month 1 to 5 after the last
                offsets = np.cumsum([0, *rng.integers(1, 6, m - 1)]).tolist()
                f = holed_forecast(start, offsets, pred)
            origin = start.add_months(-1) if rng.random() < 0.5 else None
            lookups.clear()
            try:
                want = lookup_score(f, actual, origin)
            except BacktestError as exc:
                with pytest.raises(BacktestError) as raised:
                    score(f, actual, origin)
                assert str(raised.value) == str(exc), trial
                seen.add("no overlap")
                continue
            got = score(f, actual, origin)
            assert got == want and repr(got) == repr(want), trial
            seen.add("scored" if want.direction_hit_rate in (0.0, 1.0) else "hit rate")
            branches.add("lookup" if lookups else "run")
        assert seen == {"scored", "no overlap", "hit rate"}
        assert branches == {"lookup", "run"}

    def test_holed_path_against_a_run_of_actuals(self):
        # path months 1, 6 and 11 of 2000 against actuals 5..7: only June is shared
        f = holed_forecast(MonthStamp(2000, 1), [0, 5, 10], [1.0, 2.0, 3.0])
        actual = make_diff("2000-05", [0.5, 1.5, 2.5])
        got = score(f, actual)
        assert got.n == 1 and got == lookup_score(f, actual)

    def test_perfect_forecast(self):
        values = [1.0, 3.0, 2.0, 5.0]
        f = make_forecast("2010-01", values)
        actual = make_diff("2010-01", values)
        report = score(f, actual)
        assert report.mae == 0.0
        assert report.rmse == 0.0
        assert report.bias == 0.0
        assert report.direction_hit_rate == 1.0
        assert report.n == 4

    def test_alternating_errors(self):
        actual_values = [10.0, 11.0, 12.0, 13.0]
        predicted = [12.0, 9.0, 14.0, 11.0]  # errors +2, -2, +2, -2
        f = make_forecast("2010-01", predicted)
        actual = make_diff("2010-01", actual_values)
        report = score(f, actual)
        assert report.mae == pytest.approx(2.0)
        assert report.rmse == pytest.approx(2.0)
        assert report.bias == pytest.approx(0.0)

    def test_random_pairs_match_loop_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            pred = rng.normal(0, 10, n)
            act = rng.normal(0, 10, n)
            f = make_forecast("2005-01", pred)
            actual = make_diff("2005-01", act)
            report = score(f, actual)
            mae, rmse, bias, hit = loop_oracle(pred, act)
            assert report.mae == pytest.approx(mae, abs=1e-12)
            assert report.rmse == pytest.approx(rmse, abs=1e-12)
            assert report.bias == pytest.approx(bias, abs=1e-12)
            assert report.direction_hit_rate == pytest.approx(hit, abs=1e-12)
            assert report.rmse >= report.mae >= abs(report.bias) - 1e-12

    def test_partial_overlap_scores_common_months_only(self):
        f = make_forecast("2010-01", [1.0, 2.0, 3.0, 4.0])
        actual = make_diff("2010-03", [3.0, 4.0, 5.0])
        report = score(f, actual)
        assert report.n == 2
        assert report.mae == 0.0

    def test_overlap_independent_of_surrounding_months(self):
        f = make_forecast("2010-03", [3.5, 4.5])
        short_actual = make_diff("2010-03", [3.0, 5.0])
        long_actual = make_diff("2010-01", [0.0, 9.0, 3.0, 5.0, 7.0])
        assert score(f, short_actual) == score(f, long_actual)

    def test_no_overlap_is_an_error(self):
        f = make_forecast("2010-01", [1.0])
        actual = make_diff("2015-01", [1.0, 2.0])
        with pytest.raises(BacktestError, match="no months"):
            score(f, actual)

    def test_ties_are_excluded_from_direction_rate(self):
        f = make_forecast("2010-01", [1.0, 1.0, 2.0])
        actual = make_diff("2010-01", [0.0, 1.0, 2.0])
        report = score(f, actual)
        # first pair has a flat prediction: only the second pair counts
        assert report.direction_hit_rate == 1.0


class TestRollingBacktest:
    def test_single_origin_equals_manual_score(self):
        rng = np.random.default_rng(53)
        d = make_diff("2000-01", rng.normal(0, 2, 60) + np.arange(60) * 0.3)

        def forecaster(history, origin, horizon):
            trend = fit_ols(history, (history.start, origin))
            return forecast_along_trend(trend, origin, horizon)

        origin = MonthStamp(2003, 1)
        reports = rolling_backtest(d, forecaster, [origin], 12)
        manual = score(forecaster(d.restrict(d.start, origin), origin, 12), d)
        assert reports[0].mae == manual.mae
        assert reports[0].origin == origin

    def test_persistence_baseline_errors_are_first_differences(self):
        values = [5.0, 7.0, 4.0, 9.0, 9.5, 3.0]
        d = make_diff("2000-01", values)

        def last_value(history, origin, horizon):
            return make_forecast(
                str(origin.add_months(1)), [history.value_at(origin)] * horizon
            )

        origins = [MonthStamp(2000, i) for i in range(1, 6)]
        reports = rolling_backtest(d, last_value, origins, 1)
        diffs = [abs(b - a) for a, b in zip(values, values[1:])]
        assert [r.mae for r in reports] == pytest.approx(diffs)

    def test_two_origins_compose(self):
        rng = np.random.default_rng(55)
        d = make_diff("2000-01", rng.normal(0, 1, 48))

        def forecaster(history, origin, horizon):
            trend = fit_ols(history, (history.start, origin))
            return forecast_along_trend(trend, origin, horizon)

        origins = [MonthStamp(2001, 6), MonthStamp(2002, 6)]
        reports = rolling_backtest(d, forecaster, origins, 6)
        for origin, report in zip(origins, reports):
            manual = score(forecaster(d.restrict(d.start, origin), origin, 6), d)
            assert report.mae == manual.mae
            assert report.rmse == manual.rmse

    def test_no_lookahead(self):
        rng = np.random.default_rng(57)
        base_values = list(rng.normal(0, 1, 40) + np.arange(40) * 0.2)
        origin = MonthStamp(2001, 8)
        captured = []

        def forecaster(history, org, horizon):
            trend = fit_ols(history, (history.start, org))
            captured.append((trend.intercept, trend.slope))
            return forecast_along_trend(trend, org, horizon)

        d1 = make_diff("2000-01", base_values)
        perturbed = list(base_values)
        perturbed[-1] += 250.0  # after the origin
        d2 = make_diff("2000-01", perturbed)

        r1 = rolling_backtest(d1, forecaster, [origin], 6)
        r2 = rolling_backtest(d2, forecaster, [origin], 6)
        assert captured[0] == captured[1]
        # metrics may only change through the actuals, and here the perturbed
        # month is beyond the scored horizon, so they do not change at all
        assert r1 == r2

    def test_origin_too_late(self):
        d = make_diff("2000-01", range(24))
        with pytest.raises(BacktestError, match="fewer than"):
            rolling_backtest(
                d, lambda *a: None, [MonthStamp(2001, 10)], 6
            )

    def test_unknown_origin(self):
        d = make_diff("2000-01", range(24))
        with pytest.raises(BacktestError, match="not an observed month"):
            rolling_backtest(d, lambda *a: None, [MonthStamp(1999, 1)], 6)

    def test_horizon_below_one(self):
        d = make_diff("2000-01", range(24))
        with pytest.raises(BacktestError, match=r"^horizon must be >= 1, got 0$"):
            rolling_backtest(d, lambda *a: None, [MonthStamp(2000, 6)], 0)


def gapped_diff():
    """2000-01..2003-12 without 2001-03, 2002-07 and 2003-10."""
    rng = np.random.default_rng(59)
    months = [m for m in range(48) if m not in (14, 30, 45)]
    values = rng.normal(0, 3, len(months))
    obs = tuple((MonthStamp(2000, 1).add_months(m), float(v)) for m, v in zip(months, values))
    return DifferenceSeries("d-m", "d-s", obs)


class TestRollingBacktestContract:
    """What rolling_backtest promises each origin: its checks in order, its history, its report."""

    @pytest.mark.parametrize(
        "origins, calls, message",
        [
            # 2003-10 is unobserved and also too close to the end: observed is checked first
            (["2003-10", "2003-11"], 0, "origin 2003-10 is not an observed month"),
            (["2003-11", "2003-10"], 0, "origin 2003-11 leaves fewer than 6 months of actuals"),
            (["2001-01", "2001-03", "2003-11"], 1, "origin 2001-03 is not an observed month"),
            (["1999-12"], 0, "origin 1999-12 is not an observed month"),
            (["2004-01"], 0, "origin 2004-01 is not an observed month"),
            (["2003-06", "2003-07"], 1, "origin 2003-07 leaves fewer than 6 months of actuals"),
        ],
    )
    def test_the_first_failing_check_names_its_origin(self, origins, calls, message):
        called = []

        def forecaster(history, origin, horizon):
            called.append(origin)
            return make_forecast(str(origin.add_months(1)), [0.0] * horizon)

        with pytest.raises(BacktestError) as raised:
            rolling_backtest(gapped_diff(), forecaster, [MonthStamp.parse(o) for o in origins], 6)
        assert str(raised.value) == message
        assert len(called) == calls

    def test_history_and_reports_match_restrict_and_score(self):
        d = gapped_diff()
        origins = [s for s in d.stamps if s <= MonthStamp(2003, 6)]
        seen = []

        def forecaster(history, origin, horizon):
            level = sum(history.values) / len(history)
            path = [level + history.value_at(origin) * i for i in range(horizon)]
            seen.append((history, make_forecast(str(origin.add_months(1)), path)))
            return seen[-1][1]

        reports = rolling_backtest(d, forecaster, origins, 6)
        assert len(reports) == len(seen) == len(origins)
        for origin, report, (history, f) in zip(origins, reports, seen):
            want = d.restrict(d.start, origin)
            assert type(history) is DifferenceSeries
            assert (history.minuend_id, history.subtrahend_id) == ("d-m", "d-s")
            assert np.array_equal(history._months, want._months)
            assert np.array_equal(history._values, want._values)
            scored = score(f, d)
            assert report == BacktestReport(
                scored.n, scored.mae, scored.rmse, scored.bias, scored.direction_hit_rate, origin
            )
            assert report.origin is origin


class TestReportSerialization:
    def test_csv_schema(self):
        f = make_forecast("2010-01", [1.0, 2.0])
        actual = make_diff("2010-01", [1.0, 2.0])
        report = score(f, actual)
        text = reports_to_csv([report])
        assert text.splitlines()[0] == "origin,n,mae,rmse,bias,hit_rate"

    def test_json_fields(self):
        f = make_forecast("2010-01", [1.0, 2.0])
        report = score(f, make_diff("2010-01", [1.5, 2.5]))
        doc = report.to_dict()
        assert set(doc) == {"n", "mae", "rmse", "bias", "direction_hit_rate"}
