"""Successor trends and the three forecast regimes."""

import math

import numpy as np
import pytest

import trendgap.forecast
from trendgap import (
    Forecast,
    ForecastError,
    LinearSegment,
    MonthStamp,
    chain_forecasts,
    endpoint_trend,
    forecast_along_trend,
    forecast_pendulum,
    forecast_return_to_trend,
    mirror_trend,
    months_between,
)

from oracles import old_forecast_checks, old_forecast_pendulum, old_predicted, old_trend_forecast


def flat_trend(level=0.0, sigma=0.0):
    return LinearSegment(
        MonthStamp(2009, 1), MonthStamp(2016, 1), level, 0.0, 1.0, sigma, synthetic=True
    )


class TestMirrorTrend:
    def test_negates_slope_and_anchors_at_pivot(self):
        prev = LinearSegment(MonthStamp(2001, 1), MonthStamp(2008, 6), 85.0, -21.1, 0.93, 4.0)
        pivot = (MonthStamp(2009, 1), -50.0)
        new = mirror_trend(prev, pivot, 84)
        assert new.slope == 21.1
        assert new.predicted(MonthStamp(2009, 1)) == -50.0
        assert new.end == MonthStamp(2016, 1)
        assert new.synthetic
        assert new.residual_sigma == prev.residual_sigma

    def test_involution_restores_slope(self):
        prev = LinearSegment(MonthStamp(2001, 1), MonthStamp(2008, 6), 85.0, -21.1, 0.93, 4.0)
        once = mirror_trend(prev, (MonthStamp(2009, 1), -50.0), 84)
        twice = mirror_trend(once, (MonthStamp(2010, 1), 0.0), 84)
        assert twice.slope == prev.slope

    def test_crude_endpoint_arithmetic(self):
        prev = LinearSegment(MonthStamp(2001, 1), MonthStamp(2008, 6), 55.0, -17.1, 0.9, 3.0)
        new = mirror_trend(prev, (MonthStamp(2009, 1), -60.0), 84)
        assert new.predicted(MonthStamp(2016, 1)) == pytest.approx(-60.0 + 17.1 * 7.0)

    def test_zero_slope_rejected(self):
        prev = flat_trend()
        with pytest.raises(ForecastError, match="zero-slope"):
            mirror_trend(prev, (MonthStamp(2010, 1), 0.0), 24)

    def test_short_duration_rejected(self):
        prev = LinearSegment(MonthStamp(2001, 1), MonthStamp(2008, 6), 85.0, -21.1, 0.93, 4.0)
        with pytest.raises(ForecastError, match="duration"):
            mirror_trend(prev, (MonthStamp(2009, 1), 0.0), 6)


class TestEndpointTrend:
    def test_documented_recovery_line(self):
        t = endpoint_trend((MonthStamp(2009, 1), -50.0), (MonthStamp(2016, 1), 75.0))
        assert t.slope == pytest.approx(125.0 / 7.0)
        assert round(t.slope, 2) == 17.86
        assert t.predicted(MonthStamp(2009, 1)) == -50.0
        assert t.predicted(MonthStamp(2016, 1)) == pytest.approx(75.0)

    def test_equal_values_give_zero_slope(self):
        t = endpoint_trend((MonthStamp(2000, 1), 5.0), (MonthStamp(2004, 1), 5.0))
        assert t.slope == 0.0

    def test_unit_slope_arithmetic(self):
        t = endpoint_trend((MonthStamp(2000, 1), 0.0), (MonthStamp(2001, 1), 12.0))
        assert t.slope == pytest.approx(12.0)

    def test_identical_stamps_rejected(self):
        with pytest.raises(ForecastError, match="after"):
            endpoint_trend((MonthStamp(2000, 1), 0.0), (MonthStamp(2000, 1), 1.0))


class TestAlongTrend:
    def test_flat_trend_gives_flat_path(self):
        f = forecast_along_trend(flat_trend(-50.0), MonthStamp(2010, 1), 12)
        assert all(v == -50.0 for v in f.values)
        assert f.mode == "along-trend"

    def test_negative_zero_trend_value_keeps_its_sign(self):
        trend = LinearSegment(MonthStamp(2009, 1), MonthStamp(2016, 1), -0.0, -0.0, 1.0, 0.0)
        f = forecast_along_trend(trend, MonthStamp(2010, 1), 2)
        assert [math.copysign(1.0, v) for v in f.values] == [-1.0, -1.0]
        assert f.to_csv().splitlines()[1] == "2010-02,-0.0,-0.0,0.0"

    def test_monthly_increment_is_slope_over_twelve(self):
        trend = endpoint_trend((MonthStamp(2009, 1), -50.0), (MonthStamp(2016, 1), 75.0))
        f = forecast_along_trend(trend, MonthStamp(2009, 1), 84)
        for (s0, v0), (s1, v1) in zip(f.path, f.path[1:]):
            assert v1 - v0 == pytest.approx(trend.slope / 12.0, abs=1e-9)
        assert f.path[-1][0] == MonthStamp(2016, 1)
        assert f.path[-1][1] == pytest.approx(75.0, abs=0.2)

    def test_band_is_trend_sigma(self):
        f = forecast_along_trend(flat_trend(0.0, sigma=3.5), MonthStamp(2010, 1), 3)
        assert f.band_sigma == 3.5

    def test_path_starts_month_after_origin(self):
        f = forecast_along_trend(flat_trend(), MonthStamp(2010, 6), 2)
        assert f.path[0][0] == MonthStamp(2010, 7)

    def test_bad_horizon(self):
        with pytest.raises(ForecastError, match="horizon"):
            forecast_along_trend(flat_trend(), MonthStamp(2010, 1), 0)

    def test_path_past_year_9999_is_refused(self):
        last = forecast_along_trend(flat_trend(), MonthStamp(9999, 6), 6).stamps[-1]
        assert last == MonthStamp(9999, 12)
        with pytest.raises(ValueError, match="no month 10000-1: year must be in 0..9999"):
            forecast_along_trend(flat_trend(), MonthStamp(9999, 6), 7)


class TestReturnToTrend:
    def test_ninety_units_in_nine_months(self):
        trend = endpoint_trend((MonthStamp(2009, 1), -50.0), (MonthStamp(2016, 1), 75.0))
        origin = MonthStamp(2009, 3)
        current = (origin, trend.predicted(origin) + 90.0)
        f = forecast_return_to_trend(current, trend, MonthStamp(2009, 12))
        deviations = [v - trend.predicted(s) for s, v in f.path]
        steps = [90.0 - deviations[0]] + [
            a - b for a, b in zip(deviations, deviations[1:])
        ]
        for step in steps:
            assert step == pytest.approx(10.0, abs=1e-9)
        assert deviations[-1] == 0.0

    def test_on_trend_start_follows_trend(self):
        trend = endpoint_trend((MonthStamp(2009, 1), -50.0), (MonthStamp(2016, 1), 75.0))
        origin = MonthStamp(2009, 3)
        current = (origin, trend.predicted(origin))
        f = forecast_return_to_trend(current, trend, MonthStamp(2009, 12))
        for s, v in f.path:
            assert v == pytest.approx(trend.predicted(s), abs=1e-12)

    def test_negative_deviation_closes_upward(self):
        trend = flat_trend(0.0)
        f = forecast_return_to_trend((MonthStamp(2010, 1), -30.0), trend, MonthStamp(2010, 4))
        assert [v for _, v in f.path] == pytest.approx([-20.0, -10.0, 0.0])

    def test_deviation_sequence_is_arithmetic(self):
        trend = endpoint_trend((MonthStamp(2009, 1), 10.0), (MonthStamp(2012, 1), -20.0))
        f = forecast_return_to_trend((MonthStamp(2009, 5), 47.3), trend, MonthStamp(2010, 9))
        deviations = [v - trend.predicted(s) for s, v in f.path]
        diffs = [b - a for a, b in zip(deviations, deviations[1:])]
        for d in diffs[1:]:
            assert d == pytest.approx(diffs[0], abs=1e-9)
        assert deviations[-1] == 0.0

    def test_deadline_must_follow_origin(self):
        with pytest.raises(ForecastError, match="deadline"):
            forecast_return_to_trend(
                (MonthStamp(2010, 1), 5.0), flat_trend(), MonthStamp(2010, 1)
            )


def chained_by_hand(current, trend, deadline, horizon):
    """A return to ``trend`` by ``deadline`` joined to the along-trend path from it, as
    callers chained the two regimes before ``forecast_return_to_trend`` took a horizon."""
    first = forecast_return_to_trend(current, trend, deadline)
    along = forecast_along_trend(trend, deadline, horizon - len(first.path))
    mode = "return-to-trend+along-trend"
    return Forecast(mode, current[0], chain_forecasts(first, along), first.band_sigma)


def built_or_refused(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestReturnThenAlongTrend:
    """A horizon past the deadline continues the return along its trend."""

    def test_matches_the_hand_made_chain(self):
        rng = np.random.default_rng(32)
        seen = set()
        for trial in range(600):
            origin = MonthStamp(2009, 3).add_months(int(rng.integers(-600, 600)))
            if rng.random() < 0.1:
                origin = MonthStamp(9999, 12).add_months(-int(rng.integers(2, 60)))
            room = months_between(MonthStamp(9999, 12), origin)
            start = origin.add_months(min(int(rng.integers(-400, 2)), room - 60))
            intercept = float(rng.choice([rng.normal(0, 80), 0.0, -0.0]))
            slope = float(rng.choice([rng.normal(0, 30), 0.0, -0.0, 1.5e308]))
            sigma = float(rng.choice([2.0, 0.0]))
            trend = LinearSegment(start, start.add_months(60), intercept, slope, 0.5, sigma)
            deadline = origin.add_months(int(rng.integers(1, min(room, 24) + 1)))
            n = months_between(deadline, origin)
            horizon = n + int(rng.integers(1, 41))
            value = float(rng.choice([rng.normal(0, 20), 0.0, -0.0, trend.predicted(origin)]))
            args = (origin, value), trend, deadline, horizon
            got = built_or_refused(lambda: forecast_return_to_trend(*args))
            want = built_or_refused(lambda: chained_by_hand(*args))
            if isinstance(want, tuple):
                assert got == want, trial
                seen.add(" ".join(want[1].split()[:2]))
                continue
            assert got == want, trial
            assert [repr(v) for v in got.values] == [repr(v) for v in want.values], trial
            assert got.to_csv() == want.to_csv(), trial
            assert got.mode == "return-to-trend+along-trend", trial
            if any(repr(v) == "-0.0" for v in got.values[n:]):
                seen.add("-0.0 along the trend")
        assert seen == {"-0.0 along the trend", "no month", "non-finite forecast"}

    def test_negative_zero_after_the_deadline_keeps_its_sign(self):
        trend = LinearSegment(MonthStamp(2009, 1), MonthStamp(2016, 1), -0.0, -0.0, 1.0, 0.0)
        f = forecast_return_to_trend((MonthStamp(2010, 1), 3.0), trend, MonthStamp(2010, 4), 5)
        assert [repr(v) for v in f.values] == ["2.0", "1.0", "0.0", "-0.0", "-0.0"]

    def test_horizon_at_the_deadline_is_the_return_alone(self):
        trend = endpoint_trend((MonthStamp(2009, 1), -50.0), (MonthStamp(2016, 1), 75.0))
        current = (MonthStamp(2009, 3), 40.0)
        alone = forecast_return_to_trend(current, trend, MonthStamp(2009, 12))
        f = forecast_return_to_trend(current, trend, MonthStamp(2009, 12), 9)
        assert f == alone and repr(f) == repr(alone)
        assert f.mode == "return-to-trend"

    def test_horizon_before_the_deadline_is_refused(self):
        current = (MonthStamp(2009, 3), 40.0)
        with pytest.raises(ForecastError) as raised:
            forecast_return_to_trend(current, flat_trend(), MonthStamp(2009, 12), 8)
        assert str(raised.value) == "horizon 8 ends before deadline 2009-12"

    def test_path_past_9999_is_refused_as_along_trend_refuses_it(self):
        current = (MonthStamp(9999, 6), 4.0)
        with pytest.raises(ForecastError) as raised:
            forecast_return_to_trend(current, flat_trend(), MonthStamp(9999, 9), 7)
        assert str(raised.value) == "no month 10000-1: year must be in 0..9999 and month in 1..12"

    def test_non_finite_value_past_the_deadline_is_refused(self):
        trend = LinearSegment(MonthStamp(2010, 1), MonthStamp(2011, 1), 0.0, 1.5e308, 0.5, 1.0)
        current = (MonthStamp(2010, 1), 1.0)
        with pytest.raises(ForecastError) as raised:
            forecast_return_to_trend(current, trend, MonthStamp(2010, 7), 24)
        assert str(raised.value) == "non-finite forecast value inf at 2011-04"


class TestPendulum:
    def test_documented_schedule(self):
        f = forecast_pendulum(
            (MonthStamp(2010, 1), 10.0), flat_trend(0.0), amplitude=10.0, half_period=6,
            horizon=6,
        )
        by_month = dict(zip(range(1, 7), f.values))
        assert by_month[3] == pytest.approx(0.0, abs=1e-9)
        assert by_month[6] == pytest.approx(-10.0, abs=1e-9)

    def test_overshoot_targets_far_side_amplitude(self):
        trend = endpoint_trend((MonthStamp(2009, 1), -80.0), (MonthStamp(2016, 1), -30.0))
        origin = MonthStamp(2009, 3)
        start = (origin, trend.predicted(origin) + 60.0)
        trough_time = origin.add_months(10)
        amplitude = trend.predicted(trough_time) + 120.0
        f = forecast_pendulum(start, trend, amplitude=amplitude, half_period=10, horizon=10)
        assert f.path[-1][1] == pytest.approx(-120.0, abs=1e-9)

    def test_symmetry_over_full_period(self):
        f = forecast_pendulum(
            (MonthStamp(2010, 1), 8.0), flat_trend(0.0), amplitude=8.0, half_period=6,
            horizon=12,
        )
        deviations = list(f.values)
        assert max(deviations) == pytest.approx(-min(deviations), abs=1e-9)

    def test_zero_start_deviation_is_symmetric(self):
        f = forecast_pendulum(
            (MonthStamp(2010, 1), 0.0), flat_trend(0.0), amplitude=5.0, half_period=4,
            horizon=16,
        )
        assert max(f.values) == pytest.approx(5.0, abs=1e-9)
        assert min(f.values) == pytest.approx(-5.0, abs=1e-9)

    def test_rebounds_above_trend(self):
        f = forecast_pendulum(
            (MonthStamp(2010, 1), 10.0), flat_trend(0.0), amplitude=10.0, half_period=6,
            horizon=12,
        )
        assert f.path[-1][1] == pytest.approx(10.0, abs=1e-9)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ForecastError, match="amplitude"):
            forecast_pendulum((MonthStamp(2010, 1), 1.0), flat_trend(), 0.0, 6, 6)


class TestModeReduction:
    """Every regime collapses to the along-trend path when unperturbed."""

    def test_return_with_zero_deviation(self):
        trend = endpoint_trend((MonthStamp(2009, 1), -50.0), (MonthStamp(2016, 1), 75.0))
        origin = MonthStamp(2009, 3)
        ret = forecast_return_to_trend(
            (origin, trend.predicted(origin)), trend, MonthStamp(2009, 12)
        )
        along = forecast_along_trend(trend, origin, len(ret.path))
        for (s0, v0), (s1, v1) in zip(ret.path, along.path):
            assert s0 == s1
            assert v0 == pytest.approx(v1, abs=1e-12)

    def test_pendulum_with_vanishing_amplitude(self):
        trend = endpoint_trend((MonthStamp(2009, 1), -50.0), (MonthStamp(2016, 1), 75.0))
        origin = MonthStamp(2009, 3)
        pend = forecast_pendulum(
            (origin, trend.predicted(origin)), trend, amplitude=1e-12, half_period=6,
            horizon=12,
        )
        along = forecast_along_trend(trend, origin, 12)
        for (_, v0), (_, v1) in zip(pend.path, along.path):
            assert v0 == pytest.approx(v1, abs=1e-9)


class TestForecastType:
    def test_path_must_start_month_after_origin(self):
        with pytest.raises(ValueError, match="month after origin"):
            Forecast(
                mode="along-trend",
                origin=MonthStamp(2010, 1),
                path=((MonthStamp(2010, 3), 1.0),),
                band_sigma=0.0,
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, bad):
        path = ((MonthStamp(2010, 2), 1.0), (MonthStamp(2010, 3), bad))
        with pytest.raises(ValueError, match=r"non-finite forecast value .* at 2010-03"):
            Forecast(mode="along-trend", origin=MonthStamp(2010, 1), path=path, band_sigma=0.0)

    @pytest.mark.parametrize("band", [float("nan"), float("inf"), -1.0])
    def test_band_must_be_finite_and_non_negative(self, band):
        path = ((MonthStamp(2010, 2), 1.0),)
        with pytest.raises(ValueError, match="band_sigma must be finite and >= 0"):
            Forecast(mode="along-trend", origin=MonthStamp(2010, 1), path=path, band_sigma=band)

    def test_csv_format(self):
        f = forecast_along_trend(flat_trend(2.0, sigma=1.0), MonthStamp(2010, 1), 2)
        lines = f.to_csv().splitlines()
        assert lines[0] == "date,predicted,low,high"
        assert lines[1] == "2010-02,2.0,1.0,3.0"

    def test_json_mirrors_fields(self):
        f = forecast_along_trend(flat_trend(2.0, sigma=1.0), MonthStamp(2010, 1), 1)
        doc = f.to_dict()
        assert set(doc) == {"mode", "origin", "path", "band_sigma"}
        assert doc["origin"] == "2010-01"
        assert doc["path"] == [["2010-02", 2.0]]

    def test_chaining_requires_matching_origin(self):
        trend = flat_trend(0.0)
        first = forecast_along_trend(trend, MonthStamp(2010, 1), 3)
        second = forecast_along_trend(trend, MonthStamp(2010, 4), 3)
        chained = chain_forecasts(first, second)
        assert len(chained) == 6
        wrong = forecast_along_trend(trend, MonthStamp(2010, 6), 3)
        with pytest.raises(ForecastError, match="originate"):
            chain_forecasts(first, wrong)

    def test_deterministic(self):
        trend = endpoint_trend((MonthStamp(2009, 1), -50.0), (MonthStamp(2016, 1), 75.0))
        a = forecast_pendulum((MonthStamp(2009, 3), 45.0), trend, 30.0, 9, 24)
        b = forecast_pendulum((MonthStamp(2009, 3), 45.0), trend, 30.0, 9, 24)
        assert a == b

    @pytest.mark.parametrize(
        "months, message",
        [
            ((3,), "path must start the month after origin (2010-02), got 2010-03"),
            ((2, 4, 4), "path stamps not strictly increasing at 2010-04"),
            ((2, 3, 1), "path stamps not strictly increasing at 2010-01"),
        ],
    )
    def test_path_order_messages(self, months, message):
        path = tuple((MonthStamp(2010, m), 1.0) for m in months)
        with pytest.raises(ValueError) as raised:
            Forecast(mode="along-trend", origin=MonthStamp(2010, 1), path=path, band_sigma=0.0)
        assert str(raised.value) == message

    def test_random_paths_match_the_old_checks(self):
        rng = np.random.default_rng(20)
        outcomes = set()
        for trial in range(3000):
            origin, path, band = random_forecast_paths(rng)

            def built():
                f = Forecast("along-trend", origin, path, band)
                return f.path, f.band_sigma

            want = forecast_outcome(lambda: old_forecast_checks(origin, path, band))
            assert forecast_outcome(built) == want, trial
            outcomes.add("ok" if want[0] == "ok" else " ".join(want[1].split()[:2]))
        # every verdict occurs: accepted, and each of the five refusals
        refusals = {"band_sigma must", "empty forecast", "path must", "path stamps"}
        assert outcomes == {"ok", "non-finite forecast", *refusals}


def forecast_outcome(check):
    """``repr`` of what ``check()`` returns (so -0.0 and np.int64 fields show), or the
    type and text of the ValueError it raised."""
    try:
        return "ok", repr(check())
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def random_forecast_paths(rng):
    """A seeded ``(origin, path, band_sigma)``: a regular path, or one with some of the
    faults the checks look for, alone or together."""
    origin = MonthStamp(2009, 3).add_months(int(rng.integers(-600, 600)))
    n = int(rng.integers(0, 30))
    steps = np.ones(n, dtype=int)
    if n and rng.random() < 0.3:  # a wrong first month
        steps[0] = int(rng.choice([-1, 0, 2, 13]))
    for _ in range(int(rng.integers(0, 3)) if n else 0):  # a repeated, decreasing or skipped month
        steps[int(rng.integers(0, n))] = int(rng.choice([0, -1, -5, 2, 7]))
    values = rng.normal(0, 100, n).round(int(rng.choice([0, 3, 12]))).tolist()
    for _ in range(int(rng.integers(1, 3)) if n and rng.random() < 0.3 else 0):
        values[int(rng.integers(0, n))] = float(rng.choice([math.inf, -math.inf, math.nan, -0.0]))
    if n and rng.random() < 0.05:  # finite values whose sum overflows
        values = [1e308] * n
    if rng.random() < 0.2:  # values of other numeric types
        values = [
            np.float64(v) if i % 2 or not math.isfinite(v) else int(v) for i, v in enumerate(values)
        ]
    stamps = [origin.add_months(m) for m in np.cumsum(steps).tolist()]
    if rng.random() < 0.2:  # stamps whose fields are numpy integers, not interned
        stamps = [MonthStamp(np.int64(s.year), np.int64(s.month)) for s in stamps]
    band = 2.0
    if rng.random() < 0.3:
        band = float(rng.choice([0.0, -0.0, 1.5, 1e300, -1.0, math.inf, math.nan]))
    return origin, tuple(zip(stamps, values)), band


def random_trends(rng):
    """Seeded (trend, origin) pairs whose trends start far before, just around, and far
    after the origin."""
    origin = MonthStamp(2009, 3)
    for offset in [-2400, -361, -13, -1, 0, 1, 7, 240, 1200]:
        start = origin.add_months(offset)
        intercept, slope = rng.normal(0, 80), rng.normal(0, 30)
        yield LinearSegment(start, start.add_months(60), intercept, slope, 0.5, 2.0), origin


class TestPathsEqualTrendValues:
    """Each path value is computed as ``trend.predicted(stamp)`` would, bit for bit."""

    def test_along_trend(self):
        rng = np.random.default_rng(71)
        for trend, origin in random_trends(rng):
            horizon = int(rng.integers(1, 40))
            stamps = [origin.add_months(m) for m in range(1, horizon + 1)]
            f = forecast_along_trend(trend, origin, horizon)
            assert f.path == tuple((s, trend.predicted(s)) for s in stamps)
            assert f.path == tuple((s, old_predicted(trend, s)) for s in stamps)

    def test_return_to_trend(self):
        rng = np.random.default_rng(72)
        for trend, origin in random_trends(rng):
            n = int(rng.integers(1, 40))
            value = trend.predicted(origin) + rng.normal(0, 20)
            f = forecast_return_to_trend((origin, value), trend, origin.add_months(n))
            deviation = value - old_predicted(trend, origin)
            stamps = [origin.add_months(m) for m in range(1, n + 1)]
            want = tuple(
                (s, old_predicted(trend, s) + deviation * (1.0 - m / n))
                for m, s in enumerate(stamps, start=1)
            )
            assert f.path == want

    def test_pendulum(self):
        rng = np.random.default_rng(73)
        for trend, origin in random_trends(rng):
            args = (
                (origin, trend.predicted(origin) + rng.normal(0, 20)),
                trend,
                float(rng.uniform(1, 30)),
                int(rng.integers(2, 13)),
                int(rng.integers(1, 40)),
            )
            assert forecast_pendulum(*args).path == old_forecast_pendulum(*args)


def random_trend_forecasts(rng):
    """A seeded ``(mode, call)``: one of the three regimes on a random trend (zero and -0.0
    slopes and levels among them) for 1 to 60 months, some of them refused: values that
    overflow or are NaN, an infinite or NaN residual sigma, a path past 9999-12."""
    origin = MonthStamp(2009, 3).add_months(int(rng.integers(-600, 600)))
    if rng.random() < 0.1:
        origin = MonthStamp(9999, 12).add_months(-int(rng.integers(0, 60)))
    room = months_between(MonthStamp(9999, 12), origin) - 60  # for the trend's 60 months
    start = origin.add_months(min(int(rng.integers(-400, 400)), room))
    intercept = float(rng.choice([rng.normal(0, 80), 0.0, -0.0]))
    slope = float(rng.choice([rng.normal(0, 30), rng.normal(0, 1e-3), 0.0, -0.0]))
    if rng.random() < 0.1:
        intercept, slope = [(1e308, 1e308), (math.inf, 0.0), (0.0, math.nan)][int(rng.integers(3))]
    sigmas, weights = [2.0, 0.0, -0.0, 1e300, math.inf, math.nan], [10, 4, 2, 2, 1, 1]
    sigma = float(rng.choice(sigmas, p=np.array(weights) / sum(weights)))
    trend = LinearSegment(start, start.add_months(60), intercept, slope, 0.5, sigma)
    steps = int(rng.integers(1, 61))
    value = float(rng.choice([rng.normal(0, 20), 0.0, -0.0]))
    mode = ["along", "return", "pendulum"][int(rng.integers(3))]
    if mode == "along":
        return mode, lambda: forecast_along_trend(trend, origin, steps)
    if mode == "return":
        return mode, lambda: forecast_return_to_trend(
            (origin, value), trend, origin.add_months(steps)
        )
    amplitude, half_period = float(rng.uniform(0.1, 30)), int(rng.integers(2, 13))
    return mode, lambda: forecast_pendulum((origin, value), trend, amplitude, half_period, steps)


def test_trusted_paths_match_the_checked_constructor(monkeypatch):
    """``_trend_forecast`` stores the paths it builds without ``Forecast``'s month checks:
    each must equal, field for field and in its text, the one built through them, and
    each refusal must read the same."""
    rng = np.random.default_rng(30)
    seen = set()
    for trial in range(1500):
        mode, call = random_trend_forecasts(rng)
        got = built_or_refused(call)
        with monkeypatch.context() as m:
            m.setattr(trendgap.forecast, "_trend_forecast", old_trend_forecast)
            want = built_or_refused(call)
        if isinstance(want, tuple):
            assert got == want, trial
            seen.add(" ".join(want[1].split()[:2]))
            continue
        assert got == want and repr(got) == repr(want), trial
        assert got.to_csv() == want.to_csv(), trial
        assert all(type(v) is float for v in (*got.values, got.band_sigma)), trial
        seen.add(mode)
    assert seen == {
        "along", "return", "pendulum", "non-finite forecast", "band_sigma must", "no month"
    }


#: id: (call, error type, message) for each refusal of arguments that no other test makes
REFUSALS = {
    "csv-without-rows": (
        lambda: Forecast.from_csv("date,predicted,low,high\n"),
        ValueError,
        "no forecast rows",
    ),
    "pendulum-half-period-below-two": (
        lambda: forecast_pendulum((MonthStamp(2010, 1), 1.0), flat_trend(), 2.0, 1, 6),
        ForecastError,
        "half_period must be >= 2 months, got 1",
    ),
    "pendulum-horizon-below-one": (
        lambda: forecast_pendulum((MonthStamp(2010, 1), 1.0), flat_trend(), 2.0, 6, 0),
        ForecastError,
        "horizon must be >= 1, got 0",
    ),
    "along-trend-past-9999": (
        lambda: forecast_along_trend(flat_trend(), MonthStamp(9999, 6), 10**30),
        ForecastError,
        "no month 10000-1: year must be in 0..9999 and month in 1..12",
    ),
    "mirror-past-9999": (
        lambda: mirror_trend(
            LinearSegment(MonthStamp(2001, 1), MonthStamp(2008, 6), 85.0, -21.1, 0.93, 4.0),
            (MonthStamp(9998, 1), 0.0),
            24,
        ),
        ForecastError,
        "no month 10000-1: year must be in 0..9999 and month in 1..12",
    ),
    "endpoint-slope-overflow": (
        lambda: forecast_along_trend(
            endpoint_trend((MonthStamp(2009, 1), -1e308), (MonthStamp(2010, 1), 1e308)),
            MonthStamp(2010, 1),
            12,
        ),
        ForecastError,
        "non-finite forecast value inf at 2010-02",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refuses_with_its_exact_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error
    assert str(raised.value) == message
