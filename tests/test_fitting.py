"""OLS fitting, breakpoint detection and trend-model assembly."""

import numpy as np
import pytest

from trendgap import (
    DifferenceSeries,
    FitError,
    LinearSegment,
    MonthStamp,
    TransitionWindow,
    TrendModel,
    build_trend_model,
    classify_deviation,
    detect_breakpoints,
    fit_ols,
    months_between,
    residual,
    select_breakpoint_count,
)


def make_diff(start, values, name="d"):
    origin = MonthStamp.parse(start)
    obs = tuple((origin.add_months(i), float(v)) for i, v in enumerate(values))
    return DifferenceSeries(name + "-a", name + "-b", obs)


def ols_oracle(x, y):
    """Closed-form normal equations: B = cov/var, A from the means."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xbar, ybar = x.mean(), y.mean()
    slope = np.sum((x - xbar) * (y - ybar)) / np.sum((x - xbar) ** 2)
    intercept_at_x0 = ybar - slope * xbar  # x is measured from the window start
    return intercept_at_x0, slope


class TestFitOls:
    def test_noiseless_line(self):
        values = [5.0 + 2.0 * (i / 12.0) for i in range(24)]
        d = make_diff("2000-01", values)
        seg = fit_ols(d, (d.start, d.end))
        assert seg.slope == pytest.approx(2.0, abs=1e-9)
        assert seg.intercept == pytest.approx(5.0, abs=1e-9)
        assert seg.r_squared == pytest.approx(1.0, abs=1e-9)
        assert seg.residual_sigma == pytest.approx(0.0, abs=1e-9)
        assert seg.start == d.start and seg.end == d.end

    def test_constant_series_has_zero_r_squared(self):
        d = make_diff("2000-01", [7.0] * 30)
        seg = fit_ols(d, (d.start, d.end))
        assert seg.slope == pytest.approx(0.0, abs=1e-12)
        assert seg.r_squared == 0.0

    def test_random_fits_match_normal_equations(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(10, 120)
            x = np.arange(n) / 12.0
            y = rng.normal(0, 4) + rng.normal(0, 8) * x + rng.normal(0, 1.5, n)
            d = make_diff("1990-01", y)
            seg = fit_ols(d, (d.start, d.end))
            a_ref, b_ref = ols_oracle(x, y)
            assert seg.slope == pytest.approx(b_ref, rel=1e-9, abs=1e-9)
            assert seg.intercept == pytest.approx(a_ref, rel=1e-9, abs=1e-9)

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(1)
        y = rng.normal(50, 10, 80)
        d = make_diff("1985-06", y)
        seg = fit_ols(d, (d.start, d.end))
        total = sum(residual(seg, s, v) for s, v in d.observations)
        assert abs(total) < 1e-9 * max(1.0, np.abs(y).sum())

    def test_constant_shift_moves_intercept_only(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 3, 48)
        base = fit_ols(make_diff("2000-01", y), (MonthStamp(2000, 1), MonthStamp(2003, 12)))
        shifted = fit_ols(
            make_diff("2000-01", y + 17.5), (MonthStamp(2000, 1), MonthStamp(2003, 12))
        )
        assert shifted.slope == pytest.approx(base.slope, abs=1e-9)
        assert shifted.intercept == pytest.approx(base.intercept + 17.5, abs=1e-9)
        assert shifted.r_squared == pytest.approx(base.r_squared, abs=1e-9)

    def test_whole_year_shift_preserves_slope(self):
        rng = np.random.default_rng(4)
        y = rng.normal(0, 3, 48)
        a = fit_ols(make_diff("2000-01", y), (MonthStamp(2000, 1), MonthStamp(2003, 12)))
        b = fit_ols(make_diff("2005-01", y), (MonthStamp(2005, 1), MonthStamp(2008, 12)))
        assert b.slope == pytest.approx(a.slope, abs=1e-12)
        assert b.intercept == pytest.approx(a.intercept, abs=1e-12)

    def test_too_few_points(self):
        d = make_diff("2000-01", [1.0, 2.0, 3.0])
        with pytest.raises(FitError, match="need >= 2"):
            fit_ols(d, (MonthStamp(2000, 1), MonthStamp(2000, 1)))

    def test_gap_in_window_is_rejected(self):
        obs = (
            (MonthStamp(2000, 1), 1.0),
            (MonthStamp(2000, 2), 2.0),
            (MonthStamp(2000, 5), 3.0),
        )
        d = DifferenceSeries("a", "b", obs)
        with pytest.raises(FitError, match="missing months"):
            fit_ols(d, (d.start, d.end))

    def test_predicted_anchors_at_window_start(self):
        values = [10.0 - 1.5 * (i / 12.0) for i in range(36)]
        d = make_diff("1999-01", values)
        seg = fit_ols(d, (d.start, d.end))
        for i, (stamp, value) in enumerate(d.observations):
            expected = seg.intercept + seg.slope * (i / 12.0)
            assert seg.predicted(stamp) == pytest.approx(expected, abs=1e-9)


class TestResidual:
    def test_on_line_is_zero(self):
        seg = LinearSegment(MonthStamp(2000, 1), MonthStamp(2001, 12), 3.0, 6.0, 1.0, 0.5)
        assert residual(seg, MonthStamp(2000, 7), seg.predicted(MonthStamp(2000, 7))) == 0.0

    def test_constant_trend(self):
        seg = LinearSegment(MonthStamp(2000, 1), MonthStamp(2001, 12), 10.0, 0.0, 0.0, 1.0)
        assert residual(seg, MonthStamp(2001, 3), 45.0) == 35.0

    def test_sign_positive_above(self):
        seg = LinearSegment(MonthStamp(2000, 1), MonthStamp(2001, 12), 0.0, 12.0, 1.0, 1.0)
        assert residual(seg, MonthStamp(2000, 2), 2.0) == pytest.approx(1.0)


def sse_of_pieces(values, cuts):
    """Exhaustive-search oracle SSE: independent polyfit on each piece."""
    bounds = [0] + list(cuts) + [len(values)]
    total = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        x = np.arange(lo, hi) / 12.0
        y = np.asarray(values[lo:hi], dtype=float)
        coef = np.polyfit(x, y, 1)
        total += float(np.sum((y - np.polyval(coef, x)) ** 2))
    return total


def exhaustive_breakpoints(values, k, min_len):
    """Brute-force optimal cut positions (first index of each right piece)."""
    n = len(values)
    best = (np.inf, [])
    if k == 1:
        candidates = ([c] for c in range(min_len, n - min_len + 1))
    elif k == 2:
        candidates = (
            [c1, c2]
            for c1 in range(min_len, n - 2 * min_len + 1)
            for c2 in range(c1 + min_len, n - min_len + 1)
        )
    else:
        raise AssertionError("oracle supports k in {1, 2}")
    for cuts in candidates:
        sse = sse_of_pieces(values, cuts)
        if sse < best[0] - 1e-12:
            best = (sse, cuts)
    return best


class TestDetectBreakpoints:
    def test_k_zero_returns_empty(self):
        rng = np.random.default_rng(8)
        d = make_diff("2000-01", rng.normal(0, 1, 40))
        assert detect_breakpoints(d, 0, 6) == []

    def test_synthetic_break_recovered(self):
        rng = np.random.default_rng(9)
        y = [4.0 * i / 12.0 + rng.normal(0, 1) for i in range(120)]
        y += [y and 4.0 * 120 / 12.0 - 20.0 * j / 12.0 + rng.normal(0, 1) for j in range(120)]
        d = make_diff("1990-01", y)
        (bp,) = detect_breakpoints(d, 1, 12)
        assert abs(months_between(bp, MonthStamp(1990, 1).add_months(120))) <= 3

    def test_dp_equals_exhaustive_k1(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = int(rng.integers(40, 120))
            cut = int(rng.integers(12, n - 12))
            y = np.concatenate(
                [
                    rng.normal(0, 1, cut) + np.arange(cut) * 0.3,
                    rng.normal(0, 1, n - cut) - np.arange(n - cut) * 0.4,
                ]
            )
            d = make_diff("1990-01", y)
            got = detect_breakpoints(d, 1, 6)
            _, expected = exhaustive_breakpoints(y, 1, 6)
            assert [months_between(b, d.start) for b in got] == expected

    def test_dp_equals_exhaustive_k2(self):
        rng = np.random.default_rng(12)
        n = 60
        y = np.concatenate(
            [
                np.arange(20) * 0.5,
                10.0 - np.arange(20) * 0.8,
                -6.0 + np.arange(20) * 0.2,
            ]
        ) + rng.normal(0, 0.5, n)
        d = make_diff("1990-01", y)
        got = detect_breakpoints(d, 2, 6)
        _, expected = exhaustive_breakpoints(y, 2, 6)
        assert [months_between(b, d.start) for b in got] == expected

    def test_sse_monotone_in_k(self):
        rng = np.random.default_rng(14)
        y = rng.normal(0, 1, 90) + np.sin(np.arange(90) / 9.0) * 4
        d = make_diff("1990-01", y)
        total = []
        for k in range(3):
            cuts = [months_between(b, d.start) for b in detect_breakpoints(d, k, 6)]
            total.append(sse_of_pieces(y, cuts))
        assert total[1] <= total[0] + 1e-9
        assert total[2] <= total[1] + 1e-9

    def test_series_too_short(self):
        d = make_diff("2000-01", range(30))
        with pytest.raises(FitError, match="too short"):
            detect_breakpoints(d, 2, 12)

    def test_min_len_floor(self):
        d = make_diff("2000-01", range(30))
        with pytest.raises(FitError, match="min_len"):
            detect_breakpoints(d, 1, 3)

    def test_motor_fixture_turning_point_with_short_min_len(self, motor_diff):
        settled = motor_diff.restrict(MonthStamp(1980, 1), MonthStamp(2008, 6))
        (bp,) = detect_breakpoints(settled, 1, 36)
        assert MonthStamp(1999, 1) <= bp <= MonthStamp(2001, 12)

    def test_select_breakpoint_count_finds_one(self):
        rng = np.random.default_rng(15)
        y = [0.2 * i + rng.normal(0, 0.8) for i in range(60)]
        y += [12.0 - 1.5 * j + rng.normal(0, 0.8) for j in range(60)]
        d = make_diff("1990-01", y)
        k, points = select_breakpoint_count(d, 3, 12)
        assert k == 1
        assert abs(months_between(points[0], MonthStamp(1995, 1))) <= 3

    def test_breakpoints_invariant_under_affine_map(self):
        # Small signal far from zero: the prefix sums must not cancel it away.
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(60, 121))
            cut = int(rng.integers(12, n - 12))
            t = np.arange(n)
            y = np.where(t < cut, 0.3 * t, 0.3 * cut - 0.4 * (t - cut)) + rng.normal(0, 1, n)
            y = 1e-2 * y
            want = detect_breakpoints(make_diff("1990-01", y), 1, 6)
            for a in (1e-2, 1.0, 1e3):
                for c in (-1e6, 0.0, 1e5, 1e6):
                    got = detect_breakpoints(make_diff("1990-01", a * y + c), 1, 6)
                    assert got == want, (n, cut, a, c)

    def test_select_matches_per_k_bic_oracle(self):
        def oracle(values, max_k, min_len):
            n = len(values)
            d = make_diff("1990-01", values)
            best = None
            for k in range(max_k + 1):
                if n < (k + 1) * min_len:
                    break
                points = detect_breakpoints(d, k, min_len)
                cuts = [months_between(p, d.start) for p in points]
                sse = sse_of_pieces(values, cuts)
                bic = n * np.log(max(sse, 1e-12) / n) + (3 * k + 2) * np.log(n)
                if best is None or bic < best[0]:
                    best = (bic, k, points)
            return best[1], best[2]

        rng = np.random.default_rng(18)
        for trial in range(30):
            n = int(rng.integers(30, 100))
            planted = int(rng.integers(0, 4))
            cuts = sorted(rng.choice(np.arange(6, n - 6), size=planted, replace=False))
            y = np.zeros(n)
            level = 0.0
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                y[lo:hi] = level + rng.normal(0, 3) * np.arange(hi - lo) / 12.0
                level = y[hi - 1]
            y += rng.normal(0, rng.choice([0.1, 1.0]), n)
            max_k, min_len = trial % 4, int(rng.choice([6, 8, 12]))
            got = select_breakpoint_count(make_diff("1990-01", y), max_k, min_len)
            assert got == oracle(y, max_k, min_len), (trial, n, planted, max_k, min_len)


class TestBuildTrendModel:
    def test_halfwidth_zero_partitions_exactly(self):
        rng = np.random.default_rng(16)
        y = list(rng.normal(0, 0.5, 48) + np.arange(48) * 0.1)
        d = make_diff("2000-01", y)
        bp = MonthStamp(2002, 1)
        model = build_trend_model(d, [bp], 0)
        assert len(model.segments) == 2
        assert model.transitions == ()
        assert model.segments[0].start == d.start
        assert model.segments[0].end == bp.add_months(-1)
        assert model.segments[1].start == bp
        assert model.segments[1].end == d.end

    def test_segments_reproduce_manual_fits(self):
        rng = np.random.default_rng(17)
        y = list(np.concatenate([np.arange(60) * 0.3, 18.0 - np.arange(60) * 0.5]))
        y = [v + rng.normal(0, 0.4) for v in y]
        d = make_diff("2000-01", y)
        bp = MonthStamp(2005, 1)
        model = build_trend_model(d, [bp], 6)
        left = fit_ols(d, (d.start, bp.add_months(-7)))
        right = fit_ols(d, (bp.add_months(6), d.end))
        assert model.segments[0] == left
        assert model.segments[1] == right
        assert model.transitions[0] == TransitionWindow(bp.add_months(-6), bp.add_months(5))

    def test_tail_transition(self):
        y = list(np.arange(80) * 0.1)
        d = make_diff("2000-01", y)
        tail = MonthStamp(2005, 1)
        model = build_trend_model(d, [], 0, tail_start=tail)
        assert model.segments[0].end == tail.add_months(-1)
        assert model.transitions[-1] == TransitionWindow(tail, d.end)

    def test_overlapping_windows_rejected(self):
        y = list(np.arange(60) * 0.1)
        d = make_diff("2000-01", y)
        with pytest.raises(FitError, match="overlap"):
            build_trend_model(d, [MonthStamp(2001, 1), MonthStamp(2001, 6)], 6)

    def test_halfwidth_capped_by_max_transition(self):
        y = list(np.arange(120) * 0.1)
        d = make_diff("2000-01", y)
        with pytest.raises(FitError, match="wider"):
            build_trend_model(d, [MonthStamp(2004, 1)], 19)

    def test_unsorted_breakpoints_rejected(self):
        y = list(np.arange(120) * 0.1)
        d = make_diff("2000-01", y)
        with pytest.raises(FitError, match="sorted"):
            build_trend_model(d, [MonthStamp(2005, 1), MonthStamp(2004, 1)], 0)


class TestClassifyDeviation:
    @staticmethod
    def simple_model():
        seg = LinearSegment(MonthStamp(2000, 1), MonthStamp(2004, 12), 0.0, 12.0, 0.9, 5.0)
        later = LinearSegment(MonthStamp(2006, 1), MonthStamp(2009, 12), 60.0, -12.0, 0.9, 5.0)
        window = TransitionWindow(MonthStamp(2005, 1), MonthStamp(2005, 12))
        return TrendModel((seg, later), (window,))

    def test_on_trend(self):
        model = self.simple_model()
        stamp = MonthStamp(2001, 1)
        value = model.segments[0].predicted(stamp)
        out = classify_deviation(model, stamp, value)
        assert out.label == "on-trend"
        assert out.z == 0.0

    def test_above_with_z(self):
        model = self.simple_model()
        stamp = MonthStamp(2001, 1)
        value = model.segments[0].predicted(stamp) + 45.0
        out = classify_deviation(model, stamp, value)
        assert out.label == "above"
        assert out.z == pytest.approx(9.0)

    def test_in_transition_has_no_z(self):
        model = self.simple_model()
        out = classify_deviation(model, MonthStamp(2005, 6), 123.0)
        assert out.label == "in-transition"
        assert out.z is None

    def test_forward_extrapolation_flagged(self):
        model = self.simple_model()
        out = classify_deviation(model, MonthStamp(2011, 6), 42.0)
        assert out.extrapolated
        assert out.segment == model.segments[1]


class TestTrendModelSerialization:
    def test_json_round_trip_and_field_names(self):
        seg = LinearSegment(MonthStamp(2001, 1), MonthStamp(2008, 6), 85.0, -21.1, 0.93, 4.5)
        window = TransitionWindow(MonthStamp(1999, 7), MonthStamp(2000, 12))
        first = LinearSegment(MonthStamp(1980, 1), MonthStamp(1999, 6), -15.0, 4.2, 0.94, 6.0)
        model = TrendModel((first, seg), (window,))
        doc = model.to_dict()
        assert set(doc["segments"][0]) == {
            "start", "end", "intercept_A", "slope_B", "r_squared", "residual_sigma",
        }
        assert doc["segments"][1]["slope_B"] == -21.1
        assert doc["transitions"][0] == {"start": "1999-07", "end": "2000-12"}
        again = TrendModel.from_json(model.to_json())
        assert again.segments[0].slope == first.slope
        assert again.transitions == model.transitions

    def test_transition_longer_than_cap_rejected(self):
        seg = LinearSegment(MonthStamp(2000, 1), MonthStamp(2004, 12), 0.0, 1.0, 0.9, 1.0)
        long_window = TransitionWindow(MonthStamp(2005, 1), MonthStamp(2008, 2))
        with pytest.raises(ValueError, match="exceeds"):
            TrendModel((seg,), (long_window,))

    def test_segment_overlap_rejected(self):
        a = LinearSegment(MonthStamp(2000, 1), MonthStamp(2004, 12), 0.0, 1.0, 0.9, 1.0)
        b = LinearSegment(MonthStamp(2004, 12), MonthStamp(2006, 12), 0.0, 1.0, 0.9, 1.0)
        with pytest.raises(ValueError, match="overlap"):
            TrendModel((a, b), ())
