"""Index-to-price translation and lead-lag estimation."""

import re
import warnings

import numpy as np
import pytest

from trendgap import (
    CRUDE_OIL_HEURISTIC,
    DifferenceSeries,
    MonthlySeries,
    MonthStamp,
    PriceCalibration,
    PriceError,
    calibrate_price,
    component_index_from_difference,
    difference,
    extrapolate_headline,
    index_to_price,
    lead_lag,
    parse_calibration_pairs_csv,
    percent_change,
    trailing_growth_rate,
)

from conftest import make_diff, make_forecast, make_series


class TestPercentChange:
    def test_motor_fuel_recovery_is_fifty_two_percent(self):
        pct = percent_change(173.0, 263.0)
        assert round(pct, 1) == 52.0
        assert pct == pytest.approx(100.0 * 90.0 / 173.0)

    def test_identity(self):
        assert percent_change(140.0, 140.0) == 0.0

    def test_fifty_percent(self):
        assert percent_change(100.0, 150.0) == pytest.approx(50.0)

    def test_non_positive_start(self):
        with pytest.raises(PriceError):
            percent_change(0.0, 100.0)

    def test_inverse_composition(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x, y = rng.uniform(10, 400, 2)
            p1 = percent_change(x, y)
            p2 = percent_change(y, x)
            assert (1 + p1 / 100.0) * (1 + p2 / 100.0) == pytest.approx(1.0, abs=1e-9)


class TestComponentFromDifference:
    def test_flat_headline_recovery_scenario(self):
        # difference falls from +39 by 10 points a month while the headline
        # holds at 212: the component climbs from 173 to 263 by December.
        diff_path = make_forecast("2009-04", [39.0 - 10.0 * k for k in range(1, 10)])
        headline = [(s, 212.0) for s in diff_path.stamps]
        component = component_index_from_difference(headline, diff_path)
        assert component[0][1] == pytest.approx(183.0)
        assert component[-1][0] == MonthStamp(2009, 12)
        assert component[-1][1] == pytest.approx(263.0)
        assert percent_change(173.0, component[-1][1]) == pytest.approx(52.0, abs=0.1)

    def test_zero_difference_returns_headline(self):
        diff_path = make_forecast("2010-01", [0.0] * 6)
        headline = [(s, 150.0 + i) for i, s in enumerate(diff_path.stamps)]
        component = component_index_from_difference(headline, diff_path)
        assert [v for _, v in component] == [v for _, v in headline]

    def test_random_paths_match_elementwise_oracle(self):
        rng = np.random.default_rng(23)
        hv = rng.uniform(150, 250, 12)
        dv = rng.uniform(-80, 80, 12)
        diff_path = make_forecast("2010-01", dv)
        headline = [(s, h) for s, h in zip(diff_path.stamps, hv)]
        component = component_index_from_difference(headline, diff_path)
        for (stamp, value), h, d in zip(component, hv, dv):
            assert value == h - d

    def test_stamp_mismatch_rejected(self):
        diff_path = make_forecast("2010-01", [1.0, 2.0])
        headline = [(MonthStamp(2010, 3), 100.0), (MonthStamp(2010, 4), 100.0)]
        with pytest.raises(PriceError, match="identical stamps"):
            component_index_from_difference(headline, diff_path)

    def test_re_differencing_recovers_path(self):
        rng = np.random.default_rng(29)
        dv = rng.uniform(-50, 50, 9)
        diff_path = make_forecast("2010-01", dv)
        headline = [(s, 200.0 + i) for i, s in enumerate(diff_path.stamps)]
        component = component_index_from_difference(headline, diff_path)
        head_series = MonthlySeries("h", "", tuple(headline))
        comp_series = MonthlySeries("c", "", tuple(component))
        rediff = difference(head_series, comp_series)
        for (_, value), original in zip(rediff.observations, dv):
            assert value == pytest.approx(original, rel=1e-12)


class TestExtrapolateHeadline:
    def test_zero_rate_is_flat(self):
        s = make_series("h", "2009-01", [212.0, 212.5, 213.0])
        path = extrapolate_headline(s, MonthStamp(2009, 3), 6, 0.0)
        assert all(v == 213.0 for _, v in path)

    def test_twelve_percent_over_a_year(self):
        s = make_series("h", "2009-01", [100.0])
        path = extrapolate_headline(s, MonthStamp(2009, 1), 12, 12.0)
        assert path[-1][0] == MonthStamp(2010, 1)
        assert path[-1][1] == pytest.approx(112.0, abs=1e-9)

    def test_matches_iterative_compounding_oracle(self):
        s = make_series("h", "2009-01", [170.0])
        rate = 7.3
        path = extrapolate_headline(s, MonthStamp(2009, 1), 24, rate)
        value = 170.0
        monthly = (1 + rate / 100.0) ** (1 / 12.0)
        for _, got in path:
            value *= monthly
            assert got == pytest.approx(value, rel=1e-9)

    def test_origin_absent(self):
        s = make_series("h", "2009-01", [100.0])
        with pytest.raises(PriceError, match="absent"):
            extrapolate_headline(s, MonthStamp(2010, 1), 3, 1.0)

    def test_trailing_growth_rate(self):
        values = [100.0 * 1.03 ** (i / 12.0) for i in range(72)]
        s = make_series("h", "2004-01", values)
        rate = trailing_growth_rate(s, MonthStamp(2009, 12))
        assert rate == pytest.approx(3.0, abs=0.01)

    @pytest.mark.parametrize("rate", [-100.0, -150.0])
    def test_rate_at_or_below_minus_hundred_rejected(self, rate):
        s = make_series("h", "2009-01", [100.0])
        with pytest.raises(PriceError, match="> -100"):
            extrapolate_headline(s, MonthStamp(2009, 1), 3, rate)

    @pytest.mark.parametrize("rate", [1e308, 2.5e62])
    def test_overflowing_rate_rejected(self, rate):
        # 1e308 overflows the power itself, 2.5e62 only the product with the base
        s = make_series("h", "2009-01", [100.0])
        with pytest.raises(PriceError, match="overflows"):
            extrapolate_headline(s, MonthStamp(2009, 1), 61, rate)

    @pytest.mark.parametrize("at", [11, 71], ids=["window-start", "origin"])
    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_trailing_growth_needs_positive_endpoints(self, at, bad):
        values = [100.0 * 1.03 ** (i / 12.0) for i in range(72)]
        values[at] = bad
        s = make_series("h", "2004-12", values)
        with pytest.raises(PriceError, match="positive"):
            trailing_growth_rate(s, MonthStamp(2010, 11))


class TestCalibration:
    def test_exact_line(self):
        pairs = [(float(i), float(i)) for i in range(5)]
        cal = calibrate_price(pairs)
        assert cal.alpha == pytest.approx(1.0, abs=1e-12)
        assert cal.beta == pytest.approx(0.0, abs=1e-12)
        assert cal.fit_r_squared == pytest.approx(1.0)

    def test_heuristic_constant(self):
        assert CRUDE_OIL_HEURISTIC.fit_r_squared is None
        assert index_to_price(CRUDE_OIL_HEURISTIC, -120.0) == 120.0
        assert index_to_price(CRUDE_OIL_HEURISTIC, -75.0) == 75.0

    def test_noisy_pairs_match_normal_equations(self):
        rng = np.random.default_rng(31)
        xs = rng.uniform(-140, -20, 20)
        ys = -xs + rng.normal(0, 1.0, 20)
        cal = calibrate_price(list(zip(xs, ys)))
        xbar, ybar = xs.mean(), ys.mean()
        slope = np.sum((xs - xbar) * (ys - ybar)) / np.sum((xs - xbar) ** 2)
        intercept = ybar - slope * xbar
        assert cal.alpha == pytest.approx(slope, rel=1e-9)
        assert cal.beta == pytest.approx(intercept, rel=1e-9, abs=1e-9)

    def test_calibration_residuals_match_r_squared(self):
        rng = np.random.default_rng(33)
        xs = rng.uniform(-140, -20, 30)
        ys = -0.9 * xs + 4.0 + rng.normal(0, 2.0, 30)
        cal = calibrate_price(list(zip(xs, ys)))
        predicted = np.array([index_to_price(cal, x) for x in xs])
        sse = float(np.sum((ys - predicted) ** 2))
        sst = float(np.sum((ys - ys.mean()) ** 2))
        assert 1.0 - sse / sst == pytest.approx(cal.fit_r_squared, abs=1e-12)

    def test_degenerate_pairs_rejected(self):
        with pytest.raises(PriceError, match="distinct"):
            calibrate_price([(1.0, 2.0), (1.0, 3.0)])

    @pytest.mark.parametrize(
        "bad", [(float("inf"), 70.0), (-80.0, float("nan")), (float("-inf"), float("inf"))]
    )
    def test_non_finite_pair_rejected(self, bad):
        with pytest.raises(PriceError, match="pair 2 is not finite"):
            calibrate_price([(-120.0, 119.4), bad, (-75.0, 74.8)])

    def test_pairs_csv_reports_file_line_numbers(self):
        with pytest.raises(PriceError, match="line 4: non-numeric"):
            parse_calibration_pairs_csv("index,price_usd\n\n1,2\n2,x\n")
        with pytest.raises(PriceError, match="line 5: expected 2 fields"):
            parse_calibration_pairs_csv("\nindex,price_usd\r\n1,2\r\n \r\n3\r\n")

    def test_overflowing_sums_of_squares_are_refused(self):
        # R^2 read 1.0 here, as max(0.0, min(1.0, nan)) does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PriceError) as raised:
                calibrate_price([(1.0, 1e200), (2.0, -1e200), (3.0, 1e200)])
        assert str(raised.value) == "calibration pairs too large, their sums of squares overflow"

    def test_identity_on_zero(self):
        cal = calibrate_price([(0.0, 0.0), (1.0, 1.0)])
        assert index_to_price(cal, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_pairs_csv_round_trip(self):
        text = "index,price_usd\n-120.0,119.4\n-75.0,74.8\n"
        pairs = parse_calibration_pairs_csv(text)
        assert pairs == [(-120.0, 119.4), (-75.0, 74.8)]
        with pytest.raises(PriceError, match="header"):
            parse_calibration_pairs_csv("a,b\n1,2\n")


def shifted_pair(lag_months, n=60, seed=41):
    """A noisy random walk and its exact copy shifted ``lag_months`` later."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(0, 3.0, n + abs(lag_months)))
    start = MonthStamp(2000, 1)
    a = make_diff("2000-01", walk[:n], "a")
    b_obs = tuple(
        (start.add_months(i + lag_months), float(v)) for i, v in enumerate(walk[:n])
    )
    return a, DifferenceSeries("b-m", "b-s", b_obs)


class TestLeadLag:
    def test_exact_shift_recovered(self):
        a, b = shifted_pair(7)
        lag, corr = lead_lag(a, b, 12)
        assert lag == 7
        assert corr == pytest.approx(1.0)

    def test_self_correlation_is_zero_lag(self):
        a, _ = shifted_pair(0)
        lag, corr = lead_lag(a, a, 12)
        assert lag == 0
        assert corr == pytest.approx(1.0)

    def test_antisymmetry(self):
        a, b = shifted_pair(5)
        lag_ab, corr_ab = lead_lag(a, b, 10)
        lag_ba, corr_ba = lead_lag(b, a, 10)
        assert lag_ab == -lag_ba == 5
        assert corr_ab == pytest.approx(corr_ba, abs=1e-12)

    def test_insufficient_overlap(self):
        a, b = shifted_pair(3, n=30)
        with pytest.raises(PriceError, match="insufficient overlap"):
            lead_lag(a, b, 12)

    def test_negative_planted_lag(self):
        a, b = shifted_pair(-6)
        lag, corr = lead_lag(a, b, 12)
        assert lag == -6
        assert corr == pytest.approx(1.0)

    @pytest.mark.parametrize("min_overlap", [0, 1, -5])
    def test_min_overlap_below_two_refused(self, min_overlap):
        a, b = shifted_pair(30, n=30)  # no common month at any lag up to 3
        with pytest.raises(PriceError, match=f"min_overlap must be >= 2, got {min_overlap}"):
            lead_lag(a, b, 3, min_overlap=min_overlap)

    @pytest.mark.parametrize(
        "max_lag, min_overlap, refused",
        [
            (2.5, 24, "max_lag must be an integer, got 2.5"),
            (True, 24, "max_lag must be an integer, got True"),
            ("3", 24, "max_lag must be an integer, got '3'"),
            (np.float64(3.0), 24, "max_lag must be an integer, got "),
            (3, 2.5, "min_overlap must be an integer, got 2.5"),
            (3, True, "min_overlap must be an integer, got True"),
            (3, np.bool_(True), "min_overlap must be an integer, got "),
            (3, None, "min_overlap must be an integer, got None"),
        ],
    )
    def test_non_integer_arguments_refused(self, max_lag, min_overlap, refused):
        a, b = shifted_pair(30, n=30)  # no common month: scoring any lag would raise otherwise
        with pytest.raises(PriceError, match=re.escape(refused)):
            lead_lag(a, b, max_lag, min_overlap=min_overlap)

    def test_numpy_integers_accepted(self):
        a, b = shifted_pair(7)
        expected = lead_lag(a, b, 12, min_overlap=24)
        assert lead_lag(a, b, np.int64(12), min_overlap=np.int32(24)) == expected
        assert lead_lag(a, b, np.uint8(12), min_overlap=np.int16(24)) == expected


def walk_pairs(drop, seed, count=30):
    """``count`` pairs of 150-300-month random walks, ``b`` a noisy copy of ``a`` shifted by a
    planted lag; each month of either series is dropped with probability ``drop``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, lag = int(rng.integers(150, 301)), int(rng.integers(-8, 9))
        walk = np.cumsum(rng.normal(0.0, 3.0, n + 17))
        noise = rng.normal(0.0, 1.0, n)
        start = MonthStamp(int(rng.integers(1950, 2010)), int(rng.integers(1, 13)))

        def series(name, values):
            kept = rng.random(n) >= drop
            kept[0] = True
            obs = tuple((start.add_months(i), float(v)) for i, v in enumerate(values) if kept[i])
            return DifferenceSeries(f"{name}-m", f"{name}-s", obs)

        yield series("a", walk[8 : 8 + n]), series("b", walk[8 - lag : 8 - lag + n] + noise)


def remade(series, shift=0, value=lambda v: v):
    """``series`` with every month moved ``shift`` months and every value mapped by ``value``."""
    return DifferenceSeries(
        series.minuend_id,
        series.subtrahend_id,
        tuple((s.add_months(shift), value(v)) for s, v in series.observations),
    )


@pytest.mark.parametrize("drop", [0.0, 0.1], ids=["contiguous", "gapped"])
class TestLeadLagRelations:
    """Relations the correlation scan must keep, on random walks with and without gaps."""

    def test_shifting_both_starts_changes_nothing(self, drop):
        rng = np.random.default_rng(5)
        for a, b in walk_pairs(drop, seed=11):
            k = int(rng.integers(-300, 301))
            assert lead_lag(remade(a, shift=k), remade(b, shift=k), 12) == lead_lag(a, b, 12)

    def test_negating_both_changes_nothing(self, drop):
        for a, b in walk_pairs(drop, seed=12):
            negated = lead_lag(remade(a, value=lambda v: -v), remade(b, value=lambda v: -v), 12)
            assert negated == lead_lag(a, b, 12)

    def test_affine_map_of_either_keeps_the_lag(self, drop):
        def affine(series):
            return remade(series, value=lambda v: 2.5 * v - 40.0)

        for a, b in walk_pairs(drop, seed=13):
            lag, corr = lead_lag(a, b, 12)
            for pair in ((affine(a), b), (a, affine(b))):
                mapped_lag, mapped_corr = lead_lag(*pair, 12)
                assert mapped_lag == lag
                assert mapped_corr == pytest.approx(corr, rel=0.0, abs=1e-12)


HEADLINE = make_series("h", "2009-01", [100.0, 101.0])

#: id: (call, error type, message) for each refusal of arguments that no other test makes
REFUSALS = {
    "calibration-r-squared": (
        lambda: PriceCalibration(1.0, 0.0, 1.5),
        ValueError,
        "fit_r_squared 1.5 outside [0, 1]",
    ),
    "extrapolate-non-finite-rate": (
        lambda: extrapolate_headline(HEADLINE, MonthStamp(2009, 1), 3, float("inf")),
        PriceError,
        "annual_rate must be finite, got inf",
    ),
    "trailing-growth-origin-absent": (
        lambda: trailing_growth_rate(HEADLINE, MonthStamp(2010, 1)),
        PriceError,
        "origin 2010-01 absent from 'h'",
    ),
    "trailing-growth-without-history": (
        lambda: trailing_growth_rate(HEADLINE, MonthStamp(2009, 1)),
        PriceError,
        "no trailing history to estimate growth from",
    ),
    "pairs-csv-without-pairs": (
        lambda: parse_calibration_pairs_csv("index,price_usd\n"),
        PriceError,
        "no calibration pairs",
    ),
    "lead-lag-negative-max-lag": (
        lambda: lead_lag(*shifted_pair(7), -1),
        PriceError,
        "max_lag must be >= 0, got -1",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refuses_with_its_exact_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error
    assert str(raised.value) == message
