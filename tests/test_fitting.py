"""OLS fitting, breakpoint detection and trend-model assembly."""

import functools
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

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
from trendgap.cli import _residuals_csv
from trendgap.fitting import _design, _SegmentCost, _segment

from conftest import make_diff, stamp
from oracles import (
    ClosedFormPerRowCost,
    PerRowSegmentCost,
    exhaustive_breakpoints,
    exhaustive_breakpoints_k3,
    old_build_trend_model,
    old_classify_deviation,
    old_ols,
    old_residuals_csv,
    ols_oracle,
    per_row_segment,
    sse_of_pieces,
)


class TestFitOls:
    def test_random_windows_are_bit_identical_to_the_per_call_design(self):
        rng = np.random.default_rng(70)
        for trial in range(300):
            n = int(rng.integers(2, 401))
            offset = int(rng.integers(0, 200))
            walk = np.cumsum(rng.normal(0, rng.uniform(0.01, 10), offset + n + 20))
            d = make_diff("1950-01", walk + rng.uniform(-1e5, 1e5))
            lo = d.start.add_months(offset)
            seg = fit_ols(d, (lo, lo.add_months(n - 1)))
            y = np.asarray(d._values)[offset : offset + n]
            want = old_ols(np.arange(n) / 12.0, y)
            assert (seg.intercept, seg.slope, seg.r_squared, seg.residual_sigma) == want, trial
            assert (seg.start, seg.end) == (lo, lo.add_months(n - 1))

    def test_the_shared_design_is_read_only(self):
        d = make_diff("2000-01", [3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        before = fit_ols(d, (d.start, d.end))
        design = _design(6)
        with pytest.raises(ValueError, match="read-only"):
            design[:, 1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            design *= 2.0
        assert fit_ols(d, (d.start, d.end)) == before
        assert _design(6) is design
        with pytest.raises(FitError, match="zero variance"):
            _design(1)

    def test_overflowing_sums_of_squares_are_refused(self):
        # R^2 read 1.0 here, as max(0.0, min(1.0, nan)) does, beside an infinite sigma
        cases = [
            [1e200 * (-1) ** i for i in range(24)],
            [1e200 * (1 + 0.01 * i) - (1 + i) for i in range(24)],
            [1e300, -1e300],
            [1e307] * 30,  # the sum itself overflows
            [1e160 * i for i in range(24)],  # a steep line: only the total sum overflows
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values in cases:
                d = make_diff("2000-01", values)
                with pytest.raises(FitError) as raised:
                    fit_ols(d, (d.start, d.end))
                assert str(raised.value) == (
                    f"window 2000-01..{d.end}: values too large, their sums of squares overflow"
                )

    @pytest.mark.parametrize("scale", [1e100, 1e150, 1e152, 1e153])
    def test_large_values_with_finite_sums_fit_as_before(self, scale):
        # values this large still have finite sums of squares: the same bits, and no warning
        y = scale * (1.0 + np.random.default_rng(31).normal(0, 1e-3, 40))
        d = make_diff("2000-01", y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seg = fit_ols(d, (d.start, d.end))
        want = old_ols(np.arange(40) / 12.0, y)
        assert (seg.intercept, seg.slope, seg.r_squared, seg.residual_sigma) == want

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

    def test_gap_error_names_the_first_missing_month(self):
        months = [*range(3), 5, 6, *range(9, 30)]
        obs = tuple((MonthStamp(2000, 1).add_months(m), float(m % 7)) for m in months)
        d = DifferenceSeries("a", "b", obs)
        with pytest.raises(FitError, match="missing months from 2000-04;"):
            fit_ols(d, (MonthStamp(1999, 1), d.end))
        with pytest.raises(FitError, match="missing months from 2000-08;"):
            fit_ols(d, (MonthStamp(2000, 5), d.end))
        assert fit_ols(d, (MonthStamp(2000, 6), MonthStamp(2000, 7))).start == MonthStamp(2000, 6)
        for segment in (lambda: detect_breakpoints(d, 1, 6), lambda: select_breakpoint_count(d, 2, 6)):
            with pytest.raises(FitError, match="gap-free series; first missing month 2000-04$"):
                segment()

    def test_long_trailing_transition_names_tail_start(self):
        d = make_diff("2000-01", np.arange(120.0))
        tail = d.end.add_months(-35)
        assert build_trend_model(d, [], 0, tail_start=tail).transitions[-1].duration_months == 36
        with pytest.raises(FitError) as raised:
            build_trend_model(d, [], 0, tail_start=tail.add_months(-1))
        assert str(raised.value) == (
            "tail_start 2006-12 leaves a trailing transition 2006-12..2009-12 longer than 36 months"
        )

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

    def test_dp_equals_exhaustive_k3(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            n = int(rng.integers(40, 61))
            walk = np.cumsum(rng.normal(0, 1, n)) + 0.2 * np.arange(n)
            for y in (walk, np.round(walk)):  # rounded: few distinct values
                d = make_diff("1990-01", y)
                got = detect_breakpoints(d, 3, 6)
                _, expected = exhaustive_breakpoints_k3(y, 6)
                assert [months_between(b, d.start) for b in got] == expected, n

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="ROADMAP item 4: a piece of equal values gets an SSE of about 1e-15, "
        "not 0, so exactly tied cut sets do not tie and the DP can miss the earliest",
    )
    def test_dp_equals_exhaustive_k3_on_step_series(self):
        # step-shaped walks: many pieces of equal values, so many exact ties
        mismatched = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 61))
            y = np.round(0.1 * np.cumsum(rng.normal(0, 1, n)))
            d = make_diff("1990-01", y)
            got = [months_between(b, d.start) for b in detect_breakpoints(d, 3, 6)]
            if got != exhaustive_breakpoints_k3(y, 6)[1]:
                mismatched.append(seed)
        assert mismatched == []

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


@pytest.mark.parametrize("n", [12, 1_200, 12_000, 120_000])
@pytest.mark.parametrize("m", [2, 6])
def test_variance_of_positions_is_positive(n, m):
    # _SegmentCost.sse reads each piece's length, mean position and var_x =
    # Σ(x - x̄)² from closed-form tables and divides by var_x unguarded, so for
    # every piece of m >= 2 months they must match direct sums over its
    # positions, and var_x must be > 0. The direct sums run on integer positions,
    # exact in floating point; var_x does not depend on the centring.
    cost = _SegmentCost(np.zeros(n))
    mean, length, var_x = (np.diagonal(t, offset=m - 1) for t in (cost.mean, cost.m, cost.var_x))
    pieces = sliding_window_view(np.arange(n, dtype=float), m)
    centre = (np.arange(n) / 12.0).mean()
    direct = pieces.mean(axis=1)
    direct_var_x = ((pieces - direct[:, None]) ** 2).sum(axis=1) / 144.0
    assert len(mean) == n - m + 1 and (length == m).all()
    # relative to the span of the positions, since a centred mean can be 0
    np.testing.assert_allclose(mean, direct / 12.0 - centre, rtol=1e-12, atol=1e-12 * n / 12)
    np.testing.assert_allclose(var_x, direct_var_x, rtol=1e-12, atol=0.0)
    assert (var_x > 0.0).all() and (direct_var_x > 0.0).all()


def planted(n, k, rng):
    """A kinked trend whose slope flips sign at k turning points, plus AR(1) noise."""
    breaks = np.arange(1, k + 1) * n // (k + 1) + rng.integers(-50, 51, k)
    flips = np.searchsorted(breaks, np.arange(n), side="right") % 2
    slope = np.where(flips, -1.0, 1.0) * rng.uniform(0.2, 1.0)
    noise, shocks = np.zeros(n), rng.normal(0, 2.0, n)
    for t in range(1, n):
        noise[t] = 0.85 * noise[t - 1] + shocks[t]
    return np.cumsum(slope) + noise


class TestBlockedSegmentTables:
    """The blocked DP gives the per-row DP's tables bit for bit, at every max_k.

    Each block of start positions computes its piece SSEs in one sweep that
    every level reads, and which rows a block computes depends on max_k, so
    each max_k in 1..TOP is compared. Only the cells that callers or a higher
    level read are computed, and every other cell must be blank (inf and 0).
    Levels below max_k must match at position 0 and at every position >=
    min_len; positions 1..min_len-1 lie inside the first piece, where no
    level is read. The top level must match at position 0, the one cell of it
    that callers read.
    """

    MIN_LENS = (6, 7, 15, 16, 17, 31, 32, 33, 60)  # below, at and above the block size
    MAX_K = 4
    TOP = MAX_K + 1

    @staticmethod
    def kinds(n, rng):
        walk = np.cumsum(rng.normal(0, 1, n)) + 0.2 * np.arange(n)
        return {
            "walk": walk,
            "rounded": np.round(walk),  # few distinct values: tied totals
            "constant": np.full(n, 3.0),  # every SSE zero: every total tied
            "offset-1e5": walk + 1e5,
            "offset-1e6": walk + 1e6,
            "scale-1e-2": 1e-2 * walk,
        }

    @classmethod
    def lengths(cls, min_len):
        exact = [(k + 1) * min_len for k in range(cls.TOP + 1)]
        return sorted({n for e in exact for n in (e, e + 1)} | {400})

    @classmethod
    def series(cls, min_len):
        rng = np.random.default_rng(min_len)
        for n in cls.lengths(min_len):
            yield from ((n, kind, y) for kind, y in cls.kinds(n, rng).items())
        if min_len == 60:  # the benchmark's shape: 1200 months, 1 to 3 turning points
            yield from ((1200, f"planted-{k}", planted(1200, k, rng)) for k in (1, 2, 3))

    @classmethod
    @functools.cache
    def grid(cls, min_len):
        """(n, kind, series, per-row suffix, per-row after) for every case.

        A per-row level does not depend on max_k, so the tables at TOP hold
        the oracle for every smaller max_k in their first max_k + 1 levels.
        """
        cases = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, kind, y in cls.series(min_len):
                diff = make_diff("1900-01", y)
                tables = per_row_segment(diff, cls.TOP, min_len, ClosedFormPerRowCost)
                cases.append((n, kind, diff, *tables))
        return cases

    @classmethod
    @functools.cache
    def verbatim(cls, min_len):
        """The per-row (suffix, after) under ``PerRowSegmentCost``, the prefix-sum
        position moments the DP used before, for every case of ``grid``."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return [
                per_row_segment(diff, cls.TOP, min_len, PerRowSegmentCost)
                for _, _, diff, _, _ in cls.grid(min_len)
            ]

    @staticmethod
    def path(diff, after, k):
        """What ``detect_breakpoints`` reads: the path through ``after`` from position 0."""
        points, i = [], 0
        for m in range(k, 0, -1):
            i = int(after[m][i])
            points.append(diff.start.add_months(i))
        return points

    @staticmethod
    def chosen(n, suffix, top):
        """What ``select_breakpoint_count`` reads: the k of least BIC over ``suffix[:, 0]``."""
        bics = [
            n * np.log(max(sse, 1e-12) / n) + (3 * k + 2) * np.log(n)
            for k, sse in enumerate(suffix[: top + 1, 0])
        ]
        return int(np.argmin(bics))

    @staticmethod
    def assert_tables_match(got, want, min_len, label, equal_nan=False):
        top = len(got[0]) - 1
        read = np.zeros(got[0].shape, dtype=bool)
        read[:, 0] = True
        read[:top, min_len:] = True
        for g, w in zip(got, want):
            assert np.array_equal(g[read], w[read], equal_nan=equal_nan), label
        suffix, after = got
        assert np.isinf(suffix[~read]).all() and not after[~read].any(), label

    @pytest.mark.parametrize("min_len", MIN_LENS)
    def test_tables_match_per_row_dp(self, min_len):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, kind, diff, suffix, after in self.grid(min_len):
                for max_k in range(1, self.TOP + 1):
                    want = suffix[: max_k + 1], after[: max_k + 1]
                    got = _segment(diff, max_k, min_len)
                    self.assert_tables_match(got, want, min_len, (n, kind, max_k))

    @pytest.mark.parametrize("min_len", MIN_LENS)
    def test_callers_follow_per_row_tables(self, min_len):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, kind, diff, suffix, after in self.grid(min_len):
                top = min(self.MAX_K, n // min_len - 1)
                for k in range(top + 1):
                    got = detect_breakpoints(diff, k, min_len)
                    assert got == self.path(diff, after, k), (n, kind, k)
                k = self.chosen(n, suffix, top)
                got = select_breakpoint_count(diff, self.MAX_K, min_len)
                assert got == (k, self.path(diff, after, k)), (n, kind)

    @pytest.mark.parametrize("min_len", MIN_LENS)
    def test_decisions_match_the_prefix_sum_moments(self, min_len):
        # The closed-form position moments move SSE bits but no decision: for
        # every k <= TOP on the whole grid, rounded and constant series included,
        # the breakpoints and select_breakpoint_count's k equal those of the
        # per-row DP under the prefix-sum moments.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for (n, kind, diff, _, _), (suffix, after) in zip(
                self.grid(min_len), self.verbatim(min_len)
            ):
                top = min(self.TOP, n // min_len - 1)
                for k in range(1, top + 1):
                    got = detect_breakpoints(diff, k, min_len)
                    assert got == self.path(diff, after, k), (n, kind, k)
                k = self.chosen(n, suffix, top)
                got = select_breakpoint_count(diff, self.TOP, min_len)
                assert got == (k, self.path(diff, after, k)), (n, kind)

    @staticmethod
    def overflowing():
        # Sums of squares overflow, so no segmentation is feasible; the oracle's
        # prefix sums warn, the DP's do not. Scaled noise turns the SSEs nan or inf.
        # Two huge last months leave every total of a break row inf, where the
        # earliest feasible break must still be recorded.
        rng = np.random.default_rng(20)
        return {
            "1e153": 1e153 * rng.normal(0, 1, 200),
            "1e200": 1e200 * rng.normal(0, 1, 200),
            "tail": np.concatenate([rng.normal(0, 1, 198), [-1e155, 1e155]]),
        }

    def test_overflowing_series_match_and_are_infeasible(self):
        for label, y in self.overflowing().items():
            d = make_diff("1900-01", y)
            for max_k in range(1, 5):
                case = (label, max_k)
                with warnings.catch_warnings(record=True) as old:
                    warnings.simplefilter("always")
                    want = per_row_segment(d, max_k, 20, ClosedFormPerRowCost)
                with warnings.catch_warnings(record=True) as new:
                    warnings.simplefilter("always")
                    got = _segment(d, max_k, 20)
                assert not np.isfinite(got[0][:, 0]).any(), case
                self.assert_tables_match(got, want, 20, case, equal_nan=True)
                assert old and not new, case
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FitError, match="no feasible segmentation"):
                    detect_breakpoints(d, 2, 20)

    def test_select_refuses_overflowing_series(self):
        for label, y in self.overflowing().items():
            d = make_diff("1900-01", y)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FitError, match="no feasible segmentation"):
                    select_breakpoint_count(d, 3, 20)


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

    @pytest.mark.parametrize(
        "offset, label, z",
        [
            (3.0, "above", np.inf),
            (-3.0, "below", -np.inf),
            (0.0, "on-trend", 0.0),
            (np.nan, "below", np.nan),
        ],
        ids=["above", "below", "on-trend", "nan"],
    )
    def test_a_perfect_fit_scores_any_deviation_infinite(self, offset, label, z):
        """With no residual spread, z is the deviation's sign times infinity, 0 for none and
        nan for a nan value, which is not scored on-trend."""
        seg = LinearSegment(MonthStamp(2000, 1), MonthStamp(2004, 12), 0.0, 12.0, 1.0, 0.0)
        stamp = MonthStamp(2001, 1)
        out = classify_deviation(TrendModel((seg,), ()), stamp, seg.predicted(stamp) + offset)
        assert out.label == label
        assert out.z == z or np.isnan(z) and np.isnan(out.z)


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


def random_build_case(rng):
    """A seeded series, 0-3 breakpoints (some unsorted), halfwidth 0-19, tail on or off."""
    n = int(rng.integers(24, 160))
    start = MonthStamp(1990, 1).add_months(int(rng.integers(0, 240)))
    values = np.cumsum(rng.normal(0, 1, n))
    keep = np.ones(n, dtype=bool)
    if rng.random() < 0.15:
        keep[rng.integers(1, n - 1, size=int(rng.integers(1, 4)))] = False
    obs = tuple((start.add_months(i), float(values[i])) for i in range(n) if keep[i])
    diff = DifferenceSeries("a", "b", obs)
    # offsets 0 and n put a breakpoint just outside the span
    offsets = rng.integers(0, n + 1, size=int(rng.integers(0, 4)))
    points = [start.add_months(int(m)) for m in offsets]
    if rng.random() < 0.85:
        points.sort()
    tail = start.add_months(int(rng.integers(1, n))) if rng.random() < 0.5 else None
    return diff, points, int(rng.integers(0, 20)), tail


def random_laid_model(rng):
    """Segments with gaps of any length, some gaps partly covered by transitions."""
    cursor = MonthStamp(2000, 1).add_months(int(rng.integers(0, 12)))
    segments, transitions = [], []
    for _ in range(int(rng.integers(1, 5))):
        if segments:
            gap = int(rng.integers(0, 9))
            if gap and rng.random() < 0.6:
                a = int(rng.integers(0, gap))
                b = int(rng.integers(a, gap))
                transitions.append(TransitionWindow(cursor.add_months(a), cursor.add_months(b)))
            cursor = cursor.add_months(gap)
        end = cursor.add_months(int(rng.integers(0, 30)))
        sigma = 0.0 if rng.random() < 0.1 else float(rng.random() * 2)
        segments.append(
            LinearSegment(cursor, end, rng.normal(0, 5), rng.normal(0, 5), rng.random(), sigma)
        )
        cursor = end.add_months(1)
    if rng.random() < 0.5:
        a = int(rng.integers(0, 6))
        transitions.append(
            TransitionWindow(cursor.add_months(a), cursor.add_months(a + int(rng.integers(0, 12))))
        )
    return TrendModel(segments, transitions)


def built_outcome(build, diff, points, halfwidth, tail):
    try:
        model = build(diff, points, halfwidth, tail_start=tail)
    except Exception as exc:
        return type(exc), str(exc)
    return model.segments, model.transitions


class TestTrendModelOracle:
    def test_build_matches_oracle(self):
        rng = np.random.default_rng(50)
        kinds = set()
        for trial in range(600):
            case = random_build_case(rng)
            want = built_outcome(old_build_trend_model, *case)
            assert built_outcome(build_trend_model, *case) == want, (trial, case[1:])
            kinds.add(want[0] if isinstance(want[0], type) else "model")
            if want[0] is FitError and "trailing transition" in want[1]:
                kinds.add("long tail")
        assert {"model", FitError, "long tail"} <= kinds

    def test_classification_and_residuals_match_oracle(self):
        rng = np.random.default_rng(51)
        models, seen = [], set()
        while len(models) < 150:
            diff, points, halfwidth, tail = random_build_case(rng)
            try:
                models.append((build_trend_model(diff, points, halfwidth, tail_start=tail), diff))
            except ValueError:
                pass
        models += [(random_laid_model(rng), None) for _ in range(150)]
        for trial, (model, diff) in enumerate(models):
            obs = []
            for stamp in probe_months(model):
                if diff is not None and diff.has(stamp):
                    obs.append((stamp, diff.value_at(stamp)))
                else:
                    obs.append((stamp, float(rng.normal(0, 10))))
            for stamp, value in obs:
                got = classify_deviation(model, stamp, value)
                label, z, segment, extrapolated = old_classify_deviation(model, stamp, value)
                assert (got.label, got.z, got.segment, got.extrapolated) == (
                    label, z, segment, extrapolated,
                ), (trial, stamp)
                assert got.segment is segment, (trial, stamp)
                if segment is not None:
                    label = "extrapolated" if extrapolated else "in-segment"
                seen.add(label)
                if extrapolated and is_tie(model, stamp):
                    seen.add("tie")
            probe = DifferenceSeries("a", "b", tuple(obs))
            assert _residuals_csv(probe, model) == old_residuals_csv(probe, model), trial
        assert seen == {"in-segment", "in-transition", "extrapolated", "tie"}

    def test_residual_rows_follow_zone(self):
        """Each residuals.csv row is ``zone``'s label after the trend value of its segment
        and the residual from it, both empty in a transition: the two read one rule."""
        rng = np.random.default_rng(52)
        seen = set()
        for trial in range(150):
            model = random_laid_model(rng)
            obs = tuple((stamp, float(rng.normal(0, 10))) for stamp in probe_months(model))
            header, *rows = _residuals_csv(DifferenceSeries("a", "b", obs), model).splitlines()
            assert header == "date,value,predicted,residual,zone"
            assert len(rows) == len(obs)
            for (stamp, value), row in zip(obs, rows):
                label, segment = model.zone(stamp)
                cells = ["", ""]
                if segment is not None:
                    predicted = segment.predicted(stamp)
                    cells = [repr(predicted), repr(value - predicted)]
                assert row == ",".join([str(stamp), repr(value), *cells, label]), (trial, row)
                seen.add(label if label in ("transition", "extrapolation") else "trend")
                if label == "extrapolation" and is_tie(model, stamp):
                    seen.add("tie")
        assert seen == {"trend", "transition", "extrapolation", "tie"}


def probe_months(model):
    """Every month from 30 before the model's first segment to 30 after its last month."""
    first = model.segments[0].start
    last = max([model.segments[-1].end, *(w.end for w in model.transitions)])
    return [first.add_months(m) for m in range(-30, months_between(last, first) + 31)]


def is_tie(model, stamp):
    """Whether the two segments nearest to ``stamp`` are equally near."""
    distances = sorted(
        min(abs(months_between(stamp, s.start)), abs(months_between(stamp, s.end)))
        for s in model.segments
    )
    return len(distances) > 1 and distances[0] == distances[1]


def segment(start, end, r_squared=0.9, sigma=1.0):
    return LinearSegment(stamp(start), stamp(end), 0.0, 1.0, r_squared, sigma)


TWO_SEGMENTS = (segment("2000-01", "2000-12"), segment("2003-01", "2003-12"))
TWO_YEARS = make_diff("2000-01", range(24))

#: id: (call, error type, message) for each refusal of arguments that no other test makes
REFUSALS = {
    "segment-end-before-start": (
        lambda: segment("2000-02", "2000-01"),
        ValueError,
        "segment end 2000-01 before start 2000-02",
    ),
    "segment-r-squared": (
        lambda: segment("2000-01", "2000-12", r_squared=1.5),
        ValueError,
        "r_squared 1.5 outside [0, 1]",
    ),
    "segment-negative-sigma": (
        lambda: segment("2000-01", "2000-12", sigma=-1.0),
        ValueError,
        "negative residual_sigma -1.0",
    ),
    "transition-end-before-start": (
        lambda: TransitionWindow(stamp("2000-02"), stamp("2000-01")),
        ValueError,
        "transition end 2000-01 before start 2000-02",
    ),
    "model-without-segments": (
        lambda: TrendModel((), ()),
        ValueError,
        "trend model needs at least one segment",
    ),
    "model-transitions-overlap": (
        lambda: TrendModel(
            TWO_SEGMENTS,
            (TransitionWindow(stamp("2001-01"), stamp("2001-06")),
             TransitionWindow(stamp("2001-06"), stamp("2001-12"))),
        ),
        ValueError,
        "transitions overlap or are out of order at 2001-06",
    ),
    "model-transition-inside-a-segment": (
        lambda: TrendModel(TWO_SEGMENTS, (TransitionWindow(stamp("2000-06"), stamp("2001-06")),)),
        ValueError,
        "transition 2000-06..2001-06 is not strictly between segments",
    ),
    "detect-negative-k": (
        lambda: detect_breakpoints(TWO_YEARS, -1, 6),
        FitError,
        "k must be >= 0, got -1",
    ),
    "select-negative-max-k": (
        lambda: select_breakpoint_count(TWO_YEARS, -1, 6),
        FitError,
        "max_k must be >= 0, got -1",
    ),
    "select-series-shorter-than-min-len": (
        lambda: select_breakpoint_count(make_diff("2000-01", range(10)), 1, 12),
        FitError,
        "series of 10 months is shorter than min_len 12",
    ),
    "select-min-len-below-six": (
        lambda: select_breakpoint_count(TWO_YEARS, 1, 5),
        FitError,
        "min_len must be >= 6, got 5",
    ),
    "build-negative-halfwidth": (
        lambda: build_trend_model(TWO_YEARS, [], -1),
        FitError,
        "transition_halfwidth must be >= 0",
    ),
    "build-tail-start-outside-span": (
        lambda: build_trend_model(TWO_YEARS, [], 0, stamp("2002-01")),
        FitError,
        "tail_start 2002-01 outside series span",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refuses_with_its_exact_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error
    assert str(raised.value) == message
