"""Series parsing, alignment, differencing and rebasing."""

import re

import numpy as np
import pytest

from trendgap import (
    DifferenceSeries,
    MonthlySeries,
    MonthStamp,
    ParseError,
    SeriesError,
    align,
    difference,
    lead_lag,
    months_between,
    parse_series_csv,
    rebase,
    series_to_csv,
)
from trendgap import series as series_module
from trendgap.series import _month_text, _stamp, _write_csv

from oracles import (
    old_parse_series_csv,
    old_parse_stamp,
    old_str,
    ref_align,
    ref_difference,
    ref_lead_lag,
    ref_missing_months,
    ref_rebase,
    ref_restrict,
    ref_value_at,
)
from conftest import make_series


class TestMonthStamp:
    def test_ordering_is_strict_by_year_month(self):
        stamps = [MonthStamp(2000, 12), MonthStamp(2001, 1), MonthStamp(2000, 1)]
        assert sorted(stamps) == [
            MonthStamp(2000, 1),
            MonthStamp(2000, 12),
            MonthStamp(2001, 1),
        ]
        assert MonthStamp(2000, 1) < MonthStamp(2000, 2)
        assert not MonthStamp(2000, 1) < MonthStamp(2000, 1)

    def test_month_bounds(self):
        with pytest.raises(ValueError):
            MonthStamp(2000, 0)
        with pytest.raises(ValueError):
            MonthStamp(2000, 13)
        # a stamp's text has four year digits, so no other year could be read back
        for year, month in ((10000, 1), (-1, 12), (12345, 6)):
            with pytest.raises(ValueError, match=f"no month {year}-{month}: year must be in 0..9999"):
                MonthStamp(year, month)

    def test_add_months_round_trip(self):
        s = MonthStamp(2009, 3)
        assert s.add_months(10) == MonthStamp(2010, 1)
        assert s.add_months(10).add_months(-10) == s
        assert months_between(s.add_months(37), s) == 37

    def test_add_months_takes_integers_only(self):
        s = MonthStamp(2000, 1)
        assert s.add_months(np.int64(1)) is s.add_months(1) == MonthStamp(2000, 2)
        assert s.add_months(np.int32(-1)) == MonthStamp(1999, 12)
        for count in (1.5, 1.0, True, False, "1", np.float64(2.0), None):
            with pytest.raises(TypeError, match=re.escape(f"month count must be an integer, got {count!r}")):
                s.add_months(count)

    def test_str_and_parse(self):
        assert str(MonthStamp(2009, 3)) == "2009-03"
        assert MonthStamp.parse("2009-03") == MonthStamp(2009, 3)
        with pytest.raises(ValueError):
            MonthStamp.parse("2009-3")

    def test_first_and_last_months_round_trip(self):
        obs = ((MonthStamp(0, 1), 1.5), (MonthStamp(9999, 12), -2.0))
        text = series_to_csv(MonthlySeries("x", "", obs))
        assert text.splitlines()[1:] == ["0000-01,1.5", "9999-12,-2.0"]
        assert parse_series_csv(text, "x").observations == obs
        for first, step in ((MonthStamp(0, 1), -1), (MonthStamp(9999, 12), 1)):
            with pytest.raises(ValueError, match="year must be in 0..9999"):
                first.add_months(step)


class TestInterning:
    """Each month's stamp is built once per process and handed out again by ordinal."""

    @pytest.mark.parametrize("year, month", [(0, 1), (2009, 4), (7777, 7), (9999, 12)])
    def test_the_same_ordinal_gives_the_same_object(self, year, month):
        o = year * 12 + month - 1
        first = _stamp(np.int64(o))
        assert type(first.year) is int and type(first.month) is int
        assert _stamp(o) is _stamp(o) is first
        built = MonthStamp(year, month)
        assert built == _stamp(o) and hash(built) == hash(_stamp(o))
        assert MonthStamp.parse(str(built)) is _stamp(o)

    def test_api_stamps_are_interned(self):
        series = make_series("x", "2000-11", [1.0, 2.0, 3.0])
        assert all(a is b for a, b in zip(series.stamps, series.stamps))
        assert series.start is series.observations[0][0] is MonthStamp(2000, 1).add_months(10)
        assert series.end is series.stamps[-1]

    def test_an_invalid_ordinal_raises_every_time_and_is_not_kept(self):
        for ordinal in (12 * 10000, -1, np.int64(12 * 10000)):
            for _ in range(2):
                with pytest.raises(ValueError, match="year must be in 0..9999"):
                    _stamp(ordinal)
            assert ordinal not in series_module._STAMPS


class TestParseCsv:
    def test_single_row(self):
        series = parse_series_csv("date,value\n1997-12,161.8", "cpi")
        assert series.observations == ((MonthStamp(1997, 12), 161.8),)
        assert series.series_id == "cpi"

    def test_empty_body_is_an_error(self):
        with pytest.raises(ParseError, match="empty series"):
            parse_series_csv("date,value\n", "x")

    def test_rows_out_of_order_are_sorted(self):
        series = parse_series_csv("date,value\n1998-02,2.0\n1998-01,1.0", "x")
        assert series.stamps == (MonthStamp(1998, 1), MonthStamp(1998, 2))
        assert series.values == (1.0, 2.0)

    def test_crlf_and_blank_lines(self):
        series = parse_series_csv("date,value\r\n1998-01,1.0\r\n\r\n1998-02,2.0\r\n", "x")
        assert len(series) == 2

    def test_malformed_date_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_series_csv("date,value\n1998-01,1.0\n1998-13,2.0", "x")

    def test_duplicate_month_reports_line(self):
        with pytest.raises(ParseError, match="duplicate month"):
            parse_series_csv("date,value\n1998-01,1.0\n1998-01,2.0", "x")

    def test_non_numeric_value(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_series_csv("date,value\n1998-01,abc", "x")

    def test_non_finite_value(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_series_csv("date,value\n1998-01,nan", "x")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_series_csv("month,val\n1998-01,1.0", "x")

    def test_round_trip_through_csv(self):
        series = make_series("x", "2001-11", [100.0, 101.5, 99.25])
        again = parse_series_csv(series_to_csv(series), "x")
        assert again.observations == series.observations

    def test_gaps_are_permitted_but_reported(self):
        series = parse_series_csv("date,value\n1998-01,1.0\n1998-04,2.0", "x")
        assert series.missing_months() == (MonthStamp(1998, 2), MonthStamp(1998, 3))
        assert not series.is_contiguous()


class TestAlign:
    def test_partial_overlap(self):
        a = make_series("a", "1980-01", range(372))  # through 2010-12
        b = make_series("b", "1985-01", range(312))
        aa, bb = align(a, b)
        assert aa.stamps == bb.stamps
        assert aa.start == MonthStamp(1985, 1)
        assert aa.end == MonthStamp(2010, 12)

    def test_identical_coverage_is_identity(self):
        a = make_series("a", "2000-01", [1, 2, 3])
        b = make_series("b", "2000-01", [4, 5, 6])
        aa, bb = align(a, b)
        assert aa.observations == a.observations
        assert bb.observations == b.observations

    def test_disjoint_coverage_fails(self):
        a = make_series("a", "2000-01", [1, 2])
        b = make_series("b", "2005-01", [1, 2])
        with pytest.raises(SeriesError, match="no overlapping months"):
            align(a, b)

    def test_commutative_and_idempotent(self):
        rng = np.random.default_rng(7)
        a = make_series("a", "2000-01", rng.normal(100, 5, 40))
        b = make_series("b", "2001-06", rng.normal(100, 5, 40))
        ab = align(a, b)
        ba = align(b, a)
        assert ab[0].observations == ba[1].observations
        assert ab[1].observations == ba[0].observations
        again = align(*ab)
        assert again[0].observations == ab[0].observations


class TestDifference:
    def test_identical_series_gives_zero(self):
        a = make_series("a", "2000-01", [10, 20, 30])
        d = difference(a, a)
        assert all(v == 0.0 for v in d.values)

    def test_communication_start_level(self):
        cpi = make_series("cpi", "1997-12", [161.8])
        comm = make_series("communication", "1997-12", [100.0])
        d = difference(cpi, comm)
        assert d.values[0] == pytest.approx(61.8, rel=1e-12)
        assert d.minuend_id == "cpi"
        assert d.subtrahend_id == "communication"

    def test_random_pair_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        av = rng.normal(150, 10, 10)
        bv = rng.normal(100, 10, 10)
        a = make_series("a", "2003-05", av)
        b = make_series("b", "2003-05", bv)
        d = difference(a, b)
        for (stamp, value), x, y in zip(d.observations, av, bv):
            assert value == x - y

    def test_difference_plus_subtrahend_recovers_minuend(self):
        rng = np.random.default_rng(13)
        a = make_series("a", "1990-01", rng.normal(120, 8, 60))
        b = make_series("b", "1991-01", rng.normal(90, 8, 60))
        d = difference(a, b)
        for stamp, value in d.observations:
            recovered = value + b.value_at(stamp)
            assert recovered == pytest.approx(a.value_at(stamp), rel=1e-12)

    def test_an_overflowing_month_is_refused_by_name(self):
        """Two finite values can differ by more than the largest float: the result is refused
        at its month, not returned holding inf."""
        a = make_series("a", "2000-01", [1.0, 1e308])
        b = make_series("b", "2000-01", [1.0, -1e308])
        message = "non-finite value inf at 2000-02 in difference 'a'-'b'"
        with pytest.raises(SeriesError, match=re.escape(message)):
            difference(a, b)


class TestRebase:
    def test_rebase_to_current_value_is_identity(self):
        a = make_series("a", "2000-01", [100.0, 110.0, 121.0])
        anchor = MonthStamp(2000, 1)
        out = rebase(a, anchor, 100.0)
        assert out.values == a.values

    def test_linear_scaling(self):
        a = make_series("a", "2000-01", [100.0, 110.0, 121.0])
        out = rebase(a, MonthStamp(2000, 1), 200.0)
        assert out.values == pytest.approx((200.0, 220.0, 242.0), rel=1e-12)
        assert out.value_at(MonthStamp(2000, 1)) == 200.0

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        a = make_series("a", "1995-01", rng.uniform(50, 200, 24))
        anchor = MonthStamp(1995, 7)
        there = rebase(a, anchor, 500.0)
        back = rebase(there, anchor, a.value_at(anchor))
        for v0, v1 in zip(a.values, back.values):
            assert v1 == pytest.approx(v0, rel=1e-12)

    def test_ratios_are_preserved(self):
        rng = np.random.default_rng(5)
        a = make_series("a", "1995-01", rng.uniform(50, 200, 12))
        out = rebase(a, MonthStamp(1995, 3), 777.0)
        for i in range(len(a) - 1):
            before = a.values[i + 1] / a.values[i]
            after = out.values[i + 1] / out.values[i]
            assert after == pytest.approx(before, rel=1e-12)

    def test_missing_anchor(self):
        a = make_series("a", "2000-01", [1.0, 2.0])
        with pytest.raises(SeriesError, match="absent"):
            rebase(a, MonthStamp(1999, 1), 100.0)

    def test_zero_anchor_value(self):
        a = make_series("a", "2000-01", [0.0, 2.0])
        with pytest.raises(SeriesError, match="zero"):
            rebase(a, MonthStamp(2000, 1), 100.0)

    @pytest.mark.parametrize(
        "values, anchor_value",
        [([1.0, 1e300], 1e10), ([1e-300, 2.0], 1e300)],
        ids=["value-overflows", "scale-overflows"],
    )
    def test_an_overflowing_month_is_refused_by_name(self, values, anchor_value):
        """A rescaled value past the largest float is refused at its month."""
        a = make_series("a", "2000-01", values)
        message = "non-finite value inf at 2000-02 in series 'a'"
        with pytest.raises(SeriesError, match=re.escape(message)):
            rebase(a, MonthStamp(2000, 1), anchor_value)


class TestInvariants:
    def test_values_must_be_finite(self):
        with pytest.raises(SeriesError, match="non-finite"):
            MonthlySeries("x", "", ((MonthStamp(2000, 1), float("inf")),))

    def test_duplicate_stamps_rejected(self):
        obs = ((MonthStamp(2000, 1), 1.0), (MonthStamp(2000, 1), 2.0))
        with pytest.raises(SeriesError, match="strictly increasing"):
            MonthlySeries("x", "", obs)

    def test_empty_series_rejected(self):
        with pytest.raises(SeriesError, match=r"^empty series 'x'$"):
            MonthlySeries("x", "", ())


def outcome(call):
    """The result of ``call()``, or the type and text of the error it raised."""
    try:
        return "ok", call()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def gappy_series(rng, series_id, drop, start):
    n = int(rng.integers(30, 120))
    kind = rng.random()
    if kind < 0.15:
        values = np.full(n, 4.0)  # every lag correlates 0.0: lead_lag must break the tie
    elif kind < 0.6:
        values = np.round(rng.normal(0.0, 3.0, n))  # small integers: ties and zeros
    else:
        values = rng.normal(100.0, 10.0, n)
    kept = rng.random(n) >= drop
    kept[0] = True
    obs = tuple((start.add_months(i), float(v)) for i, v in enumerate(values) if kept[i])
    return MonthlySeries(series_id, "base", obs)


def other_lead_lag_path(da, db):
    """A pair like ``da, db`` that ``lead_lag`` pairs the other way: the same values one a
    month from the same first months when either has a gap, else ``db`` less its second month."""
    if da.is_contiguous() and db.is_contiguous():
        obs = db.observations
        return da, DifferenceSeries(db.minuend_id, db.subtrahend_id, obs[:1] + obs[2:])
    return tuple(
        DifferenceSeries("m", "s", tuple(zip(map(s.start.add_months, range(len(s))), s.values)))
        for s in (da, db)
    )


class TestGappyOracle:
    """Array-backed operations against the tuple-and-dict code, on series with gaps."""

    @pytest.mark.parametrize("drop", [0.0, 0.05, 0.3])
    def test_operations_match_reference(self, drop):
        seen = set()
        rng = np.random.default_rng(int(drop * 100) + 17)
        origin = MonthStamp(1990, 1)
        for _ in range(40):
            a = gappy_series(rng, "a", drop, origin.add_months(int(rng.integers(0, 24))))
            offset = int(rng.integers(0, 24)) if rng.random() < 0.9 else 400  # some disjoint
            b = gappy_series(rng, "b", drop, origin.add_months(offset))

            def obs(pair):
                return tuple(s.observations for s in pair)

            assert outcome(lambda: obs(align(a, b))) == outcome(lambda: ref_align(a, b))
            assert outcome(lambda: difference(a, b).observations) == outcome(
                lambda: ref_difference(a, b)
            )
            assert a.missing_months() == ref_missing_months(a)
            assert a.is_contiguous() == (not ref_missing_months(a))

            for _ in range(5):
                lo = a.start.add_months(int(rng.integers(-6, len(a) + 6)))
                hi = a.start.add_months(int(rng.integers(-6, len(a) + 6)))
                assert outcome(lambda: a.restrict(lo, hi).observations) == outcome(
                    lambda: ref_restrict(a, lo, hi)
                )
                probe = a.start.add_months(int(rng.integers(-3, len(a) + 3)))
                assert a.has(probe) == (probe in dict(a.observations))
                assert outcome(lambda: a.value_at(probe)) == outcome(
                    lambda: ref_value_at(a, probe)
                )
                target = float(rng.choice([100.0, 7.5, -3.0]))
                assert outcome(
                    lambda: (rebase(a, probe, target).base_note, rebase(a, probe, target).observations)
                ) == outcome(lambda: ref_rebase(a, probe, target))

            da = DifferenceSeries("a-m", "a-s", a.observations)
            db = DifferenceSeries("b-m", "b-s", b.observations)
            max_lag = int(rng.integers(0, 7))
            min_overlap = int(rng.choice([2, 12, 24, 60]))
            # the pair, and one like it that takes lead_lag's other path
            for pa, pb in ((da, db), other_lead_lag_path(da, db)):
                got = outcome(lambda: lead_lag(pa, pb, max_lag, min_overlap))
                assert got == outcome(lambda: ref_lead_lag(pa, pb, max_lag, min_overlap))
                # series with no gap are paired by slices, others looked up month by month
                path = "slice" if pa.is_contiguous() and pb.is_contiguous() else "searchsorted"
                short = got[0] == "PriceError" and ": 0 months" not in got[1]
                seen.add((path, "short" if short else got[0]))
        assert {path for path, _ in seen} == {"slice", "searchsorted"}
        assert ("slice", "short") in seen  # a gap-free pair sharing some months, too few

    @pytest.mark.parametrize(
        "offsets",
        [[0], list(range(0, 24, 2)), [0, 1], [0, 13], [0, 11, 12, 40]],
        ids=["one-month", "every-other-month", "two-months", "one-gap", "mixed-gaps"],
    )
    def test_missing_months_of_short_and_sparse_series(self, offsets):
        start = MonthStamp(1999, 12)
        a = MonthlySeries("a", "", tuple((start.add_months(k), 1.0) for k in offsets))
        assert a.missing_months() == ref_missing_months(a)
        assert a.is_contiguous() == (not ref_missing_months(a))


# (date token, value text) rows that each break one check, or pass one that looks odd
ODD_ROWS = [
    ("2000-1", "1.0"),
    ("2000-13", "1.0"),
    ("2000-00", "1.0"),
    ("200-01", "1.0"),
    ("2000/01", "1.0"),
    ("2000-01-01", "1.0"),
    ("", "1.0"),
    ("²000-01", "1.0"),
    ("２０００-01", "1.0"),
    ("MONTH", "1.0"),
    ("2000-01 ", " 1.5"),
    ("1999-12", "abc"),
    ("1999-11", ""),
    ("1999-10", "nan"),
    ("1999-09", "-inf"),
    ("1999-08", "1e999"),
    ("1999-07", "0x10"),
    ("1999-06", "1_000.5"),
]


def random_series_text(rng):
    """Seeded ``date,value`` text: shuffled months, with some duplicated, odd or
    malformed rows, extra fields, blank lines and CRLF endings."""
    start = int(rng.integers(1990 * 12, 2010 * 12))
    months = start + np.sort(rng.choice(200, size=int(rng.integers(0, 40)), replace=False))
    values = rng.normal(0, 50, len(months))
    rows = [f"{m // 12:04d}-{m % 12 + 1:02d},{float(v)!r}" for m, v in zip(months, values)]
    rng.shuffle(rows)
    for _ in range(int(rng.integers(0, 3))):
        kind = rng.random()
        at = int(rng.integers(0, len(rows) + 1))
        if kind < 0.3 and rows:
            rows.insert(at, rows[int(rng.integers(0, len(rows)))])  # a duplicate month
        elif kind < 0.8:
            rows.insert(at, ",".join(ODD_ROWS[int(rng.integers(0, len(ODD_ROWS)))]))
        elif kind < 0.9:
            rows.insert(at, "2001-05,1.0,2.0")
        else:
            rows.insert(at, "")
    header = "date,value" if rng.random() < 0.95 else "date;value"
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    return newline.join([header, *rows]) + (newline if rng.random() < 0.8 else "")


def parsed(parse, text):
    """The series ``parse`` makes of ``text``, or the type, text and line of its error."""
    try:
        series = parse(text, "x", "note")
    except ParseError as exc:
        return type(exc), str(exc), exc.line_no
    assert series._months.typecode == "q" and series._values.typecode == "d"
    return series.series_id, series.base_note, series.observations


class TestParseOracle:
    def test_seeded_inputs_match_the_per_stamp_parser(self):
        rng = np.random.default_rng(61)
        kinds = set()
        for trial in range(400):
            text = random_series_text(rng)
            want = parsed(old_parse_series_csv, text)
            assert parsed(parse_series_csv, text) == want, (trial, text)
            message = want[1].split(": ", 1)[-1] if want[0] is ParseError else "ok"
            kinds.add(" ".join(message.split()[:2]))
        # every check was reached, and int() refusing a non-ASCII digit that isdigit() allows
        assert kinds == {
            "ok", "expected header", "expected 2", "malformed date", "invalid literal",
            "duplicate month", "non-numeric value", "non-finite value", "empty series",
        }

    @pytest.mark.parametrize("token", [row[0] for row in ODD_ROWS] + ["1998-01", "9999-12"])
    def test_month_stamp_parse_matches_the_old_parser(self, token):
        assert outcome(lambda: MonthStamp.parse(token)) == outcome(lambda: old_parse_stamp(token))


# Plain texts: the header, then LF-ended YYYY-MM,<value> rows of ASCII digits.
# Each is (body rows, final LF); the clean ones parse, the faulty ones fail a check.
CLEAN_PLAIN = {
    "in order": (["2000-01,1.5", "2000-02,2", "2000-03,-3.25"], True),
    "out of order": (["2000-03,3", "2000-01,1", "1999-12,0", "2000-02,2"], True),
    "no final LF": (["2000-01,1.5", "2000-02,2"], False),
    "one row, no final LF": (["1997-12,161.8"], False),
    "signs and exponents": (["2000-01,-0.0", "2000-02,1e-05", "2000-03,+7", "2000-04,.5",
                             "2000-05,5.", "2000-06,1E5", "2000-07,-2.5e+3", "2000-08,007"], True),
    "tiny and huge": (["2000-01,5e-324", "2000-02,1e308", "2000-03,0.30000000000000004"], True),
    "years 0000 and 9999": (["9999-12,2", "0000-01,1", "9999-11,4", "0000-02,3"], True),
}
FAULTY_PLAIN = {
    "duplicate month": (["2000-01,1", "2000-02,2", "2000-01,3"], True),
    "out-of-order duplicate": (["2000-03,1", "2000-01,2", "2000-03,3"], False),
    "overflow": (["2000-01,1", "2000-02,1e999"], True),
    "negative overflow": (["2000-01,-1e999"], False),
    "a lone point": (["2000-01,1", "2000-02,."], True),
    "double sign": (["2000-01,--1"], True),
    "no mantissa": (["2000-01,e5"], True),
    "two points": (["2000-01,1.2.3"], True),
    "month 00": (["2000-00,1"], True),
    "month 13": (["2000-01,1", "2000-13,1"], True),
    "empty body": ([], True),
    "no value": (["2000-01,"], True),
}


def plain_text(rows, final_lf):
    return "\n".join(["date,value", *rows]) + ("\n" if final_lf else "")


def parsed_exactly(parse, text):
    """``parsed``, with each value's repr, so that -0.0 and 0.0 differ."""
    got = parsed(parse, text)
    return got if got[0] is ParseError else (got, [repr(v) for _, v in got[2]])


class TestBulkParse:
    """Plain text is read in bulk; it gives what the line walker gives, and only the
    walker reports errors."""

    @pytest.mark.parametrize("case", [*CLEAN_PLAIN, *FAULTY_PLAIN])
    def test_plain_texts_match_the_per_stamp_parser(self, case):
        text = plain_text(*{**CLEAN_PLAIN, **FAULTY_PLAIN}[case])
        want = parsed_exactly(old_parse_series_csv, text)
        assert parsed_exactly(parse_series_csv, text) == want
        assert (want[0] is ParseError) == (case in FAULTY_PLAIN)

    def test_only_faulty_plain_texts_reach_the_line_walker(self, monkeypatch):
        class Walked(Exception):
            pass

        def walker(*args):
            raise Walked

        expected = {case: parsed_exactly(parse_series_csv, plain_text(*rows))
                    for case, rows in CLEAN_PLAIN.items()}
        monkeypatch.setattr(series_module, "_read_csv", walker)
        for case, rows in CLEAN_PLAIN.items():
            assert parsed_exactly(parse_series_csv, plain_text(*rows)) == expected[case], case
        for case, rows in FAULTY_PLAIN.items():
            with pytest.raises(Walked):
                parse_series_csv(plain_text(*rows), "x")
        # any other form goes to the walker too, even when it would parse
        for text in ("date,value\r\n2000-01,1\r\n", "date,value\n\n2000-01,1\n",
                     "date,value\n2000-01, 1\n", "date,value\n２０００-01,1\n",
                     "date,value\n2000-01,1\n\n"):
            with pytest.raises(Walked):
                parse_series_csv(text, "x")


class TestMonthText:
    @pytest.mark.parametrize("start", ["0000-06", "0001-01", "0999-11", "1999-12", "9999-01"])
    def test_series_to_csv_equals_the_observation_rows(self, start):
        rng = np.random.default_rng(62)
        first = MonthStamp.parse(start)
        # values whose repr is easy to get wrong, then random ones
        values = [-0.0, 5e-324, 1e16, 0.1 + 0.2, *rng.normal(0, 1e3, 2)]
        # every other month of a year: a series from 9999-01 ends by 9999-12, the last stamp
        obs = tuple((first.add_months(m), float(v)) for m, v in zip(range(0, 12, 2), values))
        series = MonthlySeries("x", "", obs)
        assert series_to_csv(series) == _write_csv("date,value", series.observations)
        assert series_to_csv(series) == _write_csv(
            "date,value", ((old_str(stamp), value) for stamp, value in obs)
        )
        assert series_to_csv(series) == "date,value\n" + "".join(
            f"{old_str(stamp)},{value!r}\n" for stamp, value in obs
        )
        assert series_to_csv(series).splitlines()[1] == f"{start},-0.0"
        assert [str(stamp) for stamp, _ in obs] == [old_str(stamp) for stamp, _ in obs]

    @pytest.mark.parametrize("year, month", [(0, 1), (2009, 4), (9999, 12)])
    def test_month_text_is_interned_for_int_and_numpy_ordinals(self, year, month):
        o = year * 12 + month - 1
        text = _month_text(np.int64(o))
        assert text == old_str(MonthStamp(year, month))
        assert _month_text(o) is text
        assert str(MonthStamp(year, month)) is text
        assert all(type(key) is int for key in series_module._TEXTS)
