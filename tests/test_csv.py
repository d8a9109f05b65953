"""The one CSV dialect that every artefact is written in and read back from."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendgap import (
    Forecast,
    MonthlySeries,
    MonthStamp,
    ParseError,
    PriceError,
    parse_calibration_pairs_csv,
    parse_series_csv,
    series_to_csv,
)

# reader, its header, two data rows, and the error type a wrong header raises
READERS = {
    "series": (
        lambda text: parse_series_csv(text, "x").observations,
        "date,value",
        ["1998-01,1.5", "1998-02,-2.25"],
        ParseError,
    ),
    "calibration-pairs": (
        parse_calibration_pairs_csv,
        "index,price_usd",
        ["-120.0,119.4", "-75.0,74.8"],
        PriceError,
    ),
    "forecast": (
        lambda text: Forecast.from_csv(text).to_dict(),
        "date,predicted,low,high",
        ["2011-01,-50.0,-52.0,-48.0", "2011-02,-40.0,-42.0,-38.0"],
        ValueError,
    ),
}

LAYOUTS = {
    "blank-lines-before-header": lambda lines: "\n \n" + "\n".join(lines) + "\n",
    "blank-lines-between-rows": lambda lines: "\n\n".join(lines) + "\n\n",
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "whitespace-around-lines": lambda lines: "".join(f" \t{line} \n" for line in lines),
}


@pytest.mark.parametrize("reader", READERS)
class TestOneDialect:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_layout_is_ignored(self, reader, layout):
        read, header, rows, _ = READERS[reader]
        plain = "\n".join([header, *rows]) + "\n"
        assert read(LAYOUTS[layout]([header, *rows])) == read(plain)

    def test_wrong_header_names_its_line_and_text(self, reader):
        read, header, rows, error = READERS[reader]
        text = "\n".join(["", "  ", "when,what", *rows]) + "\n"
        expected = f"line 3: expected header '{header}', got 'when,what'"
        with pytest.raises(error, match=expected):
            read(text)


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)
first_month = st.integers(1000 * 12, 9000 * 12)


def exactly(values) -> list:
    """The values with the sign of each zero, so ``0.0`` and ``-0.0`` differ."""
    return [(v, math.copysign(1.0, v)) for v in values]


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(finite, min_size=1, max_size=40), start=first_month)
    def test_series(self, values, start):
        origin = MonthStamp(start // 12, start % 12 + 1)
        obs = tuple((origin.add_months(m), v) for m, v in enumerate(values))
        series = MonthlySeries("x", "", obs)
        again = parse_series_csv(series_to_csv(series), "x")
        assert again.stamps == series.stamps
        assert exactly(again.values) == exactly(series.values)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(finite, min_size=1, max_size=40),
        start=first_month,
        band=st.floats(0.0, 1e6),
    )
    def test_forecast_path(self, values, start, band):
        origin = MonthStamp(start // 12, start % 12 + 1)
        path = tuple((origin.add_months(m), v) for m, v in enumerate(values, start=1))
        forecast = Forecast("along-trend", origin, path, band)
        again = Forecast.from_csv(forecast.to_csv())
        assert again.origin == origin
        assert again.stamps == forecast.stamps
        assert exactly(again.values) == exactly(forecast.values)
