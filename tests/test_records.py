"""The records: plain classes that behave as the frozen dataclasses they replaced.

Each case builds a record by position and by keyword (defaults left out), and
names the ``repr`` text the dataclass gave for it. The frozen records compare,
hash and refuse assignment by their fields; ``Section``, the CLI's config view,
is a mutable plain class. ``copy`` and ``pickle`` keep every record's fields.
"""

import copy
import pickle
from types import SimpleNamespace

import pytest

from trendgap import MonthStamp
from trendgap.backtest import BacktestReport
from trendgap.cli import Section
from trendgap.fitting import DeviationClass
from trendgap.forecast import Forecast
from trendgap.prices import PriceCalibration
from trendgap.trend import LinearSegment, TransitionWindow, TrendModel

APRIL, MAY, JUNE = MonthStamp(2009, 4), MonthStamp(2009, 5), MonthStamp(2009, 6)
SEGMENT = LinearSegment(MonthStamp(2000, 1), MonthStamp(2004, 12), 1.5, -2.0, 0.75, 0.5)
SEGMENT_TEXT = (
    "LinearSegment(start=MonthStamp(year=2000, month=1), end=MonthStamp(year=2004, month=12), "
    "intercept=1.5, slope=-2.0, r_squared=0.75, residual_sigma=0.5, synthetic=False)"
)
WINDOW = TransitionWindow(MonthStamp(2005, 1), MonthStamp(2005, 6))


def case(cls, args, kwargs, text, other, frozen=True):
    """``cls(*args)`` and ``cls(**kwargs)`` give the same record, whose dataclass
    ``repr`` was ``text``; ``other`` builds a record of ``cls`` that differs from it.
    A record that is not ``frozen`` has no ``text`` or ``other``."""
    return pytest.param(
        SimpleNamespace(cls=cls, args=args, kwargs=kwargs, text=text, other=other, frozen=frozen),
        id=cls.__name__,
    )


CASES = [
    case(
        MonthStamp,
        (2009, 4),
        {"year": 2009, "month": 4},
        "MonthStamp(year=2009, month=4)",
        lambda: MonthStamp(2009, 5),
    ),
    case(
        LinearSegment,
        (MonthStamp(2000, 1), MonthStamp(2004, 12), 1.5, -2, 0.75, 0.5),
        {
            "start": MonthStamp(2000, 1),
            "end": MonthStamp(2004, 12),
            "intercept": 1.5,
            "slope": -2,
            "r_squared": 0.75,
            "residual_sigma": 0.5,
        },
        SEGMENT_TEXT,
        lambda: LinearSegment(
            MonthStamp(2000, 1), MonthStamp(2004, 12), 1.5, -2.0, 0.75, 0.5, synthetic=True
        ),
    ),
    case(
        TransitionWindow,
        (MonthStamp(2005, 1), MonthStamp(2005, 6)),
        {"start": MonthStamp(2005, 1), "end": MonthStamp(2005, 6)},
        "TransitionWindow(start=MonthStamp(year=2005, month=1), "
        "end=MonthStamp(year=2005, month=6))",
        lambda: TransitionWindow(MonthStamp(2005, 1), MonthStamp(2005, 7)),
    ),
    case(
        TrendModel,
        ([SEGMENT], [WINDOW]),
        {"segments": [SEGMENT], "transitions": [WINDOW]},
        f"TrendModel(segments=({SEGMENT_TEXT},), transitions=(TransitionWindow("
        "start=MonthStamp(year=2005, month=1), end=MonthStamp(year=2005, month=6)),))",
        lambda: TrendModel((SEGMENT,), ()),
    ),
    case(
        DeviationClass,
        ("above", 1.25, SEGMENT),
        {"label": "above", "z": 1.25, "segment": SEGMENT},
        f"DeviationClass(label='above', z=1.25, segment={SEGMENT_TEXT}, extrapolated=False)",
        lambda: DeviationClass("above", 1.25, SEGMENT, extrapolated=True),
    ),
    case(
        Forecast,
        ("pendulum", APRIL, [(MAY, 1), (JUNE, 2.5)], 0.5),
        {"mode": "pendulum", "origin": APRIL, "path": [(MAY, 1), (JUNE, 2.5)], "band_sigma": 0.5},
        "Forecast(mode='pendulum', origin=MonthStamp(year=2009, month=4), "
        "path=((MonthStamp(year=2009, month=5), 1.0), (MonthStamp(year=2009, month=6), 2.5)), "
        "band_sigma=0.5)",
        lambda: Forecast("pendulum", APRIL, [(MAY, 1), (JUNE, 2.5)], 0.25),
    ),
    case(
        PriceCalibration,
        (-1, 0, 1),
        {"alpha": -1, "beta": 0, "fit_r_squared": 1},
        "PriceCalibration(alpha=-1.0, beta=0.0, fit_r_squared=1.0)",
        lambda: PriceCalibration(-1, 0, None),
    ),
    case(
        BacktestReport,
        (3, 1.0, 1.5, -0.5, 0.5),
        {"n": 3, "mae": 1.0, "rmse": 1.5, "bias": -0.5, "direction_hit_rate": 0.5},
        "BacktestReport(n=3, mae=1.0, rmse=1.5, bias=-0.5, direction_hit_rate=0.5, origin=None)",
        lambda: BacktestReport(3, 1.0, 1.5, -0.5, 0.5, origin=APRIL),
    ),
    case(
        Section,
        ({"k": 1},),
        {"values": {"k": 1}},
        None,
        None,
        frozen=False,
    ),
]


@pytest.mark.parametrize("c", CASES)
def test_record_contract(c):
    by_position, by_keyword = c.cls(*c.args), c.cls(**c.kwargs)
    fields = vars(by_position)
    assert vars(by_keyword) == fields
    assert vars(copy.copy(by_position)) == fields
    assert vars(pickle.loads(pickle.dumps(by_position))) == fields
    if not c.frozen:  # a plain class: identity equality, its own repr, attributes assignable
        assert by_position != by_keyword
        by_position.path = "segmentation"
        del by_position.path
        return

    other = c.other()
    assert by_position == by_keyword and not by_position != by_keyword
    assert by_position != other and not by_position == other
    assert hash(by_position) == hash(by_keyword)
    assert by_position != SimpleNamespace(**fields)
    assert by_position != tuple(getattr(by_position, name) for name in c.cls.__match_args__)
    assert repr(by_position) == c.text
    assert copy.copy(by_position) == by_position
    assert pickle.loads(pickle.dumps(by_position)) == by_position
    assert c.cls.__match_args__ == tuple(name for name in fields if not name.startswith("_"))
    name = c.cls.__match_args__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(by_position, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(by_position, name)
    assert vars(by_position) == fields
