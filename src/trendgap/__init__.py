"""Trend-gap analysis of price indices.

The gap between a headline price index and one of its components moves along
sustainable linear trends for years at a time, with short-lived deviations
that get pulled back. This package fits those trends, finds their turning
points, draws successor trends, forecasts the gap under return-to-trend and
pendulum-overshoot assumptions, translates the result into prices, and
backtests the whole pipeline.
"""

from . import backtest, fitting, forecast, prices, series
from .backtest import *
from .fitting import *
from .forecast import *
from .prices import *
from .series import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *series.__all__,
    *fitting.__all__,
    *forecast.__all__,
    *prices.__all__,
    *backtest.__all__,
]
