"""Trend-gap analysis of price indices.

The gap between a headline price index and one of its components moves along
sustainable linear trends for years at a time, with short-lived deviations
that get pulled back. This package fits those trends, finds their turning
points, draws successor trends, forecasts the gap under return-to-trend and
pendulum-overshoot assumptions, translates the result into prices, and
backtests the whole pipeline.

``series`` is loaded with the package. The other modules are loaded on first
use of one of their names, so a process that only parses and differences
series never compiles the trend, fitting, forecasting, price or backtest code.
``trend`` is reached as ``trendgap.trend``; ``fitting`` exports its names.
"""

import importlib

from . import series
from .series import *

__version__ = "0.1.0"

#: The modules loaded on first use, in the order their names appear in ``__all__``.
_STAGES = ("fitting", "forecast", "prices", "backtest")


def __getattr__(name: str):
    """Load a stage module, or the stage module that exports ``name``, and keep the result."""
    if name in _STAGES or name == "trend":
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        value = ["__version__", *series.__all__]
        for stage in _STAGES:
            value += importlib.import_module(f".{stage}", __name__).__all__
    else:
        for stage in _STAGES:
            module = importlib.import_module(f".{stage}", __name__)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_STAGES, *__getattr__("__all__")})
