"""Translate index-space paths into price statements.

Index points only become interesting once they say something about prices:
percent changes of a component index, dollars per barrel through an affine
index-to-price map, and the lead of one difference series over another.
"""

from __future__ import annotations

import math

import numpy as np

from .forecast import Forecast
from .series import DifferenceSeries, MonthlySeries, MonthStamp, _read_csv, _Record, months_between


class PriceError(ValueError):
    """Invalid input to a price-translation operation."""


class PriceCalibration(_Record):
    """Affine map ``price = alpha * index + beta`` (USD per index point)."""

    alpha: float
    beta: float
    fit_r_squared: float | None  # None for a rule of thumb, not a least-squares fit

    def __init__(self, alpha, beta, fit_r_squared):
        alpha, beta = float(alpha), float(beta)
        if fit_r_squared is not None:
            fit_r_squared = float(fit_r_squared)
            if not 0.0 <= fit_r_squared <= 1.0:
                raise ValueError(f"fit_r_squared {fit_r_squared} outside [0, 1]")
        vars(self).update(alpha=alpha, beta=beta, fit_r_squared=fit_r_squared)


#: The crude-oil rule of thumb: a difference of -120 index points reads as
#: $120 per barrel, i.e. price is minus the difference. Lives on the
#: difference scale, not on the component index itself.
CRUDE_OIL_HEURISTIC = PriceCalibration(alpha=-1.0, beta=0.0, fit_r_squared=None)


def percent_change(index_start: float, index_end: float) -> float:
    """Percent change from one index level to another."""
    if index_start <= 0.0:
        raise PriceError(f"index_start must be positive, got {index_start}")
    return 100.0 * (index_end - index_start) / index_start


def component_index_from_difference(
    headline_path: list[tuple[MonthStamp, float]] | tuple[tuple[MonthStamp, float], ...],
    difference_path: Forecast,
) -> list[tuple[MonthStamp, float]]:
    """Recover the component index path: component = headline - difference."""
    headline = list(headline_path)
    if [s for s, _ in headline] != list(difference_path.stamps):
        raise PriceError("headline and difference paths must cover identical stamps")
    return [
        (stamp, float(hv) - dv)
        for (stamp, hv), dv in zip(headline, difference_path.values)
    ]


def extrapolate_headline(
    series: MonthlySeries, origin: MonthStamp, horizon: int, annual_rate: float
) -> list[tuple[MonthStamp, float]]:
    """Continue a headline index geometrically at a given annual percent rate."""
    if not series.has(origin):
        raise PriceError(f"origin {origin} absent from {series.series_id!r}")
    if not math.isfinite(annual_rate):
        raise PriceError(f"annual_rate must be finite, got {annual_rate}")
    if annual_rate <= -100.0:
        raise PriceError(f"annual_rate must be > -100, got {annual_rate}")
    base = series.value_at(origin)
    factor = 1.0 + annual_rate / 100.0
    try:
        path = [
            (origin.add_months(m), base * factor ** (m / 12.0))
            for m in range(1, horizon + 1)
        ]
        if all(math.isfinite(value) for _, value in path):
            return path
    except OverflowError:
        pass
    raise PriceError(f"annual_rate {annual_rate} overflows the extrapolated headline")


def trailing_growth_rate(series: MonthlySeries, origin: MonthStamp) -> float:
    """Mean annual percent growth over the five years (or less history) ending at ``origin``."""
    if not series.has(origin):
        raise PriceError(f"origin {origin} absent from {series.series_id!r}")
    back = series.restrict(origin.add_months(-60), origin).start
    span_years = months_between(origin, back) / 12.0
    if span_years <= 0:
        raise PriceError("no trailing history to estimate growth from")
    first, last = series.value_at(back), series.value_at(origin)
    if first <= 0.0 or last <= 0.0:
        raise PriceError(f"growth needs positive values: {first!r} at {back}, {last!r} at {origin}")
    return 100.0 * ((last / first) ** (1.0 / span_years) - 1.0)


def calibrate_price(pairs: list[tuple[float, float]]) -> PriceCalibration:
    """Fit ``price = alpha * index + beta`` by least squares on (index, USD) pairs."""
    xs = np.array([float(i) for i, _ in pairs])
    ys = np.array([float(p) for _, p in pairs])
    for n, (x, y) in enumerate(zip(xs.tolist(), ys.tolist()), start=1):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise PriceError(f"calibration pair {n} is not finite: ({x}, {y})")
    if len(xs) < 2 or np.ptp(xs) == 0.0:
        raise PriceError("need at least 2 pairs with distinct index values")
    design = np.column_stack([xs, np.ones_like(xs)])
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        resid = ys - design @ coef
        sse, sst = float(resid @ resid), float(np.sum((ys - ys.mean()) ** 2))
    if not (math.isfinite(sse) and math.isfinite(sst)):
        raise PriceError("calibration pairs too large, their sums of squares overflow")
    r2 = 1.0 if sst == 0.0 else max(0.0, min(1.0, 1.0 - sse / sst))
    return PriceCalibration(alpha=float(coef[0]), beta=float(coef[1]), fit_r_squared=r2)


def index_to_price(cal: PriceCalibration, index: float) -> float:
    """Apply the affine calibration to one index value."""
    return cal.alpha * float(index) + cal.beta


def parse_calibration_pairs_csv(text: str) -> list[tuple[float, float]]:
    """Parse ``index,price_usd`` CSV content into calibration pairs."""
    pairs = []
    for line_no, parts in _read_csv(text, "index,price_usd", PriceError):
        if len(parts) != 2:
            raise PriceError(f"line {line_no}: expected 2 fields, got {len(parts)}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise PriceError(f"line {line_no}: non-numeric pair {','.join(parts)!r}") from None
    if not pairs:
        raise PriceError("no calibration pairs")
    return pairs


def lead_lag(
    a: DifferenceSeries,
    b: DifferenceSeries,
    max_lag: int,
    min_overlap: int = 24,
) -> tuple[int, float]:
    """Lag (in months) of ``b`` behind ``a`` that maximizes Pearson correlation.

    Correlates the raw values ``a(t)`` against ``b(t + lag)`` for every lag in
    ``[-max_lag, +max_lag]``; a positive result means ``a`` leads ``b``. Every
    tested lag must leave at least ``min_overlap`` common months, and
    ``min_overlap`` must be at least 2. Both must be integers (NumPy integers
    included, ``bool`` not). Ties are broken toward the smaller absolute lag.
    """
    for name, value in (("max_lag", max_lag), ("min_overlap", min_overlap)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise PriceError(f"{name} must be an integer, got {value!r}")
    max_lag, min_overlap = int(max_lag), int(min_overlap)  # -np.uint8(3) would wrap to 253
    if max_lag < 0:
        raise PriceError(f"max_lag must be >= 0, got {max_lag}")
    if min_overlap < 2:
        raise PriceError(f"min_overlap must be >= 2, got {min_overlap}")
    # zero-copy views of the series' arrays
    a_months, a_values = np.asarray(a._months), np.asarray(a._values)
    b_months, b_values = np.asarray(b._months), np.asarray(b._values)
    runs, shift = a.is_contiguous() and b.is_contiguous(), a._months[0] - b._months[0]
    candidates: list[tuple[int, float]] = []
    for lag in sorted(range(-max_lag, max_lag + 1), key=lambda l: (abs(l), l)):
        if runs:
            # no gap in either: a's position i pairs with b's i + shift + lag, one run of each
            i = max(0, -shift - lag)
            j = i + shift + lag
            n = max(0, min(len(a_values) - i, len(b_values) - j))
            xs, ys = a_values[i : i + n], b_values[j : j + n]
        else:
            # each month of a, lag months on: its position in b, and whether b observes it
            wanted = a_months + lag
            at = np.minimum(b_months.searchsorted(wanted), len(b_months) - 1)
            found = b_months[at] == wanted
            xs, ys = a_values[found], b_values[at[found]]
            n = len(xs)
        if n < min_overlap:
            raise PriceError(
                f"insufficient overlap at lag {lag}: {n} months (need >= {min_overlap})"
            )
        # np.std's and np.mean's own steps, each deviation computed once for both
        dx, dy = xs - np.add.reduce(xs) / n, ys - np.add.reduce(ys) / n
        sx, sy = math.sqrt(np.add.reduce(dx * dx) / n), math.sqrt(np.add.reduce(dy * dy) / n)
        if sx == 0.0 or sy == 0.0:
            corr = 0.0
        else:
            corr = float(np.add.reduce(dx * dy) / n / (sx * sy))
        candidates.append((lag, corr))
    # max keeps the first of equal correlations: the smallest absolute lag
    return max(candidates, key=lambda c: c[1])


__all__ = [
    "PriceError",
    "PriceCalibration",
    "CRUDE_OIL_HEURISTIC",
    "percent_change",
    "component_index_from_difference",
    "extrapolate_headline",
    "trailing_growth_rate",
    "calibrate_price",
    "index_to_price",
    "parse_calibration_pairs_csv",
    "lead_lag",
]
