"""Seeded input generator for the trendgap benchmark.

Every input the benchmark feeds the program comes from here. A run's
``--seed`` selects one of ``POOL`` input variants (``seed % POOL``); the
output references in ``references.json`` were recorded for each variant, so
any seed can be checked exactly. The same seed always yields the same
inputs, and this module never imports ``trendgap``.
"""

from __future__ import annotations

import json

import numpy as np

#: Number of distinct input variants with recorded references.
POOL = 32

_WORKLOAD_TAGS = {"cli-fixtures": 1, "segment-long": 2, "scan-backtest": 3}


def variant(seed: int) -> int:
    return seed % POOL


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_WORKLOAD_TAGS[workload], variant(seed)])


def _month(start: tuple[int, int], offset: int) -> str:
    total = start[0] * 12 + start[1] - 1 + offset
    return f"{total // 12:04d}-{total % 12 + 1:02d}"


def _ar1(rng: np.random.Generator, n: int, phi: float, sigma: float) -> np.ndarray:
    """AR(1) noise: each month is pulled back toward zero by ``1 - phi``."""
    shocks = rng.normal(0.0, sigma, n)
    out = np.empty(n)
    level = 0.0
    for i in range(n):
        level = phi * level + shocks[i]
        out[i] = level
    return out


def _turning_points(rng: np.random.Generator, n: int, k: int, edge: int, spacing: int) -> list[int]:
    """``k`` sorted positions at least ``edge`` from both ends and ``spacing`` apart."""
    while True:
        points = sorted(int(p) for p in rng.integers(edge, n - edge, size=k))
        if all(b - a >= spacing for a, b in zip(points, points[1:])):
            return points


def _kinked_trend(rng: np.random.Generator, n: int, points: list[int]) -> np.ndarray:
    """Continuous piecewise-linear path whose slope flips sign at each point."""
    sign = rng.choice([-1.0, 1.0])
    slopes = []
    for _ in range(len(points) + 1):
        slopes.append(sign * rng.uniform(3.0, 8.0) / 12.0)  # points/year -> per month
        sign = -sign
    per_month = np.empty(n)
    for piece, (lo, hi) in enumerate(zip([0] + points, points + [n])):
        per_month[lo:hi] = slopes[piece]
    per_month[0] = 0.0
    return rng.uniform(-60.0, 60.0) + np.cumsum(per_month)


def _csv(start: tuple[int, int], values) -> str:
    """``date,value`` text with one decimal, as in the published tables."""
    lines = ["date,value"]
    lines.extend(f"{_month(start, i)},{v:.1f}" for i, v in enumerate(values))
    return "\n".join(lines) + "\n"


def _headline(rng: np.random.Generator, n: int, start_level: float) -> np.ndarray:
    """Smooth compounded index path; the annual rate drifts year to year."""
    years = n // 12 + 1
    rates = np.clip(rng.normal(3.5, 1.5, years), -1.0, 9.0)
    monthly = np.log1p(np.repeat(rates, 12)[:n] / 100.0) / 12.0
    monthly[0] = 0.0
    return start_level * np.exp(np.cumsum(monthly))


# ------------------------------------------------------------ segment-long

#: 1200 months is about the length of the longest CPI history (1913 on).
SEGMENT_MONTHS = 1200
SEGMENT_START = (1913, 1)


def segment_long(seed: int) -> list[dict]:
    """Three gaps of 1200 months with 1, 2 and 3 planted turning points.

    Each gap is a kinked trend with AR(1) pull-back noise, on the fixtures'
    scale of a few hundred index points. Returns dicts with ``planted``,
    ``start`` ((year, month)) and ``values`` (list of float).
    """
    rng = _rng("segment-long", seed)
    gaps = []
    for planted in (1, 2, 3):
        points = _turning_points(rng, SEGMENT_MONTHS, planted, edge=150, spacing=200)
        values = _kinked_trend(rng, SEGMENT_MONTHS, points)
        values += _ar1(rng, SEGMENT_MONTHS, phi=0.85, sigma=rng.uniform(2.0, 4.0))
        gaps.append({"planted": planted, "start": SEGMENT_START, "values": values.tolist()})
    return gaps


# ----------------------------------------------------------- scan-backtest

SCAN_MONTHS = 600
SCAN_START = (1960, 1)
SCAN_SHIFT = 6


def scan_backtest(seed: int) -> dict:
    """Two raw headline/component CSV pairs of 600 months, plus price pairs.

    Pair ``b``'s gap repeats pair ``a``'s gap ``SCAN_SHIFT`` months later
    (scaled, with its own noise), so ``a`` leads ``b``. Returns the four CSV
    texts under ``headline_a``, ``component_a``, ``headline_b`` and
    ``component_b``, and ``pairs``: (gap level, USD) calibration pairs.
    """
    rng = _rng("scan-backtest", seed)
    n = SCAN_MONTHS + SCAN_SHIFT
    points = _turning_points(rng, n, 2, edge=100, spacing=150)
    gap = _kinked_trend(rng, n, points) + _ar1(rng, n, phi=0.9, sigma=3.0)
    gap_a = gap[SCAN_SHIFT:]
    gap_b = 0.8 * gap[:SCAN_MONTHS] + rng.normal(0.0, 1.0, SCAN_MONTHS)
    out = {}
    for name, g in (("a", gap_a), ("b", gap_b)):
        headline = _headline(rng, SCAN_MONTHS, rng.uniform(150.0, 250.0))
        out[f"headline_{name}"] = _csv(SCAN_START, headline)
        out[f"component_{name}"] = _csv(SCAN_START, headline - g)
    out["pairs"] = _price_pairs(rng)
    return out


def _price_pairs(rng: np.random.Generator) -> list[tuple[float, float]]:
    """(difference level, USD) pairs: price is about minus the level."""
    levels = np.sort(rng.uniform(-140.0, -25.0, 14))
    alpha, beta = -rng.uniform(0.9, 1.1), rng.normal(0.0, 5.0)
    return [
        (round(float(x), 1), round(float(alpha * x + beta + rng.normal(0.0, 0.6)), 2))
        for x in levels
    ]


# ------------------------------------------------------------ cli-fixtures

# Anchor months and gap levels of the bundled fixtures' geometry (see
# fixtures/README.md): a rising trend, a transition, a falling trend, the
# 2008 collapse and 2009 spike, then the recovery onto the successor trend.
_MOTOR_ANCHORS = [
    ("1980-01", -15.0), ("1999-06", 66.9), ("2000-03", 58.0), ("2000-12", 85.0),
    ("2007-12", -62.7), ("2008-07", -100.0), ("2009-02", 48.0), ("2009-03", 45.0),
    ("2009-12", -33.6), ("2010-12", -15.8),
]
_CRUDE_ANCHORS = [
    ("1985-01", 8.5), ("1988-01", 10.0), ("1999-06", 43.4), ("2000-03", 40.0),
    ("2000-12", 55.0), ("2007-06", -55.0), ("2008-01", -72.0), ("2008-08", -44.0),
    ("2009-06", -74.0), ("2010-12", -64.0),
]

MOTOR_CONFIG = {
    "series": {
        "headline": {"path": "cpi_all_items_sa.csv", "id": "CUSR0000SA0", "base_note": "1982-84=100"},
        "component": {"path": "cpi_motor_fuel_sa.csv", "id": "CUSR0000SETB", "base_note": "1982-84=100"},
    },
    "segmentation": {
        "k": 1, "min_len": 60, "transition_halfwidth": 12,
        "detect_end": "2008-06", "tail_start": "2008-07",
    },
    "forecast": {
        "mode": "return-to-trend", "origin": "2009-03", "deadline": "2009-12", "horizon": 21,
        "trend": {"kind": "endpoint", "start": ["2009-01", -50.0], "end": ["2016-01", 75.0]},
    },
    "backtest": {
        "origins": ["2009-03"], "horizon": 9,
        "baseline": {"fit_start": "2001-01", "fit_end": "2008-06"},
    },
}

CRUDE_CONFIG = {
    "series": {
        "headline": {"path": "ppi_all_commodities.csv", "id": "WPU00000000", "base_note": "1982=100"},
        "component": {"path": "ppi_crude_petroleum.csv", "id": "WPU0561", "base_note": "1982=100"},
    },
    "segmentation": {
        "k": 1, "min_len": 60, "transition_halfwidth": 12,
        "fit_start": "1988-01", "fit_end": "2009-06",
        "detect_end": "2007-06", "tail_start": "2007-07",
    },
    "forecast": {
        "mode": "along-trend", "origin": "2010-12", "horizon": 61,
        "trend": {"kind": "fit", "start": "2009-07", "end": "2010-12"},
    },
    "calibration": "heuristic",
    "translate": {"calibration": {"kind": "fitted", "pairs_csv": "crude_price_pairs.csv"}},
    "backtest": {
        "origins": ["2009-01"], "horizon": 12,
        "forecast": {
            "mode": "return-to-trend", "origin": "2009-01", "deadline": "2009-06", "horizon": 12,
            "trend": {"kind": "endpoint", "start": ["2009-06", -74.0], "end": ["2016-01", -30.0]},
        },
    },
}


def _ordinal(token: str) -> int:
    year, month = token.split("-")
    return int(year) * 12 + int(month) - 1


def _anchored_gap(rng: np.random.Generator, anchors, sigma: float) -> np.ndarray:
    """Linear interpolation through jittered anchors, plus monthly noise."""
    base = _ordinal(anchors[0][0])
    xs = [_ordinal(m) - base for m, _ in anchors]
    ys = [v + rng.normal(0.0, 3.0) for _, v in anchors]
    path = np.interp(np.arange(xs[-1] + 1), xs, ys)
    return path + rng.normal(0.0, sigma, len(path))


def cli_fixtures(seed: int) -> dict[str, str]:
    """Fixture-shaped input files for the motor and crude CLI pipelines.

    Returns file name -> text: the four index CSVs and the price-pair CSV
    under the bundled fixtures' names and spans (CPI 1980-01..2010-12, PPI
    1985-01..2010-12), and ``motor_config.json``/``crude_config.json`` with
    the fixture configs' settings.
    """
    rng = _rng("cli-fixtures", seed)
    files = {}
    for (headline_name, component_name, start, level, anchors) in (
        ("cpi_all_items_sa.csv", "cpi_motor_fuel_sa.csv", (1980, 1), 77.9, _MOTOR_ANCHORS),
        ("ppi_all_commodities.csv", "ppi_crude_petroleum.csv", (1985, 1), 103.2, _CRUDE_ANCHORS),
    ):
        gap = _anchored_gap(rng, anchors, sigma=4.0)
        headline = np.round(_headline(rng, len(gap), level), 1)
        files[headline_name] = _csv(start, headline)
        files[component_name] = _csv(start, headline - gap)
    lines = ["index,price_usd"]
    lines.extend(f"{x},{p}" for x, p in _price_pairs(rng))
    files["crude_price_pairs.csv"] = "\n".join(lines) + "\n"
    files["motor_config.json"] = json.dumps(MOTOR_CONFIG, indent=2) + "\n"
    files["crude_config.json"] = json.dumps(CRUDE_CONFIG, indent=2) + "\n"
    return files


GENERATORS = {
    "cli-fixtures": cli_fixtures,
    "segment-long": segment_long,
    "scan-backtest": scan_backtest,
}
