"""Relations the maths implies, checked end to end through ``diff``, ``fit`` and ``forecast``.

Each case draws a seeded walk pair, 150-300 months long, whose difference has one
planted slope change. The pipeline fits one breakpoint and forecasts along a ``fit``
trend over the last 36 months. Relabelling the months changes no number; scaling
both series scales the forecast and its band; adding a constant to the headline
shifts the forecast and keeps the band. None of them moves a break. The values are
unrounded: rounded, step-shaped series can tie exactly in the segmentation DP
(ROADMAP item 4).
"""

import json

import numpy as np
import pytest

from trendgap import MonthStamp, months_between

from conftest import run_stages

SEEDS = range(10)


def walk_pair(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A headline walk and a component whose gap to it changes slope once."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(150, 301))
    brk = int(rng.integers(n // 3, 2 * n // 3))
    months = np.arange(n)
    slopes = rng.normal(0.0, 0.4, 2)
    gap = slopes[0] * months + (slopes[1] - slopes[0]) * np.maximum(months - brk, 0)
    headline = 100.0 + np.cumsum(rng.normal(0.2, 0.5, n))
    component = headline - gap - np.cumsum(rng.normal(0.0, 0.3, n))
    return headline, component


def run_pipeline(tmp_path, name: str, headline, component, start: MonthStamp) -> dict:
    """Run diff, fit and forecast on the two series; read back what the relations compare."""
    work = tmp_path / name
    work.mkdir()
    for role, values in (("headline", headline), ("component", component)):
        rows = (f"{start.add_months(i)},{float(v)!r}\n" for i, v in enumerate(values))
        (work / f"{role}.csv").write_text("date,value\n" + "".join(rows))
    end = start.add_months(len(headline) - 1)
    config = {
        "series": {
            "headline": {"path": "headline.csv", "id": "h"},
            "component": {"path": "component.csv", "id": "c"},
        },
        "segmentation": {"k": 1, "min_len": 36, "transition_halfwidth": 6},
        "forecast": {
            "mode": "along-trend",
            "origin": str(end),
            "horizon": 24,
            "trend": {"kind": "fit", "start": str(end.add_months(-35)), "end": str(end)},
        },
    }
    (work / "config.json").write_text(json.dumps(config))
    out = run_stages(work / "config.json", work / "out", ("diff", "fit", "forecast"))
    model = json.loads((out / "trend_model.json").read_text())
    forecast = json.loads((out / "forecast.json").read_text())
    pieces = model["segments"] + model["transitions"]
    return {
        "offsets": [
            months_between(MonthStamp.parse(piece[edge]), start)
            for piece in pieces
            for edge in ("start", "end")
        ],
        "numbers": [
            value for s in model["segments"] for key, value in s.items() if key not in ("start", "end")
        ],
        "values": np.array([value for _, value in forecast["path"]]),
        "band": forecast["band_sigma"],
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_relabelled_months_change_no_number(tmp_path, seed):
    headline, component = walk_pair(seed)
    base = run_pipeline(tmp_path, "base", headline, component, MonthStamp(1990, 1))
    moved = run_pipeline(tmp_path, "moved", headline, component, MonthStamp(2003, 7))
    assert moved["offsets"] == base["offsets"]
    assert moved["numbers"] == base["numbers"]
    assert moved["values"].tolist() == base["values"].tolist()
    assert moved["band"] == base["band"]


@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_series_scale_the_forecast_and_band(tmp_path, seed):
    headline, component = walk_pair(seed)
    start = MonthStamp(1990, 1)
    base = run_pipeline(tmp_path, "base", headline, component, start)
    scaled = run_pipeline(tmp_path, "scaled", 2.5 * headline, 2.5 * component, start)
    assert scaled["offsets"] == base["offsets"]
    np.testing.assert_allclose(scaled["values"], 2.5 * base["values"], rtol=1e-9)
    np.testing.assert_allclose(scaled["band"], 2.5 * base["band"], rtol=1e-9)


@pytest.mark.parametrize("seed", SEEDS)
def test_shifted_headline_shifts_the_forecast_and_keeps_the_band(tmp_path, seed):
    headline, component = walk_pair(seed)
    start = MonthStamp(1990, 1)
    base = run_pipeline(tmp_path, "base", headline, component, start)
    shifted = run_pipeline(tmp_path, "shifted", headline + 40.0, component, start)
    assert shifted["offsets"] == base["offsets"]
    np.testing.assert_allclose(shifted["values"], base["values"] + 40.0, rtol=1e-9)
    np.testing.assert_allclose(shifted["band"], base["band"], rtol=1e-9)
