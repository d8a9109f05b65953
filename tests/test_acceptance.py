"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints a single PASS line once its criterion holds (run with
``pytest -s`` to see them); a failed assertion is the FAIL line.
"""

import filecmp
import math

import numpy as np
import pytest

from trendgap import (
    CRUDE_OIL_HEURISTIC,
    DifferenceSeries,
    Forecast,
    MonthStamp,
    detect_breakpoints,
    fit_ols,
    forecast_along_trend,
    forecast_return_to_trend,
    index_to_price,
    lead_lag,
    months_between,
    percent_change,
    residual,
    score,
)

from conftest import CONFIGS, PIPELINES, make_diff, run_stages, stamp
from oracles import exhaustive_best


def report(n, text):
    print(f"PASS criterion {n}: {text}")


# ----------------------------------------------------------- criterion 1


def test_criterion_1_ols_matches_normal_equations():
    rng = np.random.default_rng(101)
    for trial in range(100):
        n = int(rng.integers(20, 301))
        x = np.arange(n) / 12.0
        slope = rng.uniform(0.5, 30.0) * rng.choice([-1.0, 1.0])
        intercept = rng.uniform(-80.0, 80.0)
        noise = rng.normal(0.0, rng.uniform(0.1, 6.0), n)
        y = intercept + slope * x + noise
        d = make_diff("1980-01", y)
        seg = fit_ols(d, (d.start, d.end))

        xbar, ybar = x.mean(), y.mean()
        b_ref = float(np.sum((x - xbar) * (y - ybar)) / np.sum((x - xbar) ** 2))
        a_ref = float(ybar - b_ref * xbar)
        assert seg.slope == pytest.approx(b_ref, rel=1e-9)
        assert seg.intercept == pytest.approx(a_ref, rel=1e-9, abs=1e-9)

        resid_sum = sum(residual(seg, s, v) for s, v in d.observations)
        assert abs(resid_sum) < 1e-9 * max(1.0, float(np.abs(y).sum()))

    exact = make_diff("2000-01", [3.0 - 1.25 * i / 12.0 for i in range(40)])
    seg = fit_ols(exact, (exact.start, exact.end))
    assert seg.r_squared == pytest.approx(1.0, abs=1e-12)
    report(1, "fit_ols matches the normal-equations oracle on 100 random series")


# ----------------------------------------------------------- criterion 2


def random_piecewise(rng, n, pieces):
    cuts = np.sort(rng.choice(np.arange(12, n - 12), size=pieces - 1, replace=False))
    bounds = [0, *cuts.tolist(), n]
    y = np.zeros(n)
    level = rng.uniform(-20, 20)
    for lo, hi in zip(bounds, bounds[1:]):
        slope = rng.uniform(-2.0, 2.0)
        y[lo:hi] = level + slope * np.arange(hi - lo)
        level = y[hi - 1] + rng.uniform(-10, 10)
    return y + rng.normal(0, 1.0, n)


def test_criterion_2_dp_segmentation_is_exact():
    rng = np.random.default_rng(202)
    for trial in range(50):
        k = 1 if trial % 2 == 0 else 2
        n = int(rng.integers(60, 301)) if k == 1 else int(rng.integers(48, 73))
        y = random_piecewise(rng, n, k + 1)
        d = make_diff("1980-01", y)
        got = [months_between(b, d.start) for b in detect_breakpoints(d, k, 6)]
        expected = exhaustive_best(list(y), k, 6)
        assert got == expected, f"trial {trial}: DP {got} != exhaustive {expected}"

    hits = 0
    for seed in range(100):
        srng = np.random.default_rng(1000 + seed)
        y = np.concatenate(
            [
                4.0 * np.arange(120) / 12.0,
                4.0 * 120 / 12.0 - 20.0 * np.arange(1, 121) / 12.0,
            ]
        ) + srng.normal(0.0, 1.0, 240)
        d = make_diff("1980-01", y)
        (bp,) = detect_breakpoints(d, 1, 12)
        if abs(months_between(bp, MonthStamp(1990, 1))) <= 3:
            hits += 1
    assert hits >= 95, f"breakpoint within 3 months in only {hits}/100 seeds"
    report(2, f"DP equals exhaustive search on 50 series; break recovered in {hits}/100 seeds")


# ----------------------------------------------------------- criterion 3


def test_criterion_3_fixture_slopes(motor_diff, crude_diff):
    checks = [
        (motor_diff, "1980-01", "1999-06", 4.2, 0.5),
        (motor_diff, "2001-01", "2008-06", -21.1, 2.0),
        (crude_diff, "1988-01", "1999-06", 2.9, 0.5),
        (crude_diff, "2001-01", "2008-06", -17.1, 2.0),
    ]
    fitted = []
    for series, lo, hi, target, tol in checks:
        seg = fit_ols(series, (stamp(lo), stamp(hi)))
        assert seg.slope == pytest.approx(target, abs=tol), f"{lo}..{hi}"
        assert seg.r_squared >= 0.85, f"{lo}..{hi}: R^2 {seg.r_squared:.3f}"
        fitted.append(seg.slope)
    report(3, "fixture slopes " + ", ".join(f"{s:+.2f}" for s in fitted) + " with R^2 >= 0.85")


# ----------------------------------------------------------- criterion 4


def test_criterion_4_turning_points(motor_diff, crude_diff):
    windows = [
        (motor_diff, "1980-01", "2008-06"),
        (crude_diff, "1988-01", "2008-06"),
    ]
    found = []
    for series, lo, hi in windows:
        (bp,) = detect_breakpoints(series.restrict(stamp(lo), stamp(hi)), 1, 60)
        assert stamp("1999-01") <= bp <= stamp("2001-12"), str(bp)
        found.append(str(bp))
    report(4, f"turning points at {found[0]} (motor fuel) and {found[1]} (crude)")


# ----------------------------------------------------------- criterion 5


def recovery_trend():
    from trendgap import endpoint_trend

    return endpoint_trend((stamp("2009-01"), -50.0), (stamp("2016-01"), 75.0))


def test_criterion_5_recovery_replay(motor_diff):
    trend = recovery_trend()
    origin = stamp("2009-03")
    current = (origin, motor_diff.value_at(origin))
    forecast = forecast_return_to_trend(current, trend, stamp("2009-12"))

    deviations = [current[1] - trend.predicted(origin)] + [
        v - trend.predicted(s) for s, v in forecast.path
    ]
    steps = [a - b for a, b in zip(deviations, deviations[1:])]
    for step in steps:
        assert step == pytest.approx(10.0, abs=1.0), f"step {step:.2f}"
    assert deviations[-1] == 0.0

    actual = motor_diff.restrict(stamp("2009-04"), stamp("2009-12"))
    mae_recovery = score(forecast, actual).mae
    baseline_trend = fit_ols(motor_diff, (stamp("2001-01"), stamp("2008-06")))
    baseline = forecast_along_trend(baseline_trend, origin, 9)
    mae_baseline = score(baseline, actual).mae
    assert mae_recovery < mae_baseline
    report(
        5,
        f"recovery closes at {steps[0]:.2f}/month, mae {mae_recovery:.2f} "
        f"vs baseline {mae_baseline:.2f}",
    )


# ----------------------------------------------------------- criterion 6


def test_criterion_6_long_run_price(crude_diff):
    assert index_to_price(CRUDE_OIL_HEURISTIC, -120.0) == 120.0

    tail = fit_ols(crude_diff, (stamp("2009-07"), stamp("2010-12")))
    origin = stamp("2010-12")
    horizon = months_between(stamp("2016-01"), origin)
    path = forecast_along_trend(tail, origin, horizon).path
    assert path[-1][0] == stamp("2016-01")
    price = index_to_price(CRUDE_OIL_HEURISTIC, path[-1][1])
    assert price == pytest.approx(30.0, abs=5.0)
    report(6, f"extrapolated crude level in January 2016: {price:.1f} USD per barrel")


# ----------------------------------------------------------- criterion 7


def test_criterion_7_percent_change():
    assert round(percent_change(173.0, 263.0), 1) == 52.0
    rng = np.random.default_rng(707)
    for _ in range(100):
        x, y = rng.uniform(5.0, 500.0, 2)
        forward = percent_change(x, y)
        backward = percent_change(y, x)
        assert (1 + forward / 100.0) * (1 + backward / 100.0) == pytest.approx(
            1.0, abs=1e-9
        )
    report(7, "173 -> 263 reports +52.0%; inverse composition holds to 1e-9")


# ----------------------------------------------------------- criterion 8


def test_criterion_8_lead_lag(motor_diff, crude_diff):
    rng = np.random.default_rng(808)
    n = 60
    for planted in range(-12, 13):
        walk = np.cumsum(rng.normal(0.0, 3.0, n))
        a = make_diff("2000-01", walk, "a")
        b_obs = tuple(
            (MonthStamp(2000, 1).add_months(i + planted), float(v))
            for i, v in enumerate(walk)
        )
        b = DifferenceSeries("b-m", "b-s", b_obs)
        lag, corr = lead_lag(a, b, 12)
        assert lag == planted
        assert corr == pytest.approx(1.0, abs=1e-12)

    window = (stamp("2008-01"), stamp("2010-12"))
    lag, corr = lead_lag(crude_diff.restrict(*window), motor_diff.restrict(*window), 12)
    assert 6 <= lag <= 8, f"fixture lead of {lag} months outside 6..8"
    report(8, f"planted lags recovered exactly; crude leads motor fuel by {lag} months "
              f"(corr {corr:.3f})")


# ----------------------------------------------------------- criterion 9


def test_criterion_9_backtest_metrics_oracle():
    rng = np.random.default_rng(909)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        pred = rng.normal(0.0, 15.0, n)
        act = rng.normal(0.0, 15.0, n)
        start = MonthStamp(2005, 1)
        forecast = Forecast(
            mode="along-trend",
            origin=start.add_months(-1),
            path=tuple((start.add_months(i), float(v)) for i, v in enumerate(pred)),
            band_sigma=0.0,
        )
        actual = make_diff("2005-01", act)
        got = score(forecast, actual)

        errors = [p - a for p, a in zip(pred, act)]
        mae = sum(abs(e) for e in errors) / n
        rmse = math.sqrt(sum(e * e for e in errors) / n)
        bias = sum(errors) / n
        hits = counted = 0
        for i in range(n - 1):
            dp, da = pred[i + 1] - pred[i], act[i + 1] - act[i]
            if dp == 0 or da == 0:
                continue
            counted += 1
            hits += (dp > 0) == (da > 0)
        hit_rate = hits / counted if counted else 1.0

        assert got.mae == pytest.approx(mae, abs=1e-12)
        assert got.rmse == pytest.approx(rmse, abs=1e-12)
        assert got.bias == pytest.approx(bias, abs=1e-12)
        assert got.direction_hit_rate == pytest.approx(hit_rate, abs=1e-12)
        assert got.rmse >= got.mae - 1e-12
        assert got.mae >= abs(got.bias) - 1e-12
    report(9, "score matches the loop oracle to 1e-12 on 100 pairs; rmse >= mae >= |bias|")


# ----------------------------------------------------------- criterion 10


def test_criterion_10_pipeline_determinism(tmp_path):
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        for pipeline, stages in PIPELINES.items():
            run_stages(CONFIGS[pipeline], out / pipeline, stages)
        runs.append(out)

    first_files = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(runs[1]) for p in runs[1].rglob("*") if p.is_file())
    assert first_files == second_files and first_files
    for rel in first_files:
        assert filecmp.cmp(runs[0] / rel, runs[1] / rel, shallow=False), str(rel)
    report(10, f"two pipeline runs produced {len(first_files)} byte-identical files")
