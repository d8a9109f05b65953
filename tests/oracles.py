"""The tests' reference implementations: closed-form and brute-force oracles, and
verbatim copies of code that a rewrite replaced, which judge the rewrite byte for byte.
A rewrite adds its copy here; a copy changes only with a rule changed on purpose."""

import functools
import itertools
import math

import numpy as np

from trendgap import (
    MAX_TRANSITION_MONTHS,
    BacktestError,
    BacktestReport,
    FitError,
    Forecast,
    ForecastError,
    MonthlySeries,
    MonthStamp,
    ParseError,
    PriceError,
    SeriesError,
    TransitionWindow,
    TrendModel,
    fit_ols,
    months_between,
    residual,
)
from trendgap.series import _ordinal, _read_csv, _stamp


# ------------------------------------------------------------------ series

# The tuple-and-dict implementations that the array-backed series replaced,
# kept here as the reference for gappy series.


def ref_add_months(stamp, n):
    total = stamp.year * 12 + (stamp.month - 1) + n
    return MonthStamp(total // 12, total % 12 + 1)


def ref_months_between(later, earlier):
    return (later.year - earlier.year) * 12 + (later.month - earlier.month)


def ref_restrict(series, start, end):
    kept = tuple(o for o in series.observations if start <= o[0] <= end)
    if not kept:
        raise SeriesError(f"series {series.series_id!r} has no data in {start}..{end}")
    return kept


def ref_align(a, b):
    common = set(a.stamps) & set(b.stamps)
    if not common:
        raise SeriesError(f"no overlapping months between {a.series_id!r} and {b.series_id!r}")
    keep_a = tuple(o for o in a.observations if o[0] in common)
    keep_b = tuple(o for o in b.observations if o[0] in common)
    return keep_a, keep_b


def ref_difference(a, b):
    keep_a, keep_b = ref_align(a, b)
    return tuple((s, hv - cv) for (s, hv), (_, cv) in zip(keep_a, keep_b))


def ref_missing_months(series):
    obs = series.observations
    gaps = []
    for (a, _), (b, _) in zip(obs, obs[1:]):
        for k in range(1, ref_months_between(b, a)):
            gaps.append(ref_add_months(a, k))
    return tuple(gaps)


def ref_value_at(series, stamp):
    try:
        return dict(series.observations)[stamp]
    except KeyError:
        raise SeriesError(f"no observation for {stamp}") from None


def ref_rebase(series, anchor, anchor_value):
    index = dict(series.observations)
    if anchor not in index:
        raise SeriesError(f"anchor month {anchor} absent from {series.series_id!r}")
    if index[anchor] == 0.0:
        raise SeriesError(f"cannot rebase {series.series_id!r}: zero value at {anchor}")
    factor = anchor_value / index[anchor]
    obs = tuple(
        (stamp, anchor_value if stamp == anchor else value * factor)
        for stamp, value in series.observations
    )
    return f"{series.base_note}; rebased to {anchor_value!r} at {anchor}", obs


def ref_lead_lag(a, b, max_lag, min_overlap):
    a_map, b_map = dict(a.observations), dict(b.observations)
    candidates = []
    for lag in sorted(range(-max_lag, max_lag + 1), key=lambda l: (abs(l), l)):
        stamps = sorted(s for s in a_map if ref_add_months(s, lag) in b_map)
        if len(stamps) < min_overlap:
            raise PriceError(
                f"insufficient overlap at lag {lag}: {len(stamps)} months "
                f"(need >= {min_overlap})"
            )
        xs = np.array([a_map[s] for s in stamps])
        ys = np.array([b_map[ref_add_months(s, lag)] for s in stamps])
        sx, sy = xs.std(), ys.std()
        corr = 0.0 if sx == 0.0 or sy == 0.0 else float(
            np.mean((xs - xs.mean()) * (ys - ys.mean())) / (sx * sy)
        )
        candidates.append((lag, corr))
    best_lag, best_corr = candidates[0]
    for lag, corr in candidates[1:]:
        if corr > best_corr:
            best_lag, best_corr = lag, corr
    return best_lag, best_corr


# Verbatim copies of the parser that kept MonthStamp objects per row, kept as an
# oracle for the ordinal-based parse_series_csv. MonthStamp.__str__ now runs through
# the code under test, so its old body is copied too.


def old_str(stamp):
    return f"{stamp.year:04d}-{stamp.month:02d}"


def old_parse_stamp(token):
    parts = token.strip().split("-")
    if (
        len(parts) != 2
        or len(parts[0]) != 4
        or len(parts[1]) != 2
        or not parts[0].isdigit()
        or not parts[1].isdigit()
    ):
        raise ValueError(f"malformed date token {token!r}, expected YYYY-MM")
    year, month = int(parts[0]), int(parts[1])
    if not 1 <= month <= 12:
        raise ValueError(f"malformed date token {token!r}: month out of range")
    return MonthStamp(year, month)


def old_parse_series_csv(text, series_id, base_note=""):
    seen = {}
    rows = []
    for line_no, parts in _read_csv(text, "date,value", ParseError):
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line_no=line_no)
        try:
            stamp = old_parse_stamp(parts[0])
        except ValueError as exc:
            raise ParseError(str(exc), line_no=line_no) from None
        if stamp in seen:
            raise ParseError(
                f"duplicate month {old_str(stamp)} (first seen on line {seen[stamp]})",
                line_no=line_no,
            )
        seen[stamp] = line_no
        try:
            value = float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric value {parts[1]!r}", line_no=line_no) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {parts[1]!r}", line_no=line_no)
        rows.append((stamp, value))

    if not rows:
        raise ParseError("empty series")
    return MonthlySeries(series_id, base_note, tuple(sorted(rows)))


# ----------------------------------------------------------------- fitting


def ols_oracle(x, y):
    """Closed-form normal equations: B = cov/var, A from the means."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xbar, ybar = x.mean(), y.mean()
    slope = np.sum((x - xbar) * (y - ybar)) / np.sum((x - xbar) ** 2)
    intercept_at_x0 = ybar - slope * xbar  # x is measured from the window start
    return intercept_at_x0, slope


def old_ols(x, y):
    """The per-call OLS that fit_ols ran, design built on every call:
    (intercept, slope, r_squared, residual_sigma)."""
    if np.ptp(x) == 0.0:
        raise FitError("zero variance in time coordinate")
    design = np.column_stack([np.ones_like(x), x])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    resid = y - design @ coef
    sse = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))
    r_squared = 0.0 if sst == 0.0 else max(0.0, min(1.0, 1.0 - sse / sst))
    n = len(y)
    residual_sigma = float(np.sqrt(sse / (n - 1))) if n > 1 else 0.0
    return intercept, slope, r_squared, residual_sigma


def sse_of_pieces(values, cuts):
    """Exhaustive-search oracle SSE: independent polyfit on each piece."""
    bounds = [0] + list(cuts) + [len(values)]
    total = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        x = np.arange(lo, hi) / 12.0
        y = np.asarray(values[lo:hi], dtype=float)
        coef = np.polyfit(x, y, 1)
        total += float(np.sum((y - np.polyval(coef, x)) ** 2))
    return total


def exhaustive_breakpoints(values, k, min_len):
    """Brute-force optimal cut positions (first index of each right piece)."""
    n = len(values)
    best = (np.inf, [])
    if k == 1:
        candidates = ([c] for c in range(min_len, n - min_len + 1))
    elif k == 2:
        candidates = (
            [c1, c2]
            for c1 in range(min_len, n - 2 * min_len + 1)
            for c2 in range(c1 + min_len, n - min_len + 1)
        )
    else:
        raise AssertionError("oracle supports k in {1, 2}")
    for cuts in candidates:
        sse = sse_of_pieces(values, cuts)
        if sse < best[0] - 1e-12:
            best = (sse, cuts)
    return best


def exhaustive_breakpoints_k3(values, min_len):
    """Brute-force optimal three cut positions; each piece is fitted once."""
    n = len(values)

    @functools.lru_cache(maxsize=None)
    def piece(lo, hi):
        x = np.arange(lo, hi) / 12.0
        y = np.asarray(values[lo:hi], dtype=float)
        coef = np.polyfit(x, y, 1)
        return float(np.sum((y - np.polyval(coef, x)) ** 2))

    best = (np.inf, [])
    for cuts in itertools.combinations(range(min_len, n - min_len + 1), 3):
        bounds = (0, *cuts, n)
        if any(hi - lo < min_len for lo, hi in zip(bounds, bounds[1:])):
            continue
        sse = sum(piece(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
        if sse < best[0] - 1e-12:
            best = (sse, list(cuts))
    return best


class PerRowSegmentCost:
    """The per-row DP's segment cost, kept verbatim as the tables' oracle."""

    def __init__(self, y: np.ndarray):
        x = np.arange(len(y)) / 12.0
        x = x - x.mean()
        y = y - y.mean()
        # prefix[p] holds the sums of x, y, xx, xy and yy over positions 0..p-1
        terms = np.column_stack([x, y, x * x, x * y, y * y])
        self.prefix = np.vstack([np.zeros(5), np.cumsum(terms, axis=0)])

    def sse(self, i, j) -> np.ndarray:
        """SSE of the OLS line on positions i..j inclusive; broadcasts over arrays."""
        m = j - i + 1
        sx, sy, sxx, sxy, syy = (self.prefix[j + 1] - self.prefix[i]).T
        var_x = sxx - sx * sx / m
        cov_xy = sxy - sx * sy / m
        var_y = syy - sy * sy / m
        with np.errstate(divide="ignore", invalid="ignore"):
            sse = var_y - np.where(var_x > 0.0, cov_xy * cov_xy / np.maximum(var_x, 1e-300), 0.0)
        return np.maximum(sse, 0.0)


class ClosedFormPerRowCost:
    """The per-row cost under the closed-form position moments of ``_SegmentCost``:
    prefix sums of y, xy and yy only, the mean position of piece i..j read as
    (i + j) / 24 - centre and its Σ(x - x̄)² as m(m² - 1)/1728. The tables' oracle."""

    def __init__(self, y: np.ndarray):
        x = np.arange(len(y)) / 12.0
        self.centre = x.mean()
        x, y = x - self.centre, y - y.mean()
        # prefix[p] holds the sums of y, xy and yy over positions 0..p-1
        terms = np.column_stack([y, x * y, y * y])
        self.prefix = np.vstack([np.zeros(3), np.cumsum(terms, axis=0)])

    def sse(self, i, j) -> np.ndarray:
        """SSE of the OLS line on positions i..j inclusive; broadcasts over arrays."""
        m = j - i + 1
        sy, sxy, syy = (self.prefix[j + 1] - self.prefix[i]).T
        cov_xy = sxy - ((i + j) / 24.0 - self.centre) * sy
        var_y = syy - sy * sy / m
        return np.maximum(var_y - cov_xy * cov_xy / (m * (m * m - 1) / 1728), 0.0)


def per_row_segment(diff, max_k, min_len, cost_class):
    """The DP that evaluated one start position per numpy call, each piece's SSE from
    ``cost_class`` (the tables' oracle under that cost)."""
    n = len(diff)
    cost = cost_class(np.asarray(diff._values))
    suffix = np.full((max_k + 1, n + 1), np.inf)
    after = np.zeros((max_k + 1, n + 1), dtype=int)
    starts = np.arange(n - min_len + 1)
    suffix[0][starts] = cost.sse(starts, n - 1)
    for m in range(1, max_k + 1):
        # piece i..b, then m-1 breaks in b+1..n-1
        for i in range(n - (m + 1) * min_len, -1, -1):
            bs = np.arange(i + min_len - 1, n - m * min_len)
            totals = cost.sse(i, bs) + suffix[m - 1][bs + 1]
            # argmin returns the first minimum, i.e. the earliest feasible break
            best = int(np.argmin(totals))
            suffix[m][i] = totals[best]
            after[m][i] = bs[best] + 1
    return suffix, after


# Acceptance criterion 2's search. It treats totals within 1e-9 as tied, where
# exhaustive_breakpoints uses 1e-12, so the two are not merged.


def polyfit_sse(values, lo, hi):
    x = np.arange(lo, hi + 1) / 12.0
    y = np.asarray(values[lo : hi + 1], dtype=float)
    coef = np.polyfit(x, y, 1)
    return float(np.sum((y - np.polyval(coef, x)) ** 2))


def exhaustive_best(values, k, min_len):
    n = len(values)
    best_sse, best_cuts = np.inf, []
    if k == 1:
        for c in range(min_len, n - min_len + 1):
            sse = polyfit_sse(values, 0, c - 1) + polyfit_sse(values, c, n - 1)
            if sse < best_sse - 1e-9:
                best_sse, best_cuts = sse, [c]
    else:
        for c1 in range(min_len, n - 2 * min_len + 1):
            left = polyfit_sse(values, 0, c1 - 1)
            for c2 in range(c1 + min_len, n - min_len + 1):
                sse = left + polyfit_sse(values, c1, c2 - 1) + polyfit_sse(values, c2, n - 1)
                if sse < best_sse - 1e-9:
                    best_sse, best_cuts = sse, [c1, c2]
    return best_cuts


# Copies of the trend-model assembly and the month-by-month
# classification from before TrendModel.zone, kept as oracles.


def old_build_trend_model(diff, breakpoints, transition_halfwidth, tail_start=None):
    if transition_halfwidth < 0:
        raise FitError("transition_halfwidth must be >= 0")
    if 2 * transition_halfwidth > MAX_TRANSITION_MONTHS:
        raise FitError(
            f"transition_halfwidth {transition_halfwidth} implies a window wider "
            f"than {MAX_TRANSITION_MONTHS} months"
        )
    points = list(breakpoints)
    if points != sorted(points):
        raise FitError("breakpoints must be sorted")
    span_start, span_end = diff.start, diff.end
    for p in points:
        if not (span_start < p <= span_end):
            raise FitError(f"breakpoint {p} outside series span {span_start}..{span_end}")
    fit_end = span_end
    transitions = []
    if tail_start is not None:
        if not (span_start < tail_start <= span_end):
            raise FitError(f"tail_start {tail_start} outside series span")
        if points and tail_start <= points[-1]:
            raise FitError("tail_start must come after the last breakpoint")
        if months_between(span_end, tail_start) >= MAX_TRANSITION_MONTHS:
            raise FitError(
                f"tail_start {tail_start} leaves a trailing transition {tail_start}..{span_end} "
                f"longer than {MAX_TRANSITION_MONTHS} months"
            )
        fit_end = tail_start.add_months(-1)
    windows = []
    for p in points:
        if transition_halfwidth == 0:
            continue
        w = (p.add_months(-transition_halfwidth), p.add_months(transition_halfwidth - 1))
        if windows and w[0] <= windows[-1][1]:
            raise FitError(
                f"transition windows around {p} overlap; halfwidth too large "
                "for the breakpoint spacing"
            )
        windows.append(w)
    pieces = []
    cursor = span_start
    if transition_halfwidth == 0:
        for p in points:
            pieces.append((cursor, p.add_months(-1)))
            cursor = p
        pieces.append((cursor, fit_end))
    else:
        for w in windows:
            pieces.append((cursor, w[0].add_months(-1)))
            cursor = w[1].add_months(1)
            transitions.append(TransitionWindow(*w))
        pieces.append((cursor, fit_end))
    segments = []
    for lo, hi in pieces:
        if hi < lo or months_between(hi, lo) + 1 < 2:
            raise FitError(
                f"piece {lo}..{hi} is too short to fit; reduce transition_halfwidth"
            )
        segments.append(fit_ols(diff, (lo, hi)))
    if tail_start is not None:
        transitions.append(TransitionWindow(tail_start, span_end))
    return TrendModel(segments=tuple(segments), transitions=tuple(transitions))


def old_residuals_csv(diff, model):
    """The segment-first lookup that residuals.csv used."""
    lines = ["date,value,predicted,residual,zone"]
    for stamp, value in diff.observations:
        segment = next((s for s in model.segments if s.start <= stamp <= s.end), None)
        if segment is not None:
            zone = f"trend-{model.segments.index(segment)}"
        elif any(w.start <= stamp <= w.end for w in model.transitions):
            lines.append(f"{stamp},{value!r},,,transition")
            continue
        else:
            segment = old_nearest_segment(model, stamp)
            zone = "extrapolation"
        predicted = segment.predicted(stamp)
        lines.append(f"{stamp},{value!r},{predicted!r},{value - predicted!r},{zone}")
    return "\n".join(lines) + "\n"


def old_nearest_segment(model, stamp):
    def distance(s):
        if s.start <= stamp <= s.end:
            return 0
        return min(abs(months_between(stamp, s.start)), abs(months_between(stamp, s.end)))

    return min(model.segments, key=distance)


def old_classify_deviation(model, stamp, value):
    """The transition-first classification, as (label, z, segment, extrapolated)."""
    if any(w.start <= stamp <= w.end for w in model.transitions):
        return "in-transition", None, None, False
    segment = next((s for s in model.segments if s.start <= stamp <= s.end), None)
    extrapolated = segment is None
    if segment is None:
        segment = old_nearest_segment(model, stamp)
    dev = residual(segment, stamp, value)
    if segment.residual_sigma > 0.0:
        z = dev / segment.residual_sigma
    else:
        z = 0.0 if dev == 0.0 else float("inf") * np.sign(dev)
    if abs(z) <= 1.0:
        label = "on-trend"
    else:
        label = "above" if dev > 0 else "below"
    return label, float(z), segment, extrapolated


# ---------------------------------------------------------------- forecast


def old_ordinal(stamp):
    """Verbatim body of ``series._ordinal`` before stamps kept their ordinal."""
    return stamp.year * 12 + stamp.month - 1


def old_forecast_checks(origin, path, band_sigma):
    """Verbatim body of ``Forecast.__post_init__`` from when ``_ordinal`` computed each
    stamp's ordinal (``old_ordinal`` standing in for it), kept as an oracle: the normalised
    ``(path, band_sigma)``, or the error it raised."""
    stamps, values = zip(*path) if path else ((), ())
    values = tuple(map(float, values))
    path = tuple(zip(stamps, values))
    band_sigma = float(band_sigma)
    if not 0.0 <= band_sigma < math.inf:
        raise ValueError(f"band_sigma must be finite and >= 0, got {band_sigma}")
    if not stamps:
        raise ValueError("empty forecast path")
    months = list(map(old_ordinal, stamps))
    expected = old_ordinal(origin) + 1
    # the usual path, every month after the origin and finite, passes in one check
    if months == list(range(expected, expected + len(months))) and math.isfinite(sum(values)):
        return path, band_sigma
    if months[0] != expected:
        raise ValueError(
            f"path must start the month after origin ({_stamp(expected)}), got {stamps[0]}"
        )
    for a, b, stamp in zip(months, months[1:], stamps[1:]):
        if b <= a:
            raise ValueError(f"path stamps not strictly increasing at {stamp}")
    for stamp, value in zip(stamps, values):
        if not math.isfinite(value):
            raise ValueError(f"non-finite forecast value {value!r} at {stamp}")
    return path, band_sigma


def old_forecast_pendulum(current, trend, amplitude, half_period, horizon):
    """The stamp-by-stamp pendulum path, kept as an oracle (``old_predicted`` standing in
    for ``trend.predicted``)."""
    origin, value = current
    start_dev = float(value) - old_predicted(trend, origin)
    side = math.copysign(1.0, start_dev) if start_dev != 0.0 else 1.0

    def deviation(m: int) -> float:
        phase = math.pi * m / half_period
        wave = math.cos(phase)
        if m <= half_period / 2:
            return wave * abs(start_dev) * side
        return wave * amplitude * side

    return tuple(
        (origin.add_months(m), old_predicted(trend, origin.add_months(m)) + deviation(m))
        for m in range(1, horizon + 1)
    )


def old_predicted(trend, stamp):
    """Verbatim body of ``LinearSegment.predicted`` before it called ``_at``."""
    return trend.intercept + trend.slope * (months_between(stamp, trend.start) / 12.0)


def old_trend_forecast(mode, trend, origin, steps, deviation=None):
    """Verbatim copy of ``forecast._trend_forecast`` from when every path it built went
    through ``Forecast(...)`` and its checks, kept as an oracle."""
    at, k = _ordinal(origin), months_between(origin, trend.start)
    months = range(1, steps + 1)
    try:
        stamps = tuple(map(_stamp, range(at + 1, at + steps + 1)))
        if deviation is None:
            values = [trend._at(k + m) for m in months]
        else:
            values = [trend._at(k + m) + deviation(m) for m in months]
        return Forecast(mode, origin, tuple(zip(stamps, values)), trend.residual_sigma)
    except ValueError as exc:
        raise ForecastError(str(exc)) from None


# ---------------------------------------------------------------- backtest


def loop_oracle(pred, act):
    """Single-pass reference implementation of every metric."""
    n = len(pred)
    abs_sum = sq_sum = signed_sum = 0.0
    for p, a in zip(pred, act):
        e = p - a
        abs_sum += abs(e)
        sq_sum += e * e
        signed_sum += e
    hits = counted = 0
    for i in range(n - 1):
        dp = pred[i + 1] - pred[i]
        da = act[i + 1] - act[i]
        if dp == 0 or da == 0:
            continue
        counted += 1
        if (dp > 0) == (da > 0):
            hits += 1
    return (
        abs_sum / n,
        math.sqrt(sq_sum / n),
        signed_sum / n,
        hits / counted if counted else 1.0,
    )


def old_score(forecast, actual):
    """Verbatim copy of the month-by-month scorer before ordinal lookups, kept as an oracle."""
    overlap = [
        (stamp, pred, actual.value_at(stamp))
        for stamp, pred in forecast.path
        if actual.has(stamp)
    ]
    if not overlap:
        raise BacktestError("forecast and actuals share no months")

    errors = [pred - act for _, pred, act in overlap]
    n = len(errors)
    mae = sum(abs(e) for e in errors) / n
    rmse = math.sqrt(sum(e * e for e in errors) / n)
    bias = sum(errors) / n

    hits = counted = 0
    for (_, p0, a0), (_, p1, a1) in zip(overlap, overlap[1:]):
        dp, da = p1 - p0, a1 - a0
        if dp == 0.0 or da == 0.0:
            continue
        counted += 1
        if (dp > 0) == (da > 0):
            hits += 1
    hit_rate = hits / counted if counted else 1.0

    return BacktestReport(n=n, mae=mae, rmse=rmse, bias=bias, direction_hit_rate=hit_rate)


def lookup_score(forecast, actual, origin=None):
    """Verbatim copy of the scorer that looked every month up at once and then made
    separate passes for the errors and the hit rate, kept as an oracle. ``_lookup`` and
    ``_ordinal`` are inlined as they were."""
    months = [stamp.year * 12 + stamp.month - 1 for stamp, _ in forecast.path]
    actual_months, actual_values = np.asarray(actual._months), np.asarray(actual._values)
    at = np.minimum(np.searchsorted(actual_months, months), len(actual_months) - 1)
    found = actual_months[at] == months
    overlap = [
        (pred, act)
        for (_, pred), act, keep in zip(forecast.path, actual_values[at].tolist(), found.tolist())
        if keep
    ]
    if not overlap:
        raise BacktestError("forecast and actuals share no months")

    errors = [pred - act for pred, act in overlap]
    n = len(errors)
    mae = sum(abs(e) for e in errors) / n
    rmse = math.sqrt(sum(e * e for e in errors) / n)
    bias = sum(errors) / n

    hits = counted = 0
    for (p0, a0), (p1, a1) in zip(overlap, overlap[1:]):
        dp, da = p1 - p0, a1 - a0
        if dp == 0.0 or da == 0.0:
            continue
        counted += 1
        if (dp > 0) == (da > 0):
            hits += 1
    hit_rate = hits / counted if counted else 1.0

    return BacktestReport(n, mae, rmse, bias, hit_rate, origin)
