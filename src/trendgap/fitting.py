"""Linear trend fitting and optimal piecewise segmentation of difference series.

A difference series spends years on quasi-linear trends separated by short
transition windows. This module fits single trends by ordinary least squares,
locates trend turning points by exact dynamic programming over month
positions, and assembles the fitted structure into a :class:`TrendModel`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import DifferenceSeries, MonthStamp, _ordinal, _Record, _stamp, months_between
from .trend import MAX_TRANSITION_MONTHS, LinearSegment, TransitionWindow, TrendModel


class FitError(ValueError):
    """A fit or segmentation precondition was violated."""


# [1, k / 12] depends on n alone: built and checked once per length, read-only as fits share it
@lru_cache(maxsize=256)
def _design(n: int) -> np.ndarray:
    design = np.column_stack([np.ones(n), np.arange(n) / 12.0])
    if np.ptp(design[:, 1]) == 0.0:
        raise FitError("zero variance in time coordinate")
    design.flags.writeable = False
    return design


def fit_ols(diff: DifferenceSeries, window: tuple[MonthStamp, MonthStamp]) -> LinearSegment:
    """Fit a linear trend to the observations inside an inclusive month window.

    Parameters
    ----------
    diff : DifferenceSeries
        Series to fit. The window must be gap-free and hold >= 2 months.
    window : (MonthStamp, MonthStamp)
        Inclusive bounds; the fit is anchored at the first observed month,
        so ``intercept`` is the trend value there.
    """
    lo, hi = window
    if _ordinal(hi) < _ordinal(lo):
        raise FitError(f"window end {hi} before start {lo}")
    keep = diff._window(lo, hi)
    n = keep.stop - keep.start
    if n < 2:
        raise FitError(f"window {lo}..{hi} has {n} observations, need >= 2")
    first, last = diff._months[keep.start], diff._months[keep.stop - 1]
    if last - first + 1 != n:
        gap = diff._take(keep).missing_months()[0]
        raise FitError(f"window {lo}..{hi} has missing months from {gap}; fits require gap-free data")
    y, design = np.asarray(diff._values)[keep], _design(n)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        resid = y - design @ coef
        sse = float(resid @ resid)
        d = y - np.add.reduce(y) / n  # y.mean() and np.sum of the squares, without their wrappers
        sst = float(np.add.reduce(d * d))
    if not (math.isfinite(sse) and math.isfinite(sst)):
        raise FitError(f"window {lo}..{hi}: values too large, their sums of squares overflow")
    # Zero-variance target: define r_squared as 0 for stable downstream thresholds.
    r_squared = 0.0 if sst == 0.0 else max(0.0, min(1.0, 1.0 - sse / sst))
    return LinearSegment(
        start=_stamp(first),
        end=_stamp(last),
        intercept=float(coef[0]),
        slope=float(coef[1]),
        r_squared=r_squared,
        residual_sigma=math.sqrt(sse / (n - 1)),
    )


def residual(segment: LinearSegment, stamp: MonthStamp, value: float) -> float:
    """Observed value minus trend value; positive when above the trend line."""
    return value - segment.predicted(stamp)


class DeviationClass(_Record):
    """Where a value sits relative to the governing trend."""

    label: str  # "on-trend" | "above" | "below" | "in-transition"
    z: float | None
    segment: LinearSegment | None
    extrapolated: bool

    def __init__(self, label, z, segment, extrapolated=False):
        vars(self).update(label=label, z=z, segment=segment, extrapolated=extrapolated)


def classify_deviation(model: TrendModel, stamp: MonthStamp, value: float) -> DeviationClass:
    """Classify a value as on-trend (|z| <= 1), above or below its trend.

    Stamps inside a transition window are reported as in-transition with no
    z-score; stamps outside every segment use the nearest segment's forward
    extrapolation and are flagged.
    """
    zone, segment = model.zone(stamp)
    if segment is None:
        return DeviationClass(label="in-transition", z=None, segment=None)
    dev = residual(segment, stamp, value)
    if segment.residual_sigma > 0.0:
        z = dev / segment.residual_sigma
    else:
        z = 0.0 if dev == 0.0 else dev * math.inf
    if abs(z) <= 1.0:
        label = "on-trend"
    else:
        label = "above" if dev > 0 else "below"
    return DeviationClass(
        label=label, z=float(z), segment=segment, extrapolated=zone == "extrapolation"
    )


#: Start positions per block of the segmentation DP, whose piece SSEs are one numpy sweep.
_BLOCK_ROWS = 16


class _SegmentCost:
    """O(1) least-squares SSE of any contiguous month range.

    Positions are in years and centred, and so is y: prefix sums of a series
    far from zero would cancel away the variation that places the breaks. Only
    the y side takes prefix sums; the position side is in closed form. SSEs go
    to a workspace allocated once, so the DP does not allocate per block.
    """

    def __init__(self, y: np.ndarray):
        n = len(y)
        x = np.arange(n) / 12.0
        centre = x.mean()
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves SSEs inf or nan
            x, y = x - centre, y - y.mean()
            # prefix[:, p] holds the sums of y, xy and yy over positions 0..p-1
            sums = np.cumsum(np.stack([y, x * y, y * y]), axis=1)
        self.prefix = np.hstack([np.zeros((3, 1)), sums])
        # read-only n x n views of piece i..b's mean position, m and Σ(x - x̄)² at [i, b]
        m = np.arange(2.0 - n, n + 1)
        self.mean = sliding_window_view(np.arange(2 * n - 1) / 24.0 - centre, n)
        self.m, self.var_x = (sliding_window_view(t, n)[::-1] for t in (m, m * (m * m - 1) / 1728))
        self._work = np.empty((4, _BLOCK_ROWS * n))

    def sse(self, starts: range, ends: range) -> np.ndarray:
        """SSE of the OLS line on positions i..b inclusive, rows i in ``starts``
        and columns b in ``ends``, in the workspace the next call overwrites.
        A cell shorter than two months is junk but raises no warning."""
        cells = np.s_[starts.start : starts.stop, ends.start : ends.stop]
        work = self._work[:, : len(starts) * len(ends)].reshape(4, len(starts), len(ends))
        sy, cov_xy, sse, tmp = work  # the sums of y, xy and yy until overwritten
        right = self.prefix[:, None, ends.start + 1 : ends.stop + 1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.subtract(right, self.prefix[:, starts.start : starts.stop, None], out=work[:3])
            # cov_xy = sxy - mean * sy and var_y = syy - sy * sy / m, each overwriting its sum
            np.subtract(cov_xy, np.multiply(self.mean[cells], sy, out=tmp), out=cov_xy)
            np.divide(np.multiply(sy, sy, out=tmp), self.m[cells], out=tmp)
            np.subtract(sse, tmp, out=sse)
            # sse = var_y - cov_xy * cov_xy / var_x, unguarded: var_x > 0 for m >= 2
            np.divide(np.multiply(cov_xy, cov_xy, out=tmp), self.var_x[cells], out=tmp)
            np.subtract(sse, tmp, out=sse)
            return np.maximum(sse, 0.0, out=sse)


def _segment(diff: DifferenceSeries, max_k: int, min_len: int):
    """Optimal segmentations of every suffix with 0..max_k breaks, in one pass.

    ``suffix[m][i]`` is the minimal SSE covering positions i..n-1 with m
    breaks, and ``after[m][i]`` is the position just right of the earliest
    optimal first break there. Following ``after`` forward from position 0
    yields the lexicographically smallest optimal breakpoint set.

    Start positions go in blocks of ``_BLOCK_ROWS``, right to left, and each
    block's piece SSEs are computed once and read by every level. Only cells
    that a caller or a higher level reads are computed; every other cell is
    ``inf`` in ``suffix`` and 0 in ``after``. Callers read the top level only at
    position 0, so for ``max_k >= 1`` only that cell of it is computed. Level
    m + 1 at position 0 reads level m only at positions >= min_len, so no
    level is computed at positions 1..min_len-1, inside the first piece.
    """
    if not diff.is_contiguous():
        raise FitError(
            "breakpoint detection requires a gap-free series; "
            f"first missing month {diff.missing_months()[0]}"
        )
    n = len(diff)
    cost = _SegmentCost(np.asarray(diff._values))
    suffix = np.full((max_k + 1, n + 1), np.inf)
    after = np.zeros((max_k + 1, n + 1), dtype=int)
    # level m fills position 0 and positions min_len..n - (m + 1) * min_len,
    # the top level only 0
    last = [n - (m + 1) * min_len + 1 for m in range(max_k + 1)]
    last[-1] = min(1, last[-1])
    # level 0 is the one piece i..n-1
    for rows in (range(1), range(min_len, last[0])):
        suffix[0][rows.start : rows.stop] = cost.sse(rows, range(n - 1, n))[:, 0]
    short = np.tri(_BLOCK_ROWS, k=-1, dtype=bool)
    work = np.empty(_BLOCK_ROWS * n)
    # blocks start at min_len, min_len + _BLOCK_ROWS, ..., and position 0 is a
    # block of its own; levels run bottom up within a block, and level m reads
    # level m-1 only at positions >= i0 + min_len, which a block to its right filled
    firsts = [0, *range(min_len, last[1], _BLOCK_ROWS)] if max_k and last[1] > 0 else []
    for i0 in reversed(firsts):
        lo, block = i0 + min_len - 1, i0 + _BLOCK_ROWS if i0 else 1
        # pieces i..b for level 1's breaks, the widest; every level reads a corner
        rows, ends = range(i0, min(block, last[1])), range(lo, n - min_len)
        sse = cost.sse(rows, ends)
        for m in range(1, max_k + 1):
            # piece i..b, then m-1 breaks in b+1..n-1
            rows, stop = range(i0, min(block, last[m])), n - m * min_len
            if not rows:
                break
            r = np.arange(len(rows))
            totals = work[: len(r) * (stop - lo)].reshape(len(r), stop - lo)
            np.add(sse[: len(r), : stop - lo], suffix[m - 1][lo + 1 : stop + 1], out=totals)
            # row r starts at i0 + r, so its first r cells are pieces shorter than min_len
            totals[:, : len(r)][short[: len(r), : len(r)]] = np.inf
            # argmin returns the first minimum, i.e. the earliest feasible break;
            # a row with no finite total keeps its first feasible break
            best = np.maximum(np.argmin(totals, axis=1), r)
            suffix[m][i0 : rows.stop] = totals[r, best]
            after[m][i0 : rows.stop] = lo + best + 1
    return suffix, after


def _breakpoints(diff: DifferenceSeries, after: np.ndarray, k: int) -> list[MonthStamp]:
    points, i = [], 0
    for m in range(k, 0, -1):
        i = int(after[m][i])
        points.append(diff.start.add_months(i))
    return points


def detect_breakpoints(diff: DifferenceSeries, k: int, min_len: int) -> list[MonthStamp]:
    """Exact optimal placement of ``k`` trend turning points.

    Minimizes the total SSE of independent least-squares lines on the k+1
    contiguous pieces, by dynamic programming over month positions. Each
    piece must span at least ``min_len`` months. The returned stamps are the
    first months of the pieces to the right of each break; ties are broken
    toward the lexicographically earliest breakpoint set.

    Parameters
    ----------
    diff : DifferenceSeries
        Gap-free series to segment.
    k : int
        Number of breakpoints (k = 0 returns an empty list).
    min_len : int
        Minimum piece length in months, at least 6.
    """
    if k < 0:
        raise FitError(f"k must be >= 0, got {k}")
    if min_len < 6:
        raise FitError(f"min_len must be >= 6, got {min_len}")
    n = len(diff)
    if n < (k + 1) * min_len:
        raise FitError(
            f"series of {n} months is too short for {k} breakpoints "
            f"with min_len {min_len} (needs {(k + 1) * min_len})"
        )
    if k == 0:
        return []
    suffix, after = _segment(diff, k, min_len)
    if not np.isfinite(suffix[k][0]):
        raise FitError("no feasible segmentation")
    return _breakpoints(diff, after, k)


def select_breakpoint_count(
    diff: DifferenceSeries, max_k: int, min_len: int
) -> tuple[int, list[MonthStamp]]:
    """Convenience BIC-style choice of the breakpoint count.

    Scores each k in 0..max_k by ``n log(SSE/n) + p log(n)`` with p the
    number of fitted parameters, and returns the best (k, breakpoints).
    One segmentation pass serves every k; a k whose SSE is not finite is
    never chosen, and FitError is raised when none is. Explicit k remains
    the recommended path when the structure is known.
    """
    if max_k < 0:
        raise FitError(f"max_k must be >= 0, got {max_k}")
    n = len(diff)
    if n < min_len:
        raise FitError(f"series of {n} months is shorter than min_len {min_len}")
    if min_len < 6:
        raise FitError(f"min_len must be >= 6, got {min_len}")
    suffix, after = _segment(diff, min(max_k, n // min_len - 1), min_len)
    if not np.isfinite(suffix[:, 0]).any():
        raise FitError("no feasible segmentation")
    bics = [
        n * np.log(max(sse, 1e-12) / n) + (2 * (k + 1) + k) * np.log(n)
        if np.isfinite(sse)
        else np.inf
        for k, sse in enumerate(suffix[:, 0])
    ]
    k = int(np.argmin(bics))
    return k, _breakpoints(diff, after, k)


def build_trend_model(
    diff: DifferenceSeries,
    breakpoints: list[MonthStamp],
    transition_halfwidth: int,
    tail_start: MonthStamp | None = None,
) -> TrendModel:
    """Fit the segment/transition structure implied by given breakpoints.

    Around each breakpoint ``b`` the months ``b - halfwidth .. b + halfwidth - 1``
    are excluded as a transition window (halfwidth 0 excludes nothing, so the
    segments partition the span exactly at the breakpoints). When
    ``tail_start`` is given, every month from it to the end of the series is
    an ongoing trailing transition instead of part of the final segment.
    """
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
    transitions: list[TransitionWindow] = []
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

    pieces: list[tuple[MonthStamp, MonthStamp]] = []
    cursor = span_start
    for p in points:
        lo, hi = p.add_months(-transition_halfwidth), p.add_months(transition_halfwidth - 1)
        if transitions and lo <= transitions[-1].end:
            raise FitError(
                f"transition windows around {p} overlap; halfwidth too large "
                "for the breakpoint spacing"
            )
        pieces.append((cursor, lo.add_months(-1)))
        if lo <= hi:
            transitions.append(TransitionWindow(lo, hi))
        cursor = hi.add_months(1)
    pieces.append((cursor, fit_end))

    segments = []
    for lo, hi in pieces:
        if months_between(hi, lo) < 1:
            raise FitError(
                f"piece {lo}..{hi} is too short to fit; reduce transition_halfwidth"
            )
        segments.append(fit_ols(diff, (lo, hi)))

    if tail_start is not None:
        transitions.append(TransitionWindow(tail_start, span_end))

    return TrendModel(segments=tuple(segments), transitions=tuple(transitions))


__all__ = [
    "MAX_TRANSITION_MONTHS",
    "FitError",
    "LinearSegment",
    "TransitionWindow",
    "TrendModel",
    "DeviationClass",
    "fit_ols",
    "residual",
    "classify_deviation",
    "detect_breakpoints",
    "select_breakpoint_count",
    "build_trend_model",
]
