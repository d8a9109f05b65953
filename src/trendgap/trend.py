"""Fitted trend structure: linear segments, transition windows and the model they make.

This module uses no numpy, so a process that only reads ``trend_model.json``, draws a
trend through two anchors or labels months by their zone never loads it. ``fitting``
fits these structures to data, and lists them in its ``__all__``.
"""

from __future__ import annotations

import json

from .series import MonthStamp, _ordinal, _Record, months_between

#: Transitions between trends last three years at most.
MAX_TRANSITION_MONTHS = 36


class LinearSegment(_Record):
    """A fitted linear trend over an inclusive month window.

    ``slope`` is in index points per year; ``intercept`` is the fitted value
    at the window's first month. ``synthetic`` marks segments that were
    constructed (mirrored or drawn through anchor points) rather than fitted,
    in which case ``r_squared`` and ``residual_sigma`` are inherited priors.
    """

    start: MonthStamp
    end: MonthStamp
    intercept: float
    slope: float
    r_squared: float
    residual_sigma: float
    synthetic: bool

    def __init__(self, start, end, intercept, slope, r_squared, residual_sigma, synthetic=False):
        intercept, slope, r_squared, residual_sigma = map(
            float, (intercept, slope, r_squared, residual_sigma)
        )
        if _ordinal(end) < _ordinal(start):
            raise ValueError(f"segment end {end} before start {start}")
        if not 0.0 <= r_squared <= 1.0:
            raise ValueError(f"r_squared {r_squared} outside [0, 1]")
        if residual_sigma < 0.0:
            raise ValueError(f"negative residual_sigma {residual_sigma}")
        vars(self).update(
            start=start,
            end=end,
            intercept=intercept,
            slope=slope,
            r_squared=r_squared,
            residual_sigma=residual_sigma,
            synthetic=synthetic,
        )

    def predicted(self, stamp: MonthStamp) -> float:
        """Trend value at ``stamp``; extrapolates freely outside the window."""
        return self._at(months_between(stamp, self.start))

    def _at(self, k: int) -> float:
        """Trend value ``k`` months after the window's first month."""
        return self.intercept + self.slope * (k / 12.0)

    def contains(self, stamp: MonthStamp) -> bool:
        return self.start <= stamp <= self.end


class TransitionWindow(_Record):
    """Months between two trends during which neither trend governs."""

    start: MonthStamp
    end: MonthStamp

    def __init__(self, start, end):
        if end < start:
            raise ValueError(f"transition end {end} before start {start}")
        vars(self).update(start=start, end=end)

    @property
    def duration_months(self) -> int:
        return months_between(self.end, self.start) + 1

    def contains(self, stamp: MonthStamp) -> bool:
        return self.start <= stamp <= self.end


class TrendModel(_Record):
    """Chronological trend segments separated by transition windows."""

    segments: tuple[LinearSegment, ...]
    transitions: tuple[TransitionWindow, ...]

    def __init__(self, segments, transitions):
        segs, trans = tuple(segments), tuple(transitions)
        if not segs:
            raise ValueError("trend model needs at least one segment")
        for a, b in zip(segs, segs[1:]):
            if b.start <= a.end:
                raise ValueError(f"segments overlap or are out of order at {b.start}")
        for a, b in zip(trans, trans[1:]):
            if b.start <= a.end:
                raise ValueError(f"transitions overlap or are out of order at {b.start}")
        for w in trans:
            if w.duration_months > MAX_TRANSITION_MONTHS:
                raise ValueError(
                    f"transition {w.start}..{w.end} exceeds {MAX_TRANSITION_MONTHS} months"
                )
            # Allowed placements: strictly between two adjacent segments, or
            # trailing after the final segment (an ongoing transition).
            between = any(
                s.end < w.start and w.end < nxt.start for s, nxt in zip(segs, segs[1:])
            )
            trailing = w.start > segs[-1].end
            if not (between or trailing):
                raise ValueError(
                    f"transition {w.start}..{w.end} is not strictly between segments"
                )
        vars(self).update(segments=segs, transitions=trans)

    def zone(self, stamp: MonthStamp) -> tuple[str, LinearSegment | None]:
        """Which trend governs ``stamp``, as ``(label, segment)``.

        Inside segment i this is ``("trend-<i>", segment)``, inside a
        transition window ``("transition", None)``, and anywhere else
        ``("extrapolation", nearest segment)``, ties going to the earlier one.
        """
        return self._zone(_ordinal(stamp))

    def _zone(self, month: int) -> tuple[str, LinearSegment | None]:
        """:meth:`zone` of a month ordinal."""
        gaps = [max(_ordinal(s.start) - month, month - _ordinal(s.end)) for s in self.segments]
        index = gaps.index(min(gaps))  # the nearest segment (negative inside it), earlier on a tie
        segment = self.segments[index]
        if gaps[index] <= 0:
            return f"trend-{index}", segment
        if any(_ordinal(w.start) <= month <= _ordinal(w.end) for w in self.transitions):
            return "transition", None
        return "extrapolation", segment

    def to_dict(self) -> dict:
        return {
            "segments": [
                {
                    "start": str(s.start),
                    "end": str(s.end),
                    "intercept_A": s.intercept,
                    "slope_B": s.slope,
                    "r_squared": s.r_squared,
                    "residual_sigma": s.residual_sigma,
                }
                for s in self.segments
            ],
            "transitions": [{"start": str(w.start), "end": str(w.end)} for w in self.transitions],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TrendModel":
        """The model :meth:`to_json` wrote; a malformed document raises ValueError."""
        doc = json.loads(text)
        try:
            segments = tuple(
                LinearSegment(
                    start=MonthStamp.parse(d["start"]),
                    end=MonthStamp.parse(d["end"]),
                    intercept=float(d["intercept_A"]),
                    slope=float(d["slope_B"]),
                    r_squared=float(d["r_squared"]),
                    residual_sigma=float(d["residual_sigma"]),
                )
                for d in doc["segments"]
            )
            transitions = tuple(
                TransitionWindow(MonthStamp.parse(d["start"]), MonthStamp.parse(d["end"]))
                for d in doc["transitions"]
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed trend model: {type(exc).__name__} {exc}") from None
        return cls(segments=segments, transitions=transitions)
