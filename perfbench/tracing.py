"""Spans around calls into trendgap's public functions, recorded from outside.

The tracer wraps module-level functions of the loaded ``trendgap`` modules
for the duration of a ``with tracer.installed():`` block, so calls the
library makes internally (``select_breakpoint_count`` calling
``detect_breakpoints``, ``cli.main`` calling ``fit_ols``) are recorded too.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

#: Public functions traced per module, in the order metrics are reported.
TRACED = {
    "series": ("parse_series_csv", "difference", "series_to_csv"),
    "fitting": (
        "detect_breakpoints",
        "select_breakpoint_count",
        "build_trend_model",
        "fit_ols",
        "classify_deviation",
    ),
    "forecast": ("forecast_return_to_trend", "forecast_along_trend", "chain_forecasts"),
    "prices": ("lead_lag", "component_index_from_difference", "calibrate_price"),
    "backtest": ("rolling_backtest", "reports_to_csv"),
}

#: Functions that also report a per-call median (``p50_ms``).
PER_CALL_P50 = ("fitting.detect_breakpoints", "fitting.select_breakpoint_count", "prices.lead_lag")


def _months_in(result, args) -> int:
    return len(result)


#: Work counted at a span boundary: span name -> (counter, count function).
COUNTERS = {
    "series.parse_series_csv": ("series.months_per_op", _months_in),
    "series.difference": ("series.months_per_op", _months_in),
    "series.series_to_csv": ("series.months_per_op", lambda result, args: len(args[0])),
    "backtest.rolling_backtest": ("backtest.origins_per_op", lambda result, args: len(args[2])),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Keeps spans and boundary counts of one traced run in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, int], float] = {}
        self.op = 0
        self._stack: list[int] = []
        self._t0 = perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, name, perf_counter() - self._t0, 0.0, parent, self.op)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = perf_counter() - self._t0

    def count(self, counter: str, amount: float) -> None:
        key = (counter, self.op)
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        """``fn`` recording a span per call; inlined rather than ``with self.span``
        to keep the per-call cost (and so the tracing overhead) small."""
        counter = COUNTERS.get(name)
        spans, stack, t0 = self.spans, self._stack, self._t0

        def traced(*args, **kwargs):
            record = Span(len(spans), name, perf_counter() - t0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(record)
            stack.append(record.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record.end = perf_counter() - t0
            if counter is not None:
                self.count(counter[0], counter[1](result, args))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of a traced function in ``trendgap.*`` modules."""
        modules = [m for k, m in sys.modules.items() if k == "trendgap" or k.startswith("trendgap.")]
        patched = []
        for module_name, functions in TRACED.items():
            home = sys.modules[f"trendgap.{module_name}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self, op_ids: list[int], base_ms: float) -> dict[str, float]:
        """``<module>.<function>.<stat>`` metrics over the given traced ops;
        ``share`` is self time per op divided by ``base_ms``."""
        n_ops = len(op_ids)
        wanted = set(op_ids)
        own = self.self_times()
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        for s, t in zip(self.spans, own):
            if s.op not in wanted:
                continue
            calls[s.name] = calls.get(s.name, 0) + 1
            self_ms[s.name] = self_ms.get(s.name, 0.0) + 1000.0 * t
            durations.setdefault(s.name, []).append(1000.0 * (s.end - s.start))
        metrics = {}
        for module_name, functions in TRACED.items():
            for fname in functions:
                name = f"{module_name}.{fname}"
                per_op = self_ms.get(name, 0.0) / n_ops
                metrics[f"{name}.calls_per_op"] = calls.get(name, 0) / n_ops
                metrics[f"{name}.self_ms_per_op"] = per_op
                metrics[f"{name}.share"] = per_op / base_ms
                if name in PER_CALL_P50:
                    d = durations.get(name)
                    metrics[f"{name}.p50_ms"] = statistics.median(d) if d else 0.0
        for counter in dict.fromkeys(c for c, _ in COUNTERS.values()):
            total = sum(v for (c, op), v in self.counts.items() if c == counter and op in wanted)
            metrics[counter] = total / n_ops
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(vars(s)) + "\n")
