"""The benchmark's three workloads: one op each, plus its output check.

A workload generates its inputs when it is built (before any timing),
``op()`` does one operation and returns its raw result, and
``check(raw)`` compares that result with the reference recorded for the
input variant, returning the list of mismatches (empty when correct).
Library calls go through module attributes (``fitting.fit_ols``) so the
tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import generate
import hostspeed
from trendgap import backtest, cli, fitting, forecast, prices, series
from trendgap.series import DifferenceSeries, MonthStamp

#: Relative tolerance for floating-point outputs checked with ``close``.
REL_TOL = 1e-9


def _sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def compare(got: dict, want: dict) -> list[str]:
    """Mismatches between a summary and its reference: exact and close parts."""
    problems = []
    for key in sorted(set(got["exact"]) | set(want["exact"])):
        if got["exact"].get(key) != want["exact"].get(key):
            problems.append(f"{key}: got {got['exact'].get(key)!r}, want {want['exact'].get(key)!r}")
    for key in sorted(set(got["close"]) | set(want["close"])):
        g, w = got["close"].get(key), want["close"].get(key)
        if g is None or w is None or not _close(g, w):
            problems.append(f"{key}: got {g!r}, want {w!r} (rel tol {REL_TOL})")
    return problems


class Workload:
    """Base: inputs from the seed, the reference for its variant, a span hook."""

    name = ""
    #: Module a fresh interpreter imports to measure ``setup_s``.
    setup_module = "trendgap"
    #: Time of :meth:`probe_ms` on the reference host (see ``hostspeed``).
    probe_ref_ms = hostspeed.KERNEL_REF_MS

    def __init__(self, reference: dict | None):
        self.reference = reference
        #: Set to a :class:`tracing.Tracer` for the traced part of a run.
        self.tracer = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op(self, op_id: int):
        raise NotImplementedError

    def probe_ms(self) -> float:
        """One host-speed probe of the kind of work the op does: in-process."""
        return hostspeed.kernel_ms()

    def summarise(self, raw) -> dict:
        raise NotImplementedError

    def check(self, raw) -> list[str]:
        if self.reference is None:
            return ["no reference recorded for this input variant"]
        return compare(self.summarise(raw), self.reference)

    def replay(self, op_id: int) -> list[str]:
        """Traced runs only: extra in-process work after an op (none here)."""
        return []

    def share_base_ms(self, tracer, loop) -> float:
        """What a library layer's ``share`` divides by: the mean op wall time."""
        return 1000.0 * sum(loop.seconds) / len(loop.seconds)

    def layer_metrics(self, tracer, op_ids: list[int]) -> dict[str, float]:
        return {}


class SegmentLong(Workload):
    """Segment three 1200-month gaps (1, 2 and 3 planted turning points)."""

    name = "segment-long"
    MIN_LEN = 60
    MAX_K = 3
    HALFWIDTH = 12
    CLASSIFY_MONTHS = 24

    def __init__(self, seed, reference):
        super().__init__(reference)
        self.gaps = []
        for gap in generate.segment_long(seed):
            start = MonthStamp(*gap["start"])
            obs = tuple((start.add_months(i), v) for i, v in enumerate(gap["values"]))
            self.gaps.append((gap["planted"], DifferenceSeries("headline", "component", obs)))

    def op(self, op_id):
        results = []
        for planted, diff in self.gaps:
            points = fitting.detect_breakpoints(diff, planted, self.MIN_LEN)
            chosen, selected = fitting.select_breakpoint_count(diff, self.MAX_K, self.MIN_LEN)
            model = fitting.build_trend_model(diff, points, self.HALFWIDTH)
            classes = [
                fitting.classify_deviation(model, stamp, value)
                for stamp, value in diff.observations[-self.CLASSIFY_MONTHS:]
            ]
            results.append((planted, points, chosen, selected, model, classes))
        return results

    def summarise(self, raw):
        exact, close = {}, {}
        for planted, points, chosen, selected, model, classes in raw:
            key = f"planted{planted}"
            exact[f"{key}.breakpoints"] = [str(p) for p in points]
            exact[f"{key}.chosen_k"] = chosen
            exact[f"{key}.selected"] = [str(p) for p in selected]
            exact[f"{key}.labels"] = [c.label for c in classes]
            for i, seg in enumerate(model.segments):
                close[f"{key}.segment{i}.slope"] = seg.slope
                close[f"{key}.segment{i}.intercept"] = seg.intercept
            close[f"{key}.z_sum"] = sum(c.z for c in classes if c.z is not None)
        return {"exact": exact, "close": close}


class ScanBacktest(Workload):
    """Parse, lead-lag scan, 120-origin rolling backtest, serialise, translate."""

    name = "scan-backtest"
    MAX_LAG = 24
    ORIGINS = 120
    HORIZON = 12
    FIT_MONTHS = 60
    RETURN_MONTHS = 6

    def __init__(self, seed, reference):
        super().__init__(reference)
        self.inputs = generate.scan_backtest(seed)
        start = MonthStamp(*generate.SCAN_START)
        first = generate.SCAN_MONTHS - self.HORIZON - self.ORIGINS
        self.origins = [start.add_months(first + i) for i in range(self.ORIGINS)]

    def _forecaster(self, history, origin, horizon):
        trend = fitting.fit_ols(history, (origin.add_months(1 - self.FIT_MONTHS), origin))
        deadline = origin.add_months(self.RETURN_MONTHS)
        first = forecast.forecast_return_to_trend((origin, history.value_at(origin)), trend, deadline)
        second = forecast.forecast_along_trend(trend, deadline, horizon - self.RETURN_MONTHS)
        path = forecast.chain_forecasts(first, second)
        return forecast.Forecast(first.mode, origin, path, first.band_sigma)

    def op(self, op_id):
        t = self.inputs
        head_a = series.parse_series_csv(t["headline_a"], "headline_a")
        comp_a = series.parse_series_csv(t["component_a"], "component_a")
        head_b = series.parse_series_csv(t["headline_b"], "headline_b")
        comp_b = series.parse_series_csv(t["component_b"], "component_b")
        gap_a = series.difference(head_a, comp_a)
        gap_b = series.difference(head_b, comp_b)
        lag, corr = prices.lead_lag(gap_a, gap_b, self.MAX_LAG)

        forecasts = []

        def forecaster(history, origin, horizon):
            forecasts.append(self._forecaster(history, origin, horizon))
            return forecasts[-1]

        reports = backtest.rolling_backtest(gap_a, forecaster, self.origins, self.HORIZON)
        reports_csv = backtest.reports_to_csv(reports)
        gap_csvs = (series.series_to_csv(gap_a), series.series_to_csv(gap_b))

        last = forecasts[-1]
        headline_path = [(stamp, head_a.value_at(stamp)) for stamp in last.stamps]
        component = prices.component_index_from_difference(headline_path, last)
        calibration = prices.calibrate_price(t["pairs"])
        usd = [prices.index_to_price(calibration, v) for v in last.values]
        return lag, corr, reports, reports_csv, gap_csvs, component, calibration, usd

    def summarise(self, raw):
        lag, corr, reports, reports_csv, gap_csvs, component, calibration, usd = raw
        n = len(reports)
        return {
            "exact": {
                "lag": lag,
                "reports": n,
                "reports_csv.sha256": _sha256(reports_csv),
                "gap_a_csv.sha256": _sha256(gap_csvs[0]),
                "gap_b_csv.sha256": _sha256(gap_csvs[1]),
            },
            "close": {
                "corr": corr,
                "mean_mae": sum(r.mae for r in reports) / n,
                "mean_rmse": sum(r.rmse for r in reports) / n,
                "mean_bias": sum(r.bias for r in reports) / n,
                "mean_hit_rate": sum(r.direction_hit_rate for r in reports) / n,
                "component_sum": sum(v for _, v in component),
                "calibration.alpha": calibration.alpha,
                "calibration.beta": calibration.beta,
                "usd_sum": sum(usd),
            },
        }


#: The documented pipelines, in order (README "Command line").
PIPELINES = (
    ("motor", ("diff", "fit", "forecast", "backtest")),
    ("crude", ("diff", "fit", "forecast", "translate", "backtest")),
)


class SubprocessFailed(RuntimeError):
    pass


class CliFixtures(Workload):
    """Both documented CLI pipelines, one ``python -m trendgap.cli`` per subcommand."""

    name = "cli-fixtures"
    setup_module = "trendgap.cli"
    probe_ref_ms = hostspeed.INTERPRETER_REF_MS

    def __init__(self, seed, reference, work_dir: Path, src: Path):
        super().__init__(reference)
        self.src = src
        self.input_dir = work_dir / "inputs"
        self.input_dir.mkdir(parents=True, exist_ok=True)
        for file_name, text in generate.cli_fixtures(seed).items():
            (self.input_dir / file_name).write_text(text, encoding="utf-8")
        self.ops_dir = work_dir / "ops"
        self.stderr_path = work_dir / "child-stderr.txt"

    def probe_ms(self):
        """The op's time is mostly interpreter start, so the probe is one."""
        return hostspeed.interpreter_ms(self.src)

    def _argv(self, config: str, sub: str, out: Path) -> list[str]:
        return [sub, "--config", str(self.input_dir / f"{config}_config.json"), "--out", str(out)]

    def op(self, op_id):
        out_root = self.ops_dir / str(op_id)
        for config, subs in PIPELINES:
            for sub in subs:
                argv = self._argv(config, sub, out_root / config)
                with self.span(f"cli.{config}.{sub}.wall"):
                    code = run_child([sys.executable, "-m", "trendgap.cli", *argv], self.src, self.stderr_path)
                if code != 0:
                    tail = self.stderr_path.read_text(errors="replace").strip()[-300:]
                    raise SubprocessFailed(f"{config} {sub} exited {code}: {tail}")
        return out_root

    def replay(self, op_id):
        """Run the same subcommands in-process, into ``<op>/inproc``, and check them."""
        out_root = self.ops_dir / str(op_id) / "inproc"
        sink = io.StringIO()
        for config, subs in PIPELINES:
            for sub in subs:
                argv = self._argv(config, sub, out_root / config)
                with self.span(f"cli.{config}.{sub}.inproc"):
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = cli.main(argv)
                if code != 0:
                    return [f"in-process {config} {sub} returned {code}"]
        return compare(self.summarise(out_root), self.reference)

    def summarise(self, raw):
        """SHA-256 of every artefact under ``raw/<config>/``."""
        exact = {}
        for config, _ in PIPELINES:
            for path in sorted((raw / config).iterdir()):
                exact[f"{config}/{path.name}"] = _sha256(path.read_bytes())
        return {"exact": exact, "close": {}}

    def check(self, raw):
        try:
            if self.tracer:
                size = sum(p.stat().st_size for c, _ in PIPELINES for p in (raw / c).iterdir())
                self.tracer.count("cli.artefact_bytes_per_op", size)
            return super().check(raw)
        finally:
            shutil.rmtree(raw, ignore_errors=True)

    def share_base_ms(self, tracer, loop):
        """Library code runs only in the in-process replay, so a library layer's
        ``share`` is of the replay: the mean per op of all ``cli.*.inproc`` spans."""
        wanted = set(loop.op_ids)
        total = sum(s.end - s.start for s in tracer.spans if s.op in wanted and s.name.endswith(".inproc"))
        return 1000.0 * total / len(loop.op_ids)

    def layer_metrics(self, tracer, op_ids):
        """Per-subcommand wall and in-process times, and the process overhead per op."""
        wanted = set(op_ids)
        by_name: dict[str, list[float]] = {}
        per_op_overhead = {op: 0.0 for op in op_ids}
        for s in tracer.spans:
            if s.op not in wanted or not s.name.startswith("cli."):
                continue
            ms = 1000.0 * (s.end - s.start)
            by_name.setdefault(s.name, []).append(ms)
            per_op_overhead[s.op] += ms if s.name.endswith(".wall") else -ms
        metrics = {}
        for config, subs in PIPELINES:
            for sub in subs:
                for kind in ("wall", "inproc"):
                    metrics[f"cli.{config}.{sub}.{kind}_ms"] = statistics.median(
                        by_name[f"cli.{config}.{sub}.{kind}"]
                    )
        metrics["cli.process_overhead_ms_per_op"] = statistics.mean(per_op_overhead.values())
        total = sum(tracer.counts.get(("cli.artefact_bytes_per_op", op), 0) for op in op_ids)
        metrics["cli.artefact_bytes_per_op"] = total / len(op_ids)
        return metrics


#: Longest a child interpreter may run before it is killed.
CHILD_LIMIT_S = 120


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout


def run_child(cmd: list[str], src: Path, stderr_path: Path | None = None) -> int:
    """Run a child interpreter with ``src`` first on its path; return its exit code.

    The wait blocks in ``waitpid`` rather than polling (``subprocess.run``
    with a timeout polls in sleeps of up to 50 ms, which would quantise every
    timing by that much); an alarm kills a child that overruns the limit.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with contextlib.ExitStack() as stack:
        stderr = stack.enter_context(stderr_path.open("wb")) if stderr_path else subprocess.DEVNULL
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_LIMIT_S)
        try:
            return proc.wait()
        except _ChildTimeout:
            proc.kill()
            proc.wait()
            raise SubprocessFailed(f"{cmd[1:]} ran longer than {CHILD_LIMIT_S} s") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


CLASSES = {w.name: w for w in (CliFixtures, SegmentLong, ScanBacktest)}


def build(name: str, seed: int, work_dir: Path, reference: dict | None, src: Path) -> Workload:
    """The named workload with its inputs generated; ``work_dir`` and ``src``
    are used only by ``cli-fixtures``, which writes files and starts children."""
    if name == "cli-fixtures":
        return CliFixtures(seed, reference, work_dir, src)
    return CLASSES[name](seed, reference)
