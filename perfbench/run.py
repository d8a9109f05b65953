#!/usr/bin/env python3
"""Run one workload of the trendgap benchmark and print its metrics.

    python3 perfbench/run.py --workload scan-backtest --seed 1 --seconds 20 --trace 0

Run from the repository root. One client drives the workload in a closed
loop (the next op starts when the previous one has finished and been
checked) for ``--seconds`` seconds. Every op's output is checked against the
reference recorded for its input variant; a wrong output counts as failed.
A host-speed probe (``hostspeed.py``) runs between ops, and timings on the
metric line are host-normalised: divided by the probe times around them and
scaled to the probe's time on a reference host.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with spans around every call into trendgap's public
functions, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans and a fuller result record
(sample counts, tail percentile, environment) go to ``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
REFERENCES = HERE / "references.json"

#: Fresh importing interpreters started to measure ``setup_s`` (median reported).
SETUP_REPEATS = 11
#: Fresh interpreters started for ``cli.import_ms`` and ``cli.interpreter_ms``.
PROCESS_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "op_p50_norm_ms": "ms", "peak_rss_mb": "MB"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    import tracing
    from workloads import PIPELINES

    units = {}
    for module_name, functions in tracing.TRACED.items():
        for fname in functions:
            name = f"{module_name}.{fname}"
            units[f"{name}.calls_per_op"] = "count"
            units[f"{name}.self_ms_per_op"] = "ms"
            units[f"{name}.share"] = "fraction"
            if name in tracing.PER_CALL_P50:
                units[f"{name}.p50_ms"] = "ms"
    for counter, _ in tracing.COUNTERS.values():
        units[counter] = "count"
    for config, subs in PIPELINES:
        for sub in subs:
            units[f"cli.{config}.{sub}.wall_ms"] = "ms"
            units[f"cli.{config}.{sub}.inproc_ms"] = "ms"
    units["cli.process_overhead_ms_per_op"] = "ms"
    units["cli.import_ms"] = "ms"
    units["cli.interpreter_ms"] = "ms"
    units["cli.artefact_bytes_per_op"] = "bytes"
    units["host.probe_ms"] = "ms"
    units["trace.overhead"] = "ratio"
    return units


@dataclass
class Loop:
    """Outcome of one closed loop: latencies of the ops that passed their check,
    raw and host-normalised, and the host-speed probe times."""

    seconds: list[float] = field(default_factory=list)
    norm_ms: list[float] = field(default_factory=list)
    op_ids: list[int] = field(default_factory=list)
    probe_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.seconds) / sum(self.seconds) if self.seconds else 0.0

    @property
    def norm_mean_ms(self) -> float:
        return statistics.mean(self.norm_ms) if self.norm_ms else 0.0


def run_op(workload, op_id: int, loop: Loop, replay: bool) -> float | None:
    """One checked op: its wall time in seconds, or None if it failed (raised,
    a child exited non-zero, or the output was wrong)."""
    loop.attempted += 1
    t0 = perf_counter()
    try:
        raw = workload.op(op_id)
        elapsed = perf_counter() - t0
        problems = (workload.replay(op_id) if replay else []) + workload.check(raw)
    except Exception as exc:  # every failure mode of an op is counted, not fatal
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        loop.failed += 1
        if loop.failed <= 3:
            print(f"op {op_id} failed: {'; '.join(p[:200] for p in problems[:3])}", file=sys.stderr)
        return None
    return elapsed


def closed_loop(workload, seconds: float, op_ids, tracer=None) -> Loop:
    """Ops back to back for ``seconds`` (at least one), with a host-speed probe
    before the first op and after every op. An op's normalised time is its
    wall time divided by the mean of the probes on either side of it."""
    loop = Loop()
    before = workload.probe_ms()
    loop.probe_ms.append(before)
    deadline = perf_counter() + seconds
    while loop.attempted == 0 or perf_counter() < deadline:
        op_id = next(op_ids)
        if tracer is not None:
            tracer.op = op_id
        elapsed = run_op(workload, op_id, loop, replay=tracer is not None)
        after = workload.probe_ms()
        loop.probe_ms.append(after)
        if elapsed is not None:
            loop.seconds.append(elapsed)
            loop.op_ids.append(op_id)
            loop.norm_ms.append(1000.0 * elapsed * workload.probe_ref_ms / ((before + after) / 2))
        before = after
    return loop


def process_ms(code: str) -> float:
    """Wall time of one fresh ``python -c code`` interpreter, in ms."""
    from workloads import SubprocessFailed, run_child

    t0 = perf_counter()
    if run_child([sys.executable, "-c", code], SRC) != 0:
        raise SubprocessFailed(f"python -c {code!r} failed")
    return 1000.0 * (perf_counter() - t0)


def fresh_process_ms(code: str, repeats: int) -> list[float]:
    """Wall time of ``python -c code`` in fresh interpreters, after one warm-up."""
    process_ms(code)
    return [process_ms(code) for _ in range(repeats)]


def setup_samples(module: str, repeats: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters that ``import module``, each between two bare ones
    (the interpreter probe), after one warm-up of each. Returns the raw import
    times and the host-normalised ones, both in ms."""
    import hostspeed

    code = f"import {module}"
    process_ms(code)
    before = hostspeed.interpreter_ms(SRC)
    raw, norm = [], []
    for _ in range(repeats):
        ms = process_ms(code)
        after = hostspeed.interpreter_ms(SRC)
        raw.append(ms)
        norm.append(ms * hostspeed.INTERPRETER_REF_MS / ((before + after) / 2))
        before = after
    return raw, norm


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest of p50..p99.9 with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            rank = min(n - 1, max(0, int(-(-p * n // 100)) - 1))
            return {"percentile": p, "value_ms": 1000.0 * ordered[rank], "samples": n}
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown (git not available)"
    return done.stdout.strip() or "unknown"


def source_digest() -> str:
    """SHA-256 over ``src/trendgap/*.py``: identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "trendgap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-fixtures", "segment-long", "scan-backtest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "trendgap" / "__init__.py").is_file():
        print(f"error: no trendgap sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"error: {REFERENCES} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import generate
    import tracing
    import workloads

    setup_module = workloads.CLASSES[args.workload].setup_module
    setup_ms, setup_norm_ms = setup_samples(setup_module, SETUP_REPEATS)

    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    variant = generate.variant(args.seed)
    reference = references["workloads"][args.workload].get(str(variant))
    work_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, work_dir, reference, SRC)

    op_ids = itertools.count(1)
    warm = closed_loop(workload, 0.0, op_ids)  # one untimed op: lazy set-up, caches
    record = {"workload": args.workload, "seed": args.seed, "variant": variant,
              "seconds": args.seconds, "trace": args.trace, "environment": environment(),
              "setup_ms": setup_ms, "setup_norm_ms": setup_norm_ms}

    if args.trace == 0:
        main_loop = closed_loop(workload, args.seconds, op_ids)
        loops = [warm, main_loop]
        if args.workload == "cli-fixtures":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        s = main_loop.seconds
        values = {
            "setup_s": statistics.median(setup_norm_ms) / 1000.0,
            "op_p50_norm_ms": statistics.median(main_loop.norm_ms) if s else 0.0,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = END_TO_END_UNITS
        record["op_samples"] = len(s)
        record["op_ms"] = [1000.0 * x for x in s]
        record["op_norm_ms"] = main_loop.norm_ms
        record["probe_ms"] = main_loop.probe_ms
        record["raw"] = {
            "setup_s": statistics.median(setup_ms) / 1000.0,
            "ops_per_s": main_loop.ops_per_s,
            "op_p50_ms": 1000.0 * statistics.median(s) if s else 0.0,
            "op_tail": tail_percentile(s),
        }
    else:
        untraced = closed_loop(workload, args.seconds / 2, op_ids)
        tracer = tracing.Tracer()
        workload.tracer = tracer
        with tracer.installed():
            traced = closed_loop(workload, args.seconds / 2, op_ids, tracer)
        workload.tracer = None
        loops = [warm, untraced, traced]
        units = layer_metric_units()
        values = dict.fromkeys(units, 0.0)
        if traced.op_ids:
            values.update(tracer.layer_metrics(traced.op_ids, workload.share_base_ms(tracer, traced)))
            values.update(workload.layer_metrics(tracer, traced.op_ids))
            values["trace.overhead"] = traced.norm_mean_ms / untraced.norm_mean_ms
        values["cli.import_ms"] = statistics.median(fresh_process_ms("import trendgap.cli", PROCESS_REPEATS))
        values["cli.interpreter_ms"] = statistics.median(fresh_process_ms("pass", PROCESS_REPEATS))
        values["host.probe_ms"] = statistics.median(traced.probe_ms)
        record["op_samples"] = {"untraced": len(untraced.seconds), "traced": len(traced.seconds)}
        tracer.write(RUNS / f"spans-{args.workload}-seed{args.seed}.jsonl")
    shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record.update(attempted=attempted, failed=failed, error_rate=failed / attempted, metrics=metrics)
    RUNS.mkdir(parents=True, exist_ok=True)
    result_path = RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"environment: {json.dumps(record['environment'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
