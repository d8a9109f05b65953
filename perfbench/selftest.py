#!/usr/bin/env python3
"""Self-tests of the benchmark: deterministic inputs and an output check that bites.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Run from the repository root; takes about ten seconds.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
for p in (str(SRC), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from trendgap import fitting  # noqa: E402

WORK = run.RUNS / "selftest"
REFERENCES = json.loads(run.REFERENCES.read_text(encoding="utf-8"))["workloads"]


def _workload(name: str, seed: int) -> workloads.Workload:
    reference = REFERENCES[name][str(generate.variant(seed))]
    return workloads.build(name, seed, WORK / name, reference, SRC)


@contextlib.contextmanager
def _patched(module, attr: str, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


def test_generator_is_deterministic_per_seed():
    for name, make in generate.GENERATORS.items():
        assert make(11) == make(11), name
        assert make(11) == make(11 + generate.POOL), name
        assert make(11) != make(12), name


def test_every_variant_has_a_reference():
    for name in workloads.CLASSES:
        assert sorted(REFERENCES[name], key=int) == [str(v) for v in range(generate.POOL)], name


def test_shifted_breakpoint_is_a_failed_op():
    workload = _workload("segment-long", 3)
    detect = fitting.detect_breakpoints

    def shifted(diff, k, min_len):
        return [p.add_months(1) for p in detect(diff, k, min_len)]

    assert run.closed_loop(workload, 0.0, itertools.count()).failed == 0
    with _patched(fitting, "detect_breakpoints", shifted):
        loop = run.closed_loop(workload, 0.0, itertools.count())
    assert (loop.attempted, loop.failed) == (1, 1)


def test_scan_backtest_checks_floats_within_tolerance():
    workload = _workload("scan-backtest", 4)
    raw = workload.op(0)
    assert workload.check(raw) == []
    lag, corr, *rest = raw
    assert workload.check((lag, corr * (1 + 1e-12), *rest)) == []
    assert workload.check((lag, corr * (1 + 1e-7), *rest)) != []
    assert workload.check((lag + 1, corr, *rest)) != []


def test_op_time_is_divided_by_the_probes_around_it():
    workload = _workload("segment-long", 3)
    probes = iter([workload.probe_ref_ms, 3 * workload.probe_ref_ms])
    with _patched(workload, "probe_ms", lambda: next(probes)):
        loop = run.closed_loop(workload, 0.0, itertools.count())
    assert loop.probe_ms == [workload.probe_ref_ms, 3 * workload.probe_ref_ms]
    assert abs(loop.norm_ms[0] - 1000.0 * loop.seconds[0] / 2) < 1e-9


def test_edited_artefact_byte_is_caught():
    workload = _workload("cli-fixtures", 5)
    assert workload.replay(1) == []  # in-process pipelines match the references
    out = workload.ops_dir / "1" / "inproc"
    target = out / "motor" / "residuals.csv"
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    problems = workload.check(out)
    assert problems and problems[0].startswith("motor/residuals.csv")


def test_traced_run_nests_library_calls():
    workload = _workload("scan-backtest", 6)
    tracer = tracing.Tracer()
    workload.tracer = tracer
    with tracer.installed():
        loop = run.closed_loop(workload, 0.0, itertools.count(1), tracer)
    assert not hasattr(fitting.fit_ols, "__wrapped__")  # wrappers removed again
    metrics = tracer.layer_metrics(loop.op_ids, workload.share_base_ms(tracer, loop))
    assert metrics["fitting.fit_ols.calls_per_op"] == workload.ORIGINS
    assert metrics["backtest.origins_per_op"] == workload.ORIGINS
    rolling = {s.id for s in tracer.spans if s.name == "backtest.rolling_backtest"}
    assert all(s.parent in rolling for s in tracer.spans if s.name == "fitting.fit_ols")
    shares = [v for k, v in metrics.items() if k.endswith(".share")]
    assert 0.9 < sum(shares) <= 1.0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.CLASSES)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def test_short_run_is_correct_and_prints_one_result_line():
    done = _bench(ROOT, "--workload", "scan-backtest", "--seed", "9", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_bare_benchmark_directory_fails_without_a_result():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    done = _bench(bare, "--workload", "segment-long", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert "correct" not in done.stdout


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then exit non-zero
                failures += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    shutil.rmtree(WORK, ignore_errors=True)
    sys.exit(1 if failures else 0)
