"""Shared fixtures, series builders and the fixture-pipeline harness for the test suite."""

import contextlib
import hashlib
import io
import subprocess
from pathlib import Path

import pytest

from trendgap import (
    DifferenceSeries,
    Forecast,
    MonthlySeries,
    MonthStamp,
    difference,
    parse_series_csv,
)
from trendgap.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: The documented fixture pipelines: each config's subcommands, in order.
PIPELINES = {
    "motor": ("diff", "fit", "forecast", "backtest"),
    "crude": ("diff", "fit", "forecast", "translate", "backtest"),
}
CONFIGS = {name: FIXTURES / f"{name}_config.json" for name in PIPELINES}


def load_series(name: str, series_id: str):
    return parse_series_csv((FIXTURES / name).read_text(encoding="utf-8"), series_id)


@pytest.fixture(scope="session")
def motor_diff() -> DifferenceSeries:
    headline = load_series("cpi_all_items_sa.csv", "CUSR0000SA0")
    component = load_series("cpi_motor_fuel_sa.csv", "CUSR0000SETB")
    return difference(headline, component)


@pytest.fixture(scope="session")
def crude_diff() -> DifferenceSeries:
    headline = load_series("ppi_all_commodities.csv", "WPU00000000")
    component = load_series("ppi_crude_petroleum.csv", "WPU0561")
    return difference(headline, component)


@pytest.fixture(scope="session")
def motor_headline():
    return load_series("cpi_all_items_sa.csv", "CUSR0000SA0")


@pytest.fixture(scope="session")
def motor_component():
    return load_series("cpi_motor_fuel_sa.csv", "CUSR0000SETB")


def stamp(token: str) -> MonthStamp:
    return MonthStamp.parse(token)


def make_series(series_id, start, values):
    """``values`` one a month from ``start``, as a series ``series_id`` with no base note."""
    origin = MonthStamp.parse(start)
    obs = tuple((origin.add_months(i), float(v)) for i, v in enumerate(values))
    return MonthlySeries(series_id, "", obs)


def make_diff(start, values, name="d"):
    """``values`` one a month from ``start``, as a difference of ``<name>-m`` minus ``<name>-s``."""
    origin = MonthStamp.parse(start)
    obs = tuple((origin.add_months(i), float(v)) for i, v in enumerate(values))
    return DifferenceSeries(name + "-m", name + "-s", obs)


def make_forecast(first_month, values):
    """An along-trend forecast whose path is ``values`` from ``first_month``, with no band."""
    origin = MonthStamp.parse(first_month).add_months(-1)
    path = tuple(
        (MonthStamp.parse(first_month).add_months(i), float(v))
        for i, v in enumerate(values)
    )
    return Forecast(mode="along-trend", origin=origin, path=path, band_sigma=0.0)


def in_process(*args: str) -> subprocess.CompletedProcess:
    """``main`` on ``args`` in this process, with what it prints captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(args))
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


def run_stages(config, out, stages) -> Path:
    """Run each subcommand of ``stages`` on the ``config`` file in this process, writing
    into ``out``; each must exit 0. Returns ``out``."""
    for stage in stages:
        code = main([stage, "--config", str(config), "--out", str(out)])
        assert code == 0, f"{stage} failed"
    return out


def run_fixture_pipelines(root: Path, launch) -> tuple[dict[str, str], dict[str, str]]:
    """Both fixture pipelines into ``root/<pipeline>``, each command run by ``launch(*args)``,
    which returns a ``subprocess.CompletedProcess``; each must exit 0 with empty stderr.

    Returns each command's stdout, keyed ``"<pipeline> <command>"``, and the SHA-256 of
    every file under ``root``, keyed by its path relative to ``root``.
    """
    reports = {}
    for name, commands in PIPELINES.items():
        for command in commands:
            done = launch(command, "--config", str(CONFIGS[name]), "--out", str(root / name))
            assert done.returncode == 0, f"{name} {command} exited {done.returncode}: {done.stderr}"
            assert done.stderr == "", f"{name} {command} wrote to stderr"
            reports[f"{name} {command}"] = done.stdout
    produced = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
    return reports, produced
