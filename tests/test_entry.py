"""The ``trendgap`` process entry, started as a real child interpreter.

``python -m trendgap.cli`` runs ``entry``, the function the console script
calls too: ``main`` on ``sys.argv``, then a heap freeze before the exit. Each
child runs with ``PYTHONUNBUFFERED`` removed, so its stdout is block-buffered
into the pipe and reaches it only through the exit's flush. The fixture
pipelines also run through an installed ``trendgap`` console script, when one
is on ``PATH`` (``pip install .`` puts it there). That script runs without
this checkout on its path, so it runs the installed package's own modules.
"""

import functools
import gc
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import trendgap
from trendgap.cli import main

from conftest import FIXTURES, run_fixture_pipelines
from test_golden import GOLDEN_SHA256, GOLDEN_STDOUT


def child(
    *args: str, script: str | None = None, **env_vars: str | None
) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` with this checkout's ``src`` first on its path,
    and ``env_vars`` added to its environment (a None value removes that variable).

    With ``script``, run that console script on ``args`` instead, with no
    ``PYTHONPATH``, so that it imports the package it was installed with.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(env_vars)
    env = {key: value for key, value in env.items() if value is not None}
    if script is None:
        src = str(Path(trendgap.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        command = [sys.executable, *args]
    else:
        env.pop("PYTHONPATH", None)
        command = [script, *args]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


def test_fixture_pipelines_match_golden_in_child_processes(tmp_path):
    launch = functools.partial(child, "-m", "trendgap.cli")
    reports, produced = run_fixture_pipelines(tmp_path, launch)
    assert reports == GOLDEN_STDOUT
    assert produced == GOLDEN_SHA256


def test_fixture_pipelines_match_golden_through_the_console_script(tmp_path):
    script = shutil.which("trendgap")
    if script is None:
        pytest.skip("no trendgap console script on PATH; 'pip install .' installs one")
    launch = functools.partial(child, script=script)
    reports, produced = run_fixture_pipelines(tmp_path, launch)
    assert reports == GOLDEN_STDOUT
    assert produced == GOLDEN_SHA256


def test_fixture_pipelines_match_golden_with_blas_threads_preset(tmp_path):
    """A thread count the caller sets reaches numpy and moves no byte."""
    launch = functools.partial(child, "-m", "trendgap.cli", OPENBLAS_NUM_THREADS="2")
    reports, produced = run_fixture_pipelines(tmp_path, launch)
    assert reports == GOLDEN_STDOUT
    assert produced == GOLDEN_SHA256


@pytest.mark.parametrize("via", ["module", "console script"])
def test_fixture_diff_imports_no_numpy(tmp_path, via):
    """``diff`` parses and differences on the standard library's arrays alone, and its
    records are plain classes: neither ``dataclasses`` nor the ``inspect`` it imports
    is loaded."""
    launch = functools.partial(child, "-m", "trendgap.cli")
    if via == "console script":
        script = shutil.which("trendgap")
        if script is None:
            pytest.skip("no trendgap console script on PATH; 'pip install .' installs one")
        launch = functools.partial(child, script=script)
    config = str(FIXTURES / "motor_config.json")
    done = launch("diff", "--config", config, "--out", str(tmp_path), PYTHONPROFILEIMPORTTIME="1")
    assert done.returncode == 0, done.stderr
    # one "import time: <self> | <cumulative> | <module>" line per import, nested ones indented
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    assert "trendgap.series" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []
    assert [name for name in imported if name in ("dataclasses", "inspect")] == []


def test_missing_config_exits_two_and_writes_nothing(tmp_path):
    missing = tmp_path / "missing.json"
    done = child("-m", "trendgap.cli", "fit", "--config", str(missing), "--out", str(tmp_path / "out"))
    assert done.returncode == 2
    assert done.stderr == f"error: file not found: {missing}\n"
    assert done.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero():
    done = child("-m", "trendgap.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: trendgap")
    assert done.stderr == ""


def test_entry_freezes_the_heap_on_return_and_on_system_exit(tmp_path):
    probe = (
        "import gc, sys\n"
        "from trendgap.cli import entry\n"
        f"sys.argv = ['trendgap', 'fit', '--config', {str(tmp_path / 'missing.json')!r}]\n"
        "code = entry()\n"
        "frozen = gc.get_freeze_count()\n"
        "gc.unfreeze()\n"
        "sys.argv = ['trendgap', '--help']\n"
        "try:\n"
        "    entry()\n"
        "except SystemExit as exit:\n"
        "    print(code, frozen > 0, exit.code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    done = child("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "2 True 0 True"


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_entry_runs_blas_on_one_thread_unless_told_otherwise(preset, seen):
    """``entry`` sets ``OPENBLAS_NUM_THREADS`` to 1 before ``main`` when it is unset,
    and keeps a value the caller set."""
    probe = (
        "import os, sys\n"
        "import trendgap.cli\n"
        "def main():\n"
        "    print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "    return 0\n"
        "trendgap.cli.main = main\n"
        "sys.exit(trendgap.cli.entry())\n"
    )
    done = child("-c", probe, OPENBLAS_NUM_THREADS=preset)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{seen}\n"


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path):
    """``main`` freezes no object and sets no environment variable."""
    assert gc.get_freeze_count() == 0
    environment = dict(os.environ)
    config = str(FIXTURES / "motor_config.json")
    assert main(["diff", "--config", config, "--out", str(tmp_path)]) == 0
    assert main(["fit", "--config", str(tmp_path / "missing.json")]) == 2
    assert gc.get_freeze_count() == 0
    assert dict(os.environ) == environment
