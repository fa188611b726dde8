"""The command line as a user runs it, one process per command.

Each command runs the installed ``edgereuse`` console script when one is on
PATH, else ``python -m edgereuse`` on this checkout's ``src/``. CI installs
the package and runs this module from outside the checkout, so there the
installed script and package are what is tested. Every command runs in a
temporary directory, with paths relative to it, as a shell user would type
them.

The 40K-task checks take several seconds, so they are marked ``slow``: the
default selection leaves them out, and CI's console-script step runs them.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = shutil.which("edgereuse")
SRC = Path(__file__).resolve().parents[1] / "src"

# A 40K-task run peaked at 67 MB of RSS, against 116 MB when every input's
# query and truth was kept for the whole trace: replay memory follows the
# tasks in flight, not the trace's length.
PEAK_RSS_BOUND_MB = 90


def command(*args) -> list[str]:
    if SCRIPT is not None:
        return [SCRIPT, *args]
    return [sys.executable, "-m", "edgereuse", *args]


def environment() -> dict:
    if SCRIPT is not None:
        return dict(os.environ)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}")


def edgereuse(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(command(*args), cwd=cwd, env=environment(),
                          capture_output=True, text=True, timeout=600)


def one_error_line(proc, prefix: str) -> str:
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(prefix), proc.stderr
    return lines[0]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding a generated 200-task bundle and its results."""
    cwd = tmp_path_factory.mktemp("console")
    proc = edgereuse(cwd, "generate", "--profile", "mixed", "--tasks", "200", "--out", "bundle")
    assert proc.returncode == 0, proc.stderr
    proc = edgereuse(cwd, "run", "--config", "bundle/experiment.json", "--out", "results")
    assert proc.returncode == 0, proc.stderr
    return cwd


def test_generate_run_and_report(workdir):
    proc = edgereuse(workdir, "report", "--metrics", "results/metrics.json")
    assert proc.returncode == 0, proc.stderr
    assert (workdir / "results" / "per_task.csv").is_file()


def test_report_of_a_malformed_metrics_file_exits_2(workdir):
    metrics = json.loads((workdir / "results" / "metrics.json").read_text())
    metrics["per_layer"] = []
    (workdir / "bad.json").write_text(json.dumps(metrics))
    proc = edgereuse(workdir, "report", "--metrics", "bad.json")
    assert proc.returncode == 2, proc.stderr


def test_run_with_out_at_a_file_writes_nothing(workdir):
    # An --out of the wrong kind is one error line naming it, exit 2, before
    # the bundle is read.
    (workdir / "taken").write_text("keep\n")
    proc = edgereuse(workdir, "run", "--config", "bundle/experiment.json", "--out", "taken")
    assert proc.returncode == 2, proc.stderr
    one_error_line(proc, "error: --out: ")
    assert (workdir / "taken").read_text() == "keep\n"


def test_sweep_with_out_at_a_directory_is_one_error_line(workdir):
    proc = edgereuse(workdir, "sweep", "--config", "bundle/experiment.json",
                     "--thresholds", "0.8", "--out", "results")
    assert proc.returncode == 2, proc.stderr
    one_error_line(proc, "error: --out: ")


def test_generate_with_a_negative_seed_writes_nothing(tmp_path):
    proc = edgereuse(tmp_path, "generate", "--profile", "mixed", "--seed", "-1",
                     "--out", "bundle-bad-seed")
    assert proc.returncode == 2, proc.stderr
    assert not (tmp_path / "bundle-bad-seed").exists()


@pytest.fixture(scope="module")
def workdir_40k(tmp_path_factory):
    """A directory holding a generated 40K-task seed-42 mixed bundle."""
    cwd = tmp_path_factory.mktemp("console-40k")
    proc = edgereuse(cwd, "generate", "--profile", "mixed", "--seed", "42", "--tasks", "40000",
                     "--out", "bundle-40k")
    assert proc.returncode == 0, proc.stderr
    return cwd


@pytest.mark.slow
def test_40k_task_run_peaks_under_the_bound(workdir_40k):
    # The run is the only child of a fresh interpreter, so that
    # interpreter's RUSAGE_CHILDREN peak is the run's own.
    measure = ("import resource, subprocess, sys\n"
               "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)\n")
    proc = subprocess.run(
        [sys.executable, "-c", measure,
         *command("run", "--config", "bundle-40k/experiment.json", "--out", "results-40k")],
        cwd=workdir_40k, env=environment(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    peak_mb = float(proc.stdout)
    print(f"edgereuse run, 40K mixed tasks: peak RSS {peak_mb:.1f} MB")
    assert peak_mb < PEAK_RSS_BOUND_MB, f"peak RSS {peak_mb:.1f} MB is not under {PEAK_RSS_BOUND_MB} MB"


@pytest.mark.slow
def test_bad_trace_row_is_one_error_line(workdir_40k):
    # A bad trace row is one error line naming it, found in one read.
    shutil.copytree(workdir_40k / "bundle-40k", workdir_40k / "bundle-bad")
    with open(workdir_40k / "bundle-bad" / "trace.csv", "a") as trace:
        trace.write("x,dev0,cognitive-assist,0,0.8\n")
    proc = edgereuse(workdir_40k, "run", "--config", "bundle-bad/experiment.json",
                     "--out", "results-bad")
    assert proc.returncode == 1, proc.stderr
    line = one_error_line(proc, "error: ")
    assert "trace.csv: row 40002: invalid literal for int()" in line
