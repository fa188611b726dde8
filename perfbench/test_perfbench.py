"""Self-test of the benchmark: tiny workloads, failure accounting, contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from edgereuse import cli, simulator  # noqa: E402
from edgereuse.store import ReuseStore  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = 300


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [
        w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "7", "--seconds", "0",
                             "--size", str(TINY), "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    result = result_of(bench("--workload", workload, "--seconds", "0",
                             "--size", str(TINY), "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.hooks_absent"]["value"] == 0
    assert (ROOT / ".perfbench_work" / f"spans-{workload}.csv").is_file()


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "mixed", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def tiny_mixed(tmp_path):
    return workloads.make("mixed", 3, TINY, tmp_path)


def test_dropped_task_record_is_a_failed_op(tiny_mixed, monkeypatch):
    original = simulator.Simulation.run

    def drop_one(self, **kwargs):
        report = original(self, **kwargs)
        del report.records[5]
        return report

    monkeypatch.setattr(simulator.Simulation, "run", drop_one)
    rep = tiny_mixed.rep()
    assert rep.failed == 1 and rep.problems


def test_failed_audit_fails_every_op(tiny_mixed, tmp_path, monkeypatch):
    def broken(self):
        raise AssertionError("injected")

    monkeypatch.setattr(ReuseStore, "audit", broken)
    rep = tiny_mixed.rep()
    assert rep.failed == rep.ops == TINY
    store_rep = workloads.make("store-20k", 3, TINY, tmp_path).rep()
    assert store_rep.failed == store_rep.ops


def test_exception_fails_every_op_of_the_repetition(tiny_mixed, monkeypatch):
    def boom(self, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(simulator.Simulation, "run", boom)
    reps, _ = run.measure(tiny_mixed, 0, trace=False)
    assert all(r.failed == r.ops == TINY and r.replay_s is None for _, r, _ in reps)


def test_differing_digest_fails_the_repetition():
    reps = [(False, workloads.Rep(1.0, 1.0, 10, digest=d), None) for d in ("a", "a", "b")]
    run.check_digests(reps)
    assert [r.failed for _, r, _ in reps] == [0, 0, 10]


def test_wrong_similarity_is_a_failed_op(tmp_path, monkeypatch):
    original = ReuseStore.lookup

    def skewed(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        return out if not out.hit else type(out)(True, out.entry_id, out.similarity - 1e-6,
                                                 out.probes_used)

    monkeypatch.setattr(ReuseStore, "lookup", skewed)
    rep = workloads.make("store-20k", 3, TINY, tmp_path).rep()
    assert 0 < rep.failed < rep.ops


def test_replay_matches_the_command_line(tmp_path, tiny_mixed):
    bundle = tmp_path / "cli"
    assert cli.main(["generate", "--profile", "mixed", "--seed", "3", "--tasks", str(TINY),
                     "--out", str(bundle)]) == 0
    assert cli.main(["run", "--config", str(bundle / "experiment.json"),
                     "--out", str(bundle / "out")]) == 0
    expected = b"".join((bundle / "out" / n).read_bytes() for n in ("per_task.csv", "metrics.json"))
    assert tiny_mixed.rep().digest == hashlib.sha256(expected).hexdigest()


def test_mixed_seed_42_reproduces_the_published_run(tmp_path):
    rep = workloads.make("mixed", 42, None, tmp_path).rep()
    sim = rep.sim
    assert rep.failed == 0
    assert round(sim["sim.reuse_pct"], 2) == 96.21
    assert round(sim["sim.accuracy_pct"], 2) == 4.75
    assert sim["sim.mean_completion_ms"] == pytest.approx(11.696193, abs=1e-9)
    assert [sim[f"sim.layer.{k}"] for k in workloads.LAYERS] == [379, 2833, 6546, 242, 0]


def test_span_recorder_self_time_and_absent_hooks():
    def leaf(x):
        return x

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    mod = type(sys)("fake_layer")
    mod.leaf, mod.outer = leaf, outer
    sys.modules["fake_layer"] = mod
    try:
        rec = spans.SpanRecorder([
            ("leaf", [("fake_layer", "leaf")], None, True, None),
            ("outer", [("fake_layer", "outer")], None, False, None),
            ("gone", [("fake_layer", "removed"), ("no_such_module", "f")], None, False, None),
        ])
        rec.install()
        assert mod.outer(2) == 4
        rec.uninstall()
    finally:
        del sys.modules["fake_layer"]
    assert mod.leaf is leaf and rec.absent == ["gone"]
    m = rec.layer_metrics()
    assert m["leaf.calls"] == 2 and m["outer.calls"] == 1 and m["gone.calls"] == 0
    assert m["outer.self_s"] == pytest.approx(m["outer.busy_s"] - m["leaf.busy_s"])
    by_name = {s[1]: s for s in rec.spans}
    assert by_name["leaf"][4] == by_name["outer"][0]


def test_speed_clock_scales_wall_time_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock() as clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        corrected, wall = clock.now(), clock.wall()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) > 5
    assert 0 < wall < 0.3  # the kernel's own time is left out
    scales = [speed.NOMINAL_REF_S / ref for ref in clock.samples]
    assert min(scales) * 0.999 <= corrected / wall <= max(scales) * 1.001
