"""End-to-end acceptance checks, one test per criterion.

Each test carries an ``acceptance`` marker; after the run the terminal
summary prints one PASS/FAIL line per criterion. The heavyweight runs
(the 10K-task mixed workload and the four profile sweeps) are shared
through session-scoped fixtures.
"""

import dataclasses
import json
import shutil
import time

import numpy as np
import pytest

from edgereuse.cli import main, write_bundle
from edgereuse.config import load_experiment
from edgereuse.core import ReuseLayer, TaskEnvelope, similarity
from edgereuse.fabric import (LoadReport, ServerNode, partition_hash_space, rebalance,
                              server_handle)
from edgereuse.hashing import LshFamily
from edgereuse.services import ServiceSpec, StageSpec, execute_service, execute_stage
from edgereuse.simulator import run_experiment, sweep_thresholds
from edgereuse.store import ReuseEntry, ReuseStore
from edgereuse.workload import builtin_profiles

SWEPT = (0.6, 0.7, 0.8, 0.9)
PROFILE_NAMES = ("cctv-like", "pandaset-like", "mobile-ar-like", "mnist-like")


@pytest.fixture(scope="session")
def mixed_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("mixed")
    write_bundle(builtin_profiles()["mixed"], 42, out)
    return out


@pytest.fixture(scope="session")
def mixed_run(mixed_bundle):
    cfg = load_experiment(mixed_bundle / "experiment.json")
    start = time.perf_counter()
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="session")
def baseline_report(mixed_bundle, tmp_path_factory):
    # The same trace over the same topology with every store removed.
    out = tmp_path_factory.mktemp("baseline")
    for name in ("experiment.json", "services.json", "trace.csv", "vectors.csv"):
        shutil.copy(mixed_bundle / name, out / name)
    topo = json.loads((mixed_bundle / "topology.json").read_text())
    for group in ("devices", "routers", "servers"):
        for node in topo[group]:
            node["store"] = None
    (out / "topology.json").write_text(json.dumps(topo))
    return run_experiment(load_experiment(out / "experiment.json"))


@pytest.fixture(scope="session")
def profile_sweeps(tmp_path_factory):
    results = {}
    for name in PROFILE_NAMES:
        out = tmp_path_factory.mktemp(name.replace("-", "_"))
        write_bundle(builtin_profiles()[name], 42, out)
        cfg = load_experiment(out / "experiment.json")
        results[name] = sweep_thresholds(cfg, list(SWEPT))
    return results


@pytest.mark.acceptance(1, "per-layer completion brackets at default costs")
def test_layer_completion_brackets(mixed_run, baseline_report):
    report, elapsed = mixed_run
    per_layer = report.aggregates["per_layer"]
    assert 106.0 <= per_layer["none"]["mean_completion_ms"] <= 121.0
    assert 106.0 <= baseline_report.aggregates["mean_completion_ms"] <= 121.0
    assert 17.0 <= per_layer["server"]["mean_completion_ms"] <= 22.0
    near = [per_layer[layer] for layer in ("device", "network")]
    pooled_count = sum(row["count"] for row in near)
    assert pooled_count > 0
    pooled_ms = sum(row["count"] * row["mean_completion_ms"] for row in near) / pooled_count
    assert 6.0 <= pooled_ms <= 9.0
    assert report.aggregates["tasks"] == 10_000
    assert elapsed < 10.0


@pytest.mark.acceptance(2, "reuse speedup within the expected band")
def test_speedup_band(mixed_run, baseline_report):
    report, _ = mixed_run
    assert baseline_report.aggregates["reuse_pct"] == 0.0
    speedup = (baseline_report.aggregates["mean_completion_ms"]
               / report.aggregates["mean_completion_ms"])
    assert 5.0 <= speedup <= 17.0


@pytest.mark.acceptance(3, "reuse and accuracy trends across profiles")
def test_threshold_trends(profile_sweeps):
    for name in PROFILE_NAMES:
        rows = profile_sweeps[name]
        assert [r["threshold"] for r in rows] == list(SWEPT)
        reuse = [r["reuse_pct"] for r in rows]
        accuracy = [r["accuracy_pct"] for r in rows]
        assert all(a is not None for a in accuracy), name
        for earlier, later in zip(reuse, reuse[1:]):
            assert later <= earlier + 1e-9, (name, reuse)
        for earlier, later in zip(accuracy, accuracy[1:]):
            assert later >= earlier - 1e-9, (name, accuracy)
        assert accuracy[-1] >= 95.0, (name, accuracy)
    cctv = [r["reuse_pct"] for r in profile_sweeps["cctv-like"]]
    mnist = [r["reuse_pct"] for r in profile_sweeps["mnist-like"]]
    for c, m in zip(cctv, mnist):
        assert c > m


@pytest.mark.acceptance(4, "server busy fraction falls as reuse rises")
def test_busy_fraction_drops_with_reuse(profile_sweeps):
    rows = sorted(profile_sweeps["mnist-like"], key=lambda r: r["reuse_pct"])
    reuse = [r["reuse_pct"] for r in rows]
    busy = [r["report"].aggregates["busy_fraction"] for r in rows]
    assert len(set(reuse)) >= 3
    for (r_lo, b_lo), (r_hi, b_hi) in zip(zip(reuse, busy), zip(reuse[1:], busy[1:])):
        assert r_hi > r_lo
        assert b_hi < b_lo, (reuse, busy)


@pytest.mark.acceptance(5, "signature collisions follow the angle law")
def test_collision_law():
    dim, pairs = 24, 12_000
    family = LshFamily(dim, k=16, tables=1, seed=101)
    rng = np.random.default_rng(202)
    for theta in (np.pi / 8, np.pi / 4, np.pi / 2):
        u = rng.standard_normal((pairs, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        w = rng.standard_normal((pairs, dim))
        w -= np.sum(w * u, axis=1, keepdims=True) * u
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        v = np.cos(theta) * u + np.sin(theta) * w
        diff = family.batch_signature_bits(u) ^ family.batch_signature_bits(v)
        disagree = int(np.bitwise_count(diff).sum())
        agreement = 1.0 - disagree / (pairs * family.k)
        assert abs(agreement - (1.0 - theta / np.pi)) < 0.02


@pytest.mark.acceptance(6, "exhaustive probing matches a linear scan")
def test_store_matches_linear_scan():
    family = LshFamily(16, k=8, tables=2, seed=77)
    store = ReuseStore(family, capacity_entries=256, capacity_bytes=10 ** 9,
                       probe_radius=family.k)
    rng = np.random.default_rng(88)
    keys = rng.standard_normal((256, 16))
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    for i, key in enumerate(keys):
        assert store.insert(ReuseEntry(key, "svc", {}, key[:4], 0)) == i
    queries = rng.standard_normal((1000, 16))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    for q in queries:
        outcome = store.lookup(q, 0.0)
        sims = np.array([similarity(q, key) for key in keys])
        assert outcome.hit
        assert outcome.entry_id == int(np.argmax(sims))


def assert_table_invariants(table, server_ids):
    ranges = table.ranges
    assert ranges[0].lo == 0
    assert ranges[-1].hi == 65535
    for left, right in zip(ranges, ranges[1:]):
        assert right.lo == left.hi + 1
    assert all(r.hi >= r.lo for r in ranges)
    assert set(r.server_id for r in ranges) == server_ids


@pytest.mark.acceptance(7, "hash-space partition and rebalance invariants")
def test_forwarding_invariants():
    rng = np.random.default_rng(303)
    for n in (1, 2, 3, 5):
        ids = [f"s{i}" for i in range(n)]
        table = partition_hash_space(ids)
        assert_table_invariants(table, set(ids))
        hashes = rng.integers(0, 65536, size=100_000)
        covering = np.zeros(hashes.shape, dtype=np.int64)
        for r in table.ranges:
            covering += (hashes >= r.lo) & (hashes <= r.hi)
        assert covering.min() == 1 and covering.max() == 1
        owner = {}
        for r in table.ranges:
            for h in (r.lo, (r.lo + r.hi) // 2, r.hi):
                owner[h] = r.server_id
        for h, sid in owner.items():
            assert table.server_for(h) == sid
        sample = [int(h) for h in hashes[:2000]]
        first = [table.server_for(h) for h in sample]
        assert first == [table.server_for(h) for h in sample]
    ids = {f"s{i}" for i in range(5)}
    table = partition_hash_space(sorted(ids))
    versions = [table.version]
    for _ in range(60):
        loads = {sid: int(rng.integers(0, 1000)) for sid in sorted(ids)}
        table = rebalance(table, LoadReport(loads), 0.3)
        assert_table_invariants(table, ids)
        versions.append(table.version)
    assert versions == sorted(versions)
    assert versions[-1] > 1


@pytest.mark.acceptance(8, "partial reuse is exact and saves the shared stage")
def test_partial_reuse_exactness(tmp_path):
    dim = 64
    shared = StageSpec("stage-shared", 9001, dim, 60_000)
    svc_a = ServiceSpec("svc-a", dim, (shared, StageSpec("a-tail", 9002, dim, 40_000)))
    svc_b = ServiceSpec("svc-b", dim, (shared, StageSpec("b-tail", 9003, dim, 40_000)))
    x = np.random.default_rng(5).standard_normal(dim)
    x /= np.linalg.norm(x)
    family = LshFamily(dim, k=16, tables=4, seed=9)
    store = ReuseStore(family, capacity_entries=64, capacity_bytes=10 ** 8)
    result_a = execute_service(svc_a, x)
    shared_out = execute_stage(shared, x)
    store.insert(ReuseEntry(x, "svc-a",
                            {"stage-shared": shared_out,
                             "a-tail": result_a.output},
                            result_a.output, result_a.label))
    server = ServerNode("s0", {"svc-a": svc_a, "svc-b": svc_b}, store=store)
    task = TaskEnvelope(1, "dev0", "svc-b", x, 0.9)
    outcome = server_handle(server, task, 1000)
    oracle_b = execute_service(svc_b, x)
    assert outcome.payload.reuse_layer is ReuseLayer.PARTIAL_SERVER
    assert np.array_equal(outcome.payload.output, oracle_b.output)
    assert outcome.payload.label == oracle_b.label
    with_reuse = sum(cost for *_, cost in outcome.steps)
    no_reuse = 1000 + shared.exec_time_us + svc_b.stages[1].exec_time_us
    saved = shared.exec_time_us - 1000
    assert abs((no_reuse - with_reuse) - saved) <= 1

    # The same saving, observed end to end through the replay engine.
    from edgereuse.config import default_experiment_data, default_services_data, write_json
    from edgereuse.workload import TraceRow, write_trace_csv, write_vectors_csv
    topo = {
        "devices": [{"id": "dev0", "router": "r0", "delay_us": 3500,
                     "can_hash": True, "store": None}],
        "routers": [{"id": "r0", "servers": {"s0": 3500}, "store": None}],
        "servers": [{"id": "s0", "store": {"capacity_entries": 1024,
                                           "capacity_bytes": 10 ** 8,
                                           "policy": "lru"}}],
    }
    write_json(tmp_path / "topology.json", topo)
    write_json(tmp_path / "services.json", default_services_data(dim))
    write_json(tmp_path / "experiment.json", default_experiment_data(9, dim=dim))
    write_vectors_csv(tmp_path / "vectors.csv", x.reshape(1, -1))
    write_trace_csv(tmp_path / "trace.csv",
                    [TraceRow(0, "dev0", "cognitive-assist", 0, 0.9),
                     TraceRow(400_000, "dev0", "traffic-count", 0, 0.9)])
    report = run_experiment(load_experiment(tmp_path / "experiment.json"))
    cold, partial = report.records
    assert partial.reuse_layer is ReuseLayer.PARTIAL_SERVER
    assert partial.accurate is True
    assert abs((cold.completion_us - partial.completion_us) - saved) <= 1


@pytest.mark.acceptance(9, "byte-identical outputs for identical seeds")
def test_replay_determinism(tmp_path):
    def cycle(tag):
        bundle = tmp_path / tag / "bundle"
        results = tmp_path / tag / "results"
        assert main(["generate", "--profile", "cctv-like", "--seed", "7",
                     "--tasks", "500", "--out", str(bundle)]) == 0
        assert main(["run", "--config", str(bundle / "experiment.json"),
                     "--out", str(results)]) == 0
        return results

    a = cycle("a")
    b = cycle("b")
    per_task_a = (a / "per_task.csv").read_bytes()
    assert per_task_a == (b / "per_task.csv").read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
    assert per_task_a.count(b"\n") == 501


@pytest.mark.acceptance(10, "per-entry storage footprint in band")
def test_storage_footprint():
    dim = 64
    front = StageSpec("front", 11, dim, 1000)
    back = StageSpec("back", 12, dim, 1000)
    x = np.random.default_rng(6).standard_normal(dim)
    mid = execute_stage(front, x)
    out = execute_stage(back, mid)
    entry = ReuseEntry(x, "svc", {"front": mid, "back": out}, out, 0)
    assert entry.size_bytes == 2304
    kb = entry.size_bytes / 1024
    mb = entry.size_bytes / 1e6
    assert 2.0 <= kb <= 2.3
    assert 0.0023 <= mb <= 0.06
