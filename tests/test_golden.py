"""Golden outputs: replays whose outputs are pinned by digest.

Each replay pins ``per_task.csv``, ``events.csv`` and ``metrics.json``.
``per_task.csv`` and ``events.csv`` hold integers and strings only (ids,
simulated microseconds, node ids, step details, reuse layer, accuracy
verdict), so they do not move with last-bit float changes in arithmetic
order. They do move with any change of which cache serves a task, when a
task or one of its steps completes, in which order events are processed,
or whether a reused result is accurate. ``metrics.json`` adds the
aggregates and the control-window samples; its floats are ratios of those
integers.

Only a deliberate behaviour change may re-pin a digest here, and such a
change is listed in CHANGES.md with its reason. A refactor or a speed-up
that changes a digest is a bug in that change.
"""

import dataclasses
import hashlib

import numpy as np

from edgereuse.config import (default_experiment_data, default_services_data,
                              default_topology_data, load_experiment, write_json)
from edgereuse.simulator import run_experiment
from edgereuse.workload import builtin_profiles, generate_trace, write_trace_csv, write_vectors_csv

SEED = 42

MIXED_2K_SHA256 = "dde06e1b4c22354b0e0411aa8cfb8c187a7b1d22ba3d9ace1f2741eb006b8fe2"
REDRAWN_SHA256 = "76604e1a0002c74b6bf7ce6b9c6b667c8304e52abc8dae634e1715f50ff4eaa6"
MIXED_2K_EVENTS_SHA256 = "5739111caaa51b30e43e89a0bdc112ef6f04f326fb3ddb6f4ed323d75a8d7881"
MIXED_2K_METRICS_SHA256 = "066a1c07181e1a13e99255de228d5f40c1fa04346f2d26085cb25dcf90fe109d"
REDRAWN_EVENTS_SHA256 = "3216aa8cc60a51ba747fbcfbcbb61c250d251384fb0518e89f121d464267baef"
REDRAWN_METRICS_SHA256 = "edcfe06f24dfa49a6af1bef0fdd3722b1d556aa9726d8c39961166bce15d4b70"
REBALANCED_SHA256 = "42cc1feffec7d77f5dc937c80442ad27032433b0a1e976b8bb8e8af0c3eb2eb3"
REBALANCED_EVENTS_SHA256 = "97d591f477458f3ae86b07f63e2f50082e8d1f7783406713e358bd271723113f"
REBALANCED_METRICS_SHA256 = "cb842d3ed92791bbf2c1161a4404cab22fdf7204a835eeacca7ae395bc909f0b"


def _redraw_services(rows, services, seed):
    # Cut the cluster -> service binding, so similar inputs reach services
    # that share the object-detect stage and servers reuse single stages.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    picks = rng.integers(len(services), size=len(rows))
    return [dataclasses.replace(r, service_id=services[int(i)]) for r, i in zip(rows, picks)]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _replay(tmp_path, profile, *, redraw=False, router_store_entries=4096, rebalance=False):
    """Replay with the event log on; digests of per_task.csv, events.csv
    and metrics.json, in that order."""
    generated = generate_trace(profile, SEED)
    rows = generated.rows
    if redraw:
        rows = _redraw_services(rows, profile.services, SEED)
    write_vectors_csv(tmp_path / "vectors.csv", generated.vectors)
    write_trace_csv(tmp_path / "trace.csv", rows)
    write_json(tmp_path / "topology.json",
               default_topology_data(SEED, router_store_entries=router_store_entries))
    write_json(tmp_path / "services.json", default_services_data(profile.dim))
    experiment = default_experiment_data(SEED, dim=profile.dim)
    experiment["control"]["rebalance"] = rebalance
    write_json(tmp_path / "experiment.json", experiment)
    report = run_experiment(load_experiment(tmp_path / "experiment.json"), event_log=True)
    report.write_per_task_csv(tmp_path / "per_task.csv")
    report.write_events_csv(tmp_path / "events.csv")
    report.write_metrics_json(tmp_path / "metrics.json")
    return report, tuple(_sha256(tmp_path / name)
                         for name in ("per_task.csv", "events.csv", "metrics.json"))


def test_mixed_2k_per_task_digest(tmp_path):
    profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=2000)
    report, digests = _replay(tmp_path, profile)
    layers = report.aggregates["per_layer"]
    for layer in ("none", "device", "network", "server"):
        assert layers[layer]["count"] > 0, layer
    assert digests == (MIXED_2K_SHA256, MIXED_2K_EVENTS_SHA256, MIXED_2K_METRICS_SHA256)


def test_redrawn_services_per_task_digest(tmp_path):
    profile = dataclasses.replace(builtin_profiles()["mnist-like"], tasks=600)
    report, digests = _replay(tmp_path, profile, redraw=True, router_store_entries=64)
    assert report.aggregates["per_layer"]["partial_server"]["count"] > 0
    assert digests == (REDRAWN_SHA256, REDRAWN_EVENTS_SHA256, REDRAWN_METRICS_SHA256)


def test_mixed_2k_rebalanced_digest(tmp_path):
    # Control windows move hash ranges between servers mid-replay.
    profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=2000)
    report, digests = _replay(tmp_path, profile, rebalance=True)
    assert report.aggregates["table_version"] > 1
    assert digests == (REBALANCED_SHA256, REBALANCED_EVENTS_SHA256, REBALANCED_METRICS_SHA256)
