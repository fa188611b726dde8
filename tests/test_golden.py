"""Golden outputs: replays whose per-task results are pinned by digest.

The pinned digests are of ``per_task.csv``, whose fields are integers and
strings only (ids, simulated microseconds, reuse layer, accuracy verdict),
so they do not move with last-bit float changes in arithmetic order. They
do move with any change of which cache serves a task, when a task
completes, or whether its reused result is accurate.

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


def _redraw_services(rows, services, seed):
    # Cut the cluster -> service binding, so similar inputs reach services
    # that share the object-detect stage and servers reuse single stages.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    picks = rng.integers(len(services), size=len(rows))
    return [dataclasses.replace(r, service_id=services[int(i)]) for r, i in zip(rows, picks)]


def _replay(tmp_path, profile, *, redraw=False, router_store_entries=4096):
    generated = generate_trace(profile, SEED)
    rows = generated.rows
    if redraw:
        rows = _redraw_services(rows, profile.services, SEED)
    write_vectors_csv(tmp_path / "vectors.csv", generated.vectors)
    write_trace_csv(tmp_path / "trace.csv", rows)
    write_json(tmp_path / "topology.json",
               default_topology_data(SEED, router_store_entries=router_store_entries))
    write_json(tmp_path / "services.json", default_services_data(profile.dim))
    write_json(tmp_path / "experiment.json", default_experiment_data(SEED, dim=profile.dim))
    report = run_experiment(load_experiment(tmp_path / "experiment.json"))
    report.write_per_task_csv(tmp_path / "per_task.csv")
    digest = hashlib.sha256((tmp_path / "per_task.csv").read_bytes()).hexdigest()
    return report, digest


def test_mixed_2k_per_task_digest(tmp_path):
    profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=2000)
    report, digest = _replay(tmp_path, profile)
    layers = report.aggregates["per_layer"]
    for layer in ("none", "device", "network", "server"):
        assert layers[layer]["count"] > 0, layer
    assert digest == MIXED_2K_SHA256


def test_redrawn_services_per_task_digest(tmp_path):
    profile = dataclasses.replace(builtin_profiles()["mnist-like"], tasks=600)
    report, digest = _replay(tmp_path, profile, redraw=True, router_store_entries=64)
    assert report.aggregates["per_layer"]["partial_server"]["count"] > 0
    assert digest == REDRAWN_SHA256
