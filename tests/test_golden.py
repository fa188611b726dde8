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

The threshold sweep pins ``sweep.csv``: one bundle replayed at several
thresholds, with each replay's reuse and accuracy percentages.

Only a deliberate behaviour change may re-pin a digest here, and such a
change is listed in CHANGES.md with its reason. A refactor or a speed-up
that changes a digest is a bug in that change.
"""

import dataclasses
import hashlib

import numpy as np

from edgereuse.config import (default_experiment_data, default_services_data,
                              default_topology_data, load_experiment, write_json)
from edgereuse.simulator import EVENTS_HEADER, run_experiment, sweep_thresholds, write_sweep_csv
from edgereuse.workload import builtin_profiles, generate_trace, write_trace_csv, write_vectors_csv

SEED = 42

MIXED_2K_SHA256 = "dde06e1b4c22354b0e0411aa8cfb8c187a7b1d22ba3d9ace1f2741eb006b8fe2"
REDRAWN_SHA256 = "76604e1a0002c74b6bf7ce6b9c6b667c8304e52abc8dae634e1715f50ff4eaa6"
MIXED_2K_EVENTS_SHA256 = "5739111caaa51b30e43e89a0bdc112ef6f04f326fb3ddb6f4ed323d75a8d7881"
MIXED_2K_METRICS_SHA256 = "066a1c07181e1a13e99255de228d5f40c1fa04346f2d26085cb25dcf90fe109d"
MIXED_2K_STRICT_SHA256 = "f4576d069ee05acf21e2c326a78ccbd3da8feff23fe7289adaf8e4d931af69ac"
MIXED_2K_STRICT_EVENTS_SHA256 = "d3171533df36d9f273a6a0921d44f6d2074ebc8025f14e76047ec5f1bb3a1c97"
MIXED_2K_STRICT_METRICS_SHA256 = "022ec15867c9bf3aaf4710e15d044ca4939313c36cb716c382956e98ac9d77c0"
REDRAWN_EVENTS_SHA256 = "3216aa8cc60a51ba747fbcfbcbb61c250d251384fb0518e89f121d464267baef"
REDRAWN_METRICS_SHA256 = "edcfe06f24dfa49a6af1bef0fdd3722b1d556aa9726d8c39961166bce15d4b70"
REBALANCED_SHA256 = "42cc1feffec7d77f5dc937c80442ad27032433b0a1e976b8bb8e8af0c3eb2eb3"
REBALANCED_EVENTS_SHA256 = "97d591f477458f3ae86b07f63e2f50082e8d1f7783406713e358bd271723113f"
REBALANCED_METRICS_SHA256 = "cb842d3ed92791bbf2c1161a4404cab22fdf7204a835eeacca7ae395bc909f0b"
OUT_OF_ORDER_SHA256 = "5a6fb3a482a6d4f702e4c2d0c19b47b0c44e30907e5684d9ab1b18c8e363d909"
OUT_OF_ORDER_EVENTS_SHA256 = "6b8f65325b2fb29f2042a0a2da2dda658e23d80f91991385dec8dcb52e7866f9"
OUT_OF_ORDER_METRICS_SHA256 = "183fffb2717c482a8b5d09f1c189f16a7950312f5899c3d3f195e85ca17fe806"
MIXED_2K_SWEEP_SHA256 = "89db083e58fc7ac9512513a4ebe06dabefe4a44afbb07ee2ced4615eeddc8a22"


def _redraw_services(rows, services, seed):
    # Cut the cluster -> service binding, so similar inputs reach services
    # that share the object-detect stage and servers reuse single stages.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    picks = rng.integers(len(services), size=len(rows))
    return [dataclasses.replace(r, service_id=services[int(i)]) for r, i in zip(rows, picks)]


def _shuffle_with_ties(rows, seed, quantum_us):
    # Arrival times rounded down to a quantum, so several rows share each
    # time_us, and the rows then written in a seeded random order.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    tied = [dataclasses.replace(r, time_us=r.time_us // quantum_us * quantum_us) for r in rows]
    return [tied[int(i)] for i in rng.permutation(len(tied))]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _bundle(tmp_path, profile, *, redraw=False, router_store_entries=4096, rebalance=False,
            shuffle_quantum_us=None):
    """Write a seed-42 bundle of the profile and load its config."""
    generated = generate_trace(profile, SEED)
    rows = generated.rows
    if redraw:
        rows = _redraw_services(rows, profile.services, SEED)
    if shuffle_quantum_us is not None:
        rows = _shuffle_with_ties(rows, SEED, shuffle_quantum_us)
    write_vectors_csv(tmp_path / "vectors.csv", generated.vectors)
    write_trace_csv(tmp_path / "trace.csv", rows)
    write_json(tmp_path / "topology.json",
               default_topology_data(SEED, router_store_entries=router_store_entries))
    write_json(tmp_path / "services.json", default_services_data(profile.dim))
    experiment = default_experiment_data(SEED, dim=profile.dim)
    experiment["control"]["rebalance"] = rebalance
    write_json(tmp_path / "experiment.json", experiment)
    return load_experiment(tmp_path / "experiment.json")


def _replay(tmp_path, profile, *, threshold=None, **bundle):
    """Replay with the event log on; digests of per_task.csv, events.csv
    and metrics.json, in that order."""
    report = run_experiment(_bundle(tmp_path, profile, **bundle), event_log=True,
                            threshold=threshold)
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


def test_mixed_2k_clock_stays_integer(tmp_path):
    # Simulated time is integer microseconds: every task's times and every
    # event row's time and cost are Python ints, never floats or numpy
    # scalars.
    profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=2000)
    report = run_experiment(_bundle(tmp_path, profile), event_log=True)
    assert len(report.records) == 2000 and report.events
    times = [t for r in report.records for t in (r.created_at, r.completed_at)]
    columns = [EVENTS_HEADER.index("time_us"), EVENTS_HEADER.index("cost_us")]
    times += [row[i] for row in report.events for i in columns]
    assert {type(t) for t in times} == {int}


def test_mixed_2k_strict_threshold_digest(tmp_path):
    # At 0.9 the service and stage filters discard most scored candidates.
    profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=2000)
    report, digests = _replay(tmp_path, profile, threshold=0.9)
    layers = report.aggregates["per_layer"]
    for layer in ("none", "device", "network", "server"):
        assert layers[layer]["count"] > 0, layer
    assert digests == (MIXED_2K_STRICT_SHA256, MIXED_2K_STRICT_EVENTS_SHA256,
                       MIXED_2K_STRICT_METRICS_SHA256)


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


def test_out_of_order_trace_with_tied_arrivals_digest(tmp_path):
    # The trace file is not in time order and many rows share a time_us:
    # tasks are numbered in file order, and tied arrivals are processed in
    # that order too.
    profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=1000)
    report, digests = _replay(tmp_path, profile, rebalance=True, shuffle_quantum_us=200_000)
    rows = [line.split(",") for line in
            (tmp_path / "trace.csv").read_text().splitlines()[1:]]
    times = [int(r[0]) for r in rows]
    assert times != sorted(times)
    assert len(set(times)) < len(times) // 2
    assert report.aggregates["table_version"] > 1
    assert digests == (OUT_OF_ORDER_SHA256, OUT_OF_ORDER_EVENTS_SHA256,
                       OUT_OF_ORDER_METRICS_SHA256)


def test_mixed_2k_sweep_digest(tmp_path):
    profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=2000)
    rows = sweep_thresholds(_bundle(tmp_path, profile), [0.7, 0.8, 0.9])
    reuse = [row["reuse_pct"] for row in rows]
    assert reuse == sorted(reuse, reverse=True)
    write_sweep_csv(tmp_path / "sweep.csv", rows)
    assert _sha256(tmp_path / "sweep.csv") == MIXED_2K_SWEEP_SHA256
