"""Golden outputs: replays whose outputs are pinned by digest.

Each replay pins ``per_task.csv``, ``events.csv`` and ``metrics.json``.
``per_task.csv`` and ``events.csv`` hold integers and strings only (ids,
simulated microseconds, node ids, step details, reuse layer, accuracy
verdict), so they do not move with last-bit float changes in arithmetic
order. They do move with any change of which cache serves a task, when a
task or one of its steps completes, in which order events are processed,
or whether a reused result is accurate. ``metrics.json`` adds the
aggregates and the control-window samples; its floats are ratios of those
integers. Each replay's aggregates are also read back through the schema
that ``simulator.py`` declares for metrics.json, and must give the same
JSON text.

The threshold sweep pins ``sweep.csv``: one bundle replayed at several
thresholds, with each replay's reuse and accuracy percentages. The text
that ``edgereuse run`` and ``edgereuse report`` print is pinned literally,
on the 2K ``mixed`` replay and on an empty trace.

Only a deliberate behaviour change may re-pin a digest here, and such a
change is listed in CHANGES.md with its reason. A refactor or a speed-up
that changes a digest is a bug in that change.
"""

import collections
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edgereuse.cli import main
from edgereuse.config import (_make, default_experiment_data, default_services_data,
                              default_topology_data, load_experiment, write_json)
from edgereuse.core import ReuseLayer
from edgereuse.simulator import (EVENTS_HEADER, RunMetrics, Simulation, run_experiment,
                                 sweep_thresholds, write_sweep_csv)
from edgereuse.store import ReuseStore
from edgereuse.workload import builtin_profiles, generate_trace, write_trace_csv, write_vectors_csv

SEED = 42
SRC = str(Path(__file__).resolve().parents[1] / "src")

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


def _assert_schema_reads(aggregates):
    """metrics.json's declarations name exactly the keys, nesting and types
    that the writer wrote: read back through them, the aggregates give the
    same JSON text, so an int is not a float and no key is added or lost."""
    read = _make(RunMetrics, json.loads(json.dumps(aggregates)), "metrics")
    assert (json.dumps(dataclasses.asdict(read), sort_keys=True)
            == json.dumps(aggregates, sort_keys=True))


def _replay(tmp_path, profile, *, threshold=None, **bundle):
    """Replay with the event log on; digests of per_task.csv, events.csv
    and metrics.json, in that order. Every replay's aggregates are also
    read back through metrics.json's schema."""
    report = run_experiment(_bundle(tmp_path, profile, **bundle), event_log=True,
                            threshold=threshold)
    _assert_schema_reads(report.aggregates)
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


@pytest.mark.parametrize("threshold", [0.8, 0.9])
def test_mixed_2k_nodes_cache_what_they_did_not_serve(tmp_path, monkeypatch, threshold):
    # The response-caching rule on its own: a device with a store inserts
    # once for each of its tasks not served at the device, a router once for
    # each of its tasks served by a server, and a server once for each task
    # it executed.
    profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=2000)
    sim = Simulation(_bundle(tmp_path, profile))
    inserts = collections.Counter()
    insert = ReuseStore.insert

    def counted(store, *args, **kwargs):
        inserts[id(store)] += 1
        return insert(store, *args, **kwargs)

    monkeypatch.setattr(ReuseStore, "insert", counted)
    report = sim.run(threshold=threshold)
    records = report.records
    layers = report.aggregates["per_layer"]
    assert layers["device"]["count"] > 0 and layers["network"]["count"] > 0
    by_server = (ReuseLayer.NONE, ReuseLayer.SERVER, ReuseLayer.PARTIAL_SERVER)
    expected = {}
    for dev in sim.devices.values():
        expected[dev.node_id] = sum(1 for r in records if r.device_id == dev.node_id
                                    and r.reuse_layer is not ReuseLayer.DEVICE)
    for router in sim.routers.values():
        expected[router.node_id] = sum(1 for r in records if r.reuse_layer in by_server
                                       and sim.devices[r.device_id].router_id == router.node_id)
    for sid, counters in report.aggregates["servers"].items():
        expected[sid] = counters["executed_count"]
    nodes = [*sim.devices.values(), *sim.routers.values(), *sim.servers.values()]
    with_store = [n for n in nodes if n.store is not None]
    assert {type(n).__name__ for n in with_store} == {"DeviceNode", "RouterNode", "ServerNode"}
    assert {n.node_id: inserts[id(n.store)] for n in with_store} == {
        n.node_id: expected[n.node_id] for n in with_store}
    assert sum(inserts.values()) == sum(expected[n.node_id] for n in with_store)


@pytest.mark.parametrize("threshold", [0.8, 0.9])
def test_mixed_2k_tasks_follow_the_documented_path(tmp_path, threshold):
    # Each task arrives at its device, and its links run device to router,
    # router to server and back, cut short where a layer serves it. Its
    # events follow one another with no gap, so its completion time is the
    # sum of their costs.
    profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=2000)
    sim = Simulation(_bundle(tmp_path, profile))
    report = sim.run(threshold=threshold, event_log=True)
    by_task = collections.defaultdict(list)
    for row in report.events:
        by_task[row[EVENTS_HEADER.index("task_id")]].append(row)
    assert set(by_task) == {r.task_id for r in report.records} | {""}
    layers = collections.Counter()
    for r in report.records:
        events = by_task[r.task_id]
        assert events[0][2] == "TaskArrival" and events[0][0] == r.created_at, r.task_id
        router = sim.devices[r.device_id].router_id
        links = [e[3] for e in events if e[2] == "LinkDelivery"]
        if r.reuse_layer is ReuseLayer.DEVICE:
            assert links == [], r.task_id
        elif r.reuse_layer is ReuseLayer.NETWORK:
            assert links == [router, r.device_id], r.task_id
        else:
            assert len(links) == 4 and links[1] in sim.servers, r.task_id
            assert links[::2] == [router, router] and links[3] == r.device_id, r.task_id
        assert r.completion_us == sum(e[6] for e in events), r.task_id
        assert events[-1][0] == r.completed_at, r.task_id
        layers[r.reuse_layer] += 1
    assert layers[ReuseLayer.DEVICE] and layers[ReuseLayer.NETWORK] and layers[ReuseLayer.NONE]


def test_mixed_2k_strict_threshold_digest(tmp_path):
    # At 0.9 the service and stage filters discard most scored candidates.
    profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=2000)
    report, digests = _replay(tmp_path, profile, threshold=0.9)
    layers = report.aggregates["per_layer"]
    for layer in ("none", "device", "network", "server"):
        assert layers[layer]["count"] > 0, layer
    assert digests == (MIXED_2K_STRICT_SHA256, MIXED_2K_STRICT_EVENTS_SHA256,
                       MIXED_2K_STRICT_METRICS_SHA256)


def _openblas_core(stderr: str) -> str | None:
    # The kernel that OpenBLAS reports loading under OPENBLAS_VERBOSE=2.
    cores = [line[len("Core: "):] for line in stderr.splitlines() if line.startswith("Core: ")]
    return cores[0] if cores else None


@pytest.fixture(scope="module")
def openblas_env():
    """The environment of a process that reports its OpenBLAS kernel, and
    the kernel such a process loads by default; skips where numpy is not
    built on an OpenBLAS that picks its kernel by CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pytest.skip("this numpy does not report the BLAS it is built on")
    if "openblas" not in blas:
        pytest.skip(f"numpy is built on {blas}, not OpenBLAS, so OPENBLAS_CORETYPE does nothing")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=SRC, OPENBLAS_VERBOSE="2")
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True,
                           text=True, timeout=60)
    default = _openblas_core(probe.stderr)
    if default is None:
        pytest.skip("OpenBLAS reports no kernel choice: not a DYNAMIC_ARCH build")
    return env, default


@pytest.fixture(scope="module")
def mixed_2k_bundle(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("mixed-2k")
    _bundle(bundle, dataclasses.replace(builtin_profiles()["mixed"], tasks=2000))
    return bundle / "experiment.json"


# Replays the bundle at its own threshold and at 0.9, writing each replay's
# three files as _replay does.
_REPLAY_TWICE = """\
import sys
from pathlib import Path
from edgereuse.config import load_experiment
from edgereuse.simulator import run_experiment
config = load_experiment(sys.argv[1])
for threshold, out in ((None, sys.argv[2]), (0.9, sys.argv[3])):
    report = run_experiment(config, event_log=True, threshold=threshold)
    out = Path(out)
    out.mkdir()
    report.write_per_task_csv(out / "per_task.csv")
    report.write_events_csv(out / "events.csv")
    report.write_metrics_json(out / "metrics.json")
"""


@pytest.mark.parametrize("coretype, reported", [("Prescott", "Katmai"),
                                                ("Sandybridge", "Sandybridge")])
def test_mixed_2k_digests_hold_under_other_blas_kernels(tmp_path, openblas_env, mixed_2k_bundle,
                                                        coretype, reported):
    # OpenBLAS picks its kernels by CPU, and kernels round a gemv's sums
    # differently, so the store's raw scores are not the same bits on every
    # machine. The outputs must not move with them: the 2K mixed bundle,
    # replayed at 0.8 and at 0.9 in a process made to load another kernel,
    # gives the pinned digests.
    env, default = openblas_env
    if default == reported:
        pytest.skip(f"{coretype} is the kernel OpenBLAS loads by default, {default}")
    default_out, strict_out = tmp_path / "default", tmp_path / "strict"
    proc = subprocess.run([sys.executable, "-c", _REPLAY_TWICE, str(mixed_2k_bundle),
                           str(default_out), str(strict_out)],
                          env=dict(env, OPENBLAS_CORETYPE=coretype), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert _openblas_core(proc.stderr) == reported != default
    names = ("per_task.csv", "events.csv", "metrics.json")
    assert tuple(_sha256(default_out / name) for name in names) == (
        MIXED_2K_SHA256, MIXED_2K_EVENTS_SHA256, MIXED_2K_METRICS_SHA256)
    assert tuple(_sha256(strict_out / name) for name in names) == (
        MIXED_2K_STRICT_SHA256, MIXED_2K_STRICT_EVENTS_SHA256, MIXED_2K_STRICT_METRICS_SHA256)


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


MIXED_2K_RUN_TEXT = "tasks=2000 mean_completion=16.38ms reuse=91.9% accuracy=11.5%\n"
MIXED_2K_REPORT_TEXT = """\
tasks               2000
makespan            120.000 s
mean completion     16.38 ms
reuse               91.9%
accuracy of reuse   11.5%
server busy         6.8%

layer              count  mean ms
device               595  1.00
network             1154  9.79
none                 162  118.73
partial_server         0  -
server                89  18.47

server    executed  reused  stored MB  busy
s0              67      33      0.150  5.6%
s1              95      56      0.206  7.9%
"""
EMPTY_RUN_TEXT = "tasks=0 mean_completion=n/a reuse=0.0% accuracy=n/a\n"
EMPTY_REPORT_TEXT = """\
tasks               0
makespan            0.000 s
mean completion     n/a
reuse               0.0%
accuracy of reuse   n/a
server busy         0.0%

layer              count  mean ms
device                 0  -
network                0  -
none                   0  -
partial_server         0  -
server                 0  -

server    executed  reused  stored MB  busy
s0               0       0      0.000  0.0%
s1               0       0      0.000  0.0%
"""


def _run_and_report(tmp_path, capsys):
    """What ``edgereuse run`` and then ``edgereuse report`` print for the
    bundle in tmp_path."""
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "experiment.json"), "--out", str(out)]) == 0
    run_text = capsys.readouterr().out
    assert main(["report", "--metrics", str(out / "metrics.json")]) == 0
    return run_text, capsys.readouterr().out


def test_mixed_2k_run_and_report_text(tmp_path, capsys):
    profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=2000)
    _bundle(tmp_path, profile)
    assert _run_and_report(tmp_path, capsys) == (MIXED_2K_RUN_TEXT, MIXED_2K_REPORT_TEXT)
    assert _sha256(tmp_path / "out" / "metrics.json") == MIXED_2K_METRICS_SHA256


def test_empty_trace_run_and_report_text(tmp_path, capsys):
    _bundle(tmp_path, dataclasses.replace(builtin_profiles()["mixed"], tasks=10))
    write_trace_csv(tmp_path / "trace.csv", [])
    assert _run_and_report(tmp_path, capsys) == (EMPTY_RUN_TEXT, EMPTY_REPORT_TEXT)
    _assert_schema_reads(json.loads((tmp_path / "out" / "metrics.json").read_text()))
