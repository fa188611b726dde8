"""Validate at the edge, trust inside.

Raw input is checked where it enters the library: at bundle load, in the
public constructors and in the public functions. Arrays the library made
and froze itself (a checked bundle row, a stage output, a payload's output)
then travel between layers without another check or copy. These tests pin
both halves: every public entry point still rejects bad raw input, and a
replay runs no more checks than its remaining checked paths explain.
"""

import dataclasses
import re

import numpy as np
import pytest

import edgereuse.core
import edgereuse.fabric
import edgereuse.hashing
import edgereuse.services
import edgereuse.simulator
import edgereuse.store
from edgereuse.config import (default_experiment_data, default_services_data,
                              default_topology_data, load_experiment, write_json)
from edgereuse.core import TaskEnvelope
from edgereuse.fabric import (DeviceNode, ForwardingTable, HashRange, LoadReport, RouterNode,
                              ServerNode, device_offload, partition_hash_space, router_forward,
                              server_handle)
from edgereuse.hashing import LshFamily, feature_hash, probe_masks
from edgereuse.services import ServiceSpec, StageSpec, execute_stage, label_of
from edgereuse.simulator import Simulation
from edgereuse.store import ReuseEntry, ReuseStore
from edgereuse.workload import (WorkloadProfile, builtin_profiles, generate_trace, write_trace_csv,
                                write_vectors_csv)

DIM = 8
SEED = 42
STAGE = StageSpec("stage-a", 9001, DIM, 60_000)
SVC = ServiceSpec("svc-a", DIM, (STAGE,))
FAMILY = LshFamily(DIM, k=16, tables=4, seed=2)
GOOD = np.arange(1.0, DIM + 1)


def _with(value):
    v = np.ones(DIM)
    v[3] = value
    return v


BAD_INPUTS = {
    "nan": _with(np.nan),
    "inf": _with(np.inf),
    "empty": np.array([]),
    "2-d": np.ones((2, DIM)),
    "wrong-dim": np.ones(DIM + 1),
}


def _store():
    return ReuseStore(FAMILY, 16, 10_000_000)


def _inserting(make_args):
    def insert(x):
        store = _store()
        try:
            store.insert(*make_args(x))
        except ValueError:
            # A rejected insert leaves nothing behind.
            assert len(store) == 0
            store.audit()
            raise
    return insert


# Each public entry point, fed the raw input x; and whether it knows the
# dimension an input must have. ReuseEntry, an envelope without a query and
# execute_stage take vectors of any length (a stage sizes its map to its
# input), so a wrong-dimension input is no error there.
ENTRY_POINTS = {
    "ReuseEntry": (lambda x: ReuseEntry(x, "svc-a", {}, np.ones(DIM), 0), False),
    "ReuseEntry.output": (lambda x: ReuseEntry(GOOD, "svc-a", {}, x, 0), False),
    "ReuseEntry.stage_outputs": (lambda x: ReuseEntry(GOOD, "svc-a", {"stage-a": x},
                                                      np.ones(DIM), 0), False),
    "TaskEnvelope": (lambda x: TaskEnvelope(0, "dev0", "svc-a", x, 0.9), False),
    "TaskEnvelope.other-query": (lambda x: TaskEnvelope(0, "dev0", "svc-a", x, 0.9,
                                                        query=FAMILY.prepare(GOOD)), True),
    "LshFamily.prepare": (FAMILY.prepare, True),
    "execute_stage": (lambda x: execute_stage(STAGE, x), False),
    "label_of": (lambda x: label_of(SVC, x), True),
    "ReuseStore.insert": (_inserting(lambda x: (ReuseEntry(x, "svc-a", {}, np.ones(DIM), 0),)),
                          True),
    "ReuseStore.insert.query": (_inserting(lambda x: (ReuseEntry(GOOD, "svc-a", {}, np.ones(DIM), 0),
                                                      x)), True),
    "ReuseStore.lookup": (lambda x: _store().lookup(x, 0.8), True),
    # A server without a store, which never signs its input.
    "server_handle": (lambda x: server_handle(ServerNode("s0", {"svc-a": SVC}),
                                              TaskEnvelope(0, "dev0", "svc-a", x, 0.9), 1000),
                      True),
}


@pytest.mark.parametrize("entry_point, bad", [
    (entry_point, bad) for entry_point, (_, knows_dim) in ENTRY_POINTS.items()
    for bad in BAD_INPUTS if knows_dim or bad != "wrong-dim"])
def test_public_entry_points_reject_bad_raw_input(entry_point, bad):
    call, _ = ENTRY_POINTS[entry_point]
    with pytest.raises(ValueError):
        call(BAD_INPUTS[bad])


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_public_entry_points_accept_good_input(entry_point):
    # The rejections above are of the input, not of the call itself.
    call, _ = ENTRY_POINTS[entry_point]
    call(GOOD)


def test_public_envelope_rejects_out_of_range_hash():
    for h in (-1, 0x10000):
        with pytest.raises(ValueError, match="out of range"):
            TaskEnvelope(0, "dev0", "svc-a", GOOD, 0.9, forwarding_hash=h)


def test_attached_hash_is_range_checked():
    task = TaskEnvelope(0, "dev0", "svc-a", GOOD, 0.9)
    with pytest.raises(ValueError, match="out of range"):
        task._with_forwarding_hash(0x10000)


def test_frozen_entry_matches_a_checked_one():
    q = FAMILY.prepare(GOOD)
    out = execute_stage(STAGE, q.vector)
    checked = ReuseEntry(q.vector, "svc-a", {"stage-a": out}, out, 3, insert_time=7)
    frozen = ReuseEntry._of_frozen(q.vector, "svc-a", {"stage-a": out}, out, 3, 7)
    for name in ReuseEntry.__slots__:
        a, b = getattr(frozen, name), getattr(checked, name)
        if name == "stage_outputs":
            assert a.keys() == b.keys()
            a, b = a["stage-a"], b["stage-a"]
        assert np.array_equal(a, b), name
    assert frozen.key_input is q.vector and frozen.output is out


# -- the replay ------------------------------------------------------------

def _simulation(tmp_path, profile_name="mixed", tasks=400):
    profile = dataclasses.replace(builtin_profiles()[profile_name], tasks=tasks)
    generated = generate_trace(profile, SEED)
    write_vectors_csv(tmp_path / "vectors.csv", generated.vectors)
    write_trace_csv(tmp_path / "trace.csv", generated.rows)
    write_json(tmp_path / "topology.json", default_topology_data(SEED, router_store_entries=64))
    write_json(tmp_path / "services.json", default_services_data(profile.dim))
    write_json(tmp_path / "experiment.json", default_experiment_data(SEED, dim=profile.dim))
    return Simulation(load_experiment(tmp_path / "experiment.json"))


def _record_calls(monkeypatch, bindings):
    """Wrap each (module, name) binding, unchanged in behaviour; returns the
    list that collects each call's arguments."""
    calls = []
    for module, name in bindings:
        def wrapped(*args, _original=getattr(module, name), **kw):
            calls.append(args)
            return _original(*args, **kw)
        monkeypatch.setattr(module, name, wrapped)
    return calls


def _record_prepared(monkeypatch):
    """Wrap LshFamily._prepare_rows; returns the list of each pass's
    (family, matrix, rows, queries)."""
    passes = []
    prepare_rows = LshFamily._prepare_rows

    def recorded(family, m, rows):
        queries = prepare_rows(family, m, rows)
        passes.append((family, m, list(rows), queries))
        return queries

    monkeypatch.setattr(LshFamily, "_prepare_rows", recorded)
    return passes


def _trace_row(sim, task_id):
    """Row task_id of the simulation's trace, as Python values."""
    t = sim.trace
    return (t.time_us.tolist()[task_id], t.device_ids[t.device[task_id]],
            t.service_ids[t.service[task_id]], t.vector_id.tolist()[task_id],
            sim.trace.threshold.tolist()[task_id])


def test_each_distinct_input_is_prepared_once(tmp_path, monkeypatch):
    # This 400-task trace is one batch of arrivals, so each input is
    # prepared once for the replay.
    check_inputs_prepared_once_per_batch(tmp_path, monkeypatch)


def test_each_distinct_input_is_prepared_once_per_batch(tmp_path, monkeypatch):
    monkeypatch.setattr(edgereuse.simulator, "_BATCH_TASKS", 64)
    check_inputs_prepared_once_per_batch(tmp_path, monkeypatch)


def check_inputs_prepared_once_per_batch(tmp_path, monkeypatch):
    batch_tasks = edgereuse.simulator._BATCH_TASKS
    passes = _record_prepared(monkeypatch)
    sim = _simulation(tmp_path)
    assert passes == [], "queries are made during replay, not in set-up"
    offered = _record_calls(monkeypatch, [(edgereuse.simulator, "device_offload")])
    sim.run()
    assert not sim.vectors.flags.writeable
    vector_of = dict(enumerate(sim.trace.vector_id.tolist()))
    # Tasks are offered to their device in arrival order, so the k-th
    # offered task is in batch k // batch_tasks.
    assert len(offered) == len(vector_of)
    query_of_vector = {}
    for k, (_, task, *_) in enumerate(offered):
        q = task.query
        assert task.input is q.vector
        # A task whose input repeats in its batch gets the very query of the first.
        key = (k // batch_tasks, vector_of[task.task_id])
        assert query_of_vector.setdefault(key, q) is q
    distinct = set(vector_of.values())
    assert len(distinct) < len(vector_of), "the bundle should repeat some inputs"
    assert len(passes) == -(-len(vector_of) // batch_tasks)
    prepared = {}
    for b, (family, m, rows, queries) in enumerate(passes):
        assert family is sim.family and m is sim.vectors
        assert len(rows) == len(set(rows)) == len(queries)
        prepared.update(((b, vid), q) for vid, q in zip(rows, queries))
    assert query_of_vector.keys() == prepared.keys()
    assert {vid for _, vid in prepared} == distinct
    for key, q in prepared.items():
        vid = key[1]
        assert q is query_of_vector[key]
        fresh = sim.family.prepare(sim.vectors[vid])
        assert q.vector.tobytes() == fresh.vector.tobytes()
        assert np.float64(q.norm).tobytes() == np.float64(fresh.norm).tobytes()
        assert q.bits == fresh.bits
        assert np.shares_memory(q.vector, sim.vectors)
        assert not q.vector.flags.writeable


def test_replay_signs_its_inputs_in_one_batch(tmp_path, monkeypatch):
    # Every input of a batch of arrivals is fingerprinted in one batched
    # pass when the batch's first task arrives; no task signs its input
    # one vector at a time. This 400-task trace is one batch.
    sim = _simulation(tmp_path)
    single = _record_calls(monkeypatch, [(LshFamily, "prepare")])
    batches = _record_calls(monkeypatch, [(LshFamily, "_prepare_rows")])
    assert len(sim.trace) <= edgereuse.simulator._BATCH_TASKS
    assert batches == []
    sim.run()
    assert single == []
    assert len(batches) == 1 and batches[0][0] is sim.family and batches[0][1] is sim.vectors
    assert batches[0][2] == sorted(set(sim.trace.vector_id.tolist()))


def test_trusted_envelope_equals_a_checked_one(tmp_path, monkeypatch):
    # The replay builds each envelope without __post_init__; it must be the
    # envelope the public constructor would have made from the same fields.
    passes = _record_prepared(monkeypatch)
    sim = _simulation(tmp_path)
    offered = _record_calls(monkeypatch, [(edgereuse.simulator, "device_offload")])
    sim.run()
    assert len(offered) == len(sim.trace)
    # One batch, so one query per vector id.
    [(_, _, rows, queries)] = passes
    query_of = dict(zip(rows, queries))
    fields = [f.name for f in dataclasses.fields(TaskEnvelope)]
    for _, task, *_ in offered:
        time_us, device_id, service_id, vector_id, threshold = _trace_row(sim, task.task_id)
        checked = TaskEnvelope(task.task_id, device_id, service_id, task.query.vector,
                               threshold, created_at=time_us, query=task.query)
        assert type(task) is TaskEnvelope
        for name in fields:
            a, b = getattr(task, name), getattr(checked, name)
            assert type(a) is type(b), name
            if name == "input":
                assert a is b is task.query.vector
            else:
                assert a == b, name
        assert task.query is query_of[vector_id]
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.threshold = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.input = GOOD


def test_router_hashes_for_a_weak_device_in_replay(tmp_path, monkeypatch):
    sim = _simulation(tmp_path, tasks=200)
    offered = _record_calls(monkeypatch, [(edgereuse.simulator, "device_offload")])
    served = _record_calls(monkeypatch, [(edgereuse.simulator, "server_handle")])
    forwarded = []
    original = edgereuse.simulator.router_forward

    def router_forward_spy(router, task, *args, **kw):
        outcome = original(router, task, *args, **kw)
        forwarded.append((task, outcome))
        return outcome

    monkeypatch.setattr(edgereuse.simulator, "router_forward", router_forward_spy)
    sim.run()
    inputs = {task.task_id: task.input for _, task, *_ in offered}
    weak = [(task, out) for task, out in forwarded if task.device_id == "dev1"]
    assert weak, "the default topology routes dev1's tasks through r1"
    for task, out in forwarded:
        hashes = [step for step in out.steps if step[2] == "hash"]
        assert len(hashes) == (1 if task.device_id == "dev1" else 0)
        assert out.envelope.forwarding_hash == task.query.bits[0]
        assert out.envelope.input is inputs[task.task_id]
    assert served
    for _, task, *_ in served:
        assert task.input is inputs[task.task_id]


def test_router_hash_hand_off(tmp_path):
    q = FAMILY.prepare(GOOD)
    task = TaskEnvelope(5, "dev1", "svc-a", q.vector, 0.9, created_at=11, query=q)
    dev = DeviceNode("dev1", "r0", 1000, False, 0)
    at_device = device_offload(dev, task, FAMILY, 1000)
    assert at_device.envelope is task and at_device.steps == ()
    router = RouterNode("r0", {"s0": 3000}, 1800)
    at_router = router_forward(router, at_device.envelope, FAMILY, 1000,
                               partition_hash_space(["s0"]))
    assert [(detail, cost) for _, _, detail, cost in at_router.steps] == [("hash", 1800)]
    hashed = at_router.envelope
    assert hashed.forwarding_hash == q.bits[0]
    assert task.forwarding_hash is None
    # Every other field is the very object the device passed on.
    others = [name for name in vars(task) if name != "forwarding_hash"]
    assert all(getattr(hashed, name) is getattr(task, name) for name in others)
    at_server = server_handle(ServerNode("s0", {"svc-a": SVC}), hashed, 1000)
    assert task.input is hashed.input is at_server.envelope.input is q.vector
    # A second router hop sees the hash and charges nothing.
    again = router_forward(router, hashed, FAMILY, 1000, partition_hash_space(["s0"]))
    assert again.steps == () and again.envelope is hashed


@pytest.mark.parametrize("profile_name", ["mixed", "mnist-like"])
def test_replay_checks_only_at_its_edges(tmp_path, monkeypatch, profile_name):
    """Guards against checks coming back on internal hand-offs.

    What may still call as_feature_vector during a replay: execute_stage on
    each stage it runs, and each oracle run's input and label checks.
    Preparing a distinct input is not among them: the bundle's rows were
    checked at load, so their queries are made without another check.
    """
    sim = _simulation(tmp_path, profile_name)
    checks = _record_calls(monkeypatch, [(m, "as_feature_vector") for m in (
        edgereuse.core, edgereuse.hashing, edgereuse.store, edgereuse.services)])
    stages = _record_calls(monkeypatch, [(edgereuse.fabric, "execute_stage"),
                                         (edgereuse.services, "execute_stage")])
    oracles = _record_calls(monkeypatch, [(edgereuse.simulator, "oracle")])
    report = sim.run()
    assert report.aggregates["reuse_pct"] > 0 and oracles
    assert len(checks) <= len(stages) + 2 * len(oracles)


# The integer rule (core.check_integer): every integer argument of a library
# constructor, and every forwarding hash a public call takes, as (call with
# that argument, its name in messages, a valid value, a value out of range).
TABLE = partition_hash_space(["s0", "s1"])
INTEGER_ARGUMENTS = {
    "LshFamily.dim": (lambda v: LshFamily(v), "dim", DIM, 0),
    "LshFamily.k": (lambda v: LshFamily(DIM, k=v), "k", 16, 33),
    "LshFamily.tables": (lambda v: LshFamily(DIM, tables=v), "tables", 4, 0),
    "LshFamily.seed": (lambda v: LshFamily(DIM, seed=v), "seed", 7, 1 << 64),
    "LshFamily.table": (lambda v: FAMILY.signature_bits(GOOD, v), "table index", 3, 4),
    "feature_hash.dim": (lambda v: feature_hash([("a", 1.0)], v), "dim", DIM, 0),
    "feature_hash.seed": (lambda v: feature_hash([("a", 1.0)], DIM, v), "seed", 3, -1),
    "probe_masks.k": (lambda v: probe_masks(v, 1), "k", 12, 0),
    "probe_masks.radius": (lambda v: probe_masks(12, v), "radius", 2, 13),
    "ReuseStore.capacity_entries": (lambda v: ReuseStore(FAMILY, v, 10**6),
                                    "capacity_entries", 4, 0),
    "ReuseStore.capacity_bytes": (lambda v: ReuseStore(FAMILY, 4, v), "capacity_bytes", 10**6, -1),
    "ReuseStore.probe_radius": (lambda v: ReuseStore(FAMILY, 4, 10**6, probe_radius=v),
                                "probe_radius", 1, 17),
    "StageSpec.transform_seed": (lambda v: StageSpec("s", v, DIM, 10), "transform_seed", 5,
                                 1 << 64),
    "StageSpec.out_dim": (lambda v: StageSpec("s", 5, v, 10), "out_dim", DIM, 0),
    "StageSpec.exec_time_us": (lambda v: StageSpec("s", 5, DIM, v), "exec_time_us", 10, -1),
    "ServiceSpec.input_dim": (lambda v: ServiceSpec("svc", v, (STAGE,)), "input_dim", DIM, 0),
    "ServiceSpec.label_classes": (lambda v: ServiceSpec("svc", DIM, (STAGE,), v),
                                  "label_classes", 10, 1),
    "DeviceNode.link_delay_us": (lambda v: DeviceNode("d", "r", v, True, 10), "link_delay_us",
                                 1000, 0),
    "DeviceNode.hash_time_us": (lambda v: DeviceNode("d", "r", 1000, True, v), "hash_time_us",
                                10, -1),
    "RouterNode.server_delays": (lambda v: RouterNode("r", {"s0": 1000, "s1": v}, 10),
                                 "server_delays['s1']", 1000, 0),
    "RouterNode.hash_time_us": (lambda v: RouterNode("r", {"s0": 1000}, v), "hash_time_us",
                                10, -1),
    "LoadReport.executed_count": (lambda v: LoadReport({"s0": 3, "s1": v}), "executed_count[s1]",
                                  2, -1),
    "WorkloadProfile.dim": (lambda v: WorkloadProfile("p", dim=v), "dim", 64, 0),
    "WorkloadProfile.n_clusters": (lambda v: WorkloadProfile("p", n_clusters=v), "n_clusters",
                                   8, 65),
    "WorkloadProfile.tasks": (lambda v: WorkloadProfile("p", tasks=v), "tasks", 10, -1),
    "WorkloadProfile.mean_interarrival_us": (lambda v: WorkloadProfile("p", mean_interarrival_us=v),
                                             "mean_interarrival_us", 1000, 0),
    "WorkloadProfile.repeat_window": (lambda v: WorkloadProfile("p", repeat_window=v),
                                      "repeat_window", 5, 0),
    "TaskEnvelope.forwarding_hash": (lambda v: TaskEnvelope(0, "dev0", "svc-a", GOOD, 0.9,
                                                            forwarding_hash=v),
                                     "forwarding hash", 512, 0x10000),
    "TaskEnvelope._with_forwarding_hash": (
        lambda v: TaskEnvelope(0, "dev0", "svc-a", GOOD, 0.9)._with_forwarding_hash(v),
        "forwarding hash", 512, -1),
    "HashRange.lo": (lambda v: HashRange(v, 65535, "s0"), "range lo", 0, -1),
    "HashRange.hi": (lambda v: HashRange(0, v, "s0"), "range hi", 65535, 0x10000),
    "ForwardingTable.server_for": (lambda v: TABLE.server_for(v), "forwarding hash", 101, 0x10000),
    "ForwardingTable.version": (lambda v: ForwardingTable(TABLE.ranges, version=v), "version",
                                2, 0),
}
NOT_INTEGERS = {"bool": True, "numpy-bool": np.True_, "float": 1.5, "none": None, "str": "3"}
# An envelope's forwarding hash is None until a device or router attaches it.
NONE_ALLOWED = {"TaskEnvelope.forwarding_hash"}


@pytest.mark.parametrize("argument, kind", [
    pytest.param(argument, kind, id=f"{argument}-{kind}")
    for argument in INTEGER_ARGUMENTS for kind in NOT_INTEGERS
    if not (kind == "none" and argument in NONE_ALLOWED)])
def test_integer_argument_refuses_a_non_integer(argument, kind):
    call, name, _, _ = INTEGER_ARGUMENTS[argument]
    with pytest.raises(TypeError, match=re.escape(name) + ".* must be an integer"):
        call(NOT_INTEGERS[kind])


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_integer_argument_takes_a_numpy_integer(argument):
    call, _, good, _ = INTEGER_ARGUMENTS[argument]
    call(np.int64(good))


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_integer_argument_out_of_range_names_it(argument):
    call, name, _, bad = INTEGER_ARGUMENTS[argument]
    with pytest.raises(ValueError, match=re.escape(name) + ".* must be"):
        call(bad)


def test_family_stores_plain_ints():
    family = LshFamily(np.int64(DIM), k=np.int32(16), tables=np.uint8(4), seed=np.int64(2))
    assert [type(a) for a in (family.dim, family.k, family.tables, family.seed)] == [int] * 4
    assert np.array_equal(family.hyperplanes, FAMILY.hyperplanes)


def test_cached_probe_masks_do_not_answer_a_bool():
    assert probe_masks(16, 1) == probe_masks(np.int64(16), np.int64(1))
    with pytest.raises(TypeError, match="radius must be an integer"):
        probe_masks(16, True)
