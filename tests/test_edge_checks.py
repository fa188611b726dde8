"""Validate at the edge, trust inside.

Raw input is checked where it enters the library: at bundle load, in the
public constructors and in the public functions. Arrays the library made
and froze itself (a checked bundle row, a stage output, a payload's output)
then travel between layers without another check or copy. These tests pin
both halves: every public entry point still rejects bad raw input, and a
replay runs no more checks than its remaining checked paths explain.
"""

import dataclasses

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
from edgereuse.fabric import (DeviceNode, RouterNode, ServerNode, device_offload,
                              partition_hash_space, router_forward, server_handle)
from edgereuse.hashing import LshFamily
from edgereuse.services import ServiceSpec, StageSpec, execute_stage, label_of
from edgereuse.simulator import Simulation
from edgereuse.store import ReuseEntry, ReuseStore
from edgereuse.workload import builtin_profiles, generate_trace, write_trace_csv, write_vectors_csv

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


def test_each_distinct_input_is_prepared_once(tmp_path, monkeypatch):
    sim = _simulation(tmp_path)
    assert sim._queries == {}, "queries are made during replay, not in set-up"
    offered = _record_calls(monkeypatch, [(edgereuse.simulator, "device_offload")])
    sim.run()
    assert not sim.vectors.flags.writeable
    vector_of = {task_id: row.vector_id for task_id, (row, _) in enumerate(sim.rows)}
    query_of_vector = {}
    for _, task, *_ in offered:
        q = task.query
        assert task.input is q.vector
        # A task whose input repeats gets the very query of the first.
        assert query_of_vector.setdefault(vector_of[task.task_id], q) is q
    distinct = set(vector_of.values())
    assert len(distinct) < len(sim.rows), "the bundle should repeat some inputs"
    assert query_of_vector.keys() == sim._queries.keys() == distinct
    for vid, q in sim._queries.items():
        assert q is query_of_vector[vid]
        fresh = sim.family.prepare(sim.vectors[vid])
        assert q.vector.tobytes() == fresh.vector.tobytes()
        assert np.float64(q.norm).tobytes() == np.float64(fresh.norm).tobytes()
        assert q.bits == fresh.bits
        assert np.shares_memory(q.vector, sim.vectors)
        assert not q.vector.flags.writeable


def test_replay_signs_its_inputs_in_one_batch(tmp_path, monkeypatch):
    # Every input is fingerprinted in one batched pass when run() starts;
    # no task signs its input one vector at a time.
    sim = _simulation(tmp_path)
    single = _record_calls(monkeypatch, [(LshFamily, "_prepare_valid")])
    batches = _record_calls(monkeypatch, [(LshFamily, "_prepare_rows")])
    assert batches == [] and sim._queries == {}
    sim.run()
    assert single == []
    assert len(batches) == 1 and batches[0][0] is sim.family and batches[0][1] is sim.vectors
    assert sim._queries.keys() == {row.vector_id for row, _ in sim.rows}


def test_trusted_envelope_equals_a_checked_one(tmp_path, monkeypatch):
    # The replay builds each envelope without __post_init__; it must be the
    # envelope the public constructor would have made from the same fields.
    sim = _simulation(tmp_path)
    offered = _record_calls(monkeypatch, [(edgereuse.simulator, "device_offload")])
    sim.run()
    assert len(offered) == len(sim.rows)
    fields = [f.name for f in dataclasses.fields(TaskEnvelope)]
    for _, task, *_ in offered:
        row, threshold = sim.rows[task.task_id]
        checked = TaskEnvelope(task.task_id, row.device_id, row.service_id, task.query.vector,
                               threshold, created_at=row.time_us, query=task.query)
        assert type(task) is TaskEnvelope
        for name in fields:
            a, b = getattr(task, name), getattr(checked, name)
            assert type(a) is type(b), name
            if name == "input":
                assert a is b is task.query.vector
            else:
                assert a == b, name
        assert task.query is sim._queries[row.vector_id]
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
        hashes = [s for s in out.steps if s.kind == "hash"]
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
    assert [(s.kind, s.cost_us) for s in at_router.steps] == [("hash", 1800)]
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
