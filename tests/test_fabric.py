import numpy as np
import pytest

import edgereuse.fabric
from hypothesis import given, settings
from hypothesis import strategies as st

from edgereuse.core import ReuseLayer, TaskEnvelope
from edgereuse.fabric import (DeviceNode, ForwardingTable, HashRange, LoadReport,
                              RouterNode, ServerNode, UnknownServiceError, device_offload,
                              partition_hash_space, rebalance, router_forward, server_handle)
from edgereuse.hashing import FORWARDING_SPACE, LshFamily, forwarding_hash
from edgereuse.services import (ServiceResult, ServiceSpec, StageSpec, execute_service,
                                execute_stage, label_of)
from edgereuse.store import ReuseEntry, ReuseStore

BIG = 10_000_000
DIM = 8

SHARED_STAGE = StageSpec("stage-shared", 9001, DIM, 60_000)
SVC_A = ServiceSpec("svc-a", DIM, (SHARED_STAGE, StageSpec("tail-a", 9002, DIM, 40_000)))
SVC_B = ServiceSpec("svc-b", DIM, (SHARED_STAGE, StageSpec("tail-b", 9003, DIM, 40_000)))
CATALOG = {"svc-a": SVC_A, "svc-b": SVC_B}
LOOKUP_US = 1000


@pytest.fixture
def family():
    return LshFamily(DIM, k=16, tables=4, seed=2)


def make_task(v, service_id="svc-a", device_id="dev0", threshold=0.9, **kw):
    return TaskEnvelope(0, device_id, service_id, v, threshold, **kw)


def make_store(family, radius=0):
    return ReuseStore(family, 64, BIG, probe_radius=radius)


def entry_for(v, svc=SVC_A):
    res = execute_service(svc, np.asarray(v, dtype=float))
    stage_outputs = {s.stage_id: out for s, out in zip(svc.stages, res.stage_outputs)}
    return ReuseEntry(np.asarray(v, dtype=float), svc.service_id, stage_outputs,
                      res.output, res.label)


class TestPartition:
    def test_single_server_owns_everything(self):
        table = partition_hash_space(["s0"])
        assert len(table.ranges) == 1
        assert (table.ranges[0].lo, table.ranges[0].hi) == (0, 65535)

    def test_three_way_split_widths(self):
        table = partition_hash_space(["s2", "s0", "s1"])
        widths = [r.width for r in table.ranges]
        assert widths == [21845, 21845, 21846]
        assert [r.server_id for r in table.ranges] == ["s0", "s1", "s2"]
        assert sum(widths) == FORWARDING_SPACE

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_covers_space_for_any_count(self, n):
        table = partition_hash_space([f"s{i}" for i in range(n)])
        assert table.ranges[0].lo == 0
        assert table.ranges[-1].hi == 65535
        assert sum(r.width for r in table.ranges) == FORWARDING_SPACE

    def test_server_for_boundaries(self):
        table = partition_hash_space(["a", "b", "c"])
        assert table.server_for(0) == "a"
        assert table.server_for(12000) == "a"
        assert table.server_for(21844) == "a"
        assert table.server_for(21845) == "b"
        assert table.server_for(40000) == "b"
        assert table.server_for(43690) == "c"
        assert table.server_for(65535) == "c"

    def test_server_for_range_checked(self):
        table = partition_hash_space(["a"])
        with pytest.raises(ValueError):
            table.server_for(-1)
        with pytest.raises(ValueError):
            table.server_for(65536)

    def test_duplicate_and_empty_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            partition_hash_space(["a", "a"])
        with pytest.raises(ValueError, match="zero servers"):
            partition_hash_space([])

    def test_table_validation(self):
        with pytest.raises(ValueError, match="cover"):
            ForwardingTable([HashRange(1, 65535, "a")])
        with pytest.raises(ValueError, match="invalid hash range"):
            HashRange(10, 9, "a")
        with pytest.raises(ValueError, match="gap or overlap"):
            ForwardingTable([HashRange(0, 10, "a"), HashRange(12, 65535, "b")])
        with pytest.raises(ValueError, match="at least one"):
            ForwardingTable([])


def report_for(executed):
    return LoadReport(executed)


class TestRebalance:
    def test_moves_quarter_of_hot_range(self):
        table = partition_hash_space(["s0", "s1"])
        new = rebalance(table, report_for({"s0": 100, "s1": 0}), 0.25)
        assert new.version == 2
        assert [(r.lo, r.hi, r.server_id) for r in new.ranges] == [
            (0, 24575, "s0"), (24576, 65535, "s1")]

    def test_balanced_table_unchanged(self):
        table = partition_hash_space(["s0", "s1"])
        assert rebalance(table, report_for({"s0": 5, "s1": 5}), 0.25) is table
        assert rebalance(table, report_for({"s0": 6, "s1": 5}), 0.25) is table

    def test_donor_keeps_at_least_one_value(self):
        table = ForwardingTable([HashRange(0, 1, "s0"), HashRange(2, 65535, "s1")])
        new = rebalance(table, report_for({"s0": 100, "s1": 0}), 0.5)
        assert new.ranges[0].width == 1
        new2 = rebalance(new, report_for({"s0": 100, "s1": 0}), 0.5)
        assert new2 is new

    def test_non_adjacent_cold_shifts_toward_lighter_neighbor(self):
        table = partition_hash_space(["s0", "s1", "s2"])
        # s1 is hottest and s0/s2 are its neighbors; s2 is lighter.
        new = rebalance(table, report_for({"s0": 50, "s1": 100, "s2": 10}), 0.25)
        assert new.ranges[0] == table.ranges[0]
        assert new.ranges[2].lo < table.ranges[2].lo
        assert new.ranges[2].server_id == "s2"

    def test_step_fraction_validated(self):
        table = partition_hash_space(["s0", "s1"])
        report = report_for({"s0": 9, "s1": 0})
        for bad in (0.0, -0.1, 0.51, 1.0):
            with pytest.raises(ValueError, match="step_fraction"):
                rebalance(table, report, bad)

    def test_report_must_cover_table(self):
        table = partition_hash_space(["s0", "s1"])
        with pytest.raises(ValueError, match="missing servers"):
            rebalance(table, report_for({"s0": 9}), 0.25)

    @settings(deadline=None, max_examples=60)
    @given(loads=st.lists(st.integers(0, 10**6), min_size=2, max_size=6),
           step=st.floats(0.01, 0.5, allow_nan=False),
           rounds=st.integers(1, 10))
    def test_rebalance_chain_preserves_invariants(self, loads, step, rounds):
        ids = [f"s{i}" for i in range(len(loads))]
        table = partition_hash_space(ids)
        report = report_for(dict(zip(ids, loads)))
        for _ in range(rounds):
            table = rebalance(table, report, step)
        assert table.ranges[0].lo == 0
        assert table.ranges[-1].hi == 65535
        for a, b in zip(table.ranges, table.ranges[1:]):
            assert b.lo == a.hi + 1
        assert all(r.width >= 1 for r in table.ranges)
        assert table.server_ids() == sorted(ids)


class TestNodeValidation:
    def test_device_cache_needs_hashing(self, family):
        with pytest.raises(ValueError, match="can_hash"):
            DeviceNode("dev0", "r0", 1000, False, 0, make_store(family))

    def test_device_link_positive(self):
        with pytest.raises(ValueError, match="link delay"):
            DeviceNode("dev0", "r0", 0, True, 1800)

    def test_router_needs_links(self):
        with pytest.raises(ValueError, match="server link"):
            RouterNode("r0", {}, 1800)
        with pytest.raises(ValueError, match="delay to"):
            RouterNode("r0", {"s0": 0}, 1800)

    def test_store_type_checked(self):
        with pytest.raises(TypeError, match="store"):
            ServerNode("s0", CATALOG, store="not-a-store")

    def test_disabled_store_counts_as_none(self, family):
        # A store with no capacity cannot be built; the node takes None,
        # which a device that cannot hash accepts, as it refuses a real store.
        with pytest.raises(ValueError, match="store=None"):
            ReuseStore(family, 0, 0)
        dev = DeviceNode("dev0", "r0", 1000, False, 0, None)
        assert dev.store is None


class TestDeviceOffload:
    def test_wrong_device_rejected(self, family):
        dev = DeviceNode("dev0", "r0", 1000, True, 1800)
        with pytest.raises(ValueError, match="offered to"):
            device_offload(dev, make_task(np.ones(DIM), device_id="dev1"), family, LOOKUP_US)

    def test_storeless_device_attaches_hash(self, family):
        dev = DeviceNode("dev0", "r0", 1000, True, 1800)
        v = np.arange(1.0, DIM + 1)
        out = device_offload(dev, make_task(v), family, LOOKUP_US)
        assert out.payload is None
        assert [(s.kind, s.cost_us) for s in out.steps] == [("hash", 1800)]
        assert out.envelope.forwarding_hash == forwarding_hash(family, v)

    def test_weak_device_passes_through(self, family):
        dev = DeviceNode("dev1", "r1", 1000, False, 0)
        task = make_task(np.ones(DIM), device_id="dev1")
        out = device_offload(dev, task, family, LOOKUP_US)
        assert out.steps == ()
        assert out.envelope is task
        assert out.envelope.forwarding_hash is None

    def test_attached_hash_is_not_recomputed(self, family):
        dev = DeviceNode("dev0", "r0", 1000, True, 1800)
        task = make_task(np.ones(DIM), forwarding_hash=77)
        out = device_offload(dev, task, family, LOOKUP_US)
        assert out.steps == ()
        assert out.envelope.forwarding_hash == 77

    def test_local_hit_costs_one_lookup(self, family):
        store = make_store(family)
        v = np.arange(1.0, DIM + 1)
        store.insert(entry_for(v))
        dev = DeviceNode("dev0", "r0", 1000, True, 1800, store)
        out = device_offload(dev, make_task(v), family, LOOKUP_US)
        assert out.payload is not None
        assert out.payload.reuse_layer is ReuseLayer.DEVICE
        assert [(s.kind, s.cost_us) for s in out.steps] == [("lookup", 1000)]
        assert np.array_equal(out.payload.output, execute_service(SVC_A, v).output)

    def test_lookup_is_service_filtered(self, family):
        store = make_store(family)
        v = np.arange(1.0, DIM + 1)
        store.insert(entry_for(v, SVC_A))
        dev = DeviceNode("dev0", "r0", 1000, True, 1800, store)
        out = device_offload(dev, make_task(v, service_id="svc-b"), family, LOOKUP_US)
        assert out.payload is None
        assert [s.kind for s in out.steps] == ["lookup", "hash"]


class TestRouterForward:
    def test_hashes_for_weak_devices(self, family):
        router = RouterNode("r0", {"s0": 3000}, 1800)
        table = partition_hash_space(["s0"])
        v = np.arange(1.0, DIM + 1)
        out = router_forward(router, make_task(v), family, LOOKUP_US, table)
        assert [(s.kind, s.cost_us) for s in out.steps] == [("hash", 1800)]
        assert out.envelope.forwarding_hash == forwarding_hash(family, v)
        assert out.next_server == "s0"

    def test_forwards_by_hash_range(self, family):
        router = RouterNode("r0", {"s0": 3000, "s1": 3000}, 1800)
        table = partition_hash_space(["s0", "s1"])
        v = np.arange(1.0, DIM + 1)
        h = forwarding_hash(family, v)
        out = router_forward(router, make_task(v, forwarding_hash=h), family, LOOKUP_US, table)
        assert out.steps == ()
        assert out.next_server == table.server_for(h)

    def test_network_hit_short_circuits(self, family):
        store = make_store(family)
        v = np.arange(1.0, DIM + 1)
        store.insert(entry_for(v))
        router = RouterNode("r0", {"s0": 3000}, 1800, store)
        table = partition_hash_space(["s0"])
        out = router_forward(router, make_task(v, forwarding_hash=1), family, LOOKUP_US, table)
        assert out.payload.reuse_layer is ReuseLayer.NETWORK
        assert out.next_server is None
        assert [(s.kind, s.cost_us) for s in out.steps] == [("lookup", 1000)]

    def test_missing_link_is_an_error(self, family):
        router = RouterNode("r0", {"s0": 3000}, 1800)
        table = partition_hash_space(["s0", "zz"])
        v = -np.arange(1.0, DIM + 1)
        h = forwarding_hash(family, v)
        if table.server_for(h) == "s0":
            v = -v
            h = forwarding_hash(family, v)
        assert table.server_for(h) == "zz"
        with pytest.raises(ValueError, match="no link"):
            router_forward(router, make_task(v, forwarding_hash=h), family, LOOKUP_US, table)


class TestServerHandle:
    def test_unknown_service(self, family):
        server = ServerNode("s0", CATALOG, make_store(family))
        task = make_task(np.ones(DIM), service_id="svc-zz")
        with pytest.raises(UnknownServiceError):
            server_handle(server, task, LOOKUP_US)

    def test_cold_store_executes_everything(self, family):
        server = ServerNode("s0", CATALOG, make_store(family))
        v = np.arange(1.0, DIM + 1)
        out = server_handle(server, make_task(v), LOOKUP_US)
        assert out.payload.reuse_layer is ReuseLayer.NONE
        assert (out.executed_stages, out.reused_stages) == (2, 0)
        assert out.exec_busy_us == 100_000
        assert [(s.kind, s.cost_us) for s in out.steps] == [
            ("lookup", 1000), ("stage_lookup", 0), ("stage_exec", 60_000),
            ("stage_lookup", 0), ("stage_exec", 40_000)]
        truth = execute_service(SVC_A, v)
        assert np.array_equal(out.payload.output, truth.output)
        assert out.payload.label == truth.label
        assert set(out.entry.stage_outputs) == {"stage-shared", "tail-a"}
        # Counter updates are the caller's job, applied at completion time.
        assert server.executed_count == 0 and server.busy_us == 0

    def test_full_hit_returns_stored_result(self, family):
        store = make_store(family)
        v = np.arange(1.0, DIM + 1)
        eid = store.insert(entry_for(v))
        server = ServerNode("s0", CATALOG, store)
        out = server_handle(server, make_task(v), LOOKUP_US)
        assert out.payload.reuse_layer is ReuseLayer.SERVER
        assert out.payload.source_entry == eid
        assert out.entry is None
        assert (out.executed_stages, out.reused_stages) == (0, 0)
        assert [(s.kind, s.cost_us) for s in out.steps] == [("lookup", 1000)]

    def test_partial_reuse_across_services(self, family):
        store = make_store(family)
        v = np.arange(1.0, DIM + 1)
        store.insert(entry_for(v, SVC_A))
        server = ServerNode("s0", CATALOG, store)
        out = server_handle(server, make_task(v, service_id="svc-b"), LOOKUP_US)
        assert out.payload.reuse_layer is ReuseLayer.PARTIAL_SERVER
        assert (out.executed_stages, out.reused_stages) == (1, 1)
        assert out.exec_busy_us == 40_000
        assert [(s.kind, s.cost_us) for s in out.steps] == [
            ("lookup", 1000), ("stage_lookup", 1000), ("stage_lookup", 0),
            ("stage_exec", 40_000)]
        truth = execute_service(SVC_B, v)
        assert np.array_equal(out.payload.output, truth.output)
        assert out.entry is not None and out.entry.service_id == "svc-b"

    def test_storeless_server_returns_no_entry(self):
        server = ServerNode("s0", CATALOG, None)
        v = np.arange(1.0, DIM + 1)
        out = server_handle(server, make_task(v), LOOKUP_US)
        assert out.entry is None
        assert out.executed_stages == 2
        assert [(s.kind, s.cost_us) for s in out.steps] == [
            ("stage_exec", 60_000), ("stage_exec", 40_000)]


class TestOwnGroundTruth:
    """A server given the task's own result takes the stages it would run
    from it until a stage is reused; every later stage runs for real."""

    def test_stages_after_a_reuse_run_on_the_reused_output(self, family):
        store = make_store(family, radius=1)
        v = np.arange(1.0, DIM + 1)
        other = v * np.linspace(1.0, 1.01, DIM)
        stored = store.get(store.insert(entry_for(other, SVC_A)))
        truth = execute_service(SVC_B, v)
        poison = np.full(DIM, 0.5)
        poison.setflags(write=False)
        own = ServiceResult(poison, 99, (truth.stage_outputs[0], poison))
        server = ServerNode("s0", CATALOG, store)
        out = server_handle(server, make_task(v, service_id="svc-b"), LOOKUP_US, own=own)
        assert out.payload.reuse_layer is ReuseLayer.PARTIAL_SERVER
        assert (out.executed_stages, out.reused_stages) == (1, 1)
        reused = stored.stage_outputs["stage-shared"]
        assert not np.array_equal(reused, truth.stage_outputs[0])
        want = execute_stage(SVC_B.stages[1], reused)
        assert out.payload.output.tobytes() == want.tobytes()
        assert out.payload.label == label_of(SVC_B, want)
        assert out.entry.stage_outputs["tail-b"].tobytes() == want.tobytes()

    @pytest.mark.parametrize("with_store", [True, False])
    def test_nothing_reused_runs_no_stage(self, family, monkeypatch, with_store):
        calls = []
        monkeypatch.setattr(edgereuse.fabric, "execute_stage", lambda *args: calls.append(args))
        v = np.arange(1.0, DIM + 1)
        own = execute_service(SVC_A, v)
        server = ServerNode("s0", CATALOG, make_store(family) if with_store else None)
        out = server_handle(server, make_task(v), LOOKUP_US, own=own)
        assert calls == []
        assert out.payload.reuse_layer is ReuseLayer.NONE
        assert out.payload.output is own.output and out.payload.label == own.label
        assert (out.executed_stages, out.exec_busy_us) == (2, 100_000)
        if with_store:
            kept = [out.entry.stage_outputs[s.stage_id] for s in SVC_A.stages]
            assert all(a is b for a, b in zip(kept, own.stage_outputs, strict=True))


class TestPreparedQueryTravels:
    """A task fingerprinted once carries its query from node to node."""

    def test_device_hash_comes_from_the_query(self, family):
        v = np.arange(1.0, DIM + 1)
        q = family.prepare(v)
        dev = DeviceNode("dev0", "r0", 100, True, 1800, make_store(family))
        out = device_offload(dev, make_task(q.vector, query=q), family, LOOKUP_US)
        assert out.envelope.forwarding_hash == forwarding_hash(family, v)
        assert out.envelope.query is q and out.envelope.input is q.vector

    def test_router_ignores_a_query_of_another_family(self, family):
        v = np.arange(1.0, DIM + 1)
        foreign = LshFamily(DIM, k=16, tables=4, seed=99).prepare(v)
        router = RouterNode("r0", {"s0": 100}, 1800, make_store(family))
        router.store.insert(entry_for(v))
        out = router_forward(router, make_task(v, query=foreign), family, LOOKUP_US,
                             partition_hash_space(["s0"]))
        assert out.envelope.forwarding_hash == forwarding_hash(family, v)
        assert out.payload is not None and out.payload.reuse_layer is ReuseLayer.NETWORK

    def test_envelope_rejects_a_query_of_another_input(self, family):
        with pytest.raises(ValueError, match="task input"):
            make_task(np.ones(DIM), query=family.prepare(np.arange(1.0, DIM + 1)))

    def test_server_visit_gathers_candidates_once(self, family):
        # The whole-task miss and both stage lookups share one gathering
        # pass: every table's bucket is probed once.
        store = make_store(family)
        v = np.arange(1.0, DIM + 1)
        store.insert(entry_for(v, SVC_A))
        probes = []

        class CountedTable(dict):
            def get(self, key, default=None):
                probes.append(key)
                return super().get(key, default)

        store._tables = [CountedTable(table) for table in store._tables]
        q = family.prepare(v)
        out = server_handle(ServerNode("s0", CATALOG, store),
                            make_task(q.vector, service_id="svc-b", query=q), LOOKUP_US)
        assert out.payload.reuse_layer is ReuseLayer.PARTIAL_SERVER
        assert [s.kind for s in out.steps] == ["lookup", "stage_lookup", "stage_lookup",
                                               "stage_exec"]
        assert len(probes) == family.tables


class TestHitStampsTheEndOfItsLookup:
    """A hit stamps the simulated time its lookup ends as the entry's
    last_access, which orders LRU eviction: a visit at NOW adds the cost of
    every step up to and including the lookup that hit."""

    NOW = 50_000
    HASH_US = 2500

    def stored(self, family, svc=SVC_A):
        store = make_store(family)
        v = np.arange(1.0, DIM + 1)
        entry = store.get(store.insert(entry_for(v, svc)))
        assert entry.last_access == 0
        return store, v, entry

    def test_device_lookup(self, family):
        store, v, entry = self.stored(family)
        dev = DeviceNode("dev0", "r0", 1000, True, self.HASH_US, store)
        out = device_offload(dev, make_task(v), family, LOOKUP_US, now=self.NOW)
        assert out.payload.reuse_layer is ReuseLayer.DEVICE
        assert entry.last_access == self.NOW + LOOKUP_US

    def test_router_lookup_after_its_hash(self, family):
        store, v, entry = self.stored(family)
        router = RouterNode("r0", {"s0": 3000}, self.HASH_US, store)
        out = router_forward(router, make_task(v), family, LOOKUP_US,
                             partition_hash_space(["s0"]), now=self.NOW)
        assert [s.kind for s in out.steps] == ["hash", "lookup"]
        assert out.payload.reuse_layer is ReuseLayer.NETWORK
        assert entry.last_access == self.NOW + self.HASH_US + LOOKUP_US

    def test_server_whole_task_lookup(self, family):
        store, v, entry = self.stored(family)
        out = server_handle(ServerNode("s0", CATALOG, store), make_task(v), LOOKUP_US,
                            now=self.NOW)
        assert out.payload.reuse_layer is ReuseLayer.SERVER
        assert entry.last_access == self.NOW + LOOKUP_US

    def test_server_stage_lookup_after_the_whole_task_miss(self, family):
        store, v, entry = self.stored(family)
        out = server_handle(ServerNode("s0", CATALOG, store), make_task(v, service_id="svc-b"),
                            LOOKUP_US, now=self.NOW)
        assert [(s.kind, s.detail) for s in out.steps[:2]] == [
            ("lookup", "server:miss"), ("stage_lookup", "stage:stage-shared:reused")]
        assert entry.last_access == self.NOW + 2 * LOOKUP_US
