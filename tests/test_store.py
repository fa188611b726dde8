import collections
import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edgereuse import store as store_module
from edgereuse.core import SELF_SIMILARITY_SNAP, similarity
from edgereuse.hashing import LshFamily
from edgereuse.store import HEAP_SLACK, OversizedEntryError, ReuseEntry, ReuseStore, length_bytes

BIG = 10_000_000


def make_entry(key, service_id="svc", stages=None, label=0, **kw):
    key = np.asarray(key, dtype=float)
    return ReuseEntry(key, service_id, stages or {}, key * 2.0, label, **kw)


@pytest.fixture
def family():
    return LshFamily(8, k=6, tables=2, seed=13)


@pytest.fixture
def store(family):
    return ReuseStore(family, capacity_entries=16, capacity_bytes=BIG)


class TestSizing:
    def test_length_bytes(self):
        assert length_bytes(64) == 8 * 64 + 64 == 576
        assert length_bytes(1) == 72

    def test_entry_size_sums_all_vectors(self):
        entry = ReuseEntry(np.zeros(64) + 1, "svc",
                           {"a": np.ones(64), "b": np.ones(64)}, np.ones(64), 0)
        assert entry.size_bytes == 4 * 576 == 2304

    def test_entry_freezes_vectors_and_clamps_access(self):
        entry = make_entry([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], insert_time=50)
        assert not entry.key_input.flags.writeable
        assert not entry.output.flags.writeable
        assert entry.last_access == 50

    def test_every_field_owns_its_copy(self):
        # One array in several fields, and a read-only view of a base that
        # later changes: every field keeps its own frozen copy.
        base = np.arange(1.0, 17.0)
        view = base[::2]
        view.setflags(write=False)
        entry = ReuseEntry(view, "svc", {"a": view}, view, 0)
        fields = [entry.key_input, entry.stage_outputs["a"], entry.output]
        base[:] = 0.0
        for i, f in enumerate(fields):
            assert f.tolist() == list(np.arange(1.0, 17.0, 2.0))
            assert not np.shares_memory(f, base)
            assert all(not np.shares_memory(f, g) for g in fields[i + 1:])


class TestInsertLookup:
    def test_exact_hit_has_similarity_one(self, store, rng):
        v = rng.standard_normal(8)
        eid = store.insert(make_entry(v))
        out = store.lookup(v, 1.0)
        assert out.hit and out.entry_id == eid and out.similarity == 1.0

    def test_ids_are_sequential(self, store, rng):
        ids = [store.insert(make_entry(rng.standard_normal(8))) for _ in range(4)]
        assert ids == [0, 1, 2, 3]

    def test_threshold_gates_neighbors(self, store):
        v = np.ones(8)
        store.insert(make_entry(v))
        near = v + np.array([0.3, 0, 0, 0, 0, 0, 0, 0])
        sim = similarity(v, near)
        assert store.lookup(near, sim - 0.001).hit
        assert not store.lookup(near, min(1.0, sim + 0.001)).hit

    def test_miss_on_empty(self, store):
        out = store.lookup(np.ones(8), 0.0)
        assert not out.hit and out.entry_id is None and out.similarity is None

    def test_lookup_similarity_matches_core_metric(self, family, rng):
        # With exhaustive probing the vectorized scoring must rank exactly
        # like the scalar metric; the float value itself may differ by
        # kernel rounding (a few ulp).
        store = ReuseStore(family, 16, BIG, probe_radius=family.k)
        kept = []
        for _ in range(12):
            v = rng.standard_normal(8)
            store.insert(make_entry(v))
            kept.append(v)
        q = rng.standard_normal(8)
        out = store.lookup(q, 0.0)
        sims = [similarity(q, v) for v in kept]
        assert out.hit
        assert out.entry_id == int(np.argmax(sims))
        assert out.similarity == pytest.approx(max(sims), abs=1e-14)

    def test_tie_goes_to_smallest_id(self, store):
        v = np.arange(1.0, 9.0)
        both = {"s": np.ones(2), "t": np.ones(2)}
        store.insert(make_entry(v, service_id="svc-a", stages={"t": np.ones(2)}))
        store.insert(make_entry(v.copy(), service_id="svc-b", stages=both))
        store.insert(make_entry(v.copy(), service_id="svc-b", stages=both))
        out = store.lookup(v, 0.9)
        assert out.entry_id == 0
        # The same rule among the candidates a filter keeps.
        assert store.lookup(v, 0.9, stage="t").entry_id == 0
        assert store.lookup(v, 0.9, service="svc-b").entry_id == 1
        assert store.lookup(v, 0.9, stage="s").entry_id == 1
        assert store.lookup(v, 0.9, service="svc-b", stage="t").entry_id == 1

    def test_hit_updates_recency_and_count(self, store):
        v = np.ones(8)
        eid = store.insert(make_entry(v))
        store.lookup(v, 0.5, now=40)
        store.lookup(v, 0.5, now=90)
        entry = store.get(eid)
        assert entry.hit_count == 2
        assert entry.last_access == 90

    def test_service_filter(self, store):
        v = np.ones(8)
        store.insert(make_entry(v, service_id="svc-a"))
        out = store.lookup(v, 0.5, service="svc-b")
        assert not out.hit
        assert store.lookup(v, 0.5, service="svc-a").hit

    def test_service_and_stage_filters_combine(self, store):
        v = np.ones(8)
        store.insert(make_entry(v, service_id="svc-a", stages={"s1": np.ones(2)}))
        b = store.insert(make_entry(v, service_id="svc-b", stages={"s2": np.ones(2)}))
        assert not store.lookup(v, 0.5, service="svc-a", stage="s2").hit
        assert store.lookup(v, 0.5, service="svc-b", stage="s2").entry_id == b

    def test_lookup_stage_filters_on_membership(self, store):
        v = np.ones(8)
        store.insert(make_entry(v, stages={"stage-a": np.ones(4)}))
        assert store.lookup_stage("stage-a", v, 0.9).hit
        assert not store.lookup_stage("stage-b", v, 0.9).hit

    def test_dim_mismatch_rejected(self, store):
        with pytest.raises(ValueError, match="dim"):
            store.insert(make_entry(np.ones(4)))
        with pytest.raises(ValueError):
            store.lookup(np.ones(4), 0.5)

    @pytest.mark.parametrize("key", [np.ones(4), np.zeros(8)], ids=["wrong-dim", "all-zero"])
    def test_rejected_insert_evicts_nothing(self, family, key):
        store = ReuseStore(family, 1, BIG)
        kept = store.insert(make_entry(np.ones(8)))
        with pytest.raises(ValueError):
            store.insert(make_entry(key))
        assert store.entry_ids() == [kept]
        store.audit()

    def test_zero_query_rejected(self, store):
        with pytest.raises(ValueError, match="all-zero"):
            store.lookup(np.zeros(8), 0.5)


class TestMultiProbe:
    def _axis_store(self, radius):
        family = LshFamily(2, k=2, tables=1, seed=0)
        planes = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        planes.setflags(write=False)
        family.hyperplanes = planes
        return ReuseStore(family, 16, BIG, probe_radius=radius)

    def test_radius_zero_misses_adjacent_bucket(self):
        # Entry [1, 1] lives in bucket 0b11; query [1, -0.1] hashes to 0b01.
        store = self._axis_store(0)
        store.insert(make_entry([1.0, 1.0]))
        out = store.lookup([1.0, -0.1], 0.2)
        assert not out.hit
        assert out.probes_used == 1

    def test_radius_one_reaches_adjacent_bucket(self):
        store = self._axis_store(1)
        store.insert(make_entry([1.0, 1.0]))
        out = store.lookup([1.0, -0.1], 0.2)
        assert out.hit
        assert out.similarity == pytest.approx(similarity([1.0, 1.0], [1.0, -0.1]))
        assert out.probes_used == 3

    def test_probes_used_counts_all_tables(self, family):
        store = ReuseStore(family, 4, BIG, probe_radius=1)
        out = store.lookup(np.ones(8), 0.5)
        assert out.probes_used == family.tables * (1 + family.k)

    def test_full_radius_equals_brute_force(self, rng):
        # Exhaustive probing must return exactly the best stored neighbor.
        family = LshFamily(8, k=6, tables=2, seed=3)
        store = ReuseStore(family, 64, BIG, probe_radius=6)
        keys = rng.standard_normal((64, 8))
        for row in keys:
            store.insert(make_entry(row))
        for _ in range(100):
            q = rng.standard_normal(8)
            sims = [similarity(q, row) for row in keys]
            best = int(np.argmax(sims))
            out = store.lookup(q, 0.0)
            assert out.hit and out.entry_id == best
            assert out.similarity == pytest.approx(sims[best], abs=1e-14)

    def test_probe_radius_validated(self, family):
        with pytest.raises(ValueError, match="probe_radius"):
            ReuseStore(family, 4, BIG, probe_radius=7)

    @pytest.mark.parametrize("name, value", [
        ("capacity_entries", 5.5), ("capacity_entries", True), ("capacity_entries", "4"),
        ("capacity_entries", np.float64(4.0)), ("capacity_bytes", 1e6),
        ("capacity_bytes", False), ("capacity_bytes", None), ("probe_radius", 1.5),
        ("probe_radius", True), ("probe_radius", np.True_)])
    def test_integer_arguments_must_be_integers(self, family, name, value):
        args = {"capacity_entries": 4, "capacity_bytes": BIG, "probe_radius": 1, name: value}
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            ReuseStore(family, **args)

    def test_numpy_integer_arguments_pass_as_ints(self, family):
        store = ReuseStore(family, np.int32(4), np.int64(BIG), probe_radius=np.uint8(1))
        assert (store.capacity_entries, store.capacity_bytes, store.probe_radius) == (4, BIG, 1)
        assert {type(store.capacity_entries), type(store.capacity_bytes),
                type(store.probe_radius)} == {int}
        store.insert(make_entry(np.ones(8)))
        assert store.lookup(np.ones(8), 0.9).hit
        store.audit()


class TestEviction:
    def test_lru_walkthrough(self, family):
        store = ReuseStore(family, 2, BIG, policy="lru")
        a = store.insert(make_entry(np.ones(8), insert_time=1))
        b = store.insert(make_entry(np.arange(1.0, 9.0), insert_time=2))
        store.lookup(np.ones(8), 0.9, now=10)
        c = store.insert(make_entry(-np.arange(1.0, 9.0), insert_time=20))
        assert store.entry_ids() == [a, c]
        assert b not in store.entry_ids()
        store.audit()

    def test_lfu_prefers_cold_entries(self, family):
        store = ReuseStore(family, 2, BIG, policy="lfu")
        a = store.insert(make_entry(np.ones(8), insert_time=1))
        b = store.insert(make_entry(np.arange(1.0, 9.0), insert_time=2))
        store.lookup(np.ones(8), 0.9, now=3)
        store.lookup(np.ones(8), 0.9, now=4)
        store.lookup(np.arange(1.0, 9.0), 0.9, now=5)
        c = store.insert(make_entry(-np.arange(1.0, 9.0), insert_time=6))
        assert store.entry_ids() == [a, c]
        store.audit()

    def test_byte_capacity_evicts_several(self, family):
        # Each 8-dim entry is 2 vectors * 128 = 256 bytes.
        entry_size = make_entry(np.ones(8)).size_bytes
        assert entry_size == 256
        store = ReuseStore(family, 16, 3 * entry_size, policy="lru")
        for i in range(3):
            store.insert(make_entry(np.arange(1.0, 9.0) + i, insert_time=i))
        evicted_before = store.entry_ids()
        store.insert(make_entry(np.arange(1.0, 9.0) + 9, insert_time=9))
        assert len(store) == 3
        assert store.total_bytes == 3 * entry_size
        assert store.entry_ids() == evicted_before[1:] + [3]
        store.audit()

    def test_oversized_entry_rejected_without_eviction(self, family):
        store = ReuseStore(family, 4, 300)
        store.insert(make_entry(np.ones(8)))
        big = ReuseEntry(np.ones(8), "svc", {"s": np.ones(8)}, np.ones(8), 0)
        assert big.size_bytes > 300
        with pytest.raises(OversizedEntryError):
            store.insert(big)
        assert len(store) == 1

    def test_zero_entry_capacity_store_is_disabled(self, family):
        # A store that could hold no entry is no store: it cannot be built,
        # so no insert can reach it, and the node takes None.
        with pytest.raises(ValueError, match="store=None"):
            ReuseStore(family, 0, BIG)

    def test_zero_capacity_rejected(self, family):
        for entries, nbytes in ((16, 0), (0, 0)):
            with pytest.raises(ValueError, match="store=None"):
                ReuseStore(family, entries, nbytes)

    def test_explicit_evict_frees_headroom(self, family):
        store = ReuseStore(family, 4, BIG)
        for i in range(4):
            store.insert(make_entry(np.arange(1.0, 9.0) + i, insert_time=i))
        evicted = store.evict(needed_entries=2)
        assert evicted == [0, 1]
        assert len(store) == 2
        store.audit()

    def test_policy_names(self, family):
        assert ReuseStore(family, 1, 1).policy == "lru"
        assert ReuseStore(family, 1, 1, policy="lfu").policy == "lfu"
        assert ReuseStore(family, 1, 1, policy="LRU").policy == "lru"

    class _NamedLru:
        def __str__(self):
            return "lru"

    @pytest.mark.parametrize("policy", ["fifo", "", _NamedLru(), None],
                             ids=["unknown-name", "empty-name", "object", "none"])
    def test_policy_other_than_a_name_rejected(self, family, policy):
        with pytest.raises(ValueError, match="unknown eviction policy .*; expected one of lfu, lru"):
            ReuseStore(family, 1, 1, policy=policy)

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_hits_keep_heap_bounded_and_order_intact(self, family, rng, policy):
        # Every hit pushes a fresh eviction key; repeated access times also
        # push duplicates. The heap must stay within its bound while the
        # eviction order still follows the policy's current keys.
        store = ReuseStore(family, 8, BIG, policy=policy)
        keys = rng.standard_normal((8, 8))
        for i, key in enumerate(keys):
            store.insert(make_entry(key, insert_time=i))
        for t in range(8, 1000):
            assert store.lookup(keys[rng.integers(8)], 1.0, now=t // 3).hit
            assert len(store._heap) <= 2 * len(store) + HEAP_SLACK
        store.audit()
        order = {"lru": lambda e: (e.last_access,), "lfu": lambda e: (e.hit_count, e.last_access)}
        expected = sorted(store.entry_ids(), key=lambda i: (order[policy](store.get(i)), i))
        assert store.evict(needed_entries=8) == expected
        store.audit()

    def test_audit_passes_with_the_heap_at_its_bound(self, family):
        # Every hit leaves a stale key behind, and the heap is rebuilt only
        # once it is over its bound: a heap exactly at the bound is sound.
        store = ReuseStore(family, 1, BIG)
        key = np.arange(1.0, 9.0)
        store.insert(make_entry(key))
        bound = 2 * len(store) + HEAP_SLACK
        for t in range(bound - 1):
            assert store.lookup(key, 1.0, now=t).hit
        assert len(store._heap) == bound
        store.audit()

    def test_churn_keeps_invariants(self, family, rng):
        store = ReuseStore(family, 8, 6 * 256, policy="lfu")
        for i in range(100):
            store.insert(make_entry(rng.standard_normal(8), insert_time=i))
            if i % 3 == 0:
                store.lookup(rng.standard_normal(8), 0.2, now=i)
            store.audit()
        assert len(store) <= 6


class TestPreparedQuery:
    def test_prepared_lookups_and_inserts_equal_raw(self, family, rng):
        raw = ReuseStore(family, 8, BIG, probe_radius=2)
        prepared = ReuseStore(family, 8, BIG, probe_radius=2)
        keys = rng.standard_normal((12, 8))
        for i, key in enumerate(keys):
            assert raw.insert(make_entry(key, insert_time=i)) == \
                prepared.insert(make_entry(key, insert_time=i), family.prepare(key))
        for t, q in enumerate(np.vstack([keys, rng.standard_normal((20, 8))])):
            assert raw.lookup(q, 0.3, now=t) == prepared.lookup(family.prepare(q), 0.3, now=t)
        assert raw.entry_ids() == prepared.entry_ids()
        raw.audit()
        prepared.audit()

    def test_query_holds_vector_norm_and_every_table(self, family):
        v = np.arange(1.0, 9.0)
        q = family.prepare(v)
        assert q.family is family
        assert not q.vector.flags.writeable and np.array_equal(q.vector, v)
        assert q.norm == float(np.linalg.norm(v))
        assert q.bits == tuple(sum(1 << j for j, dot in enumerate(planes @ v) if dot > 0)
                               for planes in family.hyperplanes)

    def test_prepare_validates(self, family):
        with pytest.raises(ValueError, match="all-zero"):
            family.prepare(np.zeros(8))
        with pytest.raises(ValueError, match="dim"):
            family.prepare(np.ones(5))
        with pytest.raises(ValueError, match="NaN"):
            family.prepare([1.0, float("nan")] + [0.0] * 6)

    def test_query_of_another_family_rejected(self, store):
        other = LshFamily(8, k=6, tables=2, seed=13)
        q = other.prepare(np.ones(8))
        with pytest.raises(ValueError, match="LshFamily"):
            store.lookup(q, 0.5)
        with pytest.raises(ValueError, match="LshFamily"):
            store.insert(make_entry(np.ones(8)), q)
        assert len(store) == 0

    def test_insert_query_must_be_of_the_key(self, store, family):
        with pytest.raises(ValueError, match="entry key"):
            store.insert(make_entry(np.ones(8)), family.prepare(np.arange(1.0, 9.0)))
        assert len(store) == 0

    def test_filtered_lookups_of_one_query_equal_raw_lookups(self, family):
        # Lookups of one query object share a scoring pass; each must equal
        # the same lookup of the raw vector on a twin store.
        stores = [ReuseStore(family, 16, BIG) for _ in range(2)]
        v = np.ones(8)
        for store in stores:
            store.insert(make_entry(v, service_id="svc-a", stages={"s1": np.ones(2)}))
            store.insert(make_entry(v, service_id="svc-b", stages={"s2": np.ones(2)}))
            store.insert(make_entry(v + 0.1, service_id="svc-a", stages={"s2": np.ones(2)}))
        shared, raw = stores
        q = family.prepare(v)
        filters = [{"service": "svc-b"}, {"service": "svc-a"}, {"stage": "s1"}, {"stage": "s2"},
                   {"stage": "s3"}, {"service": "svc-a", "stage": "s2"}, {}]
        for now, kw in enumerate(filters):
            assert shared.lookup(q, 0.9, now=now, **kw) == raw.lookup(v, 0.9, now=now, **kw)
        assert shared.lookup_stage("s2", q, 0.9) == raw.lookup_stage("s2", v, 0.9)

    def test_one_query_sees_inserts_and_evictions(self, store, family):
        v = np.ones(8)
        q = family.prepare(v)
        assert not store.lookup(q, 0.5).hit
        a = store.insert(make_entry(v))
        assert store.lookup(q, 0.5).entry_id == a
        assert not store.lookup_stage("s", q, 0.5).hit
        b = store.insert(make_entry(v, stages={"s": np.ones(2)}))
        assert store.lookup_stage("s", q, 0.5).entry_id == b
        assert store.evict(needed_entries=15) == [a]
        assert store.lookup(q, 0.5).entry_id == b
        assert store.evict(needed_entries=16) == [b]
        assert not store.lookup(q, 0.5).hit
        assert not store.lookup_stage("s", q, 0.5).hit


class TestOverflowingInputs:
    """A key whose norm overflows float64 used to be stored with norm inf,
    and a later lookup of it hit with similarity NaN."""

    HUGE = np.full(8, 1e308)

    def test_prepare_rejects_overflowing_norm(self, family):
        with pytest.raises(ValueError, match="overflows"):
            family.prepare(self.HUGE)

    def test_insert_rejects_overflowing_norm(self, store):
        with pytest.raises(ValueError, match="overflows"):
            store.insert(ReuseEntry(self.HUGE, "svc", {}, np.ones(8), 0))
        assert len(store) == 0
        with pytest.raises(ValueError, match="overflows"):
            store.lookup(self.HUGE, 0.5)


_COORDS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(-4.0, 4.0), st.sampled_from([0.0, 5e-324, 1e-200, 1e154]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(keys=st.lists(arrays(np.float64, 8, elements=_COORDS), min_size=1, max_size=8),
       query=arrays(np.float64, 8, elements=_COORDS), threshold=st.floats(0.0, 1.0))
def test_every_hit_similarity_is_a_finite_fraction(keys, query, threshold):
    # Any finite keys and query: a hit's similarity is finite, in [0, 1],
    # and at least the threshold; inputs the store cannot score are refused.
    family = LshFamily(8, k=4, tables=2, seed=1)
    store = ReuseStore(family, 16, BIG, probe_radius=4)
    for key in keys:
        try:
            store.insert(ReuseEntry(key, "svc", {}, np.ones(8), 0))
        except ValueError:
            pass
    try:
        out = store.lookup(query, threshold)
    except ValueError:
        return
    if out.hit:
        assert math.isfinite(out.similarity)
        assert threshold <= out.similarity <= 1.0
    store.audit()


class TestKeyMatrix:
    """Stored keys are rows of one matrix per store, each key's only copy."""

    def test_stored_key_is_a_read_only_view_of_its_row(self, store, rng):
        key = rng.standard_normal(8)
        entry = make_entry(key)
        store.insert(entry)
        assert not entry.key_input.flags.writeable
        assert np.array_equal(entry.key_input, key)
        assert np.shares_memory(entry.key_input, store._keys)

    def test_growth_moves_live_keys_onto_the_new_matrix(self, family, rng):
        store = ReuseStore(family, 1000, BIG)
        entries = [make_entry(rng.standard_normal(8)) for _ in range(40)]
        keys = [e.key_input.copy() for e in entries]
        sizes = set()
        for e in entries:
            store.insert(e)
            sizes.add(len(store._keys))
        assert len(sizes) >= 3
        for e, key in zip(entries, keys):
            assert np.array_equal(e.key_input, key)
            assert np.shares_memory(e.key_input, store._keys)
        store.audit()

    def test_removed_entry_keeps_its_key(self, family, rng):
        store = ReuseStore(family, 2, BIG)
        first = make_entry(rng.standard_normal(8), insert_time=0)
        key = first.key_input.copy()
        store.insert(first)
        store.insert(make_entry(rng.standard_normal(8), insert_time=1))
        assert store.evict(needed_entries=1) == [0]
        assert np.array_equal(first.key_input, key)
        assert not first.key_input.flags.writeable
        assert not np.shares_memory(first.key_input, store._keys)
        # The next insert takes the freed row and overwrites it.
        store.insert(make_entry(rng.standard_normal(8), insert_time=2))
        assert len(store._free_rows) == 0 and store._rows_used == 2
        assert np.array_equal(first.key_input, key)
        assert not np.shares_memory(first.key_input, store._keys)
        store.audit()

    def test_huge_capacity_reserves_nothing_up_front(self, rng):
        family = LshFamily(64, k=16, tables=4, seed=3)
        keys = rng.standard_normal((5, 64))
        tracemalloc.start()
        try:
            store = ReuseStore(family, 10 ** 9, 10 ** 12)
            for key in keys:
                store.insert(make_entry(key))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) == 5
        assert peak < 1 << 20

    def test_rows_are_bounded_by_the_byte_capacity(self, family, rng):
        # Each entry holds a key and an output of at least one element, so
        # bytes for 20 such entries bound the key matrix at 20 rows, however
        # many entries the entry capacity would allow.
        dim = family.dim
        store = ReuseStore(family, 10 ** 6, 20 * (length_bytes(dim) + length_bytes(1)))
        for i in range(60):
            store.insert(ReuseEntry(rng.standard_normal(dim), "svc", {}, np.ones(1), 0,
                                    insert_time=i))
        assert len(store) == 20
        assert len(store._keys) == 20
        store.audit()

    @pytest.mark.parametrize("fault", ["key", "norm", "bits", "row-shared", "row-free",
                                       "row-leaked", "id", "empty-bucket"])
    def test_audit_catches_row_faults(self, store, rng, fault):
        for _ in range(3):
            store.insert(make_entry(rng.standard_normal(8)))
        assert store.evict(needed_entries=store.capacity_entries - 2) == [0]
        store.audit()
        row = store._row_of[1]
        if fault == "key":
            store._keys[row, 0] += 1.0
        elif fault == "norm":
            store._norms[row] *= 2.0
        elif fault == "bits":
            store._bits[row, 0] ^= 1
        elif fault == "row-shared":
            store._row_of[2] = row
        elif fault == "row-free":
            store._free_rows.append(row)
        elif fault == "row-leaked":
            store._free_rows.pop()
        elif fault == "empty-bucket":
            # An unused key of table 0, with an empty bucket under it.
            key = next(b for b in range(1 << store.family.k) if b not in store._tables[0])
            store._tables[0][key] = array("q")
        else:
            store._ids[row] = 2
        with pytest.raises(AssertionError):
            store.audit()


_POOL_8 = np.random.default_rng(5).standard_normal((6, 8))


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.tuples(st.integers(0, len(_POOL_8) - 1), st.integers(0, len(_POOL_8) - 1),
                              st.sampled_from([0.0, 0.05, 0.5]), st.integers(0, 2)),
                    min_size=60, max_size=90),
       radius=st.sampled_from([1, 6]))
def test_scores_bit_identical_to_stacked_keys(ops, radius):
    # Scoring gathers rows of the key matrix; the raw scores must equal, bit
    # for bit, those of the entries' keys stacked in id order, through
    # inserts, evictions and growth of the matrix from 8 to 16 to all 70 rows.
    family = LshFamily(8, k=6, tables=2, seed=13)
    store = ReuseStore(family, 70, BIG, probe_radius=radius)
    sizes = set()
    for step, (i, j, mix, evictions) in enumerate(ops):
        store.insert(make_entry(_POOL_8[i] + mix * _POOL_8[j] + 0.01 * step, insert_time=step))
        # Evicting only while the store holds a third of the steps so far
        # keeps it growing.
        if len(store) > step // 3:
            store.evict(needed_entries=store.capacity_entries - len(store) + evictions)
        sizes.add(len(store._keys))
        q = family.prepare(_POOL_8[j] + mix * _POOL_8[i])
        rows, sims = store._score(q)
        if not rows.size:
            assert not sims.size
            continue
        ordered = store._ids[rows].tolist()
        assert ordered == sorted(ordered)
        assert sims.tobytes() == _stacked_scores(store, ordered, q).tobytes()
    store.audit()
    assert sizes == {8, 16, 70}


def _stacked_scores(store, ordered, q):
    # The raw scores of the entries' keys, stacked in the given id order.
    keys = np.concatenate([store.get(e).key_input for e in ordered])
    keys = keys.reshape(len(ordered), store.family.dim)
    norms = np.array([np.linalg.norm(store.get(e).key_input) for e in ordered])
    return (keys @ q.vector) / (norms * q.norm)


def _score_rule(raw):
    # The documented score rule on one raw score: above 1 -
    # SELF_SIMILARITY_SNAP is 1.0, and below 0 or NaN is 0.
    if raw > 1.0 - SELF_SIMILARITY_SNAP:
        return 1.0
    return raw if raw > 0.0 else 0.0


_POOL_10 = np.random.default_rng(17).standard_normal((10, 8))
_GATHER_OPS = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from([0.0, 0.5]),
                                 st.sampled_from([1.0, 3.0]), st.integers(0, 2)),
                       min_size=1, max_size=40)


def test_gathers_are_exact_on_both_sides_of_the_set_crossover():
    # A gather that hits few buckets deduplicates rows in a set, one that
    # hits many in numpy. Either way _score must return exactly the rows of
    # the live entries within probe_radius of the query in some table, in id
    # order, with the raw scores of their stacked keys. Duplicate and scaled keys share buckets;
    # evictions free rows that later inserts reuse, so row order drifts from
    # id order.
    paths = collections.Counter()

    @settings(max_examples=50, deadline=None)
    @given(tables=st.integers(1, 4), k=st.integers(2, 5), radius=st.integers(0, 5),
           capacity=st.integers(4, 40), ops=_GATHER_OPS)
    @example(tables=4, k=4, radius=4, capacity=30,
             ops=[(i % 10, i * 7 % 10, 0.5 * (i % 2), 1.0 + 2.0 * (i % 3 == 0), i % 4 == 3)
                  for i in range(40)])
    @example(tables=1, k=3, radius=1, capacity=6,
             ops=[(i % 10, i * 3 % 10, 0.5, 1.0, i % 3 == 2) for i in range(12)])
    def check(tables, k, radius, capacity, ops):
        radius = min(radius, k)
        family = LshFamily(8, k=k, tables=tables, seed=29)
        store = ReuseStore(family, capacity, BIG, probe_radius=radius)
        bits_of = {}
        for step, (i, j, mix, scale, evictions) in enumerate(ops):
            entry = make_entry(scale * (_POOL_10[i] + mix * _POOL_10[j]), insert_time=step)
            bits_of[store.insert(entry)] = family.prepare(entry.key_input).bits
            store.evict(needed_entries=store.capacity_entries - len(store) + evictions)
            q = family.prepare(_POOL_10[j] + mix * _POOL_10[i])
            hit = sum(bits ^ mask in table for table, bits in zip(store._tables, q.bits)
                      for mask in store._masks)
            paths["numpy" if hit > store_module._SET_GATHER_MAX else "set"] += 1
            expected = [entry_id for entry_id in sorted(store._entries)
                        if any((a ^ b).bit_count() <= radius
                               for a, b in zip(bits_of[entry_id], q.bits))]
            rows, sims = store._score(q)
            assert store._ids[rows].tolist() == expected
            if expected:
                assert sims.tobytes() == _stacked_scores(store, expected, q).tobytes()
            else:
                assert not sims.size
        store.audit()

    check()
    assert paths["set"] and paths["numpy"]


def _first_of_the_best(store, q, threshold, service, stage):
    # The selection rule, spelled out: score every candidate in one pass of
    # its stacked keys, apply the score rule to every score, keep those the
    # filter passes, take the highest score, the smallest id among equal
    # ones, and hit only if it clears the threshold.
    rows, sims = store._score(q)
    ids = store._ids[rows].tolist()
    raw = _stacked_scores(store, ids, q) if ids else np.empty(0)
    assert raw.tobytes() == sims.tobytes()
    kept = [(_score_rule(sim), entry_id) for entry_id, sim in zip(ids, raw.tolist())
            if (service is None or store.get(entry_id).service_id == service)
            and (stage is None or stage in store.get(entry_id).stage_outputs)]
    if not kept:
        return False, None, None
    sim, entry_id = max(kept, key=lambda pair: pair[0])
    return (True, entry_id, sim) if sim >= threshold else (False, None, None)


_SERVICES = ("svc-a", "svc-b", "svc-c")
_STAGES = ("st-1", "st-2", "st-3")


@settings(max_examples=60, deadline=None)
@given(inserts=st.lists(st.tuples(st.integers(0, len(_POOL_8) - 1), st.sampled_from([1.0, 2.0]),
                                  st.sampled_from(_SERVICES),
                                  st.sets(st.sampled_from(_STAGES), max_size=3)),
                        min_size=1, max_size=24),
       lookups=st.lists(st.tuples(st.integers(0, len(_POOL_8) - 1), st.sampled_from([0.0, 0.3]),
                                  st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                  st.sampled_from((None,) + _SERVICES),
                                  st.sampled_from((None,) + _STAGES)),
                        min_size=1, max_size=12),
       radius=st.sampled_from([0, 2, 6]))
def test_best_first_lookup_matches_the_selection_rule(inserts, lookups, radius):
    # Repeated pool keys, alone or scaled, score equally; stage ids are
    # shared across services; a capacity of 16 evicts and reuses rows, so
    # row order drifts from id order.
    family = LshFamily(8, k=6, tables=2, seed=13)
    store = ReuseStore(family, 16, BIG, probe_radius=radius)
    for step, (i, scale, service, stages) in enumerate(inserts):
        key = scale * _POOL_8[i]
        store.insert(ReuseEntry(key, service, {s: key for s in sorted(stages)}, key, 0,
                                insert_time=step))
    for step, (i, mix, threshold, service, stage) in enumerate(lookups):
        q = family.prepare(_POOL_8[i] + mix * _POOL_8[(i + 1) % len(_POOL_8)])
        expected = _first_of_the_best(store, q, threshold, service, stage)
        out = store.lookup(q, threshold, now=len(inserts) + step, service=service, stage=stage)
        assert (out.hit, out.entry_id, out.similarity) == expected
    store.audit()


def _split_duplicates(services, scales=(1.0, 3.0, 5.0, 7.0)):
    # A key v stored once per service, scaled by 1, 3, 5, ... in that order,
    # and v's query, drawn so that the raw scores all snap to 1.0 and rise
    # with entry id in their last bits, the first below 1.0: the raw argmax
    # is the last entry, and the score rule answers with the first.
    family = LshFamily(8, k=4, tables=1, seed=1)
    rng = np.random.default_rng(3)
    for _ in range(2000):
        v = rng.standard_normal(8)
        store = ReuseStore(family, 16, BIG, probe_radius=family.k)
        for scale, service in zip(scales, services):
            store.insert(make_entry(scale * v, service_id=service))
        q = family.prepare(v)
        raw = store._score(q)[1].tolist()
        if (len(raw) == len(services) and 1.0 - SELF_SIMILARITY_SNAP < raw[0] < 1.0
                and all(a < b for a, b in zip(raw, raw[1:]))):
            return store, q
    raise AssertionError("no draw splits the raw scores of duplicate keys")


class TestAnswerRule:
    """Each branch of the score rule that lookup applies to its answer,
    checked against the rule applied to every score of the stacked
    candidates (_first_of_the_best)."""

    FAMILY = LshFamily(8, k=4, tables=1, seed=1)

    def _store(self, *keys):
        # probe_radius == k: every entry is a candidate of every query.
        store = ReuseStore(self.FAMILY, 16, BIG, probe_radius=self.FAMILY.k)
        for key in keys:
            store.insert(make_entry(key))
        return store

    @staticmethod
    def _lookup(store, q, threshold, service=None):
        out = store.lookup(q, threshold, service=service)
        assert (out.hit, out.entry_id, out.similarity) == _first_of_the_best(
            store, q, threshold, service, None)
        return out

    def test_duplicates_answer_with_the_smallest_id_at_one(self):
        # An exact duplicate and a scaled one: the scaled one's raw score is
        # the larger, but both snap to 1.0, so the smallest id answers.
        store, q = _split_duplicates(["svc"] * 2)
        out = self._lookup(store, q, 1.0)
        assert (out.hit, out.entry_id, out.similarity) == (True, 0, 1.0)

    def test_a_score_at_the_snap_bound_is_not_snapped(self):
        # Key e0 against a unit query whose first coordinate is the bound
        # itself: the raw score is exactly 1 - SELF_SIMILARITY_SNAP, which
        # the rule keeps, not being above it. A duplicate of the query,
        # stored second, is above the bound and answers at 1.0.
        bound = 1.0 - SELF_SIMILARITY_SNAP
        v = np.array([bound, math.sqrt(1.0 - bound * bound)] + [0.0] * 6)
        store = self._store([1.0] + [0.0] * 7)
        q = self.FAMILY.prepare(v)
        assert q.norm == 1.0 and store._score(q)[1].tolist() == [bound]
        out = self._lookup(store, q, bound)
        assert (out.hit, out.entry_id, out.similarity) == (True, 0, bound)
        assert not self._lookup(store, q, 1.0).hit
        store.insert(make_entry(v))
        assert store._score(q)[1][1] > bound
        out = self._lookup(store, q, bound)
        assert (out.hit, out.entry_id, out.similarity) == (True, 1, 1.0)

    @pytest.mark.parametrize("keys", [
        # Raw scores -1, 0 and about -0.89: the raw best is exactly 0.
        [[-1.0] + [0.0] * 7, [0.0, 1.0] + [0.0] * 6, [-1.0, 0.5] + [0.0] * 6],
        # Raw scores -1 and about -0.71: every one below 0.
        [[-1.0] + [0.0] * 7, [-1.0, 1.0] + [0.0] * 6],
    ], ids=["best-is-zero", "all-negative"])
    def test_no_positive_score_answers_with_the_smallest_id_at_zero(self, keys):
        store = self._store(*keys)
        q = self.FAMILY.prepare([1.0] + [0.0] * 7)
        rows, raw = store._score(q)
        assert raw.max() <= 0.0 and raw.argmax() != 0
        out = self._lookup(store, q, 0.0)
        assert (out.hit, out.entry_id, out.similarity) == (True, 0, 0.0)
        assert not self._lookup(store, q, 5e-324).hit

    def test_overflowing_score_is_rescored_and_a_repeat_hits(self):
        # Both norms near 1e200: the key's dot product with the query and
        # the product of their norms overflow, so the store scores that row
        # again from the key and the query each scaled by its largest
        # magnitude, without a warning, and the exact repeat answers at 1.0.
        # The [0.6, 0.8] row's products stay finite: it keeps the gemv's
        # raw score, bit for bit.
        huge = [1e200] + [0.0] * 7
        store = self._store(huge, [0.6, 0.8] + [0.0] * 6)
        q = self.FAMILY.prepare(huge)
        assert q.norm == 1e200
        rows, raw = store._score(q)
        assert store._ids[rows].tolist() == [0, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            plain = (store._keys[rows] @ q.vector) / (store._norms[rows] * q.norm)
        assert math.isnan(plain[0])
        assert raw[0] == 1.0 and raw[1:].tobytes() == plain[1:].tobytes()
        assert raw[1] == pytest.approx(0.6)
        for threshold in (5e-324, 0.7, 1.0):
            out = store.lookup(huge, threshold)
            assert (out.hit, out.entry_id, out.similarity) == (True, 0, 1.0)
        store.audit()

    def test_filtered_lookup_walks_the_snapped_scores(self):
        # Raw scores rise with id, so the raw best is entry 3 (svc-b); the
        # rule's answer, entry 0, is svc-b too. Walking the snapped scores
        # reaches entry 1, the first svc-a entry at 1.0, where walking the
        # raw scores would reach entry 2.
        store, q = _split_duplicates(["svc-b", "svc-a", "svc-a", "svc-b"])
        out = self._lookup(store, q, 1.0, service="svc-a")
        assert (out.hit, out.entry_id, out.similarity) == (True, 1, 1.0)
        out = self._lookup(store, q, 1.0, service="svc-b")
        assert (out.hit, out.entry_id, out.similarity) == (True, 0, 1.0)
