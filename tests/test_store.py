import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edgereuse.core import SELF_SIMILARITY_SNAP, similarity
from edgereuse.hashing import LshFamily
from edgereuse.store import (HEAP_SLACK, LfuPolicy, LruPolicy, OversizedEntryError,
                             ReuseEntry, ReuseStore, vector_bytes)

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
    def test_vector_bytes(self):
        assert vector_bytes(np.zeros(64)) == 8 * 64 + 64 == 576
        assert vector_bytes(np.zeros(1)) == 72

    def test_entry_size_sums_all_vectors(self):
        entry = ReuseEntry(np.zeros(64) + 1, "svc",
                           {"a": np.ones(64), "b": np.ones(64)}, np.ones(64), 0)
        assert entry.size_bytes == 4 * 576 == 2304

    def test_entry_freezes_vectors_and_clamps_access(self):
        entry = make_entry([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], insert_time=50)
        assert not entry.key_input.flags.writeable
        assert not entry.output.flags.writeable
        assert entry.last_access == 50


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
        store.insert(make_entry(v, label=1))
        store.insert(make_entry(v.copy(), label=2))
        store.insert(make_entry(v.copy(), label=3))
        out = store.lookup(v, 0.9)
        assert out.entry_id == 0
        # The same rule among the candidates a filter keeps.
        assert store.lookup(v, 0.9, where=lambda e: True).entry_id == 0
        assert store.lookup(v, 0.9, where=lambda e: e.label != 1).entry_id == 1

    def test_hit_updates_recency_and_count(self, store):
        v = np.ones(8)
        eid = store.insert(make_entry(v))
        store.lookup(v, 0.5, now=40)
        store.lookup(v, 0.5, now=90)
        entry = store.get(eid)
        assert entry.hit_count == 2
        assert entry.last_access == 90

    def test_where_filter(self, store):
        v = np.ones(8)
        store.insert(make_entry(v, service_id="svc-a"))
        out = store.lookup(v, 0.5, where=lambda e: e.service_id == "svc-b")
        assert not out.hit
        assert store.lookup(v, 0.5, where=lambda e: e.service_id == "svc-a").hit

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
        store = ReuseStore(family, 2, BIG, policy=LfuPolicy())
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
        store = ReuseStore(family, 0, BIG)
        assert not store.enabled
        with pytest.raises(OversizedEntryError):
            store.insert(make_entry(np.ones(8)))

    def test_explicit_evict_frees_headroom(self, family):
        store = ReuseStore(family, 4, BIG)
        for i in range(4):
            store.insert(make_entry(np.arange(1.0, 9.0) + i, insert_time=i))
        evicted = store.evict(needed_entries=2)
        assert evicted == [0, 1]
        assert len(store) == 2
        store.audit()

    def test_policy_objects_and_names(self, family):
        assert isinstance(ReuseStore(family, 1, 1, policy="lfu").policy, LfuPolicy)
        assert isinstance(ReuseStore(family, 1, 1, policy=LruPolicy()).policy, LruPolicy)
        with pytest.raises(ValueError, match="unknown eviction policy"):
            ReuseStore(family, 1, 1, policy="fifo")

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
        expected = sorted(store.entry_ids(), key=lambda i: (store.policy.key(store.get(i)), i))
        assert store.evict(needed_entries=8) == expected
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

    def test_scores_serve_several_lookups(self, store, family):
        v = np.ones(8)
        a = store.insert(make_entry(v, service_id="svc-a", stages={"s1": np.ones(2)}))
        b = store.insert(make_entry(v, service_id="svc-b", stages={"s2": np.ones(2)}))
        q = family.prepare(v)
        scores = store.score(q)
        assert scores.ids == [a, b]
        only_b = store.lookup(q, 0.9, where=lambda e: e.service_id == "svc-b", scores=scores)
        assert only_b.entry_id == b
        assert store.lookup_stage("s1", q, 0.9, scores=scores).entry_id == a
        assert not store.lookup_stage("s3", q, 0.9, scores=scores).hit

    def test_stale_or_foreign_scores_rejected(self, store, family):
        v = np.ones(8)
        store.insert(make_entry(v))
        q = family.prepare(v)
        scores = store.score(q)
        with pytest.raises(ValueError, match="another query"):
            store.lookup(family.prepare(v), 0.5, scores=scores)
        store.insert(make_entry(np.arange(1.0, 9.0)))
        with pytest.raises(ValueError, match="stale"):
            store.lookup(q, 0.5, scores=scores)
        store.evict(needed_entries=16)
        with pytest.raises(ValueError, match="stale"):
            store.lookup_stage("s", q, 0.5, scores=scores)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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

    @pytest.mark.parametrize("fault", ["key", "norm", "bits", "row-shared", "row-free",
                                       "row-leaked"])
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
        else:
            store._free_rows.pop()
        with pytest.raises(AssertionError):
            store.audit()


_POOL_8 = np.random.default_rng(5).standard_normal((6, 8))


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.tuples(st.integers(0, len(_POOL_8) - 1), st.integers(0, len(_POOL_8) - 1),
                              st.sampled_from([0.0, 0.05, 0.5]), st.integers(0, 2)),
                    min_size=60, max_size=90),
       radius=st.sampled_from([1, 6]))
def test_scores_bit_identical_to_stacked_keys(ops, radius):
    # Scoring gathers rows of the key matrix; the scores must equal, bit for
    # bit, those of the entries' keys stacked in id order, through inserts,
    # evictions and growth of the matrix from 8 to 16 to all 70 rows.
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
        scores = store.score(q)
        if not scores.ids:
            assert scores.sims is None
            continue
        keys = np.concatenate([store.get(e).key_input for e in scores.ids])
        keys = keys.reshape(len(scores.ids), family.dim)
        norms = np.array([np.linalg.norm(store.get(e).key_input) for e in scores.ids])
        expected = (keys @ q.vector) / (norms * q.norm)
        expected[expected > 1.0 - SELF_SIMILARITY_SNAP] = 1.0
        np.fmax(expected, 0.0, out=expected)
        assert scores.sims.tobytes() == expected.tobytes()
    store.audit()
    assert sizes == {8, 16, 70}
