"""Stateful test of ReuseStore over random operation sequences.

Two twin stores receive the same operations: one through raw vectors, the
other through prepared queries, one query object per distinct vector, kept
for the whole run. Lookups of one query object share the store's last
scoring pass, as each server-style visit (whole-task lookup, then stage
lookups) does. Inserts and evictions come between lookups of the same query
object, so a scoring pass reused after either shows as a mismatch. After
every step both must pass audit() and hold the same entries, and every
operation must have returned the same outcome on both. When the probe radius
covers the whole signature space, lookups are also checked against a linear
scan.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

from edgereuse.core import similarity
from edgereuse.hashing import LshFamily
from edgereuse.store import ReuseEntry, ReuseStore

DIM = 6
K = 4
# Scores from the store and from core.similarity may differ in the last bits.
TIE_TOL = 1e-9
SERVICES = ("svc-a", "svc-b")
STAGES = ("s1", "s2", "s3")
_POOL = np.random.default_rng(11).standard_normal((5, DIM))

# Scaled pool vectors repeat a direction exactly (similarity 1); mixing in
# a second pool vector gives near neighbours that probing may or may not find.
vectors = st.builds(lambda i, j, scale, mix: _POOL[i] * scale + mix * _POOL[j],
                    st.integers(0, len(_POOL) - 1), st.integers(0, len(_POOL) - 1),
                    st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([0.0, 0.1, 0.6]))
thresholds = st.sampled_from([0.0, 0.5, 0.8, 0.95, 1.0])


class TwinStores(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.family = LshFamily(DIM, k=K, tables=2, seed=7)
        self.raw = self.prepared = None
        self.now = 0
        self.queries = {}

    @initialize(policy=st.sampled_from(["lru", "lfu"]), radius=st.sampled_from([0, 1, 2, K]))
    def make_stores(self, policy, radius):
        # Entries take 200 to 360 bytes, so byte capacity evicts as well.
        self.raw, self.prepared = (ReuseStore(self.family, 6, 1500, policy=policy,
                                              probe_radius=radius) for _ in range(2))

    def _query(self, v):
        q = self.queries.get(v.tobytes())
        if q is None:
            q = self.queries[v.tobytes()] = self.family.prepare(v)
        return q

    def _tick(self) -> int:
        self.now += 1
        return self.now

    def _check_against_scan(self, out, v, threshold, where):
        # At full radius every entry is a candidate, so the best one under
        # the filter is found by a linear scan.
        store = self.raw
        if store.probe_radius < K:
            return
        sims = {i: similarity(store.get(i).key_input, v) for i in store.entry_ids()
                if where(store.get(i))}
        best = max(sims.values(), default=None)
        if best is None or abs(best - threshold) < TIE_TOL:
            return
        assert out.hit == (best >= threshold)
        if out.hit:
            assert abs(sims[out.entry_id] - best) < TIE_TOL
            assert abs(out.similarity - best) < TIE_TOL

    def _entry(self, v, service, stages, now):
        outputs = {s: np.full(2, i + 1.0) for i, s in enumerate(sorted(stages))}
        return ReuseEntry(v, service, outputs, np.ones(3), 0, insert_time=now)

    @rule(v=vectors, service=st.sampled_from(SERVICES), stages=st.sets(st.sampled_from(STAGES)))
    def insert(self, v, service, stages):
        now = self._tick()
        a = self.raw.insert(self._entry(v, service, stages, now))
        b = self.prepared.insert(self._entry(v, service, stages, now), self._query(v))
        assert a == b

    @rule(v=vectors, threshold=thresholds, service=st.sampled_from((None,) + SERVICES),
          stage=st.sampled_from((None,) + STAGES))
    def lookup(self, v, threshold, service, stage):
        now = self._tick()
        a = self.raw.lookup(v, threshold, now=now, service=service, stage=stage)
        b = self.prepared.lookup(self._query(v), threshold, now=now,
                                 service=service, stage=stage)
        assert a == b
        self._check_against_scan(a, v, threshold, lambda e: (
            service in (None, e.service_id) and (stage is None or stage in e.stage_outputs)))

    @rule(stage=st.sampled_from(STAGES), v=vectors, threshold=thresholds)
    def lookup_stage(self, stage, v, threshold):
        now = self._tick()
        a = self.raw.lookup_stage(stage, v, threshold, now=now)
        b = self.prepared.lookup_stage(stage, self._query(v), threshold, now=now)
        assert a == b
        self._check_against_scan(a, v, threshold, lambda e: stage in e.stage_outputs)

    @rule(v=vectors, threshold=thresholds, service=st.sampled_from(SERVICES),
          stages=st.lists(st.sampled_from(STAGES), max_size=3))
    def server_visit(self, v, threshold, service, stages):
        # As server_handle does: the whole-task lookup, then (on a miss) one
        # lookup per stage, with nothing inserted in between.
        now = self._tick()
        separate = [self.raw.lookup(v, threshold, now=now, service=service)]
        q = self._query(v)
        shared = [self.prepared.lookup(q, threshold, now=now, service=service)]
        if not separate[0].hit:
            for i, stage in enumerate(stages):
                separate.append(self.raw.lookup_stage(stage, v, threshold, now=now + i))
                shared.append(self.prepared.lookup_stage(stage, q, threshold, now=now + i))
        self.now += len(stages)
        assert separate == shared

    @rule(needed_entries=st.integers(0, 3), needed_bytes=st.sampled_from([0, 300, 900]))
    def evict(self, needed_entries, needed_bytes):
        a = self.raw.evict(needed_bytes=needed_bytes, needed_entries=needed_entries)
        b = self.prepared.evict(needed_bytes=needed_bytes, needed_entries=needed_entries)
        assert a == b

    @precondition(lambda self: self.raw is not None)
    @invariant()
    def stores_agree_and_audit(self):
        self.raw.audit()
        self.prepared.audit()
        assert self.raw.entry_ids() == self.prepared.entry_ids()
        assert self.raw.total_bytes == self.prepared.total_bytes


TwinStores.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestTwinStores = TwinStores.TestCase
