"""Similarity-indexed reuse cache shared by devices, routers, and servers.

Entries are indexed under their LSH signature in every table; lookup takes
the query's signatures for all tables (from a PreparedQuery, or signed once
from a raw vector), gathers the buckets at each signature XOR each
multi-probe mask, scores candidates by exact cosine similarity, and accepts
the best one only if it clears the caller's threshold. Several lookups of
one query can share one scoring pass (``score``). Eviction is LRU by
default, LFU optionally, both pluggable.

Every stored key is one row of the store's key matrix, the only copy of it;
the key's norm and signature bits sit in arrays indexed by the same row, so
scoring gathers candidate rows by fancy indexing instead of per entry.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .core import SELF_SIMILARITY_SNAP, as_feature_vector, check_threshold
from .hashing import LshFamily, PreparedQuery, input_norm, probe_masks

BYTES_PER_ELEMENT = 8
VECTOR_OVERHEAD_BYTES = 64
# The eviction heap may hold at most 2 items per live entry plus this many.
HEAP_SLACK = 64
# Rows of a store's first key matrix; it doubles from there.
MIN_KEY_ROWS = 8


def vector_bytes(v) -> int:
    """Accounted storage cost of one vector: 8 bytes per element plus a
    64-byte fixed overhead for metadata and indexing."""
    return BYTES_PER_ELEMENT * len(v) + VECTOR_OVERHEAD_BYTES


class OversizedEntryError(ValueError):
    """The entry can never fit this store; nothing was evicted for it."""


@dataclass(slots=True)
class ReuseEntry:
    """A stored task: its input vector, per-stage outputs, and final result.

    stage_outputs carries every stage of the producing pipeline (keyed by
    globally unique stage id) when the entry comes from an execution; entries
    cached from response traffic only hold the final result and leave it
    empty.

    While the entry is stored, ``key_input`` is a read-only view of its row
    in the store's key matrix, the key's only copy. On removal the store
    hands the entry a frozen copy of its own before the row can be reused,
    so an entry's key never changes value; an array taken from ``key_input``
    while stored is a view that is valid only until the entry is removed.
    """

    key_input: np.ndarray
    service_id: str
    stage_outputs: dict[str, np.ndarray]
    output: np.ndarray
    label: int
    insert_time: int = 0
    last_access: int = 0
    hit_count: int = 0
    size_bytes: int = field(init=False)

    def __post_init__(self):
        self.key_input = as_feature_vector(self.key_input)
        self.stage_outputs = {sid: as_feature_vector(v) for sid, v in self.stage_outputs.items()}
        self.output = as_feature_vector(self.output)
        self.size_bytes = self._size()
        if self.last_access < self.insert_time:
            self.last_access = self.insert_time

    def _size(self) -> int:
        size = vector_bytes(self.key_input) + vector_bytes(self.output)
        for v in self.stage_outputs.values():
            size += vector_bytes(v)
        return size

    @classmethod
    def _of_frozen(cls, key_input: np.ndarray, service_id: str,
                   stage_outputs: dict[str, np.ndarray], output: np.ndarray, label: int,
                   now: int = 0) -> ReuseEntry:
        """An entry from arrays the library already validated and froze (a
        task's input, stage outputs, a payload's output), inserted at ``now``:
        kept as they are, without the checks and copies of __post_init__."""
        entry = object.__new__(cls)
        entry.key_input = key_input
        entry.service_id = service_id
        entry.stage_outputs = stage_outputs
        entry.output = output
        entry.label = label
        entry.insert_time = entry.last_access = now
        entry.hit_count = 0
        entry.size_bytes = entry._size()
        return entry


@dataclass(slots=True)
class LookupOutcome:
    hit: bool
    entry_id: int | None
    similarity: float | None
    probes_used: int


@dataclass(frozen=True, slots=True, eq=False)
class CandidateScores:
    """Every candidate of one query, gathered and scored once.

    ``ids`` ascend and ``sims[j]`` is the clamped cosine of entry ``ids[j]``
    (None when there are no candidates). Valid while the store's entries
    stay the same; hits change only recency, so they keep it valid.
    """

    store: "ReuseStore"
    membership: int
    query: PreparedQuery
    ids: list[int]
    sims: np.ndarray | None


class EvictionPolicy:
    """Orders entries for eviction; the smallest key goes first."""

    name = "base"

    def key(self, entry: ReuseEntry) -> tuple:
        raise NotImplementedError


class LruPolicy(EvictionPolicy):
    name = "lru"

    def key(self, entry):
        return (entry.last_access,)


class LfuPolicy(EvictionPolicy):
    name = "lfu"

    def key(self, entry):
        return (entry.hit_count, entry.last_access)


_POLICIES = {"lru": LruPolicy, "lfu": LfuPolicy}


def _resolve_policy(policy) -> EvictionPolicy:
    if isinstance(policy, EvictionPolicy):
        return policy
    try:
        return _POLICIES[str(policy).lower()]()
    except KeyError:
        raise ValueError(f"unknown eviction policy {policy!r}; expected one of {sorted(_POLICIES)}")


class ReuseStore:
    """Multi-table LSH index over ReuseEntry with capacity enforcement.

    Single-writer, multi-reader contract: concurrent lookups are safe with
    each other only if nothing mutates; insert and evict need exclusive
    access. The simulator drives it single-threaded.
    """

    def __init__(self, family: LshFamily, capacity_entries: int, capacity_bytes: int,
                 policy="lru", probe_radius: int = 0):
        if capacity_entries < 0 or capacity_bytes < 0:
            raise ValueError("capacities must be non-negative")
        if not 0 <= probe_radius <= family.k:
            raise ValueError(f"probe_radius must be in [0, {family.k}], got {probe_radius}")
        self.family = family
        self.capacity_entries = capacity_entries
        self.capacity_bytes = capacity_bytes
        self.policy = _resolve_policy(policy)
        self.probe_radius = probe_radius
        self._masks = probe_masks(family.k, probe_radius)
        # Buckets probed per lookup: every mask in every table.
        self._probes = family.tables * len(self._masks)
        self._entries: dict[int, ReuseEntry] = {}
        self._tables: list[dict[int, list[int]]] = [{} for _ in range(family.tables)]
        # Row r of _keys, _norms and _bits holds one stored key, its norm and
        # every table's signature bits; _row_of maps entry id to row. Rows
        # below _rows_used are live or listed in _free_rows.
        self._keys = np.empty((0, family.dim))
        self._norms = np.empty(0)
        self._bits = np.empty((0, family.tables), dtype=np.int64)
        self._row_of: dict[int, int] = {}
        self._free_rows: list[int] = []
        self._rows_used = 0
        # No more entries than this can be live: each holds a key and an
        # output of at least one element.
        self._max_rows = min(capacity_entries, capacity_bytes // (
            BYTES_PER_ELEMENT * (family.dim + 1) + 2 * VECTOR_OVERHEAD_BYTES))
        self._heap: list[tuple[tuple, int]] = []
        self._next_id = 0
        self._total_bytes = 0
        # Counts inserts and removals, so stale CandidateScores are caught.
        self._membership = 0

    @property
    def enabled(self) -> bool:
        return self.capacity_entries > 0 and self.capacity_bytes > 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def get(self, entry_id: int) -> ReuseEntry:
        return self._entries[entry_id]

    def entry_ids(self) -> list[int]:
        return sorted(self._entries)

    def _touch(self, entry_id: int, entry: ReuseEntry) -> None:
        heapq.heappush(self._heap, (self.policy.key(entry), entry_id))
        self._bound_heap()

    def _bound_heap(self) -> None:
        # Every hit leaves a stale key behind. Rebuilding from the live
        # entries' current keys drops only items _pop_victim would skip, so
        # the eviction order stays the same.
        if len(self._heap) > 2 * len(self._entries) + HEAP_SLACK:
            self._heap = [(self.policy.key(e), i) for i, e in self._entries.items()]
            heapq.heapify(self._heap)

    def _prepared(self, query) -> PreparedQuery:
        if isinstance(query, PreparedQuery):
            if query.family is not self.family:
                raise ValueError("query was prepared under another LshFamily than the store's")
            return query
        return self.family.prepare(query)

    def insert(self, entry: ReuseEntry, query: PreparedQuery | None = None) -> int:
        """Index the entry under every table, evicting first if needed.

        ``query``, the prepared query of the entry's key, saves measuring and
        signing the key again.
        """
        key = entry.key_input
        if query is not None:
            query = self._prepared(query)
            if query.vector is not key and query.vector.tobytes() != key.tobytes():
                raise ValueError("query was prepared from another vector than the entry key")
        elif key.size != self.family.dim:
            raise ValueError(f"entry dim {key.size} != store dim {self.family.dim}")
        if self.capacity_entries < 1 or entry.size_bytes > self.capacity_bytes:
            raise OversizedEntryError(
                f"entry of {entry.size_bytes} bytes can never fit store capacity "
                f"({self.capacity_entries} entries, {self.capacity_bytes} bytes)")
        if query is None:
            # ReuseEntry already validated the key, so sign it unchecked.
            norm = input_norm(key)
            bits = self.family._table_bits(key)
        else:
            norm, bits = query.norm, query.bits
        self.evict(needed_bytes=entry.size_bytes, needed_entries=1)
        entry_id = self._next_id
        self._next_id += 1
        for t, b in enumerate(bits):
            self._tables[t].setdefault(b, []).append(entry_id)
        row = self._take_row()
        self._keys[row] = key
        self._norms[row] = norm
        self._bits[row] = bits
        entry.key_input = self._row_view(row)
        self._row_of[entry_id] = row
        self._entries[entry_id] = entry
        self._total_bytes += entry.size_bytes
        self._membership += 1
        self._touch(entry_id, entry)
        return entry_id

    def _take_row(self) -> int:
        if self._free_rows:
            return self._free_rows.pop()
        if self._rows_used == len(self._keys):
            self._grow()
        self._rows_used += 1
        return self._rows_used - 1

    def _grow(self) -> None:
        # Doubling, then straight to the most rows the capacities allow once
        # doubling reaches a quarter of that: rows never written take no
        # resident memory, and the largest copy is of a quarter matrix.
        # Reserving the maximum up front could ask for terabytes.
        n = len(self._keys)
        rows = max(2 * n, MIN_KEY_ROWS)
        if n < self._max_rows <= 4 * rows:
            rows = self._max_rows
        used = self._rows_used
        keys = np.empty((rows, self.family.dim))
        keys[:used] = self._keys[:used]
        norms = np.empty(rows)
        norms[:used] = self._norms[:used]
        bits = np.empty((rows, self.family.tables), dtype=np.int64)
        bits[:used] = self._bits[:used]
        self._keys, self._norms, self._bits = keys, norms, bits
        for entry_id, row in self._row_of.items():
            self._entries[entry_id].key_input = self._row_view(row)

    def _row_view(self, row: int) -> np.ndarray:
        view = self._keys[row]
        view.setflags(write=False)
        return view

    def score(self, query) -> CandidateScores:
        """Gather and score the query's candidates once, for several lookups
        of the same query to share (lookup's ``scores``)."""
        q = self._prepared(query)
        ids, sims = self._score(q)
        return CandidateScores(self, self._membership, q, ids, sims)

    def _score(self, q: PreparedQuery) -> tuple[list[int], np.ndarray | None]:
        # The candidates' ids, ascending, and their scores (None if none).
        ids: set[int] = set()
        masks = self._masks
        for table, bits in zip(self._tables, q.bits):
            for mask in masks:
                bucket = table.get(bits ^ mask)
                if bucket:
                    ids.update(bucket)
        ordered = sorted(ids)
        sims = None
        if ordered:
            # The candidates' rows in id order: the same matrix, row for row,
            # as stacking their keys, so every score rounds as it would there.
            rows = np.fromiter(map(self._row_of.__getitem__, ordered), np.intp, len(ordered))
            sims = (self._keys[rows] @ q.vector) / (self._norms[rows] * q.norm)
            sims[sims > 1.0 - SELF_SIMILARITY_SNAP] = 1.0
            # Unlike clip, fmax also maps a score that overflowed to NaN to 0.
            np.fmax(sims, 0.0, out=sims)
        return ordered, sims

    def lookup(self, query, threshold, *, now: int = 0, where=None,
               scores: CandidateScores | None = None) -> LookupOutcome:
        """Best stored neighbor of the query, gated by the threshold.

        ``query`` is a raw vector or a PreparedQuery of the store's family.
        Candidates come from the union of probed buckets across all tables;
        the best of those that pass ``where`` wins, ties on similarity going
        to the smallest entry id. ``scores`` taken by score(query) since the
        last insert or eviction stand in for gathering and scoring again.
        A hit updates the entry's recency and hit count.
        """
        if scores is None:
            q = self._prepared(query)
            t = check_threshold(threshold)
            ids, sims = self._score(q)
        else:
            t = check_threshold(threshold)
            if scores.store is not self or scores.membership != self._membership:
                raise ValueError("stale scores: the store's entries changed since they were taken")
            if scores.query is not query:
                raise ValueError("scores were taken for another query")
            ids, sims = scores.ids, scores.sims
        if where is None:
            best = int(sims.argmax()) if ids else None
        else:
            # Filtered after scoring: a matrix-vector product can round a row
            # differently beside other rows, so scoring only the passing ids
            # could give floats that differ from a shared scoring pass. max()
            # keeps the first of equal scores, the smallest id, as argmax does.
            keep = [j for j, i in enumerate(ids) if where(self._entries[i])]
            best = max(keep, key=sims.tolist().__getitem__) if keep else None
        sim = None if best is None else sims.item(best)
        if sim is None or sim < t:
            return LookupOutcome(False, None, None, self._probes)
        best_id = ids[best]
        entry = self._entries[best_id]
        entry.last_access = max(entry.last_access, now)
        entry.hit_count += 1
        self._touch(best_id, entry)
        return LookupOutcome(True, best_id, sim, self._probes)

    def lookup_stage(self, stage_id: str, query, threshold, *, now: int = 0,
                     scores: CandidateScores | None = None) -> LookupOutcome:
        """As lookup, restricted to entries that recorded the given stage."""
        return self.lookup(query, threshold, now=now, scores=scores,
                           where=lambda e: stage_id in e.stage_outputs)

    def evict(self, needed_bytes: int = 0, needed_entries: int = 0) -> list[int]:
        """Remove entries in policy order until both headrooms are free."""
        evicted = []
        while (self.capacity_bytes - self._total_bytes < needed_bytes
               or self.capacity_entries - len(self._entries) < needed_entries):
            victim = self._pop_victim()
            if victim is None:
                break
            self._remove(victim)
            evicted.append(victim)
        if evicted:
            self._bound_heap()
        return evicted

    def _pop_victim(self) -> int | None:
        # Lazy-deletion heap: stale keys (access happened after the push)
        # are skipped; the fresher key is already in the heap.
        while self._heap:
            key, entry_id = heapq.heappop(self._heap)
            entry = self._entries.get(entry_id)
            if entry is None:
                continue
            if self.policy.key(entry) != key:
                continue
            return entry_id
        return None

    def _remove(self, entry_id: int) -> None:
        entry = self._entries.pop(entry_id)
        row = self._row_of.pop(entry_id)
        if entry.key_input.base is self._keys:
            # The row is about to be free for reuse: the entry keeps its key.
            key = entry.key_input.copy()
            key.setflags(write=False)
            entry.key_input = key
        for t, b in enumerate(self._bits[row].tolist()):
            bucket = self._tables[t][b]
            bucket.remove(entry_id)
            if not bucket:
                del self._tables[t][b]
        self._free_rows.append(row)
        self._total_bytes -= entry.size_bytes
        self._membership += 1

    def audit(self) -> None:
        """Walk every invariant; raises AssertionError on violation."""
        assert len(self._entries) <= self.capacity_entries, "entry capacity exceeded"
        assert self._total_bytes <= self.capacity_bytes, "byte capacity exceeded"
        assert self._total_bytes == sum(e.size_bytes for e in self._entries.values())
        assert self._row_of.keys() == self._entries.keys(), "entries and rows disagree"
        rows = list(self._row_of.values())
        assert sorted(rows + self._free_rows) == list(range(self._rows_used)), \
            "live and free rows must be distinct and cover the rows in use"
        assert self._rows_used <= len(self._keys) == len(self._norms) == len(self._bits)
        for entry_id, entry in self._entries.items():
            row = self._row_of[entry_id]
            key = entry.key_input
            assert not key.flags.writeable, f"entry {entry_id} key is writable"
            assert key.tobytes() == self._keys[row].tobytes(), \
                f"entry {entry_id} key differs from its row {row}"
            assert self._norms[row] == input_norm(key), f"row {row} norm is stale"
            bits = self._bits[row].tolist()
            assert bits == self.family._table_bits(key), f"row {row} bits are stale"
            for t, b in enumerate(bits):
                assert self._tables[t].get(b, []).count(entry_id) == 1, \
                    f"entry {entry_id} not indexed exactly once in table {t}"
        live = sum(len(bucket) for table in self._tables for bucket in table.values())
        assert live == len(self._entries) * self.family.tables, "dangling bucket references"
        assert len(self._heap) <= 2 * len(self._entries) + HEAP_SLACK, "eviction heap unbounded"
