"""Similarity-indexed reuse cache shared by devices, routers, and servers.

Entries are indexed under their LSH signature in every table; lookup takes
the query's signatures for all tables (from a PreparedQuery, or signed once
from a raw vector), gathers the buckets at each signature XOR each
multi-probe mask, scores candidates by exact cosine similarity, and accepts
the best one only if it clears the caller's threshold. The store remembers
its last scoring pass until its next insert or removal, so lookups of the
same PreparedQuery object in between share it. A lookup can be limited to
one service's entries or to entries that recorded one stage. Eviction is
LRU by default or LFU, chosen by name.

Every stored key is one row of the store's key matrix, the only copy of it;
the key's norm, signature bits and entry id sit in arrays indexed by the
same row, and each bucket is an int64 array of rows, with no int object per
row. A gather that hits few buckets deduplicates their rows in a set; one
that hits more joins the buckets' bytes into one numpy array, sorts it and
drops adjacent repeats. Scoring sorts the candidate rows by their ids with
one argsort and gathers them by fancy indexing, never per entry, and keeps
the raw cosines. Lookup applies the score rule (snap near 1.0 to 1.0, clip
below 0 and NaN to 0, ties to the smallest id) to the candidate it answers
with, and snaps a copy of every score only when the raw best is NaN or not
positive, or fails the lookup's filter; then it walks down the snapped
scores.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import SELF_SIMILARITY_SNAP, as_feature_vector, check_integer, check_threshold
from .hashing import LshFamily, PreparedQuery, probe_masks

# The eviction heap may hold at most 2 items per live entry plus this many.
HEAP_SLACK = 64
# Rows of a store's first key matrix; it doubles from there.
MIN_KEY_ROWS = 8
# A gather that hits at most this many buckets deduplicates their rows in a
# set; a larger one sorts them all in numpy and drops adjacent repeats. The
# set is cheaper below about 35 distinct rows, a count known only after
# deduplication: 16 buckets hold about 43 in a 20,000-entry store, and
# fewer than 20 in the small stores of a replay (BENCH_20.json).
_SET_GATHER_MAX = 16
# Copied to make a one-row bucket, at half the cost of array("q", (row,)).
_ONE_ROW = array("q", (0,))
# A raw score above this snaps to 1.0.
_SNAP_BOUND = 1.0 - SELF_SIMILARITY_SNAP
# While a query's norm times the largest stored norm stays below this, no
# dot product or norm product of a score can overflow.
_SCORE_SAFE = sys.float_info.max / 2
# _score's result when no bucket holds a candidate.
_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_SIMS = np.empty(0)


def length_bytes(n: int) -> int:
    """Accounted storage cost of a vector of n elements: 8 bytes per element
    plus a 64-byte fixed overhead for metadata and indexing."""
    return 8 * n + 64


def _snapped(sims: np.ndarray) -> np.ndarray:
    """A copy of raw scores under the score rule: above 1 -
    SELF_SIMILARITY_SNAP is 1.0, and below 0 or NaN is 0."""
    # Unlike clip, fmax also maps a NaN to 0.
    snapped = np.fmax(sims, 0.0)
    snapped[snapped > _SNAP_BOUND] = 1.0
    return snapped


def _passes(entry: ReuseEntry, service: str | None, stage: str | None) -> bool:
    return ((service is None or entry.service_id == service)
            and (stage is None or stage in entry.stage_outputs))


class OversizedEntryError(ValueError):
    """The entry can never fit this store; nothing was evicted for it."""


@dataclass(slots=True)
class ReuseEntry:
    """A stored task: its input vector, per-stage outputs, and final result.

    stage_outputs carries every stage of the producing pipeline (keyed by
    globally unique stage id) when the entry comes from an execution; entries
    cached from response traffic only hold the final result and leave it
    empty.

    The constructor checks and copies every field once
    (``as_feature_vector``), so no field shares memory with an argument or
    with another field. A read-only argument is copied too, since it may be
    a view whose base changes.

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
        size = length_bytes(self.key_input.size) + length_bytes(self.output.size)
        for v in self.stage_outputs.values():
            size += length_bytes(v.size)
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


# Eviction order by policy name: the entry with the smallest key goes first.
# A key is the heap item itself, ending in the entry id.
_EVICTION_KEYS = {
    "lru": lambda e, i: (e.last_access, i),
    "lfu": lambda e, i: (e.hit_count, e.last_access, i),
}


class ReuseStore:
    """Multi-table LSH index over ReuseEntry with capacity enforcement.

    Single-writer, multi-reader contract: concurrent lookups are safe with
    each other only if nothing mutates; insert and evict need exclusive
    access. The simulator drives it single-threaded.
    """

    def __init__(self, family: LshFamily, capacity_entries: int, capacity_bytes: int,
                 policy: str = "lru", probe_radius: int = 0):
        capacity_entries = check_integer("capacity_entries", capacity_entries)
        capacity_bytes = check_integer("capacity_bytes", capacity_bytes)
        probe_radius = check_integer("probe_radius", probe_radius, 0, family.k)
        if capacity_entries < 1 or capacity_bytes < 1:
            raise ValueError(f"capacity_entries and capacity_bytes must be >= 1, got "
                             f"{capacity_entries} and {capacity_bytes}; a node without a cache "
                             "takes store=None")
        self.family = family
        self.capacity_entries = capacity_entries
        self.capacity_bytes = capacity_bytes
        self.policy = str(policy).lower()
        if not isinstance(policy, str) or self.policy not in _EVICTION_KEYS:
            raise ValueError(f"unknown eviction policy {policy!r}; "
                             f"expected one of {', '.join(sorted(_EVICTION_KEYS))}")
        self._eviction_key = _EVICTION_KEYS[self.policy]
        self.probe_radius = probe_radius
        self._masks = probe_masks(family.k, probe_radius)
        # Buckets probed per lookup: every mask in every table.
        self._probes = family.tables * len(self._masks)
        self._entries: dict[int, ReuseEntry] = {}
        # Buckets are int64 arrays of the live entries' rows, never empty.
        self._tables: list[dict[int, array]] = [{} for _ in range(family.tables)]
        # Row r of _keys, _norms, _bits and _ids holds one stored key, its
        # norm, every table's signature bits and its entry id; _row_of maps
        # entry id to row. Rows below _rows_used are live or listed in
        # _free_rows.
        self._keys = np.empty((0, family.dim))
        self._norms = np.empty(0)
        self._bits = np.empty((0, family.tables), dtype=np.int64)
        self._ids = np.empty(0, dtype=np.int64)
        self._row_of: dict[int, int] = {}
        self._free_rows: list[int] = []
        self._rows_used = 0
        # The largest norm ever stored, kept after its entry goes.
        self._norm_peak = 0.0
        # No more entries than this can be live: each holds a key and an
        # output of at least one element.
        self._max_rows = min(capacity_entries,
                             capacity_bytes // (length_bytes(family.dim) + length_bytes(1)))
        self._heap: list[tuple[int, ...]] = []
        self._next_id = 0
        self._total_bytes = 0
        # The last scoring pass, kept with its query object, serves later
        # lookups of that query until an insert or a removal drops it: hits
        # change only recency.
        self._last_score: tuple[PreparedQuery, np.ndarray, np.ndarray] | None = None

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
        heap = self._heap
        heapq.heappush(heap, self._eviction_key(entry, entry_id))
        if len(heap) > 2 * len(self._entries) + HEAP_SLACK:
            self._bound_heap()

    def _bound_heap(self) -> None:
        # Every hit leaves a stale key behind. Rebuilding from the live
        # entries' current keys drops only items _pop_victim would skip, so
        # the eviction order stays the same.
        if len(self._heap) > 2 * len(self._entries) + HEAP_SLACK:
            key = self._eviction_key
            self._heap = [key(e, i) for i, e in self._entries.items()]
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
        if entry.size_bytes > self.capacity_bytes:
            raise OversizedEntryError(
                f"entry of {entry.size_bytes} bytes can never fit store capacity "
                f"({self.capacity_entries} entries, {self.capacity_bytes} bytes)")
        if query is None:
            # ReuseEntry already validated the key, so sign it unchecked.
            norm, bits = self.family._norm_and_bits(key)
        else:
            norm, bits = query.norm, query.bits
        self.evict(needed_bytes=entry.size_bytes, needed_entries=1)
        entry_id = self._next_id
        self._next_id += 1
        row = self._take_row()
        for table, b in zip(self._tables, bits):
            bucket = table.get(b)
            if bucket is None:
                bucket = table[b] = _ONE_ROW * 1
                bucket[0] = row
            else:
                bucket.append(row)
        self._keys[row] = key
        self._norms[row] = norm
        if norm > self._norm_peak:
            self._norm_peak = norm
        self._bits[row] = bits
        self._ids[row] = entry_id
        entry.key_input = self._row_view(row)
        self._row_of[entry_id] = row
        self._entries[entry_id] = entry
        self._total_bytes += entry.size_bytes
        self._last_score = None
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
        ids = np.empty(rows, dtype=np.int64)
        ids[:used] = self._ids[:used]
        self._keys, self._norms, self._bits, self._ids = keys, norms, bits, ids
        for entry_id, row in self._row_of.items():
            self._entries[entry_id].key_input = self._row_view(row)

    def _row_view(self, row: int) -> np.ndarray:
        view = self._keys[row]
        view.setflags(write=False)
        return view

    def _score(self, q: PreparedQuery) -> tuple[np.ndarray, np.ndarray]:
        """The candidates' rows, in ascending order of their entry ids, and
        their raw scores; both empty when there is no candidate.

        The candidates are the entries in q's probed buckets of every table,
        each once. Their keys are stacked in id order and scored in one
        gemv, ``(keys @ q.vector) / (norms * q.norm)``; only a row whose
        products overflow is scored again, at a safe scale. The scores are raw:
        lookup applies the score rule (above 1 - SELF_SIMILARITY_SNAP is
        1.0, below 0 or NaN is 0) and its tie rule itself. A gemv may round
        a row's dot product differently with other rows stacked around it,
        so a score is the same bits only for the same stack: a reference
        that is to agree bit for bit scores the same candidates, stacked in
        id order, in one gemv.
        """
        last = self._last_score
        if last is not None and last[0] is q:
            return last[1], last[2]
        buckets = []
        masks = self._masks
        for table, bits in zip(self._tables, q.bits):
            for mask in masks:
                bucket = table.get(bits ^ mask)
                if bucket is not None:
                    buckets.append(bucket)
        if not buckets:
            rows, sims = _NO_ROWS, _NO_SIMS
        else:
            if len(buckets) > _SET_GATHER_MAX:
                # A row sits in one bucket per table, so its repeats come from
                # other tables and sit side by side once sorted.
                rows = np.sort(np.frombuffer(b"".join(buckets), np.int64))
                keep = np.empty(rows.size, dtype=bool)
                keep[0] = True
                np.not_equal(rows[1:], rows[:-1], out=keep[1:])
                rows = rows[keep]
            else:
                found = set().union(*buckets)
                rows = np.fromiter(found, np.int64, len(found))
            # The candidates' rows in id order: the same matrix, row for row,
            # as stacking their keys, so every score rounds as it would there.
            rows = rows[self._ids[rows].argsort()]
            keys, norms = self._keys[rows], self._norms[rows]
            if q.norm * self._norm_peak < _SCORE_SAFE:
                sims = (keys @ q.vector) / (norms * q.norm)
            else:
                # Norms whose product may pass the largest float64: a row whose
                # products overflow is scored again from its key and q each
                # divided by its largest magnitude, norms taken at that scale.
                with np.errstate(over="ignore", invalid="ignore"):
                    dots = keys @ q.vector
                    products = norms * q.norm
                    sims = dots / products
                over = ~(np.isfinite(dots) & np.isfinite(products))
                if over.any():
                    k = keys[over] / np.abs(keys[over]).max(axis=1, keepdims=True)
                    v = q.vector / np.abs(q.vector).max()
                    sims[over] = (k @ v) / (np.linalg.norm(k, axis=1) * np.linalg.norm(v))
        self._last_score = (q, rows, sims)
        return rows, sims

    def lookup(self, query, threshold, *, now: int = 0, service: str | None = None,
               stage: str | None = None) -> LookupOutcome:
        """Best stored neighbor of the query, gated by the threshold.

        ``query`` is a raw vector or a PreparedQuery of the store's family.
        Candidates come from the union of probed buckets across all tables,
        kept only if their ``service_id`` is ``service`` and their
        ``stage_outputs`` hold ``stage`` (each when given); the best of those
        wins, ties on similarity going to the smallest entry id. Lookups of
        one PreparedQuery object with no insert or removal in between gather
        and score its candidates once. A hit updates the entry's recency and
        hit count.
        """
        q = self._prepared(query)
        t = check_threshold(threshold)
        rows, sims = self._score(q)
        if not sims.size:
            return LookupOutcome(False, None, None, self._probes)
        # argmax keeps the first of equal scores, the smallest id, and stops
        # at the first NaN.
        best = int(sims.argmax())
        sim = sims.item(best)
        if sim > _SNAP_BOUND:
            # Every score above the bound snaps to 1.0: the first answers.
            best = int((sims > _SNAP_BOUND).argmax())
            sim = 1.0
        elif not sim > 0.0:
            # A NaN, or no score above 0: the rule decides on every score.
            snapped = _snapped(sims)
            best = int(snapped.argmax())
            sim = snapped.item(best)
        if sim < t:
            return LookupOutcome(False, None, None, self._probes)
        ids, entries = self._ids, self._entries
        best_id = ids.item(rows.item(best))
        entry = entries[best_id]
        if not _passes(entry, service, stage):
            # Filtered after scoring: a matrix-vector product can round a row
            # differently beside other rows, so scoring only the kept rows
            # could give floats that differ from a shared scoring pass. The
            # stable sort walks equal snapped scores in id order, down to the
            # threshold.
            snapped = _snapped(sims)
            order = np.argsort(-snapped, kind="stable")[:np.count_nonzero(snapped >= t)]
            for j in order.tolist():
                best_id = ids.item(rows.item(j))
                entry = entries[best_id]
                if _passes(entry, service, stage):
                    sim = snapped.item(j)
                    break
            else:
                return LookupOutcome(False, None, None, self._probes)
        entry.last_access = max(entry.last_access, now)
        entry.hit_count += 1
        self._touch(best_id, entry)
        return LookupOutcome(True, best_id, sim, self._probes)

    def lookup_stage(self, stage_id: str, query, threshold, *, now: int = 0) -> LookupOutcome:
        """As lookup, restricted to entries that recorded the given stage."""
        return self.lookup(query, threshold, now=now, stage=stage_id)

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
            key = heapq.heappop(self._heap)
            entry_id = key[-1]
            entry = self._entries.get(entry_id)
            if entry is None:
                continue
            if self._eviction_key(entry, entry_id) != key:
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
            bucket.remove(row)
            if not bucket:
                del self._tables[t][b]
        self._free_rows.append(row)
        self._total_bytes -= entry.size_bytes
        self._last_score = None

    def audit(self) -> None:
        """Walk every invariant; raises AssertionError on violation."""
        assert len(self._entries) <= self.capacity_entries, "entry capacity exceeded"
        assert self._total_bytes <= self.capacity_bytes, "byte capacity exceeded"
        assert self._total_bytes == sum(e.size_bytes for e in self._entries.values())
        assert self._row_of.keys() == self._entries.keys(), "entries and rows disagree"
        rows = list(self._row_of.values())
        assert sorted(rows + self._free_rows) == list(range(self._rows_used)), \
            "live and free rows must be distinct and cover the rows in use"
        assert (self._rows_used <= len(self._keys) == len(self._norms) == len(self._bits)
                == len(self._ids))
        for entry_id, entry in self._entries.items():
            row = self._row_of[entry_id]
            key = entry.key_input
            assert not key.flags.writeable, f"entry {entry_id} key is writable"
            assert key.tobytes() == self._keys[row].tobytes(), \
                f"entry {entry_id} key differs from its row {row}"
            norm, bits = self.family._norm_and_bits(key)
            assert self._norms[row] == norm, f"row {row} norm is stale"
            assert self._bits[row].tolist() == bits, f"row {row} bits are stale"
            assert self._ids[row] == entry_id, f"row {row} records another entry id"
            for t, b in enumerate(bits):
                assert self._tables[t].get(b, []).count(row) == 1, \
                    f"entry {entry_id} row {row} not indexed exactly once in table {t}"
        for t, table in enumerate(self._tables):
            for b, bucket in table.items():
                # An empty bucket kept per distinct key would grow with run
                # length, not with the capacities.
                assert type(bucket) is array and bucket.typecode == "q" and bucket, \
                    f"table {t} bucket {b} is not a non-empty int64 array"
        live = sum(len(bucket) for table in self._tables for bucket in table.values())
        assert live == len(self._entries) * self.family.tables, "dangling bucket references"
        assert len(self._heap) <= 2 * len(self._entries) + HEAP_SLACK, "eviction heap unbounded"
