"""Node behaviors for the three layers and hash-range forwarding.

Devices try their own cache before offloading, routers try theirs before
forwarding by hash range, and servers fall back from whole-task reuse to
per-stage reuse to execution. Node operations are synchronous decisions
("state in, steps out"): they mutate store recency immediately but hand any
deferred effects (the server's entry insert, counters) back to the caller so
a clock-driven harness can apply them at completion time. Every visit
returns one NodeOutcome: its costed steps, the envelope it passes on, and
either the payload the node served or where the task goes next.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .core import (FORWARDING_HASH_MAX, FORWARDING_SPACE, ReuseLayer, TaskEnvelope,
                   check_forwarding_hash, check_integer)
from .hashing import LshFamily, PreparedQuery, forwarding_hash
from .services import ServiceResult, ServiceSpec, _label, execute_stage
from .store import ReuseEntry, ReuseStore


class UnknownServiceError(KeyError):
    """The task names a service the server's catalog does not offer."""


@dataclass(frozen=True)
class HashRange:
    lo: int
    hi: int
    server_id: str

    def __post_init__(self):
        lo, hi = check_forwarding_hash(self.lo, "range lo"), check_forwarding_hash(self.hi, "range hi")
        if lo > hi:
            raise ValueError(f"invalid hash range [{self.lo}, {self.hi}]")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


class ForwardingTable:
    """Ordered contiguous hash ranges covering [0, 65535] exactly once."""

    def __init__(self, ranges, version: int = 1):
        self.ranges = tuple(ranges)
        self.version = check_integer("version", version, 1)
        if not self.ranges:
            raise ValueError("forwarding table needs at least one range")
        if self.ranges[0].lo != 0 or self.ranges[-1].hi != FORWARDING_HASH_MAX:
            raise ValueError(f"ranges must cover [0, {FORWARDING_HASH_MAX}]")
        for a, b in zip(self.ranges, self.ranges[1:]):
            if b.lo != a.hi + 1:
                raise ValueError(f"gap or overlap between [{a.lo},{a.hi}] and [{b.lo},{b.hi}]")
        self._los = [r.lo for r in self.ranges]

    def server_for(self, h: int) -> str:
        h = check_forwarding_hash(h)
        return self.ranges[bisect.bisect_right(self._los, h) - 1].server_id

    def server_ids(self) -> list[str]:
        return sorted({r.server_id for r in self.ranges})


def partition_hash_space(server_ids) -> ForwardingTable:
    """Equal split of [0, 65535]: floor(65536/N) values per server in
    ascending id order, remainder folded into the last range."""
    ids = sorted(server_ids)
    if not ids:
        raise ValueError("cannot partition hash space over zero servers")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate server ids")
    n = len(ids)
    width = FORWARDING_SPACE // n
    ranges = []
    lo = 0
    for i, sid in enumerate(ids):
        hi = FORWARDING_HASH_MAX if i == n - 1 else lo + width - 1
        ranges.append(HashRange(lo, hi, sid))
        lo = hi + 1
    return ForwardingTable(ranges, version=1)


@dataclass(frozen=True)
class LoadReport:
    """Per-server executed-task counts over a reporting window (cumulative
    in a run): the load that rebalance evens out."""

    executed_count: Mapping[str, int]

    def __post_init__(self):
        for sid, v in self.executed_count.items():
            check_integer(f"executed_count[{sid}]", v, 0)


def rebalance(table: ForwardingTable, report: LoadReport, step_fraction: float) -> ForwardingTable:
    """Move part of the most-loaded server's range to a lighter neighbor.

    Load is executed_count. If the most- and least-loaded servers' ranges
    are adjacent the hash values move between them directly; otherwise the
    donor's boundary shifts toward whichever of its adjacent neighbors is
    lighter. The donor always keeps at least one hash value, and an
    (effectively) balanced table is returned unchanged.
    """
    if not 0 < step_fraction <= 0.5:
        raise ValueError(f"step_fraction must be in (0, 0.5], got {step_fraction}")
    servers = table.server_ids()
    missing = [s for s in servers if s not in report.executed_count]
    if missing:
        raise ValueError(f"load report missing servers: {missing}")
    loads = {s: report.executed_count[s] for s in servers}
    hot = max(servers, key=lambda s: loads[s])
    cold = min(servers, key=lambda s: loads[s])
    if loads[hot] - loads[cold] <= 1:
        return table

    donor_indices = [i for i, r in enumerate(table.ranges) if r.server_id == hot]
    donor_idx = max(donor_indices, key=lambda i: (table.ranges[i].width, -table.ranges[i].lo))
    donor = table.ranges[donor_idx]

    neighbors = [i for i in (donor_idx - 1, donor_idx + 1) if 0 <= i < len(table.ranges)]
    cold_adjacent = [i for i in neighbors if table.ranges[i].server_id == cold]
    if cold_adjacent:
        recipient_idx = min(cold_adjacent)
    else:
        recipient_idx = min(
            neighbors,
            key=lambda i: (loads[table.ranges[i].server_id], table.ranges[i].lo))

    amount = max(1, math.floor(donor.width * step_fraction))
    amount = min(amount, donor.width - 1)
    if amount < 1:
        return table

    new_ranges = list(table.ranges)
    recipient = table.ranges[recipient_idx]
    if recipient_idx < donor_idx:
        new_ranges[recipient_idx] = replace(recipient, hi=recipient.hi + amount)
        new_ranges[donor_idx] = replace(donor, lo=donor.lo + amount)
    else:
        new_ranges[recipient_idx] = replace(recipient, lo=recipient.lo - amount)
        new_ranges[donor_idx] = replace(donor, hi=donor.hi - amount)
    return ForwardingTable(new_ranges, version=table.version + 1)


def _check_store(node_id: str, store: ReuseStore | None) -> None:
    if store is not None and not isinstance(store, ReuseStore):
        raise TypeError(f"node {node_id}: store must be a ReuseStore or None")


@dataclass
class DeviceNode:
    node_id: str
    router_id: str
    link_delay_us: int
    can_hash: bool
    hash_time_us: int
    store: ReuseStore | None = None

    def __post_init__(self):
        where = f"device {self.node_id}: "
        check_integer(where + "link_delay_us (link delay)", self.link_delay_us, 1)
        check_integer(where + "hash_time_us", self.hash_time_us, 0)
        _check_store(self.node_id, self.store)
        if self.store is not None and not self.can_hash:
            raise ValueError(
                f"device {self.node_id}: a local reuse cache needs hashing capability; "
                "set can_hash or pass store=None")


@dataclass
class RouterNode:
    node_id: str
    server_delays: dict[str, int]
    hash_time_us: int
    store: ReuseStore | None = None

    def __post_init__(self):
        if not self.server_delays:
            raise ValueError(f"router {self.node_id}: needs at least one server link")
        where = f"router {self.node_id}: "
        for sid, d in self.server_delays.items():
            check_integer(f"{where}server_delays[{sid!r}] (link delay to {sid})", d, 1)
        check_integer(where + "hash_time_us", self.hash_time_us, 0)
        _check_store(self.node_id, self.store)


@dataclass
class ServerNode:
    node_id: str
    catalog: dict[str, ServiceSpec]
    store: ReuseStore | None = None
    executed_count: int = 0
    reused_count: int = 0
    busy_us: int = 0

    def __post_init__(self):
        _check_store(self.node_id, self.store)


@dataclass(slots=True)
class CostedStep:
    """One accountable unit of node work, in processing order."""

    kind: str        # "lookup" | "hash" | "stage_lookup" | "stage_exec"
    detail: str
    cost_us: int


@dataclass(slots=True)
class ResultPayload:
    output: np.ndarray
    label: int
    reuse_layer: ReuseLayer
    source_entry: int | None = None


@dataclass(slots=True)
class NodeOutcome:
    """One node visit: its costed steps, the envelope it passes on, and the
    payload it served (None when the task moves on, to ``next_server`` from
    a router). A server always serves; when it executed anything it also
    carries the entry to insert at completion and its stage counts."""

    steps: tuple[CostedStep, ...]
    envelope: TaskEnvelope
    payload: ResultPayload | None = None
    next_server: str | None = None
    entry: ReuseEntry | None = None
    executed_stages: int = 0
    reused_stages: int = 0
    exec_busy_us: int = 0


def _query(store: ReuseStore, task: TaskEnvelope) -> PreparedQuery:
    # The task's own prepared query, or one made now for a task that
    # travels without one (or with one of another family).
    q = task.query
    if q is None or q.family is not store.family:
        q = store.family.prepare(task.input)
    return q


# A whole-task lookup's step detail, by the layer that looks and whether it hit.
_LOOKUP_DETAIL = {(layer, hit): f"{layer.value}:{'hit' if hit else 'miss'}"
                  for layer in ReuseLayer for hit in (False, True)}


@functools.lru_cache(maxsize=512)
def _stage_details(stage_id: str) -> tuple[str, str, str]:
    """A stage's step details: reused, missed and executed."""
    return f"stage:{stage_id}:reused", f"stage:{stage_id}:miss", f"stage:{stage_id}"


def _cached_payload(store: ReuseStore, query: PreparedQuery, task: TaskEnvelope, now: int,
                    lookup_time_us: int, layer: ReuseLayer, steps: list) -> ResultPayload | None:
    """One whole-task lookup, recorded as a costed step: the payload of the
    matched entry, or None on a miss. A cached result only substitutes for
    the same service's execution."""
    found = store.lookup(query, task.threshold, now=now, service=task.service_id)
    steps.append(CostedStep("lookup", _LOOKUP_DETAIL[layer, found.hit], lookup_time_us))
    if not found.hit:
        return None
    entry = store.get(found.entry_id)
    return ResultPayload(entry.output, entry.label, layer, found.entry_id)


def _forwarding_hash(family: LshFamily, task: TaskEnvelope) -> int:
    q = task.query
    if q is not None and q.family is family:
        return q.forwarding_hash
    return forwarding_hash(family, task.input)


def device_offload(dev: DeviceNode, task: TaskEnvelope, family: LshFamily,
                   lookup_time_us: int, now: int = 0) -> NodeOutcome:
    """First reuse layer: serve from the device cache or hand the task to
    the network with a forwarding hash attached (when the device can hash)."""
    if task.device_id != dev.node_id:
        raise ValueError(f"task for device {task.device_id} offered to {dev.node_id}")
    steps = []
    if dev.store is not None:
        payload = _cached_payload(dev.store, _query(dev.store, task), task, now + lookup_time_us,
                                  lookup_time_us, ReuseLayer.DEVICE, steps)
        if payload is not None:
            return NodeOutcome(tuple(steps), task, payload)
    envelope = task
    if dev.can_hash and task.forwarding_hash is None:
        envelope = task._with_forwarding_hash(_forwarding_hash(family, task))
        steps.append(CostedStep("hash", "hash", dev.hash_time_us))
    return NodeOutcome(tuple(steps), envelope)


def router_forward(router: RouterNode, task: TaskEnvelope, family: LshFamily,
                   lookup_time_us: int, table: ForwardingTable, now: int = 0) -> NodeOutcome:
    """Second reuse layer: attach the hash if the device could not, serve
    from the in-network cache, or forward to the range-owning server."""
    steps = []
    elapsed = 0
    envelope = task
    if envelope.forwarding_hash is None:
        envelope = task._with_forwarding_hash(_forwarding_hash(family, task))
        steps.append(CostedStep("hash", "hash", router.hash_time_us))
        elapsed += router.hash_time_us
    if router.store is not None:
        payload = _cached_payload(router.store, _query(router.store, envelope), envelope,
                                  now + elapsed + lookup_time_us, lookup_time_us,
                                  ReuseLayer.NETWORK, steps)
        if payload is not None:
            return NodeOutcome(tuple(steps), envelope, payload)
    next_server = table.server_for(envelope.forwarding_hash)
    if next_server not in router.server_delays:
        raise ValueError(f"router {router.node_id} has no link to server {next_server}")
    return NodeOutcome(tuple(steps), envelope, next_server=next_server)


def server_handle(server: ServerNode, task: TaskEnvelope, lookup_time_us: int,
                  now: int = 0, own: ServiceResult | None = None) -> NodeOutcome:
    """Final layer: whole-task reuse, then per-stage reuse, then execution.

    Every stage is either reused (costing one lookup) or executed (costing
    its execution time); stage lookups that miss are free. ``own``, the
    ``execute_service`` result of the task's input, stands in for running
    the stages before the first reused one, and for labelling when none is;
    later stages run on the reused output. When anything was
    executed and the server keeps a store, the outcome carries a fully
    populated entry for the caller to insert at completion time, so in-flight
    results are never visible early. Counter updates are deferred to the
    caller for the same reason. Since nothing enters the store during the
    visit and hits change only recency, the whole-task lookup and every
    stage lookup of the task's query share the store's one gathering and
    scoring pass over the candidates.
    """
    svc = server.catalog.get(task.service_id)
    if svc is None:
        raise UnknownServiceError(f"server {server.node_id} offers no service {task.service_id!r}")
    # An envelope takes an input of any length; a stage would size its map
    # to it, so the service's width is checked here.
    if task.input.size != svc.input_dim:
        raise ValueError(f"server {server.node_id}: input has dim {task.input.size}, "
                         f"service {svc.service_id!r} expects {svc.input_dim}")
    store = server.store
    steps = []
    elapsed = 0
    if store is not None:
        query = _query(store, task)
        elapsed += lookup_time_us
        payload = _cached_payload(store, query, task, now + elapsed, lookup_time_us,
                                  ReuseLayer.SERVER, steps)
        if payload is not None:
            return NodeOutcome(tuple(steps), task, payload)

    current = task.input
    stage_outputs: dict[str, np.ndarray] = {}
    reused = 0
    executed = 0
    busy = 0
    for j, stage in enumerate(svc.stages):
        reused_detail, miss_detail, exec_detail = _stage_details(stage.stage_id)
        reused_here = False
        if store is not None:
            found = store.lookup_stage(stage.stage_id, query, task.threshold,
                                       now=now + elapsed + lookup_time_us)
            if found.hit:
                current = store.get(found.entry_id).stage_outputs[stage.stage_id]
                steps.append(CostedStep("stage_lookup", reused_detail, lookup_time_us))
                elapsed += lookup_time_us
                reused += 1
                reused_here = True
            else:
                steps.append(CostedStep("stage_lookup", miss_detail, 0))
        if not reused_here:
            if own is not None and reused == 0:
                current = own.stage_outputs[j]
            else:
                current = execute_stage(stage, current)
            steps.append(CostedStep("stage_exec", exec_detail, stage.exec_time_us))
            elapsed += stage.exec_time_us
            executed += 1
            busy += stage.exec_time_us
        stage_outputs[stage.stage_id] = current

    label = own.label if own is not None and reused == 0 else _label(svc, current)
    layer = ReuseLayer.NONE if reused == 0 else ReuseLayer.PARTIAL_SERVER
    payload = ResultPayload(current, label, layer)
    entry = None
    if executed > 0 and store is not None:
        # Every array here is frozen already: the task's checked input, and
        # stage outputs from execute_stage, oracle or stored entries.
        entry = ReuseEntry._of_frozen(task.input, task.service_id, stage_outputs, current, label)
    return NodeOutcome(tuple(steps), task, payload, None, entry, executed, reused, busy)
