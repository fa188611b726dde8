"""Deterministic discrete-event replay of a task trace over a topology.

A Simulation loads and checks a bundle once, and each run() is a fresh
replay of it, at the rows' own thresholds or at one given for that replay.

Simulated time is integer microseconds; events are processed in (time, seq)
order where seq is the enqueue counter, so identical configs and seeds give
byte-identical outputs. Arrivals stream from the trace in time order, and
the heap holds only in-flight events: each heap item is (time_us, seq,
then, journey), with ``then`` the bound method that moves the task on once
the event's time is reached. Node decisions run synchronously when a task
reaches the node, but their deferred effects (a server's entry insert, its
load counters) apply at the simulated completion time, so an in-flight
result is never reusable before it would exist.

Before the first event of the first replay, the bundle's inputs are signed
in one batch and each (service, input) pipeline of the trace runs once, one
oracle pass per service: servers take a task's own stage outputs from it,
and each reused result is judged against it on completion. Later replays
reuse both passes, which depend on the inputs alone.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, write_json
from .core import RESULT_ATOL, ReuseLayer, TaskEnvelope, check_threshold
from .fabric import (DeviceNode, ForwardingTable, LoadReport, NodeOutcome, RouterNode,
                     ServerNode, device_offload, partition_hash_space, rebalance,
                     router_forward, server_handle)
from .hashing import LshFamily, PreparedQuery, check_signable_rows
from .services import ServiceResult, ServiceSpec, oracle
from .store import ReuseEntry, ReuseStore
from .workload import read_trace_csv, read_vectors_csv, write_csv

EVENT_TASK_ARRIVAL = "TaskArrival"
EVENT_LINK_DELIVERY = "LinkDelivery"
EVENT_EXECUTION_DONE = "ExecutionDone"
EVENT_LOOKUP_DONE = "LookupDone"
EVENT_CONTROL_WINDOW = "ControlWindow"

_STEP_EVENT_KIND = {
    "lookup": EVENT_LOOKUP_DONE,
    "stage_lookup": EVENT_LOOKUP_DONE,
    "hash": EVENT_EXECUTION_DONE,
    "stage_exec": EVENT_EXECUTION_DONE,
}

LAYER_ORDER = list(ReuseLayer)
# The layers that the per-task path tests, as globals: cheaper than enum lookups.
_NO_REUSE, _DEVICE_LAYER, _ROUTER_LAYER = ReuseLayer.NONE, ReuseLayer.DEVICE, ReuseLayer.NETWORK

PER_TASK_HEADER = ["task_id", "device_id", "service_id", "created_at_us",
                   "completed_at_us", "completion_us", "reuse_layer", "accurate"]
EVENTS_HEADER = ["time_us", "seq", "kind", "node_id", "task_id", "detail", "cost_us"]


# Control windows allowed per task: each window is an event and a sample in
# metrics.json, so this bounds the control plane's share of a replay.
_WINDOWS_PER_TASK = 16


class SimulationError(Exception):
    """The trace or its referenced data cannot be replayed."""


@dataclass(slots=True)
class _Journey:
    envelope: TaskEnvelope  # the task (id, device, service, ...) as last passed on
    vector_id: int
    router_id: str
    server_id: str | None = None
    # The latest node visit's outcome; the visit that serves is the last.
    outcome: NodeOutcome | None = None


@dataclass(slots=True)
class TaskRecord:
    task_id: int
    device_id: str
    service_id: str
    vector_id: int
    created_at: int
    completed_at: int
    reuse_layer: ReuseLayer
    accurate: bool | None

    @property
    def completion_us(self) -> int:
        return self.completed_at - self.created_at


def _agrees(truth, payload) -> bool:
    """True iff a reused result agrees with the task's own execution: equal
    labels, equal output shapes, and every output element within
    RESULT_ATOL. This is the predicate behind the reuse-accuracy metric.

    Outputs are finite (tanh values), and for finite arrays max |diff| <= atol
    is exactly allclose with rtol=0.
    """
    return (truth.label == payload.label
            and truth.output.shape == payload.output.shape
            and float(np.abs(truth.output - payload.output).max()) <= RESULT_ATOL)


class MetricsReport:
    """Per-task records, aggregate figures, and the optional event log."""

    def __init__(self, records: list[TaskRecord], aggregates: dict, events: list | None):
        self.records = records
        self.aggregates = aggregates
        self.events = events

    def write_per_task_csv(self, path) -> None:
        write_csv(path, PER_TASK_HEADER, (
            [r.task_id, r.device_id, r.service_id, r.created_at, r.completed_at, r.completion_us,
             r.reuse_layer.value, "na" if r.accurate is None else ("true" if r.accurate else "false")]
            for r in self.records))

    def write_metrics_json(self, path) -> None:
        write_json(path, self.aggregates)

    def write_events_csv(self, path) -> None:
        if self.events is None:
            raise ValueError("run() was invoked without event_log=True")
        write_csv(path, EVENTS_HEADER, self.events)

    def summary_line(self) -> str:
        a = self.aggregates
        mean = a["mean_completion_ms"]
        acc = a["accuracy_pct"]
        return ("tasks={} mean_completion={} reuse={}% accuracy={}".format(
            a["tasks"],
            "n/a" if mean is None else f"{mean:.2f}ms",
            f"{a['reuse_pct']:.1f}",
            "n/a" if acc is None else f"{acc:.1f}%"))


class Simulation:
    """A trace and a topology, loaded and checked once; single thread.

    Each run() is a fresh replay with its own nodes, stores, clock and
    report, so a Simulation can be replayed at as many thresholds as wanted.
    """

    def __init__(self, config):
        self.config = config
        self.catalog: dict[str, ServiceSpec] = config.service_map()
        # The inputs are read and checked before anything is sized by dim.
        self._load_inputs()
        self._check_windows()
        self.family = LshFamily(config.dim, k=config.lsh.k, tables=config.lsh.tables,
                                seed=config.seed)
        # One PreparedQuery per distinct vector id of the trace, and the
        # ground truth of every (service id, vector id) pair of the trace,
        # both made when the first replay starts.
        self._queries: dict[int, PreparedQuery] = {}
        self._truths: dict[tuple[str, int], ServiceResult] = {}

    def _build_store(self, store_cfg) -> ReuseStore | None:
        if store_cfg is None or not store_cfg.builds_store:
            return None
        radius = store_cfg.probe_radius
        if radius is None:
            radius = self.config.lsh.probe_radius
        return ReuseStore(self.family, store_cfg.capacity_entries, store_cfg.capacity_bytes,
                          policy=store_cfg.policy, probe_radius=radius)

    def _build_nodes(self) -> None:
        cfg = self.config
        self.devices: dict[str, DeviceNode] = {}
        self.routers: dict[str, RouterNode] = {}
        self.servers: dict[str, ServerNode] = {}
        for d in cfg.topology.devices:
            self.devices[d.node_id] = DeviceNode(
                d.node_id, d.router, d.delay_us, d.can_hash, self._hash_time_us(d),
                self._build_store(d.store))
        for r in cfg.topology.routers:
            self.routers[r.node_id] = RouterNode(
                r.node_id, dict(r.server_delays), self._hash_time_us(r),
                self._build_store(r.store))
        for s in cfg.topology.servers:
            self.servers[s.node_id] = ServerNode(s.node_id, self.catalog,
                                                 self._build_store(s.store))

    def _hash_time_us(self, node_cfg) -> int:
        """A device's or router's hash time: its own, else the cost model's."""
        own = node_cfg.hash_time_us
        return self.config.cost.hash_time_us if own is None else own

    def _load_inputs(self) -> None:
        cfg = self.config
        try:
            self.vectors = read_vectors_csv(cfg.vectors_path)
            rows = read_trace_csv(cfg.trace_path)
        except ValueError as exc:
            raise SimulationError(str(exc)) from None
        if len(self.vectors) and self.vectors.shape[1] != cfg.dim:
            raise SimulationError(
                f"{cfg.vectors_path}: vectors have dim {self.vectors.shape[1]}, experiment dim is {cfg.dim}")
        try:
            check_signable_rows(self.vectors)
        except ValueError as exc:
            raise SimulationError(f"{cfg.vectors_path}: vector {exc.row}: {exc}") from None
        # Checked: from here on every row is trusted as it is, and read-only.
        self.vectors.setflags(write=False)
        self.rows = []
        device_ids = {d.node_id for d in cfg.topology.devices}
        for i, row in enumerate(rows):
            lineno = i + 2
            if row.device_id not in device_ids:
                raise SimulationError(f"{cfg.trace_path}: row {lineno}: unknown device {row.device_id!r}")
            if row.service_id not in self.catalog:
                raise SimulationError(f"{cfg.trace_path}: row {lineno}: unknown service {row.service_id!r}")
            if not 0 <= row.vector_id < len(self.vectors):
                raise SimulationError(f"{cfg.trace_path}: row {lineno}: unknown vector {row.vector_id}")
            if row.time_us < 0:
                raise SimulationError(f"{cfg.trace_path}: row {lineno}: negative time")
            threshold = cfg.thresholds.get(row.service_id, row.threshold)
            if not 0.0 <= threshold <= 1.0:
                raise SimulationError(f"{cfg.trace_path}: row {lineno}: threshold {threshold} outside [0, 1]")
            self.rows.append((row, float(threshold)))

    def _check_windows(self) -> None:
        """Reject a control window so short that the replay would schedule
        more than _WINDOWS_PER_TASK windows per task.

        Windows run until the last task completes, so they are counted up
        to an upper bound on the makespan: the last arrival plus the slowest
        task the configured costs allow, every hash, lookup and link delay
        taken at its largest and every stage at the dearer of a reuse and an
        execution. There is no queueing, so no task takes longer.
        """
        cfg = self.config
        window = cfg.control.window_us
        if window == 0 or not self.rows:
            return
        topo = cfg.topology
        lookup = cfg.cost.lookup_time_us
        hash_us = max([cfg.cost.hash_time_us]
                      + [self._hash_time_us(n) for n in topo.devices + topo.routers])
        links = (max(d.delay_us for d in topo.devices)
                 + max(delay for r in topo.routers for delay in r.server_delays.values()))
        pipeline = max(sum(max(lookup, st.exec_time_us) for st in svc.stages)
                       for svc in cfg.services)
        # Device and router each hash and look up once, the server looks up
        # the whole task; the links are crossed out and back.
        bound = (max(row.time_us for row, _ in self.rows)
                 + 2 * hash_us + 3 * lookup + 2 * links + pipeline)
        windows = bound // window + 1
        if windows > _WINDOWS_PER_TASK * len(self.rows):
            raise ConfigError(
                f"experiment.control.window_us: {window} us windows over a makespan of up to "
                f"{bound} us would schedule {windows} control windows, more than "
                f"{_WINDOWS_PER_TASK} per task for {len(self.rows)} tasks")

    # -- event plumbing -----------------------------------------------------

    def _push(self, time_us: int, kind: str, node_id: str, journey, detail: str,
              cost_us: int, then) -> None:
        """Schedule ``then(journey, time_us)`` under the next seq, writing
        the event to the log when one is kept."""
        seq = self.seq
        self.seq = seq + 1
        if self.event_rows is not None:
            self.event_rows.append((time_us, seq, kind, node_id,
                                    "" if journey is None else journey.envelope.task_id,
                                    detail, cost_us))
        heapq.heappush(self.heap, (time_us, seq, then, journey))

    def _visit(self, journey, node_id: str, now: int, outcome: NodeOutcome, then) -> None:
        """Take in a node visit's outcome and run its steps back to back;
        ``then`` moves the task on when the last one ends.

        The earlier steps only advance time, so they go to the event log
        alone, and with zero steps ``then`` runs at once.
        """
        journey.outcome = outcome
        journey.envelope = outcome.envelope
        steps = outcome.steps
        if not steps:
            then(journey, now)
            return
        t = now
        event_rows = self.event_rows
        for step in steps[:-1]:
            t += step.cost_us
            if event_rows is not None:
                event_rows.append((t, self.seq, _STEP_EVENT_KIND[step.kind], node_id,
                                   journey.envelope.task_id, step.detail, step.cost_us))
                self.seq += 1
        last = steps[-1]
        self._push(t + last.cost_us, _STEP_EVENT_KIND[last.kind], node_id, journey,
                   last.detail, last.cost_us, then)

    def _cache_response(self, node, layer: ReuseLayer, journey, now: int) -> None:
        """A node caches a result that it forwards but did not serve: one
        whose reuse layer is not the node's own ``layer``."""
        if node.store is not None and (p := journey.outcome.payload).reuse_layer is not layer:
            envelope = journey.envelope
            entry = ReuseEntry._of_frozen(envelope.input, envelope.service_id, {},
                                          p.output, p.label, now)
            node.store.insert(entry, envelope.query)

    # -- a task's way: device, router, server and back -----------------------

    def _arrive_device(self, journey, now: int) -> None:
        dev = self.devices[journey.envelope.device_id]
        outcome = device_offload(dev, journey.envelope, self.family,
                                 self.config.cost.lookup_time_us, now=now)
        self._visit(journey, dev.node_id, now, outcome,
                    self._leave_device if outcome.payload is None else self._respond_at_device)

    def _leave_device(self, journey, now: int) -> None:
        dev = self.devices[journey.envelope.device_id]
        self._push(now + dev.link_delay_us, EVENT_LINK_DELIVERY, dev.router_id, journey,
                   f"{dev.node_id}->{dev.router_id}", dev.link_delay_us, self._arrive_router)

    def _arrive_router(self, journey, now: int) -> None:
        router = self.routers[journey.router_id]
        outcome = router_forward(router, journey.envelope, self.family,
                                 self.config.cost.lookup_time_us, self.table, now=now)
        self._visit(journey, router.node_id, now, outcome,
                    self._leave_router if outcome.payload is None else self._respond_at_router)

    def _leave_router(self, journey, now: int) -> None:
        router = self.routers[journey.router_id]
        sid = journey.server_id = journey.outcome.next_server
        delay = router.server_delays[sid]
        self._push(now + delay, EVENT_LINK_DELIVERY, sid, journey,
                   f"{router.node_id}->{sid}", delay, self._arrive_server)

    def _arrive_server(self, journey, now: int) -> None:
        server = self.servers[journey.server_id]
        envelope = journey.envelope
        outcome = server_handle(server, envelope, self.config.cost.lookup_time_us, now=now,
                                own=self._truths[(envelope.service_id, journey.vector_id)])
        self._visit(journey, server.node_id, now, outcome, self._leave_server)

    def _leave_server(self, journey, now: int) -> None:
        server = self.servers[journey.server_id]
        outcome = journey.outcome
        if outcome.entry is not None:
            outcome.entry.insert_time = now
            outcome.entry.last_access = now
            server.store.insert(outcome.entry, journey.envelope.query)
        if outcome.executed_stages > 0:
            server.executed_count += 1
            server.busy_us += outcome.exec_busy_us
        # A server's payload layer is NONE, SERVER or PARTIAL_SERVER.
        if outcome.payload.reuse_layer is not _NO_REUSE:
            server.reused_count += 1
        router = self.routers[journey.router_id]
        delay = router.server_delays[server.node_id]
        self._push(now + delay, EVENT_LINK_DELIVERY, router.node_id, journey,
                   f"{server.node_id}->{router.node_id}", delay, self._respond_at_router)

    def _respond_at_router(self, journey, now: int) -> None:
        router = self.routers[journey.router_id]
        self._cache_response(router, _ROUTER_LAYER, journey, now)
        dev = self.devices[journey.envelope.device_id]
        self._push(now + dev.link_delay_us, EVENT_LINK_DELIVERY, dev.node_id, journey,
                   f"{dev.router_id}->{dev.node_id}", dev.link_delay_us, self._respond_at_device)

    def _respond_at_device(self, journey, now: int) -> None:
        self._cache_response(self.devices[journey.envelope.device_id], _DEVICE_LAYER, journey, now)
        self._complete(journey, now)

    def _complete(self, journey, now: int) -> None:
        payload = journey.outcome.payload
        envelope = journey.envelope
        key = (envelope.service_id, journey.vector_id)
        accurate = (None if payload.reuse_layer is _NO_REUSE
                    else _agrees(self._truths[key], payload))
        self.records.append(TaskRecord(envelope.task_id, envelope.device_id, *key,
                                       envelope.created_at, now, payload.reuse_layer, accurate))
        self.outstanding -= 1

    # -- control plane ------------------------------------------------------

    def _control_window(self, _journey, now: int) -> None:
        self._sample_window(now)
        if self.config.control.rebalance and len(self.servers) >= 2:
            report = self._load_report()
            new_table = rebalance(self.table, report, self.config.control.step_fraction)
            if new_table.version != self.table.version:
                self.table = new_table
        if self.outstanding > 0:
            self._push(now + self.config.control.window_us, EVENT_CONTROL_WINDOW,
                       "controller", None, f"window:v{self.table.version}", 0,
                       self._control_window)

    def _load_report(self) -> LoadReport:
        return LoadReport({s.node_id: s.executed_count for s in self.servers.values()})

    def _server_counters(self) -> dict:
        """Each server's counters, in server id order."""
        return {s.node_id: {
            "executed_count": s.executed_count,
            "reused_count": s.reused_count,
            "stored_bytes": s.store.total_bytes if s.store else 0,
            "busy_us": s.busy_us,
        } for s in sorted(self.servers.values(), key=lambda n: n.node_id)}

    def _sample_window(self, time_us: int) -> None:
        self.window_samples.append({
            "time_us": time_us,
            "table_version": self.table.version,
            "servers": self._server_counters(),
        })

    # -- main loop ----------------------------------------------------------

    def run(self, *, threshold: float | None = None, event_log: bool = False) -> MetricsReport:
        """Replay the trace from a cold start: every task at ``threshold``
        when one is given, else at its row's own. Each call builds its own
        nodes, stores and report, and leaves earlier reports as they were."""
        if threshold is not None:
            threshold = check_threshold(threshold)
        rows = self.rows
        n = len(rows)
        if rows and not self._truths:
            # The first replay fingerprints every input of the checked bundle
            # in one batched pass; the trace's inputs keep their queries.
            # Then one oracle pass per service runs each input the trace
            # sends to it, bit for bit as executing that input alone would.
            ids_of: dict[str, set[int]] = {}
            for row, _ in rows:
                ids_of.setdefault(row.service_id, set()).add(row.vector_id)
            queries = self.family._prepare_rows(self.vectors)
            self._queries = {vector_id: queries[vector_id]
                             for vector_id in set().union(*ids_of.values())}
            for service_id, ids in ids_of.items():
                ids = sorted(ids)
                for vector_id, truth in zip(ids, oracle(self.catalog[service_id], self.vectors[ids])):
                    self._truths[(service_id, vector_id)] = truth
        self._build_nodes()
        self.table = partition_hash_space([s.node_id for s in self.servers.values()])
        self.heap: list[tuple] = []
        self.clock = 0
        self.records: list[TaskRecord] = []
        self.window_samples: list[dict] = []
        self.outstanding = n
        # Arrival i takes seq i, and the first control window seq n, as if
        # every arrival had been scheduled up front.
        self.event_rows: list[tuple] | None = None
        if event_log:
            self.event_rows = [(row.time_us, i, EVENT_TASK_ARRIVAL, row.device_id, i, "", 0)
                               for i, (row, _) in enumerate(rows)]
        self.seq = n
        if rows and self.config.control.window_us > 0:
            self._push(self.config.control.window_us, EVENT_CONTROL_WINDOW,
                       "controller", None, "window:v1", 0, self._control_window)

        # Arrivals stream from the trace, merged with the heap by (time,
        # seq). The sort is stable, so tied arrivals keep trace order, and
        # an arrival's seq is below every scheduled event's, so it goes
        # first at a tied time. The heap holds only in-flight events.
        arrivals = sorted(range(n), key=lambda i: rows[i][0].time_us)
        heap = self.heap
        k = 0
        while k < n or heap:
            if k < n and (not heap or rows[arrivals[k]][0].time_us <= heap[0][0]):
                task_id = arrivals[k]
                k += 1
                row, row_threshold = rows[task_id]
                time_us, then = row.time_us, self._arrive_device
                # The query travels with the task; tasks with the same input
                # share it. Both the row under it and the threshold were
                # checked at load.
                envelope = TaskEnvelope._of_query(
                    task_id, row.device_id, row.service_id, self._queries[row.vector_id],
                    row_threshold if threshold is None else threshold, time_us)
                journey = _Journey(envelope, row.vector_id,
                                   self.devices[row.device_id].router_id)
            else:
                time_us, _, then, journey = heapq.heappop(heap)
            if time_us < self.clock:
                raise SimulationError("event queue violated clock monotonicity")
            self.clock = time_us
            then(journey, time_us)

        if self.outstanding != 0:
            raise SimulationError(f"{self.outstanding} tasks never completed")
        if self.event_rows is not None:
            # Rows were written when scheduled; processing order is (time, seq).
            self.event_rows.sort()
        self.records.sort(key=lambda r: r.task_id)
        self._sample_window(self.clock)
        return MetricsReport(self.records, self._aggregate(), self.event_rows)

    def _aggregate(self) -> dict:
        records = self.records
        n = len(records)
        makespan = self.clock
        per_layer = {}
        for layer in LAYER_ORDER:
            group = [r.completion_us for r in records if r.reuse_layer is layer]
            per_layer[layer.value] = {
                "count": len(group),
                "mean_completion_ms": (sum(group) / len(group) / 1000.0) if group else None,
            }
        reused = [r for r in records if r.reuse_layer is not ReuseLayer.NONE]
        judged = [r for r in reused if r.accurate is not None]
        servers = self._server_counters()
        for counters in servers.values():
            counters["busy_fraction"] = (counters["busy_us"] / makespan) if makespan else 0.0
        total_busy = sum(s.busy_us for s in self.servers.values())
        return {
            "tasks": n,
            "makespan_us": makespan,
            "mean_completion_ms": (sum(r.completion_us for r in records) / n / 1000.0) if n else None,
            "reuse_pct": (100.0 * len(reused) / n) if n else 0.0,
            "accuracy_pct": (100.0 * sum(1 for r in judged if r.accurate) / len(judged)) if judged else None,
            "per_layer": per_layer,
            "servers": servers,
            "busy_fraction": (total_busy / (len(self.servers) * makespan)) if makespan else 0.0,
            "table_version": self.table.version,
            "windows": self.window_samples,
        }


def run_experiment(config, *, event_log: bool = False,
                   threshold: float | None = None) -> MetricsReport:
    """Load the config's bundle and replay it once."""
    return Simulation(config).run(threshold=threshold, event_log=event_log)


def sweep_thresholds(config, thresholds) -> list[dict]:
    """One replay per threshold of the same bundle, loaded once.

    Returns one row per threshold: the threshold, reuse percentage,
    accuracy percentage (None when nothing was reused), and the full report.
    """
    values = [check_threshold(t) for t in thresholds]
    if not values:
        raise ValueError("no thresholds given")
    if values != sorted(values):
        raise ValueError(f"thresholds must be sorted ascending: {values}")
    sim = Simulation(config)
    out = []
    for t in values:
        report = sim.run(threshold=t)
        out.append({
            "threshold": t,
            "reuse_pct": report.aggregates["reuse_pct"],
            "accuracy_pct": report.aggregates["accuracy_pct"],
            "report": report,
        })
    return out


def write_sweep_csv(path, rows) -> None:
    """Threshold sweep table: one data row per threshold."""
    write_csv(path, ["threshold", "reuse_pct", "accuracy_pct"], (
        [repr(float(row["threshold"])), f"{row['reuse_pct']:.4f}",
         "" if row["accuracy_pct"] is None else f"{row['accuracy_pct']:.4f}"] for row in rows))
