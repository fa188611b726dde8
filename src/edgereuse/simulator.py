"""Deterministic discrete-event replay of a task trace over a topology.

A Simulation loads and checks a bundle once, and each run() is a fresh
replay of it, at the rows' own thresholds or at one given for that replay.

Simulated time is integer microseconds; events are processed in (time, seq)
order where seq is the enqueue counter, so identical configs and seeds give
byte-identical outputs. Each task is one process, a generator that walks
device, router, server and back and yields the time of its next event; the
controller is another. A process writes its own event log row, under the
seq the event is scheduled with, only when a log is kept. Arrivals stream
from the trace in time order, and the heap holds only in-flight events:
each heap item is (time_us, seq, process, task_id), and the process
resumes once the event's time is reached. Node decisions run synchronously
when a task reaches the node, but their deferred effects (a server's entry
insert, its load counters) apply at the simulated completion time, so an
in-flight result is never reusable before it would exist.

Arrivals are taken in batches of consecutive arrivals. When a batch's first
task arrives, the batch's inputs are signed in one pass and each of its
(service, input) pipelines runs once, one oracle pass per service: servers
take a task's own stage outputs from it, and each reused result is judged
against it on completion. A task keeps its own query and truth until it
completes, so the passes' results live while their tasks are in flight,
and every replay, the first or a later one, runs the passes anew.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, _json, write_json
from .core import RESULT_ATOL, ReuseLayer, TaskEnvelope, check_threshold
from .fabric import (DeviceNode, ForwardingTable, LoadReport, NodeOutcome, RouterNode,
                     ServerNode, device_offload, partition_hash_space, rebalance,
                     router_forward, server_handle)
from .hashing import LshFamily, check_signable_rows
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

# The layers that the per-task path tests, as globals: cheaper than enum lookups.
_NO_REUSE, _DEVICE_LAYER, _ROUTER_LAYER = ReuseLayer.NONE, ReuseLayer.DEVICE, ReuseLayer.NETWORK

PER_TASK_HEADER = ["task_id", "device_id", "service_id", "created_at_us",
                   "completed_at_us", "completion_us", "reuse_layer", "accurate"]
EVENTS_HEADER = ["time_us", "seq", "kind", "node_id", "task_id", "detail", "cost_us"]


# Arrivals per batch of the signing and oracle passes: a batch's queries and
# truths live while its tasks are in flight.
_BATCH_TASKS = 1024

# Control windows allowed per task: each window is an event and a sample in
# metrics.json, so this bounds the control plane's share of a replay.
_WINDOWS_PER_TASK = 16


class SimulationError(Exception):
    """The trace or its referenced data cannot be replayed."""


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


def _owned(result: ServiceResult) -> ServiceResult:
    """The result with each stage output copied into a read-only array of
    its own."""
    outs = []
    for out in result.stage_outputs:
        out = out.copy()
        out.setflags(write=False)
        outs.append(out)
    return ServiceResult(outs[-1], result.label, tuple(outs))


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
            trace = read_trace_csv(cfg.trace_path)
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
        # Each row's threshold: the experiment's for its service, else its own.
        services = trace.service_ids
        override = np.array([s in cfg.thresholds for s in services], dtype=bool)
        value = np.array([cfg.thresholds.get(s, 0.0) for s in services], dtype=np.float64)
        thresholds = np.where(override[trace.service], value[trace.service], trace.threshold)
        # One mask per check, in the order a row is checked; the first row
        # that fails any is named, with the first check it fails.
        known = {d.node_id for d in cfg.topology.devices}
        checks = [
            (~np.array([d in known for d in trace.device_ids], dtype=bool)[trace.device],
             lambda i: f"unknown device {trace.device_ids[trace.device[i]]!r}"),
            (~np.array([s in self.catalog for s in services], dtype=bool)[trace.service],
             lambda i: f"unknown service {services[trace.service[i]]!r}"),
            (trace.vector_id >= len(self.vectors),
             lambda i: f"unknown vector {trace.vector_id[i]}"),
            (~((0.0 <= thresholds) & (thresholds <= 1.0)),
             lambda i: f"threshold {float(thresholds[i])} outside [0, 1]"),
        ]
        failed = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
        for i in failed[:1].tolist():
            message = next(say(i) for mask, say in checks if mask[i])
            raise SimulationError(f"{cfg.trace_path}: row {i + 2}: {message}")
        thresholds.setflags(write=False)
        self.trace = replace(trace, threshold=thresholds)

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
        n = len(self.trace)
        if window == 0 or n == 0:
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
        bound = (int(self.trace.time_us.max())
                 + 2 * hash_us + 3 * lookup + 2 * links + pipeline)
        windows = bound // window + 1
        if windows > _WINDOWS_PER_TASK * n:
            raise ConfigError(
                f"experiment.control.window_us: {window} us windows over a makespan of up to "
                f"{bound} us would schedule {windows} control windows, more than "
                f"{_WINDOWS_PER_TASK} per task for {n} tasks")

    # -- event log ----------------------------------------------------------

    def _steps(self, outcome: NodeOutcome, node_id: str, now: int) -> int:
        """Run a node visit's steps back to back from ``now`` and return the
        time the last one ends.

        With a log kept, each step gets its row. The earlier steps only
        advance time, so each takes a seq of its own; the last is the task's
        next event and takes the seq it is scheduled with.
        """
        steps = outcome.steps
        event_rows = self.event_rows
        if event_rows is None:
            for step in steps:
                now += step.cost_us
            return now
        task_id = outcome.envelope.task_id
        last = len(steps) - 1
        for i, step in enumerate(steps):
            now += step.cost_us
            event_rows.append((now, self.seq, _STEP_EVENT_KIND[step.kind], node_id,
                               task_id, step.detail, step.cost_us))
            if i < last:
                self.seq += 1
        return now

    def _log_link(self, now: int, src: str, dst: str, task_id: int, delay: int) -> None:
        """Log a link delivery that is scheduled next, under its seq."""
        self.event_rows.append((now, self.seq, EVENT_LINK_DELIVERY, dst, task_id,
                                f"{src}->{dst}", delay))

    # -- a task's way: device, router, server and back -----------------------

    def _cache_response(self, node, layer: ReuseLayer, outcome: NodeOutcome, now: int) -> None:
        """A node caches a result that it forwards but did not serve: one
        whose reuse layer is not the node's own ``layer``."""
        if node.store is not None and (p := outcome.payload).reuse_layer is not layer:
            envelope = outcome.envelope
            entry = ReuseEntry._of_frozen(envelope.input, envelope.service_id, {},
                                          p.output, p.label, now)
            node.store.insert(entry, envelope.query)

    def _task(self, envelope: TaskEnvelope, vector_id: int, truth: ServiceResult, now: int):
        """One task's whole way, from its arrival at ``now`` to its record.
        ``truth`` is the task's own execution, from the oracle.

        Each yield is the time of the task's next event, and the task
        resumes at that time. When a log is kept, the task writes the
        event's row just before it yields. The device, then the router,
        then a server may serve it; the first that does cuts the way short,
        and the result goes back along the links it came by, cached on the
        way by each node that did not serve it. A visit with no steps ends
        at once, with no event.
        """
        log = self.event_rows
        lookup_us = self.config.cost.lookup_time_us
        task_id = envelope.task_id
        key = (envelope.service_id, vector_id)
        dev = self.devices[envelope.device_id]
        outcome = device_offload(dev, envelope, self.family, lookup_us, now=now)
        if outcome.steps:
            now = self._steps(outcome, dev.node_id, now)
            yield now
        if outcome.payload is None:
            router = self.routers[dev.router_id]
            now += dev.link_delay_us
            if log is not None:
                self._log_link(now, dev.node_id, router.node_id, task_id, dev.link_delay_us)
            yield now
            outcome = router_forward(router, outcome.envelope, self.family, lookup_us,
                                     self.table, now=now)
            if outcome.steps:
                now = self._steps(outcome, router.node_id, now)
                yield now
            if outcome.payload is None:
                server = self.servers[outcome.next_server]
                delay = router.server_delays[server.node_id]
                now += delay
                if log is not None:
                    self._log_link(now, router.node_id, server.node_id, task_id, delay)
                yield now
                # The truth's arrays are rows of its batch's stacks. A node
                # that may keep what this visit returns gets them from a copy
                # of their own, so no stored entry holds a batch's stacks.
                if dev.store is not None or router.store is not None or server.store is not None:
                    truth = _owned(truth)
                outcome = server_handle(server, outcome.envelope, lookup_us, now=now,
                                        own=truth)
                if outcome.steps:
                    now = self._steps(outcome, server.node_id, now)
                    yield now
                # The server's deferred effects apply when its visit ends.
                if outcome.entry is not None:
                    outcome.entry.insert_time = now
                    outcome.entry.last_access = now
                    server.store.insert(outcome.entry, outcome.envelope.query)
                if outcome.executed_stages > 0:
                    server.executed_count += 1
                    server.busy_us += outcome.exec_busy_us
                # A server's payload layer is NONE, SERVER or PARTIAL_SERVER.
                if outcome.payload.reuse_layer is not _NO_REUSE:
                    server.reused_count += 1
                now += delay
                if log is not None:
                    self._log_link(now, server.node_id, router.node_id, task_id, delay)
                yield now
            self._cache_response(router, _ROUTER_LAYER, outcome, now)
            now += dev.link_delay_us
            if log is not None:
                self._log_link(now, router.node_id, dev.node_id, task_id, dev.link_delay_us)
            yield now
        self._cache_response(dev, _DEVICE_LAYER, outcome, now)
        payload = outcome.payload
        envelope = outcome.envelope
        accurate = (None if payload.reuse_layer is _NO_REUSE
                    else _agrees(truth, payload))
        self.records.append(TaskRecord(task_id, envelope.device_id, *key,
                                       envelope.created_at, now, payload.reuse_layer, accurate))

    # -- control plane ------------------------------------------------------

    def _control(self):
        """The controller, as a process: a window every window_us while
        tasks are outstanding, each yielded as its time. Each samples the
        servers' counters and, with rebalancing on, may move the forwarding
        table on."""
        control = self.config.control
        now = control.window_us
        while True:
            if self.event_rows is not None:
                self.event_rows.append((now, self.seq, EVENT_CONTROL_WINDOW, "controller", "",
                                        f"window:v{self.table.version}", 0))
            yield now
            self._sample_window(now)
            if control.rebalance and len(self.servers) >= 2:
                report = LoadReport({s.node_id: s.executed_count for s in self.servers.values()})
                new_table = rebalance(self.table, report, control.step_fraction)
                if new_table.version != self.table.version:
                    self.table = new_table
            if len(self.records) == len(self.trace):
                return
            now += control.window_us

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
        trace = self.trace
        n = len(trace)
        self._build_nodes()
        self.table = partition_hash_space([s.node_id for s in self.servers.values()])
        self.heap: list[tuple] = []
        self.records: list[TaskRecord] = []
        self.window_samples: list[dict] = []
        # Arrival i takes seq i, and the first control window seq n, as if
        # every arrival had been scheduled up front.
        self.event_rows: list[tuple] | None = None
        if event_log:
            devices = map(trace.device_ids.__getitem__, trace.device.tolist())
            self.event_rows = [(time_us, i, EVENT_TASK_ARRIVAL, device_id, i, "", 0)
                               for i, (time_us, device_id)
                               in enumerate(zip(trace.time_us.tolist(), devices))]
        self.seq = n
        # Bound per replay, so a watcher patched onto heapq sees every push.
        heappush, heappop = heapq.heappush, heapq.heappop
        heap = self.heap
        if n and self.config.control.window_us > 0:
            control = self._control()
            heappush(heap, (next(control), self.seq, control, ""))
            self.seq += 1

        # Arrivals stream from the trace, merged with the heap by (time,
        # seq). An arrival's seq is below every scheduled event's, so it
        # goes first at a tied time. The heap holds only in-flight events.
        # A process runs to its next event, which is scheduled under the
        # next seq; a process that has finished schedules nothing.
        arrivals = self._arrivals(threshold)
        arrival = next(arrivals, None)
        clock = 0
        while arrival is not None or heap:
            if arrival is not None and (not heap or arrival[0] <= heap[0][0]):
                time_us, task_id, process = arrival
                arrival = next(arrivals, None)
            else:
                time_us, _, process, task_id = heappop(heap)
            if time_us < clock:
                raise SimulationError("event queue violated clock monotonicity")
            clock = time_us
            time_us = next(process, None)
            if time_us is not None:
                seq = self.seq
                self.seq = seq + 1
                heappush(heap, (time_us, seq, process, task_id))
        self.clock = clock

        if len(self.records) != n:
            raise SimulationError(f"{n - len(self.records)} tasks never completed")
        if self.event_rows is not None:
            # Rows were written when scheduled; processing order is (time, seq).
            self.event_rows.sort()
        self.records.sort(key=lambda r: r.task_id)
        self._sample_window(self.clock)
        return MetricsReport(self.records, self._aggregate(), self.event_rows)

    def _arrivals(self, threshold: float | None):
        """Yield (time_us, task_id, process) for every task, in arrival
        order: by time, tied rows in trace order.

        The arrivals are taken in batches of _BATCH_TASKS. When a batch's
        first arrival is due, its distinct inputs are signed in one batched
        pass and its distinct (service, input) pairs run in one oracle pass
        per service. Each task's process holds its own query and truth, so
        a batch's are dropped as its tasks complete: what the passes keep
        follows the tasks in flight, not the trace's length.
        """
        trace, vectors = self.trace, self.vectors
        device_ids, service_ids = trace.device_ids, trace.service_ids
        order = np.argsort(trace.time_us, kind="stable")
        for start in range(0, len(order), _BATCH_TASKS):
            tasks = order[start:start + _BATCH_TASKS]
            vector_ids = trace.vector_id[tasks]
            services = trace.service[tasks]
            inputs, input_of = np.unique(vector_ids, return_inverse=True)
            queries = self.family._prepare_rows(vectors, inputs.tolist())
            # A pair's key orders pairs by service code, then vector id.
            pairs, pair_of = np.unique(services.astype(np.int64) * len(vectors) + vector_ids,
                                       return_inverse=True)
            codes, pair_inputs = np.divmod(pairs, len(vectors))
            truths = []
            for code in dict.fromkeys(codes.tolist()):
                truths += oracle(self.catalog[service_ids[code]], vectors[pair_inputs[codes == code]])
            thresholds = (trace.threshold[tasks].tolist() if threshold is None
                          else itertools.repeat(threshold))
            for task_id, time_us, device, service, vector_id, q, p, task_threshold in zip(
                    tasks.tolist(), trace.time_us[tasks].tolist(), trace.device[tasks].tolist(),
                    services.tolist(), vector_ids.tolist(), input_of.tolist(), pair_of.tolist(),
                    thresholds):
                # The query travels with the task; the batch's tasks with
                # the same input share it. Both the row under it and the
                # threshold were checked at load.
                envelope = TaskEnvelope._of_query(task_id, device_ids[device], service_ids[service],
                                                  queries[q], task_threshold, time_us)
                yield time_us, task_id, self._task(envelope, vector_id, truths[p], time_us)

    def _aggregate(self) -> dict:
        records = self.records
        n = len(records)
        makespan = self.clock
        per_layer = {}
        for layer in ReuseLayer:
            group = [r.completion_us for r in records if r.reuse_layer is layer]
            per_layer[layer.value] = {
                "count": len(group),
                "mean_completion_ms": (sum(group) / len(group) / 1000.0) if group else None,
            }
        # A record is judged (accurate is not None) exactly when it was reused.
        reused = [r for r in records if r.reuse_layer is not ReuseLayer.NONE]
        servers = self._server_counters()
        for counters in servers.values():
            counters["busy_fraction"] = (counters["busy_us"] / makespan) if makespan else 0.0
        total_busy = sum(s.busy_us for s in self.servers.values())
        return {
            "tasks": n,
            "makespan_us": makespan,
            "mean_completion_ms": (sum(r.completion_us for r in records) / n / 1000.0) if n else None,
            "reuse_pct": (100.0 * len(reused) / n) if n else 0.0,
            "accuracy_pct": (100.0 * sum(1 for r in reused if r.accurate) / len(reused)) if reused else None,
            "per_layer": per_layer,
            "servers": servers,
            "busy_fraction": (total_busy / (len(self.servers) * makespan)) if makespan else 0.0,
            "table_version": self.table.version,
            "windows": self.window_samples,
        }


# metrics.json, declared once: _aggregate writes every key (null only where
# marked) and `edgereuse report` reads it back through the bundle's reader.
# No number exceeds the largest float: NaN, infinities and huge ints fail.
_MAX = sys.float_info.max


@dataclass(frozen=True)
class LayerMetrics:
    count: int = _json(int, lo=0, hi=_MAX)
    mean_completion_ms: float | None = _json(float, null=True, lo=0.0, hi=_MAX)


@dataclass(frozen=True)
class ServerCounters:
    executed_count: int = _json(int, lo=0, hi=_MAX)
    reused_count: int = _json(int, lo=0, hi=_MAX)
    stored_bytes: int = _json(int, lo=0, hi=_MAX)
    busy_us: int = _json(int, lo=0, hi=_MAX)


@dataclass(frozen=True)
class ServerMetrics(ServerCounters):
    # Not bounded by 1: a server runs overlapping tasks without queueing.
    busy_fraction: float = _json(float, lo=0.0, hi=_MAX)


@dataclass(frozen=True)
class WindowSample:
    time_us: int = _json(int, lo=0, hi=_MAX)
    table_version: int = _json(int, lo=1, hi=_MAX)
    servers: dict[str, ServerCounters] = _json(ServerCounters, each=dict)


@dataclass(frozen=True)
class RunMetrics:
    tasks: int = _json(int, lo=0, hi=_MAX)
    makespan_us: int = _json(int, lo=0, hi=_MAX)
    mean_completion_ms: float | None = _json(float, null=True, lo=0.0, hi=_MAX)
    reuse_pct: float = _json(float, lo=0.0, hi=100.0)
    accuracy_pct: float | None = _json(float, null=True, lo=0.0, hi=100.0)
    per_layer: dict[str, LayerMetrics] = _json(LayerMetrics, each=dict)
    servers: dict[str, ServerMetrics] = _json(ServerMetrics, each=dict)
    busy_fraction: float = _json(float, lo=0.0, hi=_MAX)
    table_version: int = _json(int, lo=1, hi=_MAX)
    windows: tuple[WindowSample, ...] = _json(WindowSample, each=list)


def run_experiment(config, *, event_log: bool = False,
                   threshold: float | None = None) -> MetricsReport:
    """Load the config's bundle and replay it once."""
    return Simulation(config).run(threshold=threshold, event_log=event_log)


def _check_thresholds(thresholds) -> list[float]:
    """A sweep's thresholds, each held to check_threshold; ValueError when
    none is given or they are not ascending."""
    values = [check_threshold(t) for t in thresholds]
    if not values:
        raise ValueError("no thresholds given")
    if values != sorted(values):
        raise ValueError(f"thresholds must be sorted ascending: {values}")
    return values


def sweep_thresholds(config, thresholds) -> list[dict]:
    """One replay per threshold of the same bundle, loaded once.

    Returns one row per threshold: the threshold, reuse percentage,
    accuracy percentage (None when nothing was reused), and the full report.
    """
    values = _check_thresholds(thresholds)
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
