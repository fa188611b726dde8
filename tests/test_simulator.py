import collections
import dataclasses
import json
import re
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import edgereuse.fabric
import edgereuse.simulator
from edgereuse.cli import main
from edgereuse.config import (ConfigError, default_experiment_data, default_services_data,
                              load_experiment, write_json)
from edgereuse.core import RESULT_ATOL, ReuseLayer
from edgereuse.fabric import ResultPayload
from edgereuse.hashing import LshFamily
from edgereuse.services import ServiceResult, execute_service
from edgereuse.simulator import _agrees
from edgereuse.simulator import (MetricsReport, Simulation, SimulationError, run_experiment,
                                 sweep_thresholds, write_sweep_csv)
from edgereuse.workload import (TraceRow, builtin_profiles, generate_trace,
                                write_trace_csv, write_vectors_csv)

DIM = 64
LINK = 3500

STORE = {"capacity_entries": 4096, "capacity_bytes": 100_000_000, "policy": "lru"}


def one_lane_topology(device_store=None, router_store=None, server_store=STORE,
                      can_hash=True):
    """One device, one router, one server; every link is 3.5 ms."""
    return {
        "devices": [{"id": "dev0", "router": "r0", "delay_us": LINK,
                     "can_hash": can_hash, "store": device_store}],
        "routers": [{"id": "r0", "servers": {"s0": LINK}, "store": router_store}],
        "servers": [{"id": "s0", "store": server_store}],
    }


def build_bundle(tmp_path, vectors, rows, topology=None, seed=9):
    write_json(tmp_path / "topology.json", topology or one_lane_topology())
    write_json(tmp_path / "services.json", default_services_data(DIM))
    write_json(tmp_path / "experiment.json", default_experiment_data(seed, dim=DIM))
    write_vectors_csv(tmp_path / "vectors.csv", vectors)
    write_trace_csv(tmp_path / "trace.csv", rows)
    return load_experiment(tmp_path / "experiment.json")


def fresh_vector(seed=5, n=1):
    v = np.random.default_rng(seed).standard_normal((n, DIM))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestHandTimings:
    def test_cold_path_costs_116_8_ms(self, tmp_path):
        # hash 1.8 + four 3.5 link hops + full lookup 1 + execution 100.
        cfg = build_bundle(tmp_path, fresh_vector(),
                           [TraceRow(0, "dev0", "cognitive-assist", 0, 0.9)])
        rep = run_experiment(cfg)
        (r,) = rep.records
        assert r.completed_at == 116_800
        assert r.reuse_layer is ReuseLayer.NONE
        assert r.accurate is None

    def test_server_hit_costs_16_8_ms(self, tmp_path):
        # Same path as the cold task minus the 100 ms execution.
        rows = [TraceRow(0, "dev0", "cognitive-assist", 0, 0.9),
                TraceRow(400_000, "dev0", "cognitive-assist", 0, 0.9)]
        cfg = build_bundle(tmp_path, fresh_vector(), rows)
        rep = run_experiment(cfg)
        hit = rep.records[1]
        assert hit.reuse_layer is ReuseLayer.SERVER
        assert hit.completion_us == 16_800
        assert hit.accurate is True

    def test_device_hit_costs_one_lookup(self, tmp_path):
        rows = [TraceRow(0, "dev0", "cognitive-assist", 0, 0.9),
                TraceRow(400_000, "dev0", "cognitive-assist", 0, 0.9)]
        topo = one_lane_topology(device_store=dict(STORE, capacity_entries=16))
        cfg = build_bundle(tmp_path, fresh_vector(), rows, topology=topo)
        rep = run_experiment(cfg)
        hit = rep.records[1]
        assert hit.reuse_layer is ReuseLayer.DEVICE
        assert hit.completion_us == 1000
        assert hit.accurate is True

    def test_network_hit_from_weak_device(self, tmp_path):
        # The router hashes for the device (1.8), looks up (1), and the two
        # device links (3.5 each) bracket the round trip: 9.8 ms.
        rows = [TraceRow(0, "dev0", "voice-command", 0, 0.9),
                TraceRow(400_000, "dev0", "voice-command", 0, 0.9)]
        topo = one_lane_topology(router_store=STORE, can_hash=False)
        cfg = build_bundle(tmp_path, fresh_vector(), rows, topology=topo)
        rep = run_experiment(cfg)
        hit = rep.records[1]
        assert hit.reuse_layer is ReuseLayer.NETWORK
        assert hit.completion_us == 9_800
        assert hit.accurate is True

    def test_partial_reuse_saves_shared_stage(self, tmp_path):
        # Pipelines share their first stage (60 ms); reusing it costs one
        # 1 ms lookup instead, so the sibling finishes 59 ms sooner.
        rows = [TraceRow(0, "dev0", "cognitive-assist", 0, 0.9),
                TraceRow(400_000, "dev0", "traffic-count", 0, 0.9)]
        cfg = build_bundle(tmp_path, fresh_vector(), rows)
        rep = run_experiment(cfg)
        cold, partial = rep.records
        assert cold.reuse_layer is ReuseLayer.NONE
        assert partial.reuse_layer is ReuseLayer.PARTIAL_SERVER
        assert cold.completion_us - partial.completion_us == 60_000 - 1000
        assert partial.accurate is True


class TestThresholdPrecedence:
    def near_pair_bundle(self, tmp_path, thresholds=None):
        v = fresh_vector()[0]
        w = np.zeros(DIM)
        w[0], w[1] = -v[1], v[0]
        w -= (w @ v) * v
        near = v + 0.05 * w / np.linalg.norm(w)
        near /= np.linalg.norm(near)
        vectors = np.stack([v, near])
        rows = [TraceRow(0, "dev0", "cognitive-assist", 0, 0.9),
                TraceRow(400_000, "dev0", "cognitive-assist", 1, 0.9)]
        write_json(tmp_path / "topology.json", one_lane_topology())
        write_json(tmp_path / "services.json", default_services_data(DIM))
        data = default_experiment_data(9, dim=DIM)
        if thresholds:
            data["thresholds"] = thresholds
        write_json(tmp_path / "experiment.json", data)
        write_vectors_csv(tmp_path / "vectors.csv", vectors)
        write_trace_csv(tmp_path / "trace.csv", rows)
        return load_experiment(tmp_path / "experiment.json")

    def test_row_threshold_admits_near_neighbor(self, tmp_path):
        cfg = self.near_pair_bundle(tmp_path)
        rep = run_experiment(cfg)
        assert rep.records[1].reuse_layer is ReuseLayer.SERVER
        # A near (not exact) neighbor returns the stored result, which is
        # not the query's own oracle output.
        assert rep.records[1].accurate is False

    def test_config_threshold_overrides_row(self, tmp_path):
        cfg = self.near_pair_bundle(tmp_path, thresholds={"cognitive-assist": 1.0})
        rep = run_experiment(cfg)
        assert rep.records[1].reuse_layer is ReuseLayer.NONE

    def test_replay_reads_the_resolved_thresholds_from_the_trace(self, tmp_path):
        # The load resolves the experiment's thresholds into the trace's own
        # column, the one threshold column a replay reads.
        cfg = self.near_pair_bundle(tmp_path, thresholds={"cognitive-assist": 1.0})
        sim = Simulation(cfg)
        assert sim.trace.threshold.tolist() == [1.0, 1.0]
        assert sim.run().records[1].reuse_layer is ReuseLayer.NONE
        sim.trace = dataclasses.replace(sim.trace, threshold=np.array([0.9, 0.9]))
        assert sim.run().records[1].reuse_layer is ReuseLayer.SERVER

    def test_sweep_override_beats_config(self, tmp_path):
        cfg = self.near_pair_bundle(tmp_path, thresholds={"cognitive-assist": 1.0})
        rep = run_experiment(cfg, threshold=0.9)
        assert rep.records[1].reuse_layer is ReuseLayer.SERVER


class TestDeterminism:
    def run_profile(self, tmp_path, tag):
        from edgereuse.cli import write_bundle
        import dataclasses
        out = tmp_path / tag
        profile = dataclasses.replace(builtin_profiles()["pandaset-like"], tasks=300)
        write_bundle(profile, 11, out)
        cfg = load_experiment(out / "experiment.json")
        rep = run_experiment(cfg, event_log=True)
        rep.write_per_task_csv(out / "per_task.csv")
        rep.write_metrics_json(out / "metrics.json")
        rep.write_events_csv(out / "events.csv")
        return out

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a = self.run_profile(tmp_path, "a")
        b = self.run_profile(tmp_path, "b")
        for name in ("per_task.csv", "metrics.json", "events.csv",
                     "trace.csv", "vectors.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_zero_capacity_stores_replay_as_no_store(self, tmp_path):
        # A store with either capacity 0 could hold nothing, so its node
        # replays byte for byte as one with no store.
        from edgereuse.cli import write_bundle
        profile = dataclasses.replace(builtin_profiles()["pandaset-like"], tasks=300)
        zeroed = {("devices", 0): "capacity_entries", ("routers", 0): "capacity_bytes",
                  ("servers", 1): "capacity_entries"}
        for tag in ("zero", "none"):
            out = tmp_path / tag
            write_bundle(profile, 11, out)
            path = out / "topology.json"
            data = json.loads(path.read_text())
            for (group, i), field in zeroed.items():
                if tag == "zero":
                    data[group][i]["store"][field] = 0
                else:
                    data[group][i]["store"] = None
            write_json(path, data)
            sim = Simulation(load_experiment(out / "experiment.json"))
            rep = sim.run(event_log=True)
            assert [sim.devices["dev0"].store, sim.routers["r0"].store,
                    sim.servers["s1"].store] == [None, None, None]
            assert sim.routers["r1"].store is not None and sim.servers["s0"].store is not None
            assert rep.aggregates["reuse_pct"] > 0
            rep.write_per_task_csv(out / "per_task.csv")
            rep.write_metrics_json(out / "metrics.json")
            rep.write_events_csv(out / "events.csv")
        for name in ("per_task.csv", "metrics.json", "events.csv"):
            assert ((tmp_path / "zero" / name).read_bytes()
                    == (tmp_path / "none" / name).read_bytes()), name

    def test_per_task_csv_schema(self, tmp_path):
        out = self.run_profile(tmp_path, "c")
        header = (out / "per_task.csv").read_text().splitlines()[0]
        assert header == ("task_id,device_id,service_id,created_at_us,"
                          "completed_at_us,completion_us,reuse_layer,accurate")


class TestEventLogParity:
    def test_event_log_changes_no_output(self, tmp_path, monkeypatch):
        import edgereuse.simulator as simulator
        from edgereuse.cli import write_bundle
        import dataclasses
        profile = dataclasses.replace(builtin_profiles()["pandaset-like"], tasks=300)
        write_bundle(profile, 11, tmp_path / "bundle")
        cfg = load_experiment(tmp_path / "bundle" / "experiment.json")
        plain = run_experiment(cfg)

        # Count the costed steps the node visits of the logged run return.
        steps = []
        for name in ("device_offload", "router_forward", "server_handle"):
            def counted(*args, _fn=getattr(simulator, name), **kwargs):
                outcome = _fn(*args, **kwargs)
                steps.append(len(outcome.steps))
                return outcome
            monkeypatch.setattr(simulator, name, counted)
        logged = run_experiment(cfg, event_log=True)

        for tag, rep in (("plain", plain), ("logged", logged)):
            (tmp_path / tag).mkdir()
            rep.write_per_task_csv(tmp_path / tag / "per_task.csv")
            rep.write_metrics_json(tmp_path / tag / "metrics.json")
        for name in ("per_task.csv", "metrics.json"):
            assert ((tmp_path / "plain" / name).read_bytes()
                    == (tmp_path / "logged" / name).read_bytes()), name
        step_kinds = (simulator.EVENT_LOOKUP_DONE, simulator.EVENT_EXECUTION_DONE)
        step_rows = [e for e in logged.events if e[2] in step_kinds]
        assert sum(steps) > len(logged.records)
        assert len(step_rows) == sum(steps)


class TestEventAccounting:
    def test_costs_sum_to_completion(self, tmp_path):
        rows = [TraceRow(0, "dev0", "cognitive-assist", 0, 0.9),
                TraceRow(400_000, "dev0", "traffic-count", 0, 0.9),
                TraceRow(800_000, "dev0", "cognitive-assist", 0, 0.9)]
        cfg = build_bundle(tmp_path, fresh_vector(), rows)
        rep = run_experiment(cfg, event_log=True)
        by_task = {}
        for time_us, seq, kind, node_id, task_id, detail, cost in rep.events:
            if task_id != "":
                by_task.setdefault(task_id, 0)
                by_task[task_id] += cost
        for record in rep.records:
            assert record.created_at + by_task[record.task_id] == record.completed_at

    def test_event_log_is_chronological(self, tmp_path):
        rows = [TraceRow(i * 50_000, "dev0", "voice-command", 0, 0.8) for i in range(6)]
        cfg = build_bundle(tmp_path, fresh_vector(), rows)
        rep = run_experiment(cfg, event_log=True)
        stamps = [(e[0], e[1]) for e in rep.events]
        assert stamps == sorted(stamps)
        kinds = {e[2] for e in rep.events}
        assert kinds <= {"TaskArrival", "LinkDelivery", "ExecutionDone",
                         "LookupDone", "ControlWindow"}

    def test_events_unavailable_without_flag(self, tmp_path):
        cfg = build_bundle(tmp_path, fresh_vector(),
                           [TraceRow(0, "dev0", "voice-command", 0, 0.8)])
        rep = run_experiment(cfg)
        with pytest.raises(ValueError, match="event_log"):
            rep.write_events_csv(tmp_path / "events.csv")


class TestArrivalStreaming:
    # Events a 2K-task seed-42 mixed replay schedules, arrivals and the
    # control windows included (counted before arrivals streamed).
    MIXED_2K_EVENTS = 8088

    def test_heap_holds_only_tasks_in_flight(self, tmp_path, monkeypatch):
        import edgereuse.simulator as simulator
        from edgereuse.cli import write_bundle
        profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=2000)
        write_bundle(profile, 42, tmp_path / "bundle")
        sim = Simulation(load_experiment(tmp_path / "bundle" / "experiment.json"))

        arrived = []
        offload = simulator.device_offload

        def counted_offload(dev, task, *args, **kwargs):
            arrived.append(task.task_id)
            return offload(dev, task, *args, **kwargs)

        peak = []
        heappush = simulator.heapq.heappush

        def watched_push(heap, item):
            heappush(heap, item)
            if heap is sim.heap:
                in_flight = len(arrived) - len(sim.records)
                # One pending event per task in flight, plus the next
                # control window.
                assert len(heap) <= in_flight + 1, (len(heap), in_flight)
                peak.append(len(heap))

        monkeypatch.setattr(simulator, "device_offload", counted_offload)
        monkeypatch.setattr(simulator.heapq, "heappush", watched_push)
        report = sim.run()
        assert sorted(arrived) == list(range(2000))
        assert len(report.records) == 2000
        assert peak
        assert sim.seq == self.MIXED_2K_EVENTS


class TestLoggedSeq:
    def test_each_scheduled_row_carries_its_heap_seq(self, tmp_path, monkeypatch):
        # A process logs its event's row just before it yields, under the
        # seq the run loop schedules the event with. Only arrivals and a
        # visit's earlier steps are logged without being pushed.
        import edgereuse.simulator as simulator
        from edgereuse.cli import write_bundle
        profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=400)
        write_bundle(profile, 42, tmp_path / "bundle")
        sim = Simulation(load_experiment(tmp_path / "bundle" / "experiment.json"))
        pushed = {}
        heappush = simulator.heapq.heappush

        def watched_push(heap, item):
            heappush(heap, item)
            if heap is sim.heap:
                time_us, seq, _, task_id = item
                pushed[time_us, seq] = task_id

        monkeypatch.setattr(simulator.heapq, "heappush", watched_push)
        events = sim.run(event_log=True).events
        rows = {(e[0], e[1]): e for e in events}
        assert len(rows) == len(events)
        for stamp, task_id in pushed.items():
            assert stamp in rows, stamp
            assert rows[stamp][4] == task_id
            assert rows[stamp][2] != simulator.EVENT_TASK_ARRIVAL
        by_seq = {e[1]: e for e in events}
        earlier_steps = 0
        for stamp, row in rows.items():
            if stamp in pushed:
                continue
            time_us, seq, kind, node_id, task_id, _, _ = row
            if kind == simulator.EVENT_TASK_ARRIVAL:
                assert seq == task_id < len(sim.trace)
                continue
            # An earlier step: the same visit's next step takes the next seq.
            assert kind in (simulator.EVENT_LOOKUP_DONE, simulator.EVENT_EXECUTION_DONE)
            following = by_seq[seq + 1]
            assert following[2] in (simulator.EVENT_LOOKUP_DONE, simulator.EVENT_EXECUTION_DONE)
            assert (following[3], following[4]) == (node_id, task_id)
            assert following[0] >= time_us
            earlier_steps += 1
        assert earlier_steps > 0
        assert any(rows[stamp][2] == simulator.EVENT_CONTROL_WINDOW for stamp in pushed)
        assert len(events) == len(pushed) + len(sim.trace) + earlier_steps
        assert sim.seq == len(events)


class TestAggregates:
    def test_layer_counts_and_reuse_pct(self, tmp_path):
        rows = [TraceRow(0, "dev0", "cognitive-assist", 0, 0.9),
                TraceRow(400_000, "dev0", "cognitive-assist", 0, 0.9),
                TraceRow(800_000, "dev0", "scene-render", 1, 0.9)]
        cfg = build_bundle(tmp_path, fresh_vector(n=2), rows)
        rep = run_experiment(cfg)
        a = rep.aggregates
        assert a["tasks"] == 3
        counts = {layer: row["count"] for layer, row in a["per_layer"].items()}
        assert counts == {"none": 2, "device": 0, "network": 0,
                          "server": 1, "partial_server": 0}
        assert a["reuse_pct"] == pytest.approx(100.0 / 3)
        assert a["accuracy_pct"] == 100.0
        assert a["servers"]["s0"]["executed_count"] == 2
        assert a["servers"]["s0"]["reused_count"] == 1
        assert a["servers"]["s0"]["busy_us"] == 200_000

    def test_replays_of_one_simulation_equal_fresh_ones(self, tmp_path):
        from edgereuse.cli import write_bundle
        profile = dataclasses.replace(builtin_profiles()["mixed"], tasks=600)
        write_bundle(profile, 42, tmp_path / "bundle")
        cfg = load_experiment(tmp_path / "bundle" / "experiment.json")
        thresholds = (0.9, 0.8, None)
        sim = Simulation(cfg)
        replayed = [sim.run(threshold=t, event_log=True) for t in thresholds]
        fresh = [Simulation(cfg).run(threshold=t, event_log=True) for t in thresholds]

        # Digests are taken after every run, so a report that a later
        # replay changed differs from its fresh twin.
        def outputs(rep, out):
            out.mkdir()
            rep.write_per_task_csv(out / "per_task.csv")
            rep.write_metrics_json(out / "metrics.json")
            rep.write_events_csv(out / "events.csv")
            return [(out / name).read_bytes()
                    for name in ("per_task.csv", "metrics.json", "events.csv")]

        for i, (a, b) in enumerate(zip(replayed, fresh)):
            assert outputs(a, tmp_path / f"replayed{i}") == outputs(b, tmp_path / f"fresh{i}"), i
        assert replayed[0].aggregates["reuse_pct"] < replayed[1].aggregates["reuse_pct"]

    def test_empty_trace(self, tmp_path):
        cfg = build_bundle(tmp_path, fresh_vector(), [])
        rep = run_experiment(cfg)
        a = rep.aggregates
        assert a["tasks"] == 0
        assert a["mean_completion_ms"] is None
        assert a["reuse_pct"] == 0.0
        assert a["accuracy_pct"] is None
        assert rep.summary_line().startswith("tasks=0")

    def test_metrics_json_round_trips(self, tmp_path):
        cfg = build_bundle(tmp_path, fresh_vector(),
                           [TraceRow(0, "dev0", "voice-command", 0, 0.8)])
        rep = run_experiment(cfg)
        rep.write_metrics_json(tmp_path / "metrics.json")
        with open(tmp_path / "metrics.json") as fh:
            loaded = json.load(fh)
        assert loaded["tasks"] == 1
        assert loaded["makespan_us"] == rep.aggregates["makespan_us"]
        assert loaded["table_version"] == 1


class TestTraceValidation:
    def error_for(self, tmp_path, vectors, rows):
        with pytest.raises(SimulationError) as exc:
            build_cfg = build_bundle(tmp_path, vectors, rows)
            Simulation(build_cfg)
        return str(exc.value)

    def test_unknown_device(self, tmp_path):
        msg = self.error_for(tmp_path, fresh_vector(),
                             [TraceRow(0, "ghost", "voice-command", 0, 0.8)])
        assert "row 2" in msg and "ghost" in msg

    def test_unknown_service(self, tmp_path):
        msg = self.error_for(tmp_path, fresh_vector(),
                             [TraceRow(0, "dev0", "nope", 0, 0.8)])
        assert "row 2" in msg and "nope" in msg

    def test_unknown_vector(self, tmp_path):
        msg = self.error_for(tmp_path, fresh_vector(),
                             [TraceRow(0, "dev0", "voice-command", 5, 0.8)])
        assert "row 2" in msg and "vector 5" in msg

    def test_row_number_is_one_based_with_header(self, tmp_path):
        rows = [TraceRow(0, "dev0", "voice-command", 0, 0.8),
                TraceRow(10, "dev0", "voice-command", 0, 0.8),
                TraceRow(20, "ghost", "voice-command", 0, 0.8)]
        msg = self.error_for(tmp_path, fresh_vector(), rows)
        assert "row 4" in msg

    @staticmethod
    def row_by_row_error(cfg, catalog, n_vectors, rows):
        """The first bad row and the first check it fails, as a per-row walk
        over the trace finds them; None for a trace that passes."""
        devices = {d.node_id for d in cfg.topology.devices}
        for lineno, row in enumerate(rows, start=2):
            threshold = cfg.thresholds.get(row.service_id, row.threshold)
            for bad, why in ((row.device_id not in devices, f"unknown device {row.device_id!r}"),
                             (row.service_id not in catalog, f"unknown service {row.service_id!r}"),
                             (not row.vector_id < n_vectors, f"unknown vector {row.vector_id}"),
                             (not 0.0 <= threshold <= 1.0,
                              f"threshold {threshold} outside [0, 1]")):
                if bad:
                    return f"{cfg.trace_path}: row {lineno}: {why}"
        return None

    @settings(max_examples=60, deadline=None)
    @given(fields=st.lists(st.tuples(st.sampled_from(["dev0", "ghost"]),
                                     st.sampled_from(["voice-command", "scene-render", "nope"]),
                                     st.integers(0, 3),
                                     st.sampled_from([0.0, 0.8, 1.0, 1.5, -0.25, float("nan")])),
                           min_size=1, max_size=6))
    def test_columns_are_checked_as_row_by_row(self, tmp_path_factory, fields):
        # The load checks whole columns at once; it must name the row and
        # the reason that checking row by row names. scene-render's
        # threshold comes from the experiment, whatever its rows say.
        out = tmp_path_factory.getbasetemp() / "checked-columns"
        out.mkdir(exist_ok=True)
        rows = [TraceRow(10 * i, *f) for i, f in enumerate(fields)]
        build_bundle(out, fresh_vector(n=2), rows)
        data = json.loads((out / "experiment.json").read_text())
        data["thresholds"] = {"scene-render": 0.7}
        write_json(out / "experiment.json", data)
        cfg = load_experiment(out / "experiment.json")
        want = self.row_by_row_error(cfg, cfg.service_map(), 2, rows)
        try:
            sim = Simulation(cfg)
        except SimulationError as exc:
            assert str(exc) == want
        else:
            assert want is None
            assert sim.trace.threshold.tolist() == [
                cfg.thresholds.get(row.service_id, row.threshold) for row in rows]

    def test_dim_mismatch(self, tmp_path, monkeypatch):
        # The width is checked before anything is sized by dim.
        def no_family(*args, **kwargs):
            raise AssertionError("LshFamily built before the vectors were checked")
        monkeypatch.setattr(edgereuse.simulator, "LshFamily", no_family)
        v = np.ones((1, DIM + 1))
        write_json(tmp_path / "topology.json", one_lane_topology())
        write_json(tmp_path / "services.json", default_services_data(DIM))
        write_json(tmp_path / "experiment.json", default_experiment_data(9, dim=DIM))
        write_vectors_csv(tmp_path / "vectors.csv", v)
        write_trace_csv(tmp_path / "trace.csv", [TraceRow(0, "dev0", "voice-command", 0, 0.8)])
        cfg = load_experiment(tmp_path / "experiment.json")
        with pytest.raises(SimulationError, match=f"dim {DIM + 1}, experiment dim is {DIM}"):
            Simulation(cfg)

    def test_zero_vector_rejected(self, tmp_path):
        vectors = np.vstack([fresh_vector(), np.zeros((1, DIM))])
        with pytest.raises(SimulationError, match="vector 1: cannot fingerprint an all-zero vector"):
            Simulation(build_bundle(tmp_path, vectors, []))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_vector_rejected_at_load(self, tmp_path, bad):
        vectors = fresh_vector(n=5)
        vectors[4, 3] = bad
        rows = [TraceRow(0, "dev0", "voice-command", 4, 0.8)]
        with pytest.raises(SimulationError, match=r"vectors\.csv: vector 4: feature vector contains NaN or Inf"):
            Simulation(build_bundle(tmp_path, vectors, rows))

    def test_underflowing_norm_is_not_called_all_zero(self, tmp_path):
        vectors = np.vstack([fresh_vector(), np.full((1, DIM), 1e-200)])
        with pytest.raises(SimulationError, match="vector 1: feature vector norm underflows float64 to 0"):
            Simulation(build_bundle(tmp_path, vectors, []))

    def test_overflowing_norm_rejected_at_load(self, tmp_path):
        vectors = np.vstack([fresh_vector(), np.full((1, DIM), 1e300)])
        with pytest.raises(SimulationError, match="vector 1: feature vector norm overflows"):
            Simulation(build_bundle(tmp_path, vectors, []))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), norm=st.sampled_from([1.3407807929942596e154, 3e-162]))
    def test_load_accepts_a_row_iff_prepare_does(self, tmp_path_factory, seed, norm):
        # Rows scaled to about where their squared norm overflows, or
        # underflows to 0: summing the squares of such a row in another order
        # can flip its verdict.
        # The bundle holds every row prepare accepts, then one it rejects.
        rows = np.random.default_rng(seed).standard_normal((32, DIM))
        rows *= norm / np.linalg.norm(rows, axis=1, keepdims=True)
        family = LshFamily(DIM, seed=9)
        accepted, rejected = [], []
        for v in rows:
            try:
                family.prepare(v)
                accepted.append(v)
            except ValueError as exc:
                rejected.append((v, str(exc)))
        cfg = build_bundle(tmp_path_factory.mktemp("bundle"),
                           np.array(accepted + [v for v, _ in rejected[:1]]).reshape(-1, DIM), [])
        if rejected:
            reason = rejected[0][1]
            assert "norm" in reason
            with pytest.raises(SimulationError, match=re.escape(f"vector {len(accepted)}: {reason}")):
                Simulation(cfg)
        else:
            Simulation(cfg)


class TestControlPlane:
    def skewed_bundle(self, tmp_path, rebalance):
        # One tight cluster keeps every forwarding hash in a narrow band, so
        # one server takes nearly all executions until ranges move.
        profile_rows = generate_trace(
            __import__("dataclasses").replace(
                builtin_profiles()["cctv-like"], n_clusters=1, repeat_fraction=0.0,
                tasks=120, services=("voice-command",), devices=("dev0",)),
            31)
        rows = [dataclasses.replace(r, threshold=1.0) for r in profile_rows.rows]
        topo = {
            "devices": [{"id": "dev0", "router": "r0", "delay_us": LINK,
                         "can_hash": True, "store": None}],
            "routers": [{"id": "r0", "servers": {"s0": LINK, "s1": LINK},
                         "store": None}],
            "servers": [{"id": "s0", "store": STORE}, {"id": "s1", "store": STORE}],
        }
        write_json(tmp_path / "topology.json", topo)
        write_json(tmp_path / "services.json", default_services_data(DIM))
        data = default_experiment_data(9, dim=DIM)
        data["control"] = {"window_us": 500_000, "rebalance": rebalance,
                           "step_fraction": 0.25}
        write_json(tmp_path / "experiment.json", data)
        write_vectors_csv(tmp_path / "vectors.csv", profile_rows.vectors)
        write_trace_csv(tmp_path / "trace.csv", rows)
        return load_experiment(tmp_path / "experiment.json")

    def test_rebalance_moves_ranges_under_skew(self, tmp_path):
        cfg = self.skewed_bundle(tmp_path, rebalance=True)
        rep = run_experiment(cfg)
        a = rep.aggregates
        assert a["table_version"] > 1
        assert len(a["windows"]) > 2
        executed = sum(s["executed_count"] for s in a["servers"].values())
        assert executed == 120

    def test_static_table_without_rebalance(self, tmp_path):
        cfg = self.skewed_bundle(tmp_path, rebalance=False)
        rep = run_experiment(cfg)
        assert rep.aggregates["table_version"] == 1

    @pytest.mark.parametrize("window_us, times", [
        (1, [0, 10]),                     # about 1.2e5 windows for 2 tasks
        (1_000_000, [10**15]),            # about 1e9 windows for 1 task
    ])
    def test_window_count_bounded_before_replay(self, tmp_path, capsys, monkeypatch,
                                                window_us, times):
        def no_replay(self, **kwargs):
            raise AssertionError("replay started")
        monkeypatch.setattr(Simulation, "run", no_replay)
        rows = [TraceRow(t, "dev0", "voice-command", 0, 0.8) for t in times]
        build_bundle(tmp_path, fresh_vector(), rows)
        data = default_experiment_data(9, dim=DIM)
        data["control"]["window_us"] = window_us
        write_json(tmp_path / "experiment.json", data)
        cfg = load_experiment(tmp_path / "experiment.json")
        with pytest.raises(ConfigError, match=r"^experiment\.control\.window_us: "):
            Simulation(cfg)
        code = main(["run", "--config", str(tmp_path / "experiment.json"),
                     "--out", str(tmp_path / "results")])
        assert code == 2
        assert "control.window_us" in capsys.readouterr().err

    def test_window_samples_cover_run(self, tmp_path):
        cfg = self.skewed_bundle(tmp_path, rebalance=False)
        rep = run_experiment(cfg)
        windows = rep.aggregates["windows"]
        times = [w["time_us"] for w in windows]
        assert times == sorted(times)
        assert times[-1] == rep.aggregates["makespan_us"]


class TestSweep:
    def test_rows_and_csv_layout(self, tmp_path):
        rows = [TraceRow(0, "dev0", "cognitive-assist", 0, 0.9),
                TraceRow(400_000, "dev0", "cognitive-assist", 0, 0.9)]
        cfg = build_bundle(tmp_path, fresh_vector(), rows)
        sweep = sweep_thresholds(cfg, [0.6, 0.9])
        assert [r["threshold"] for r in sweep] == [0.6, 0.9]
        assert all(r["reuse_pct"] == 50.0 for r in sweep)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,reuse_pct,accuracy_pct"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 3 for line in lines)

    def test_validation(self, tmp_path):
        cfg = build_bundle(tmp_path, fresh_vector(),
                           [TraceRow(0, "dev0", "voice-command", 0, 0.8)])
        with pytest.raises(ValueError, match="ascending"):
            sweep_thresholds(cfg, [0.9, 0.6])
        with pytest.raises(ValueError, match="no thresholds"):
            sweep_thresholds(cfg, [])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sweep_thresholds(cfg, [0.5, 1.5])
        with pytest.raises(TypeError, match="threshold"):
            sweep_thresholds(cfg, [0.5, True])

    def test_run_checks_its_threshold(self, tmp_path):
        cfg = build_bundle(tmp_path, fresh_vector(),
                           [TraceRow(0, "dev0", "voice-command", 0, 0.8)])
        sim = Simulation(cfg)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sim.run(threshold=1.5)
        for bad in (True, np.True_, "0.5", b"0.5"):
            with pytest.raises(TypeError, match="threshold"):
                sim.run(threshold=bad)

    def test_bundle_is_read_once_per_sweep(self, tmp_path, monkeypatch):
        rows = [TraceRow(0, "dev0", "cognitive-assist", 0, 0.9),
                TraceRow(400_000, "dev0", "cognitive-assist", 0, 0.9)]
        cfg = build_bundle(tmp_path, fresh_vector(), rows)
        reads = []
        for name in ("read_vectors_csv", "read_trace_csv"):
            def counted(path, _name=name, _read=getattr(edgereuse.simulator, name)):
                reads.append(_name)
                return _read(path)
            monkeypatch.setattr(edgereuse.simulator, name, counted)
        sweep = sweep_thresholds(cfg, [0.6, 0.7, 0.8, 0.9])
        assert len(sweep) == 4
        assert sorted(reads) == ["read_trace_csv", "read_vectors_csv"]


class TestGroundTruthPass:
    """Every (service, input) pipeline of a batch of arrivals runs once, in
    one oracle pass per service when the batch's first task arrives; servers
    take a task's own stage outputs from it and reused results are judged
    against it."""

    @pytest.fixture(scope="class")
    def mixed_1200(self, tmp_path_factory):
        from edgereuse.cli import write_bundle
        out = tmp_path_factory.mktemp("mixed-1200")
        write_bundle(dataclasses.replace(builtin_profiles()["mixed"], tasks=1200), 42, out)
        return out

    @staticmethod
    def run_keeping_payloads(sim, monkeypatch):
        # A task's way ends at the first node visit that serves it, so each
        # task has one served payload.
        payloads = {}

        def keeping(visit):
            def visiting(node, task, *args, **kwargs):
                outcome = visit(node, task, *args, **kwargs)
                if outcome.payload is not None:
                    assert task.task_id not in payloads, task.task_id
                    payloads[task.task_id] = outcome.payload
                return outcome
            return visiting

        for name in ("device_offload", "router_forward", "server_handle"):
            monkeypatch.setattr(edgereuse.simulator, name,
                                keeping(getattr(edgereuse.simulator, name)))
        return sim.run(), payloads

    def test_reused_results_are_judged_against_their_own_execution(self, mixed_1200,
                                                                   monkeypatch):
        sim = Simulation(load_experiment(mixed_1200 / "experiment.json"))
        report, payloads = self.run_keeping_payloads(sim, monkeypatch)
        for r in report.records:
            if r.reuse_layer is ReuseLayer.NONE:
                assert r.accurate is None
            else:
                truth = execute_service(sim.catalog[r.service_id], sim.vectors[r.vector_id])
                assert r.accurate is _agrees(truth, payloads[r.task_id]), r.task_id
        assert {r.accurate for r in report.records} == {None, True, False}

    def test_oracle_runs_once_per_service_over_the_trace_pairs(self, mixed_1200,
                                                                monkeypatch):
        # Once per service of each batch of arrivals: a batch's inputs are
        # signed in one pass, then each of its services runs one oracle
        # pass over the batch's distinct inputs to it, in ascending order.
        calls = []
        oracle = edgereuse.simulator.oracle

        def counted(svc, xs):
            calls.append((svc.service_id, [x.tobytes() for x in xs]))
            return oracle(svc, xs)

        monkeypatch.setattr(edgereuse.simulator, "oracle", counted)
        prepare_rows = LshFamily._prepare_rows

        def counted_batch(family, m, rows):
            calls.append(("signed", list(rows)))
            return prepare_rows(family, m, rows)

        monkeypatch.setattr(LshFamily, "_prepare_rows", counted_batch)
        sim = Simulation(load_experiment(mixed_1200 / "experiment.json"))
        assert calls == [], "the passes run in run(), not in set-up"
        sim.run()
        trace, size = sim.trace, edgereuse.simulator._BATCH_TASKS
        order = np.argsort(trace.time_us, kind="stable").tolist()
        assert len(order) > size, "the trace should span more than one batch"
        expected = []
        for start in range(0, len(order), size):
            tasks = order[start:start + size]
            pairs = {(trace.service_ids[trace.service[t]], int(trace.vector_id[t])) for t in tasks}
            expected.append(("signed", sorted({v for _, v in pairs})))
            for service_id in sorted({s for s, _ in pairs}):
                ids = sorted(v for s, v in pairs if s == service_id)
                expected.append((service_id, [sim.vectors[v].tobytes() for v in ids]))
        batches = [i for i, call in enumerate(calls) if call[0] == "signed"]
        # The services of a batch may run in any order.
        got = [call for i, j in zip(batches, batches[1:] + [len(calls)])
               for call in [calls[i]] + sorted(calls[i + 1:j])]
        assert got == expected
        # A later replay redoes both passes, the same way.
        first, calls[:] = list(calls), []
        sim.run(threshold=0.9)
        assert calls == first

    def test_storeless_replay_executes_no_stage(self, mixed_1200, tmp_path, monkeypatch):
        bundle = shutil.copytree(mixed_1200, tmp_path / "no-store")
        topology = json.loads((bundle / "topology.json").read_text())
        for node in topology["devices"] + topology["routers"] + topology["servers"]:
            node["store"] = None
        write_json(bundle / "topology.json", topology)
        stages = []
        monkeypatch.setattr(edgereuse.fabric, "execute_stage",
                            lambda *args: stages.append(args))
        sim = Simulation(load_experiment(bundle / "experiment.json"))
        report, payloads = self.run_keeping_payloads(sim, monkeypatch)
        assert stages == []
        assert report.aggregates["reuse_pct"] == 0.0
        assert report.aggregates["accuracy_pct"] is None
        for r in report.records:
            truth = execute_service(sim.catalog[r.service_id], sim.vectors[r.vector_id])
            payload = payloads[r.task_id]
            assert payload.output.tobytes() == truth.output.tobytes(), r.task_id
            assert payload.output.shape == truth.output.shape
            assert payload.label == truth.label


def results_equal(truth, payload):
    # The reference predicate, spelled out: equal labels, equal shapes and
    # every element within RESULT_ATOL.
    return (truth.label == payload.label
            and truth.output.shape == payload.output.shape
            and bool(np.allclose(truth.output, payload.output, rtol=0.0, atol=RESULT_ATOL)))


class TestAccuracyPredicate:
    """_agrees must match the reference predicate on every finite output."""

    @settings(max_examples=300, deadline=None)
    @given(truth=arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)),
           steps=arrays(np.float64, 4, elements=st.sampled_from(
               [0.0, 0.5, 1.0, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, -1.0, -1.0 - 1e-7])),
           labels=st.tuples(st.integers(0, 2), st.integers(0, 2)), shorter=st.booleans())
    def test_matches_results_equal(self, truth, steps, labels, shorter):
        # Differences sit at, just inside and just outside the tolerance.
        reused = truth + steps * RESULT_ATOL
        if shorter:
            reused = reused[:3]
        truth = ServiceResult(truth, labels[0])
        payload = ResultPayload(reused, labels[1], ReuseLayer.DEVICE)
        assert _agrees(truth, payload) == results_equal(truth, payload)


class TestReplayMemory:
    """A replay holds in proportion to the bundle (the vectors matrix and the
    trace's columns), to its output (one record per task) and to its stores'
    capacities; everything else follows the tasks in flight."""

    # Growth of run()'s traced peak per task from 1K to 4K `mixed` tasks,
    # net of the vectors matrix. With every input's query and truth kept
    # for the whole trace this read 1,676 B; it reads 563 B with them kept
    # per batch of arrivals: a TaskRecord with its ints and its place in
    # the records list (about 330 B), stores still filling toward their
    # capacities (about 170 B) and the trace's columns (about 40 B). The
    # bound leaves about 40% above the present figure.
    BYTES_PER_TASK = 800

    @staticmethod
    def run_peak(tmp_path, tasks):
        from edgereuse.cli import write_bundle
        write_bundle(dataclasses.replace(builtin_profiles()["mixed"], tasks=tasks), 42, tmp_path)
        cfg = load_experiment(tmp_path / "experiment.json")
        # Untraced, so that what a first replay in the process loads once
        # (cached transforms, modules numpy imports lazily) is not counted.
        Simulation(cfg).run()
        tracemalloc.start()
        try:
            sim = Simulation(cfg)
            tracemalloc.reset_peak()
            sim.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - sim.vectors.nbytes

    def test_run_peak_grows_by_its_records_per_task(self, tmp_path):
        small = self.run_peak(tmp_path / "1k", 1000)
        large = self.run_peak(tmp_path / "4k", 4000)
        per_task = (large - small) / 3000
        assert per_task < self.BYTES_PER_TASK, f"{per_task:.0f} B per task"

    def test_stored_entries_keep_no_batch_of_truths(self, tmp_path, monkeypatch):
        # A truth's arrays are rows of its batch's oracle stacks. What a node
        # keeps of a server visit is built from a copy of the task's own, so
        # every array a store keeps holds at most one input's stage outputs.
        monkeypatch.setattr(edgereuse.simulator, "_BATCH_TASKS", 64)
        from edgereuse.cli import write_bundle
        write_bundle(dataclasses.replace(builtin_profiles()["mixed"], tasks=600), 42, tmp_path)
        sim = Simulation(load_experiment(tmp_path / "experiment.json"))
        sim.run()
        one_input = max(8 * sum(stage.out_dim for stage in svc.stages)
                        for svc in sim.catalog.values())
        kept = collections.Counter()
        for group in (sim.devices, sim.routers, sim.servers):
            for node in group.values():
                for entry_id in node.store.entry_ids() if node.store is not None else ():
                    entry = node.store.get(entry_id)
                    for array in (entry.output, *entry.stage_outputs.values()):
                        while array.base is not None:
                            array = array.base
                        assert array.nbytes <= one_input, (node.node_id, entry_id)
                    kept[type(node).__name__] += 1
        assert set(kept) == {"DeviceNode", "RouterNode", "ServerNode"}, kept
