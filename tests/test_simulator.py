import dataclasses
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import edgereuse.simulator
from edgereuse.cli import main
from edgereuse.config import (ConfigError, default_experiment_data, default_services_data,
                              load_experiment, write_json)
from edgereuse.core import RESULT_ATOL, ReuseLayer
from edgereuse.fabric import ResultPayload
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

    def test_sweep_override_beats_config(self, tmp_path):
        cfg = self.near_pair_bundle(tmp_path, thresholds={"cognitive-assist": 1.0})
        rep = run_experiment(cfg, threshold_override=0.9)
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
        with pytest.raises(SimulationError, match="vector 1 is all-zero"):
            Simulation(build_bundle(tmp_path, vectors, []))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_vector_rejected_at_load(self, tmp_path, bad):
        vectors = fresh_vector(n=5)
        vectors[4, 3] = bad
        rows = [TraceRow(0, "dev0", "voice-command", 4, 0.8)]
        with pytest.raises(SimulationError, match=r"vectors\.csv: vector 4 is not finite"):
            Simulation(build_bundle(tmp_path, vectors, rows))

    def test_underflowing_norm_is_not_called_all_zero(self, tmp_path):
        vectors = np.vstack([fresh_vector(), np.full((1, DIM), 1e-200)])
        with pytest.raises(SimulationError, match="vector 1 has a norm that underflows float64 to 0"):
            Simulation(build_bundle(tmp_path, vectors, []))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_norm_rejected_at_load(self, tmp_path):
        vectors = np.vstack([fresh_vector(), np.full((1, DIM), 1e300)])
        with pytest.raises(SimulationError, match="vector 1 has a norm that overflows"):
            Simulation(build_bundle(tmp_path, vectors, []))


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


class TestDeferredJudging:
    """Reused completions are judged in batches against one oracle pass per
    service; the accurate column must be the per-task judgement."""

    @pytest.fixture(scope="class")
    def mixed_1200(self, tmp_path_factory):
        from edgereuse.cli import write_bundle
        out = tmp_path_factory.mktemp("mixed-1200")
        write_bundle(dataclasses.replace(builtin_profiles()["mixed"], tasks=1200), 42, out)
        return out

    def test_batches_judge_as_each_task_alone(self, mixed_1200, monkeypatch):
        sim = Simulation(load_experiment(mixed_1200 / "experiment.json"))
        payloads, queued = {}, []
        complete, judge = Simulation._complete, Simulation._judge

        def completing(self, journey, now):
            payloads[journey.task_id] = journey.outcome.payload
            complete(self, journey, now)

        def judging(self):
            queued.append(len(self._unjudged))
            judge(self)

        monkeypatch.setattr(Simulation, "_complete", completing)
        monkeypatch.setattr(Simulation, "_judge", judging)
        report = sim.run()
        batch = edgereuse.simulator._JUDGE_BATCH
        reused = sum(r.reuse_layer is not ReuseLayer.NONE for r in report.records)
        # Both flushes ran: full batches during the replay, then the rest.
        assert reused > batch and reused % batch
        assert queued == [batch] * (reused // batch) + [reused % batch]
        for r in report.records:
            payload = payloads[r.task_id]
            if r.reuse_layer is ReuseLayer.NONE:
                assert r.accurate is None
            else:
                truth = execute_service(sim.catalog[r.service_id], sim.vectors[r.vector_id])
                assert r.accurate is _agrees(truth, payload), r.task_id
        assert {r.accurate for r in report.records} == {None, True, False}

    def test_oracle_computes_each_pair_once(self, mixed_1200, monkeypatch):
        sim = Simulation(load_experiment(mixed_1200 / "experiment.json"))
        rows = []
        oracle = edgereuse.simulator.oracle

        def counted(svc, xs):
            rows.extend((svc.service_id, x.tobytes()) for x in xs)
            return oracle(svc, xs)

        monkeypatch.setattr(edgereuse.simulator, "oracle", counted)
        report = sim.run()
        pairs = {(r.service_id, r.vector_id) for r in report.records
                 if r.reuse_layer is not ReuseLayer.NONE}
        assert len(rows) == len(set(rows)) == len(pairs)

    def test_no_reuse_makes_no_oracle_call(self, mixed_1200, tmp_path, monkeypatch):
        bundle = shutil.copytree(mixed_1200, tmp_path / "no-store")
        topology = json.loads((bundle / "topology.json").read_text())
        for node in topology["devices"] + topology["routers"] + topology["servers"]:
            node["store"] = None
        write_json(bundle / "topology.json", topology)
        calls = []
        monkeypatch.setattr(edgereuse.simulator, "oracle", lambda *args: calls.append(args))
        report = run_experiment(load_experiment(bundle / "experiment.json"))
        assert report.aggregates["reuse_pct"] == 0.0
        assert report.aggregates["accuracy_pct"] is None
        assert calls == []


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
