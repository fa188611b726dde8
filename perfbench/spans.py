"""Outside-in span recorder for the traced benchmark run.

Hooks replace a public function at the binding its caller looks it up
through (a module global such as ``edgereuse.simulator.server_handle``, or
a class attribute such as ``ReuseStore.lookup``) with a wrapper that
records one span per call: name, start, end, parent span and the task id
of the enclosing ``TaskEnvelope``. Nothing under ``src/`` is edited. A hook
whose target no longer exists is reported as absent instead of failing the
run, so the benchmark keeps working when a later change removes a function.
"""

from __future__ import annotations

import csv
import importlib
import time

import numpy as np


def _per_call(st, key):
    return st[key] / st["calls"] if st["calls"] else 0.0


def _hit_of(st, result):
    st["hits"] += bool(result.hit)
    st["probes"] += result.probes_used


def _served_of(st, result):
    st["hits"] += result.payload is not None


def _partial_of(st, result):
    st["partial"] += result.payload.reuse_layer.value == "partial_server"


def _evicted_of(st, result):
    st["evicted"] += len(result)


# An observer reads a call's result into the counters, and names the
# metrics derived from them.
LOOKUP = (_hit_of, {"hit_ratio": lambda st: _per_call(st, "hits"),
                    "probes_per_call": lambda st: _per_call(st, "probes")})
STAGE_LOOKUP = (_hit_of, {"hits": lambda st: st["hits"]})
SERVED = (_served_of, {"hit_ratio": lambda st: _per_call(st, "hits")})
PARTIAL = (_partial_of, {"partial_count": lambda st: st["partial"]})
EVICTED = (_evicted_of, {"evicted": lambda st: st["evicted"]})

# (span name, bindings, index of the TaskEnvelope argument or None,
#  keep per-call durations for percentiles, observer or None)
# A binding is (module, attribute) or (module, class, attribute).
HOOKS = [
    ("hashing.signature_bits", [("edgereuse.hashing", "LshFamily", "signature_bits")], None, True, None),
    ("hashing.probe_sequence", [("edgereuse.store", "probe_sequence")], None, True, None),
    ("hashing.forwarding_hash", [("edgereuse.fabric", "forwarding_hash")], None, False, None),
    ("core.as_feature_vector", [(m, "as_feature_vector") for m in (
        "edgereuse.core", "edgereuse.hashing", "edgereuse.store", "edgereuse.services")],
     None, False, None),
    ("store.lookup", [("edgereuse.store", "ReuseStore", "lookup")], None, True, LOOKUP),
    ("store.lookup_stage", [("edgereuse.store", "ReuseStore", "lookup_stage")], None, False, STAGE_LOOKUP),
    ("store.insert", [("edgereuse.store", "ReuseStore", "insert")], None, True, None),
    ("store.evict", [("edgereuse.store", "ReuseStore", "evict")], None, False, EVICTED),
    ("fabric.device_offload", [("edgereuse.simulator", "device_offload")], 1, True, SERVED),
    ("fabric.router_forward", [("edgereuse.simulator", "router_forward")], 1, True, SERVED),
    ("fabric.server_handle", [("edgereuse.simulator", "server_handle")], 1, True, PARTIAL),
    ("services.execute_stage", [("edgereuse.fabric", "execute_stage"),
                                ("edgereuse.services", "execute_stage")], None, True, None),
    ("services.oracle", [("edgereuse.simulator", "oracle")], None, False, None),
    ("simulator.run", [("edgereuse.simulator", "Simulation", "run")], None, False, None),
    ("simulator.init", [("edgereuse.simulator", "Simulation", "__init__")], None, False, None),
    ("simulator.write", [("edgereuse.simulator", "MetricsReport", "write_per_task_csv"),
                         ("edgereuse.simulator", "MetricsReport", "write_metrics_json")],
     None, False, None),
    ("config.load_experiment", [("edgereuse.config", "load_experiment")], None, False, None),
    ("workload.read_vectors", [("edgereuse.simulator", "read_vectors_csv")], None, False, None),
    ("workload.read_trace", [("edgereuse.simulator", "read_trace_csv")], None, False, None),
]

HOOK_NAMES = [h[0] for h in HOOKS]


def _resolve(binding):
    """(owner, attribute, current value) for a binding, or None if absent."""
    try:
        owner = importlib.import_module(binding[0])
    except ImportError:
        return None
    for part in binding[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, binding[-1], None)
    if not callable(value):
        return None
    return owner, binding[-1], value


class SpanRecorder:
    """Installs the hooks, keeps spans in memory, and restores on uninstall.

    Each span is (span id, name, start ns, end ns, parent span id or -1,
    task id or -1). Self time is a span's duration minus the durations of
    its direct children; busy time counts only the outermost span of a name,
    so a function that re-enters itself is not counted twice.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.absent: list[str] = []
        self._patched: list[tuple] = []
        self.stats = {h[0]: {} for h in hooks}
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and zero the counters; hooks stay installed."""
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        for st in self.stats.values():
            st.update(calls=0, busy_ns=0, self_ns=0, depth=0, durations=[],
                      hits=0, probes=0, partial=0, evicted=0)

    def install(self) -> None:
        self.uninstall()
        self.absent = []
        for name, bindings, task_arg, keep, observe in self.hooks:
            found = False
            for binding in bindings:
                target = _resolve(binding)
                if target is None:
                    continue
                owner, attr, original = target
                setattr(owner, attr, self._wrap(name, original, task_arg, keep, observe))
                self._patched.append((owner, attr, original))
                found = True
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _wrap(self, name, fn, task_arg, keep, observe):
        rec = self
        st = self.stats[name]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = rec._stack
            parent = stack[-1] if stack else None
            task = -1
            if task_arg is not None and len(args) > task_arg:
                task = getattr(args[task_arg], "task_id", -1)
            elif parent is not None:
                task = parent[2]
            span_id = rec._next_id
            rec._next_id += 1
            frame = [span_id, 0, task]
            stack.append(frame)
            st["depth"] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                st["depth"] -= 1
                dur = end - start
                st["calls"] += 1
                st["self_ns"] += dur - frame[1]
                if st["depth"] == 0:
                    st["busy_ns"] += dur
                if keep:
                    st["durations"].append(dur)
                if parent is not None:
                    parent[1] += dur
                rec.spans.append((span_id, name, start, end,
                                  -1 if parent is None else parent[0], task))
            if observe is not None:
                try:
                    observe[0](st, result)
                except (AttributeError, TypeError):
                    pass
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and busy_s per hook, percentiles for the hot ones,
        and the ratios the observers collected."""
        out = {}
        for name, _bindings, _task_arg, keep, observe in self.hooks:
            st = self.stats[name]
            out[f"{name}.calls"] = st["calls"]
            out[f"{name}.self_s"] = st["self_ns"] / 1e9
            out[f"{name}.busy_s"] = st["busy_ns"] / 1e9
            if keep:
                d = np.asarray(st["durations"], dtype=np.float64) / 1e3
                out[f"{name}.p50_us"] = float(np.percentile(d, 50)) if d.size else 0.0
                out[f"{name}.p99_us"] = float(np.percentile(d, 99)) if d.size else 0.0
            if observe is not None:
                for suffix, derive in observe[1].items():
                    out[f"{name}.{suffix}"] = derive(st)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span_id", "name", "start_ns", "end_ns", "parent_id", "task_id"])
            writer.writerows(self.spans)
