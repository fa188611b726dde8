"""Partial reuse: two services share a pipeline stage, so the second
service can skip that stage's execution by reading the first service's
stored intermediate result.

The saving is the shared stage's execution time minus one lookup.
"""

import numpy as np

from edgereuse import (LshFamily, ReuseEntry, ReuseStore, ServerNode, ServiceSpec,
                       StageSpec, TaskEnvelope, execute_service, execute_stage,
                       server_handle)

dim = 64
LOOKUP_US = 1000

shared = StageSpec("feature-extract", 9001, dim, exec_time_us=60_000)
svc_a = ServiceSpec("annotate", dim, (shared, StageSpec("annotate-head", 9002, dim, 40_000)))
svc_b = ServiceSpec("count", dim, (shared, StageSpec("count-head", 9003, dim, 40_000)))

x = np.random.default_rng(5).standard_normal(dim)
x /= np.linalg.norm(x)

print("== pipelines ==")
for svc in (svc_a, svc_b):
    names = " -> ".join(s.stage_id for s in svc.stages)
    total = sum(s.exec_time_us for s in svc.stages)
    print(f"{svc.service_id:>8}: {names} ({total / 1000:.0f} ms)")

family = LshFamily(dim, k=16, tables=4, seed=9)
store = ReuseStore(family, capacity_entries=64, capacity_bytes=1 << 20)
server = ServerNode("s0", {"annotate": svc_a, "count": svc_b}, store=store)

print()
print("== run 'annotate' cold, store every stage output ==")
first = server_handle(server, TaskEnvelope(0, "dev0", "annotate", x, 0.9), LOOKUP_US)
print("steps:", [(detail, cost) for _, _, detail, cost in first.steps])
print(f"busy time: {first.exec_busy_us / 1000:.0f} ms; stored entry holds "
      f"{len(first.entry.stage_outputs)} stage outputs")
store.insert(first.entry)

print()
print("== run 'count' on the same input ==")
second = server_handle(server, TaskEnvelope(1, "dev0", "count", x, 0.9), LOOKUP_US)
print("steps:", [(detail, cost) for _, _, detail, cost in second.steps])
print(f"layer: {second.payload.reuse_layer.value}")
cost_cold = LOOKUP_US + sum(s.exec_time_us for s in svc_b.stages)
# The visit started at time 0, so it cost the time its last step ended.
cost_partial = second.steps[-1][0]
saved = cost_cold - cost_partial
print(f"cold cost {cost_cold / 1000:.0f} ms, with partial reuse {cost_partial / 1000:.0f} ms, "
      f"saved {saved / 1000:.0f} ms")
assert saved == shared.exec_time_us - LOOKUP_US

oracle = execute_service(svc_b, x)
print(f"result identical to full execution: "
      f"{np.array_equal(second.payload.output, oracle.output)}")

print()
print("== the intermediate really is shared ==")
print(f"stage output reused for 'count' equals 'annotate' stage output: "
      f"{np.array_equal(first.entry.stage_outputs['feature-extract'], execute_stage(shared, x))}")
