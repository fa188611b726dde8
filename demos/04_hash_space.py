"""Hash-space partitioning: similar tasks converge on one server, and the
controller moves range boundaries when load skews.

Each task's 16-bit forwarding hash picks the owning server by range, so
equal or near-equal inputs are always routed to the same reuse store.
"""

import numpy as np

from edgereuse import LoadReport, LshFamily, forwarding_hash, partition_hash_space, rebalance

rng = np.random.default_rng(33)
dim = 32
family = LshFamily(dim, k=16, tables=1, seed=33)

table = partition_hash_space(["s0", "s1", "s2"])
print("== initial equal split of [0, 65535] ==")
for r in table.ranges:
    print(f"  [{r.lo:5d}, {r.hi:5d}] -> {r.server_id} (width {r.width})")

print()
print("== similar inputs land on the same server ==")
center = rng.standard_normal(dim)
center /= np.linalg.norm(center)
owners = []
for _ in range(6):
    v = center + 0.05 * rng.standard_normal(dim)
    h = forwarding_hash(family, v / np.linalg.norm(v))
    owners.append((h, table.server_for(h)))
for h, sid in owners:
    print(f"  hash {h:5d} -> {sid}")

print()
print("== a skewed cluster overloads one server ==")
counts = {sid: 0 for sid in table.server_ids()}
hashes = [forwarding_hash(family, (center + 0.08 * rng.standard_normal(dim)))
          for _ in range(600)]
for h in hashes:
    counts[table.server_for(h)] += 1
print(f"  executed per server: {counts}")

print()
print("== controller narrows the hot range ==")
for step in range(5):
    table = rebalance(table, LoadReport(counts), step_fraction=0.25)
    counts = {sid: 0 for sid in table.server_ids()}
    for h in hashes:
        counts[table.server_for(h)] += 1
    print(f"  v{table.version}: load {counts}")
print("final ranges:")
for r in table.ranges:
    print(f"  [{r.lo:5d}, {r.hi:5d}] -> {r.server_id}")
