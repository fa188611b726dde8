"""Task fingerprints: sign-random-projection signatures and feature hashing.

Two nearby inputs should agree on most signature bits; unrelated inputs
should agree on about half. The demo measures both, then shows the
forwarding hash and the multi-probe expansion used by the caches.
"""

import numpy as np

from edgereuse import LshFamily, feature_hash, forwarding_hash, probe_masks

rng = np.random.default_rng(7)
dim = 32
family = LshFamily(dim, k=16, tables=4, seed=7)

base = rng.standard_normal(dim)
base /= np.linalg.norm(base)
nearby = base + 0.08 * rng.standard_normal(dim)
nearby /= np.linalg.norm(nearby)
unrelated = rng.standard_normal(dim)
unrelated /= np.linalg.norm(unrelated)

print("== signatures (table 0) ==")
for name, v in (("base", base), ("nearby", nearby), ("unrelated", unrelated)):
    bits = family.signature_bits(v)
    print(f"{name:>10}: {bits:016b}")

sig_base = family.signature_bits(base)
for name, v in (("nearby", nearby), ("unrelated", unrelated)):
    agree = 16 - bin(sig_base ^ family.signature_bits(v)).count("1")
    print(f"bits shared with {name}: {agree}/16")

print()
print("== collision law: P[bit match] = 1 - angle/pi ==")
pairs = 4000
for theta in (np.pi / 8, np.pi / 4, np.pi / 2):
    u = rng.standard_normal((pairs, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    w = rng.standard_normal((pairs, dim))
    w -= np.sum(w * u, axis=1, keepdims=True) * u
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    v = np.cos(theta) * u + np.sin(theta) * w
    diff = family.batch_signature_bits(u) ^ family.batch_signature_bits(v)
    agreement = 1.0 - np.bitwise_count(diff).sum() / (pairs * family.k)
    print(f"theta={theta:.4f}  predicted={1 - theta / np.pi:.4f}  measured={agreement:.4f}")

print()
print("== feature hashing: tokens to a fixed-dimension vector ==")
features = [("color:red", 1.0), ("shape:box", 2.0), ("weight", 0.5)]
vec = feature_hash(features, dim=8, seed=0)
print(f"tokens {features}")
print(f"hashed -> {vec}")
same = feature_hash(list(reversed(features)), dim=8, seed=0)
print(f"order-independent: {np.array_equal(vec, same)}")

print()
print("== forwarding hash and multi-probe ==")
h = forwarding_hash(family, base)
print(f"forwarding hash of base: {h} (16-bit space 0..65535)")
for radius in (0, 1, 2):
    print(f"radius {radius}: {len(probe_masks(family.k, radius))} buckets probed")
