"""Sign-random-projection LSH and feature hashing.

An LshFamily fingerprints feature vectors: vectors at a small angle agree on
most signature bits (per-bit agreement probability is 1 - angle/pi). The
table-0 signature with k=16 doubles as the forwarding hash that routers
partition among servers, so its value range is [0, 65535]. LshFamily.prepare
fingerprints an input once for every table; the PreparedQuery it returns
carries the vector, its norm and the signatures to every later use.

Every signer (prepare, signature_bits, batch_signature_bits, forwarding_hash
and the replay's batched pass) runs one kernel, one (k, dim) gemv per table
and vector, and accepts exactly what prepare accepts. So an input's
fingerprint is the same bits whichever signer a device, router or server
calls.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import SEED_MAX, as_feature_vector, check_integer

FORWARDING_BITS = 16
FORWARDING_SPACE = 1 << FORWARDING_BITS

_NORM_OVERFLOW = "feature vector norm overflows float64"
_NORM_UNDERFLOW = "feature vector norm underflows float64 to 0"


@dataclass(frozen=True, slots=True, eq=False)
class PreparedQuery:
    """One input fingerprinted once: its frozen vector, the vector's norm,
    and every table's signature bits (table 0 first), under ``family``.

    Made by LshFamily.prepare; stores accept it in place of a raw vector and
    then skip re-validating and re-signing it.
    """

    family: "LshFamily"
    vector: np.ndarray
    norm: float
    bits: tuple[int, ...]

    @property
    def forwarding_hash(self) -> int:
        """The table-0 bits, which are the forwarding hash of a k=16 family."""
        if self.family.k != FORWARDING_BITS:
            raise ValueError(f"forwarding hash needs a k={FORWARDING_BITS} family, "
                             f"got k={self.family.k}")
        return self.bits[0]


class LshFamily:
    """A seeded family of `tables` sign-random-projection signatures.

    Hyperplanes are normalized Gaussian rows derived purely from the seed, so
    equal (seed, dim, k, tables) always produce identical fingerprints. Bit j
    of a signature is 1 iff the query has a strictly positive dot product
    with hyperplane j; an exact zero maps to 0.
    """

    def __init__(self, dim: int, k: int = 16, tables: int = 4, seed: int = 0):
        dim = check_integer("dim", dim, 1)
        k = check_integer("k", k, 1, 32)
        tables = check_integer("tables", tables, 1)
        seed = check_integer("seed", seed, 0, SEED_MAX)
        self.dim, self.k, self.tables, self.seed = dim, k, tables, seed
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((tables, k, dim))
        planes /= np.linalg.norm(planes, axis=2, keepdims=True)
        planes.setflags(write=False)
        self.hyperplanes = planes
        self._bit_weights = (1 << np.arange(k, dtype=np.uint64))

    def _check_table(self, table: int) -> None:
        check_integer("table index", table, 0, self.tables - 1)

    def signature_bits(self, v, table: int = 0) -> int:
        """The k-bit integer fingerprint of one vector under one table:
        prepare(v).bits[table]."""
        self._check_table(table)
        return self.prepare(v).bits[table]

    def prepare(self, v) -> PreparedQuery:
        """Validate, measure and sign one vector under every table, once.

        Rejects the inputs a store cannot score: wrong dim, NaN or Inf, and
        what input_norm rejects.
        """
        return self._prepare_valid(as_feature_vector(v, self.dim))

    def _prepare_valid(self, v: np.ndarray) -> PreparedQuery:
        # For callers that already hold a read-only, finite float64 vector of
        # length dim: the query keeps v itself, no copy.
        return PreparedQuery(self, v, input_norm(v), tuple(self._table_bits(v)))

    def _prepare_rows(self, m: np.ndarray) -> list[PreparedQuery]:
        # _prepare_valid of every row of a read-only, C-contiguous (n, dim)
        # float64 matrix with no unsignable row (a checked bundle), in one
        # batched pass. Query i keeps the row view m[i], no copy.
        norms = np.sqrt(_row_squares(m)).tolist()
        columns = m[:, :, None]
        bits = zip(*[self._signatures(planes, columns).tolist() for planes in self.hyperplanes])
        return [PreparedQuery(self, v, norm, b) for v, norm, b in zip(m, norms, bits)]

    def _table_bits(self, v: np.ndarray) -> list[int]:
        # Every table's bits of one vector that input_norm accepts.
        return self._signatures(self.hyperplanes, v).tolist()

    def _signatures(self, planes: np.ndarray, x: np.ndarray) -> np.ndarray:
        # The one signing product. x is one vector, signed under a stack of
        # tables' (k, dim) planes, or a stack of columns (n, dim, 1), signed
        # under one table's planes. Either way numpy runs one (k, dim) gemv
        # per table and column, so a vector's bits never depend on how many
        # others are signed with it. A row-major (n, dim) @ (dim, k) gemm
        # would sum in another order and flip the bits of near-plane inputs.
        return (planes @ x > 0).reshape(-1, self.k) @ self._bit_weights

    def batch_signature_bits(self, vectors, table: int = 0) -> np.ndarray:
        """Fingerprints for a (n, dim) matrix of row vectors, as uint64: row
        i's is signature_bits(vectors[i], table), and a row that prepare
        rejects fails the batch with prepare's error."""
        self._check_table(table)
        m = np.ascontiguousarray(vectors, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != self.dim:
            raise ValueError(f"expected shape (n, {self.dim}), got {m.shape}")
        for row in m[unsignable_rows(m)]:
            input_norm(as_feature_vector(row))
        return self._signatures(self.hyperplanes[table], m[:, :, None])


def input_norm(v: np.ndarray) -> float:
    """Euclidean norm of a validated (so contiguous) vector that can be
    fingerprinted and scored: rejects an all-zero vector, a norm that
    underflows to 0 and a norm that overflows float64."""
    # On a contiguous vector np.vdot sums as np.linalg.norm does, bit for
    # bit, but an overflow reaches the check below without a RuntimeWarning.
    norm = math.sqrt(np.vdot(v, v))
    if norm == 0.0:
        raise ValueError(_NORM_UNDERFLOW if v.any() else "cannot fingerprint an all-zero vector")
    if not math.isfinite(norm):
        raise ValueError(_NORM_OVERFLOW)
    return norm


def unsignable_rows(m: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of a C-contiguous (n, dim) float64
    matrix that prepare rejects as not finite or for their norm (see
    input_norm)."""
    squares = _row_squares(m)
    return np.flatnonzero((squares == 0.0) | ~np.isfinite(squares))


def _row_squares(m: np.ndarray) -> np.ndarray:
    # Every row's m[i] @ m[i], in one stacked product. On a unit-stride row
    # it runs the one dot product that input_norm's np.vdot runs, so its
    # squares, their roots and the verdicts on them are bit for bit the same.
    with np.errstate(over="ignore", invalid="ignore"):
        return (m[:, None, :] @ m[:, :, None]).ravel()


def forwarding_hash(family: LshFamily, v) -> int:
    """Canonical 16-bit routing hash: the table-0 signature of the input.

    Requires a 16-bit family so the value always fits [0, 65535]. Positive
    scaling of the input never changes the hash (sign projections are
    scale-invariant), which is what makes hash-range routing converge
    similar tasks on one server.
    """
    return family.prepare(v).forwarding_hash


@functools.lru_cache(maxsize=None, typed=True)
def probe_masks(k: int, radius: int) -> tuple[int, ...]:
    """XOR masks of the multi-probe order over k-bit signatures: 0, then
    every mask of Hamming weight 1, 2, ... up to radius.

    Within one weight class, masks are ordered lexicographically by the
    tuple of flipped bit indices. Total length is sum over d of C(k, d); at
    radius == k the masks enumerate the whole signature space, which turns
    bucketed lookup into exact search. Computed once per (k, radius), the
    cache keyed by type too, so that a cached (16, 1) never answers
    (16, True).
    """
    k = check_integer("k", k, 1, 32)
    radius = check_integer("radius", radius, 0, k)
    return tuple(sum(1 << i for i in flips)
                 for d in range(radius + 1)
                 for flips in itertools.combinations(range(k), d))


def _token_hash(token: str, seed: int, person: bytes) -> int:
    # Python's builtin hash() is salted per process; a keyed blake2b keeps
    # feature hashing reproducible across runs and machines.
    h = hashlib.blake2b(
        token.encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(8, "little"),
        person=person,
    )
    return int.from_bytes(h.digest(), "little")


def feature_hash(tokens, dim: int, seed: int = 0) -> np.ndarray:
    """Vectorize (token, value) pairs into a fixed-dimension vector.

    Each token is routed to one output index by a seeded string hash and
    accumulated with a hashed sign of +/-1, so the result is independent of
    token order and linear in the values. An empty token list yields the
    zero vector, which callers must not feed to the LSH layer.
    """
    dim = check_integer("dim", dim, 1)
    seed = check_integer("seed", seed, 0, SEED_MAX)
    out = np.zeros(dim, dtype=np.float64)
    for token, value in tokens:
        if not isinstance(token, str):
            raise TypeError(f"token must be a string, got {type(token).__name__}")
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"token {token!r} has non-finite value")
        idx = _token_hash(token, seed, b"fh-index") % dim
        sign = 1.0 if _token_hash(token, seed, b"fh-sign") & 1 else -1.0
        out[idx] += sign * value
    out.setflags(write=False)
    return out
