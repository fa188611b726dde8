"""Shared domain types and the similarity metric used by every layer.

Tasks carry a fixed-dimension feature vector as their input data; cosine
similarity (clamped at 0) between those vectors is the single notion of
"similar enough to reuse" across devices, routers, and servers.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .hashing import PreparedQuery

SELF_SIMILARITY_SNAP = 1e-12
RESULT_ATOL = 1e-9
# The largest seed: every seed is a 64-bit non-negative integer.
SEED_MAX = (1 << 64) - 1
# Neither an integer nor a threshold, though Python and numpy convert them.
_BOOLS = (bool, np.bool_)


class ReuseLayer(enum.Enum):
    """Where a task's result came from."""

    NONE = "none"
    DEVICE = "device"
    NETWORK = "network"
    SERVER = "server"
    PARTIAL_SERVER = "partial_server"


def as_feature_vector(values, dim: int | None = None) -> np.ndarray:
    """Validate and freeze a feature vector.

    Returns a read-only float64 1-D array. Rejects empty, non-finite, or
    wrong-dimension input, checking shape, then finiteness, then dim.

    One check and one copy: the result is a fresh C-contiguous copy made
    in the same call that converts to float64. A read-only input is copied
    too, since it may be a view whose base changes, as the store's own key
    rows do when a row is reused. A finite sum of squares proves every
    element finite; only when it is not (a NaN or Inf, or an overflow) does
    the element-wise test decide.
    """
    v = np.array(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"feature vector must be 1-D and non-empty, got shape {v.shape}")
    if not math.isfinite(np.vdot(v, v)) and not np.isfinite(v).all():
        raise ValueError("feature vector contains NaN or Inf")
    if dim is not None and v.size != dim:
        raise ValueError(f"feature vector has dim {v.size}, expected {dim}")
    v.setflags(write=False)
    return v


def check_integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """The one integer rule of the library's constructors: ``value`` as a
    plain int, within the inclusive bounds ``lo`` and ``hi`` (each when
    given).

    Python and numpy integers pass. A bool (numpy's too) or anything that
    ``operator.index`` refuses raises TypeError, and a value out of bounds
    raises ValueError; both messages name the argument.
    """
    if not isinstance(value, _BOOLS):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if (lo is None or lo <= n) and (hi is None or n <= hi):
                return n
            bounds = (f"in [{lo}, {hi}]" if lo is not None and hi is not None
                      else f">= {lo}" if lo is not None else f"<= {hi}")
            raise ValueError(f"{name} must be {bounds}, got {n}")
    raise TypeError(f"{name} must be an integer, got {value!r}")


def check_threshold(value: float) -> float:
    """Validate a similarity threshold (a fraction in [0, 1]); a bool is
    not one."""
    if isinstance(value, _BOOLS):
        raise TypeError(f"similarity threshold must be a number, got {value!r}")
    t = float(value)
    if math.isnan(t) or not 0.0 <= t <= 1.0:
        raise ValueError(f"similarity threshold must be in [0, 1], got {value}")
    return t


@dataclass(frozen=True)
class TaskEnvelope:
    """An offloaded task in flight.

    ``forwarding_hash`` is attached by the device (or the first router when
    the device cannot hash) and is never recomputed downstream. ``query``,
    when set, is the input's PreparedQuery: every node reuses its norm and
    signatures, and its table-0 bits are the forwarding hash. An envelope
    whose input is the query's own vector skips re-validating it, and a hop
    that attaches the forwarding hash copies the envelope without checking
    its fields again. The envelope is frozen: nodes pass it on and share it
    without copying.
    """

    task_id: int
    device_id: str
    service_id: str
    input: np.ndarray
    threshold: float
    forwarding_hash: int | None = None
    created_at: int = 0
    query: PreparedQuery | None = None

    def __post_init__(self):
        q = self.query
        if q is None or self.input is not q.vector:
            object.__setattr__(self, "input", as_feature_vector(self.input))
            if q is not None and q.vector.tobytes() != self.input.tobytes():
                raise ValueError("query was prepared from another vector than the task input")
        object.__setattr__(self, "threshold", check_threshold(self.threshold))
        if self.forwarding_hash is not None:
            _check_forwarding_hash(self.forwarding_hash)

    @classmethod
    def _of_query(cls, task_id: int, device_id: str, service_id: str, query: PreparedQuery,
                  threshold: float, created_at: int) -> TaskEnvelope:
        # An envelope whose input is the query's own read-only vector and
        # whose threshold was checked where it was loaded: nothing is left
        # for __post_init__ to check, so it is skipped.
        envelope = object.__new__(cls)
        envelope.__dict__.update(task_id=task_id, device_id=device_id, service_id=service_id,
                                 input=query.vector, threshold=threshold, forwarding_hash=None,
                                 created_at=created_at, query=query)
        return envelope

    def _with_forwarding_hash(self, h: int) -> TaskEnvelope:
        # A copy with the hash attached. Every other field was checked when
        # this envelope was made, so the copy skips __post_init__.
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, forwarding_hash=_check_forwarding_hash(h))
        return twin


def _check_forwarding_hash(h: int) -> int:
    if not 0 <= h <= 0xFFFF:
        raise ValueError(f"forwarding hash out of range: {h}")
    return h


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity clamped to [0, 1].

    Values within 1e-12 of 1.0 snap to exactly 1.0 so that identical inputs
    satisfy a threshold of 1.0. Zero vectors have no defined angle and are
    rejected.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("similarity of an all-zero vector is undefined")
    c = float(np.dot(a, b)) / (na * nb)
    if c > 1.0 - SELF_SIMILARITY_SNAP:
        return 1.0
    return max(c, 0.0)

