"""Deterministic synthetic edge services.

A service is a pipeline of named stages; stages with the same id are the
same computation, which is what makes intermediate results shareable across
services. Each stage applies a seeded random linear map followed by tanh, so
near-identical inputs give near-identical outputs and every result is exactly
reproducible for the accuracy oracle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SEED_MAX, as_feature_vector, check_integer


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage. Equal stage_id must mean an equal spec."""

    stage_id: str
    transform_seed: int
    out_dim: int
    exec_time_us: int

    def __post_init__(self):
        if not self.stage_id:
            raise ValueError("stage_id must be non-empty")
        where = f"stage {self.stage_id}: "
        check_integer(where + "transform_seed", self.transform_seed, 0, SEED_MAX)
        check_integer(where + "out_dim", self.out_dim, 1)
        check_integer(where + "exec_time_us", self.exec_time_us, 0)


@dataclass(frozen=True)
class ServiceSpec:
    """A named pipeline plus the label space of its final classifier."""

    service_id: str
    input_dim: int
    stages: tuple[StageSpec, ...]
    label_classes: int = 10

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.service_id:
            raise ValueError("service_id must be non-empty")
        where = f"service {self.service_id}: "
        check_integer(where + "input_dim", self.input_dim, 1)
        if not self.stages:
            raise ValueError(f"service {self.service_id}: needs at least one stage")
        check_integer(where + "label_classes", self.label_classes, 2)

    @property
    def total_exec_us(self) -> int:
        return sum(s.exec_time_us for s in self.stages)

    @property
    def output_dim(self) -> int:
        return self.stages[-1].out_dim


@dataclass(frozen=True)
class ServiceResult:
    """A service invocation's final output, its label, and every stage's
    output in pipeline order (the last is ``output``)."""

    output: np.ndarray
    label: int
    stage_outputs: tuple[np.ndarray, ...] = ()


@lru_cache(maxsize=512)
def _transform_matrix(seed: int, out_dim: int, in_dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((out_dim, in_dim)) / np.sqrt(in_dim)
    m.setflags(write=False)
    return m


def execute_stage(stage: StageSpec, x) -> np.ndarray:
    """Pure function: tanh of a seeded random linear map of the input."""
    v = as_feature_vector(x)
    out = _stage_kernel(stage, v.size, v)
    out.setflags(write=False)
    return out


def _stage_kernel(stage: StageSpec, in_dim: int, v: np.ndarray) -> np.ndarray:
    # The one stage computation, on a vector (in_dim,) or on a stack of
    # columns (n, in_dim, 1). numpy runs both as one gemv per vector, so a
    # row's bits do not depend on the batch it is in; V @ M.T, one gemm,
    # rounds differently and must not stand in for it.
    return np.tanh(_transform_matrix(stage.transform_seed, stage.out_dim, in_dim) @ v)


@lru_cache(maxsize=512)
def _class_projections(service_id: str, classes: int, dim: int) -> np.ndarray:
    digest = hashlib.blake2b(service_id.encode("utf-8"), digest_size=8,
                             person=b"label-proj").digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    p = rng.standard_normal((classes, dim))
    p.setflags(write=False)
    return p


def label_of(svc: ServiceSpec, output) -> int:
    """Derived classification of a final output: argmax over the service's
    seeded class projections, with zero biases. Ties resolve to the smallest
    class index, so the zero vector always labels as class 0."""
    return _label(svc, as_feature_vector(output, svc.output_dim))


def _label(svc: ServiceSpec, v: np.ndarray) -> int:
    # label_of without the check, for a final output the pipeline itself
    # produced: a frozen float64 vector of the last stage's out_dim.
    scores = _class_projections(svc.service_id, svc.label_classes, svc.output_dim) @ v
    return int(scores.argmax())


def execute_service(svc: ServiceSpec, x) -> ServiceResult:
    """Fold the whole pipeline over the input and label the final output."""
    v = as_feature_vector(x, svc.input_dim)
    return _pipeline(svc, v[None])[0]


def oracle(svc: ServiceSpec, xs) -> list[ServiceResult]:
    """Ground truth of executing each row of xs, an (n, input_dim) matrix,
    from scratch: row i's result is bit for bit execute_service(svc, xs[i]).

    A replay calls it once per service when it starts, outside the
    simulated clock, over every input the trace sends to that service: the
    servers take their own-input stage outputs from it, and the metrics
    layer judges reused results against it. Each result's stage outputs are
    read-only rows of one (n, out_dim) array per stage.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != svc.input_dim:
        raise ValueError(f"service {svc.service_id}: inputs must have shape "
                         f"(n, {svc.input_dim}), got {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError("inputs contain NaN or Inf")
    return _pipeline(svc, xs)


def _pipeline(svc: ServiceSpec, xs: np.ndarray) -> list[ServiceResult]:
    # The whole service over checked, C-contiguous rows, each run as a
    # column of one stack: every stage and the label projection are one
    # gemv per row, as on a single vector.
    v = xs[:, :, None]
    stacks = []
    for stage in svc.stages:
        v = _stage_kernel(stage, v.shape[1], v)
        v.setflags(write=False)
        stacks.append(v[:, :, 0])
    p = _class_projections(svc.service_id, svc.label_classes, svc.output_dim)
    labels = (p @ v)[:, :, 0].argmax(axis=1).tolist()
    return [ServiceResult(outs[-1], label, outs) for outs, label in zip(zip(*stacks), labels)]
