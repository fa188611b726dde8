"""Similarity-based computation reuse across devices, routers, and servers.

The library has three layers. Low-level pieces (locality-sensitive task
fingerprints, similarity-indexed reuse stores, seeded service pipelines)
work standalone. The fabric module wires them into node roles and the
per-node decision steps. The simulator replays a generated task trace over a
topology deterministically and reports completion, reuse, and accuracy
metrics; the command line wraps that in generate / run / sweep / report.
"""

from .config import (ConfigError, ExperimentConfig, default_experiment_data,
                     default_services_data, default_topology_data, load_experiment)
from .core import RESULT_ATOL, ReuseLayer, TaskEnvelope, as_feature_vector, similarity
from .fabric import (DeviceNode, ForwardingTable, HashRange, LoadReport, RouterNode,
                     ServerNode, UnknownServiceError, device_offload, partition_hash_space,
                     rebalance, router_forward, server_handle)
from .hashing import (FORWARDING_BITS, FORWARDING_SPACE, LshFamily, PreparedQuery,
                      feature_hash, forwarding_hash, probe_masks)
from .services import (ServiceResult, ServiceSpec, StageSpec, execute_service,
                       execute_stage, label_of, oracle)
from .simulator import (MetricsReport, Simulation, SimulationError, run_experiment,
                        sweep_thresholds, write_sweep_csv)
from .store import (CandidateScores, EvictionPolicy, LfuPolicy, LookupOutcome, LruPolicy,
                    OversizedEntryError, ReuseEntry, ReuseStore, vector_bytes)
from .workload import CalibrationError, WorkloadProfile, builtin_profiles, generate_trace

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "CandidateScores",
    "ConfigError",
    "DeviceNode",
    "EvictionPolicy",
    "ExperimentConfig",
    "FORWARDING_BITS",
    "FORWARDING_SPACE",
    "ForwardingTable",
    "HashRange",
    "LfuPolicy",
    "LoadReport",
    "LookupOutcome",
    "LruPolicy",
    "LshFamily",
    "MetricsReport",
    "OversizedEntryError",
    "PreparedQuery",
    "RESULT_ATOL",
    "ReuseEntry",
    "ReuseLayer",
    "ReuseStore",
    "RouterNode",
    "ServerNode",
    "ServiceResult",
    "ServiceSpec",
    "Simulation",
    "SimulationError",
    "StageSpec",
    "TaskEnvelope",
    "UnknownServiceError",
    "WorkloadProfile",
    "as_feature_vector",
    "builtin_profiles",
    "default_experiment_data",
    "default_services_data",
    "default_topology_data",
    "device_offload",
    "execute_service",
    "execute_stage",
    "feature_hash",
    "forwarding_hash",
    "generate_trace",
    "label_of",
    "load_experiment",
    "oracle",
    "partition_hash_space",
    "probe_masks",
    "rebalance",
    "router_forward",
    "run_experiment",
    "server_handle",
    "similarity",
    "sweep_thresholds",
    "vector_bytes",
    "write_sweep_csv",
]
