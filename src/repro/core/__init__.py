"""FlexSP core: the paper's primary contribution.

Pipeline (Fig. 3): the **sequence blaster** (:mod:`repro.core.blaster`)
chunks a global batch into micro-batches; per micro-batch, **sequence
bucketing** (:mod:`repro.core.bucketing`) compresses lengths into a few
buckets; the **parallelism planner** (:mod:`repro.core.planner`) solves
a MILP choosing heterogeneous SP groups and assigning every sequence to
one; the **solver** (:mod:`repro.core.solver`) sweeps micro-batch
counts and returns the best full-iteration plan.
"""

from repro.core.blaster import blast, min_microbatch_count
from repro.core.cache_store import (
    CacheStore,
    PruneResult,
    StoreStats,
    WorkloadState,
)
from repro.core.bucketing import (
    Bucket,
    bucket_sequences,
    bucketing_error,
    naive_buckets,
    optimal_buckets,
)
from repro.core.planner import PlannerConfig, plan_microbatch
from repro.core.solver import FlexSPSolver, SolverConfig, SolverPool
from repro.core.types import (
    GroupAssignment,
    IterationPlan,
    MicroBatchPlan,
    SequenceBatch,
)

__all__ = [
    "SequenceBatch",
    "GroupAssignment",
    "MicroBatchPlan",
    "IterationPlan",
    "Bucket",
    "optimal_buckets",
    "naive_buckets",
    "bucket_sequences",
    "bucketing_error",
    "blast",
    "min_microbatch_count",
    "PlannerConfig",
    "plan_microbatch",
    "SolverConfig",
    "FlexSPSolver",
    "SolverPool",
    "CacheStore",
    "WorkloadState",
    "StoreStats",
    "PruneResult",
]
