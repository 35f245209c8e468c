"""Simulated execution of iteration plans.

Replaces the paper's PyTorch/NCCL runtime: ground-truth kernel and
collective timing (:mod:`repro.simulator.timing`), the iteration
executor that runs plans on a simulated cluster
(:mod:`repro.simulator.executor`) and the execution trace used for
time breakdowns (:mod:`repro.simulator.trace`).
"""

from repro.simulator.executor import ExecutionResult, IterationExecutor
from repro.simulator.timing import (
    TimingTable,
    group_alltoall_time,
    group_compute_time,
    gradient_sync_time,
    timing_table,
    zero3_gather_time,
)
from repro.simulator.trace import PhaseKind, TracePhase, TraceRecorder

__all__ = [
    "IterationExecutor",
    "ExecutionResult",
    "group_compute_time",
    "group_alltoall_time",
    "zero3_gather_time",
    "gradient_sync_time",
    "TimingTable",
    "timing_table",
    "PhaseKind",
    "TracePhase",
    "TraceRecorder",
]
