"""Plan-level time and memory estimation.

Thin helpers that lift the per-group cost model (Eq. 14) to
micro-batch plans (max over concurrent groups) and iteration plans
(sum over sequential micro-batches) — the objective structure of the
planner's optimisation problem (Eq. 5/17).

Groups are priced with :meth:`CostModel.time_with_overheads` and
:meth:`CostModel.memory`, the same prices the planner and the
baselines use, so an estimate equals theirs exactly.
"""

from __future__ import annotations

from repro.core.types import IterationPlan, MicroBatchPlan
from repro.cost.model import CostModel


def estimate_microbatch_time(model: CostModel, microbatch: MicroBatchPlan) -> float:
    """Estimated seconds of one micro-batch: slowest concurrent group,
    including the exposed ZeRO-3 gather overhead."""
    return max(
        model.time_with_overheads(g.lengths, g.degree) for g in microbatch.groups
    )


def estimate_iteration_time(model: CostModel, plan: IterationPlan) -> float:
    """Estimated seconds of a full iteration: sum of micro-batches."""
    return sum(estimate_microbatch_time(model, mb) for mb in plan.microbatches)


def microbatch_peak_memory(model: CostModel, microbatch: MicroBatchPlan) -> float:
    """Largest per-device memory over the micro-batch's groups, bytes."""
    return max(model.memory(g.lengths, g.degree) for g in microbatch.groups)


def validate_plan_memory(model: CostModel, plan: IterationPlan) -> None:
    """Raise ValueError if any group in the plan violates Cond. (7)."""
    for i, mb in enumerate(plan.microbatches):
        for g in mb.groups:
            usage = model.memory(g.lengths, g.degree)
            if usage > model.memory_budget * (1 + 1e-9):
                raise ValueError(
                    f"micro-batch {i}: SP={g.degree} group with "
                    f"{g.tokens} tokens needs {usage / 2**30:.2f} GiB, "
                    f"budget is {model.memory_budget / 2**30:.2f} GiB"
                )


def group_imbalance(model: CostModel, microbatch: MicroBatchPlan) -> float:
    """Idle fraction caused by stragglers within a micro-batch.

    0 means perfectly balanced groups; approaching 1 means most
    device-time is spent waiting for the slowest group — the waste the
    paper's time-balanced assignment is designed to avoid.
    """
    times = [model.time(g.lengths, g.degree) for g in microbatch.groups]
    degrees = [g.degree for g in microbatch.groups]
    makespan = max(times)
    if makespan <= 0:
        return 0.0
    busy = sum(t * d for t, d in zip(times, degrees))
    capacity = makespan * sum(degrees)
    return 1.0 - busy / capacity
