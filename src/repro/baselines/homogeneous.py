"""DeepSpeed-style homogeneous sequence parallelism.

The strongest non-adaptive baseline: ZeRO-3 sharded data parallelism
combined with Ulysses SP at one *static* degree ``d`` for the entire
run.  The cluster forms ``N / d`` identical SP groups (the data
parallel dimension); the global batch is Best-Fit packed into inputs
of at most ``c`` tokens — the memory capacity of one group — and the
packed inputs execute round by round under gradient accumulation.

The static degree must accommodate the *worst case* the task allows
(a single sequence at the maximum context limit), which is exactly why
these systems are stuck with large, slow groups: under a 384K limit on
64 A100-40GBs only SP=64 is feasible.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from repro.core.types import (
    GroupAssignment,
    InfeasibleWorkloadError,
    IterationPlan,
    MicroBatchPlan,
)
from repro.cost.model import CostModel, cost_table
from repro.data.packing import best_fit_decreasing
from repro.simulator.timing import segment_sequential_sums


def group_token_capacity(model: CostModel, sp_degree: int) -> int:
    """Packing capacity ``c``: tokens one SP group can hold at once."""
    if sp_degree <= 0:
        raise ValueError(f"sp_degree must be positive, got {sp_degree}")
    return int(model.max_tokens_per_device() * sp_degree)


def feasible_static_degrees(model: CostModel, max_context: int) -> list[int]:
    """SP degrees whose groups can host a worst-case sequence.

    A static strategy must survive any batch the task can produce,
    i.e. a single ``max_context``-token sequence must fit one group.
    """
    degrees = []
    d = 1
    while d <= model.cluster.num_gpus:
        if model.cluster.num_gpus % d == 0 and model.fits([max_context], d):
            degrees.append(d)
        d *= 2
    return degrees


def _pack_batch(
    lengths: tuple[int, ...], model: CostModel, sp_degree: int
) -> list[tuple[int, ...]]:
    capacity = group_token_capacity(model, sp_degree)
    too_long = [s for s in lengths if s > capacity]
    if too_long:
        raise InfeasibleWorkloadError(
            f"sequences {too_long[:3]}... exceed SP={sp_degree} group "
            f"capacity of {capacity} tokens; use a larger degree"
        )
    # A well-tuned system does not pack the whole batch into fewer
    # packs than there are data-parallel replicas — that would idle
    # devices.  Shrink the packing target so packs spread across the
    # replicas; for paper-scale batches (tokens >> cluster memory)
    # this leaves the memory-capacity packing unchanged.
    num_groups = max(model.cluster.num_gpus // sp_degree, 1)
    balanced = -(-sum(lengths) // num_groups)  # ceil
    target = min(capacity, max(balanced, max(lengths)))
    packs = best_fit_decreasing(lengths, target)
    return [tuple(p.lengths) for p in packs]


def homogeneous_plan(
    lengths: tuple[int, ...], model: CostModel, sp_degree: int
) -> IterationPlan:
    """Build the iteration plan a homogeneous-SP system would execute.

    Packs the batch to the group capacity, then schedules packs onto
    the ``N / d`` groups round by round, longest packs first with LPT
    balancing inside each round.
    """
    num_groups = model.cluster.num_gpus // sp_degree
    if num_groups == 0:
        raise ValueError(
            f"SP degree {sp_degree} exceeds cluster size "
            f"{model.cluster.num_gpus}"
        )
    packs = _pack_batch(lengths, model, sp_degree)
    packs.sort(key=lambda p: sum(p), reverse=True)
    num_rounds = math.ceil(len(packs) / num_groups)

    microbatches = []
    for r in range(num_rounds):
        round_packs = packs[r * num_groups : (r + 1) * num_groups]
        groups = []
        for i, pack in enumerate(round_packs):
            start = i * sp_degree
            groups.append(
                GroupAssignment(
                    degree=sp_degree,
                    device_ranks=tuple(range(start, start + sp_degree)),
                    lengths=pack,
                )
            )
        microbatches.append(MicroBatchPlan(groups=tuple(groups)))
    return IterationPlan(
        microbatches=tuple(microbatches),
        solver_name=f"homogeneous-sp{sp_degree}",
    )


def estimate_homogeneous_iteration(
    lengths: tuple[int, ...], model: CostModel, sp_degree: int
) -> float:
    """Cost-model estimate of a homogeneous iteration, seconds.

    Used by the static tuner and by FlexSP-BatchAda's per-batch degree
    choice; sums the per-round makespans under Eq. 14.

    Every pack's Eq. 14 time is evaluated through the
    :class:`~repro.cost.model.CostTable` kernels as one array
    expression, skipping plan-object construction; the result equals a
    walk over :func:`homogeneous_plan` pricing each group with
    ``CostModel.time_with_overheads`` bit-for-bit.
    """
    num_groups = model.cluster.num_gpus // sp_degree
    if num_groups == 0:
        raise ValueError(
            f"SP degree {sp_degree} exceeds cluster size "
            f"{model.cluster.num_gpus}"
        )
    packs = _pack_batch(lengths, model, sp_degree)
    packs.sort(key=lambda p: sum(p), reverse=True)
    times = _pack_times(packs, model, sp_degree)
    num_rounds = math.ceil(len(packs) / num_groups)
    total = 0.0
    for r in range(num_rounds):
        total += float(times[r * num_groups : (r + 1) * num_groups].max())
    return total


def _pack_times(
    packs: list[tuple[int, ...]], model: CostModel, sp_degree: int
) -> np.ndarray:
    """Eq. 14 + exposed-gather seconds per pack, as one array op.

    Work sums accumulate left to right per pack
    (:func:`segment_sequential_sums`), so each lane equals
    ``CostModel.time_with_overheads(pack, sp_degree)`` bit-for-bit.
    """
    table = cost_table(model)
    counts = np.fromiter((len(p) for p in packs), dtype=np.int64, count=len(packs))
    flat = np.fromiter(
        chain.from_iterable(packs), dtype=np.int64, count=int(counts.sum())
    )
    work = segment_sequential_sums(table.work_terms(flat), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    tokens = np.add.reduceat(flat, starts)
    degree_idx = np.full(len(packs), table.degree_index[sp_degree])
    return table.group_times(work, tokens, degree_idx)
