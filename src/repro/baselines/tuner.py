"""Per-workload strategy tuning for the baselines.

The paper "manually tune[s] the most efficient parallelism strategies
for all baseline systems under different workloads" (Appendix B.2).
This module automates the same search: enumerate the feasible static
strategies, estimate each on a few probe batches from the workload's
corpus, and keep the fastest.

Both tuners score each candidate through the array-expression
evaluators (:func:`~repro.baselines.homogeneous.estimate_homogeneous_iteration`
and :func:`~repro.baselines.megatron.megatron_iteration`), summed over
the probe batches, and keep the first candidate with the lowest total.
A candidate that cannot host a probe batch is skipped only on
:class:`~repro.core.types.InfeasibleWorkloadError`; any other error
propagates.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.baselines.homogeneous import (
    estimate_homogeneous_iteration,
    feasible_static_degrees,
)
from repro.baselines.megatron import (
    MegatronStrategy,
    megatron_iteration,
    megatron_strategy_space,
    megatron_token_capacity,
)
from repro.cluster.topology import ClusterSpec
from repro.core.types import InfeasibleWorkloadError
from repro.cost.model import CostModel
from repro.model.config import ModelConfig
from repro.model.memory import ActivationCheckpointing


def choose_static_degree(
    probe_batches: Iterable[tuple[int, ...]],
    model: CostModel,
    max_context: int,
) -> int:
    """Best static SP degree for a DeepSpeed-style system.

    Feasibility must cover the task's worst case (one sequence at
    ``max_context``); among feasible degrees, the one with the lowest
    mean estimated iteration time over the probe batches wins.

    Raises:
        ValueError: No degree can host a worst-case sequence.
    """
    candidates = feasible_static_degrees(model, max_context)
    if not candidates:
        raise InfeasibleWorkloadError(
            f"no SP degree on {model.cluster.num_gpus} devices fits a "
            f"{max_context}-token sequence"
        )
    batches = list(probe_batches)
    if not batches:
        raise ValueError("at least one probe batch is required")
    best_degree = None
    best_time = None
    for d in candidates:
        total = sum(
            estimate_homogeneous_iteration(batch, model, d) for batch in batches
        )
        if best_time is None or total < best_time:
            best_time = total
            best_degree = d
    assert best_degree is not None
    return best_degree


def tune_megatron(
    probe_batches: Iterable[tuple[int, ...]],
    config: ModelConfig,
    cluster: ClusterSpec,
    max_context: int,
    checkpointing: ActivationCheckpointing = ActivationCheckpointing.NONE,
) -> MegatronStrategy:
    """Best (tp, cp, dp) for a Megatron-LM-style system.

    Raises:
        ValueError: No strategy can host a worst-case sequence.
    """
    batches = list(probe_batches)
    if not batches:
        raise ValueError("at least one probe batch is required")
    best_strategy = None
    best_time = None
    for strategy in megatron_strategy_space(cluster):
        capacity = megatron_token_capacity(config, cluster, strategy, checkpointing)
        if capacity < max_context:
            continue
        try:
            total = sum(
                megatron_iteration(
                    batch, config, cluster, strategy, checkpointing,
                    pack_target=max_context,
                ).iteration_seconds
                for batch in batches
            )
        except InfeasibleWorkloadError:
            continue
        if best_time is None or total < best_time:
            best_time = total
            best_strategy = strategy
    if best_strategy is None:
        raise InfeasibleWorkloadError(
            f"no Megatron strategy on {cluster.num_gpus} devices fits a "
            f"{max_context}-token sequence"
        )
    return best_strategy
