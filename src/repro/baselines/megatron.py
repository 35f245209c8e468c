"""Megatron-LM-style baseline: TP (+Megatron-SP) x CP x DP(ZeRO-1).

Megatron-LM shards each layer's tensors across ``tp`` devices
(tensor parallelism with Megatron-style sequence parallelism in the
dropout/normalisation regions), splits the sequence dimension of
attention across ``cp`` devices with ring-attention context
parallelism, and replicates the result ``dp`` times with ZeRO-1 data
parallelism.  The paper tunes ``tp in {8, 16}``, ``cp in {4, 8}`` per
workload (Appendix B.2).

The communication structure differs fundamentally from Ulysses SP:
TP All-Gather/Reduce-Scatter volume is charged per layer, and the CP
KV ring is charged with compute overlap (Appendix D explains that on
slow inter-node links with mostly-short sequences the attention
compute cannot hide the ring, which is why Megatron-LM generally
trails DeepSpeed in Fig. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.cluster.collectives import all_reduce_time
from repro.cluster.topology import ClusterSpec
from repro.core.types import InfeasibleWorkloadError
from repro.data.packing import best_fit_decreasing
from repro.model.config import ModelConfig
from repro.model.flops import dense_flops_per_token, training_flops_multiplier
from repro.model.memory import (
    ActivationCheckpointing,
    activation_bytes_per_token,
)
from repro.simulator.timing import (
    MICROBATCH_LAUNCH_OVERHEAD,
    SATURATION_TOKENS,
    optimizer_step_time,
    segment_sequential_sums,
)

#: Megatron-SP collectives per layer per direction: an All-Gather and a
#: Reduce-Scatter around both the attention and the MLP block.
TP_COLLECTIVES_PER_LAYER_PER_DIRECTION = 4


@dataclass(frozen=True)
class MegatronStrategy:
    """A tuned Megatron-LM configuration.

    Attributes:
        tp: Tensor-parallel degree (with Megatron-style SP).
        cp: Context-parallel degree (ring attention).
        dp: Data-parallel degree; ``tp * cp * dp`` must equal N.
    """

    tp: int
    cp: int
    dp: int

    def __post_init__(self) -> None:
        for name in ("tp", "cp", "dp"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two, got {value}")

    @property
    def model_shards(self) -> int:
        return self.tp * self.cp

    def describe(self) -> str:
        return f"tp={self.tp} cp={self.cp} dp={self.dp} zero=1"


@dataclass(frozen=True)
class MegatronOutcome:
    """Result of one simulated Megatron-LM iteration."""

    iteration_seconds: float
    comm_seconds: float
    num_microbatches: int
    strategy: MegatronStrategy

    @property
    def comm_fraction(self) -> float:
        if self.iteration_seconds <= 0:
            return 0.0
        return self.comm_seconds / self.iteration_seconds


def megatron_strategy_space(cluster: ClusterSpec) -> list[MegatronStrategy]:
    """Candidate (tp, cp, dp) triples on this cluster.

    TP is capped at two nodes' worth of GPUs (tp=16 is the paper's
    largest) and CP at the cluster; every power-of-two factorisation of
    N is enumerated.
    """
    n = cluster.num_gpus
    strategies = []
    tp = 1
    while tp <= min(n, 2 * cluster.gpus_per_node):
        cp = 1
        while tp * cp <= n:
            if n % (tp * cp) == 0:
                dp = n // (tp * cp)
                if dp & (dp - 1) == 0:
                    strategies.append(MegatronStrategy(tp=tp, cp=cp, dp=dp))
            cp *= 2
        tp *= 2
    return strategies


def megatron_state_bytes_per_device(
    config: ModelConfig, strategy: MegatronStrategy
) -> float:
    """Model-state bytes per device under TP sharding + ZeRO-1 DP.

    TP shards parameters and gradients; Megatron's distributed
    optimizer shards the fp32 optimizer states across the full
    data-parallel replication group, which includes both the DP and CP
    dimensions (CP ranks hold identical parameters).
    """
    params = config.parameter_count()
    param_and_grad = 4.0 * params / strategy.tp
    optimizer = 12.0 * params / (strategy.tp * strategy.dp * strategy.cp)
    return param_and_grad + optimizer


def megatron_token_capacity(
    config: ModelConfig,
    cluster: ClusterSpec,
    strategy: MegatronStrategy,
    checkpointing: ActivationCheckpointing,
) -> int:
    """Tokens one model replica can hold in a micro-batch."""
    budget = cluster.gpu.usable_memory_bytes - megatron_state_bytes_per_device(
        config, strategy
    )
    if budget <= 0:
        return 0
    per_token_per_device = activation_bytes_per_token(config, checkpointing) / (
        strategy.tp * strategy.cp
    )
    return int(budget / per_token_per_device)


def _pack_replica_times(
    packs: list[tuple[int, ...]],
    config: ModelConfig,
    cluster: ClusterSpec,
    strategy: MegatronStrategy,
    checkpointing: ActivationCheckpointing,
) -> tuple[np.ndarray, np.ndarray]:
    """(replica seconds, comm seconds) per pack, as array expressions.

    Per pack: saturation-derated per-device compute (FLOPs accumulated
    left to right, as :func:`~repro.model.flops.batch_flops` does), the
    TP All-Gather/Reduce-Scatter rounds
    (:func:`~repro.cluster.collectives.all_gather_time`) and the CP KV
    ring left exposed after overlap
    (:func:`~repro.parallelism.ring.cp_ring_time`,
    :func:`~repro.parallelism.ring.cp_exposed_comm_time`).  Each lane
    equals a per-pack loop over those scalar functions bit-for-bit
    (``tests/test_property_timing_batch.py`` holds it to one).
    """
    counts = np.fromiter((len(p) for p in packs), dtype=np.int64, count=len(packs))
    flat = np.fromiter(
        chain.from_iterable(packs), dtype=np.int64, count=int(counts.sum())
    )
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    tokens = np.add.reduceat(flat, starts)

    s = flat.astype(np.float64)
    dense = dense_flops_per_token(config)
    attention = config.num_layers * (4.0 * s * s * config.hidden_size / 2.0)
    forward = segment_sequential_sums(s * dense + attention, counts)
    flops = forward * training_flops_multiplier(checkpointing)
    shards = strategy.tp * strategy.cp
    per_device = flops / shards
    tokens_per_device = tokens / shards
    derate = tokens_per_device / (tokens_per_device + SATURATION_TOKENS)
    compute = (
        per_device / (cluster.gpu.effective_flops * derate)
        + MICROBATCH_LAUNCH_OVERHEAD
    )

    if strategy.tp == 1:
        tp_comm = np.zeros(len(packs))
    else:
        link = cluster.link_for_degree(strategy.tp)
        # Activations are also sequence-split across CP, so each TP
        # collective moves the replica's tokens divided by cp.
        buffer_bytes = (
            tokens / strategy.cp * config.hidden_size * config.bytes_per_element
        )
        rounds = config.num_layers * TP_COLLECTIVES_PER_LAYER_PER_DIRECTION * 2
        wire = buffer_bytes * (strategy.tp - 1) / strategy.tp
        per_round = link.latency * (strategy.tp - 1) + wire / link.bandwidth
        tp_comm = rounds * per_round

    if strategy.cp == 1:
        cp_comm = np.zeros(len(packs))
    else:
        link = cluster.link_for_degree(strategy.model_shards)
        shard_tokens = tokens / strategy.cp
        kv_bytes = 2 * shard_tokens * config.hidden_size * config.bytes_per_element
        per_layer = kv_bytes * (strategy.cp - 1)
        volume = per_layer * config.num_layers * 2.0
        volume = volume / 2.0  # causal striping halves the useful rotation
        rotations = config.num_layers * 2 * max(strategy.cp - 1, 1)
        ring = link.latency * rotations + volume / link.bandwidth
        # Megatron schedules the next chunk's KV rotation behind the
        # whole block compute, not just the attention matmuls, so the
        # overlap window is the pack's full per-device compute time.
        hidden = np.minimum(ring, 0.9 * compute)
        cp_comm = ring - hidden

    return compute + tp_comm + cp_comm, tp_comm + cp_comm


def megatron_iteration(
    lengths: tuple[int, ...],
    config: ModelConfig,
    cluster: ClusterSpec,
    strategy: MegatronStrategy,
    checkpointing: ActivationCheckpointing = ActivationCheckpointing.NONE,
    pack_target: int | None = None,
) -> MegatronOutcome:
    """Simulate one Megatron-LM training iteration over a global batch.

    Packs the batch to the training context length (capped by replica
    memory capacity), schedules packs on the ``dp`` replicas round by
    round, and charges compute, TP collectives, the exposed CP ring,
    the ZeRO-1 gradient All-Reduce and the optimizer.

    Args:
        pack_target: Packing capacity ``c`` in tokens; defaults to the
            replica memory capacity.  The paper's protocol packs to
            the task's maximum context length.
    """
    capacity = megatron_token_capacity(config, cluster, strategy, checkpointing)
    target = capacity if pack_target is None else min(pack_target, capacity)
    over = [s for s in lengths if s > target]
    if over:
        raise InfeasibleWorkloadError(
            f"sequence of {max(over)} tokens exceeds replica capacity "
            f"{target} under {strategy.describe()}"
        )
    packs = [tuple(p.lengths) for p in best_fit_decreasing(lengths, target)]
    packs.sort(key=lambda p: sum(p), reverse=True)
    num_rounds = math.ceil(len(packs) / strategy.dp)

    replica_times, comm_times = _pack_replica_times(
        packs, config, cluster, strategy, checkpointing
    )
    total = 0.0
    comm_total = 0.0
    for r in range(num_rounds):
        chunk = slice(r * strategy.dp, (r + 1) * strategy.dp)
        round_times = replica_times[chunk]
        # The round's slowest replica, first occurrence of the maximum.
        slowest = int(np.argmax(round_times))
        total += float(round_times[slowest])
        comm_total += float(comm_times[chunk][slowest])

    grad_bytes = 2.0 * config.parameter_count() / strategy.tp
    if strategy.dp > 1:
        link = cluster.hierarchical_link()
        grad_sync = all_reduce_time(grad_bytes, strategy.dp, link)
    else:
        grad_sync = 0.0
    optim = optimizer_step_time(config, cluster)
    total += grad_sync + optim
    comm_total += grad_sync

    return MegatronOutcome(
        iteration_seconds=total,
        comm_seconds=comm_total,
        num_microbatches=num_rounds,
        strategy=strategy,
    )
