"""Ground-truth kernel and collective timing.

These functions are the simulated hardware's "truth": they charge
exact FLOP counts against a saturation-derated device throughput and
exact collective byte counts against the topology-aware link model.
The planner never sees them directly — its alpha-beta coefficients are
*fit* to observations of these functions by
:mod:`repro.cost.profiler`, reproducing the paper's profile-then-plan
workflow, and the residual between the two is what Fig. 9 (Appendix C)
measures.

Two evaluation surfaces are provided:

* the scalar functions (:func:`group_compute_time`,
  :func:`group_alltoall_time`, :func:`zero3_gather_time`) — the
  reference definitions, one SP group at a time.  The profiler probes
  them, and the tests hold :class:`TimingTable` and the executor to
  them;
* :class:`TimingTable` — what the executor charges: the same formulas
  as numpy kernels that evaluate *every* group of an iteration plan in
  one shot, bit-identical to the scalar functions (same IEEE-754
  double operations in the same order, including sequential
  within-group reductions).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import chain

import numpy as np

from repro.cluster.collectives import (
    all_gather_time,
    all_to_all_time,
    reduce_scatter_time,
)
from repro.cluster.network import LinkSpec
from repro.cluster.topology import ClusterSpec
from repro.model.config import ModelConfig
from repro.model.flops import batch_flops, training_flops_multiplier
from repro.model.memory import ActivationCheckpointing
from repro.parallelism.ulysses import (
    alltoall_bytes_per_gpu,
    alltoall_rounds_per_step,
)
from repro.parallelism.zero import (
    zero3_gather_bytes_per_microbatch,
    zero_gradient_sync_bytes,
)

#: Per-device token count at which matmul efficiency reaches half of
#: its asymptote; small shards underutilise the tensor cores.
SATURATION_TOKENS = 512.0

#: Fixed framework overhead per micro-batch (kernel launches, optimizer
#: of the dataloader, stream sync), seconds.
MICROBATCH_LAUNCH_OVERHEAD = 0.012

#: Fraction of ZeRO-3 parameter gathers hidden behind compute via
#: prefetching (FSDP overlaps the next layer's gather with the current
#: layer's compute).
ZERO3_OVERLAP_FRACTION = 0.85

#: Effective HBM bandwidth the optimizer update streams at, bytes/s.
#: A100-80GB HBM2e peaks at ~2 TB/s and the 40GB part at ~1.6 TB/s;
#: fused Adam sustains roughly 80% of peak, hence 1.3 TB/s effective.
HBM_BANDWIDTH_BYTES_PER_SECOND = 1.3e12


def _efficiency_derate(tokens_per_device: float) -> float:
    """Throughput fraction achieved at a given per-device shard size."""
    if tokens_per_device <= 0:
        return 0.0
    return tokens_per_device / (tokens_per_device + SATURATION_TOKENS)


def group_compute_time(
    config: ModelConfig,
    cluster: ClusterSpec,
    lengths: Iterable[int],
    degree: int,
    checkpointing: ActivationCheckpointing = ActivationCheckpointing.NONE,
) -> float:
    """Per-device compute seconds for an SP group's packed micro-batch.

    SP scatters both the linear and the attention work evenly across
    the group's ``degree`` devices (Ulysses re-shards heads for the
    attention, so the quadratic work is also divided by ``degree``).
    """
    if degree <= 0:
        raise ValueError(f"degree must be positive, got {degree}")
    lengths = list(lengths)
    if not lengths:
        return 0.0
    forward = batch_flops(config, lengths)
    flops = forward * training_flops_multiplier(checkpointing)
    per_device = flops / degree
    tokens_per_device = sum(lengths) / degree
    throughput = cluster.gpu.effective_flops * _efficiency_derate(tokens_per_device)
    if throughput <= 0:
        raise ValueError("device throughput underflow; check workload size")
    return per_device / throughput + MICROBATCH_LAUNCH_OVERHEAD


def group_alltoall_time(
    config: ModelConfig,
    cluster: ClusterSpec,
    group_tokens: float,
    degree: int,
    link: LinkSpec | None = None,
) -> float:
    """All-to-All seconds for one SP group's full micro-batch step.

    Charges every one of the ``4 * layers * 2`` All-to-All rounds
    individually so that per-round latency is reflected, using the
    group's topology-determined link.
    """
    if degree <= 0:
        raise ValueError(f"degree must be positive, got {degree}")
    if degree == 1 or group_tokens <= 0:
        return 0.0
    if link is None:
        link = cluster.link_for_degree(degree)
    per_round_bytes = alltoall_bytes_per_gpu(config, group_tokens / degree)
    rounds = alltoall_rounds_per_step(config)
    per_round = all_to_all_time(per_round_bytes, degree, link)
    return rounds * per_round


def zero3_gather_time(
    config: ModelConfig,
    cluster: ClusterSpec,
    compute_time: float,
    zero_stage: int = 3,
) -> float:
    """*Exposed* parameter-gather seconds for one micro-batch.

    ZeRO-3 All-Gathers each layer's parameters over the full cluster;
    prefetching hides most of it behind compute.  Stages below 3 gather
    nothing.
    """
    if zero_stage < 3:
        return 0.0
    link = cluster.hierarchical_link()
    raw = all_gather_time(
        zero3_gather_bytes_per_microbatch(config), cluster.num_gpus, link
    )
    hidden = min(raw * ZERO3_OVERLAP_FRACTION, compute_time)
    return raw - hidden


def gradient_sync_time(config: ModelConfig, cluster: ClusterSpec) -> float:
    """Gradient Reduce-Scatter seconds, charged once per training step.

    Gradients reduce hierarchically (intra-node first), so the node
    uplink is the effective per-GPU bandwidth.
    """
    link = cluster.hierarchical_link()
    return reduce_scatter_time(
        zero_gradient_sync_bytes(config), cluster.num_gpus, link
    )


def optimizer_step_time(config: ModelConfig, cluster: ClusterSpec) -> float:
    """Adam update seconds; memory-bandwidth bound, per-device sharded.

    Each device updates its parameter shard: reads/writes roughly
    16 bytes of state plus the bf16 gradient per owned parameter at
    :data:`HBM_BANDWIDTH_BYTES_PER_SECOND` (~1.3 TB/s effective on
    A100).
    """
    shard_params = config.parameter_count() / cluster.num_gpus
    traffic = shard_params * (16 + 2) * 2  # read + write
    return traffic / HBM_BANDWIDTH_BYTES_PER_SECOND


# ---------------------------------------------------------------------------
# Vectorized ground truth: every SP group of an iteration in one shot.
# ---------------------------------------------------------------------------


def segment_sequential_sums(
    values: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-segment left-to-right float sums, bit-identical to Python.

    ``values`` is the concatenation of the segments; ``counts`` their
    lengths.  Each segment is accumulated strictly left to right —
    exactly like ``total = 0.0; for v in seg: total += v`` — which is
    what makes the batched kernels reproduce the scalar functions
    bit-for-bit.  (``np.add.reduce``/``reduceat`` use pairwise
    summation above ~8 elements and round differently.)

    The trick: lay the segments out as rows of a zero-padded matrix and
    take ``np.add.accumulate`` along each row in one numpy call.
    Accumulate is a running sum by definition — output ``j`` is output
    ``j - 1`` plus input ``j`` — so every row is added strictly left to
    right: the same IEEE adds in the same order as the Python loop.
    Adding the trailing 0.0 padding is an exact no-op for the
    non-negative addends used here, so a row's last column is its
    segment's sum.

    Args:
        values: Concatenated segment values; must be non-negative (or
            at least never ``-0.0``/NaN) for padding to be exact.
        counts: Segment lengths, all positive.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_segments = counts.shape[0]
    if num_segments == 0:
        return np.zeros(0, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    width = int(counts.max())
    padded = np.zeros((num_segments, width), dtype=np.float64)
    rows = np.repeat(np.arange(num_segments), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cols = np.arange(values.shape[0]) - np.repeat(starts, counts)
    padded[rows, cols] = values
    return np.add.accumulate(padded, axis=1)[:, -1]


def _segment_token_sums(flat_lengths: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Exact per-segment integer token sums (order-independent)."""
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.add.reduceat(flat_lengths, starts)


class TimingTable:
    """Vectorized view of the ground-truth timing for one policy triple.

    The scalar functions re-derive every constant (dense FLOPs/token,
    All-to-All round count, the raw ZeRO-3 gather) on each call and
    walk each group's sequences in interpreted Python.  This table
    precomputes the constants once per ``(config, cluster,
    checkpointing)`` and evaluates *all* SP groups of an iteration plan
    as array expressions.

    Exactness: every elementwise expression replicates the scalar
    formula operation-for-operation, and within-group reductions use
    :func:`segment_sequential_sums` (left-to-right accumulation), so
    results equal :func:`group_compute_time` /
    :func:`group_alltoall_time` / :func:`zero3_gather_time` bit-for-bit
    (property-tested by ``tests/test_property_timing_batch.py``).
    """

    def __init__(
        self,
        config: ModelConfig,
        cluster: ClusterSpec,
        checkpointing: ActivationCheckpointing = ActivationCheckpointing.NONE,
    ) -> None:
        self.config = config
        self.cluster = cluster
        self.checkpointing = checkpointing
        from repro.model.flops import dense_flops_per_token

        self._dense = dense_flops_per_token(config)
        self._multiplier = training_flops_multiplier(checkpointing)
        self._effective_flops = cluster.gpu.effective_flops
        self._hidden = config.hidden_size
        self._bytes_per_element = config.bytes_per_element
        self._num_layers = config.num_layers
        self._rounds = alltoall_rounds_per_step(config)
        self._zero3_raw = all_gather_time(
            zero3_gather_bytes_per_microbatch(config),
            cluster.num_gpus,
            cluster.hierarchical_link(),
        )

    def sequence_flop_terms(self, lengths: np.ndarray) -> np.ndarray:
        """Forward FLOPs per sequence (``sequence_flops``, elementwise)."""
        s = np.asarray(lengths, dtype=np.float64)
        attention = self._num_layers * (4.0 * s * s * self._hidden / 2.0)
        return s * self._dense + attention

    def group_compute_times(
        self,
        flat_lengths: np.ndarray,
        counts: np.ndarray,
        degrees: np.ndarray,
    ) -> np.ndarray:
        """:func:`group_compute_time` for many groups at once.

        Args:
            flat_lengths: All groups' sequence lengths, concatenated.
            counts: Sequences per group.
            degrees: SP degree per group.
        """
        forward = segment_sequential_sums(
            self.sequence_flop_terms(flat_lengths), counts
        )
        flops = forward * self._multiplier
        per_device = flops / degrees
        tokens_per_device = _segment_token_sums(flat_lengths, counts) / degrees
        derate = tokens_per_device / (tokens_per_device + SATURATION_TOKENS)
        throughput = self._effective_flops * derate
        return per_device / throughput + MICROBATCH_LAUNCH_OVERHEAD

    def group_alltoall_times(
        self,
        tokens: np.ndarray,
        degrees: np.ndarray,
        latencies: np.ndarray,
        bandwidths: np.ndarray,
    ) -> np.ndarray:
        """:func:`group_alltoall_time` for many groups at once.

        Args:
            tokens: Integer token count per group.
            degrees: SP degree per group.
            latencies: Per-group link latency (each group's
                topology-determined link, as the executor charges it).
            bandwidths: Per-group link bandwidth.
        """
        degrees = np.asarray(degrees, dtype=np.int64)
        resident = np.asarray(tokens, dtype=np.int64) / degrees
        per_round_bytes = resident * self._hidden * self._bytes_per_element
        wire = per_round_bytes * (degrees - 1) / degrees
        per_round = latencies + wire / bandwidths
        out = self._rounds * per_round
        np.copyto(out, 0.0, where=(degrees == 1) | (np.asarray(tokens) <= 0))
        return out

    def zero3_exposed_times(self, compute_times: np.ndarray) -> np.ndarray:
        """:func:`zero3_gather_time` (stage 3) for many groups at once."""
        raw = self._zero3_raw
        hidden = np.minimum(raw * ZERO3_OVERLAP_FRACTION, compute_times)
        return raw - hidden

    def group_times(
        self, groups: Sequence, links: Sequence[LinkSpec]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(compute, alltoall, exposed gather) arrays for plan groups.

        Args:
            groups: :class:`~repro.core.types.GroupAssignment` objects
                in execution order.
            links: The topology link of each group, aligned.
        """
        counts = np.fromiter(
            (len(g.lengths) for g in groups), dtype=np.int64, count=len(groups)
        )
        flat_lengths = np.fromiter(
            chain.from_iterable(g.lengths for g in groups),
            dtype=np.int64,
            count=int(counts.sum()),
        )
        degrees = np.fromiter(
            (g.degree for g in groups), dtype=np.int64, count=len(groups)
        )
        latencies = np.fromiter(
            (link.latency for link in links), dtype=np.float64, count=len(links)
        )
        bandwidths = np.fromiter(
            (link.bandwidth for link in links), dtype=np.float64, count=len(links)
        )
        compute = self.group_compute_times(flat_lengths, counts, degrees)
        tokens = _segment_token_sums(flat_lengths, counts)
        alltoall = self.group_alltoall_times(tokens, degrees, latencies, bandwidths)
        gather = self.zero3_exposed_times(compute)
        return compute, alltoall, gather


@lru_cache(maxsize=128)
def timing_table(
    config: ModelConfig,
    cluster: ClusterSpec,
    checkpointing: ActivationCheckpointing = ActivationCheckpointing.NONE,
) -> TimingTable:
    """Memoised :class:`TimingTable` for a (config, cluster, policy).

    Executors for the same evaluation cell (one per system in a sweep)
    share one table, so the precomputation runs once per process.
    """
    return TimingTable(config, cluster, checkpointing)
