"""Cluster topology and canonical device placement.

A cluster is ``num_nodes`` identical nodes of ``gpus_per_node`` GPUs.
Devices are numbered 0..N-1 with node-major order, so a contiguous
block of ``d <= gpus_per_node`` device ranks starting at a multiple of
``d`` stays inside one node whenever ``d`` divides ``gpus_per_node`` —
the power-of-two neighbour pairing the paper's group manager exploits
(S5, footnote 4).

A communication group's link depends only on how many nodes it touches
and how many of its members share the busiest node's uplink.
:meth:`ClusterSpec.group_link` counts those in one pass over the ranks;
:meth:`ClusterSpec.link_for_degree` prices the canonical block
``[0, degree)`` without listing it: it holds ``min(degree,
gpus_per_node)`` ranks per node on ``ceil(degree / gpus_per_node)``
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.device import A100_40GB, GPUSpec
from repro.cluster.network import LinkSpec, NetworkSpec


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous GPU cluster.

    Attributes:
        num_nodes: Number of machines.
        gpus_per_node: GPUs per machine (8 in the paper's testbed).
        gpu: Device specification shared by every GPU.
        network: Interconnect model.
    """

    num_nodes: int
    gpus_per_node: int = 8
    gpu: GPUSpec = A100_40GB
    network: NetworkSpec = field(default_factory=NetworkSpec)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {self.num_nodes}")
        if self.gpus_per_node <= 0:
            raise ValueError(
                f"gpus_per_node must be positive, got {self.gpus_per_node}"
            )

    @property
    def num_gpus(self) -> int:
        """Total device count N."""
        return self.num_nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting device ``rank``."""
        if not 0 <= rank < self.num_gpus:
            raise ValueError(f"rank {rank} out of range for {self.num_gpus} GPUs")
        return rank // self.gpus_per_node

    def contiguous_group(self, start: int, size: int) -> tuple[int, ...]:
        """Device ranks of a contiguous block ``[start, start + size)``."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if start < 0 or start + size > self.num_gpus:
            raise ValueError(
                f"block [{start}, {start + size}) out of range for "
                f"{self.num_gpus} GPUs"
            )
        return tuple(range(start, start + size))

    def nodes_spanned(self, ranks: tuple[int, ...]) -> int:
        """Number of distinct nodes hosting the given device ranks."""
        return len({self.node_of(r) for r in ranks})

    def group_link(self, ranks: tuple[int, ...]) -> LinkSpec:
        """Effective per-GPU link for a communication group of ``ranks``."""
        if not ranks:
            raise ValueError("group must contain at least one rank")
        num_gpus = self.num_gpus
        gpus_per_node = self.gpus_per_node
        per_node: dict[int, int] = {}
        for rank in ranks:
            if not 0 <= rank < num_gpus:
                raise ValueError(f"rank {rank} out of range for {num_gpus} GPUs")
            node = rank // gpus_per_node
            per_node[node] = per_node.get(node, 0) + 1
        return self.network.group_link(
            group_gpus_per_node=max(per_node.values()),
            spans_nodes=len(per_node),
            total_nodes=self.num_nodes,
        )

    def link_for_degree(self, degree: int) -> LinkSpec:
        """Effective per-GPU link for a canonically placed group of ``degree``.

        Canonical placement packs the group into contiguous ranks, so a
        group no larger than a node is all-NVLink; larger groups span
        ``ceil(degree / gpus_per_node)`` nodes with ``gpus_per_node``
        members each sharing the uplink.  Equal to
        ``group_link(contiguous_group(0, degree))``.
        """
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        if degree > self.num_gpus:
            raise ValueError(
                f"degree {degree} exceeds cluster size {self.num_gpus}"
            )
        return self.network.group_link(
            group_gpus_per_node=min(degree, self.gpus_per_node),
            spans_nodes=-(-degree // self.gpus_per_node),
            total_nodes=self.num_nodes,
        )

    def hierarchical_link(self) -> LinkSpec:
        """Effective per-GPU link for hierarchical cluster collectives.

        All-Gather/Reduce-Scatter of *replicated or reducible* state
        (ZeRO parameter gathers, gradient reductions) run
        hierarchically in NCCL: the node uplink carries one copy per
        node while NVLink fans it out internally, so each GPU
        effectively sees the full node uplink rather than a 1/8 share.
        All-to-All traffic is pairwise-distinct and does not get this
        benefit — it uses :meth:`group_link`.
        """
        if self.num_nodes == 1:
            return self.network.intra_node
        bandwidth = min(
            self.network.inter_node_bandwidth(self.num_nodes),
            self.network.intra_node.bandwidth,
        )
        return LinkSpec(
            name=f"{self.network.inter_node.name}/hierarchical",
            bandwidth=bandwidth,
            latency=self.network.inter_node.latency,
        )

    def total_memory_budget(self) -> float:
        """Sum of usable device memory across the cluster, bytes."""
        return self.num_gpus * self.gpu.usable_memory_bytes


def standard_cluster(num_gpus: int = 64, gpu: GPUSpec = A100_40GB) -> ClusterSpec:
    """The paper's testbed shape: nodes of 8 GPUs, NVLink + 400G IB.

    Args:
        num_gpus: Total devices; must be a multiple of 8, or at most 8
            (in which case a single partial node is modelled).
        gpu: Device type.
    """
    if num_gpus <= 0:
        raise ValueError(f"num_gpus must be positive, got {num_gpus}")
    if num_gpus <= 8:
        return ClusterSpec(num_nodes=1, gpus_per_node=num_gpus, gpu=gpu)
    if num_gpus % 8 != 0:
        raise ValueError(f"num_gpus must be a multiple of 8, got {num_gpus}")
    return ClusterSpec(num_nodes=num_gpus // 8, gpus_per_node=8, gpu=gpu)
