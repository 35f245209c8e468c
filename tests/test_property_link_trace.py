"""Link pricing and trace recording == their reference implementations.

``ClusterSpec.group_link`` counts a group's ranks per node in one pass,
and ``ClusterSpec.link_for_degree`` prices the canonical block
``[0, degree)`` from the degree alone.  :func:`reference_group_link`
below is the per-rank scan both replaced (``node_of`` per rank, then a
per-node max), and :func:`reference_link_for_degree` lists the block and
scans it.  The tests compare both the links and the arguments handed to
``NetworkSpec.group_link``: every group spanning more than one node
gets the same uplink share whatever the count, so only the arguments
show a wrong node count above one.

``TraceRecorder`` keeps each phase as a plain row and builds
:class:`TracePhase` objects only on request.  :class:`ReferenceRecorder`
stores ``TracePhase`` objects and sums them the way the recorder did,
with the "Others" kinds in :class:`PhaseKind` declaration order.

Every comparison is exact: ``==`` on links and phases, ``float.hex`` on
sums, and the same exception type and message on bad input.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.network import NetworkSpec
from repro.cluster.topology import ClusterSpec, standard_cluster
from repro.model.config import GPT_7B, GPT_13B
from repro.model.memory import ActivationCheckpointing
from repro.simulator.executor import IterationExecutor
from repro.simulator.trace import PhaseKind, TracePhase, TraceRecorder
from test_property_timing_batch import _random_plan

# ----------------------------------------------------------------------
# Link pricing
# ----------------------------------------------------------------------


def reference_group_link(cluster: ClusterSpec, ranks: tuple[int, ...]):
    """The per-rank scan: ``node_of`` per rank, then a per-node max."""
    if not ranks:
        raise ValueError("group must contain at least one rank")
    nodes = [cluster.node_of(r) for r in ranks]
    spans = len(set(nodes))
    if spans == 1:
        return cluster.network.group_link(
            group_gpus_per_node=len(ranks),
            spans_nodes=1,
            total_nodes=cluster.num_nodes,
        )
    per_node = max(nodes.count(node) for node in set(nodes))
    return cluster.network.group_link(
        group_gpus_per_node=per_node,
        spans_nodes=spans,
        total_nodes=cluster.num_nodes,
    )


def reference_link_for_degree(cluster: ClusterSpec, degree: int):
    """Scan the listed canonical block ``[0, degree)``."""
    if degree <= 0:
        raise ValueError(f"degree must be positive, got {degree}")
    if degree > cluster.num_gpus:
        raise ValueError(f"degree {degree} exceeds cluster size {cluster.num_gpus}")
    return reference_group_link(cluster, cluster.contiguous_group(0, degree))


def _outcome(fn, *args):
    """A call's value, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


@pytest.fixture
def priced(monkeypatch):
    """``priced(fn, *args)``: the link ``fn(*args)`` returns, with the
    ``(group_gpus_per_node, spans_nodes, total_nodes)`` it handed
    ``NetworkSpec.group_link``."""
    calls: list[tuple[int, int, int]] = []
    group_link = NetworkSpec.group_link

    def spy(self, group_gpus_per_node, spans_nodes, total_nodes):
        calls.append((group_gpus_per_node, spans_nodes, total_nodes))
        return group_link(self, group_gpus_per_node, spans_nodes, total_nodes)

    monkeypatch.setattr(NetworkSpec, "group_link", spy)

    def price(fn, *args):
        calls.clear()
        link = fn(*args)
        return link, tuple(calls)

    return price


def _cluster_id(cluster: ClusterSpec) -> str:
    return f"{cluster.num_nodes}x{cluster.gpus_per_node}"


#: Single partial nodes of 1-16 GPUs, then every node count up to 256
#: GPUs at 4, 8 and 16 GPUs per node.
CLUSTER_FAMILIES = {
    "single-node": [ClusterSpec(num_nodes=1, gpus_per_node=g) for g in range(1, 17)],
    **{
        f"{g}-per-node": [
            ClusterSpec(num_nodes=n, gpus_per_node=g) for n in range(2, 256 // g + 1)
        ]
        for g in (4, 8, 16)
    },
}


class TestLinkPricing:
    @pytest.mark.parametrize("family", sorted(CLUSTER_FAMILIES))
    def test_every_degree_of_every_cluster(self, priced, family):
        for cluster in CLUSTER_FAMILIES[family]:
            for degree in range(1, cluster.num_gpus + 1):
                expected = priced(reference_link_for_degree, cluster, degree)
                assert priced(cluster.link_for_degree, degree) == expected, (
                    _cluster_id(cluster),
                    degree,
                )
                block = cluster.contiguous_group(0, degree)
                assert priced(cluster.group_link, block) == expected

    @pytest.mark.parametrize(
        "cluster",
        [
            ClusterSpec(num_nodes=1, gpus_per_node=6),
            ClusterSpec(num_nodes=3, gpus_per_node=4),
            ClusterSpec(num_nodes=8, gpus_per_node=8),
            ClusterSpec(num_nodes=5, gpus_per_node=16),
            ClusterSpec(num_nodes=32, gpus_per_node=8),
        ],
        ids=_cluster_id,
    )
    def test_random_rank_sets(self, priced, cluster):
        rng = random.Random(cluster.num_gpus * 31 + cluster.gpus_per_node)
        n = cluster.num_gpus
        for __ in range(400):
            size = rng.randint(1, n)
            shape = rng.randrange(4)
            if shape == 0:  # unsorted, non-contiguous
                ranks = rng.sample(range(n), size)
            elif shape == 1:  # a contiguous block at any offset, shuffled
                start = rng.randrange(n - size + 1)
                ranks = list(range(start, start + size))
                rng.shuffle(ranks)
            elif shape == 2:  # straddling a node boundary
                boundary = cluster.gpus_per_node * rng.randrange(
                    1, cluster.num_nodes + 1
                )
                low = max(0, boundary - rng.randint(1, size))
                ranks = list(range(low, min(n, low + size)))
            else:  # repeated ranks
                ranks = [rng.randrange(n) for __ in range(size)]
            ranks = tuple(ranks)
            assert priced(cluster.group_link, ranks) == priced(
                reference_group_link, cluster, ranks
            ), ranks

    @pytest.mark.parametrize(
        "cluster",
        [ClusterSpec(num_nodes=1, gpus_per_node=4), standard_cluster(64)],
        ids=_cluster_id,
    )
    def test_errors(self, cluster):
        n = cluster.num_gpus
        bad_ranks = [(), (-1,), (n,), (0, n + 3), (1, -2, n), (n, -1), (0, 1, 2 * n)]
        for ranks in bad_ranks:
            got = _outcome(cluster.group_link, ranks)
            assert isinstance(got, tuple) and got[0] is ValueError, ranks
            assert got == _outcome(reference_group_link, cluster, ranks)
        for degree in (0, -1, -8, n + 1, 2 * n):
            got = _outcome(cluster.link_for_degree, degree)
            assert isinstance(got, tuple) and got[0] is ValueError, degree
            assert got == _outcome(reference_link_for_degree, cluster, degree)


# ----------------------------------------------------------------------
# Trace recording
# ----------------------------------------------------------------------


class ReferenceRecorder:
    """A recorder that stores :class:`TracePhase` objects."""

    def __init__(self, total_devices: int) -> None:
        self.total_devices = total_devices
        self.phases: list[TracePhase] = []

    def record(self, phase: TracePhase) -> None:
        if phase.devices > self.total_devices:
            raise ValueError(
                f"phase uses {phase.devices} devices; cluster has "
                f"{self.total_devices}"
            )
        self.phases.append(phase)

    def wall_seconds(self, kind: PhaseKind) -> float:
        return sum(
            p.device_seconds for p in self.phases if p.kind is kind
        ) / self.total_devices

    def alltoall_seconds(self) -> float:
        return self.wall_seconds(PhaseKind.ALLTOALL)

    def alltoall_fraction(self) -> float:
        others = (
            PhaseKind.COMPUTE,
            PhaseKind.ZERO_GATHER,
            PhaseKind.GRAD_SYNC,
            PhaseKind.OPTIMIZER,
            PhaseKind.IDLE,
        )
        alltoall = self.alltoall_seconds()
        total = alltoall + sum(self.wall_seconds(k) for k in others)
        if total <= 0:
            return 0.0
        return alltoall / total

    def breakdown(self) -> dict[str, float]:
        return {kind.value: self.wall_seconds(kind) for kind in PhaseKind}

    def phases_of_microbatch(self, index: int) -> list[TracePhase]:
        return [p for p in self.phases if p.microbatch == index]

    def end_time(self) -> float:
        if not self.phases:
            return 0.0
        return max(p.end for p in self.phases)


@pytest.fixture
def reference_of(monkeypatch):
    """Tee every ``TraceRecorder.record`` call into a reference recorder;
    returns the lookup from a recorder to its reference."""
    teed: dict[int, tuple[TraceRecorder, ReferenceRecorder]] = {}
    record = TraceRecorder.record

    def tee(self, *args, **kwargs):
        record(self, *args, **kwargs)
        # The recorder is kept alive with its reference, so its id is
        # never reused by a later recorder.
        __, reference = teed.setdefault(
            id(self), (self, ReferenceRecorder(self.total_devices))
        )
        reference.record(TracePhase(*args, **kwargs))

    monkeypatch.setattr(TraceRecorder, "record", tee)
    return lambda trace: teed[id(trace)][1]


def _assert_same(trace: TraceRecorder, reference: ReferenceRecorder) -> None:
    for kind in PhaseKind:
        assert trace.wall_seconds(kind).hex() == reference.wall_seconds(kind).hex()
    assert {k: v.hex() for k, v in trace.breakdown().items()} == {
        k: v.hex() for k, v in reference.breakdown().items()
    }
    assert trace.alltoall_seconds().hex() == reference.alltoall_seconds().hex()
    assert trace.alltoall_fraction().hex() == reference.alltoall_fraction().hex()
    assert trace.end_time().hex() == reference.end_time().hex()
    assert trace.phases == reference.phases
    indices = {p.microbatch for p in reference.phases} | {-1, 99}
    for index in indices:
        assert trace.phases_of_microbatch(index) == reference.phases_of_microbatch(
            index
        )


class TestTraceRecording:
    @pytest.mark.parametrize("num_gpus", [8, 16, 64])
    @pytest.mark.parametrize(
        "checkpointing",
        [ActivationCheckpointing.NONE, ActivationCheckpointing.SELECTIVE],
        ids=["none", "selective"],
    )
    def test_executor_traces(self, reference_of, num_gpus, checkpointing):
        cluster = standard_cluster(num_gpus)
        for seed, config in enumerate((GPT_7B, GPT_13B) * 10):
            rng = random.Random(1000 * num_gpus + seed)
            executor = IterationExecutor(
                config=config.with_max_context(64 * 1024),
                cluster=cluster,
                checkpointing=checkpointing,
            )
            # Two runs on one executor: the second hits its warm
            # communicator pool, so it records no creation phase.
            plan = _random_plan(rng, num_gpus)
            for result in (executor.run(plan), executor.run(plan)):
                reference = reference_of(result.trace)
                assert len(reference.phases) >= 3
                _assert_same(result.trace, reference)

    def test_empty_trace(self):
        _assert_same(TraceRecorder(total_devices=4), ReferenceRecorder(4))

    @pytest.mark.parametrize(
        "fields",
        [
            (PhaseKind.COMPUTE, 0.0, -1.0, 4),  # negative duration
            (PhaseKind.IDLE, 1.0, -0.5, 16),  # ... checked before devices
            (PhaseKind.ALLTOALL, 0.0, 1.0, 0),  # zero devices
            (PhaseKind.ALLTOALL, 0.0, 1.0, -2),
            (PhaseKind.GRAD_SYNC, 0.0, 1.0, 9),  # more than the cluster
            (PhaseKind.COMPUTE, 0.0, 1.0, 16, 3, 16),
        ],
    )
    def test_recording_errors(self, fields):
        def reference(*fields):
            ReferenceRecorder(8).record(TracePhase(*fields))

        got = _outcome(TraceRecorder(total_devices=8).record, *fields)
        assert isinstance(got, tuple) and got[0] is ValueError
        assert got == _outcome(reference, *fields)
