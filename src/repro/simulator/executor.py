"""Iteration executor: runs plans on the simulated cluster.

The executor is the stand-in for the paper's PyTorch/NCCL runtime
engine.  It takes an :class:`repro.core.types.IterationPlan`, lays the
micro-batches out on one timeline (sequential micro-batches,
concurrent SP groups, per-group compute then All-to-All then exposed
ZeRO gathers; step-level gradient sync and optimizer at the end),
charges ground-truth timings through the batched
:class:`~repro.simulator.timing.TimingTable` kernels, manages
communication groups through the hot-switching pool, and returns the
wall-clock result plus a full trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.groups import CommGroupPool
from repro.cluster.topology import ClusterSpec
from repro.core.types import IterationPlan
from repro.model.config import ModelConfig
from repro.model.memory import ActivationCheckpointing
from repro.simulator.timing import (
    gradient_sync_time,
    optimizer_step_time,
    timing_table,
)
from repro.simulator.trace import PhaseKind, TraceRecorder


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one training iteration.

    Attributes:
        iteration_seconds: Wall-clock of the step (excluding one-time
            communicator creation, which is amortised across training).
        microbatch_seconds: Per-micro-batch makespans, in order.
        group_creation_seconds: One-time communicator setup incurred by
            this iteration (zero once the pool is warm).
        trace: Full phase trace for breakdowns.
    """

    iteration_seconds: float
    microbatch_seconds: tuple[float, ...]
    group_creation_seconds: float
    trace: TraceRecorder

    @property
    def alltoall_fraction(self) -> float:
        return self.trace.alltoall_fraction()

    @property
    def alltoall_seconds(self) -> float:
        return self.trace.alltoall_seconds()

    def tokens_per_second(self, tokens: int) -> float:
        if self.iteration_seconds <= 0:
            raise ValueError("iteration took no time; cannot compute throughput")
        return tokens / self.iteration_seconds


@dataclass
class IterationExecutor:
    """Executes iteration plans for one (model, cluster, policy) triple.

    Attributes:
        config: Model architecture being trained.
        cluster: Simulated hardware.
        checkpointing: Activation checkpointing policy in force.
        pool: Communicator pool; persists across iterations so group
            creation is only charged on first use (hot switching).
    """

    config: ModelConfig
    cluster: ClusterSpec
    checkpointing: ActivationCheckpointing = ActivationCheckpointing.NONE
    pool: CommGroupPool = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.pool is None:
            self.pool = CommGroupPool(cluster=self.cluster)
        self._link_cache: dict[tuple[int, ...], object] = {}

    def _group_link(self, ranks: tuple[int, ...]):
        """Memoised topology link lookup (plans revisit the same groups)."""
        link = self._link_cache.get(ranks)
        if link is None:
            link = self.cluster.group_link(ranks)
            self._link_cache[ranks] = link
        return link

    def _plan_group_times(
        self, plan: IterationPlan
    ) -> list[list[tuple[float, float, float, float]]]:
        """(compute, alltoall, exposed zero-gather, creation) per group,
        per micro-batch.

        Every group of every micro-batch is charged through the
        :class:`TimingTable` kernels in one shot.
        """
        groups = []
        creations = []
        for mb in plan.microbatches:
            for g in mb.groups:
                __, creation = self.pool.get(g.device_ranks)
                groups.append(g)
                creations.append(creation)
        links = [self._group_link(g.device_ranks) for g in groups]
        table = timing_table(self.config, self.cluster, self.checkpointing)
        compute, alltoall, gather = table.group_times(groups, links)
        rows = list(
            zip(compute.tolist(), alltoall.tolist(), gather.tolist(), creations)
        )
        times: list[list[tuple[float, float, float, float]]] = []
        cursor = 0
        for mb in plan.microbatches:
            end = cursor + len(mb.groups)
            times.append(rows[cursor:end])
            cursor = end
        return times

    def run(self, plan: IterationPlan) -> ExecutionResult:
        """Execute ``plan`` and return timing plus trace."""
        num_gpus = self.cluster.num_gpus
        trace = TraceRecorder(total_devices=num_gpus)
        record = trace.record
        microbatch_seconds: list[float] = []
        creation_total = 0.0

        plan_times = self._plan_group_times(plan)
        clock = 0.0
        for index, (mb, group_times) in enumerate(
            zip(plan.microbatches, plan_times)
        ):
            makespan = 0.0
            busy = []
            for g, t in zip(mb.groups, group_times):
                compute, alltoall, gather, creation = t
                degree = g.degree
                creation_total += creation
                record(PhaseKind.COMPUTE, clock, compute, degree, index, degree)
                record(
                    PhaseKind.ALLTOALL,
                    clock + compute,
                    alltoall,
                    degree,
                    index,
                    degree,
                )
                if gather > 0:
                    record(
                        PhaseKind.ZERO_GATHER,
                        clock + compute + alltoall,
                        gather,
                        degree,
                        index,
                        degree,
                    )
                makespan = max(makespan, compute + alltoall + gather)
                # sum(), not the chained adds above: Python 3.12's
                # compensated float sum can round them differently.
                busy.append(sum(t[:3]))

            # Stragglers leave faster groups and unassigned devices idle
            # until the micro-batch barrier.
            used_devices = 0
            for g, group_busy in zip(mb.groups, busy):
                degree = g.degree
                used_devices += degree
                idle = makespan - group_busy
                if idle > 1e-12:
                    record(
                        PhaseKind.IDLE,
                        clock + group_busy,
                        idle,
                        degree,
                        index,
                        degree,
                    )
            spare = num_gpus - used_devices
            if spare > 0 and makespan > 0:
                record(PhaseKind.IDLE, clock, makespan, spare, index)

            clock += makespan
            microbatch_seconds.append(makespan)

        grad_sync = gradient_sync_time(self.config, self.cluster)
        record(PhaseKind.GRAD_SYNC, clock, grad_sync, num_gpus)
        clock += grad_sync
        optim = optimizer_step_time(self.config, self.cluster)
        record(PhaseKind.OPTIMIZER, clock, optim, num_gpus)
        clock += optim
        if creation_total > 0:
            record(PhaseKind.GROUP_CREATE, clock, creation_total, num_gpus)

        return ExecutionResult(
            iteration_seconds=clock,
            microbatch_seconds=tuple(microbatch_seconds),
            group_creation_seconds=creation_total,
            trace=trace,
        )
