"""Unified training-system wrappers.

Every evaluated system exposes the same interface — take a global
batch of sequence lengths, return an :class:`IterationOutcome` — so
the runner and benchmarks can sweep systems uniformly:

* :class:`FlexSPSystem` — the paper's contribution: solver + executor.
* :class:`DeepSpeedUlyssesSystem` — static homogeneous SP + ZeRO-3.
* :class:`FlexSPBatchAdaSystem` — per-batch adaptive homogeneous SP.
* :class:`MegatronLMSystem` — tuned TP/CP/DP with ring attention.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol

from repro.baselines.batch_adaptive import choose_degree_for_batch
from repro.baselines.homogeneous import homogeneous_plan
from repro.baselines.megatron import MegatronStrategy, megatron_iteration
from repro.baselines.tuner import choose_static_degree, tune_megatron
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.core.types import IterationPlan
from repro.cost.model import CostModel
from repro.cost.profiler import fit_cost_model
from repro.experiments.workloads import Workload
from repro.simulator.executor import IterationExecutor
from repro.simulator.trace import PhaseKind

#: Probe batches used to tune the static baselines (the paper tunes
#: against a handful of representative batches, Appendix B.2).
DEFAULT_PROBE_BATCHES = 2


def _probe_batches(workload: Workload) -> list[tuple[int, ...]]:
    """The tuners' probe lengths: the workload's first corpus
    batches."""
    corpus = workload.corpus()
    return [
        corpus.batch(step).lengths for step in range(DEFAULT_PROBE_BATCHES)
    ]


def _workload_cost_model(
    workload: Workload, cost_model: CostModel | None
) -> CostModel:
    """The injected cost model, or a freshly fitted one.

    Sweeps fit one model per workload and share it across the systems
    of a cell; standalone construction keeps the old fit-per-system
    behaviour.
    """
    if cost_model is not None:
        return cost_model
    return fit_cost_model(
        workload.model_at_context, workload.cluster, workload.checkpointing
    )


@dataclass(frozen=True)
class IterationOutcome:
    """One iteration's measurements, system-agnostic.

    Attributes:
        iteration_seconds: Simulated wall-clock of the training step.
        comm_seconds: Exposed communication (All-to-All for SP systems;
            TP + CP + gradient traffic for Megatron).
        alltoall_seconds: All-to-All component only (zero for Megatron).
        solve_seconds: Host-side planning time (FlexSP's solver; ~0 for
            static baselines).
        num_microbatches: Gradient-accumulation depth used.
        plan: The executed plan, when the system produces one.
    """

    iteration_seconds: float
    comm_seconds: float
    alltoall_seconds: float
    solve_seconds: float
    num_microbatches: int
    plan: IterationPlan | None = None

    @property
    def comm_fraction(self) -> float:
        if self.iteration_seconds <= 0:
            return 0.0
        return self.comm_seconds / self.iteration_seconds

    @property
    def alltoall_fraction(self) -> float:
        if self.iteration_seconds <= 0:
            return 0.0
        return self.alltoall_seconds / self.iteration_seconds


class TrainingSystem(Protocol):
    """A system that can execute training iterations on a workload."""

    name: str

    def run_iteration(self, lengths: tuple[int, ...]) -> IterationOutcome: ...


def _executor_outcome(
    executor: IterationExecutor,
    plan: IterationPlan,
    solve_seconds: float,
) -> IterationOutcome:
    result = executor.run(plan)
    alltoall = result.trace.alltoall_seconds()
    comm = alltoall + result.trace.wall_seconds(PhaseKind.GRAD_SYNC)
    return IterationOutcome(
        iteration_seconds=result.iteration_seconds,
        comm_seconds=comm,
        alltoall_seconds=alltoall,
        solve_seconds=solve_seconds,
        num_microbatches=plan.num_microbatches,
        plan=plan,
    )


class FlexSPSystem:
    """The paper's system: heterogeneity-adaptive SP (solver + executor).

    The solver runs on CPUs and overlaps with training in the paper
    (S5); ``solve_seconds`` is therefore reported separately from the
    iteration time rather than added to it.

    The wrapped :class:`FlexSPSolver` persists across iterations, so
    its plan cache warms over the workload.  With ``solver_service`` —
    a tenant of a :class:`~repro.core.solver.SolverPool`, such as a
    sweep's shared pool — the solver plans on that pool, which its
    owner closes; without one it plans in-process.
    """

    def __init__(
        self,
        workload: Workload,
        solver_config: SolverConfig | None = None,
        cost_model: CostModel | None = None,
        solver_service=None,
    ):
        self.name = "FlexSP"
        self.workload = workload
        self.cost_model = _workload_cost_model(workload, cost_model)
        self.solver = FlexSPSolver(
            self.cost_model, solver_config, service=solver_service
        )
        self.executor = IterationExecutor(
            config=workload.model_at_context,
            cluster=workload.cluster,
            checkpointing=workload.checkpointing,
        )

    def plan(self, lengths: tuple[int, ...]) -> tuple[IterationPlan, float]:
        """Solve for a plan, returning it with the solve wall-time."""
        start = time.perf_counter()
        plan = self.solver.solve(tuple(lengths))
        return plan, time.perf_counter() - start

    def run_iteration(self, lengths: tuple[int, ...]) -> IterationOutcome:
        plan, solve_seconds = self.plan(lengths)
        return _executor_outcome(self.executor, plan, solve_seconds)


class DeepSpeedUlyssesSystem:
    """Static homogeneous Ulysses SP + ZeRO-3 (the DeepSpeed baseline).

    The static degree is tuned once per workload against the task's
    worst case, exactly as the paper tunes its baselines.
    """

    def __init__(
        self,
        workload: Workload,
        sp_degree: int | None = None,
        cost_model: CostModel | None = None,
    ):
        self.name = "DeepSpeed"
        self.workload = workload
        self.cost_model = _workload_cost_model(workload, cost_model)
        if sp_degree is None:
            sp_degree = choose_static_degree(
                _probe_batches(workload),
                self.cost_model,
                workload.max_context,
            )
        self.sp_degree = sp_degree
        self.executor = IterationExecutor(
            config=workload.model_at_context,
            cluster=workload.cluster,
            checkpointing=workload.checkpointing,
        )

    def run_iteration(self, lengths: tuple[int, ...]) -> IterationOutcome:
        plan = homogeneous_plan(tuple(lengths), self.cost_model, self.sp_degree)
        return _executor_outcome(self.executor, plan, solve_seconds=0.0)


class FlexSPBatchAdaSystem:
    """FlexSP-BatchAda: best homogeneous SP degree per batch (S6.1)."""

    def __init__(
        self,
        workload: Workload,
        cost_model: CostModel | None = None,
    ):
        self.name = "FlexSP-BatchAda"
        self.workload = workload
        self.cost_model = _workload_cost_model(workload, cost_model)
        self.executor = IterationExecutor(
            config=workload.model_at_context,
            cluster=workload.cluster,
            checkpointing=workload.checkpointing,
        )

    def run_iteration(self, lengths: tuple[int, ...]) -> IterationOutcome:
        start = time.perf_counter()
        degree, __ = choose_degree_for_batch(tuple(lengths), self.cost_model)
        solve_seconds = time.perf_counter() - start
        plan = homogeneous_plan(tuple(lengths), self.cost_model, degree)
        return _executor_outcome(self.executor, plan, solve_seconds)


class MegatronLMSystem:
    """Tuned Megatron-LM baseline: TP (+SP) x CP x DP(ZeRO-1)."""

    def __init__(
        self,
        workload: Workload,
        strategy: MegatronStrategy | None = None,
    ):
        self.name = "Megatron-LM"
        self.workload = workload
        if strategy is None:
            strategy = tune_megatron(
                _probe_batches(workload),
                workload.model_at_context,
                workload.cluster,
                workload.max_context,
                workload.checkpointing,
            )
        self.strategy = strategy

    def run_iteration(self, lengths: tuple[int, ...]) -> IterationOutcome:
        outcome = megatron_iteration(
            tuple(lengths),
            self.workload.model_at_context,
            self.workload.cluster,
            self.strategy,
            self.workload.checkpointing,
            pack_target=self.workload.max_context,
        )
        return IterationOutcome(
            iteration_seconds=outcome.iteration_seconds,
            comm_seconds=outcome.comm_seconds,
            alltoall_seconds=0.0,
            solve_seconds=0.0,
            num_microbatches=outcome.num_microbatches,
            plan=None,
        )


#: System constructors by short name.
SYSTEM_BUILDERS = {
    "flexsp": FlexSPSystem,
    "deepspeed": DeepSpeedUlyssesSystem,
    "batchada": FlexSPBatchAdaSystem,
    "megatron": MegatronLMSystem,
}


def build_system(name: str, workload: Workload, **kwargs) -> TrainingSystem:
    """Instantiate a system by short name for the given workload."""
    try:
        builder = SYSTEM_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; options: {sorted(SYSTEM_BUILDERS)}"
        ) from None
    return builder(workload, **kwargs)
