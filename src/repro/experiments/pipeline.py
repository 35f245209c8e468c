"""Disaggregated solving/training pipeline (paper S5).

The paper overlaps plan solving (CPU) with training (GPU): a solver
service consumes upcoming batches' lengths and fills a plan store; the
trainer reads one plan per step.  :class:`TrainingPipeline` reproduces
that structure with a background thread pool standing in for the
per-node solver services, and reports how much solving was actually
hidden behind (simulated) training.

The pipeline solves with whatever :class:`~repro.core.solver.FlexSPSolver`
it is given, so its prefetch threads plan on a campaign-wide
:class:`~repro.core.solver.SolverPool` when the solver was built with
one of its tenants (``service=pool.client(model, config)``).
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.solver import FlexSPSolver
from repro.core.types import IterationPlan
from repro.data.dataset import SyntheticCorpus
from repro.simulator.executor import IterationExecutor


@dataclass(frozen=True)
class PipelineReport:
    """Outcome of a pipelined training run.

    Attributes:
        iteration_seconds: Simulated training seconds per step.
        solve_seconds: Host seconds each step's solve actually took.
        stall_seconds: Host seconds the trainer had to wait for a plan
            that was not ready (zero when solving is fully overlapped).
        plans: The executed plans, in step order.
    """

    iteration_seconds: tuple[float, ...]
    solve_seconds: tuple[float, ...]
    stall_seconds: tuple[float, ...]
    plans: tuple[IterationPlan, ...]

    @property
    def total_stall(self) -> float:
        return sum(self.stall_seconds)

    @property
    def overlap_fraction(self) -> float:
        """Share of solve time hidden behind training."""
        total_solve = sum(self.solve_seconds)
        if total_solve <= 0:
            return 1.0
        return max(0.0, 1.0 - self.total_stall / total_solve)


class TrainingPipeline:
    """Runs training with solver services prefetching future plans.

    Args:
        solver: Shared FlexSP solver (thread-safe: solve() is pure).
        executor: Simulated iteration executor.
        corpus: Batch stream.
        lookahead: How many future batches the services solve ahead;
            the paper solves "multiple data batches concurrently".
        workers: Concurrent solver threads (the paper uses one service
            per node).
    """

    def __init__(
        self,
        solver: FlexSPSolver,
        executor: IterationExecutor,
        corpus: SyntheticCorpus,
        lookahead: int = 2,
        workers: int = 2,
    ) -> None:
        if lookahead < 0:
            raise ValueError(f"lookahead must be non-negative, got {lookahead}")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.solver = solver
        self.executor = executor
        self.corpus = corpus
        self.lookahead = lookahead
        self.workers = workers

    def _submit(self, pool: ThreadPoolExecutor, step: int) -> Future:
        lengths = self.corpus.batch(step).lengths

        def solve() -> tuple[IterationPlan, float]:
            start = time.perf_counter()
            plan = self.solver.solve(lengths)
            return plan, time.perf_counter() - start

        return pool.submit(solve)

    def run(self, num_steps: int) -> PipelineReport:
        """Train ``num_steps`` iterations with prefetched plans."""
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        iteration_seconds: list[float] = []
        solve_seconds: list[float] = []
        stall_seconds: list[float] = []
        plans: list[IterationPlan] = []

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures: dict[int, Future] = {}
            for step in range(min(1 + self.lookahead, num_steps)):
                futures[step] = self._submit(pool, step)
            for step in range(num_steps):
                wait_start = time.perf_counter()
                plan, solved_in = futures.pop(step).result()
                stall = time.perf_counter() - wait_start
                next_step = step + 1 + self.lookahead
                if next_step < num_steps and next_step not in futures:
                    futures[next_step] = self._submit(pool, next_step)
                result = self.executor.run(plan)
                iteration_seconds.append(result.iteration_seconds)
                solve_seconds.append(solved_in)
                stall_seconds.append(stall)
                plans.append(plan)

        return PipelineReport(
            iteration_seconds=tuple(iteration_seconds),
            solve_seconds=tuple(solve_seconds),
            stall_seconds=tuple(stall_seconds),
            plans=tuple(plans),
        )
