"""Parallel experiment-sweep runner.

The paper's evaluation is a grid of independent cells — a (system,
workload) pair measured over a few global batches (Fig. 4's 18 cells,
Fig. 6's cluster- and context-scaling slices, Table 1's capacity
frontier, Fig. 7's ablation matrix, Fig. 8's weak scaling).
Regenerating the grids one benchmark at a time repeats a lot of work:
every system re-fits the same cost model, re-tunes the same baselines,
re-samples the same corpus, and re-solves the same FlexSP plans.

:class:`SweepRunner` treats the whole campaign as one sweep:

* **Shared per-workload state.**  A :class:`WorkloadContext` memoises
  (keyed by :func:`workload_signature`) the fitted cost model, the
  sampled corpus batches, the baseline tuning results and the
  constructed systems — including FlexSP's persistent solver, whose
  plan cache therefore stays warm across cells *and* across repeated
  ``run()`` calls (trajectory regeneration).
* **Cell dedup.**  Grids overlap (Fig. 6's 192K context point is a
  Fig. 4 cell); duplicate cells are measured once and fanned back out.
* **Cell variants.**  A cell may carry a :attr:`SweepCell.variant` —
  hashable system-construction overrides — so parameterised artefacts
  (Table 1's fixed SP degrees, Fig. 7's solver ablations) ride the
  same grid machinery instead of ad-hoc benchmark loops.
* **Persistent cross-process cache.**  With a
  :class:`~repro.core.cache_store.CacheStore`, each context restores
  spilled cost-model fits, tuner memos and plan-cache entries on
  construction and spills them back after a pass, so a *new process*
  (CI re-run, next regeneration) starts warm with bit-identical
  metrics.
* **One shared solver pool.**  With ``solver_workers > 1`` (or a
  ``solver_config.workers > 1``) the runner owns a single
  :class:`~repro.core.solver.SolverPool` whose tenant clients are
  injected into every workload's :class:`FlexSPSolver` — the
  per-workload solvers no longer nest their own process pools.
* **Workload-sharded work-stealing fan-out.**  With ``workers > 1``
  the unique cells are grouped into *shards* by
  :func:`workload_signature` and affinity-dispatched over persistent
  single-worker pool slots (one ``ProcessPoolExecutor`` per slot, so
  a shard's cells land on exactly one worker process): each
  workload's context — cost-model fit, corpus sample, tuner memos,
  plan cache — is built or store-restored *once*, in the worker that
  owns the shard.  An idle slot steals cells from the tail of the
  heaviest remaining shard, paying the duplicate context build only
  when a steal actually happens, so long-tail cells no longer
  serialize behind a static partition.  Workers keep their context
  caches alive across cells and sweeps, the same architecture as
  :class:`repro.core.solver.SolverService`, and share one solver pool
  and one cache store across all of their workloads.  Fan-out passes
  run the same cold-batching prewarm as serial ones: pending shapes
  are probed in the parent (side-effect-free), planned once through
  the shared :class:`~repro.core.solver.SolverPool`, and the seeded
  state reaches the shard workers via the store (when configured) or
  a shipped pre-seed snapshot (when not).
* **Per-worker telemetry.**  Every pass reports
  :class:`WorkerTelemetry` rows — cells run, steals, context builds,
  context build/restore seconds and the solve-stage breakdown —
  shipped home beside the store counters the way
  :mod:`repro.core.stage_timing` ships solver stages, and surfaced by
  ``python -m repro.bench --campaign ... --profile``.
* **Batched spills.**  Workers accumulate dirty store state and
  merge-save once per drain (end of a :meth:`SweepRunner.run` pass,
  and guaranteed at worker exit via :func:`repro.core.pools.
  register_worker_exit_flush`) instead of after every cell;
  ``spill_batch`` restores per-cell spilling (``1``, the write-
  amplification baseline) or any intermediate cadence.  Store write
  amplification (writes / cells measured) is surfaced per cell as
  :attr:`CellMetrics.store_writes` and per pass as
  :attr:`SweepResult.store_stats`.
* **Fault injection & graduated recovery.**  The executor visits the
  :mod:`repro.core.faults` injection points (``cell``, ``spawn``,
  ``drain``, ``prewarm``; the store and solver layers add ``spill``,
  ``lock``, ``prune``, ``plan``) and survives what they throw at it
  with a graduated escalation instead of the old all-or-nothing pass
  retry: a cell whose slot dies is **resubmitted** with deterministic
  bounded backoff; the dead slot's pool is **restarted** lazily; a
  slot that keeps dying is **retired**, its unfinished shards
  reassigned to surviving slots through the same
  :class:`_ShardScheduler` stealing machinery; and when no slots
  survive (or a cell exhausts its retries) the work **degrades to
  serial in-process execution** — a campaign finishes on the parent
  alone if it must.  A watchdog kills and resubmits hung flights
  (``watchdog_seconds``).  Recovery moves only *where and when* a
  cell runs: results stay bit-identical to the fault-free serial
  pass, and the whole story is accounted in
  :attr:`SweepResult.fault_stats` (:class:`~repro.core.faults.
  FaultStats`).

Results are plain :class:`CellMetrics` (no plans or traces), so they
are cheap to ship across the pool and serialise into the
``BENCH_e2e.json`` / ``BENCH_campaign.json`` trajectories.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core import faults, pools, stage_timing
from repro.core.cache_store import (
    CacheStore,
    StoreStats,
    WorkloadState,
    context_digest,
    entries_from_cache,
    preload_cache,
)
from repro.core.faults import FaultSchedule, FaultStats
from repro.core.planner import PlanInfeasibleError
from repro.core.solver import SolverConfig, SolverPool
from repro.core.types import InfeasibleWorkloadError
from repro.cost.model import CostModel
from repro.cost.profiler import fit_cost_model
from repro.data.dataset import GlobalBatch
from repro.experiments.runner import RunResult, run_system
from repro.experiments.systems import (
    SYSTEM_BUILDERS,
    DeepSpeedUlyssesSystem,
    FlexSPBatchAdaSystem,
    FlexSPSystem,
    MegatronLMSystem,
    TrainingSystem,
)
from repro.experiments.workloads import Workload

#: Probe batches used to tune the static baselines (the paper tunes
#: against a handful of representative batches, Appendix B.2).
DEFAULT_PROBE_BATCHES = 2

#: Variant keys each system accepts (see :attr:`SweepCell.variant`).
VARIANT_KEYS = {
    "flexsp": ("sort_sequences", "bucketing"),
    "deepspeed": ("sp_degree",),
    "batchada": (),
    "megatron": (),
}


def workload_signature(workload: Workload) -> tuple:
    """Hashable identity of a workload's full configuration.

    Two workloads with equal signatures produce identical corpora,
    cost models and tuning results, so every per-workload memo in the
    sweep — and every :class:`~repro.core.cache_store.CacheStore`
    file — is keyed on this.  Fields are enumerated dynamically so a
    field added to :class:`Workload` later can never be silently left
    out of the key.
    """
    return tuple(
        getattr(workload, field.name) for field in dataclasses.fields(workload)
    )


@dataclass(frozen=True)
class SweepCell:
    """One independent measurement of the evaluation grid.

    Attributes:
        system: Short system name (a :data:`SYSTEM_BUILDERS` key).
        workload: Evaluation configuration.
        num_iterations: Consecutive global batches to measure.
        start_step: First corpus step of the measured window.
        variant: System-construction overrides as sorted ``(key,
            value)`` pairs — e.g. ``(("sp_degree", 8),)`` pins a
            Table 1 degree, ``(("bucketing", "naive"),)`` selects a
            Fig. 7 ablation.  Hashable, so variant cells dedup like
            plain ones.  Valid keys per system: :data:`VARIANT_KEYS`.
    """

    system: str
    workload: Workload
    num_iterations: int = 1
    start_step: int = 0
    variant: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.system not in SYSTEM_BUILDERS:
            raise ValueError(
                f"unknown system {self.system!r}; options: "
                f"{sorted(SYSTEM_BUILDERS)}"
            )
        if self.num_iterations <= 0:
            raise ValueError(
                f"num_iterations must be positive, got {self.num_iterations}"
            )
        if self.start_step < 0:
            raise ValueError(
                f"start_step must be non-negative, got {self.start_step}"
            )
        # Normalise the variant so equal override sets written in any
        # order dedup to one cell.
        variant = tuple(sorted(tuple(self.variant), key=lambda kv: kv[0]))
        allowed = VARIANT_KEYS[self.system]
        for key, value in variant:
            if key not in allowed:
                raise ValueError(
                    f"system {self.system!r} does not accept variant key "
                    f"{key!r}; options: {sorted(allowed)}"
                )
            # Values are validated here, eagerly: a bad value swallowed
            # later by the infeasibility handling would masquerade as a
            # fabricated OOM cell in the generated table.
            if key == "bucketing" and value not in ("optimal", "naive", "none"):
                raise ValueError(f"unknown bucketing variant {value!r}")
            if key == "sort_sequences" and not isinstance(value, bool):
                raise ValueError(
                    f"sort_sequences variant must be a bool, got {value!r}"
                )
            if key == "sp_degree" and (
                not isinstance(value, int)
                or value <= 0
                or value & (value - 1)
            ):
                raise ValueError(
                    f"sp_degree variant must be a positive power of two, "
                    f"got {value!r}"
                )
        object.__setattr__(self, "variant", variant)

    @property
    def variant_label(self) -> str:
        """Human-readable variant tag, e.g. ``"sp_degree=8"``."""
        return ",".join(f"{k}={v}" for k, v in self.variant)


@dataclass(frozen=True)
class CellMetrics:
    """The paper's per-cell metrics, detached from plans and traces.

    ``mean_solve_seconds`` is host wall-clock (non-deterministic); the
    other fields are pure functions of the simulated execution and are
    bit-identical however the cell is computed (scalar or vectorized,
    in-process or on a pool worker, cold or restored from a
    :class:`~repro.core.cache_store.CacheStore`).

    ``checkpointing`` surfaces the workload's chosen activation
    checkpointing policy (``"none"`` / ``"selective"`` / ``"full"``):
    long-context cells escalate the policy on small clusters, and
    figure regeneration annotates that escalation from here.

    ``status`` is ``"ok"`` for measured cells and ``"oom"`` for cells
    whose configuration cannot be scheduled at all (Table 1's
    infeasible degree/length corners); OOM cells carry zero metrics.

    ``store_writes`` counts the cache-store data files written while
    this cell was handled (including any spill it triggered) — the
    per-cell leg of the write-amplification accounting.  Like
    ``mean_solve_seconds`` it is host-side bookkeeping, not part of
    :meth:`deterministic`: it depends on the spill cadence
    (``spill_batch``) and on which cell of a batch crosses the flush
    threshold.

    ``stage_seconds`` is the cold-path planning breakdown —
    ``(stage, seconds)`` pairs for enumerate / lpt / milp_build /
    milp_solve, summed over the cell's solves (see
    :class:`~repro.core.types.SolveStats`) — surfaced by
    ``python -m repro.bench --profile``.  Host wall-clock, excluded
    from :meth:`deterministic`; empty for systems without a solver
    and for prewarmed cells (whose planning happened in the runner's
    cold-batching pass and is accounted there).

    ``pruned_trials`` / ``pruned_microbatches`` sum the cell's
    :class:`~repro.core.types.SolveStats` trial-pruning counters (trials
    the MILP solver dropped unplanned).  A warm cache bounds trials
    more tightly than greedy upper bounds do, so like
    ``plan_cache_hit_rate`` they depend on what the cache held and
    stay out of :meth:`deterministic`.
    """

    system: str
    workload: str
    num_iterations: int
    mean_iteration_seconds: float
    mean_comm_fraction: float
    mean_alltoall_fraction: float
    tokens_per_second_per_gpu: float
    mean_solve_seconds: float
    plan_cache_hit_rate: float
    checkpointing: str = ""
    status: str = "ok"
    store_writes: int = 0
    stage_seconds: tuple[tuple[str, float], ...] = ()
    pruned_trials: int = 0
    pruned_microbatches: int = 0

    def deterministic(self) -> tuple[float, float, float, float]:
        """The wall-clock-free metric tuple used for exact comparisons."""
        return (
            self.mean_iteration_seconds,
            self.mean_comm_fraction,
            self.mean_alltoall_fraction,
            self.tokens_per_second_per_gpu,
        )

    @property
    def feasible(self) -> bool:
        return self.status == "ok"

    @classmethod
    def infeasible(cls, cell: SweepCell) -> "CellMetrics":
        """The OOM marker cell: zero metrics, ``status="oom"``."""
        return cls(
            system=cell.system,
            workload=cell.workload.name,
            num_iterations=cell.num_iterations,
            mean_iteration_seconds=0.0,
            mean_comm_fraction=0.0,
            mean_alltoall_fraction=0.0,
            tokens_per_second_per_gpu=0.0,
            mean_solve_seconds=0.0,
            plan_cache_hit_rate=0.0,
            checkpointing=cell.workload.checkpointing.value,
            status="oom",
        )


def cell_metrics(result: RunResult, cell: SweepCell) -> CellMetrics:
    """Condense a :class:`RunResult` into sweep metrics."""
    stats = result.solve_stats
    stage_seconds = (
        tuple(stats.stage_seconds().items()) if stats is not None else ()
    )
    return CellMetrics(
        system=result.system,
        workload=result.workload,
        num_iterations=len(result.outcomes),
        mean_iteration_seconds=result.mean_iteration_seconds,
        mean_comm_fraction=result.mean_comm_fraction,
        mean_alltoall_fraction=result.mean_alltoall_fraction,
        tokens_per_second_per_gpu=result.tokens_per_second_per_gpu(
            cell.workload.cluster.num_gpus
        ),
        mean_solve_seconds=result.mean_solve_seconds,
        plan_cache_hit_rate=result.plan_cache_hit_rate,
        checkpointing=cell.workload.checkpointing.value,
        stage_seconds=stage_seconds,
        pruned_trials=stats.pruned_trials if stats is not None else 0,
        pruned_microbatches=(
            stats.pruned_microbatches if stats is not None else 0
        ),
    )


def find_cell_metrics(
    cells: Sequence[SweepCell],
    metrics: Sequence[CellMetrics],
    system: str,
    workload_name: str,
    variant: tuple[tuple[str, object], ...] = (),
) -> CellMetrics | None:
    """Look one cell's metrics up in aligned (cells, metrics) lists.

    The single definition of cell identity for lookups — shared by
    :meth:`SweepResult.metric` and the campaign engine's per-artefact
    slices, so the two can never diverge.  Returns None when absent.
    """
    variant = tuple(sorted(variant, key=lambda kv: kv[0]))
    for cell, cell_metrics_ in zip(cells, metrics):
        if (
            cell.system == system
            and cell.workload.name == workload_name
            and cell.variant == variant
        ):
            return cell_metrics_
    return None


@dataclass(frozen=True)
class WorkerTelemetry:
    """One worker's share of a sweep pass (host-side accounting).

    A row per pool slot for fan-out passes, plus a single row
    (``worker=0``, the parent pid) for serial ones, so campaign
    tooling reads one vocabulary either way.  Everything here is
    wall-clock/bookkeeping — never part of the bit-identical metrics
    contract.

    Attributes:
        worker: Pool-slot index (0-based; serial passes use 0).
        pid: Worker process id (the parent's for serial passes; 0
            when a fan-out drain could not reach the worker).
        cells: Unique cells this worker measured during the pass.
        steals: How many of those were stolen from another slot's
            shard — each steal is the price of one (possible)
            duplicate context build, so ``sum(context_builds) <=
            unique workloads + sum(steals)`` bounds the redundant
            work.
        context_builds: :class:`WorkloadContext` constructions
            (cold builds and store restores alike) in this worker
            during the pass.
        restore_seconds: Wall-clock those constructions took —
            the fan-out overhead the shard affinity amortises.
        stage_seconds: The worker's cold-path solve-stage breakdown
            (same vocabulary as :attr:`CellMetrics.stage_seconds`).
    """

    worker: int
    pid: int
    cells: int
    steals: int
    context_builds: int = 0
    restore_seconds: float = 0.0
    stage_seconds: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one sweep pass.

    Attributes:
        cells: The requested cells, in request order.
        metrics: Per-cell metrics aligned with ``cells`` (duplicate
            cells share one measurement).
        unique_cells: How many distinct cells were actually measured.
        wall_seconds: Host wall-clock of the pass.
        store_stats: Cache-store accounting for this pass (None
            without a store): on-disk totals after the pass plus the
            hit/miss/write/eviction counter *deltas* attributable to
            it.  Fan-out counters are collected at the drain flushes
            (after each pass and again at ``close()``); a worker that
            misses every drain still spills at exit, but those writes
            land after the last collection and are absent from every
            pass's delta — the figure is a lower bound, short by at
            most one merge-save per dirty workload per such worker.
        prewarm_planned: Micro-batch shapes the cold-batching pass
            planned up front (0 when prewarming was off, fanned out,
            or everything was already cached/restored).
        prewarm_seconds: Wall-clock of that pass (inside
            ``wall_seconds``).
        prewarm_stage_seconds: Its cold-path stage breakdown, same
            vocabulary as :attr:`CellMetrics.stage_seconds`.
        worker_telemetry: Per-worker accounting rows for this pass
            (see :class:`WorkerTelemetry`); one row per pool slot, or
            a single parent row for serial passes.
        fault_stats: Fault-and-recovery accounting for this pass
            (:class:`~repro.core.faults.FaultStats`): realised
            injections from the armed schedule's ledger plus the
            recovery escalations the executor performed (cell
            retries, pool restarts, shard reassignments, degradations
            to serial, watchdog kills, store lock breaks).  None when
            no schedule was armed and no recovery fired — the
            fault-free common case.
    """

    cells: tuple[SweepCell, ...]
    metrics: tuple[CellMetrics, ...]
    unique_cells: int
    wall_seconds: float
    store_stats: StoreStats | None = None
    prewarm_planned: int = 0
    prewarm_seconds: float = 0.0
    prewarm_stage_seconds: tuple[tuple[str, float], ...] = ()
    worker_telemetry: tuple[WorkerTelemetry, ...] = ()
    fault_stats: FaultStats | None = None

    def metric(
        self,
        system: str,
        workload_name: str,
        variant: tuple[tuple[str, object], ...] = (),
    ) -> CellMetrics:
        """Look one cell's metrics up by system, workload and variant."""
        found = find_cell_metrics(
            self.cells, self.metrics, system, workload_name, variant
        )
        if found is None:
            raise KeyError(
                f"no cell for system={system!r} workload={workload_name!r} "
                f"variant={variant!r}"
            )
        return found


class WorkloadContext:
    """Memoised per-workload state shared by every cell that uses it.

    Everything derivable from the workload alone is computed lazily
    once: the corpus batches, the fitted cost model, the tuned baseline
    strategies, and the system instances themselves (whose executors
    and FlexSP solver — with its plan cache — persist for the life of
    the context).

    With a ``store``, the expensive derivations are *restored* from
    disk instead of recomputed when a previous process spilled them
    (see :mod:`repro.core.cache_store`), and :meth:`persist` spills the
    current state back.  Without a store, a ``preseed``
    :class:`~repro.core.cache_store.WorkloadState` (the parent's
    exported prewarm state, shipped to shard workers by the fan-out
    dispatcher) restores exactly like a store load would.  With a
    ``solver_pool``, FlexSP solvers plan on the shared pool's workers
    instead of owning pools of their own.
    """

    def __init__(
        self,
        workload: Workload,
        solver_config: SolverConfig | None = None,
        vectorized: bool = True,
        store: CacheStore | None = None,
        solver_pool: SolverPool | None = None,
        preseed: WorkloadState | None = None,
    ) -> None:
        self.workload = workload
        self.solver_config = solver_config
        self.vectorized = vectorized
        self.store = store
        self.solver_pool = solver_pool
        self._signature = workload_signature(workload)
        self._corpus = workload.corpus()
        self._batches: dict[int, GlobalBatch] = {}
        self._cost_model: CostModel | None = None
        self._static_degree: int | None = None
        self._megatron_strategy = None
        self._systems: dict[tuple[str, tuple], TrainingSystem] = {}
        self._restored: WorkloadState | None = (
            store.load(self._signature) if store is not None else preseed
        )
        self._persisted_fingerprint: tuple | None = None
        self._restore_scalars()
        if self._restored is not None:
            # What is on disk IS this context's spillable state until a
            # cell learns something new, so seed the dirty-tracking
            # fingerprint from it (no systems exist yet, so the
            # fingerprint is exactly the restored state): a fully warm
            # pass then spills nothing instead of rewriting identical
            # bytes — the restored-run half of the write-amplification
            # fix.
            self._persisted_fingerprint = self._state_fingerprint()

    def _restore_scalars(self) -> None:
        """Adopt spilled cost-model / tuner state (bit-identical to a
        fresh derivation — floats round-trip exactly through the
        store's JSON)."""
        state = self._restored
        if state is None:
            return
        if state.coeffs is not None and state.comm_model == "alltoall":
            self._cost_model = CostModel(
                coeffs=state.coeffs,
                cluster=self.workload.cluster,
                comm_model=state.comm_model,
            )
        if state.static_degree is not None:
            self._static_degree = int(state.static_degree)
        if state.megatron_strategy is not None:
            from repro.baselines.megatron import MegatronStrategy

            tp, cp, dp = state.megatron_strategy
            self._megatron_strategy = MegatronStrategy(tp=tp, cp=cp, dp=dp)

    @property
    def cost_model(self) -> CostModel:
        """The workload's fitted cost model (profiled or restored once)."""
        if self._cost_model is None:
            self._cost_model = fit_cost_model(
                self.workload.model_at_context,
                self.workload.cluster,
                self.workload.checkpointing,
            )
        return self._cost_model

    def batch(self, step: int) -> GlobalBatch:
        """Corpus batch for ``step``, sampled at most once."""
        batch = self._batches.get(step)
        if batch is None:
            batch = self._corpus.batch(step)
            self._batches[step] = batch
        return batch

    def batches(self, num: int, start_step: int = 0) -> list[GlobalBatch]:
        return [self.batch(step) for step in range(start_step, start_step + num)]

    def probe_batches(
        self, num: int = DEFAULT_PROBE_BATCHES
    ) -> list[tuple[int, ...]]:
        """The tuners' probe lengths (the first corpus batches)."""
        return [self.batch(step).lengths for step in range(num)]

    def static_degree(self) -> int:
        """DeepSpeed's tuned static SP degree (tuned or restored once)."""
        if self._static_degree is None:
            from repro.baselines.tuner import choose_static_degree

            self._static_degree = choose_static_degree(
                self.probe_batches(),
                self.cost_model,
                self.workload.max_context,
                vectorized=self.vectorized,
            )
        return self._static_degree

    def megatron_strategy(self):
        """Megatron-LM's tuned (tp, cp, dp) strategy (tuned once)."""
        if self._megatron_strategy is None:
            from repro.baselines.tuner import tune_megatron

            self._megatron_strategy = tune_megatron(
                self.probe_batches(),
                self.workload.model_at_context,
                self.workload.cluster,
                self.workload.max_context,
                self.workload.checkpointing,
                vectorized=self.vectorized,
            )
        return self._megatron_strategy

    def _flexsp_config(
        self, variant: tuple[tuple[str, object], ...]
    ) -> SolverConfig:
        """The cell's solver config with variant overrides applied."""
        config = self.solver_config or SolverConfig()
        for key, value in variant:
            if key == "sort_sequences":
                config = dataclasses.replace(config, sort_sequences=bool(value))
            elif key == "bucketing":
                config = dataclasses.replace(
                    config,
                    planner=dataclasses.replace(config.planner, bucketing=value),
                )
            else:  # pragma: no cover - guarded by SweepCell validation
                raise ValueError(f"unknown flexsp variant key {key!r}")
        return config

    def _build_flexsp(
        self, variant: tuple[tuple[str, object], ...]
    ) -> FlexSPSystem:
        config = self._flexsp_config(variant)
        service = (
            self.solver_pool.client(self.cost_model, config)
            if self.solver_pool is not None
            else None
        )
        system = FlexSPSystem(
            self.workload,
            config,
            cost_model=self.cost_model,
            vectorized=self.vectorized,
            solver_service=service,
        )
        self._preload_plans(system)
        return system

    def _preload_plans(self, system: FlexSPSystem) -> None:
        """Replay spilled plan-cache entries into a fresh solver."""
        state, solver = self._restored, system.solver
        if state is None or solver.cache is None:
            return
        config = solver.config
        entries = state.plans.get(context_digest(config.planner, config.backend))
        if not entries:
            return
        # Key with the solver's own interned context so hot-path
        # lookups take the identity fast path, not a deep comparison.
        preload_cache(solver.cache, entries, solver.context)

    def system(
        self, name: str, variant: tuple[tuple[str, object], ...] = ()
    ) -> TrainingSystem:
        """The (persistent) system instance for this workload/variant."""
        key = (name, variant)
        system = self._systems.get(key)
        if system is not None:
            return system
        workload = self.workload
        overrides = dict(variant)
        if name == "flexsp":
            system = self._build_flexsp(variant)
        elif name == "deepspeed":
            sp_degree = overrides.get("sp_degree")
            system = DeepSpeedUlyssesSystem(
                workload,
                sp_degree=(
                    sp_degree if sp_degree is not None else self.static_degree()
                ),
                cost_model=self.cost_model,
                vectorized=self.vectorized,
            )
        elif name == "batchada":
            system = FlexSPBatchAdaSystem(
                workload,
                cost_model=self.cost_model,
                vectorized=self.vectorized,
            )
        elif name == "megatron":
            system = MegatronLMSystem(
                workload,
                strategy=self.megatron_strategy(),
                vectorized=self.vectorized,
            )
        else:  # pragma: no cover - guarded by SweepCell validation
            raise ValueError(f"unknown system {name!r}")
        self._systems[key] = system
        return system

    def run(self, cell: SweepCell) -> CellMetrics:
        """Measure one cell against this context's shared state.

        Infeasible configurations — a Table 1 corner whose fixed SP
        degree cannot host the batch, a cluster too small for any
        strategy — are reported as ``status="oom"`` cells rather than
        raised, exactly as the paper's tables mark them.  Only the two
        dedicated infeasibility exceptions are converted; any other
        error (a genuine bug, a bad argument) propagates.
        """
        try:
            result = run_system(
                self.system(cell.system, cell.variant),
                self.workload,
                num_iterations=cell.num_iterations,
                start_step=cell.start_step,
                batches=self.batches(cell.num_iterations, cell.start_step),
            )
        except (PlanInfeasibleError, InfeasibleWorkloadError):
            return CellMetrics.infeasible(cell)
        return cell_metrics(result, cell)

    def _state_fingerprint(self) -> tuple:
        """Cheap summary of the spillable state, for dirty tracking.

        Plan caches are fingerprinted by entry count per planning-
        context digest — the unit :meth:`persist` unions by — taking
        the max over the live solver caches sharing a digest (the
        Fig. 7 sort ablation) and the restored entries of digests this
        pass never instantiated, so a fully warm or partially
        exercised restored context fingerprints equal to its seed and
        spills nothing.  An entry *replacing* another at constant
        count (LRU churn at capacity), or a smaller variant cache
        catching up to its sibling's count, is not detected, which at
        worst delays the spill to the next pass that grows any cache
        past the digest's max.
        """
        caches: dict[str, int] = {}
        for system in self._systems.values():
            solver = getattr(system, "solver", None)
            if solver is None or solver.cache is None:
                continue
            digest = context_digest(
                solver.config.planner, solver.config.backend
            )
            caches[digest] = max(caches.get(digest, 0), len(solver.cache))
        if self._restored is not None:
            for digest, entries in self._restored.plans.items():
                caches[digest] = max(caches.get(digest, 0), len(entries))
        return (
            self._cost_model is not None,
            self._static_degree,
            self._megatron_strategy,
            tuple(sorted(caches.items())),
        )

    def export_state(self) -> WorkloadState:
        """Snapshot the spillable state as a
        :class:`~repro.core.cache_store.WorkloadState`.

        The serialisation half of :meth:`persist`, also used directly
        by the fan-out dispatcher to ship the parent's prewarm-seeded
        state to shard workers when no store is configured (the
        snapshot round-trips bit-identically either way).  Plan
        entries of flexsp variants that share a planning context
        (e.g. the sort ablation, which changes blasting but not
        per-shape planning) are unioned.
        """
        state = WorkloadState(signature=repr(self._signature))
        if self._cost_model is not None:
            state.coeffs = self._cost_model.coeffs
            state.comm_model = self._cost_model.comm_model
        if self._static_degree is not None:
            state.static_degree = self._static_degree
        if self._megatron_strategy is not None:
            strategy = self._megatron_strategy
            state.megatron_strategy = (strategy.tp, strategy.cp, strategy.dp)
        for system in self._systems.values():
            solver = getattr(system, "solver", None)
            if solver is None or solver.cache is None:
                continue
            digest = context_digest(solver.config.planner, solver.config.backend)
            merged = {e[0]: e for e in state.plans.get(digest, [])}
            for entry in entries_from_cache(solver.cache):
                merged[entry[0]] = entry
            state.plans[digest] = list(merged.values())
        return state

    def persist(self) -> None:
        """Spill this context's reusable state to the cache store.

        No-op without a store, and skipped entirely when nothing
        spillable changed since the last persist (or, for a restored
        context, since the restore — the drain flush persists every
        context it touched, and with ``spill_batch=1`` every cell
        triggers one; without the fingerprint check each no-op call
        would re-serialise the whole workload file under the store
        lock).
        """
        if self.store is None:
            return
        fingerprint = self._state_fingerprint()
        if fingerprint == self._persisted_fingerprint:
            return
        self.store.save(self._signature, self.export_state())
        self._persisted_fingerprint = fingerprint


# ---------------------------------------------------------------------------
# Worker-side state of the sweep pool slots.  Contexts live in the
# worker process and persist across cells and across sweeps, so each
# worker amortises profiling/tuning/corpus work exactly like the serial
# path.  Each worker owns at most one SolverPool and one CacheStore,
# shared by all of its workload contexts; spills are batched per worker
# and drained at the end of each pass (and, as a guarantee, at worker
# exit — the parent cannot reach into a worker at shutdown).  The
# telemetry dict is cumulative for the life of the worker process; the
# parent attributes per-pass deltas (see SweepRunner).
# ---------------------------------------------------------------------------

_WORKER_SWEEP: (
    tuple[SolverConfig | None, bool, str | None, int, int] | None
) = None
_WORKER_CONTEXTS: dict = {}
_WORKER_SOLVER_POOL: SolverPool | None = None
_WORKER_STORE: CacheStore | None = None
_WORKER_CELLS_SINCE_SPILL = 0
_WORKER_PRESEED: dict = {}
_WORKER_TELEMETRY: dict = {
    "cells": 0,
    "context_builds": 0,
    "restore_seconds": 0.0,
    "stages": {},
}


def _sweep_worker_init(
    solver_config: SolverConfig | None,
    vectorized: bool,
    store_root: str | None,
    solver_workers: int,
    spill_batch: int,
    fault_schedule: FaultSchedule | None = None,
) -> None:
    global _WORKER_SWEEP, _WORKER_SOLVER_POOL, _WORKER_STORE
    global _WORKER_CELLS_SINCE_SPILL
    _WORKER_SWEEP = (
        solver_config, vectorized, store_root, solver_workers, spill_batch,
    )
    _WORKER_CONTEXTS.clear()
    _WORKER_PRESEED.clear()
    _WORKER_SOLVER_POOL = None
    _WORKER_CELLS_SINCE_SPILL = 0
    _WORKER_TELEMETRY.update(
        cells=0, context_builds=0, restore_seconds=0.0, stages={}
    )
    # Chaos testing: arm the parent's fault schedule (None outside
    # chaos runs) before anything that can fault, then visit the spawn
    # injection point — a worker_kill here dies during pool startup.
    faults.arm(fault_schedule)
    faults.maybe_inject("spawn")
    _WORKER_STORE = CacheStore(store_root) if store_root else None
    if _WORKER_STORE is not None:
        # Batched spills must survive pool shutdown: whatever is still
        # dirty when this worker exits is flushed on the way out.
        pools.register_worker_exit_flush(_sweep_worker_flush)


def _sweep_worker_preseed(states: dict) -> int:
    """Adopt the parent's exported prewarm state (storeless fan-out).

    ``states`` maps workload signatures to
    :class:`~repro.core.cache_store.WorkloadState` snapshots; a
    context built later for one of these signatures restores from the
    snapshot exactly as it would from a store file.  Returns the
    number of snapshots adopted (a cheap dispatch barrier for the
    parent).
    """
    _WORKER_PRESEED.update(states)
    return len(states)


def _sweep_worker_flush() -> tuple[int, dict[str, int], dict]:
    """Spill every dirty context and report this worker's accounting.

    The drain hook: the parent submits one flush per pool slot after
    each pass (idempotent — a worker that receives two drains, or
    none, stays correct; :class:`WorkloadContext.persist` skips clean
    state) and :func:`repro.core.pools.register_worker_exit_flush`
    runs it once more at worker exit.  Returns ``(pid, cumulative
    store counters, cumulative telemetry)`` so the parent can
    aggregate store stats and :class:`WorkerTelemetry` per worker
    process.
    """
    global _WORKER_CELLS_SINCE_SPILL
    faults.maybe_inject("drain")
    for context in _WORKER_CONTEXTS.values():
        context.persist()
    _WORKER_CELLS_SINCE_SPILL = 0
    counters = _WORKER_STORE.counters() if _WORKER_STORE is not None else {}
    telemetry = dict(_WORKER_TELEMETRY, stages=dict(_WORKER_TELEMETRY["stages"]))
    return os.getpid(), counters, telemetry


def _sweep_worker_run(cell: SweepCell) -> CellMetrics:
    global _WORKER_SOLVER_POOL, _WORKER_CELLS_SINCE_SPILL
    assert _WORKER_SWEEP is not None, "sweep worker used before initialization"
    # The cell injection point (worker-side only: a cell degraded to
    # serial in-process execution deliberately bypasses it — the
    # parent dying is the campaign ending, not a fault to recover
    # from).  worker_kill dies here; hang sleeps until the parent's
    # watchdog kills this process.
    faults.maybe_inject("cell")
    solver_config, vectorized, __, solver_workers, spill_batch = _WORKER_SWEEP
    if solver_workers > 1 and _WORKER_SOLVER_POOL is None:
        _WORKER_SOLVER_POOL = SolverPool(solver_workers)
    key = workload_signature(cell.workload)
    context = _WORKER_CONTEXTS.get(key)
    if context is None:
        build_started = time.perf_counter()
        context = WorkloadContext(
            cell.workload,
            solver_config,
            vectorized,
            store=_WORKER_STORE,
            solver_pool=_WORKER_SOLVER_POOL,
            preseed=_WORKER_PRESEED.get(key),
        )
        _WORKER_TELEMETRY["context_builds"] += 1
        _WORKER_TELEMETRY["restore_seconds"] += (
            time.perf_counter() - build_started
        )
        _WORKER_CONTEXTS[key] = context
    writes_before = (
        _WORKER_STORE.counters()["writes"] if _WORKER_STORE is not None else 0
    )
    metrics = context.run(cell)
    _WORKER_TELEMETRY["cells"] += 1
    stage_timing.accumulate(_WORKER_TELEMETRY["stages"], metrics.stage_seconds)
    if _WORKER_STORE is not None:
        _WORKER_CELLS_SINCE_SPILL += 1
        if spill_batch and _WORKER_CELLS_SINCE_SPILL >= spill_batch:
            _sweep_worker_flush()
        metrics = dataclasses.replace(
            metrics,
            store_writes=_WORKER_STORE.counters()["writes"] - writes_before,
        )
    return metrics


class _ShardScheduler:
    """Workload-sharded work-stealing cell dispatch (parent side).

    Cells are grouped into shards by :func:`workload_signature`
    (request order preserved within a shard) and shards are assigned
    to pool slots longest-processing-time-first: sorted by descending
    size, each to the least-loaded slot.  :meth:`next_cell` serves a
    slot its own shards first (head of the deque); a slot whose own
    shards are drained *steals* from the tail of the heaviest
    remaining shard — the owner and the thief eat the same shard from
    opposite ends, so the duplicate context build a steal pays is
    taken from the workload with the most work left, where it
    amortises best.

    Pure bookkeeping, deliberately free of any pool/process concerns
    so the dispatch policy is unit-testable; scheduling order affects
    only *where* a cell runs, never its metrics (the bit-identity
    contract).
    """

    def __init__(self, cells: Sequence[SweepCell], slots: int) -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        shards: dict[tuple, deque] = {}
        for cell in cells:
            shards.setdefault(
                workload_signature(cell.workload), deque()
            ).append(cell)
        self._shards: list[deque] = list(shards.values())
        self.owners: list[list[int]] = [[] for _ in range(slots)]
        loads = [0] * slots
        heaviest_first = sorted(
            range(len(self._shards)),
            key=lambda i: (-len(self._shards[i]), i),
        )
        for index in heaviest_first:
            slot = min(range(slots), key=lambda s: (loads[s], s))
            self.owners[slot].append(index)
            loads[slot] += len(self._shards[index])

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def remaining(self) -> int:
        """Cells not yet handed out."""
        return sum(len(shard) for shard in self._shards)

    def _load(self, slot: int) -> int:
        """Cells still queued in ``slot``'s own shards."""
        return sum(len(self._shards[i]) for i in self.owners[slot])

    def reassign(self, slot: int, survivors: Sequence[int]) -> int:
        """Move ``slot``'s unfinished shards to the least-loaded
        survivors (the retired-slot escalation rung: a slot whose pool
        keeps dying hands its remaining work to slots that still
        live).  Returns the number of shards moved; with no survivors
        the shards stay put for the caller to drain serially.  The
        stealing machinery needs no change — a reassigned shard is
        simply owned by its new slot from here on."""
        survivors = [s for s in survivors if s != slot]
        if not survivors:
            return 0
        moved = 0
        for index in self.owners[slot]:
            if not self._shards[index]:
                continue
            target = min(survivors, key=lambda s: (self._load(s), s))
            self.owners[target].append(index)
            moved += 1
        self.owners[slot] = []
        return moved

    def next_cell(self, slot: int) -> tuple[SweepCell, bool] | None:
        """The next cell for ``slot``, or None when everything is out.

        Returns ``(cell, stolen)``; ``stolen`` is True when the cell
        came from another slot's shard.
        """
        for index in self.owners[slot]:
            shard = self._shards[index]
            if shard:
                return shard.popleft(), False
        victim = max(
            (i for i, shard in enumerate(self._shards) if shard),
            key=lambda i: (len(self._shards[i]), -i),
            default=None,
        )
        if victim is None:
            return None
        return self._shards[victim].pop(), True


#: Deterministic per-cell resubmit backoff: retry ``n`` (1-based)
#: sleeps ``RETRY_BACKOFF_SECONDS * 2**(n-1)``, capped at
#: ``RETRY_BACKOFF_MAX_SECONDS`` — bounded, and identical for every
#: run of the same schedule.
RETRY_BACKOFF_SECONDS = 0.05
RETRY_BACKOFF_MAX_SECONDS = 1.0


@dataclass
class _RecoveryLog:
    """One pass's mutable recovery counters (parent-side bookkeeping
    behind :class:`~repro.core.faults.FaultStats`)."""

    cell_retries: int = 0
    pool_restarts: int = 0
    shard_reassignments: int = 0
    degraded_cells: int = 0
    watchdog_kills: int = 0

    def any(self) -> bool:
        return bool(
            self.cell_retries
            or self.pool_restarts
            or self.shard_reassignments
            or self.degraded_cells
            or self.watchdog_kills
        )


class _Flight:
    """One in-flight cell: which slot runs it and when the watchdog
    may presume it hung."""

    __slots__ = ("slot", "cell", "deadline")

    def __init__(self, slot: int, cell, deadline: float | None) -> None:
        self.slot = slot
        self.cell = cell
        self.deadline = deadline


class SweepRunner:
    """Runs evaluation-grid cells with shared state and optional fan-out.

    The runner is a persistent service: per-workload contexts (and the
    worker pool, when ``workers > 1``) survive across :meth:`run`
    calls, so regenerating a campaign repeatedly — the benchmark
    trajectory use case — pays profiling, tuning, corpus sampling and
    plan solving once.  Pools are additionally guarded by
    :mod:`repro.core.pools`: a runner that is dropped without
    ``close()`` (or held until interpreter exit) cannot leak worker
    processes.

    Args:
        cells: Default cell list for :meth:`run`.
        solver_config: FlexSP solver knobs shared by all cells.
        workers: Fan-out width.  ``None`` (the default) and 1 run
            serially in-process; ``0`` uses every CPU — the same
            convention as the bench CLI's ``--workers``, so library
            callers (like the plan service) can never fan out by
            accident.  With more than one, cells are workload-sharded
            and affinity-dispatched over single-worker pool slots with
            work stealing (see :class:`_ShardScheduler`).
        vectorized: Evaluate timing kernels and tuners through the
            batched array paths (bit-identical to scalar).
        store: Persistent cross-process cache — a
            :class:`~repro.core.cache_store.CacheStore` or a directory
            path.  Contexts restore from it on construction and spill
            back per the ``spill_batch`` cadence.
        solver_workers: Width of the *one* shared
            :class:`~repro.core.solver.SolverPool` injected into every
            FlexSP solver.  ``None`` adopts ``solver_config.workers``
            when that is > 1 (so sweeps never nest per-workload
            pools); ``0`` uses every CPU; 1 plans in-process.
        spill_batch: Cells a worker (or the serial loop) measures
            before spilling dirty store state.  ``0`` (default)
            batches the whole drain: one merge-save per dirty workload
            per pass, flushed at the end of :meth:`run` and guaranteed
            at worker exit.  ``1`` restores the historical
            spill-after-every-cell behaviour (the write-amplification
            baseline); larger values flush every N cells.  Durability
            trade-off only — restored state is bit-identical at every
            cadence, a crash can just lose at most the unflushed tail.
        prewarm: Campaign-level cold batching.  Before measuring,
            every FlexSP cell is asked for the micro-batch shapes its
            solves would plan from scratch
            (:meth:`~repro.core.solver.FlexSPSolver.pending_shapes`);
            the union is deduplicated *at planner-call granularity*
            across cells — variant cells that share a planning
            context (e.g. the sort ablation) are planned once — and
            dispatched in sorted shape order, through the shared
            :class:`~repro.core.solver.SolverPool` when one is
            configured, so MILP skeleton reuse and worker locality
            trigger.  Seeded plans are bit-identical to what each
            cell would have solved itself; per-cell
            ``mean_solve_seconds`` then reflects cache replay while
            the batched planning cost is reported as
            :attr:`SweepResult.prewarm_seconds`.  Fan-out passes
            prewarm too: the probe runs in the parent
            (side-effect-free), and the seeded state reaches the
            shard workers through the store when one is configured,
            or as a shipped pre-seed snapshot when not.
        fault_schedule: Chaos testing — a
            :class:`~repro.core.faults.FaultSchedule` armed around
            every :meth:`run` pass (in the parent and, via the slot
            pool initializers, in the workers).  None (the default)
            keeps every injection point a no-op.  Results under any
            schedule stay bit-identical to the fault-free serial
            pass; realised injections and the recovery they triggered
            are reported as :attr:`SweepResult.fault_stats`.
        watchdog_seconds: Hung-flight watchdog for fan-out passes: a
            cell in flight longer than this is presumed hung, its
            slot's worker is killed (SIGKILL) and the cell resubmitted
            through the normal escalation.  None (default) disables
            the watchdog — a legitimately long MILP solve must never
            be shot mid-flight unless the caller opted in.
        max_cell_retries: Resubmissions a cell may consume across slot
            failures before degrading to serial in-process execution.
        max_slot_restarts: Consecutive failures a slot may accumulate
            (a success resets the count) before it is retired and its
            shards reassigned to surviving slots.
    """

    def __init__(
        self,
        cells: Sequence[SweepCell] = (),
        solver_config: SolverConfig | None = None,
        workers: int | None = None,
        vectorized: bool = True,
        store: CacheStore | str | os.PathLike | None = None,
        solver_workers: int | None = None,
        spill_batch: int = 0,
        prewarm: bool = True,
        fault_schedule: FaultSchedule | None = None,
        watchdog_seconds: float | None = None,
        max_cell_retries: int = 3,
        max_slot_restarts: int = 2,
    ) -> None:
        self.cells = tuple(cells)
        self.solver_config = solver_config
        if workers is None:
            workers = 1
        elif workers == 0:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        self.workers = workers
        self.vectorized = vectorized
        if store is not None and not isinstance(store, CacheStore):
            store = CacheStore(store)
        self.store = store
        if solver_workers is None:
            solver_workers = (
                solver_config.workers
                if solver_config is not None and solver_config.workers > 1
                else 1
            )
        elif solver_workers == 0:
            solver_workers = os.cpu_count() or 1
        if solver_workers < 0:
            raise ValueError(
                f"solver_workers must be non-negative, got {solver_workers}"
            )
        self.solver_workers = solver_workers
        if spill_batch < 0:
            raise ValueError(
                f"spill_batch must be non-negative, got {spill_batch}"
            )
        self.spill_batch = spill_batch
        self.prewarm = prewarm
        self.fault_schedule = fault_schedule
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise ValueError(
                f"watchdog_seconds must be positive, got {watchdog_seconds}"
            )
        self.watchdog_seconds = watchdog_seconds
        if max_cell_retries < 0:
            raise ValueError(
                f"max_cell_retries must be non-negative, got "
                f"{max_cell_retries}"
            )
        self.max_cell_retries = max_cell_retries
        if max_slot_restarts < 0:
            raise ValueError(
                f"max_slot_restarts must be non-negative, got "
                f"{max_slot_restarts}"
            )
        self.max_slot_restarts = max_slot_restarts
        #: Ledger lines already attributed to earlier passes, so each
        #: SweepResult reports only its own realised injections.
        self._ledger_seen = 0
        self._contexts: dict[tuple, WorkloadContext] = {}
        self._solver_pool: SolverPool | None = None
        #: One single-worker ProcessPoolExecutor per fan-out slot —
        #: the affinity mechanism: a shard dispatched to slot i always
        #: lands in the same worker process.
        self._slots: list[ProcessPoolExecutor | None] = []
        self._slot_finalizers: list = []
        self._pool_lock = threading.Lock()
        #: Per-worker-pid cumulative store counters (fan-out), the
        #: counters of workers already retired by a pool teardown
        #: (folded so a reused pid can never clobber them), and the
        #: totals already attributed to earlier passes, so each
        #: SweepResult carries this pass's counter deltas.
        self._worker_counters: dict[int, dict[str, int]] = {}
        self._counters_retired: dict[str, int] = {}
        self._counters_attributed: dict[str, int] = {}
        #: Per-slot cumulative worker telemetry (latest drain) and the
        #: amounts already attributed to earlier passes.
        self._slot_telemetry: dict[int, dict] = {}
        self._slot_telemetry_attributed: dict[int, dict] = {}
        #: The serial path's (and prewarm's) parent-side context
        #: accounting, delta-attributed the same way.
        self._parent_context_builds = 0
        self._parent_restore_seconds = 0.0
        self._parent_attributed = {
            "context_builds": 0, "restore_seconds": 0.0,
        }

    def _ensure_solver_pool(self) -> SolverPool | None:
        if self.solver_workers <= 1:
            return None
        with self._pool_lock:
            if self._solver_pool is None:
                self._solver_pool = SolverPool(self.solver_workers)
            return self._solver_pool

    def context(self, workload: Workload) -> WorkloadContext:
        """The (memoised) shared context of ``workload``."""
        key = workload_signature(workload)
        context = self._contexts.get(key)
        if context is None:
            started = time.perf_counter()
            context = WorkloadContext(
                workload,
                self.solver_config,
                self.vectorized,
                store=self.store,
                solver_pool=self._ensure_solver_pool(),
            )
            self._parent_context_builds += 1
            self._parent_restore_seconds += time.perf_counter() - started
            self._contexts[key] = context
        return context

    def _ensure_slot(self, slot: int) -> ProcessPoolExecutor:
        """The (lazily started) single-worker pool of fan-out slot
        ``slot``; each slot is tracked with its own lifecycle guard."""
        with self._pool_lock:
            while len(self._slots) < self.workers:
                self._slots.append(None)
                self._slot_finalizers.append(None)
            if self._slots[slot] is None:
                store_root = (
                    str(self.store.root) if self.store is not None else None
                )
                pool = ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_sweep_worker_init,
                    initargs=(
                        self.solver_config,
                        self.vectorized,
                        store_root,
                        self.solver_workers,
                        self.spill_batch,
                        self.fault_schedule,
                    ),
                )
                self._slots[slot] = pool
                self._slot_finalizers[slot] = pools.track_pool(self, pool)
            return self._slots[slot]

    def _submit_to_slot(self, slot: int, fn, *args) -> Future:
        """Submit to one slot, normalising a concurrently-closed pool
        (``RuntimeError`` from ``submit``) to the retryable
        ``BrokenProcessPool`` signal — a genuine in-worker exception
        still propagates as itself from the future."""
        try:
            return self._ensure_slot(slot).submit(fn, *args)
        except RuntimeError as exc:
            raise BrokenProcessPool(str(exc)) from exc

    def run(self, cells: Iterable[SweepCell] | None = None) -> SweepResult:
        """Measure every cell (deduplicated) and return aligned metrics.

        Store spills follow the ``spill_batch`` cadence, with a final
        drain at the end of the pass either way, so a fresh process
        restoring from the store right after :meth:`run` returns sees
        every measured cell's state (fan-out drains are best-effort
        per worker; :meth:`close` is the hard guarantee).
        """
        cells = self.cells if cells is None else tuple(cells)
        if not cells:
            raise ValueError("a sweep needs at least one cell")
        started = time.perf_counter()
        with faults.armed(self.fault_schedule):
            return self._run_armed(cells, started)

    def _run_armed(
        self, cells: tuple[SweepCell, ...], started: float
    ) -> SweepResult:
        recovery = _RecoveryLog()
        unique: dict[SweepCell, CellMetrics | None] = dict.fromkeys(cells)
        order = list(unique)
        prewarm_planned = 0
        prewarm_seconds = 0.0
        prewarm_stages: dict[str, float] = {}
        if self.prewarm:
            faults.maybe_inject("prewarm")
            prewarm_planned, prewarm_seconds, prewarm_stages = (
                self._prewarm_cold_cells(order)
            )
        if self.workers == 1:
            touched: dict[tuple, WorkloadContext] = {}
            cells_since_spill = 0
            for cell in order:
                context = self.context(cell.workload)
                touched[workload_signature(cell.workload)] = context
                writes_before = (
                    self.store.counters()["writes"]
                    if self.store is not None
                    else 0
                )
                metrics = context.run(cell)
                if self.store is not None:
                    cells_since_spill += 1
                    if (
                        self.spill_batch
                        and cells_since_spill >= self.spill_batch
                    ):
                        for dirty in touched.values():
                            dirty.persist()
                        cells_since_spill = 0
                    metrics = dataclasses.replace(
                        metrics,
                        store_writes=(
                            self.store.counters()["writes"] - writes_before
                        ),
                    )
                unique[cell] = metrics
            if self.store is not None:
                for context in touched.values():
                    context.persist()
            telemetry = (self._serial_telemetry(unique),)
        else:
            preseed = (
                self._export_prewarm_state() if prewarm_planned else {}
            )
            outcomes, ran, steals = self._run_on_pool(
                order, preseed, recovery
            )
            for cell, metrics in zip(order, outcomes):
                unique[cell] = metrics
            self._drain_workers()
            telemetry = self._collect_worker_telemetry(ran, steals)
        metrics = tuple(unique[cell] for cell in cells)
        store_stats = self._store_stats_delta()
        return SweepResult(
            cells=tuple(cells),
            metrics=metrics,
            unique_cells=len(unique),
            wall_seconds=time.perf_counter() - started,
            store_stats=store_stats,
            prewarm_planned=prewarm_planned,
            prewarm_seconds=prewarm_seconds,
            prewarm_stage_seconds=tuple(prewarm_stages.items()),
            worker_telemetry=telemetry,
            fault_stats=self._fault_stats(recovery, store_stats),
        )

    def _prewarm_cold_cells(
        self, cells: list[SweepCell]
    ) -> tuple[int, float, dict[str, float]]:
        """The campaign-level cold-batching pass (see the ``prewarm``
        constructor doc): collect every FlexSP cell's uncached
        micro-batch shapes, dedup by planning context, plan the union
        in sorted shape order, and seed every sharing solver's cache.

        Infeasible cells are skipped here exactly as
        :meth:`WorkloadContext.run` would convert them to OOM cells;
        the real measurement still reports them.  Returns (shapes
        planned, wall seconds, stage-seconds breakdown).
        """
        started = time.perf_counter()
        by_context: dict[object, dict] = {}
        for cell in cells:
            if cell.system != "flexsp":
                continue
            context = self.context(cell.workload)
            try:
                system = context.system(cell.system, cell.variant)
                solver = system.solver
                if solver.cache is None:
                    continue
                batches = context.batches(cell.num_iterations, cell.start_step)
                for batch in batches:
                    pending = solver.pending_shapes(batch.lengths)
                    if not pending:
                        continue
                    entry = by_context.setdefault(
                        solver.context, {"solvers": [], "shapes": set()}
                    )
                    if not any(s is solver for s in entry["solvers"]):
                        entry["solvers"].append(solver)
                    entry["shapes"].update(pending)
            except (PlanInfeasibleError, InfeasibleWorkloadError):
                continue
        planned = 0
        stages: dict[str, float] = {}
        for entry in by_context.values():
            shapes = sorted(entry["shapes"], key=lambda s: (len(s), s))
            representative = entry["solvers"][0]
            with stage_timing.collect() as collected:
                outcomes = representative.plan_shapes_cold(shapes)
            stage_timing.accumulate(stages, collected)
            for solver in entry["solvers"]:
                for shape, outcome in zip(shapes, outcomes):
                    solver.seed_plan(shape, outcome)
            planned += len(shapes)
        return planned, time.perf_counter() - started, stages

    def _export_prewarm_state(self) -> dict:
        """Make the parent's prewarm-seeded state visible to workers.

        With a store, each prewarmed context is persisted — shard
        workers restore it on their first cell of the workload (the
        spill is counted like any other write).  Without a store, the
        state is exported as :class:`~repro.core.cache_store.
        WorkloadState` snapshots, returned here for the dispatcher to
        ship to every slot (``_sweep_worker_preseed``) — stealing
        means any slot may end up building any workload's context, so
        every slot gets the full map.
        """
        preseed: dict = {}
        for signature, context in self._contexts.items():
            if self.store is not None:
                context.persist()
            else:
                preseed[signature] = context.export_state()
        return preseed

    def _serial_telemetry(self, unique: dict) -> WorkerTelemetry:
        """The serial pass's single telemetry row (parent process)."""
        builds = (
            self._parent_context_builds
            - self._parent_attributed["context_builds"]
        )
        restore = (
            self._parent_restore_seconds
            - self._parent_attributed["restore_seconds"]
        )
        self._sync_parent_attributed()
        stages: dict[str, float] = {}
        for metrics in unique.values():
            if metrics is not None:
                stage_timing.accumulate(stages, metrics.stage_seconds)
        return WorkerTelemetry(
            worker=0,
            pid=os.getpid(),
            cells=len(unique),
            steals=0,
            context_builds=builds,
            restore_seconds=restore,
            stage_seconds=tuple(sorted(stages.items())),
        )

    def _sync_parent_attributed(self) -> None:
        self._parent_attributed = {
            "context_builds": self._parent_context_builds,
            "restore_seconds": self._parent_restore_seconds,
        }

    def _collect_worker_telemetry(
        self, ran: dict[int, int], steals: dict[int, int]
    ) -> tuple[WorkerTelemetry, ...]:
        """Per-slot telemetry rows for the pass just finished.

        Cells and steals are parent-side ground truth (the dispatcher
        counted them); context builds, restore seconds and stage
        breakdowns come from the workers' cumulative drain reports,
        attributed as deltas against what earlier passes already
        claimed.  The parent's own prewarm context builds are synced
        into the attributed baseline so they never leak into a later
        serial pass's row.
        """
        self._sync_parent_attributed()
        rows = []
        for slot in range(self.workers):
            cells = ran.get(slot, 0)
            stolen = steals.get(slot, 0)
            cumulative = self._slot_telemetry.get(slot)
            if cumulative is None:
                # Drain could not reach this worker (broken pool):
                # report what the dispatcher knows first-hand.
                rows.append(
                    WorkerTelemetry(
                        worker=slot, pid=0, cells=cells, steals=stolen
                    )
                )
                continue
            attributed = self._slot_telemetry_attributed.get(slot) or {
                "context_builds": 0,
                "restore_seconds": 0.0,
                "stages": {},
            }
            builds = max(
                cumulative["context_builds"] - attributed["context_builds"], 0
            )
            restore = max(
                cumulative["restore_seconds"] - attributed["restore_seconds"],
                0.0,
            )
            stages = {}
            for stage, seconds in cumulative["stages"].items():
                delta = seconds - attributed["stages"].get(stage, 0.0)
                if delta > 0:
                    stages[stage] = delta
            self._slot_telemetry_attributed[slot] = {
                "context_builds": cumulative["context_builds"],
                "restore_seconds": cumulative["restore_seconds"],
                "stages": dict(cumulative["stages"]),
            }
            rows.append(
                WorkerTelemetry(
                    worker=slot,
                    pid=cumulative["pid"],
                    cells=cells,
                    steals=stolen,
                    context_builds=builds,
                    restore_seconds=restore,
                    stage_seconds=tuple(sorted(stages.items())),
                )
            )
        return tuple(rows)

    def _drain_workers(self) -> None:
        """Flush every slot worker's batched spills (best-effort).

        One flush task per slot; the tasks are idempotent, so a drain
        that misses a worker costs durability-until-exit at worst,
        never correctness — the exit flush registered in the worker
        covers the gap.  Counter and telemetry reports are cumulative
        per worker, so collecting one twice is harmless.
        """
        with self._pool_lock:
            slots = list(self._slots)
        for slot, pool in enumerate(slots):
            if pool is None:
                continue
            try:
                pid, counters, telemetry = pool.submit(
                    _sweep_worker_flush
                ).result()
            except (BrokenProcessPool, RuntimeError):  # pragma: no cover
                continue  # drain is best-effort; exit flush still runs
            if counters:
                self._worker_counters[pid] = counters
            self._slot_telemetry[slot] = {**telemetry, "pid": pid}

    def _counter_totals(self) -> dict[str, int]:
        """Cumulative store counters across the parent, every live
        worker's latest report, and workers retired by pool
        teardowns."""
        totals = dict(self.store.counters()) if self.store is not None else {}
        for counters in self._worker_counters.values():
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        for key, value in self._counters_retired.items():
            totals[key] = totals.get(key, 0) + value
        return totals

    def _retire_worker_counters(self) -> None:
        """Fold live per-pid counters into the retired totals.

        Called when pools are torn down: the next pool generation may
        reuse a pid, and replacing a dead worker's cumulative counters
        with a fresh worker's would silently drop the old work from
        every later delta.
        """
        for counters in self._worker_counters.values():
            for key, value in counters.items():
                self._counters_retired[key] = (
                    self._counters_retired.get(key, 0) + value
                )
        self._worker_counters.clear()

    def _rebaseline_counters(self) -> None:
        """Attribute everything counted so far to no pass at all.

        The broken-pool retry hook: a first attempt that died mid-pass
        may have spilled partial state (counted by workers whose
        reports the teardown collected) which the retry will recompute
        and recount — without re-baselining, the pass's
        ``store_stats`` delta would double-count those writes.
        """
        self._counters_attributed = self._counter_totals()

    def _store_stats_delta(self) -> StoreStats | None:
        """This pass's store accounting: on-disk totals plus the
        counter deltas not yet attributed to an earlier pass."""
        if self.store is None:
            return None
        totals = self._counter_totals()
        delta = {
            key: totals.get(key, 0) - self._counters_attributed.get(key, 0)
            for key in (
                "hits",
                "misses",
                "writes",
                "evictions",
                "lock_waits",
                "lock_breaks",
            )
        }
        self._counters_attributed = totals
        num_files, num_bytes, num_entries = self.store.scan()
        return StoreStats(
            files=num_files, bytes=num_bytes, entries=num_entries, **delta
        )

    def _fault_stats(
        self, recovery: _RecoveryLog, store_stats: StoreStats | None
    ) -> FaultStats | None:
        """This pass's fault report: the schedule ledger's new lines
        (injections realised anywhere — including workers that died
        before they could report) plus the parent's recovery counters
        and the store's lock-break delta.  None when no schedule was
        armed and nothing recovered (the common case stays silent)."""
        injections: dict[str, int] = {}
        if self.fault_schedule is not None:
            labels = self.fault_schedule.read_ledger()
            for label in labels[self._ledger_seen :]:
                injections[label] = injections.get(label, 0) + 1
            self._ledger_seen = len(labels)
        lock_breaks = store_stats.lock_breaks if store_stats else 0
        if self.fault_schedule is None and not recovery.any() and not lock_breaks:
            return None
        return FaultStats(
            injections=tuple(sorted(injections.items())),
            cell_retries=recovery.cell_retries,
            pool_restarts=recovery.pool_restarts,
            shard_reassignments=recovery.shard_reassignments,
            degraded_cells=recovery.degraded_cells,
            watchdog_kills=recovery.watchdog_kills,
            lock_breaks=lock_breaks,
        )

    def _run_on_pool(
        self,
        cells: list[SweepCell],
        preseed: dict,
        recovery: _RecoveryLog,
    ) -> tuple[list[CellMetrics], dict[int, int], dict[int, int]]:
        """Fan unique cells across the slot pools.

        Per-cell failures never reach here — :meth:`_run_sharded`
        absorbs them through the graduated escalation (resubmit →
        pool restart → shard reassignment → serial degradation).  The
        outer retry survives only a *catastrophic* pass failure (e.g.
        every preseed dying), and because ``results`` lives outside
        the attempt loop, the retry recomputes **only unfinished
        cells** — work the first attempt completed is kept.  Before
        the retry the counter baseline is re-anchored
        (:meth:`_rebaseline_counters`) so store writes the failed
        attempt already performed are not double-counted.
        """
        results: dict[SweepCell, CellMetrics] = {}
        ran = dict.fromkeys(range(self.workers), 0)
        steals = dict.fromkeys(range(self.workers), 0)
        for attempt in (0, 1):
            try:
                return self._run_sharded(
                    cells, preseed, results, ran, steals, recovery
                )
            except BrokenProcessPool:
                if attempt:
                    raise
                self.close()
                self._rebaseline_counters()
        raise AssertionError("unreachable: both sweep attempts returned")

    def _run_sharded(
        self,
        cells: list[SweepCell],
        preseed: dict,
        results: dict,
        ran: dict[int, int],
        steals: dict[int, int],
        recovery: _RecoveryLog,
    ) -> tuple[list[CellMetrics], dict[int, int], dict[int, int]]:
        """One work-stealing dispatch pass with graduated recovery.

        Keeps exactly one cell in flight per slot (the scheduler's
        steal decisions must see up-to-date shard sizes), counts
        per-slot cells and steals, and returns metrics in request
        order.  Cells already present in ``results`` (a previous
        attempt's completions) are not re-run.

        Failure handling is the escalation ladder: a slot whose
        flight dies gets its pool restarted and the cell goes to the
        retry queue with deterministic bounded backoff; a slot
        failing ``max_slot_restarts + 1`` times in a row is retired
        and its shards reassigned to surviving slots; a cell
        exhausting ``max_cell_retries`` — or any work left when no
        slot survives — runs serially in the parent.  A flight
        outliving ``watchdog_seconds`` is presumed hung: its worker
        is killed and the death follows the same ladder.  Recovery
        affects only *where and when* a cell runs, so results remain
        bit-identical to the fault-free serial pass.  Exceptions
        raised *inside* a worker's cell computation are genuine and
        propagate.
        """
        todo = [cell for cell in cells if cell not in results]
        scheduler = (
            _ShardScheduler(todo, self.workers) if todo else None
        )
        active = set(range(self.workers))
        failures = dict.fromkeys(range(self.workers), 0)
        retry_counts: dict[SweepCell, int] = {}
        retry_queue: list[tuple[float, SweepCell]] = []
        inflight: dict[Future, _Flight] = {}

        def _degrade(cell: SweepCell) -> None:
            results[cell] = self._run_cell_inprocess(cell)
            recovery.degraded_cells += 1

        def _retire(slot: int) -> None:
            active.discard(slot)
            if scheduler is not None and active:
                recovery.shard_reassignments += scheduler.reassign(
                    slot, sorted(active)
                )

        def _fail(slot: int, cell: SweepCell | None) -> None:
            """One slot's flight (or submit) died: restart or retire
            the slot, requeue or degrade the cell."""
            self._restart_slot(slot)
            recovery.pool_restarts += 1
            failures[slot] += 1
            if failures[slot] > self.max_slot_restarts and slot in active:
                _retire(slot)
            if cell is None:
                return
            retries = retry_counts.get(cell, 0) + 1
            retry_counts[cell] = retries
            if retries > self.max_cell_retries or not active:
                _degrade(cell)
                return
            recovery.cell_retries += 1
            backoff = min(
                RETRY_BACKOFF_SECONDS * (2 ** (retries - 1)),
                RETRY_BACKOFF_MAX_SECONDS,
            )
            retry_queue.append((time.monotonic() + backoff, cell))

        if todo and preseed:
            for slot in sorted(active):
                while slot in active and not self._preseed_slot(
                    slot, preseed
                ):
                    _fail(slot, None)

        def _next_work(slot: int) -> tuple[SweepCell, bool] | None:
            now = time.monotonic()
            for i, (eligible, queued) in enumerate(retry_queue):
                if eligible <= now:
                    del retry_queue[i]
                    return queued, False
            if scheduler is not None:
                return scheduler.next_cell(slot)
            return None

        busy: set[int] = set()
        while True:
            for slot in sorted(active - busy):
                nxt = _next_work(slot)
                if nxt is None:
                    continue
                cell, stolen = nxt
                if stolen:
                    steals[slot] += 1
                try:
                    future = self._submit_to_slot(
                        slot, _sweep_worker_run, cell
                    )
                except BrokenProcessPool:
                    _fail(slot, cell)
                    continue
                deadline = (
                    time.monotonic() + self.watchdog_seconds
                    if self.watchdog_seconds is not None
                    else None
                )
                inflight[future] = _Flight(slot, cell, deadline)
                busy.add(slot)
            if not inflight:
                pending = bool(retry_queue) or (
                    scheduler is not None and scheduler.remaining() > 0
                )
                if not pending:
                    break
                if retry_queue and active:
                    # Only backoff timers stand between us and more
                    # dispatch: sleep until the earliest is eligible.
                    soonest = min(e for e, _ in retry_queue)
                    time.sleep(max(0.0, soonest - time.monotonic()))
                    continue
                # Final escalation rung: no slot can serve the rest.
                while retry_queue:
                    __, queued = retry_queue.pop()
                    _degrade(queued)
                if scheduler is not None:
                    while True:
                        nxt = scheduler.next_cell(0)
                        if nxt is None:
                            break
                        _degrade(nxt[0])
                break
            done, __ = wait(
                inflight,
                timeout=self._wait_timeout(inflight, retry_queue),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                now = time.monotonic()
                for flight in inflight.values():
                    if flight.deadline is not None and now >= flight.deadline:
                        # Hung flight: kill the worker; the future
                        # then fails as BrokenProcessPool and takes
                        # the normal escalation path.  Deadline
                        # cleared so the kill happens once.
                        if self._kill_slot_workers(flight.slot):
                            recovery.watchdog_kills += 1
                        flight.deadline = None
                continue
            for future in done:
                flight = inflight.pop(future)
                busy.discard(flight.slot)
                try:
                    metrics = future.result()
                except BrokenProcessPool:
                    _fail(flight.slot, flight.cell)
                    continue
                results[flight.cell] = metrics
                ran[flight.slot] += 1
                failures[flight.slot] = 0
        return [results[cell] for cell in cells], ran, steals

    def _wait_timeout(
        self, inflight: dict, retry_queue: list
    ) -> float | None:
        """How long the dispatch loop may block: until the nearest
        watchdog deadline or retry-eligibility, whichever is sooner
        (None blocks until a completion when neither applies)."""
        now = time.monotonic()
        bounds = [
            flight.deadline - now
            for flight in inflight.values()
            if flight.deadline is not None
        ]
        if retry_queue:
            bounds.append(min(e for e, _ in retry_queue) - now)
        if not bounds:
            return None
        return max(0.01, min(bounds))

    def _preseed_slot(self, slot: int, preseed: dict) -> bool:
        """Ship the prewarm snapshot map to one slot; False when the
        slot's pool died trying (the caller escalates)."""
        try:
            self._submit_to_slot(slot, _sweep_worker_preseed, preseed).result()
        except BrokenProcessPool:
            return False
        return True

    def _restart_slot(self, slot: int) -> None:
        """Tear one slot's (broken) pool down; the next submit lazily
        starts a fresh worker.  The dead worker's last drain report
        stays in ``_worker_counters`` under its pid — its store writes
        remain attributed — and the replacement registers under a new
        pid (same-pid reuse is folded by :meth:`close`)."""
        with self._pool_lock:
            pool = self._slots[slot] if slot < len(self._slots) else None
            finalizer = (
                self._slot_finalizers[slot]
                if slot < len(self._slot_finalizers)
                else None
            )
            if pool is not None:
                self._slots[slot] = None
                self._slot_finalizers[slot] = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if finalizer is not None:
            finalizer()

    def _kill_slot_workers(self, slot: int) -> bool:
        """SIGKILL one slot's worker process(es) — the watchdog's
        hammer for a hung flight (``shutdown`` alone would wait on the
        hung task forever).  False when the slot has no live pool."""
        with self._pool_lock:
            pool = self._slots[slot] if slot < len(self._slots) else None
        if pool is None:
            return False
        processes = getattr(pool, "_processes", None) or {}
        killed = False
        for process in list(processes.values()):
            if process.is_alive():
                process.kill()
                killed = True
        return killed

    def _run_cell_inprocess(self, cell: SweepCell) -> CellMetrics:
        """Serial degradation: run one cell in the parent, exactly as
        the ``workers == 1`` path would (same contexts, same store
        accounting) — the executor's of-last-resort rung when pools
        keep dying.  The parent-side cell computation does not visit
        the ``cell`` injection point: killing the parent is the
        campaign ending, not a fault to recover from."""
        context = self.context(cell.workload)
        writes_before = (
            self.store.counters()["writes"] if self.store is not None else 0
        )
        metrics = context.run(cell)
        if self.store is not None:
            # Persist immediately: degraded cells have no worker drain
            # to flush them, and close() only drains workers.
            context.persist()
            metrics = dataclasses.replace(
                metrics,
                store_writes=(
                    self.store.counters()["writes"] - writes_before
                ),
            )
        return metrics

    def close(self) -> None:
        """Shut the worker pools down.

        The serial path's in-process contexts survive; with
        ``workers > 1`` the warm per-workload state lives inside the
        worker processes and is discarded with them — the next
        :meth:`run` starts fresh slots whose caches are cold (or
        store-restored, when a ``store`` is configured).  Workers are
        drained first so their batched spills land (and are counted)
        before shutdown; the per-worker exit flush remains the
        backstop for anything a best-effort drain missed.  Collected
        counters are retired, not dropped — later passes' deltas stay
        correct across pool generations.
        """
        self._drain_workers()
        with self._pool_lock:
            slots, self._slots = self._slots, []
            finalizers, self._slot_finalizers = self._slot_finalizers, []
            solver_pool = self._solver_pool
        for pool in slots:
            if pool is not None:
                pool.shutdown()
        for finalizer in finalizers:
            if finalizer is not None:
                finalizer()  # retires the pool from the exit registry too
        self._retire_worker_counters()
        self._slot_telemetry.clear()
        self._slot_telemetry_attributed.clear()
        if solver_pool is not None:
            # Not discarded: live contexts hold tenant clients of this
            # pool, which restarts lazily if the runner is used again.
            solver_pool.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def grid_cells(
    systems: Iterable[str],
    workloads: Iterable[Workload],
    num_iterations: int = 1,
    start_step: int = 0,
    variant: tuple[tuple[str, object], ...] = (),
) -> list[SweepCell]:
    """The cross product of systems and workloads as sweep cells."""
    return [
        SweepCell(
            system=system,
            workload=workload,
            num_iterations=num_iterations,
            start_step=start_step,
            variant=variant,
        )
        for workload in workloads
        for system in systems
    ]
