"""Experiment-sweep runner.

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
  ``run()`` calls (trajectory regeneration).  The cost model depends
  on less than the whole workload, so the runner fits it once per
  :func:`fit_inputs` and hands that one model to every context with
  those inputs.
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
* **Campaign-level cold batching, on one shared solver pool.**  Before
  any cell is measured, the prewarm asks every FlexSP cell for the
  micro-batch shapes it would plan from scratch, dedups them across
  cells and plans the union in one batch, then seeds each solver with
  the shapes it asked for.  With ``solver_workers > 1`` that batch
  is planned on a single :class:`~repro.core.solver.SolverPool` whose
  tenant clients are injected into every workload's
  :class:`FlexSPSolver` — the paper's parallel solving (S4.3), and the
  only parallelism here.
  The prewarm is where a cold campaign spends its planning time, so
  the cells are then measured serially in this process, replaying
  seeded plans.
* **Context accounting.**  Every pass reports the workload contexts
  it built (cold builds and store restores alike) and their
  wall-clock, surfaced by ``python -m repro.bench --campaign ...
  --profile``.
* **Batched spills.**  Dirty store state is merge-saved once per
  workload at the end of a :meth:`SweepRunner.run` pass, after the
  last cell, so a cold pass writes each workload file at most once
  and a fully restored pass writes none.  Each pass reports its store
  accounting as :attr:`SweepResult.store_stats`.
* **Fault injection.**  A pass may arm a
  :class:`~repro.core.faults.FaultSchedule`: the solver pool's workers
  visit the ``spawn`` and ``plan`` injection points and the store
  visits ``spill``.  The pool rebuilds after a dead worker and
  resubmits only the shapes still missing, and the store reads a torn
  file as cold, so results stay bit-identical to the fault-free pass;
  realised injections are accounted in
  :attr:`SweepResult.fault_stats`
  (:class:`~repro.core.faults.FaultStats`).

Results are plain :class:`CellMetrics` (no plans or traces), compared
bit for bit through :meth:`CellMetrics.deterministic`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core import faults, stage_timing
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
from repro.core.solver import FlexSPSolver, SolverConfig, SolverPool
from repro.core.types import InfeasibleWorkloadError
from repro.cost.model import CostModel
from repro.cost.profiler import fit_cost_model
from repro.data.dataset import GlobalBatch
from repro.experiments.runner import RunResult, run_system
from repro.experiments.systems import (
    DEFAULT_PROBE_BATCHES,
    SYSTEM_BUILDERS,
    DeepSpeedUlyssesSystem,
    FlexSPBatchAdaSystem,
    FlexSPSystem,
    MegatronLMSystem,
    TrainingSystem,
)
from repro.experiments.workloads import Workload

#: Variant keys each system accepts (see :attr:`SweepCell.variant`).
VARIANT_KEYS = {
    "flexsp": ("sort_sequences", "bucketing"),
    "deepspeed": ("sp_degree",),
    "batchada": (),
    "megatron": (),
}


def fit_inputs(workload: Workload) -> tuple:
    """What a workload's fitted cost model depends on: the model at
    its context length, the cluster and the checkpointing policy
    (the arguments of :func:`~repro.cost.profiler.fit_cost_model`)."""
    return (workload.model_at_context, workload.cluster, workload.checkpointing)


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


@dataclass(frozen=True)
class CellMetrics:
    """The paper's per-cell metrics, detached from plans and traces.

    ``mean_solve_seconds`` is host wall-clock (non-deterministic); the
    other fields are pure functions of the simulated execution and are
    bit-identical however the cell is computed (plans solved in-process
    or on a pool worker, cold or restored from a
    :class:`~repro.core.cache_store.CacheStore`).

    ``checkpointing`` surfaces the workload's chosen activation
    checkpointing policy (``"none"`` / ``"selective"`` / ``"full"``):
    long-context cells escalate the policy on small clusters, and
    figure regeneration annotates that escalation from here.

    ``status`` is ``"ok"`` for measured cells and ``"oom"`` for cells
    whose configuration cannot be scheduled at all (Table 1's
    infeasible degree/length corners); OOM cells carry zero metrics.

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
            it.
        prewarm_planned: Micro-batch shapes the cold-batching pass
            planned up front (0 when prewarming was off or everything
            was already cached/restored).
        prewarm_seconds: Wall-clock of that pass (inside
            ``wall_seconds``).
        prewarm_stage_seconds: Its cold-path stage breakdown, same
            vocabulary as :attr:`CellMetrics.stage_seconds`.
        context_builds: :class:`WorkloadContext` constructions (cold
            builds and store restores alike) during the pass.
        context_build_seconds: Wall-clock those constructions took.
        fault_stats: Fault accounting for this pass
            (:class:`~repro.core.faults.FaultStats`): realised
            injections from the armed schedule's ledger.  None when
            no schedule was armed — the fault-free common case.
    """

    cells: tuple[SweepCell, ...]
    metrics: tuple[CellMetrics, ...]
    unique_cells: int
    wall_seconds: float
    store_stats: StoreStats | None = None
    prewarm_planned: int = 0
    prewarm_seconds: float = 0.0
    prewarm_stage_seconds: tuple[tuple[str, float], ...] = ()
    context_builds: int = 0
    context_build_seconds: float = 0.0
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
    current state back.  With a ``solver_pool``, FlexSP solvers plan on
    the shared pool's workers; without one they plan in-process.
    With ``fits`` — a memo of fitted cost models keyed by
    :func:`fit_inputs`, shared by a runner's contexts — a cold context
    adopts a model another context already fitted and records the one
    it fits; a restored context keeps its stored coefficients.
    """

    def __init__(
        self,
        workload: Workload,
        solver_config: SolverConfig | None = None,
        store: CacheStore | None = None,
        solver_pool: SolverPool | None = None,
        fits: dict[tuple, CostModel] | None = None,
    ) -> None:
        self.workload = workload
        self.solver_config = solver_config
        self.store = store
        self.solver_pool = solver_pool
        self._fits = {} if fits is None else fits
        self._signature = workload_signature(workload)
        self._corpus = workload.corpus()
        self._batches: dict[int, GlobalBatch] = {}
        self._cost_model: CostModel | None = None
        self._static_degree: int | None = None
        self._megatron_strategy = None
        self._systems: dict[tuple[str, tuple], TrainingSystem] = {}
        self._restored: WorkloadState | None = (
            store.load(self._signature) if store is not None else None
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
        """The workload's fitted cost model (restored, shared or
        profiled once)."""
        if self._cost_model is None:
            key = fit_inputs(self.workload)
            model = self._fits.get(key)
            if model is None:
                model = self._fits[key] = fit_cost_model(*key)
            self._cost_model = model
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
            solver_service=service,
        )
        self._preload_plans(system)
        return system

    def _preload_plans(self, system: FlexSPSystem) -> None:
        """Replay spilled plan-cache entries into a fresh solver."""
        state, solver = self._restored, system.solver
        if state is None:
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
            )
        elif name == "batchada":
            system = FlexSPBatchAdaSystem(workload, cost_model=self.cost_model)
        elif name == "megatron":
            system = MegatronLMSystem(
                workload, strategy=self.megatron_strategy()
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

        Plan caches are fingerprinted by their count of distinct
        shapes per planning-context digest — the unit :meth:`persist`
        unions by — over the live solver caches sharing a digest (the
        Fig. 7 ablations, each seeded with only its own cells' shapes)
        and the restored entries.  A fully warm or partially exercised
        restored context therefore fingerprints equal to its seed and
        spills nothing, while a cache that learns a shape none of its
        siblings holds marks the context dirty.  An entry *replacing*
        another at constant count (LRU churn at capacity) is not
        detected, which at worst delays the spill to the next pass
        that learns a new shape.
        """
        shapes: dict[str, set[tuple[int, ...]]] = {}
        for system in self._systems.values():
            solver = getattr(system, "solver", None)
            if solver is None:
                continue
            digest = context_digest(
                solver.config.planner, solver.config.backend
            )
            shapes.setdefault(digest, set()).update(
                key[0] for key, __ in solver.cache.snapshot()
            )
        if self._restored is not None:
            for digest, entries in self._restored.plans.items():
                shapes.setdefault(digest, set()).update(e[0] for e in entries)
        return (
            self._cost_model is not None,
            self._static_degree,
            self._megatron_strategy,
            tuple(sorted((d, len(s)) for d, s in shapes.items())),
        )

    def export_state(self) -> WorkloadState:
        """Snapshot the spillable state as a
        :class:`~repro.core.cache_store.WorkloadState`.

        The serialisation half of :meth:`persist` (the snapshot
        round-trips bit-identically through the store).  Plan entries
        of flexsp variants that share a planning context (e.g. the
        sort ablation, which changes blasting but not per-shape
        planning) are unioned.
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
            if solver is None:
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
        context, since the restore — the end-of-pass flush persists
        every context it touched; without the fingerprint check each
        no-op call would re-serialise the whole workload file under
        the store lock).
        """
        if self.store is None:
            return
        fingerprint = self._state_fingerprint()
        if fingerprint == self._persisted_fingerprint:
            return
        self.store.save(self._signature, self.export_state())
        self._persisted_fingerprint = fingerprint


class SweepRunner:
    """Runs evaluation-grid cells serially against shared state.

    The runner is a persistent service: per-workload contexts (and the
    shared solver pool, when ``solver_workers > 1``) survive across
    :meth:`run` calls, so regenerating a campaign repeatedly — the
    benchmark trajectory use case — pays profiling, tuning, corpus
    sampling and plan solving once.  The pool is additionally guarded
    by :mod:`repro.core.pools`: a runner that is dropped without
    ``close()`` (or held until interpreter exit) cannot leak worker
    processes.

    Args:
        cells: Default cell list for :meth:`run`.
        solver_config: FlexSP solver knobs shared by all cells.
        store: Persistent cross-process cache — a
            :class:`~repro.core.cache_store.CacheStore` or a directory
            path.  Contexts restore from it on construction and spill
            back once at the end of each :meth:`run` pass.
        solver_workers: Width of the *one* shared
            :class:`~repro.core.solver.SolverPool` injected into every
            FlexSP solver — the runner's only parallelism.  1 (the
            default) plans in-process; below 1 is a ``ValueError``.
        prewarm: Campaign-level cold batching.  Before measuring,
            every FlexSP cell is asked for the micro-batch shapes its
            solves would plan from scratch
            (:meth:`~repro.core.solver.FlexSPSolver.pending_shapes`);
            the union is deduplicated *at planner-call granularity*
            across cells — cells whose solvers share a planning
            context (workloads with one cost model, the sort
            ablation, and on greedy the bucketing ablations) are
            planned once — and dispatched in sorted shape order,
            through the shared :class:`~repro.core.solver.SolverPool`
            when one is configured, so MILP skeleton reuse and worker
            locality trigger.  Each solver is seeded with the shapes
            it asked for.  Seeded plans are bit-identical to what each
            cell would have solved itself; per-cell
            ``mean_solve_seconds`` then reflects cache replay while
            the batched planning cost is reported as
            :attr:`SweepResult.prewarm_seconds`.
        fault_schedule: Chaos testing — a
            :class:`~repro.core.faults.FaultSchedule` armed around
            every :meth:`run` pass (in the parent and, via the solver
            pool's initializer, in its workers).  None (the default)
            keeps every injection point a no-op.  Results under any
            survivable schedule stay bit-identical to the fault-free
            pass; realised injections are reported as
            :attr:`SweepResult.fault_stats`.
    """

    def __init__(
        self,
        cells: Sequence[SweepCell] = (),
        solver_config: SolverConfig | None = None,
        store: CacheStore | str | os.PathLike | None = None,
        solver_workers: int = 1,
        prewarm: bool = True,
        fault_schedule: FaultSchedule | None = None,
    ) -> None:
        self.cells = tuple(cells)
        self.solver_config = solver_config
        if store is not None and not isinstance(store, CacheStore):
            store = CacheStore(store)
        self.store = store
        if solver_workers < 1:
            raise ValueError(
                f"solver_workers must be positive, got {solver_workers}"
            )
        self.solver_workers = solver_workers
        self.prewarm = prewarm
        self.fault_schedule = fault_schedule
        #: Ledger lines already attributed to earlier passes, so each
        #: SweepResult reports only its own realised injections.
        self._ledger_seen = 0
        self._contexts: dict[tuple, WorkloadContext] = {}
        #: The one shared pool; it starts its processes on first use.
        self._solver_pool: SolverPool | None = (
            SolverPool(solver_workers) if solver_workers > 1 else None
        )
        #: Cost models this runner fitted, by :func:`fit_inputs`.
        self._fits: dict[tuple, CostModel] = {}
        #: Store counter totals already attributed to earlier passes,
        #: so each SweepResult carries this pass's counter deltas.
        self._counters_attributed: dict[str, int] = {}
        #: Context constructions (and their wall-clock) not yet
        #: reported by a pass.
        self._context_builds = 0
        self._context_build_seconds = 0.0

    def context(self, workload: Workload) -> WorkloadContext:
        """The (memoised) shared context of ``workload``."""
        key = workload_signature(workload)
        context = self._contexts.get(key)
        if context is None:
            started = time.perf_counter()
            context = WorkloadContext(
                workload,
                self.solver_config,
                store=self.store,
                solver_pool=self._solver_pool,
                fits=self._fits,
            )
            self._context_builds += 1
            self._context_build_seconds += time.perf_counter() - started
            self._contexts[key] = context
        return context

    def run(self, cells: Iterable[SweepCell] | None = None) -> SweepResult:
        """Measure every cell (deduplicated) and return aligned metrics.

        Dirty store state is spilled once per workload at the end of
        the pass, so a fresh process restoring from the store right
        after :meth:`run` returns sees every measured cell's state.
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
        unique: dict[SweepCell, CellMetrics | None] = dict.fromkeys(cells)
        prewarm_planned = 0
        prewarm_seconds = 0.0
        prewarm_stages: dict[str, float] = {}
        if self.prewarm:
            prewarm_planned, prewarm_seconds, prewarm_stages = (
                self._prewarm_cold_cells(list(unique))
            )
        touched: dict[tuple, WorkloadContext] = {}
        for cell in unique:
            context = self.context(cell.workload)
            touched[workload_signature(cell.workload)] = context
            unique[cell] = context.run(cell)
        for context in touched.values():
            context.persist()
        result = SweepResult(
            cells=tuple(cells),
            metrics=tuple(unique[cell] for cell in cells),
            unique_cells=len(unique),
            wall_seconds=time.perf_counter() - started,
            store_stats=self._store_stats_delta(),
            prewarm_planned=prewarm_planned,
            prewarm_seconds=prewarm_seconds,
            prewarm_stage_seconds=tuple(prewarm_stages.items()),
            context_builds=self._context_builds,
            context_build_seconds=self._context_build_seconds,
            fault_stats=self._fault_stats(),
        )
        # Every context built since the previous pass is reported
        # once, by this one.
        self._context_builds = 0
        self._context_build_seconds = 0.0
        return result

    def _prewarm_cold_cells(
        self, cells: list[SweepCell]
    ) -> tuple[int, float, dict[str, float]]:
        """The campaign-level cold-batching pass (see the ``prewarm``
        constructor doc): collect every FlexSP cell's uncached
        micro-batch shapes, dedup by planning context, plan the union
        in sorted shape order, and seed each solver's cache with the
        shapes it asked for — so a workload spills only its own
        cells' plans.

        Infeasible cells are skipped here exactly as
        :meth:`WorkloadContext.run` would convert them to OOM cells;
        the real measurement still reports them.  Returns (shapes
        planned, wall seconds, stage-seconds breakdown).
        """
        started = time.perf_counter()
        # Per planning context, each sharing solver's pending shapes.
        by_context: dict[object, dict[FlexSPSolver, set]] = {}
        for cell in cells:
            if cell.system != "flexsp":
                continue
            context = self.context(cell.workload)
            try:
                solver = context.system(cell.system, cell.variant).solver
                batches = context.batches(cell.num_iterations, cell.start_step)
                for batch in batches:
                    pending = solver.pending_shapes(batch.lengths)
                    if not pending:
                        continue
                    solvers = by_context.setdefault(solver.context, {})
                    solvers.setdefault(solver, set()).update(pending)
            except (PlanInfeasibleError, InfeasibleWorkloadError):
                continue
        planned = 0
        stages: dict[str, float] = {}
        for solvers in by_context.values():
            shapes = sorted(set().union(*solvers.values()), key=lambda s: (len(s), s))
            representative = next(iter(solvers))
            with stage_timing.collect() as collected:
                outcomes = representative.plan_shapes_cold(shapes)
            stage_timing.accumulate(stages, collected)
            for solver, own in solvers.items():
                for shape, outcome in zip(shapes, outcomes):
                    if shape in own:
                        solver.seed_plan(shape, outcome)
            planned += len(shapes)
        return planned, time.perf_counter() - started, stages

    def _store_stats_delta(self) -> StoreStats | None:
        """This pass's store accounting: on-disk totals plus the
        counter deltas not yet attributed to an earlier pass."""
        if self.store is None:
            return None
        totals = self.store.counters()
        delta = {
            key: count - self._counters_attributed.get(key, 0)
            for key, count in totals.items()
        }
        self._counters_attributed = totals
        num_files, num_bytes = self.store.scan()
        return StoreStats(files=num_files, bytes=num_bytes, **delta)

    def _fault_stats(self) -> FaultStats | None:
        """This pass's fault report: the schedule ledger's new lines
        (injections realised anywhere — including pool workers that
        died before they could report).  None when no schedule was
        armed (the common case stays silent)."""
        if self.fault_schedule is None:
            return None
        labels = self.fault_schedule.read_ledger()
        injections: dict[str, int] = {}
        for label in labels[self._ledger_seen :]:
            injections[label] = injections.get(label, 0) + 1
        self._ledger_seen = len(labels)
        return FaultStats(injections=tuple(sorted(injections.items())))

    def close(self) -> None:
        """Shut the shared solver pool down.

        Contexts and their warm state survive: they hold tenant
        clients of the pool, which restarts lazily if the runner is
        used again.
        """
        if self._solver_pool is not None:
            self._solver_pool.close()

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
