"""FlexSP solver workflow (Alg. 1) and its shared planner pool.

Given a global batch, sweep the micro-batch count from the minimum
feasible ``M_min`` upward over ``M'`` trials; for each count, blast the
batch, plan every micro-batch with the parallelism planner, and keep
the plan whose *total* predicted time is lowest.

Throughput architecture (the paper's two-level multi-process solving,
S4.3, plus this repo's cross-trial reuse):

* **Micro-batch granularity.** All trials' micro-batches are collected
  first, deduplicated by canonical shape (sorted lengths — see
  :mod:`repro.core.plan_cache`), and only the unique shapes are
  planned.  Work is dispatched per micro-batch, not per trial, so one
  slow trial cannot idle the other workers.
* **Plan cache.** Unique shapes are first resolved against an LRU
  :class:`~repro.core.plan_cache.PlanCache` that persists across
  ``solve()`` calls; recurring shapes (across trials of one solve and
  across iterations of a workload) skip the MILP entirely.  Hit/miss
  counters are reported per solve via
  :class:`~repro.core.types.SolveStats` on the returned
  :class:`IterationPlan`.
* **Persistent workers.** :class:`SolverPool` keeps one
  ``ProcessPoolExecutor`` alive across ``solve()`` calls and serves
  any number of (model, config) tenants; tasks carry the tenant's
  pickled context, which each worker unpickles (building its
  vectorized :class:`~repro.cost.model.CostTable`) once per tenant,
  not once per task.  A solver with ``workers > 1`` and no injected
  pool client plans on a private one-tenant :class:`SolverPool`.
* **Trial pruning.** Before any MILP runs, each trial gets a lower
  bound — the sum of its micro-batches'
  :func:`~repro.core.planner.makespan_lower_bound` — and an upper
  bound — the sum of its micro-batches' cached predictions, or greedy
  LPT predictions for uncached ones.  A trial whose lower bound
  exceeds the lowest trial upper bound (with a ``1e-9`` relative
  margin for float rounding) is dropped unplanned.  Pruning is exact:
  ``plan_microbatch`` never returns a plan worse than its greedy
  incumbent, so a dropped trial's exact total is strictly above the
  winner's, and the surviving trials yield the bit-identical plan.  It
  runs only for ``backend="milp"`` with the planner's
  ``greedy_incumbent`` (the guarantee needs the incumbent); greedy LPT
  costs a fraction of a HiGHS solve, so the greedy backend plans every
  trial as before.  :meth:`FlexSPSolver.pending_shapes` applies the
  same step, and :meth:`FlexSPSolver.is_warm` decides warmth from the
  bounds and cached predictions alone, without running a planner.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from repro.core import faults, pools, stage_timing
from repro.core.blaster import (
    DEFAULT_NUM_TRIALS,
    blast_multi,
    min_microbatch_count,
)
from repro.core.plan_cache import (
    DEFAULT_CAPACITY,
    INFEASIBLE,
    PlanCache,
    cache_context,
    canonical_shape,
)
from repro.core.planner import (
    PlanInfeasibleError,
    PlannerConfig,
    makespan_lower_bound,
    plan_microbatch,
)
from repro.core.planner_greedy import plan_microbatch_greedy
from repro.core.types import (
    IterationPlan,
    MicroBatchPlan,
    SequenceBatch,
    SolveStats,
)
from repro.cost.model import CostModel, cost_table

#: Registry of planner backends by name.
_BACKENDS = {
    "milp": plan_microbatch,
    "greedy": plan_microbatch_greedy,
}

#: Relative slack of the trial-pruning test: a trial is dropped only
#: when its summed lower bounds exceed the best trial upper bound by
#: more than float rounding in the sums could explain.
_PRUNE_MARGIN = 1.0 + 1e-9


def _predicted(entry) -> float:
    """A planning outcome's predicted seconds (``inf`` if infeasible)."""
    return math.inf if entry is INFEASIBLE else entry[1]


def _as_batch(batch: SequenceBatch | tuple[int, ...]) -> SequenceBatch:
    if isinstance(batch, SequenceBatch):
        return batch
    return SequenceBatch(lengths=tuple(batch))


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    Attributes:
        num_trials: Micro-batch-count trials M' (paper default 5).
        backend: ``"milp"`` (the paper's formulation, via HiGHS) or
            ``"greedy"`` (LPT heuristic fallback).
        planner: Per-micro-batch planner configuration.
        sort_sequences: Takeaway-2 sorting in the blaster; False gives
            the Fig. 7 "w/o Sort" ablation.
        workers: Process-pool width for parallel planning (1 = serial).
        plan_cache: Memoise micro-batch plans across trials and
            ``solve()`` calls (an LRU of ``DEFAULT_CAPACITY`` entries).
            Disabling restores the pre-cache behaviour of planning
            every micro-batch from scratch (the solver-throughput
            benchmark's reference path).
    """

    num_trials: int = DEFAULT_NUM_TRIALS
    backend: str = "milp"
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    sort_sequences: bool = True
    workers: int = 1
    plan_cache: bool = True

    def __post_init__(self) -> None:
        if self.num_trials <= 0:
            raise ValueError(f"num_trials must be positive, got {self.num_trials}")
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; options: {sorted(_BACKENDS)}"
            )
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")


#: Sentinel for a shape whose outcome has not been collected yet.
_PENDING = object()


def _plan_resumable(
    submit, close, count: int
) -> list[tuple[MicroBatchPlan, float] | None]:
    """Collect per-shape planning outcomes, surviving pool death
    mid-batch without replanning completed shapes.

    ``submit(indices)`` submits planner tasks for the given shape
    indices on a (lazily rebuilt) pool and returns aligned futures;
    ``close`` tears a broken pool down so the next ``submit`` rebuilds
    it.  Completed outcomes are kept across deaths — only
    still-missing indices are ever resubmitted, so the campaign
    prewarm resumes from the last completed shape instead of paying
    the whole batch again.  Each completed future's stage timings
    merge into the caller's open :mod:`~repro.core.stage_timing`
    frames exactly once (an index never runs twice, so eager merging
    cannot double-count the solve-level breakdown).

    ``RuntimeError`` from ``submit`` covers only the submission phase
    (a concurrently-closed pool); an exception raised *inside* a
    worker's planner is genuine and propagates immediately.  Two
    consecutive rounds without a single completed shape raise — the
    pool is dying faster than it plans, and retrying forever would
    hang the solve.
    """
    outcomes: list = [_PENDING] * count
    barren_rounds = 0
    while True:
        missing = [i for i, o in enumerate(outcomes) if o is _PENDING]
        if not missing:
            return outcomes
        try:
            futures = submit(missing)
        except (BrokenProcessPool, RuntimeError):
            barren_rounds += 1
            if barren_rounds >= 2:
                raise
            close()
            continue
        progressed = 0
        broken = False
        for index, future in zip(missing, futures):
            try:
                outcome, stages = future.result()
            except BrokenProcessPool:
                broken = True
                continue
            outcomes[index] = outcome
            stage_timing.merge(stages)
            progressed += 1
        if not broken:
            continue
        barren_rounds = 0 if progressed else barren_rounds + 1
        if barren_rounds >= 2:
            raise BrokenProcessPool(
                "planner pool died in consecutive rounds without "
                "completing a single shape"
            )
        close()


# ---------------------------------------------------------------------------
# Shared multi-tenant solver pool.  One ProcessPoolExecutor serves every
# (model, config) context of a sweep: tasks carry the context as a
# pre-pickled blob plus its digest, and each worker memoises the
# unpickled context by digest — so the model is deserialized once per
# (worker, context) rather than shipped through an initializer that
# would pin the pool to a single workload.
# ---------------------------------------------------------------------------

_POOL_CONTEXTS: dict[str, tuple[CostModel, PlannerConfig, str]] = {}


def _pool_initializer(fault_schedule=None) -> None:
    """Arm the parent's fault schedule (chaos runs only) in a shared-
    pool worker and visit the spawn injection point."""
    faults.arm(fault_schedule)
    faults.maybe_inject("spawn")


def _pool_plan(
    digest: str, blob: bytes, shape: tuple[int, ...]
) -> tuple[tuple[MicroBatchPlan, float] | None, dict[str, float]]:
    """Plan one micro-batch for one tenant context; ships the outcome
    (None if infeasible) plus the planner's stage timings."""
    state = _POOL_CONTEXTS.get(digest)
    if state is None:
        state = pickle.loads(blob)
        _POOL_CONTEXTS[digest] = state
        # Pre-build the vectorized cost table so every later task of
        # this context reuses it.
        cost_table(state[0])
    model, planner_config, backend = state
    faults.maybe_inject("plan")
    with stage_timing.collect() as stages:
        try:
            outcome = _BACKENDS[backend](shape, model, planner_config)
        except PlanInfeasibleError:
            outcome = None
    return outcome, stages


class PooledPlanner:
    """One tenant's view of a :class:`SolverPool`: ``plan_shapes``
    plans for this tenant's (model, config) context.  What a
    :class:`FlexSPSolver` plans through when it has a pool; the pool
    itself belongs to the :class:`SolverPool`, which many solvers may
    share.
    """

    __slots__ = ("pool", "digest", "_blob", "__weakref__")

    def __init__(self, pool: "SolverPool", digest: str, blob: bytes) -> None:
        self.pool = pool
        self.digest = digest
        self._blob = blob

    def plan_shapes(
        self, shapes: list[tuple[int, ...]]
    ) -> list[tuple[MicroBatchPlan, float] | None]:
        return self.pool.plan_shapes(self.digest, self._blob, shapes)


class SolverPool:
    """A persistent planner-worker pool shared across workloads.

    The library's one process pool: a ``SolverPool`` multiplexes every
    workload of a sweep (or every tenant of a plan service) over a
    single ``ProcessPoolExecutor``, and a lone solver with
    ``workers > 1`` plans on a private one.  Tenants are obtained with
    :meth:`client` and injected into :class:`FlexSPSolver`; planning
    outcomes are bit-identical to in-process planning because the
    workers run the same pure planner functions on an identically
    reconstructed cost model.

    Args:
        workers: Pool width; ``None`` uses the CPU count.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        #: Interned tenant handles, held weakly: a handle refers to its
        #: pool, so a strong map would make every pool with a client a
        #: reference cycle that only the cyclic collector could free.
        self._clients: weakref.WeakValueDictionary[str, PooledPlanner] = (
            weakref.WeakValueDictionary()
        )
        self._finalizer = None
        self._dispatched = 0

    @property
    def dispatched(self) -> int:
        """Planner tasks shipped to pool workers so far (a pool that
        never receives work is configured too wide)."""
        with self._lock:
            return self._dispatched

    def client(self, model: CostModel, config: SolverConfig) -> PooledPlanner:
        """The (interned) tenant handle for one (model, config) context."""
        # Ship a pristine copy: per-instance caches rebuild identically
        # in the workers.
        pristine = CostModel(
            coeffs=model.coeffs,
            cluster=model.cluster,
            comm_model=model.comm_model,
        )
        blob = pickle.dumps(
            (pristine, config.planner, config.backend),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        digest = hashlib.sha256(blob).hexdigest()
        with self._lock:
            client = self._clients.get(digest)
            if client is None:
                client = PooledPlanner(self, digest, blob)
                self._clients[digest] = client
            return client

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                # The initializer arms the parent's fault schedule in
                # each worker (a no-op outside chaos runs) so the
                # ``plan`` injection point is live pool-side too.
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_pool_initializer,
                    initargs=(faults.active_schedule(),),
                )
                self._finalizer = pools.track_pool(self, self._pool)
            return self._pool

    def plan_shapes(
        self, digest: str, blob: bytes, shapes: list[tuple[int, ...]]
    ) -> list[tuple[MicroBatchPlan, float] | None]:
        """Plan every shape for one tenant, dispatching at micro-batch
        granularity.

        A dead worker poisons a ``ProcessPoolExecutor`` permanently
        (every later submit raises ``BrokenProcessPool``), and a
        concurrent ``close()`` can shut the pool down mid-submit
        (``RuntimeError: cannot schedule new futures``) — in either
        case the pool is rebuilt and only the **still-missing** shapes
        are resubmitted (see :func:`_plan_resumable`): outcomes
        already collected before the death survive, so a mid-batch
        crash never replans completed work.  Worker exceptions are
        genuine and propagate without retry.
        """

        def _submit(indices: list[int]) -> list:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_pool_plan, digest, blob, shapes[i])
                for i in indices
            ]
            with self._lock:
                self._dispatched += len(futures)
            return futures

        return _plan_resumable(_submit, self.close, len(shapes))

    def close(self) -> None:
        """Shut the shared pool down (the next use restarts it lazily).

        Tenant handles stay valid — worker-side context caches are
        rebuilt from the blobs on the next dispatch.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            finalizer, self._finalizer = self._finalizer, None
        if pool is not None:
            pool.shutdown()
        if finalizer is not None:
            finalizer()  # retires the pool from the exit registry too

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FlexSPSolver:
    """Produces iteration plans for global batches (Fig. 3's solver box).

    The solver owns a cross-call plan cache and (when ``workers > 1``
    and no pool client is injected) a private :class:`SolverPool`;
    both live as long as the solver object, so a long-running
    deployment amortises process startup and re-planning across every
    batch it serves.  A resident front-end
    (:class:`repro.service.PlanService`) keeps one such solver per
    tenant, all planning on one shared :class:`SolverPool`, and
    classifies requests warm/cold with the :meth:`is_warm` /
    :meth:`pending_shapes` probes.

    Args:
        model: Fitted cost model for the target (model, cluster).
        config: Solver knobs; defaults match the paper.
        service: Optional injected :class:`PooledPlanner` tenant of
            a shared :class:`SolverPool`, so many workloads' solvers
            fan their planning onto one pool instead of each nesting
            its own.  When provided, it is used whenever a solve has
            several shapes to plan (regardless of ``config.workers``,
            which sizes only the solver's private pool) and its pool
            is **not** closed by this solver — its lifetime belongs to
            the injector.
    """

    def __init__(
        self,
        model: CostModel,
        config: SolverConfig | None = None,
        service: PooledPlanner | None = None,
    ) -> None:
        self.model = model
        self.config = config or SolverConfig()
        self.cache: PlanCache | None = (
            PlanCache(DEFAULT_CAPACITY) if self.config.plan_cache else None
        )
        self._context = cache_context(
            model, self.config.planner, self.config.backend
        )
        #: The private pool of a ``workers > 1`` solver without an
        #: injected client; it starts its processes on first use.
        self._own_pool: SolverPool | None = None
        if service is None and self.config.workers > 1:
            self._own_pool = SolverPool(self.config.workers)
            service = self._own_pool.client(model, self.config)
        self._service = service
        #: Whether solves run the trial-pruning step (module docstring).
        self._prunes = (
            self.config.backend == "milp" and self.config.planner.greedy_incumbent
        )
        # solve() may be called from several threads at once (the
        # pipeline prefetches with a thread pool); the cache locks
        # internally, but the blast memo needs this guard.
        self._memo_lock = threading.Lock()
        #: Tiny LRU of planner-ready trial keys per batch — a probe
        #: (pending_shapes, is_warm) and the following solve() share
        #: one DP and one canonicalization.
        self._trial_memo: OrderedDict[
            tuple[int, ...],
            tuple[list[int], list[list[tuple[int, ...]] | None]],
        ] = OrderedDict()

    @property
    def context(self):
        """The interned :class:`~repro.core.plan_cache.CacheContext`
        this solver keys its plan cache with.

        Callers seeding the cache externally (the cache store's
        preload) must key entries with *this* object — an equal but
        distinct context would defeat the identity fast path every
        hot-loop lookup relies on.
        """
        return self._context

    def minimum_microbatches(self, batch: SequenceBatch) -> int:
        """``M_min`` for this batch on this cluster (takeaway 1).

        The whole theoretical cluster token capacity counts as usable;
        the trial loop skips counts whose micro-batches turn out
        unplannable.
        """
        return min_microbatch_count(
            batch.total_tokens, self.model.cluster_token_capacity()
        )

    def _trial_keys(
        self, batch: SequenceBatch
    ) -> tuple[list[int], list[list[tuple[int, ...]] | None]]:
        """Every trial's micro-batches as the planner receives them —
        canonical (the cache key) when caching, else raw — from one
        shared balanced-cut DP for the whole trial sweep (the layers are
        count-independent, see :func:`~repro.core.blaster.blast_multi`).
        ``None`` slots mark counts that cannot split the batch.

        Memoised on the batch's lengths (small LRU): the campaign
        prewarmer's :meth:`pending_shapes` and the plan service's
        :meth:`is_warm` are each followed by a :meth:`solve` of the same
        batch, and the blast and canonicalization are pure, so the
        repeat is served from the memo bit-identically.  Callers must
        not mutate the returned lists.
        """
        key = batch.lengths
        memo = self._trial_memo
        with self._memo_lock:
            cached = memo.get(key)
            if cached is not None:
                memo.move_to_end(key)
                return cached
        m_min = self.minimum_microbatches(batch)
        trials = [
            m
            for m in range(m_min, m_min + self.config.num_trials)
            if m <= len(batch.lengths)
        ]
        if not trials:
            trials = [len(batch.lengths)]
        blasted = blast_multi(batch, trials, sort=self.config.sort_sequences)
        planner_shape = tuple if self.cache is None else canonical_shape
        keys: list[list[tuple[int, ...]] | None] = [
            [planner_shape(mb.lengths) for mb in blasted[m]]
            if m in blasted
            else None
            for m in trials
        ]
        with self._memo_lock:
            memo[key] = (trials, keys)
            while len(memo) > 16:
                memo.popitem(last=False)
        return trials, keys

    def pending_shapes(
        self, batch: SequenceBatch | tuple[int, ...]
    ) -> list[tuple[int, ...]]:
        """Canonical micro-batch shapes a :meth:`solve` of ``batch``
        would have to plan from scratch right now.

        The campaign-level cold-batching hook: the sweep runner asks
        every cold cell for its pending shapes up front, dedups them
        across cells *at planner-call granularity*, and dispatches the
        union in sorted-shape order (see ``SweepRunner``).  Pure
        inspection — nothing is stored, and the cache is probed
        without touching its hit/miss counters or LRU order, so a
        later ``solve()`` reports the same statistics it would have
        cold.  Trials the pruning step drops contribute no shapes (for
        their upper bounds the step may run the greedy planner on
        uncached shapes, exactly as the cold solve would).  Returns
        sorted shapes ((length count, lengths) order — the order that
        maximises MILP skeleton reuse, which is keyed on bucket/degree
        structure).  Without a plan cache there is nothing to seed, so
        the result is empty.
        """
        if self.cache is None:
            return []
        __, keys = self._trial_keys(_as_batch(batch))
        missing: set[tuple[int, ...]] = set()
        for shapes, live in zip(keys, self._live_trials(keys)):
            if not live:
                continue
            for shape in shapes:
                if shape in missing:
                    continue
                if self.cache.peek((shape, self._context)) is None:
                    missing.add(shape)
        return sorted(missing, key=lambda s: (len(s), s))

    def is_warm(self, batch: SequenceBatch | tuple[int, ...]) -> bool:
        """Whether a :meth:`solve` of ``batch`` would be answered
        entirely from the plan cache (no planner calls).

        Pure probe, like :meth:`pending_shapes` — no counters move, no
        LRU order changes — so a resident front-end (the plan service)
        can classify a request as warm/cold at admission time without
        perturbing the statistics the eventual solve will report.
        Always False without a plan cache: every solve plans afresh.

        Runs no planner, even where solves prune trials: a batch is
        warm when every trial the best fully cached trial's exact
        total does not prune is fully cached itself.  That equals
        ``not pending_shapes(batch)``: if no shape is pending, the
        trial with the lowest upper bound is fully cached, so its exact
        total is the lowest upper bound and prunes the same trials.
        """
        if self.cache is None:
            return False
        if not self._prunes:
            return not self.pending_shapes(batch)
        __, keys = self._trial_keys(_as_batch(batch))
        lower, exact = self._trial_bounds(keys)
        best = min((t for t in exact if t is not None), default=math.inf)
        return all(
            exact[i] is not None
            for i, shapes in enumerate(keys)
            if shapes is not None and lower[i] <= _PRUNE_MARGIN * best
        )

    def _trial_bounds(
        self, keys: list[list[tuple[int, ...]] | None]
    ) -> tuple[list[float], list[float | None]]:
        """Per trial: the summed makespan lower bounds, and the exact
        total when every micro-batch is cached (``inf`` when one is
        cached infeasible; None while any is uncached)."""
        bounds: dict[tuple[int, ...], float] = {}
        lower: list[float] = []
        exact: list[float | None] = []
        for shapes in keys:
            if shapes is None:
                lower.append(math.inf)
                exact.append(None)
                continue
            low = 0.0
            total: float | None = 0.0
            for shape in shapes:
                bound = bounds.get(shape)
                if bound is None:
                    bound = bounds[shape] = makespan_lower_bound(
                        self.model, shape
                    )
                low += bound
                if total is not None:
                    entry = self._peek(shape)
                    total = None if entry is None else total + _predicted(entry)
            lower.append(low)
            exact.append(total)
        return lower, exact

    def _peek(self, shape: tuple[int, ...]):
        """The cached entry for a planner-ready shape, side-effect free."""
        if self.cache is None:
            return None
        return self.cache.peek((shape, self._context))

    def _live_trials(
        self, keys: list[list[tuple[int, ...]] | None]
    ) -> list[bool]:
        """The trial-pruning step: which trials :meth:`solve` plans.

        A trial is dropped when its summed lower bounds exceed
        ``_PRUNE_MARGIN`` times the lowest trial upper bound (module
        docstring).  A fully cached trial's upper bound is its exact
        total; any other trial sums cached predictions and greedy LPT
        predictions of its uncached shapes.  Greedy runs only for
        trials the best upper bound so far does not already prune —
        never the trial holding the lowest upper bound, whose own lower
        bound is below it — so the result equals bounding every trial.
        Slots that cannot split the batch (None) are never live.
        """
        live = [shapes is not None for shapes in keys]
        if not self._prunes or sum(live) < 2:
            return live
        lower, exact = self._trial_bounds(keys)
        upper = min((t for t in exact if t is not None), default=math.inf)
        greedy: dict[tuple[int, ...], object] = {}
        for shapes, low, cached_total in zip(keys, lower, exact):
            if shapes is None or cached_total is not None:
                continue
            if low > _PRUNE_MARGIN * upper:
                continue
            total = 0.0
            for shape in shapes:
                entry = self._peek(shape) or greedy.get(shape)
                if entry is None:
                    try:
                        entry = plan_microbatch_greedy(
                            shape, self.model, self.config.planner
                        )
                    except PlanInfeasibleError:
                        entry = INFEASIBLE
                    greedy[shape] = entry
                total += _predicted(entry)
            upper = min(upper, total)
        return [ok and low <= _PRUNE_MARGIN * upper for ok, low in zip(live, lower)]

    def plan_shapes_cold(
        self, shapes: list[tuple[int, ...]]
    ) -> list[tuple[MicroBatchPlan, float] | None]:
        """Plan ``shapes`` exactly as a solve's cache misses would —
        in-process or on the injected pool/service — without reading
        or writing the plan cache.  Pair with :meth:`seed_plan`."""
        return self._plan_missing(list(shapes))

    def seed_plan(
        self,
        shape: tuple[int, ...],
        outcome: tuple[MicroBatchPlan, float] | None,
    ) -> None:
        """Store one planning outcome (``None`` = infeasible) under
        this solver's interned cache context.  Seeded entries are
        indistinguishable from entries a solve stored itself —
        bit-identical plans, same eviction order semantics."""
        if self.cache is None:
            return
        self.cache.store(
            (canonical_shape(shape), self._context),
            None if outcome is None else outcome[0],
            None if outcome is None else outcome[1],
        )

    def solve(self, batch: SequenceBatch | tuple[int, ...]) -> IterationPlan:
        """Alg. 1: sweep micro-batch counts and return the best plan.

        Raises:
            PlanInfeasibleError: No trial produced a feasible plan —
                e.g. a sequence larger than the whole cluster's memory.
        """
        started = time.perf_counter()
        batch = _as_batch(batch)
        with stage_timing.collect() as stages:
            trials, keys = self._trial_keys(batch)

            # Resolve the live trials' shapes.  With the cache enabled,
            # shapes are canonicalized and deduplicated (within the
            # solve and against prior solves); with it disabled, every
            # occurrence is planned from scratch — the faithful
            # pre-cache reference path.  Each trial keeps a slot per
            # micro-batch: a cache key when caching, else an index into
            # the planning list.  Pruned trials are never resolved.
            resolved: dict[tuple, object] = {}
            to_plan: list[tuple[int, ...]] = []
            trial_slots: list[list[object] | None] = []
            cache_hits = 0
            dedup_hits = 0
            total_microbatches = 0
            pruned_trials = 0
            pruned_microbatches = 0
            for shapes, live in zip(keys, self._live_trials(keys)):
                if shapes is not None:
                    total_microbatches += len(shapes)
                if not live:
                    if shapes is not None:
                        pruned_trials += 1
                        pruned_microbatches += len(shapes)
                    trial_slots.append(None)
                    continue
                slots: list[object] = []
                for shape in shapes:
                    if self.cache is None:
                        slots.append(len(to_plan))
                        to_plan.append(shape)
                        continue
                    key = (shape, self._context)
                    slots.append(key)
                    if key in resolved:
                        dedup_hits += 1
                        continue
                    entry = self.cache.lookup(key)
                    if entry is not None:
                        resolved[key] = entry
                        cache_hits += 1
                        continue
                    resolved[key] = None  # pending
                    to_plan.append(key[0])  # canonical sorted lengths
                trial_slots.append(slots)

            outcomes = self._plan_missing(to_plan)
        entries = [
            INFEASIBLE if outcome is None else outcome for outcome in outcomes
        ]
        if self.cache is not None:
            for shape, outcome, entry in zip(to_plan, outcomes, entries):
                key = (shape, self._context)
                resolved[key] = entry
                self.cache.store(
                    key,
                    None if outcome is None else outcome[0],
                    None if outcome is None else outcome[1],
                )

        best: tuple[float, list[MicroBatchPlan]] | None = None
        for slots in trial_slots:
            if slots is None:
                continue
            total = 0.0
            plans: list[MicroBatchPlan] = []
            for slot in slots:
                entry = entries[slot] if isinstance(slot, int) else resolved[slot]
                if entry is INFEASIBLE:
                    plans = []
                    break
                plan, predicted = entry
                plans.append(plan)
                total += predicted
            if not plans:
                continue
            if best is None or total < best[0]:
                best = (total, plans)

        if best is None:
            raise PlanInfeasibleError(
                f"no feasible plan for batch of {batch.total_tokens} tokens "
                f"with micro-batch counts {trials}"
            )
        total, plans = best
        stats = SolveStats(
            cache_hits=cache_hits,
            dedup_hits=dedup_hits,
            cache_misses=len(to_plan),
            trials=len(trials),
            microbatches=total_microbatches,
            pruned_trials=pruned_trials,
            pruned_microbatches=pruned_microbatches,
            solve_seconds=time.perf_counter() - started,
            **{
                f"{stage}_seconds": stages.get(stage, 0.0)
                for stage in stage_timing.STAGES
            },
        )
        return IterationPlan(
            microbatches=tuple(plans),
            predicted_time=total,
            solver_name=f"flexsp-{self.config.backend}",
            stats=stats,
        )

    def _plan_missing(
        self, shapes: list[tuple[int, ...]]
    ) -> list[tuple[MicroBatchPlan, float] | None]:
        """Plan uncached shapes — in-process, or on the solver pool."""
        if not shapes:
            return []
        if self._service is not None and len(shapes) > 1:
            return self._service.plan_shapes(shapes)
        planner = _BACKENDS[self.config.backend]
        outcomes: list[tuple[MicroBatchPlan, float] | None] = []
        for shape in shapes:
            try:
                outcomes.append(planner(shape, self.model, self.config.planner))
            except PlanInfeasibleError:
                outcomes.append(None)
        return outcomes

    def close(self) -> None:
        """Shut the private pool down (kept plans/cache remain valid;
        a later pooled solve restarts it lazily).

        An injected client's pool is left running — it belongs to
        whoever shared it (e.g. a sweep's :class:`SolverPool`).
        """
        if self._own_pool is not None:
            self._own_pool.close()

    def __enter__(self) -> "FlexSPSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def ablated(self, **changes) -> "FlexSPSolver":
        """Copy of this solver with config fields replaced.

        Convenience for the Fig. 7 ablations, e.g.
        ``solver.ablated(sort_sequences=False)`` or
        ``solver.ablated(planner=replace(cfg.planner, bucketing="naive"))``.
        An injected shared-pool tenant is re-derived for the new config
        so ablated solvers keep planning on the same :class:`SolverPool`;
        a private pool is not shared (the copy gets its own).
        """
        config = replace(self.config, **changes)
        service = None
        if self._service is not None and self._own_pool is None:
            service = self._service.pool.client(self.model, config)
        return FlexSPSolver(self.model, config, service=service)
