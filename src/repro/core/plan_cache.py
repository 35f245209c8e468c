"""Cross-trial and cross-iteration micro-batch plan memoisation.

The solver loop (Alg. 1) re-solves near-identical subproblems
constantly: within one ``solve()``, adjacent micro-batch-count trials
blast the *same sorted batch* into contiguous segments, so segments
recur verbatim across trials (and within a trial whenever the batch
contains runs of equal lengths); across training iterations, corpora
with quantised or recurring length mixes reproduce whole micro-batch
shapes.  Every recurrence would otherwise pay a full MILP solve.

Cache keys and the bucket signature (S4.1.3): the planner is a pure
function of the micro-batch's *length multiset* plus the cost model
and planner knobs — bucketing (Eqs. 15-16) runs over the sorted unique
lengths, so equal multisets yield the same (bucket-upper, count)
signature, the same MILP instance, and the same plan.  The canonical
key is therefore the sorted length tuple together with the cost-model
and planner-config signatures; it subsumes the coarser bucket-upper
signature while remaining exact (two batches with equal bucket
signatures but different members must *not* share a plan, since plans
carry the actual lengths).  The greedy LPT planner reads no planner
knob, so its keys leave the config out (:func:`planner_knobs`) and
solvers differing only in knobs it ignores — the Fig. 7 bucketing
ablations — share their plans.

Infeasibility is cached too: a micro-batch proven unplannable stays
unplannable for the same model and knobs, so repeat trials skip the
doomed solve.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence as SequenceABC

from repro.core.planner import PlannerConfig
from repro.core.types import MicroBatchPlan, SolveStats
from repro.cost.model import CostModel

__all__ = [
    "DEFAULT_CAPACITY",
    "INFEASIBLE",
    "CacheContext",
    "PlanCache",
    "SolveStats",  # re-exported from types for convenience
    "cache_context",
    "canonical_shape",
    "model_signature",
    "plan_key",
    "planner_knobs",
]

#: Default maximum number of memoised micro-batch plans.
DEFAULT_CAPACITY = 4096

#: Sentinel cached for micro-batches proven infeasible.
INFEASIBLE = "infeasible"


class CacheContext:
    """Interned (model, planner-config, backend) identity with a
    precomputed hash.

    Plan-cache keys embed deeply nested frozen dataclasses (cost
    coefficients, cluster, network specs) whose ``__hash__`` walks
    every field on each dict operation; a solver performs thousands of
    lookups per solve, so the context part of the key is wrapped once
    and its hash cached.  Dict lookups against the same context object
    short-circuit on identity.
    """

    __slots__ = ("signature", "_hash")

    def __init__(self, signature: tuple) -> None:
        self.signature = signature
        self._hash = hash(signature)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, CacheContext) and self.signature == other.signature
        )


def planner_knobs(
    planner_config: PlannerConfig, backend: str
) -> PlannerConfig | None:
    """The part of ``planner_config`` a ``backend`` plan depends on:
    all of it for the MILP, none of it for greedy LPT."""
    return None if backend == "greedy" else planner_config


def cache_context(
    model: CostModel, planner_config: PlannerConfig, backend: str
) -> CacheContext:
    """Build the interned context half of a plan-cache key."""
    return CacheContext(
        (model_signature(model), planner_knobs(planner_config, backend), backend)
    )


def model_signature(model: CostModel) -> tuple:
    """Hashable identity of a cost model for cache keying.

    Coefficients, cluster shape, and the communication flavour fully
    determine every planner decision; the mutable per-instance caches
    are deliberately excluded.
    """
    return (model.coeffs, model.cluster, model.comm_model)


def canonical_shape(lengths: SequenceABC[int]) -> tuple[int, ...]:
    """The canonical (sorted) form of a micro-batch's length multiset.

    Both planner backends are order-insensitive, so this is the exact
    equivalence class a cached plan is valid for.  Every key producer
    — :func:`plan_key` and the solver's hot path — must yield this
    form.  The solver keys a sorted blast's segments as they are: they
    are sorted tuples of Python ints already
    (:func:`~repro.core.blaster.blast_multi`).
    """
    return tuple(sorted(int(s) for s in lengths))


def plan_key(
    lengths: SequenceABC[int],
    model: CostModel,
    planner_config: PlannerConfig,
    backend: str,
    context: CacheContext | None = None,
) -> tuple:
    """Canonical cache key of one micro-batch planning problem.

    Callers issuing many lookups should pass a prebuilt ``context``
    (see :func:`cache_context`) so the model/config half of the key is
    hashed once instead of per lookup.
    """
    if context is None:
        context = cache_context(model, planner_config, backend)
    return (canonical_shape(lengths), context)


class PlanCache:
    """LRU memo of micro-batch plans keyed by :func:`plan_key`.

    Values are ``(plan, predicted_seconds)`` pairs, or
    :data:`INFEASIBLE` for shapes proven unplannable.  Eviction is
    least-recently-used.  Operations take an internal lock, so one
    cache may serve concurrent ``solve()`` calls (the pipeline's
    prefetching thread pool shares a solver); two threads planning the
    same uncached shape at once is benign — both store the same plan.

    Args:
        capacity: Maximum retained entries (None = unbounded).
    """

    def __init__(self, capacity: int | None = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, keys: SequenceABC[tuple]) -> list:
        """The cached entry for each key — ``(plan, predicted)``,
        :data:`INFEASIBLE`, or None on a miss — in one locked pass.

        Each key counts a hit (and becomes most recently used) or a
        miss in order, so counters and LRU order end as looking the
        keys up one at a time would leave them."""
        with self._lock:
            entries = self._entries
            found = [entries.get(key) for key in keys]
            hits = 0
            for key, entry in zip(keys, found):
                if entry is not None:
                    entries.move_to_end(key)
                    hits += 1
            self.hits += hits
            self.misses += len(found) - hits
        return found

    def lookup_all(self, keys: SequenceABC[tuple]) -> list | None:
        """:meth:`lookup` when every key is cached, else None, in one
        locked pass: a hit for each key (each becomes most recently
        used, in order), or — when any key is missing — no counter
        and no LRU move at all.  The warm answer's all-or-nothing
        resolve (:meth:`~repro.core.solver.FlexSPSolver.warm_plan`)."""
        with self._lock:
            entries = self._entries
            found = list(map(entries.get, keys))
            if None in found:
                return None
            move = entries.move_to_end
            for key in keys:
                move(key)
            self.hits += len(found)
        return found

    def peek(self, keys: SequenceABC[tuple]) -> list:
        """Like :meth:`lookup` but with zero side effects: no hit/miss
        counting, no LRU reordering.  The cold-path prewarmer and the
        warm probes use this so probing for missing shapes cannot
        change what a later ``solve()`` observes or reports."""
        with self._lock:
            entries = self._entries
            return [entries.get(key) for key in keys]

    def store(
        self, key: tuple, plan: MicroBatchPlan | None, predicted: float | None
    ) -> None:
        """Memoise a planning outcome (``plan=None`` marks infeasible)."""
        with self._lock:
            if plan is None:
                self._entries[key] = INFEASIBLE
            else:
                self._entries[key] = (plan, predicted)
            self._entries.move_to_end(key)
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)

    def snapshot(self) -> list[tuple[tuple, object]]:
        """A consistent copy of every entry, LRU order (oldest first).

        Entries are ``(key, (plan, predicted))`` or
        ``(key, INFEASIBLE)`` pairs.  This is the spill surface of
        :mod:`repro.core.cache_store`: the list can be persisted and
        replayed through :meth:`store` to reconstruct an equivalent
        cache (same entries, same LRU order) in another process.
        Hit/miss counters are *not* part of the snapshot — a restored
        cache starts cold on statistics, warm on content.
        """
        with self._lock:
            return list(self._entries.items())
