"""Plan data structures shared by the solver, baselines and executor.

An :class:`IterationPlan` is the contract between planning and
execution: a list of micro-batches, each a set of SP groups running
*concurrently*, each group owning a disjoint slice of devices and a
multiset of sequences it processes as one packed varlen batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

_LENGTHS = attrgetter("lengths")


class InfeasibleWorkloadError(ValueError):
    """A (workload, strategy) configuration that cannot be scheduled.

    Raised by the baseline planners/tuners when a batch exceeds the
    memory capacity of the requested configuration — the paper's "OOM"
    table corners.  Subclasses ``ValueError`` for backward
    compatibility with callers that catch broadly; sweep machinery
    catches *this* type (plus the solver's ``PlanInfeasibleError``)
    so genuine programming errors are never misreported as OOM cells.
    """


@dataclass(frozen=True, slots=True)
class SolveStats:
    """Counters describing how one solver ``solve()`` did its work.

    Attributes:
        cache_hits: Micro-batches served from the cross-solve plan
            cache (first encounter in this solve, found cached).
        dedup_hits: Duplicate micro-batch shapes within this solve,
            resolved by reuse without a cache lookup or planner call.
        cache_misses: Shapes that required a planner invocation.
        trials: Micro-batch-count trials attempted, pruned ones
            included.
        microbatches: Total micro-batches across all trials; always
            ``cache_hits + dedup_hits + cache_misses +
            pruned_microbatches``.
        pruned_trials: Trials the solver's pruning step dropped
            unplanned, their makespan lower bound being above another
            trial's upper bound (see :mod:`repro.core.solver`).
        pruned_microbatches: Micro-batches of the pruned trials; they
            are neither looked up nor planned.
        solve_seconds: Wall-clock of the solve, when measured.
        enumerate_seconds: Wall-clock spent enumerating/pruning
            candidate layouts, bucketing and building the virtual
            group universe (the cold path's first stage).
        lpt_seconds: Wall-clock spent in the stacked/scalar LPT
            placement passes.
        milp_build_seconds: Wall-clock spent assembling MILP value
            blocks and bounds onto the cached constraint skeleton.
        milp_solve_seconds: Wall-clock spent inside HiGHS.

    The four stage counters are host wall-clock like
    ``solve_seconds`` — never part of any bit-identical contract —
    and cover planner work wherever it ran (in-process or on a
    service/pool worker; see :mod:`repro.core.stage_timing`).
    """

    cache_hits: int = 0
    dedup_hits: int = 0
    cache_misses: int = 0
    trials: int = 0
    microbatches: int = 0
    pruned_trials: int = 0
    pruned_microbatches: int = 0
    solve_seconds: float = 0.0
    enumerate_seconds: float = 0.0
    lpt_seconds: float = 0.0
    milp_build_seconds: float = 0.0
    milp_solve_seconds: float = 0.0

    @property
    def planner_calls(self) -> int:
        """Planner invocations actually executed (one per miss)."""
        return self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of the resolved (not pruned) micro-batches that
        skipped a planner call (served from the plan cache or by
        intra-solve dedup)."""
        reused = self.cache_hits + self.dedup_hits
        total = reused + self.cache_misses
        if total == 0:
            return 0.0
        return reused / total

    def merged(self, other: "SolveStats") -> "SolveStats":
        """Counter-wise sum (for aggregating across solves)."""
        return SolveStats(
            cache_hits=self.cache_hits + other.cache_hits,
            dedup_hits=self.dedup_hits + other.dedup_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            trials=self.trials + other.trials,
            microbatches=self.microbatches + other.microbatches,
            pruned_trials=self.pruned_trials + other.pruned_trials,
            pruned_microbatches=(
                self.pruned_microbatches + other.pruned_microbatches
            ),
            solve_seconds=self.solve_seconds + other.solve_seconds,
            enumerate_seconds=self.enumerate_seconds + other.enumerate_seconds,
            lpt_seconds=self.lpt_seconds + other.lpt_seconds,
            milp_build_seconds=(
                self.milp_build_seconds + other.milp_build_seconds
            ),
            milp_solve_seconds=(
                self.milp_solve_seconds + other.milp_solve_seconds
            ),
        )

    def stage_seconds(self) -> dict[str, float]:
        """The cold-path stage breakdown as an ordered dict (the
        ``--profile`` report's unit).  Driven by
        :data:`repro.core.stage_timing.STAGES` — each stage name maps
        onto its ``<stage>_seconds`` field, so the vocabulary cannot
        drift from the collectors'."""
        from repro.core.stage_timing import STAGES

        return {stage: getattr(self, f"{stage}_seconds") for stage in STAGES}


@dataclass(frozen=True, slots=True)
class SequenceBatch:
    """An ordered collection of raw sequence lengths to plan over."""

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.lengths:
            raise ValueError("a sequence batch must be non-empty")
        if any(s <= 0 for s in self.lengths):
            raise ValueError("sequence lengths must be positive")

    @property
    def total_tokens(self) -> int:
        return int(sum(self.lengths))

    @property
    def max_length(self) -> int:
        return int(max(self.lengths))

    def sorted(self) -> "SequenceBatch":
        """Ascending-length copy (the blaster's takeaway-2 ordering)."""
        return SequenceBatch(lengths=tuple(sorted(self.lengths)))


@dataclass(frozen=True, slots=True)
class GroupAssignment:
    """One SP group in one micro-batch, with its workload.

    Attributes:
        degree: SP degree (group size), a power of two.
        device_ranks: The devices forming the group; contiguous and
            neighbour-aligned under canonical placement.
        lengths: Sequence lengths assigned to this group.  The group
            processes them as a single packed varlen input.
    """

    degree: int
    device_ranks: tuple[int, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree <= 0 or self.degree & (self.degree - 1) != 0:
            raise ValueError(f"SP degree must be a power of two, got {self.degree}")
        if len(self.device_ranks) != self.degree:
            raise ValueError(
                f"group of degree {self.degree} must own exactly that many "
                f"devices, got {len(self.device_ranks)}"
            )
        # ``min`` settles the common case; the loop runs only when it
        # does not (a length at or below zero, a NaN first, lengths
        # ``min`` cannot order), so it raises what it always raised.
        lengths = self.lengths
        try:
            positive = not lengths or min(lengths) > 0
        except (TypeError, ValueError):
            positive = False
        if not positive and any(s <= 0 for s in lengths):
            raise ValueError("assigned sequence lengths must be positive")

    @property
    def tokens(self) -> int:
        """Total tokens this group processes."""
        return int(sum(self.lengths))

    @property
    def tokens_per_device(self) -> float:
        """Resident tokens per member device."""
        return self.tokens / self.degree


@dataclass(frozen=True, slots=True)
class MicroBatchPlan:
    """SP groups that execute concurrently for one micro-batch.

    Groups may be heterogeneous in degree — the paper's key departure
    from prior systems — but must occupy disjoint devices.  Empty
    groups are permitted only transiently inside the planner and are
    dropped before a plan is finalised.
    """

    groups: tuple[GroupAssignment, ...]

    def __post_init__(self) -> None:
        groups = self.groups
        if not groups:
            raise ValueError("a micro-batch plan needs at least one group")
        # Disjoint groups have as many distinct ranks as ranks; only a
        # repeat (or an unhashable rank) pays the per-rank loop, which
        # raises what it always raised.
        seen: set[int] = set()
        owned = 0
        try:
            for g in groups:
                seen.update(g.device_ranks)
                owned += len(g.device_ranks)
        except TypeError:
            owned = -1
        if len(seen) != owned:
            seen = set()
            for g in groups:
                for r in g.device_ranks:
                    if r in seen:
                        raise ValueError(
                            f"device rank {r} appears in more than one SP group"
                        )
                    seen.add(r)
        if not all(map(_LENGTHS, groups)):
            raise ValueError("finalised plans must not contain empty groups")

    @property
    def devices_used(self) -> int:
        return sum(g.degree for g in self.groups)

    @property
    def tokens(self) -> int:
        return sum(g.tokens for g in self.groups)

    @property
    def num_sequences(self) -> int:
        return sum(len(g.lengths) for g in self.groups)

    def degree_histogram(self) -> dict[int, int]:
        """Count of groups per SP degree, e.g. ``{32: 1, 8: 4}``."""
        hist: dict[int, int] = {}
        for g in self.groups:
            hist[g.degree] = hist.get(g.degree, 0) + 1
        return hist

    def layout(self) -> str:
        """Table-3-style layout string, e.g. ``"<32, 8 x 4>"``."""
        hist = self.degree_histogram()
        parts = []
        for degree in sorted(hist, reverse=True):
            count = hist[degree]
            parts.append(f"{degree} x {count}" if count > 1 else f"{degree}")
        return "<" + ", ".join(parts) + ">"


@dataclass(frozen=True, slots=True)
class IterationPlan:
    """The full plan for one training step.

    Attributes:
        microbatches: Executed sequentially with gradient accumulation.
        predicted_time: The solver's estimate of execution seconds
            (sum over micro-batches of the planner objective), if known.
        solver_name: Which planner produced this plan.
        stats: Solver-side counters (plan-cache hits/misses, planner
            calls) recorded by the solve that produced this plan; None
            for plans from baselines or deserialised without stats.
    """

    microbatches: tuple[MicroBatchPlan, ...]
    predicted_time: float | None = None
    solver_name: str = "flexsp"
    stats: SolveStats | None = None

    def __post_init__(self) -> None:
        if not self.microbatches:
            raise ValueError("an iteration plan needs at least one micro-batch")

    @property
    def num_microbatches(self) -> int:
        return len(self.microbatches)

    @property
    def tokens(self) -> int:
        return sum(mb.tokens for mb in self.microbatches)

    @property
    def num_sequences(self) -> int:
        return sum(mb.num_sequences for mb in self.microbatches)

    def layouts(self) -> list[str]:
        """Per-micro-batch layout strings (Table 3 format)."""
        return [mb.layout() for mb in self.microbatches]

    def assignment_by_degree(self) -> dict[int, list[int]]:
        """All sequence lengths grouped by the SP degree serving them.

        This is the Fig. 5b view: which lengths went to which degree.
        """
        result: dict[int, list[int]] = {}
        for mb in self.microbatches:
            for g in mb.groups:
                result.setdefault(g.degree, []).extend(g.lengths)
        return result
