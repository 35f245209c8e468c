"""Greedy fallback planner.

A fast heuristic alternative to the MILP: enumerate a small family of
plausible group *layouts* (partitions of the cluster into power-of-two
SP groups) and, for each, assign sequences longest-first to the group
whose finish time stays smallest (LPT scheduling) subject to memory.
Used when the MILP backend is disabled, as a MILP warm-start quality
reference, and in the solver-ablation benchmark.

Layout family: for the minimal degree ``d_big`` that fits the longest
sequence, try every fill degree ``f`` — the layout is one ``d_big``
group plus ``(N - d_big) / f`` groups of degree ``f`` — as well as the
uniform all-``f`` layouts for every feasible ``f``.

Cold-path engine (the first-time-solve pipeline):

* **Memoised enumeration.**  The family depends only on ``(d_big,
  N)`` — the longest sequence's memory class — so the layouts and
  their stacked arrays are enumerated once per class and cached on the
  model's :class:`~repro.cost.model.CostTable`
  (:attr:`~repro.cost.model.CostTable.layout_stacks`).
* **Dominance pruning.**  Before any LPT work, layouts that provably
  cannot win are dropped: a layout whose total token capacity is below
  the micro-batch (pigeonhole-infeasible) or whose largest per-group
  capacity cannot host the longest sequence.  Pruning is *lossless* —
  every dropped layout would have returned ``None`` from the LPT pass,
  so the surviving family yields bit-identical best layouts and
  makespans (property-tested in
  ``tests/test_property_planner_pruning.py``).
* **Stacked LPT.**  All surviving layouts' LPT placements are
  evaluated in one numpy pass over a padded ``(layouts, groups)``
  lane matrix — one elementwise kernel evaluation per placed sequence
  for the *whole family* instead of a Python loop per layout.  The
  incremental per-lane work/token sums accumulate in the same order
  as the scalar model's sequential ``sum``, so makespans are
  bit-identical to the original O(n^2) per-layout formulation.

Narrow families take a scalar per-layout loop instead (same
arithmetic, no array overhead).  The crossover is measured, not
guessed: both paths cost one candidate evaluation per *live lane* per
placed sequence, the scalar loop paying ~0.5-1 us of Python per lane
and the stacked pass a lane-count-independent ~20-30 us of numpy
dispatch per step — so the deciding variable is the surviving
family's total lane count (groups summed over surviving layouts), not
the sequence count.  :func:`calibrate_vector_threshold` times both
paths across cluster sizes and returns the lane count where the
stacked pass starts winning.  Calibrated 2026-08 on the reference
container (single-core, numpy 2.x): the stacked pass wins from the
narrowest family the calibrator keeps alive (the 16-GPU family, ~43
lanes) and again at ~74 lanes, while the widest measured family (~135
lanes at 64 GPUs) is contested — the scalar loop's equal-length
candidate cache keeps it competitive there — so the threshold sits at
the measured stacked-wins floor of 43 lanes.  Re-run the calibrator
after numpy or hardware changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import stage_timing
from repro.core.planner import PlanInfeasibleError, PlannerConfig
from repro.core.types import GroupAssignment, MicroBatchPlan
from repro.cost.model import CostModel, CostTable, cost_table


def candidate_layouts(model: CostModel, longest: int) -> list[tuple[int, ...]]:
    """Group-degree layouts to try, each summing to at most N.

    Memoised per memory class: the family depends on ``longest`` only
    through ``d_big``, so repeated solves of one model reuse the
    enumeration (and its stacked arrays) from the cost table.  Returns
    a fresh list — the cached stack's row order must survive caller
    mutation.
    """
    return list(_layout_stack(model, longest).layouts)


def _enumerate_layouts(num_gpus: int, d_big: int) -> list[tuple[int, ...]]:
    layouts: set[tuple[int, ...]] = set()
    f = 1
    while f <= num_gpus:
        if f >= d_big:
            # Uniform layout of degree f (all groups can host anything).
            layouts.add(tuple([f] * (num_gpus // f)))
        if f <= num_gpus - d_big:
            remaining = num_gpus - d_big
            layouts.add(tuple([d_big] + [f] * (remaining // f)))
        f *= 2
    layouts.add((d_big,))
    return sorted(layouts, reverse=True)


class LayoutStack:
    """One memory class's candidate family as stacked lane arrays.

    Layouts are padded to a common group count ``G``; padding lanes
    carry a token cap of ``-1`` so the LPT feasibility mask rejects
    them unconditionally (every length is positive) without branching.

    Attributes:
        layouts: The family, in :func:`candidate_layouts` order.
        degree_idx: ``(L, G)`` indices into the table's degree
            universe (0 for padding — the cap mask makes it inert).
        caps: ``(L, G)`` per-lane token capacities; ``-1`` padding.
        capacities: ``(L,)`` total token capacity per layout.
        max_caps: ``(L,)`` largest single-lane capacity per layout.
        lanes: ``(L,)`` real (non-padding) lane count per layout.
    """

    __slots__ = (
        "layouts", "degree_idx", "caps", "capacities", "max_caps", "lanes",
        "degrees", "comm_per_token", "comm_beta", "lane_constants",
    )

    def __init__(self, table: CostTable, layouts: list[tuple[int, ...]]):
        self.layouts = layouts
        num_layouts = len(layouts)
        width = max(len(layout) for layout in layouts)
        self.degree_idx = np.zeros((num_layouts, width), dtype=np.intp)
        self.caps = np.full((num_layouts, width), -1.0)
        for row, layout in enumerate(layouts):
            idx = [table.degree_index[d] for d in layout]
            self.degree_idx[row, : len(layout)] = idx
            self.caps[row, : len(layout)] = table.token_caps[idx]
        real = self.caps >= 0
        self.capacities = np.where(real, self.caps, 0.0).sum(axis=1)
        self.max_caps = self.caps.max(axis=1)
        self.lanes = real.sum(axis=1)
        # Hoisted per-lane coefficient matrices: the stacked pass runs
        # one elementwise kernel per placed sequence, so the per-degree
        # gathers must not happen inside the loop.
        self.degrees = table.degree_arr[self.degree_idx]
        self.comm_per_token = table.comm_per_token[self.degree_idx]
        self.comm_beta = table.comm_beta[self.degree_idx]
        #: Per-layout (degree, cpt, comm_beta, cap) float tuples for
        #: the scalar loop — no dict lookups in the inner loop.
        self.lane_constants = [
            [
                (
                    float(layout[i]),
                    float(table.comm_per_token[table.degree_index[layout[i]]]),
                    float(table.comm_beta[table.degree_index[layout[i]]]),
                    float(table.token_caps[table.degree_index[layout[i]]]),
                )
                for i in range(len(layout))
            ]
            for layout in layouts
        ]

    def surviving(self, total_tokens: float, longest: float) -> np.ndarray:
        """Indices of layouts that dominance pruning keeps.

        Lossless by construction: a pruned layout either lacks the
        aggregate capacity for the batch (pigeonhole — some lane would
        have to exceed its cap, so LPT must return ``None``) or has no
        lane that can host the longest sequence alone (its first
        placement already fails).  Neither can ever be the best
        layout, so the winner and its makespan are bit-identical to
        the unpruned family's.
        """
        keep = (self.capacities >= total_tokens) & (self.max_caps >= longest)
        return np.flatnonzero(keep)


def _layout_stack(model: CostModel, longest: int) -> LayoutStack:
    table = cost_table(model)
    num_gpus = model.cluster.num_gpus
    d_big = model.min_degree_for_sequence(longest)
    if d_big is None:
        raise PlanInfeasibleError(
            f"a {longest}-token sequence exceeds memory even at SP={num_gpus}"
        )
    stack = table.layout_stacks.get(d_big)
    if stack is None:
        stack = LayoutStack(table, _enumerate_layouts(num_gpus, d_big))
        table.layout_stacks[d_big] = stack
    return stack


#: Live-lane count (groups summed across the surviving family) below
#: which the scalar per-layout loop beats the stacked numpy pass; both
#: paths are bit-identical.  Set from
#: :func:`calibrate_vector_threshold` (see the module docstring).
_VECTOR_THRESHOLD = 43


def _assign_lpt_stacked(
    ordered: list[int],
    stack: LayoutStack,
    rows: np.ndarray,
    table: CostTable,
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """LPT over every surviving layout in one lane-matrix pass.

    Args:
        ordered: Sequence lengths, longest first.
        stack: The memory class's stacked family.
        rows: Surviving layout indices into the stack.
        table: The model's vectorized cost table.

    Returns:
        ``(choices, makespans, winner)`` where ``choices[step, l]`` is
        the lane that received ``ordered[step]`` in surviving layout
        ``l`` (-1 once the layout died), ``makespans[l]`` its final
        makespan (inf for dead layouts), and ``winner`` the first
        surviving-layout index attaining the minimum — exactly the
        layout the per-layout reference loop would keep.  ``None``
        when every layout dies.
    """
    caps = stack.caps[rows]
    degrees = stack.degrees[rows]
    cpt = stack.comm_per_token[rows]
    comm_beta = stack.comm_beta[rows]
    beta1 = table.beta1
    gather = table.gather
    exposed = table.exposed_gather
    num_layouts, width = caps.shape
    work = np.zeros((num_layouts, width))
    tokens = np.zeros((num_layouts, width))
    alive = np.ones(num_layouts, dtype=bool)
    choices = np.full((len(ordered), num_layouts), -1, dtype=np.intp)
    layout_axis = np.arange(num_layouts)

    for step, s in enumerate(ordered):
        term = table.alpha1 * float(s) * float(s) + table.alpha2 * float(s)
        new_tokens = tokens + s
        # Inlined CostTable.group_times over the hoisted lane matrices
        # (same elementwise IEEE ops in the same order).
        comp = (work + term) / degrees + beta1
        comm = cpt * new_tokens + comm_beta
        cand = comp + comm
        if gather > 0:
            cand = np.maximum(cand + exposed, comm + gather)
        cand = np.where(new_tokens > caps, np.inf, cand)
        best = np.argmin(cand, axis=1)
        fits = np.isfinite(cand[layout_axis, best]) & alive
        alive &= fits
        if not alive.any():
            return None
        lanes = best[fits]
        work[fits, lanes] += term
        tokens[fits, lanes] += s
        choices[step, fits] = lanes

    finish = table.group_times(work, tokens, stack.degree_idx[rows])
    makespans = np.where(tokens > 0, finish, -np.inf).max(axis=1)
    makespans = np.where(alive, makespans, np.inf)
    winner = int(np.argmin(makespans))
    return choices, makespans, winner


def _assign_lpt_scalar(
    ordered: list[int],
    lane_constants: list[tuple[float, float, float, float]],
    table: CostTable,
) -> tuple[list[list[int]], float] | None:
    """Scalar twin of the stacked LPT pass (small instances).

    ``lane_constants`` carries one ``(degree, comm_per_token,
    comm_beta, cap)`` tuple per group (see
    :attr:`LayoutStack.lane_constants`); the inner loop is the inlined
    :meth:`~repro.cost.model.CostTable.group_time` formula — same
    float ops, no per-step table lookups.
    """
    num_lanes = len(lane_constants)
    lane_range = range(num_lanes)
    group_lengths: list[list[int]] = [[] for __ in lane_range]
    work = [0.0] * num_lanes
    tokens = [0.0] * num_lanes
    alpha1 = table.alpha1
    alpha2 = table.alpha2
    beta1 = table.beta1
    gather = table.gather
    exposed = table.exposed_gather
    # Sorted batches carry runs of equal lengths (quantised corpora
    # especially); within a run only the lane that just received a
    # sequence has a changed candidate time, so the others are served
    # from this cache — recomputing them would produce the same bits.
    cand: list[float | None] = [None] * num_lanes
    prev_s = None
    term = 0.0
    stale: tuple[int, ...] | range = lane_range
    for s in ordered:
        if s != prev_s:
            prev_s = s
            term = alpha1 * float(s) * float(s) + alpha2 * float(s)
            stale = lane_range
        for i in stale:
            d, cpt, comm_beta, cap = lane_constants[i]
            new_tokens = tokens[i] + s
            if new_tokens > cap:
                cand[i] = None
                continue
            comp = (work[i] + term) / d + beta1
            comm = cpt * new_tokens + comm_beta
            t = comp + comm
            if gather > 0:
                bound = comm + gather
                t = t + exposed
                if bound > t:
                    t = bound
            cand[i] = t
        best_index = None
        best_time = None
        for i in lane_range:
            t = cand[i]
            if t is None:
                continue
            if best_time is None or t < best_time:
                best_time = t
                best_index = i
        if best_index is None:
            return None
        group_lengths[best_index].append(s)
        work[best_index] += term
        tokens[best_index] += s
        stale = (best_index,)
    makespan = max(
        table.group_time(work[i], tokens[i], int(d))
        for i, (d, *__) in enumerate(lane_constants)
        if group_lengths[i]
    )
    return group_lengths, float(makespan)


def _build_plan(
    layout: tuple[int, ...], group_lengths: list[list[int]]
) -> MicroBatchPlan:
    """Winning layout + per-group lengths -> the concrete plan."""
    assignments = []
    offset = 0
    order = sorted(range(len(layout)), key=lambda i: (-layout[i], i))
    for i in order:
        if not group_lengths[i]:
            continue
        degree = layout[i]
        ranks = tuple(range(offset, offset + degree))
        offset += degree
        assignments.append(
            GroupAssignment(
                degree=degree,
                device_ranks=ranks,
                lengths=tuple(sorted(group_lengths[i], reverse=True)),
            )
        )
    return MicroBatchPlan(groups=tuple(assignments))


def plan_microbatch_greedy(
    lengths: tuple[int, ...] | list[int],
    model: CostModel,
    config: PlannerConfig | None = None,
) -> tuple[MicroBatchPlan, float]:
    """Greedy counterpart of :func:`repro.core.planner.plan_microbatch`.

    Same signature and contract; typically within a few percent of the
    MILP on realistic batches but orders of magnitude faster.
    """
    del config  # accepted for interface parity; no knobs used
    lengths = tuple(int(s) for s in lengths)
    if not lengths:
        raise ValueError("cannot plan an empty micro-batch")
    if any(s <= 0 for s in lengths):
        raise ValueError("sequence lengths must be positive")

    total = sum(lengths)
    if total > model.cluster_token_capacity():
        raise PlanInfeasibleError(
            f"micro-batch holds {total} tokens but the cluster fits only "
            f"{model.cluster_token_capacity():.0f}"
        )

    longest = max(lengths)
    enum_started = time.perf_counter()
    table = cost_table(model)
    if table.activation_budget <= 0:
        raise PlanInfeasibleError(
            "no layout could host the micro-batch within memory"
        )
    stack = _layout_stack(model, longest)
    rows = stack.surviving(float(total), float(longest))
    stage_timing.add("enumerate", time.perf_counter() - enum_started)
    if rows.size == 0:
        raise PlanInfeasibleError(
            "no layout could host the micro-batch within memory"
        )

    lpt_started = time.perf_counter()
    ordered = sorted(lengths, reverse=True)
    outcome: tuple[MicroBatchPlan, float] | None = None
    if int(stack.lanes[rows].sum()) <= _VECTOR_THRESHOLD:
        best: tuple[tuple[int, ...], list[list[int]], float] | None = None
        for row in rows:
            layout = stack.layouts[int(row)]
            assigned = _assign_lpt_scalar(
                ordered, stack.lane_constants[int(row)], table
            )
            if assigned is None:
                continue
            group_lengths, makespan = assigned
            if best is not None and makespan >= best[2]:
                continue
            best = (layout, group_lengths, makespan)
        if best is not None:
            outcome = (_build_plan(best[0], best[1]), best[2])
    else:
        stacked = _assign_lpt_stacked(ordered, stack, rows, table)
        if stacked is not None:
            choices, makespans, winner = stacked
            layout = stack.layouts[int(rows[winner])]
            group_lengths = [[] for __ in layout]
            for step, lane in enumerate(choices[:, winner]):
                group_lengths[lane].append(ordered[step])
            outcome = (_build_plan(layout, group_lengths), float(makespans[winner]))
    stage_timing.add("lpt", time.perf_counter() - lpt_started)

    if outcome is None:
        raise PlanInfeasibleError(
            "no layout could host the micro-batch within memory"
        )
    return outcome


@dataclass(frozen=True)
class ThresholdCalibration:
    """One :func:`calibrate_vector_threshold` measurement.

    Attributes:
        threshold: The recommended :data:`_VECTOR_THRESHOLD` value.
        samples: ``(lanes, winner)`` per measured cluster size, where
            ``winner`` names the faster path at that family width.
    """

    threshold: int
    samples: tuple[tuple[int, str], ...] = ()

    def __int__(self) -> int:
        return self.threshold


def calibrate_vector_threshold(
    *,
    cluster_sizes: tuple[int, ...] = (8, 16, 32, 64),
    sequence_count: int = 32,
    repeats: int = 30,
) -> ThresholdCalibration:
    """Measure the scalar/stacked LPT crossover on this host.

    Times both (bit-identical) paths over synthetic micro-batches
    against GPT-7B fits on growing clusters — the candidate family's
    total lane count grows with the cluster — and returns the lane
    count at which the stacked pass should take over: the geometric
    midpoint between the widest family the scalar loop still wins and
    the narrowest one the stacked pass wins.  The module constant
    :data:`_VECTOR_THRESHOLD` is the checked-in result of this
    calibration (see the module docstring); re-run after numpy or
    hardware changes::

        PYTHONPATH=src python -c "from repro.core.planner_greedy \\
            import calibrate_vector_threshold as c; print(c())"
    """
    from repro.cluster.topology import standard_cluster
    from repro.cost.profiler import fit_cost_model
    from repro.model.config import GPT_7B

    rng = np.random.default_rng(7)
    scalar_best: int | None = None
    stacked_best: int | None = None
    samples: list[tuple[int, str]] = []
    for num_gpus in cluster_sizes:
        model = fit_cost_model(
            GPT_7B.with_max_context(64 * 1024), standard_cluster(num_gpus)
        )
        table = cost_table(model)
        # Scale lengths with the cluster so capacity pruning keeps the
        # family wide (the regime the threshold decides).
        top = 300 * num_gpus
        lengths = tuple(
            int(s) for s in rng.integers(256, top, size=sequence_count)
        )
        ordered = sorted(lengths, reverse=True)
        stack = _layout_stack(model, max(lengths))
        rows = stack.surviving(float(sum(lengths)), float(max(lengths)))
        if rows.size == 0:
            continue
        lanes = int(stack.lanes[rows].sum())

        started = time.perf_counter()
        for __ in range(repeats):
            for row in rows:
                _assign_lpt_scalar(
                    ordered, stack.lane_constants[int(row)], table
                )
        scalar_seconds = time.perf_counter() - started

        started = time.perf_counter()
        for __ in range(repeats):
            _assign_lpt_stacked(ordered, stack, rows, table)
        stacked_seconds = time.perf_counter() - started

        if stacked_seconds <= scalar_seconds:
            samples.append((lanes, "stacked"))
            stacked_best = (
                lanes if stacked_best is None else min(stacked_best, lanes)
            )
        else:
            samples.append((lanes, "scalar"))
            scalar_best = (
                lanes if scalar_best is None else max(scalar_best, lanes)
            )
    if stacked_best is None:
        threshold = scalar_best or _VECTOR_THRESHOLD
    elif scalar_best is None or scalar_best >= stacked_best:
        threshold = stacked_best
    else:
        threshold = int(round((scalar_best * stacked_best) ** 0.5))
    return ThresholdCalibration(threshold=int(threshold), samples=tuple(samples))
