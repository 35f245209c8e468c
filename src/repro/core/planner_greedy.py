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
* **Stacked LPT, one pass per layout family.**
  :func:`plan_microbatches_greedy` groups a call's shapes by layout
  family (one :class:`LayoutStack`, i.e. one ``d_big`` class) and
  places every shape of a family in one numpy pass: a campaign
  prewarm or a solve's cache misses take as many numpy steps per
  family as its longest shape has sequences, instead of one step per
  sequence of every shape.  Only real lanes are stored, flat, one
  segment per (shape, surviving layout) row; shapes run in descending
  sequence count, so the rows still placing are a prefix, and each
  row's lane is its first minimum, found with segmented reductions.
  The incremental per-lane work/token sums accumulate in the same
  order as the scalar model's sequential ``sum``, so makespans are
  bit-identical to the original O(n^2) per-layout formulation,
  whatever shapes share the pass.

A lone shape — a trial-pruning bound, the MILP's greedy incumbent — is
a pass of one.  A per-layout Python loop would plan a lone 8-GPU shape
(~20 lanes) about twice as fast (~170 against ~380 us on a 2-vCPU VM),
but no workload's end-to-end throughput shows the difference, so the
pass is the only LPT implementation; ``tests/lpt_oracle.py`` keeps that
loop as the reference the tests hold the pass to with ``==``.
"""

from __future__ import annotations

import time

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
    carry a token cap of ``-1``, which is how the batched LPT pass
    tells them apart when it gathers the real lanes of its rows.

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
        "degrees", "comm_per_token", "comm_beta",
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


_NO_LAYOUT = "no layout could host the micro-batch within memory"


def _assign_lpt_batched(
    members: list[tuple[list[int], np.ndarray]],
    stack: LayoutStack,
    table: CostTable,
) -> list[tuple[np.ndarray, np.ndarray, int] | None]:
    """LPT over every surviving layout of many shapes in one pass.

    Each ``(shape, surviving layout)`` pair is a *row*, and the rows'
    real lanes are stored flat, one contiguous segment per row.  Shapes
    run in descending sequence count, so the rows still placing at step
    ``t`` (those of shapes with more than ``t`` sequences) are a prefix
    of the rows and their lanes a prefix of the lanes: each step slices
    that prefix, evaluates the
    :meth:`~repro.cost.model.CostTable.group_times` kernel on every lane,
    and takes each row's first minimum with two segmented reductions
    (the minimum, then the lowest lane position attaining it).  Lanes
    accumulate in placement order, so a row's choices and makespan do
    not depend on which shapes share the pass.

    Args:
        members: Per shape, its lengths longest first and its
            surviving layout indices into ``stack``.
        stack: The memory class's stacked family.
        table: The model's vectorized cost table.

    Returns:
        Per member, in order, ``(choices, makespans, winner)`` where
        ``choices[step, l]`` is the lane that received ``ordered[step]``
        in surviving layout ``l`` (-1 once the layout died),
        ``makespans[l]`` its final makespan (inf for dead layouts), and
        ``winner`` the first surviving-layout index attaining the
        minimum — exactly the layout the per-layout loop keeps.
        ``None`` for a member whose layouts all die.
    """
    order = sorted(range(len(members)), key=lambda i: -len(members[i][0]))
    counts = [len(members[i][0]) for i in order]
    row_counts = [members[i][1].size for i in order]
    rows = np.concatenate([members[i][1] for i in order])
    caps = stack.caps[rows]
    real = caps >= 0
    lane_caps = caps[real]
    degrees = stack.degrees[rows][real]
    cpt = stack.comm_per_token[rows][real]
    comm_beta = stack.comm_beta[rows][real]
    row_lanes = stack.lanes[rows]
    lane_ends = np.cumsum(row_lanes)
    row_start = lane_ends - row_lanes
    lane_row = np.repeat(np.arange(rows.size), row_lanes)
    row_shape = np.repeat(np.arange(len(order)), row_counts)
    lane_shape = row_shape[lane_row]
    rows_end = np.cumsum(row_counts)
    lanes_end = lane_ends[rows_end - 1]
    # Step-major per-shape lengths and Eq. 12 work terms; step t reads
    # the first (still placing) shapes of row t.
    lengths = np.zeros((counts[0], len(order)))
    for k, i in enumerate(order):
        lengths[: counts[k], k] = members[i][0]
    terms = table.work_terms(lengths)

    beta1 = table.beta1
    gather = table.gather
    exposed = table.exposed_gather
    work = np.zeros(lane_caps.size)
    tokens = np.zeros(lane_caps.size)
    alive = np.ones(rows.size, dtype=bool)
    # Lane indices stay below the widest layout's group count.
    choices = np.full(
        (counts[0], rows.size),
        -1,
        dtype=np.int16 if stack.caps.shape[1] < 2**15 else np.intp,
    )
    begin = 0
    # k shapes place from step ``begin`` until the k-th longest is done.
    for k in range(len(order), 0, -1):
        stop = counts[k - 1]
        if stop <= begin:
            continue
        r = int(rows_end[k - 1])
        n = int(lanes_end[k - 1])
        # Views of the placing prefix (work and tokens update in place).
        shape_of, row_of = lane_shape[:n], lane_row[:n]
        starts, placing = row_start[:r], alive[:r]
        lane_work, lane_tokens = work[:n], tokens[:n]
        lane_degrees, lane_cpt = degrees[:n], cpt[:n]
        lane_beta, lane_cap = comm_beta[:n], lane_caps[:n]
        for step in range(begin, stop):
            # Inlined CostTable.group_times over the flat lanes (same
            # elementwise IEEE ops in the same order).
            new_tokens = lane_tokens + lengths[step][shape_of]
            new_work = lane_work + terms[step][shape_of]
            comp = new_work / lane_degrees + beta1
            comm = lane_cpt * new_tokens + lane_beta
            cand = comp + comm
            if gather > 0:
                cand = np.maximum(cand + exposed, comm + gather)
            np.putmask(cand, new_tokens > lane_cap, np.inf)
            best = np.minimum.reduceat(cand, starts)
            # Each row's first lane attaining its minimum.
            hits = np.flatnonzero(cand == best[row_of])
            first = hits[hits.searchsorted(starts)]
            np.logical_and(placing, best < np.inf, out=placing)
            won = first[placing]
            work[won] = new_work[won]
            tokens[won] = new_tokens[won]
            np.subtract(
                first, starts, out=choices[step, :r], where=placing,
                casting="unsafe",
            )
        begin = stop

    finish = table.group_times(
        work, tokens, stack.degree_idx[rows][real]
    )
    makespans = np.maximum.reduceat(
        np.where(tokens > 0, finish, -np.inf), row_start
    )
    makespans[~alive] = np.inf
    outcomes: list[tuple[np.ndarray, np.ndarray, int] | None] = [None] * len(
        members
    )
    for k, i in enumerate(order):
        end = int(rows_end[k])
        begin = end - row_counts[k]
        if alive[begin:end].any():
            spans = makespans[begin:end]
            outcomes[i] = (
                choices[: counts[k], begin:end], spans, int(np.argmin(spans))
            )
    return outcomes


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


def _pruned_family(
    lengths: tuple[int, ...] | list[int], model: CostModel, table: CostTable
) -> tuple[LayoutStack, np.ndarray, list[int]]:
    """One micro-batch's family, its surviving layout indices and its
    lengths longest first.

    Raises:
        ValueError: An empty micro-batch or a non-positive length.
        PlanInfeasibleError: The micro-batch overflows the cluster, a
            sequence fits no degree, or pruning leaves no layout.
    """
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
    if table.activation_budget <= 0:
        raise PlanInfeasibleError(_NO_LAYOUT)
    longest = max(lengths)
    stack = _layout_stack(model, longest)
    rows = stack.surviving(float(total), float(longest))
    if rows.size == 0:
        raise PlanInfeasibleError(_NO_LAYOUT)
    return stack, rows, sorted(lengths, reverse=True)


def _plan_greedy(
    shapes: list[tuple[int, ...]] | list[list[int]], model: CostModel
) -> list[tuple[MicroBatchPlan, float] | PlanInfeasibleError]:
    """Plan every shape, one batched LPT pass per layout family; an
    infeasible shape's slot holds the error saying why."""
    enum_started = time.perf_counter()
    table = cost_table(model)
    outcomes: list = [None] * len(shapes)
    families: dict[LayoutStack, tuple[list[int], list]] = {}
    for index, lengths in enumerate(shapes):
        try:
            stack, rows, ordered = _pruned_family(lengths, model, table)
        except PlanInfeasibleError as error:
            # Keep the reason, not the traceback: its frames would tie
            # this call's locals into a reference cycle.
            outcomes[index] = error.with_traceback(None)
            continue
        indices, members = families.setdefault(stack, ([], []))
        indices.append(index)
        members.append((ordered, rows))
    stage_timing.add("enumerate", time.perf_counter() - enum_started)

    lpt_started = time.perf_counter()
    for stack, (indices, members) in families.items():
        batched = _assign_lpt_batched(members, stack, table)
        for index, (ordered, rows), assigned in zip(indices, members, batched):
            if assigned is None:
                outcomes[index] = PlanInfeasibleError(_NO_LAYOUT)
                continue
            choices, makespans, winner = assigned
            layout = stack.layouts[int(rows[winner])]
            group_lengths: list[list[int]] = [[] for __ in layout]
            for s, lane in zip(ordered, choices[:, winner].tolist()):
                group_lengths[lane].append(s)
            outcomes[index] = (
                _build_plan(layout, group_lengths), float(makespans[winner])
            )
    stage_timing.add("lpt", time.perf_counter() - lpt_started)
    return outcomes


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
    [outcome] = _plan_greedy([lengths], model)
    if isinstance(outcome, PlanInfeasibleError):
        raise outcome
    return outcome


def plan_microbatches_greedy(
    shapes: list[tuple[int, ...]] | list[list[int]],
    model: CostModel,
    config: PlannerConfig | None = None,
) -> list[tuple[MicroBatchPlan, float] | None]:
    """:func:`plan_microbatch_greedy` over many micro-batches at once.

    Returns one outcome per shape, in order, with ``None`` where the
    single-shape planner raises :class:`PlanInfeasibleError`; every
    outcome equals that planner's.  The shapes of one layout family
    share one stacked LPT pass (module docstring), which is what makes
    a campaign prewarm or a solve's cache misses cheaper planned
    together than one by one.
    """
    del config  # accepted for interface parity; no knobs used
    return [
        None if isinstance(outcome, PlanInfeasibleError) else outcome
        for outcome in _plan_greedy(shapes, model)
    ]
