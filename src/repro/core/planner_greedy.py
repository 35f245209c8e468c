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
* **Stacked LPT, one pass per cost model.**
  :func:`plan_microbatches_greedy` places every shape of a call in
  one numpy pass, whatever its layout family (its
  :class:`LayoutStack`, i.e. its ``d_big`` class): each row gathers
  its lanes from its own family, and the cost table's scalars are
  shared because the pass has one model.  A campaign prewarm or a
  solve's cache misses thus take as many numpy steps as the call's
  longest shape has sequences, instead of one step per sequence of
  every shape.  Only lanes are stored, flat, one segment per (shape,
  surviving layout) row; shapes run in descending sequence count, so
  the rows still placing are a prefix, and each row's lane is its
  first minimum, found with segmented reductions.  The incremental
  per-lane work/token sums accumulate in the same order as the
  scalar model's sequential ``sum``, so makespans are bit-identical
  to the original O(n^2) per-layout formulation, whatever shapes
  share the pass.  A pass over every cost model at once would take
  fewer steps still, but its arrays grow with every model's rows, so
  the peak memory of a campaign's cold pass grows with it.

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
    """One memory class's candidate family as flat lane arrays.

    Each group of a layout is a *lane*.  The lanes of every layout are
    stored flat, layout after layout, so the batched LPT pass gathers
    the lanes of any rows of any families with one index array.

    Attributes:
        layouts: The family, in :func:`candidate_layouts` order.
        lanes: ``(L,)`` lane count per layout.
        lane_consts: ``(4, K)`` per lane: token capacity, degree,
            ``comm_per_token`` and ``comm_beta``, hoisted out of the
            pass (it runs one elementwise kernel per placed sequence,
            so the per-degree gathers must not happen inside its loop).
        capacities: ``(L,)`` total token capacity per layout.
        max_caps: ``(L,)`` largest single-lane capacity per layout.
    """

    __slots__ = ("layouts", "lanes", "lane_consts", "capacities", "max_caps")

    def __init__(self, table: CostTable, layouts: list[tuple[int, ...]]):
        self.layouts = layouts
        self.lanes = np.array([len(layout) for layout in layouts])
        idx = [table.degree_index[d] for layout in layouts for d in layout]
        caps = table.token_caps[idx]
        # Per-layout totals are row sums over the lanes zero-padded to a
        # common width: a per-segment sum of the flat lanes can round
        # differently, and the pruning comparisons see the last bit.
        padded = np.zeros((len(layouts), int(self.lanes.max())))
        padded[np.arange(padded.shape[1]) < self.lanes[:, None]] = caps
        self.capacities = padded.sum(axis=1)
        self.max_caps = padded.max(axis=1)
        self.lane_consts = np.stack(
            [
                caps,
                table.degree_arr[idx],
                table.comm_per_token[idx],
                table.comm_beta[idx],
            ]
        )

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


def _lane_times(
    table: CostTable,
    work: np.ndarray,
    tokens: np.ndarray,
    degrees: np.ndarray,
    comm_per_token: np.ndarray,
    comm_beta: np.ndarray,
) -> np.ndarray:
    """:meth:`~repro.cost.model.CostTable.group_times` on lanes whose
    per-degree coefficients are already gathered: the same elementwise
    IEEE ops in the same order, so each lane equals it bit-for-bit."""
    comp = work / degrees + table.beta1
    comm = comm_per_token * tokens + comm_beta
    if table.gather <= 0:
        return comp + comm
    return np.maximum(comp + comm + table.exposed_gather, comm + table.gather)


def _assign_lpt_batched(
    members: list[tuple[list[int], LayoutStack, np.ndarray]],
    table: CostTable,
) -> list[tuple[np.ndarray, np.ndarray, int] | None]:
    """LPT over every surviving layout of many shapes in one pass.

    Each ``(shape, surviving layout)`` pair is a *row*, and the rows'
    lanes are stored flat, one contiguous segment per row, gathered
    from the row's own layout family: shapes of different families
    (different ``d_big``) of one cost model share the pass.  Shapes
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
        members: Per shape, its lengths longest first, its layout
            family and its surviving layout indices into that family.
        table: The model's vectorized cost table, shared by every
            family of the pass.

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
    row_counts = [members[i][2].size for i in order]
    # The pass's layout universe: each family's layouts, and their flat
    # lanes, in turn; a member's rows are offset by its family's first.
    stacks = list(dict.fromkeys(stack for __, stack, __ in members))
    offsets = np.cumsum([0] + [len(s.layouts) for s in stacks]).tolist()
    first_layout = dict(zip(stacks, offsets))
    rows = np.concatenate(
        [members[i][2] + first_layout[members[i][1]] for i in order]
    )
    lanes = np.concatenate([s.lanes for s in stacks])
    row_lanes = lanes[rows]
    lane_ends = np.cumsum(row_lanes)
    row_start = lane_ends - row_lanes
    # A row's lanes are its layout's segment of the universe's lanes.
    lane_ids = np.arange(int(lane_ends[-1])) + np.repeat(
        (np.cumsum(lanes) - lanes)[rows] - row_start, row_lanes
    )
    lane_caps, degrees, cpt, comm_beta = np.concatenate(
        [s.lane_consts for s in stacks], axis=1
    )[:, lane_ids]
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

    work = np.zeros(lane_caps.size)
    tokens = np.zeros(lane_caps.size)
    alive = np.ones(rows.size, dtype=bool)
    # Lane indices stay below the widest layout's group count.
    choices = np.full(
        (counts[0], rows.size),
        -1,
        dtype=np.int16 if row_lanes.max() < 2**15 else np.intp,
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
            new_tokens = lane_tokens + lengths[step][shape_of]
            new_work = lane_work + terms[step][shape_of]
            cand = _lane_times(
                table, new_work, new_tokens, lane_degrees, lane_cpt, lane_beta
            )
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

    finish = _lane_times(table, work, tokens, degrees, cpt, comm_beta)
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
    """Plan every shape in one batched LPT pass; an infeasible shape's
    slot holds the error saying why."""
    enum_started = time.perf_counter()
    table = cost_table(model)
    outcomes: list = [None] * len(shapes)
    indices: list[int] = []
    members: list[tuple[list[int], LayoutStack, np.ndarray]] = []
    for index, lengths in enumerate(shapes):
        try:
            stack, rows, ordered = _pruned_family(lengths, model, table)
        except PlanInfeasibleError as error:
            # Keep the reason, not the traceback: its frames would tie
            # this call's locals into a reference cycle.
            outcomes[index] = error.with_traceback(None)
            continue
        indices.append(index)
        members.append((ordered, stack, rows))
    stage_timing.add("enumerate", time.perf_counter() - enum_started)

    lpt_started = time.perf_counter()
    batched = _assign_lpt_batched(members, table) if members else []
    stage_timing.add("lpt", time.perf_counter() - lpt_started)
    for index, (ordered, stack, rows), assigned in zip(
        indices, members, batched
    ):
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
    outcome equals that planner's.  The shapes share one stacked LPT
    pass (module docstring), which is what makes a campaign prewarm or
    a solve's cache misses cheaper planned together than one by one.
    """
    del config  # accepted for interface parity; no knobs used
    return [
        None if isinstance(outcome, PlanInfeasibleError) else outcome
        for outcome in _plan_greedy(shapes, model)
    ]
