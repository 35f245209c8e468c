"""Scalar oracle for the greedy planner's batched LPT pass.

:func:`repro.core.planner_greedy._assign_lpt_batched` places the
sequences of many shapes over every surviving layout in one numpy
pass.  This module is its scalar twin: one Python loop per layout,
over :meth:`~repro.cost.model.CostTable.group_times`' formula written
out for one group in the same IEEE order, so the tests can hold the
pass (and every plan built from it) to the oracle with ``==``.
"""

from __future__ import annotations

from repro.core.planner import PlanInfeasibleError
from repro.core.planner_greedy import _build_plan, _pruned_family
from repro.cost.model import cost_table


def lane_constants(stack, row):
    """``(degree, comm_per_token, comm_beta, cap)`` per lane of one
    layout of ``stack``."""
    first = int(stack.lanes[:row].sum())
    caps, degrees, comm_per_token, comm_beta = stack.lane_consts
    return [
        (
            float(degrees[i]),
            float(comm_per_token[i]),
            float(comm_beta[i]),
            float(caps[i]),
        )
        for i in range(first, first + int(stack.lanes[row]))
    ]


def assign_lpt_scalar(ordered, constants, table):
    """LPT of ``ordered`` (longest first) over one layout's lanes.

    Each sequence goes to the first lane with the smallest finish time
    that stays within its token cap.  Returns ``(group_lengths,
    makespan)``, or ``None`` once a sequence fits no lane.
    """

    def finish(lane, work, tokens):
        d, cpt, comm_beta, __ = constants[lane]
        comp = work / d + table.beta1
        comm = cpt * tokens + comm_beta
        if table.gather <= 0:
            return comp + comm
        return max(comp + comm + table.exposed_gather, comm + table.gather)

    num_lanes = len(constants)
    group_lengths = [[] for __ in range(num_lanes)]
    work = [0.0] * num_lanes
    tokens = [0.0] * num_lanes
    for s in ordered:
        term = table.alpha1 * float(s) * float(s) + table.alpha2 * float(s)
        best_index = None
        best_time = None
        for i, (__, __, __, cap) in enumerate(constants):
            new_tokens = tokens[i] + s
            if new_tokens > cap:
                continue
            t = finish(i, work[i] + term, new_tokens)
            if best_time is None or t < best_time:
                best_time = t
                best_index = i
        if best_index is None:
            return None
        group_lengths[best_index].append(s)
        work[best_index] += term
        tokens[best_index] += s
    makespan = max(
        finish(i, work[i], tokens[i])
        for i in range(num_lanes)
        if group_lengths[i]
    )
    return group_lengths, float(makespan)


def plan_scalar(lengths, model):
    """One shape's greedy plan through the oracle: the first surviving
    layout with the smallest makespan wins.  ``None`` where
    :func:`~repro.core.planner_greedy.plan_microbatch_greedy` raises
    :class:`PlanInfeasibleError`."""
    table = cost_table(model)
    try:
        stack, rows, ordered = _pruned_family(lengths, model, table)
    except PlanInfeasibleError:
        return None
    best = None
    for row in rows.tolist():
        assigned = assign_lpt_scalar(ordered, lane_constants(stack, row), table)
        if assigned is None:
            continue
        if best is not None and assigned[1] >= best[2]:
            continue
        best = (row, *assigned)
    if best is None:
        return None
    return _build_plan(stack.layouts[best[0]], best[1]), best[2]
