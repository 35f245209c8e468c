"""Parallelism planner: the MILP of S4.1 (Eqs. 17-22).

Given one micro-batch's sequences, the planner decides (1) how many SP
groups to form, (2) each group's degree, and (3) how many sequences of
each bucket go to each group, minimising the makespan ``C`` — the
maximum of the groups' Eq. 14 execution times — subject to per-device
memory (Eq. 19), the cluster device budget (Eq. 20), selection linking
(Eq. 21) and assignment completeness (Eq. 22).

The decision variables are the binary group-selection vector ``m`` over
*virtual groups* (one per possible group of each power-of-two degree)
and the integer assignment matrix ``A_hat[q][p]`` counting bucket-``q``
sequences routed to group ``p``.  The paper solves the MILP with SCIP;
we use scipy's HiGHS backend, with identical formulation plus
symmetry-breaking order constraints over same-degree groups.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core import stage_timing
from repro.core.bucketing import DEFAULT_NUM_BUCKETS, Bucket, bucket_sequences
from repro.core.types import GroupAssignment, MicroBatchPlan
from repro.cost.model import CostModel, CostTable, cost_table

if TYPE_CHECKING:
    from scipy import sparse


class PlanInfeasibleError(Exception):
    """The micro-batch cannot be scheduled within the memory budget."""


@dataclass(frozen=True)
class PlannerConfig:
    """Planner knobs.

    Attributes:
        num_buckets: Bucket count Q (paper default 16).
        bucketing: ``"optimal"`` (DP) or ``"naive"`` (fixed intervals)
            or ``"none"`` (one bucket per unique length; the Fig. 7
            "w/o BKT" ablation).
        time_limit: HiGHS wall-clock limit in seconds per solve.
            Wall-clock budgets make MILP outcomes host-load dependent;
            see ``node_limit`` for the deterministic alternative.
        node_limit: Deterministic work limit — cap HiGHS's
            branch-and-bound at this many nodes *instead of* the
            wall-clock ``time_limit`` (which is ignored while set).
            The same problem then explores the same tree on any host,
            so MILP-backed cells satisfy the sweeps' bit-identical
            contract; ``None`` (the default) keeps the wall-clock
            budget.
        mip_rel_gap: Acceptable relative optimality gap.
        greedy_incumbent: Prime branch-and-bound with the greedy LPT
            plan's makespan as a cutoff on ``C`` and return whichever
            of the two plans predicts faster.  This plays the role of
            SCIP's primal heuristics in the paper's setup; disabling it
            exposes raw HiGHS behaviour.
    """

    num_buckets: int = DEFAULT_NUM_BUCKETS
    bucketing: str = "optimal"
    time_limit: float = 2.0
    node_limit: int | None = None
    mip_rel_gap: float = 0.03
    greedy_incumbent: bool = True

    def __post_init__(self) -> None:
        if self.bucketing not in ("optimal", "naive", "none"):
            raise ValueError(f"unknown bucketing mode: {self.bucketing!r}")
        if self.time_limit <= 0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError(
                f"node_limit must be positive or None, got {self.node_limit}"
            )
        if not 0 <= self.mip_rel_gap < 1:
            raise ValueError(f"mip_rel_gap must be in [0, 1), got {self.mip_rel_gap}")


@dataclass(frozen=True)
class VirtualGroup:
    """One candidate SP group in the MILP."""

    degree: int
    index_within_degree: int


def _make_buckets(lengths: tuple[int, ...], config: PlannerConfig) -> list[Bucket]:
    if config.bucketing == "none":
        # One bucket per unique length: zero bucketing error, but the
        # MILP grows with the number of distinct lengths (the ablation
        # shows the solver then struggles within its time budget).
        return bucket_sequences(lengths, num_buckets=len(set(lengths)), method="optimal")
    return bucket_sequences(lengths, config.num_buckets, method=config.bucketing)


def enumerate_virtual_groups(
    model: CostModel, lengths: tuple[int, ...]
) -> list[VirtualGroup]:
    """Candidate groups: every degree that could serve some sequence.

    Degrees are the powers of two from 1 to the cluster size; those
    below the smallest that fits the *shortest* sequence are useless
    and pruned.  For each degree ``d`` there are ``N / d`` simultaneous
    groups.
    """
    num_gpus = model.cluster.num_gpus
    shortest = min(lengths)
    groups: list[VirtualGroup] = []
    degree = 1
    while degree <= num_gpus:
        if model.fits([shortest], degree):
            for i in range(num_gpus // degree):
                groups.append(VirtualGroup(degree=degree, index_within_degree=i))
        degree *= 2
    if not groups:
        raise PlanInfeasibleError(
            f"no SP degree up to {num_gpus} fits even a {shortest}-token sequence"
        )
    return groups


def _check_feasibility(
    model: CostModel, buckets: list[Bucket], groups: list[VirtualGroup]
) -> None:
    """Fast necessary-condition checks before invoking the MILP."""
    max_degree = max(g.degree for g in groups)
    longest = max(b.upper for b in buckets)
    if not model.fits([longest], max_degree):
        raise PlanInfeasibleError(
            f"a {longest}-token sequence exceeds device memory even at "
            f"SP={max_degree}"
        )
    total_tokens = sum(sum(b.lengths) for b in buckets)
    if total_tokens > model.cluster_token_capacity():
        raise PlanInfeasibleError(
            f"micro-batch holds {total_tokens} tokens but the cluster fits "
            f"only {model.cluster_token_capacity():.0f}; blast further"
        )


class _MilpSkeleton:
    """The structure of one MILP instance class, assembled once.

    Micro-batches of one workload overwhelmingly share their problem
    *structure* — the bucket count Q and the virtual-group degree list
    — and differ only in the bucket uppers/counts.  Everything that
    depends on structure alone is built here and cached on the model's
    :class:`~repro.cost.model.CostTable`
    (:attr:`~repro.cost.model.CostTable.milp_skeletons`): the
    constraint rows/columns, the CSC scaffolding (sort permutation,
    index and pointer arrays), the length-independent coefficient
    segments, and the bound templates.  Per solve only the
    length-dependent value blocks are recomputed (:meth:`values`) and
    scattered through the cached permutation — HiGHS receives a
    matrix bit-for-bit equal to the original COO assembly (asserted
    duplicate-free at build time, so COO's duplicate-summing pass is
    provably a no-op).

    Variable layout: ``x = [m_0..m_{P-1} | A_{0,0}..A_{Q-1,P-1} | C]``
    with A in bucket-major order.
    """

    def __init__(self, table: CostTable, num_buckets: int, degrees: tuple[int, ...]):
        num_groups = len(degrees)
        self.num_buckets = num_buckets
        self.num_groups = num_groups
        self.num_vars = num_groups + num_buckets * num_groups + 1
        self.c_index = self.num_vars - 1
        self.degrees = degrees
        self.degree_arr = np.asarray(degrees, dtype=np.float64)
        degree_idx = np.asarray(
            [table.degree_index[d] for d in degrees], dtype=np.intp
        )
        #: Distinct degrees and each group's index into them — the
        #: Eq. 18 coefficients are computed once per distinct degree
        #: per solve and fanned out through this.
        self.distinct_degrees = sorted(set(degrees))
        position = {d: i for i, d in enumerate(self.distinct_degrees)}
        self.distinct_inverse = np.asarray(
            [position[d] for d in degrees], dtype=np.intp
        )
        self.cpt = table.comm_per_token[degree_idx]
        self.comm_beta = table.comm_beta[degree_idx]
        self.caps = table.token_caps[degree_idx]
        self.gather = table.gather
        self.exposed_gather = table.exposed_gather
        self.beta1 = table.beta1

        a_cols = num_groups + np.arange(num_buckets, dtype=np.intp) * num_groups
        all_p = np.arange(num_groups, dtype=np.intp)
        self._a_cols = a_cols

        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []

        def add_block(rows, cols) -> None:
            rows_parts.append(np.asarray(rows, dtype=np.intp))
            cols_parts.append(np.asarray(cols, dtype=np.intp))

        # (18) Time: the per-group time including the exposed ZeRO-3
        # gather is max of two linear branches (see CostModel
        # .time_with_overheads), so each group contributes two
        # "branch <= C" constraints.  Block emission ORDER here must
        # match the value emission order in :meth:`values` exactly.
        rows_per_group = 2 if self.gather > 0 else 1
        r1 = np.arange(num_groups, dtype=np.intp) * rows_per_group
        a_col_matrix = a_cols[None, :] + all_p[:, None]  # (P, Q)
        # Branch 1: compute-bound — comp + comm + (1-ov)*gather <= C.
        add_block(np.repeat(r1, num_buckets), a_col_matrix.ravel())
        add_block(r1, all_p)
        add_block(r1, np.full(num_groups, self.c_index))
        self.branch1_static = self.beta1 + self.comm_beta + self.exposed_gather
        time_rows = num_groups * rows_per_group
        self.communicating = self.degree_arr > 1
        if self.gather > 0:
            # Branch 2: gather-bound — comm + gather <= C.
            r2 = r1 + 1
            if np.any(self.communicating):
                add_block(
                    np.repeat(r2[self.communicating], num_buckets),
                    a_col_matrix[self.communicating].ravel(),
                )
            add_block(r2, all_p)
            add_block(r2, np.full(num_groups, self.c_index))
            self.branch2_static = self.comm_beta + self.gather

        # (19)+(21) Memory and linking: sum_q s_q A_{q,p} <= cap_d m_p.
        mem_rows = time_rows + all_p
        add_block(np.repeat(mem_rows, num_buckets), a_col_matrix.ravel())
        add_block(mem_rows, all_p)

        # (20) Device budget: sum_p d_p m_p <= N.
        self.budget_row = time_rows + num_groups
        add_block(np.full(num_groups, self.budget_row), all_p)

        # (22) Completeness: sum_p A_{q,p} = b_q.
        self.comp_rows = self.budget_row + 1 + np.arange(
            num_buckets, dtype=np.intp
        )
        add_block(
            np.repeat(self.comp_rows, num_groups),
            (a_cols[:, None] + all_p[None, :]).ravel(),
        )

        # Symmetry breaking: same-degree groups are interchangeable,
        # so order them by selection then by assigned token load.
        by_degree: dict[int, list[int]] = {}
        for p, d in enumerate(degrees):
            by_degree.setdefault(d, []).append(p)
        row = self.budget_row + 1 + num_buckets
        num_pairs = 0
        for members in by_degree.values():
            for p_a, p_b in zip(members, members[1:]):
                add_block([row, row], [p_a, p_b])
                row += 1
                add_block(
                    np.full(2 * num_buckets, row),
                    np.concatenate((a_cols + p_a, a_cols + p_b)),
                )
                row += 1
                num_pairs += 1
        self.num_rows = row
        self.num_pairs = num_pairs

        rows = np.concatenate(rows_parts)
        cols = np.concatenate(cols_parts)
        # CSC scaffolding: column-major sort computed once.  The
        # original assembly went through COO (which sums duplicate
        # entries); proving there are none makes the cached scatter
        # bit-identical to it.
        self.perm = np.lexsort((rows, cols))
        sorted_rows = rows[self.perm]
        sorted_cols = cols[self.perm]
        flat = sorted_cols * np.intp(self.num_rows) + sorted_rows
        if np.any(flat[1:] == flat[:-1]):  # pragma: no cover - structural
            raise AssertionError("duplicate (row, col) in MILP assembly")
        self.indices = sorted_rows
        self.indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(cols, minlength=self.num_vars)))
        ).astype(np.intp)

        # Constraint-bound templates (counts filled per solve).
        self.lower_template = np.full(self.num_rows, -np.inf)
        self.upper_template = np.zeros(self.num_rows)
        # Static variable metadata.
        objective = np.zeros(self.num_vars)
        objective[self.c_index] = 1.0
        self.objective = objective
        integrality = np.ones(self.num_vars)
        integrality[self.c_index] = 0
        self.integrality = integrality

    def a_index(self, q: int, p: int) -> int:
        return self.num_groups + q * self.num_groups + p

    def distinct_time_coefficients(
        self, table: CostTable, uppers: np.ndarray
    ) -> np.ndarray:
        """Eq. 18 coefficients per *distinct* degree, ``(D, Q)`` — the
        one per-solve kernel evaluation, shared by the matrix values
        and the incumbent lower bound."""
        return np.stack(
            [
                table.milp_time_coefficients(uppers, d)
                for d in self.distinct_degrees
            ]
        )

    def values(
        self,
        table: CostTable,
        uppers: np.ndarray,
        w_distinct: np.ndarray | None = None,
    ) -> np.ndarray:
        """The length-dependent value vector, in block-emission order."""
        if w_distinct is None:
            w_distinct = self.distinct_time_coefficients(table, uppers)
        num_groups = self.num_groups
        parts: list[np.ndarray] = [
            w_distinct[self.distinct_inverse].ravel(),
            self.branch1_static,
            np.full(num_groups, -1.0),
        ]
        if self.gather > 0:
            if np.any(self.communicating):
                parts.append(
                    (self.cpt[self.communicating, None] * uppers[None, :]).ravel()
                )
            parts.append(self.branch2_static)
            parts.append(np.full(num_groups, -1.0))
        parts.append(
            np.broadcast_to(uppers, (num_groups, self.num_buckets)).ravel()
        )
        parts.append(-self.caps)
        parts.append(self.degree_arr)
        parts.append(np.ones(self.num_buckets * num_groups))
        if self.num_pairs:
            pair_template = np.concatenate(([-1.0, 1.0], -uppers, uppers))
            parts.append(np.tile(pair_template, self.num_pairs))
        return np.concatenate(parts)

    def matrix(
        self,
        table: CostTable,
        uppers: np.ndarray,
        w_distinct: np.ndarray | None = None,
    ) -> sparse.csc_array:
        from scipy import sparse

        data = self.values(table, uppers, w_distinct)[self.perm]
        return sparse.csc_array(
            (data, self.indices, self.indptr),
            shape=(self.num_rows, self.num_vars),
            dtype=np.float64,
        )

#: Retained MILP skeletons per cost table.  Structures recur heavily
#: within a workload (same Q, similar degree universes) but the key
#: space is open-ended across diverse batches, so the cache is
#: LRU-capped — a long-running solver deployment cannot grow a
#: worker's RSS without bound.
_SKELETON_CAPACITY = 64

#: Guards every table's skeleton LRU: solve() is documented as
#: callable from several threads (the pipeline's prefetch pool), and
#: an unlocked move_to_end racing an eviction would KeyError.  One
#: process-wide lock suffices — the guarded section is a dict probe,
#: never a skeleton build.
_SKELETON_LOCK = threading.Lock()


def _skeleton(
    table: CostTable, num_buckets: int, degrees: tuple[int, ...]
) -> _MilpSkeleton:
    key = (num_buckets, degrees)
    skeletons = table.milp_skeletons
    with _SKELETON_LOCK:
        skeleton = skeletons.get(key)
        if skeleton is not None:
            skeletons.move_to_end(key)
            return skeleton
    # Built outside the lock: assembly is the expensive part, and two
    # threads racing to build the same structure both produce
    # equivalent immutable skeletons (last insert wins).
    skeleton = _MilpSkeleton(table, num_buckets, degrees)
    with _SKELETON_LOCK:
        existing = skeletons.get(key)
        if existing is not None:
            skeletons.move_to_end(key)
            return existing
        skeletons[key] = skeleton
        while len(skeletons) > _SKELETON_CAPACITY:
            skeletons.popitem(last=False)
    return skeleton


def _incumbent_lower_bound(
    skeleton: _MilpSkeleton,
    table: CostTable,
    uppers: np.ndarray,
    w_distinct: np.ndarray,
) -> float:
    """A valid lower bound on the optimal makespan ``C``.

    Every occupied bucket's members must land in *some* group of some
    candidate degree, whose branch rows then dominate a single
    member's own coefficients (all Eq. 18 terms are non-negative):
    ``C >= max_q min_d branch_time(d, q)``.  Installing the bound
    tightens branch-and-bound without excluding any feasible solution.
    ``w_distinct`` is the ``(D, Q)`` coefficient stack the matrix
    assembly computes anyway — shared, not recomputed.
    """
    distinct_idx = np.asarray(
        [table.degree_index[d] for d in skeleton.distinct_degrees],
        dtype=np.intp,
    )
    cpt = table.comm_per_token[distinct_idx][:, None]
    comm_beta = table.comm_beta[distinct_idx][:, None]
    branch1 = w_distinct + (table.beta1 + table.exposed_gather) + comm_beta
    if table.gather > 0:
        branch2 = cpt * uppers[None, :] + comm_beta + table.gather
        per_degree = np.maximum(branch1, branch2)
    else:
        per_degree = branch1
    per_bucket = per_degree.min(axis=0)
    # Buckets are built from the batch itself, so every bucket holds
    # at least one member.
    return float(per_bucket.max())


def _incumbent_cutoff(
    plan: MicroBatchPlan,
    buckets: list[Bucket],
    table: CostTable,
    universe: list[VirtualGroup],
) -> float | None:
    """The greedy plan's makespan *priced at bucket uppers*, when that
    plan is a feasible MILP solution — then a valid upper bound on the
    optimal ``C`` (HiGHS's objective cutoff), usually far tighter than
    the actual-length makespan plus bucketing slack.

    Returns None when the greedy assignment falls outside the MILP's
    feasible region — a degree the virtual-group ``universe`` does not
    carry (or not often enough), or a group whose bucket-priced tokens
    exceed its memory cap — since pricing an infeasible assignment
    would risk cutting the true optimum off.  Feasibility is checked
    against the *actual* universe the MILP is built from, so the check
    can never drift from ``enumerate_virtual_groups``'s membership
    rules.
    """
    upper_of: dict[int, float] = {}
    for bucket in buckets:
        for s in set(bucket.lengths):
            upper_of[s] = float(bucket.upper)
    available: dict[int, int] = {}
    for group in universe:
        available[group.degree] = available.get(group.degree, 0) + 1
    count_by_degree: dict[int, int] = {}
    for g in plan.groups:
        count_by_degree[g.degree] = count_by_degree.get(g.degree, 0) + 1
    for degree, count in count_by_degree.items():
        if count > available.get(degree, 0):
            return None
    worst = 0.0
    for g in plan.groups:
        idx = table.degree_index[g.degree]
        priced = np.asarray([upper_of[s] for s in g.lengths], dtype=np.float64)
        tokens = float(priced.sum())
        if tokens > table.token_caps[idx]:
            return None  # Eq. 19 violated at bucket uppers
        w_sum = float(table.milp_time_coefficients(priced, g.degree).sum())
        branch = w_sum + table.beta1 + table.comm_beta[idx] + table.exposed_gather
        if table.gather > 0:
            gather_bound = (
                table.comm_per_token[idx] * tokens
                + table.comm_beta[idx]
                + table.gather
            )
            branch = max(branch, gather_bound)
        worst = max(worst, branch)
    return worst


def _build_and_solve(
    model: CostModel,
    buckets: list[Bucket],
    groups: list[VirtualGroup],
    config: PlannerConfig,
    c_upper: float = np.inf,
    bound_objective: bool = False,
):
    """Assemble the sparse MILP (via the cached skeleton) and run HiGHS.

    The Eq. 18 time coefficients come from the vectorized
    :class:`repro.cost.model.CostTable` (one elementwise kernel per
    *distinct* degree); the constraint structure, CSC scaffolding and
    length-independent segments come from the
    :class:`_MilpSkeleton` shared by every micro-batch with the same
    (bucket count, degree list).  Every coefficient value and the row
    ordering are identical to the original from-scratch COO assembly,
    so HiGHS receives a bit-for-bit equal problem.

    scipy is imported here, not at module level, so processes that only
    plan greedily never load HiGHS.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    build_started = time.perf_counter()
    table = cost_table(model)
    if table.activation_budget <= 0:
        raise PlanInfeasibleError("model states alone exceed device memory")
    num_buckets = len(buckets)
    degrees = tuple(g.degree for g in groups)
    skeleton = _skeleton(table, num_buckets, degrees)
    uppers = np.asarray([b.upper for b in buckets], dtype=np.float64)
    counts = np.asarray([b.count for b in buckets], dtype=np.float64)

    w_distinct = skeleton.distinct_time_coefficients(table, uppers)
    c_lower = (
        _incumbent_lower_bound(skeleton, table, uppers, w_distinct)
        if bound_objective
        else 0.0
    )
    matrix = skeleton.matrix(table, uppers, w_distinct)
    lower = skeleton.lower_template.copy()
    upper = skeleton.upper_template.copy()
    upper[skeleton.budget_row] = float(model.cluster.num_gpus)
    lower[skeleton.comp_rows] = counts
    upper[skeleton.comp_rows] = counts
    constraints = LinearConstraint(matrix, lower, upper)

    num_groups = skeleton.num_groups
    c_index = skeleton.c_index
    var_lower = np.zeros(skeleton.num_vars)
    var_lower[c_index] = min(c_lower, c_upper)
    var_upper = np.empty(skeleton.num_vars)
    var_upper[:num_groups] = 1.0
    var_upper[num_groups:c_index] = np.repeat(counts, num_groups)
    var_upper[c_index] = c_upper

    # Budget: a node_limit is deterministic (same problem, same tree on
    # any host) and therefore replaces — not complements — the
    # wall-clock limit, which would otherwise re-introduce host-load
    # dependence into the outcome.
    options = {"mip_rel_gap": config.mip_rel_gap, "presolve": True}
    if config.node_limit is not None:
        options["node_limit"] = config.node_limit
    else:
        options["time_limit"] = config.time_limit
    stage_timing.add("milp_build", time.perf_counter() - build_started)
    solve_started = time.perf_counter()
    result = milp(
        c=skeleton.objective,
        constraints=constraints,
        integrality=skeleton.integrality,
        bounds=Bounds(var_lower, var_upper),
        options=options,
    )
    stage_timing.add("milp_solve", time.perf_counter() - solve_started)
    return result, skeleton.a_index, c_index


def _extract_plan(
    model: CostModel,
    buckets: list[Bucket],
    groups: list[VirtualGroup],
    solution: np.ndarray,
    a_index,
) -> MicroBatchPlan:
    """Turn MILP variable values into a concrete MicroBatchPlan.

    Bucket members are mapped back to groups longest-first into the
    highest-degree groups, which only tightens memory relative to the
    planner's upper-limit approximation.
    """
    num_groups = len(groups)
    selected = [p for p in range(num_groups) if solution[p] > 0.5]
    assignment_counts: dict[int, list[int]] = {
        p: [int(round(solution[a_index(q, p)])) for q in range(len(buckets))]
        for p in selected
    }
    # Keep only groups that actually received work.
    active = [p for p in selected if sum(assignment_counts[p]) > 0]
    if not active:
        raise PlanInfeasibleError("MILP returned a plan with no active groups")
    # Highest degrees first: deterministic device placement with
    # power-of-two alignment preserved.
    active.sort(key=lambda p: -groups[p].degree)

    per_group_lengths: dict[int, list[int]] = {p: [] for p in active}
    for q, bucket in enumerate(buckets):
        members = sorted(bucket.lengths, reverse=True)
        cursor = 0
        for p in active:
            take = assignment_counts[p][q]
            per_group_lengths[p].extend(members[cursor : cursor + take])
            cursor += take
        if cursor != len(members):
            raise AssertionError(
                f"bucket {q}: assigned {cursor} of {len(members)} sequences"
            )

    assignments = []
    offset = 0
    for p in active:
        degree = groups[p].degree
        ranks = tuple(range(offset, offset + degree))
        offset += degree
        assignments.append(
            GroupAssignment(
                degree=degree,
                device_ranks=ranks,
                lengths=tuple(sorted(per_group_lengths[p], reverse=True)),
            )
        )
    return MicroBatchPlan(groups=tuple(assignments))


def plan_makespan(model: CostModel, plan: MicroBatchPlan) -> float:
    """A plan's predicted makespan on *actual* (unbucketed) lengths.

    Includes the exposed ZeRO-3 gather so that micro-batch-count
    choices in the solver loop see the true per-micro-batch cost.
    """
    return max(model.time_with_overheads(g.lengths, g.degree) for g in plan.groups)


def makespan_lower_bound(
    model: CostModel, lengths: tuple[int, ...] | list[int]
) -> float:
    """A certified lower bound on the predicted makespan of any plan
    either planner backend can return for one micro-batch.

    Two closed-form bounds, of which the larger is returned:

    * *Single sequence.*  Every sequence runs in a group of some degree
      it fits at alone, and a group's time only grows with its
      members, so ``C >= max_k min_d time_with_overheads([s_k], d)``.
    * *GPU area.*  A degree-``d`` group's compute branch is at least
      ``beta1 + exposed gather + sum_k w(d, s_k)`` (``w`` the Eq. 18
      coefficient; ``beta2`` dropped).  Weighting each group by its
      degree and using ``sum d <= N`` gives
      ``C >= beta1 + exposed gather + sum_k min_d d w(d, s_k) / N``.

    The degrees a sequence may take are those :meth:`CostModel.fits`
    allows, widened by the planners' per-degree token caps so float
    rounding at the memory boundary can only loosen the bound.  Returns
    ``+inf`` where both planners must reject the shape: more tokens
    than the cluster holds, or a sequence that fits no degree.
    Pure arithmetic over the cost table — no planner runs.
    """
    lengths = tuple(int(s) for s in lengths)
    if not lengths:
        raise ValueError("cannot bound an empty micro-batch")
    table = cost_table(model)
    if (
        table.activation_budget <= 0
        or sum(lengths) > model.cluster_token_capacity()
    ):
        return float("inf")
    s = np.asarray(lengths, dtype=np.float64)[:, None]
    degrees = table.degree_arr[None, :]
    # CostModel.fits, elementwise (same IEEE ops as the scalar check).
    memory = s / degrees * table.memory_per_token + table.model_state_bytes
    allowed = (memory <= model.memory_budget) | (s <= table.token_caps[None, :])
    if not allowed.any(axis=1).all():
        return float("inf")
    work = table.work_terms(s)
    alone = table.group_times(
        work, s, np.arange(len(table.degrees))[None, :]
    )
    single = float(np.where(allowed, alone, np.inf).min(axis=1).max())
    # d * w(d, s) = alpha1 s^2 + alpha2 s + d * comm_per_token(d) * s.
    area_terms = work + degrees * table.comm_per_token[None, :] * s
    area = float(np.where(allowed, area_terms, np.inf).min(axis=1).sum())
    area = table.beta1 + table.exposed_gather + area / model.cluster.num_gpus
    return max(single, area)


def plan_microbatch(
    lengths: tuple[int, ...] | list[int],
    model: CostModel,
    config: PlannerConfig | None = None,
) -> tuple[MicroBatchPlan, float]:
    """Solve the S4.1 MILP for one micro-batch.

    With ``greedy_incumbent`` enabled (default), the greedy LPT plan is
    computed first and its makespan installed as an upper bound on the
    MILP's objective — branch-and-bound then only explores strictly
    better regions, and the better of the two plans is returned.  Both
    candidates are compared on their actual-length makespans, so the
    bucketing approximation never inflates the reported prediction.

    Args:
        lengths: The micro-batch's sequence lengths.
        model: Fitted cost model for the (model, cluster) pair.
        config: Planner knobs; defaults match the paper.

    Returns:
        The best plan found and its predicted makespan in seconds.

    Raises:
        PlanInfeasibleError: No feasible grouping exists (the caller —
            the solver loop — should retry with more micro-batches).
    """
    # Imported here: planner_greedy imports this module's exception and
    # config types, so a module-level import would be circular.
    from repro.core.planner_greedy import plan_microbatch_greedy

    config = config or PlannerConfig()
    lengths = tuple(int(s) for s in lengths)
    if not lengths:
        raise ValueError("cannot plan an empty micro-batch")
    enum_started = time.perf_counter()
    buckets = _make_buckets(lengths, config)
    groups = enumerate_virtual_groups(model, lengths)
    _check_feasibility(model, buckets, groups)
    stage_timing.add("enumerate", time.perf_counter() - enum_started)

    incumbent: tuple[MicroBatchPlan, float] | None = None
    c_upper = np.inf
    if config.greedy_incumbent:
        table = cost_table(model)
        try:
            greedy_plan, greedy_pred = plan_microbatch_greedy(lengths, model)
            incumbent = (greedy_plan, greedy_pred)
            # The MILP prices buckets at their upper limits, so allow
            # the cutoff a little slack over the actual-length
            # makespan — and tighten it to the incumbent's own
            # bucket-priced makespan whenever the greedy assignment is
            # MILP-feasible (a genuine solution, so a valid cutoff).
            c_upper = greedy_pred * 1.05
            priced = _incumbent_cutoff(greedy_plan, buckets, table, groups)
            if priced is not None:
                c_upper = min(c_upper, priced)
        except PlanInfeasibleError:
            incumbent = None

    # The C lower bound is valid with or without an incumbent, but
    # gated on the same knob: disabling greedy_incumbent documents
    # itself as exposing raw HiGHS behaviour.
    result, a_index, c_index = _build_and_solve(
        model,
        buckets,
        groups,
        config,
        c_upper=c_upper,
        bound_objective=config.greedy_incumbent,
    )
    if result.x is None:
        if incumbent is not None:
            return incumbent
        raise PlanInfeasibleError(
            f"MILP solver found no feasible plan (status={result.status}: "
            f"{result.message})"
        )
    plan = _extract_plan(model, buckets, groups, result.x, a_index)
    predicted = plan_makespan(model, plan)
    if incumbent is not None and incumbent[1] <= predicted:
        return incumbent
    return plan, predicted
