"""The solver's four hot loops against references written out here.

The greedy planner's batched LPT pass
(:mod:`repro.core.planner_greedy`) and the bucketing and blaster DPs
(:mod:`repro.core.bucketing`, :mod:`repro.core.blaster`) have one
numpy implementation each.  These tests hold them to plain
references that share no code with them:

* **Quadratic DPs.**  The bucketing DP fills each layer with a
  divide-and-conquer argmin and the blaster DP with a forward pointer
  (short batches) or one searchsorted (long ones) per layer; both must
  break ties like a leftmost argmin over every split point.  The
  textbook O(n^2) recurrences below take that argmin, so bucket edges
  and cut points must come out equal, not merely equally good.  Every
  blaster instance runs through both of its layer loops, on sorted
  lengths and on arrival order (the Fig. 7 "w/o Sort" path), up to 600
  sequences.
* **Exhaustive search.**  On small instances every bucket-edge set
  and every cut-point set is enumerated; the DPs must reach the true
  optimum of Eq. 15 and Eq. 23.
* **LPT layout by layout.**  The scalar oracle
  (``tests/lpt_oracle.py``) on one layout must agree with that
  layout's row of the batched pass, whatever other shapes share the
  pass; its makespan must be the slowest group's time under the cost
  model's own formula; the batched winner must be the layout the
  per-layout loop keeps; and planning many shapes at once must return
  the oracle's plan for each.
"""

import bisect
import itertools
import math
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from lpt_oracle import assign_lpt_scalar, lane_constants, plan_scalar
from repro.core import blaster, kernels
from repro.core.blaster import balanced_cut_points, balanced_cut_points_multi
from repro.core.bucketing import Bucket, bucketing_error, optimal_buckets
from repro.core.planner import PlanInfeasibleError
from repro.core.planner_greedy import (
    _assign_lpt_batched,
    _layout_stack,
    plan_microbatch_greedy,
    plan_microbatches_greedy,
)
from repro.cost.model import cost_table

# ---------------------------------------------------------------------------
# DP references and instances
# ---------------------------------------------------------------------------

#: Length families for the DPs: spread-out values, a corpus-like long
#: tail, heavy duplicates, every split tying, and equal gaps (many
#: equal-cost bucket edges).
DP_FAMILIES = ("uniform", "long_tail", "quantized", "all_equal", "arithmetic")


def _dp_lengths(
    family: str, rng: np.random.Generator, max_count: int, min_count: int = 2
) -> list[int]:
    count = int(rng.integers(min_count, max_count + 1))
    if family == "uniform":
        return [int(s) for s in rng.integers(1, 5_000, size=count)]
    if family == "long_tail":
        draws = rng.lognormal(mean=7.0, sigma=1.2, size=count)
        return [max(1, int(s)) for s in draws]
    if family == "quantized":
        return [512 * int(k) for k in rng.integers(1, 9, size=count)]
    if family == "all_equal":
        return [64] * count
    if family == "arithmetic":
        step = int(rng.integers(1, 100))
        return [step * (i + 1) for i in range(count)]
    raise AssertionError(f"unknown family {family!r}")


def _quadratic_bucket_uppers(lengths, num_buckets: int) -> list[int]:
    """Eq. 16 over the unique lengths, every split point tried."""
    multiplicity = Counter(lengths)
    values = sorted(multiplicity)
    n = len(values)
    q_max = min(num_buckets, n)
    cnt = list(
        itertools.accumulate((multiplicity[v] for v in values), initial=0)
    )
    wsum = list(
        itertools.accumulate((v * multiplicity[v] for v in values), initial=0)
    )
    err = [0] + [math.inf] * n
    boundary = {}
    for q in range(1, q_max + 1):
        new_err = [math.inf] * (n + 1)
        for k in range(q, n + 1):
            for j in range(q - 1, k):
                cost = err[j] + values[k - 1] * (cnt[k] - cnt[j]) - (
                    wsum[k] - wsum[j]
                )
                if cost < new_err[k]:  # strict: the leftmost j wins ties
                    new_err[k] = cost
                    boundary[k, q] = j
        err = new_err
    uppers = []
    k = n
    for q in range(q_max, 0, -1):
        uppers.append(values[k - 1])
        k = boundary[k, q]
    return uppers[::-1]


def _buckets_for(lengths, uppers) -> list[Bucket]:
    buckets = []
    lower = 0
    for upper in uppers:
        members = tuple(sorted(s for s in lengths if lower < s <= upper))
        buckets.append(Bucket(upper=upper, lengths=members))
        lower = upper
    return buckets


def _best_bucketing_error(lengths, num_buckets: int) -> int:
    """Eq. 15 minimised over every choice of bucket upper limits."""
    values = sorted(set(lengths))
    q = min(num_buckets, len(values))
    best = math.inf
    for inner in itertools.combinations(values[:-1], q - 1):
        uppers = (*inner, values[-1])
        error = sum(uppers[bisect.bisect_left(uppers, s)] - s for s in lengths)
        best = min(best, error)
    return best


def _quadratic_cuts(lengths, counts) -> dict[int, list[int]]:
    """Appendix A's DP, every split point tried, one table for all
    counts."""
    n = len(lengths)
    prefix = list(itertools.accumulate(lengths, initial=0))
    dp = [0] + [math.inf] * n
    choice = {}
    for i in range(1, max(counts) + 1):
        new_dp = [math.inf] * (n + 1)
        for k in range(i, n + 1):
            for j in range(i - 1, k):
                cost = max(dp[j], prefix[k] - prefix[j])
                if cost < new_dp[k]:  # strict: the leftmost j wins ties
                    new_dp[k] = cost
                    choice[k, i] = j
        dp = new_dp
    result = {}
    for count in set(counts):
        cuts = []
        k = n
        for i in range(count, 0, -1):
            cuts.append(k)
            k = choice[k, i]
        result[count] = cuts[::-1]
    return result


def _cut_orders(lengths, rng: np.random.Generator) -> list[list[int]]:
    """The orders the blaster cuts in: sorted (takeaway 2) and a
    shuffled arrival order ("w/o Sort"), once each when they agree."""
    ordered = sorted(lengths)
    arrival = [int(s) for s in rng.permutation(lengths)]
    return [ordered] if arrival == ordered else [ordered, arrival]


def _both_loops(lengths, counts) -> list[dict[int, list[int]]]:
    """:func:`balanced_cut_points_multi` with its layers filled by the
    scalar loop, then by the searchsorted loop, whatever the size."""
    results = []
    for below in (len(lengths) + 1, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blaster, "_SCALAR_DP_BELOW", below)
            results.append(balanced_cut_points_multi(lengths, counts))
    return results


def _best_max_chunk(lengths, count: int) -> int:
    """Eq. 23 minimised over every placement of ``count - 1`` cuts."""
    n = len(lengths)
    best = math.inf
    for inner in itertools.combinations(range(1, n), count - 1):
        edges = (0, *inner, n)
        worst = max(sum(lengths[a:b]) for a, b in zip(edges, edges[1:]))
        best = min(best, worst)
    return best


def _max_chunk(lengths, cuts) -> int:
    edges = (0, *cuts)
    return max(sum(lengths[a:b]) for a, b in zip(edges, edges[1:]))


class TestBucketingDP:
    @pytest.mark.parametrize("family", DP_FAMILIES)
    def test_matches_quadratic_dp(self, family):
        rng = np.random.default_rng(13)
        for __ in range(8):
            lengths = _dp_lengths(family, rng, max_count=80)
            num_buckets = int(rng.integers(1, 20))
            expected = _buckets_for(
                lengths, _quadratic_bucket_uppers(lengths, num_buckets)
            )
            assert optimal_buckets(lengths, num_buckets) == expected

    @given(
        lengths=st.lists(
            st.integers(min_value=1, max_value=50_000), min_size=1, max_size=60
        ),
        num_buckets=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_quadratic_dp_property(self, lengths, num_buckets):
        expected = _buckets_for(
            lengths, _quadratic_bucket_uppers(lengths, num_buckets)
        )
        assert optimal_buckets(lengths, num_buckets) == expected

    @pytest.mark.parametrize("family", DP_FAMILIES)
    def test_error_is_exhaustive_optimum(self, family):
        rng = np.random.default_rng(29)
        for __ in range(6):
            lengths = _dp_lengths(family, rng, max_count=12)
            # One past the unique count exercises the fewer-buckets path.
            for num_buckets in range(1, len(set(lengths)) + 2):
                buckets = optimal_buckets(lengths, num_buckets)
                assert len(buckets) == min(num_buckets, len(set(lengths)))
                assert bucketing_error(buckets) == _best_bucketing_error(
                    lengths, num_buckets
                )

    def test_equal_cost_edges_resolve_leftmost(self):
        # {1} + {2, 3} and {1, 2} + {3} both cost one token; the
        # leftmost split point keeps the first.
        assert optimal_buckets([3, 1, 2], 2) == [
            Bucket(upper=1, lengths=(1,)),
            Bucket(upper=3, lengths=(2, 3)),
        ]


class TestBlasterDP:
    @pytest.mark.parametrize("family", DP_FAMILIES)
    def test_matches_quadratic_dp(self, family):
        rng = np.random.default_rng(17)
        instances = []
        for __ in range(8):
            lengths = _dp_lengths(family, rng, max_count=48)
            n = len(lengths)
            top = int(rng.integers(1, n + 1))
            # 1 and n take the no-DP shortcuts; they must agree with
            # the table too.
            instances.append(
                (lengths, sorted({1, n, *range(max(1, top - 2), top + 1)}))
            )
        # A long batch with a trial window of up to a dozen counts.
        lengths = _dp_lengths(family, rng, max_count=600, min_count=300)
        top = int(rng.integers(3, 13))
        instances.append((lengths, [1, *range(top - 2, top + 1)]))
        for lengths, counts in instances:
            for order in _cut_orders(lengths, rng):
                expected = _quadratic_cuts(order, counts)
                assert _both_loops(order, counts) == [expected, expected]

    @given(
        lengths=st.lists(
            st.integers(min_value=1, max_value=8)
            | st.integers(min_value=1, max_value=50_000),
            min_size=1,
            max_size=120,
        ),
        sort=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_quadratic_dp_property(self, lengths, sort, data):
        """Small values (1-8) make ties between split points common;
        ``sort=False`` cuts in arrival order, the "w/o Sort" path."""
        if sort:
            lengths = sorted(lengths)
        count = data.draw(
            st.integers(min_value=1, max_value=min(len(lengths), 40))
        )
        counts = tuple(c for c in (1, 2, count) if c <= len(lengths))
        expected = _quadratic_cuts(lengths, counts)
        assert _both_loops(lengths, counts) == [expected, expected]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("family", ["quantized", "all_equal", "long_tail"])
    def test_loops_agree_around_the_crossover(self, family, offset):
        """Batches one below, at and one above the size that switches
        loops, tie-rich families included, sorted and in arrival order:
        the loop the size selects and both forced loops all equal the
        quadratic DP, with trial windows as wide as a campaign's."""
        rng = np.random.default_rng(41 + offset)
        n = blaster._SCALAR_DP_BELOW + offset
        lengths = _dp_lengths(family, rng, max_count=n, min_count=n)
        for order in _cut_orders(lengths, rng):
            for counts in ([1, 2, 3, 4, 5], list(range(4, 13)), [n - 1, n]):
                expected = _quadratic_cuts(order, counts)
                assert balanced_cut_points_multi(order, counts) == expected
                assert _both_loops(order, counts) == [expected, expected]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_batch_size_selects_the_loop(self, offset, monkeypatch):
        calls = []
        numpy_layers = blaster._numpy_layers
        monkeypatch.setattr(
            blaster,
            "_numpy_layers",
            lambda *args: calls.append(args) or numpy_layers(*args),
        )
        n = blaster._SCALAR_DP_BELOW + offset
        balanced_cut_points_multi(list(range(1, n + 1)), [2, 3])
        assert len(calls) == (0 if offset < 0 else 1)

    @pytest.mark.parametrize("family", DP_FAMILIES)
    def test_max_chunk_is_exhaustive_optimum(self, family):
        rng = np.random.default_rng(31)
        for __ in range(6):
            lengths = sorted(_dp_lengths(family, rng, max_count=10))
            for count in range(1, len(lengths) + 1):
                cuts = balanced_cut_points(lengths, count)
                assert len(cuts) == count
                assert _max_chunk(lengths, cuts) == _best_max_chunk(
                    lengths, count
                )

    def test_equal_cost_cuts_resolve_leftmost(self):
        # [1] + [1, 1] and [1, 1] + [1] both peak at two tokens; the
        # leftmost split point keeps the first.
        assert balanced_cut_points([1, 1, 1], 2) == [1, 3]

    def test_single_sequence(self):
        assert balanced_cut_points_multi([5], (1,)) == {1: [1]}


# ---------------------------------------------------------------------------
# LPT passes
# ---------------------------------------------------------------------------

#: Micro-batch families for the LPT passes: random and quantised
#: batches on 16 GPUs (wide layout families, an inter-node degree),
#: and the degenerate corners on 8 GPUs — one sequence, equal lengths,
#: and a longest sequence that needs the whole cluster (d_big == N,
#: a one-layout family of one lane).
LPT_FAMILIES = (
    "random", "quantized", "single_sequence", "all_equal", "full_cluster",
)


def _lpt_instances(family: str, request):
    if family in ("random", "quantized"):
        model = request.getfixturevalue("cost_model16")
        rng = np.random.default_rng(11 if family == "random" else 23)
        instances = []
        for __ in range(8):
            count = int(rng.integers(1, 24))
            if family == "random":
                draws = rng.integers(128, 12_000, size=count)
            else:
                draws = 512 * rng.integers(1, 24, size=count)
            instances.append(tuple(int(s) for s in draws))
    else:
        model = request.getfixturevalue("cost_model8")
        if family == "single_sequence":
            per_device = int(model.max_tokens_per_device())
            instances = [(2048,), (4096,), (per_device,)]
        elif family == "all_equal":
            instances = [(4096,) * 8, (1024,) * 16, (512,) * 3]
        else:
            per_device = model.max_tokens_per_device()
            longest = int(per_device * (model.cluster.num_gpus - 1))
            assert (
                model.min_degree_for_sequence(longest)
                == model.cluster.num_gpus
            )
            instances = [(longest,), (longest, 1024, 1024)]
    capacity = model.cluster_token_capacity()
    return model, [x for x in instances if sum(x) <= capacity]


def _surviving_rows(model, lengths):
    stack = _layout_stack(model, max(lengths))
    rows = stack.surviving(float(sum(lengths)), float(max(lengths)))
    return stack, [int(r) for r in rows]


def _members(model, instances):
    """The pass members ``(ordered, stack, rows)`` of the instances some
    layout survives for."""
    members = []
    for lengths in instances:
        stack, rows = _surviving_rows(model, lengths)
        if rows:
            members.append(
                (sorted(lengths, reverse=True), stack, np.asarray(rows))
            )
    return members


def _assert_matches_oracle(member, stacked, table):
    """One member's pass outcome against the scalar oracle run layout
    by layout: the same lanes, makespans and first-minimum winner."""
    ordered, stack, rows = member
    scalar = [
        assign_lpt_scalar(ordered, lane_constants(stack, int(row)), table)
        for row in rows
    ]
    if all(a is None for a in scalar):
        assert stacked is None
        return False
    choices, makespans, winner = stacked
    assert choices.shape == (len(ordered), len(rows))
    spans = [math.inf if a is None else a[1] for a in scalar]
    assert makespans.tolist() == spans
    assert winner == spans.index(min(spans))
    for index, (row, assigned) in enumerate(zip(rows, scalar)):
        if assigned is None:
            # A layout that ran out of room places nothing more.
            assert choices[-1, index] == -1
            continue
        groups = [[] for __ in stack.layouts[int(row)]]
        for step, lane in enumerate(choices[:, index].tolist()):
            groups[lane].append(ordered[step])
        assert groups == assigned[0]
    return True


class TestLptPasses:
    @pytest.mark.parametrize("family", LPT_FAMILIES)
    def test_scalar_pass_matches_stacked_row(self, family, request):
        """Every (instance, layout) pair is its own one-row member of a
        single batched pass: rows of different lengths, sequence counts
        and layout families share the pass and must not disturb each
        other."""
        model, instances = _lpt_instances(family, request)
        table = cost_table(model)
        singles = [
            (ordered, stack, rows[i : i + 1])
            for ordered, stack, rows in _members(model, instances)
            for i in range(rows.size)
        ]
        batched = _assign_lpt_batched(singles, table)
        feasible = 0
        for member, stacked in zip(singles, batched):
            if _assert_matches_oracle(member, stacked, table):
                assert stacked[2] == 0
                feasible += 1
        assert feasible

    @pytest.mark.parametrize("family", LPT_FAMILIES)
    def test_makespan_is_slowest_group(self, family, request):
        model, instances = _lpt_instances(family, request)
        table = cost_table(model)
        feasible = 0
        for lengths in instances:
            ordered = sorted(lengths, reverse=True)
            stack, rows = _surviving_rows(model, lengths)
            for row in rows:
                assigned = assign_lpt_scalar(
                    ordered, lane_constants(stack, row), table
                )
                if assigned is None:
                    continue
                groups, makespan = assigned
                layout = stack.layouts[row]
                assert sorted(s for g in groups for s in g) == sorted(lengths)
                # Groups hold their lengths in placement order, the
                # order Eq. 12's work sum accumulates in.
                assert makespan == max(
                    model.time_with_overheads(group, degree)
                    for group, degree in zip(groups, layout)
                    if group
                )
                feasible += 1
        assert feasible

    @pytest.mark.parametrize("family", LPT_FAMILIES)
    def test_stacked_winner_is_first_minimum(self, family, request):
        # Layouts tie whenever the winning lanes match (one sequence,
        # equal lengths), so the first-minimum rule is exercised too.
        model, instances = _lpt_instances(family, request)
        table = cost_table(model)
        members = _members(model, instances)
        batched = _assign_lpt_batched(members, table)
        compared = sum(
            _assert_matches_oracle(member, stacked, table)
            for member, stacked in zip(members, batched)
        )
        assert compared

    def test_layout_families_share_one_pass(self, cost_model16):
        """Shapes of several layout families (different ``d_big``) of
        one model in one pass: each shape's choices, makespans and
        winner equal a pass of its family alone and the oracle's."""
        model = cost_model16
        table = cost_table(model)
        per_device = int(model.max_tokens_per_device())
        rng = np.random.default_rng(7)
        instances = []
        for d_big in (1, 2, 4, 8):
            longest = per_device * d_big - 1
            for __ in range(3):
                count = rng.integers(0, 20)
                rest = rng.integers(128, per_device // 2, size=count)
                instances.append((longest, *(int(s) for s in rest)))
        members = _members(model, instances)
        assert len(members) == len(instances)
        assert len({stack for __, stack, __ in members}) >= 3
        together = _assign_lpt_batched(members, table)
        for member, stacked in zip(members, together):
            assert _assert_matches_oracle(member, stacked, table)
            same_family = [m for m in members if m[1] is member[1]]
            alone = _assign_lpt_batched(same_family, table)[
                next(i for i, m in enumerate(same_family) if m is member)
            ]
            choices, makespans, winner = stacked
            assert np.array_equal(choices, alone[0])
            assert makespans.tolist() == alone[1].tolist()
            assert winner == alone[2]

    @pytest.mark.parametrize("family", LPT_FAMILIES)
    def test_batched_matches_per_shape(self, family, request):
        model, instances = _lpt_instances(family, request)
        num_gpus = model.cluster.num_gpus
        per_device = int(model.max_tokens_per_device())
        too_long = int(model.cluster_token_capacity()) + 1
        assert model.min_degree_for_sequence(too_long) is None
        shapes = [
            *instances,
            *instances[::2],  # duplicates
            (per_device,) * (num_gpus + 1),  # over the cluster's capacity
            (too_long,),  # a sequence no degree fits
            (2048,),  # a single sequence
            (1024,) * 6,  # equal lengths: every lane ties
            (4096, 4096, 2048, 2048),  # ties within runs
            (per_device * (num_gpus // 2), 512),  # a wider layout family
        ]
        expected = [plan_scalar(lengths, model) for lengths in shapes]
        assert plan_microbatches_greedy(shapes, model) == expected
        assert expected.count(None) >= 2
        planned = [s for s, outcome in zip(shapes, expected) if outcome]
        assert len({_layout_stack(model, max(s)) for s in planned}) >= 2

    @pytest.mark.parametrize("family", LPT_FAMILIES)
    def test_plans_identical_on_both_routes(self, family, request):
        """The planner's one-shape pass and the scalar oracle."""
        model, instances = _lpt_instances(family, request)

        def plan(lengths):
            try:
                return plan_microbatch_greedy(lengths, model)
            except PlanInfeasibleError:
                return None

        planned = 0
        for lengths in instances:
            scalar = plan_scalar(lengths, model)
            stacked = plan(lengths)
            assert scalar == stacked
            if scalar is None:
                continue
            groups = scalar[0].groups
            placed = sorted(s for g in groups for s in g.lengths)
            assert placed == sorted(lengths)
            longest = max(lengths)
            holder = next(g for g in groups if longest in g.lengths)
            assert holder.degree >= model.min_degree_for_sequence(longest)
            planned += 1
        assert planned


def test_implementation_tag_names_numpy():
    """Benchmark run envelopes record this tag."""
    assert kernels.describe_dict() == {"tier": "numpy"}
