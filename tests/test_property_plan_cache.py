"""Property-based tests: plan-cache correctness and CostTable exactness.

Two invariants guard the solver-throughput subsystem:

* A cache *hit* must be indistinguishable from a fresh solve — same
  plan, same predicted time — for any batch, since cached plans are
  reused across trials and iterations; and the cached solver must
  return what planning every micro-batch of every trial from scratch
  returns (``tests/solver_oracle.py``).
* The vectorized :class:`repro.cost.model.CostTable` must agree with
  the scalar :class:`repro.cost.model.CostModel` it replaces, exactly,
  and the plan estimator (:mod:`repro.cost.estimator`) must price
  groups with the model's own numbers.
"""

from unittest.mock import patch

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from solver_oracle import plan_every_trial

from repro.core.plan_cache import PlanCache, SolveStats, plan_key
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.core.types import (
    GroupAssignment,
    IterationPlan,
    MicroBatchPlan,
    SequenceBatch,
)
from repro.cost.estimator import (
    estimate_iteration_time,
    estimate_microbatch_time,
    microbatch_peak_memory,
)
from repro.cost.model import cost_table

lengths_strategy = st.lists(
    st.integers(min_value=64, max_value=24_000), min_size=1, max_size=40
)


def one_group(lengths, degree) -> MicroBatchPlan:
    return MicroBatchPlan(
        groups=(
            GroupAssignment(
                degree=degree,
                device_ranks=tuple(range(degree)),
                lengths=tuple(lengths),
            ),
        )
    )


def greedy_solver(model) -> FlexSPSolver:
    return FlexSPSolver(model, SolverConfig(num_trials=3, backend="greedy"))


class TestCachedPlansMatchFreshSolves:
    @given(lengths=lengths_strategy)
    @settings(max_examples=40, deadline=None)
    def test_warm_solve_equals_cold_solve(self, cost_model8, lengths):
        """Solving the same batch twice (second time fully cached) must
        reproduce the cold plan bit-for-bit.  Batches infeasible at
        every trial count (a near-capacity micro-batch in each split —
        the strategy can generate these) must stay infeasible on the
        cached retry: the INFEASIBLE sentinel is memoised too."""
        from repro.core.planner import PlanInfeasibleError

        solver = greedy_solver(cost_model8)
        try:
            cold = solver.solve(tuple(lengths))
        except PlanInfeasibleError:
            with pytest.raises(PlanInfeasibleError):
                solver.solve(tuple(lengths))
            return
        warm = solver.solve(tuple(lengths))
        assert warm.predicted_time == cold.predicted_time
        assert warm.microbatches == cold.microbatches
        assert warm.stats is not None and warm.stats.planner_calls == 0
        assert warm.stats.hit_rate == 1.0

    @given(lengths=lengths_strategy)
    @settings(max_examples=40, deadline=None)
    def test_cached_path_equals_uncached_path(self, cost_model8, lengths):
        """The cache must never change what the solver returns: its
        plan is the one planning every micro-batch of every trial
        returns, and infeasible exactly when that finds no plan."""
        from repro.core.planner import PlanInfeasibleError

        solver = greedy_solver(cost_model8)
        batch = SequenceBatch(lengths=tuple(lengths))
        oracle = plan_every_trial(solver, batch)
        if oracle is None:
            with pytest.raises(PlanInfeasibleError):
                solver.solve(batch)
            return
        cached = solver.solve(batch)
        assert (cached.predicted_time, cached.microbatches) == oracle

    @given(lengths=lengths_strategy, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_key_is_order_insensitive(self, cost_model8, lengths, data):
        from repro.core.planner import PlannerConfig

        shuffled = data.draw(st.permutations(lengths))
        cfg = PlannerConfig()
        assert plan_key(lengths, cost_model8, cfg, "milp") == plan_key(
            shuffled, cost_model8, cfg, "milp"
        )


class TestWarmPlanIsASolveThatPlansNothing:
    """On any batch and any cache state, ``warm_plan`` answers exactly
    when a solve would plan nothing, with that solve's plan, counters
    and cache effects, and otherwise moves nothing.  The pruned path
    plans with the greedy planner standing in for HiGHS (its
    guarantee only needs plans no worse than the greedy bound)."""

    @given(
        lengths=lengths_strategy,
        seeded=st.sets(st.integers(0, 40)),
        backend=st.sampled_from(["greedy", "milp"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_a_twin_solver(self, cost_model8, lengths, seeded, backend):
        from repro.core import solver as solver_module
        from repro.core.planner import PlanInfeasibleError
        from repro.core.planner_greedy import plan_microbatch_greedy

        batch = SequenceBatch(lengths=tuple(lengths))
        config = SolverConfig(num_trials=4, backend=backend)
        with patch.dict(
            solver_module._BACKENDS, milp=plan_microbatch_greedy
        ):
            answering, solving = (
                FlexSPSolver(cost_model8, config) for __ in "ab"
            )
            __, keys = answering._trial_keys(batch)
            shapes = list(
                dict.fromkeys(s for trial in keys if trial for s in trial)
            )
            chosen = [s for i, s in enumerate(shapes) if i in seeded]
            for shape, outcome in zip(
                chosen, answering.plan_shapes_cold(chosen)
            ):
                for solver in (answering, solving):
                    solver.seed_plan(shape, outcome)
            cache = answering.cache
            before = (cache.hits, cache.misses, cache.snapshot())
            pending = solving.pending_shapes(batch)
            try:
                warm = answering.warm_plan(batch)
            except PlanInfeasibleError:
                assert pending == []
                with pytest.raises(PlanInfeasibleError):
                    solving.solve(batch)
                assert (cache.hits, cache.misses) == (
                    solving.cache.hits,
                    solving.cache.misses,
                )
                return
            if warm is None:
                assert pending != []
                assert (cache.hits, cache.misses, cache.snapshot()) == before
                return
            assert pending == []
            solved = solving.solve(batch)
        assert solved.stats.planner_calls == 0
        assert warm.microbatches == solved.microbatches
        assert warm.predicted_time == solved.predicted_time
        assert warm.solver_name == solved.solver_name
        for name in (
            "cache_hits",
            "dedup_hits",
            "cache_misses",
            "trials",
            "microbatches",
            "pruned_trials",
            "pruned_microbatches",
        ):
            assert getattr(warm.stats, name) == getattr(solved.stats, name)
        assert (cache.hits, cache.misses) == (
            solving.cache.hits,
            solving.cache.misses,
        )
        assert [k for k, __ in cache.snapshot()] == [
            k for k, __ in solving.cache.snapshot()
        ]


class TestCostTableMatchesScalarModel:
    @given(lengths=lengths_strategy, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_time_with_overheads_agrees(self, cost_model8, lengths, data):
        """The estimator prices a group exactly as the planner does."""
        degree = data.draw(st.sampled_from(cost_table(cost_model8).degrees))
        mb = one_group(lengths, degree)
        scalar = cost_model8.time_with_overheads(lengths, degree)
        assert estimate_microbatch_time(cost_model8, mb) == scalar
        assert estimate_iteration_time(
            cost_model8, IterationPlan(microbatches=(mb,))
        ) == scalar

    @given(lengths=lengths_strategy, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_memory_agrees_exactly(self, cost_model8, lengths, data):
        degree = data.draw(st.sampled_from(cost_table(cost_model8).degrees))
        assert microbatch_peak_memory(
            cost_model8, one_group(lengths, degree)
        ) == cost_model8.memory(lengths, degree)

    @given(lengths=lengths_strategy, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_incremental_group_time_is_bit_exact(self, cost_model8, lengths, data):
        """Sequential work/token accumulation (the greedy LPT path)
        reproduces the scalar model bit-for-bit, not just to 1e-9."""
        table = cost_table(cost_model8)
        degree = data.draw(st.sampled_from(table.degrees))
        work = 0.0
        tokens = 0
        for s in lengths:
            work += table.alpha1 * float(s) * float(s) + table.alpha2 * float(s)
            tokens += s
        [time] = table.group_times(
            np.array([work]),
            np.array([tokens], dtype=np.float64),
            np.array([table.degree_index[degree]]),
        )
        assert time == cost_model8.time_with_overheads(lengths, degree)

    @given(uppers=st.lists(st.integers(min_value=1, max_value=65_536), min_size=1, max_size=16), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_milp_coefficients_are_bit_exact(self, cost_model8, uppers, data):
        """Eq. 18 coefficients from the table equal the scalar
        expression the MILP assembly used to compute per entry."""
        table = cost_table(cost_model8)
        degree = data.draw(st.sampled_from(table.degrees))
        coeffs = cost_model8.coeffs
        cpt = cost_model8.comm_seconds_per_token(degree)
        vec = table.milp_time_coefficients(uppers, degree)
        for s, w in zip(uppers, vec):
            scalar = (coeffs.alpha1 * s * s + coeffs.alpha2 * s) / degree
            scalar += cpt * s
            assert w == scalar


class TestPlanCacheMechanics:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.store(("a",), None, None)
        cache.store(("b",), None, None)
        assert cache.lookup([("a",)]) != [None]
        cache.store(("c",), None, None)  # evicts b (least recent)
        assert cache.lookup([("b",)]) == [None]
        assert cache.lookup([("a",)]) != [None]
        assert cache.lookup([("c",)]) != [None]

    def test_counters(self):
        cache = PlanCache()
        assert cache.lookup([("x",)]) == [None]
        cache.store(("x",), None, None)
        assert cache.lookup([("x",)]) != [None]
        assert cache.hits == 1
        assert cache.misses == 1

    @given(
        stored=st.lists(st.integers(0, 7), max_size=8),
        rounds=st.lists(
            st.tuples(
                st.lists(st.integers(0, 9), max_size=6), st.integers(0, 9)
            ),
            max_size=5,
        ),
        capacity=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_key_sequences_match_a_key_by_key_walk(
        self, stored, rounds, capacity
    ):
        """One ``lookup``/``peek`` over a key sequence (repeats and
        misses included) leaves hits, misses and LRU order exactly as
        a twin cache walked one key at a time."""
        batched, twin = PlanCache(capacity), PlanCache(capacity)
        for cache in (batched, twin):
            for k in stored:
                cache.store((k,), None, None)
        for probe, extra in rounds:
            keys = [(k,) for k in probe]
            before = (batched.snapshot(), batched.hits, batched.misses)
            assert batched.peek(keys) == [twin.peek([key])[0] for key in keys]
            assert (batched.snapshot(), batched.hits, batched.misses) == before
            assert batched.lookup(keys) == [
                twin.lookup([key])[0] for key in keys
            ]
            assert (batched.hits, batched.misses) == (twin.hits, twin.misses)
            assert batched.snapshot() == twin.snapshot()
            for cache in (batched, twin):
                cache.store((extra,), None, None)

    @given(
        stored=st.lists(st.integers(0, 7), max_size=8),
        rounds=st.lists(
            st.tuples(
                st.lists(st.integers(0, 9), max_size=6), st.integers(0, 9)
            ),
            max_size=5,
        ),
        capacity=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_lookup_all_is_a_lookup_or_nothing(self, stored, rounds, capacity):
        """``lookup_all`` leaves what ``lookup`` leaves on a twin cache
        when every key is cached, and moves nothing otherwise."""
        every, twin = PlanCache(capacity), PlanCache(capacity)
        for cache in (every, twin):
            for k in stored:
                cache.store((k,), None, None)
        for probe, extra in rounds:
            keys = [(k,) for k in probe]
            before = (every.snapshot(), every.hits, every.misses)
            found = every.lookup_all(keys)
            if None in twin.peek(keys):
                assert found is None
                assert (every.snapshot(), every.hits, every.misses) == before
            else:
                assert found == twin.lookup(keys)
                assert (every.hits, every.misses) == (twin.hits, twin.misses)
                assert every.snapshot() == twin.snapshot()
            for cache in (every, twin):
                cache.store((extra,), None, None)

    def test_stats_merge_and_hit_rate(self):
        a = SolveStats(cache_hits=3, cache_misses=1, pruned_trials=1,
                       pruned_microbatches=2)
        b = SolveStats(cache_hits=1, cache_misses=3, pruned_trials=2,
                       pruned_microbatches=5)
        merged = a.merged(b)
        assert merged.cache_hits == 4
        assert merged.cache_misses == 4
        assert merged.pruned_trials == 3
        assert merged.pruned_microbatches == 7
        assert merged.hit_rate == pytest.approx(0.5)
        assert SolveStats().hit_rate == 0.0
