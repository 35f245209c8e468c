"""Degenerate cold-input coverage for the planning engine.

The cold-path machinery (dominance-pruned layout stacks, stacked LPT,
MILP skeleton reuse, incumbent cutoffs) must behave on the corners the
throughput benchmarks never visit: single-sequence micro-batches,
all-equal-length batches, and corpora whose longest sequence forces
``d_big == num_gpus`` — a one-layout family of a single full-cluster
group — through both planner backends and the full solver loop.
"""

import pytest

from repro.core.planner import PlannerConfig, plan_microbatch
from repro.core.planner_greedy import (
    _layout_stack,
    candidate_layouts,
    plan_microbatch_greedy,
)
from repro.core.solver import FlexSPSolver, SolverConfig

MILP_CFG = PlannerConfig(time_limit=2.0, mip_rel_gap=0.05)

BACKENDS = (
    ("greedy", plan_microbatch_greedy, None),
    ("milp", plan_microbatch, MILP_CFG),
)


def _covers(plan, lengths):
    assigned = sorted(s for g in plan.groups for s in g.lengths)
    assert assigned == sorted(lengths)


class TestSingleSequence:
    @pytest.mark.parametrize("name,planner,cfg", BACKENDS)
    def test_single_short_sequence(self, cost_model8, name, planner, cfg):
        plan, predicted = planner((2048,), cost_model8, cfg)
        _covers(plan, (2048,))
        assert len(plan.groups) == 1
        assert predicted > 0

    @pytest.mark.parametrize("name,planner,cfg", BACKENDS)
    def test_single_sequence_solver_batch(
        self, cost_model8, name, planner, cfg
    ):
        solver = FlexSPSolver(
            cost_model8,
            SolverConfig(num_trials=2, backend=name, planner=cfg or MILP_CFG),
        )
        result = solver.solve((2048,))
        assert result.num_microbatches == 1
        assert result.tokens == 2048


class TestAllEqualLengths:
    @pytest.mark.parametrize("name,planner,cfg", BACKENDS)
    def test_equal_lengths_plan(self, cost_model8, name, planner, cfg):
        lengths = (4096,) * 8
        plan, predicted = planner(lengths, cost_model8, cfg)
        _covers(plan, lengths)
        assert predicted > 0

    def test_equal_lengths_solver_both_backends_cover(self, cost_model8):
        lengths = (4096,) * 24
        outcomes = {}
        for backend in ("greedy", "milp"):
            solver = FlexSPSolver(
                cost_model8,
                SolverConfig(
                    num_trials=2, backend=backend, planner=MILP_CFG
                ),
            )
            result = solver.solve(lengths)
            assert result.tokens == sum(lengths)
            outcomes[backend] = result.predicted_time
        # The MILP (with its greedy incumbent) never predicts slower.
        assert outcomes["milp"] <= outcomes["greedy"] * 1.001


class TestFullClusterDBig:
    """Longest sequence only fits at SP = num_gpus: the candidate
    family degenerates to the single one-group layout ``(N,)``."""

    def _long_sequence(self, model):
        per_device = model.max_tokens_per_device()
        longest = int(per_device * (model.cluster.num_gpus - 1))
        assert model.min_degree_for_sequence(longest) == model.cluster.num_gpus
        return longest

    def test_one_group_layout_family(self, cost_model8):
        longest = self._long_sequence(cost_model8)
        layouts = candidate_layouts(cost_model8, longest)
        assert layouts == [(cost_model8.cluster.num_gpus,)]
        stack = _layout_stack(cost_model8, longest)
        assert stack.lanes.tolist() == [1]

    @pytest.mark.parametrize("name,planner,cfg", BACKENDS)
    def test_planners_produce_one_group(self, cost_model8, name, planner, cfg):
        longest = self._long_sequence(cost_model8)
        lengths = (longest, 1024, 1024)
        plan, predicted = planner(lengths, cost_model8, cfg)
        _covers(plan, lengths)
        assert predicted > 0
        # The long sequence's group must span the whole cluster.
        long_group = next(g for g in plan.groups if longest in g.lengths)
        assert long_group.degree == cost_model8.cluster.num_gpus

    @pytest.mark.parametrize("backend", ["greedy", "milp"])
    def test_solver_handles_forced_full_cluster(self, cost_model8, backend):
        longest = self._long_sequence(cost_model8)
        batch = (longest, 2048, 2048, 1024)
        solver = FlexSPSolver(
            cost_model8,
            SolverConfig(num_trials=2, backend=backend, planner=MILP_CFG),
        )
        result = solver.solve(batch)
        assert result.tokens == sum(batch)
        # The greedy stage breakdown is recorded for cold solves.
        assert result.stats is not None
        stages = result.stats.stage_seconds()
        assert stages["enumerate"] >= 0.0
        if backend == "milp":
            assert stages["milp_solve"] > 0.0
        else:
            assert stages["lpt"] > 0.0


class TestStageTimingFrames:
    def test_nested_collectors_stay_independent(self):
        from repro.core import stage_timing

        with stage_timing.collect() as outer:
            with stage_timing.collect() as inner:
                stage_timing.add("lpt", 1.0)
            # Equal-content frames must be removed by identity: this
            # add lands in the outer frame only.
            stage_timing.add("enumerate", 2.0)
        assert inner == {"lpt": 1.0}
        assert outer == {"lpt": 1.0, "enumerate": 2.0}

    def test_add_without_frame_is_a_noop(self):
        from repro.core import stage_timing

        stage_timing.add("lpt", 1.0)  # must not raise or leak state
        with stage_timing.collect() as frame:
            pass
        assert frame == {}

    def test_lpt_stage_excludes_plan_assembly(self, cost_model8, monkeypatch):
        """The ``lpt`` stage times the LPT pass alone: slowing the plan
        assembly after it does not grow the stage."""
        import time

        from repro.core import planner_greedy, stage_timing

        delay = 0.2
        build_plan = planner_greedy._build_plan

        def slow_build_plan(*args):
            time.sleep(delay)
            return build_plan(*args)

        monkeypatch.setattr(planner_greedy, "_build_plan", slow_build_plan)
        with stage_timing.collect() as stages:
            outcomes = planner_greedy.plan_microbatches_greedy(
                [(1024, 2048, 4096), (512,) * 6], cost_model8
            )
        assert all(outcome is not None for outcome in outcomes)
        assert 0.0 < stages["lpt"] < delay

    def test_stage_vocabulary_matches_solve_stats(self):
        from repro.core.stage_timing import STAGES
        from repro.core.types import SolveStats

        assert tuple(SolveStats().stage_seconds()) == STAGES


class TestSkeletonCacheConcurrency:
    def test_concurrent_milp_solves_under_tiny_skeleton_lru(self, cost_model8):
        """Parallel in-process MILP solves with a capacity-1 skeleton
        LRU: every lookup races an eviction, which must never KeyError
        (plans stay bit-identical to serial solves)."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.core import planner

        batches = [
            (4096, 8192, 2048),
            (1024, 1024, 1024, 1024, 512),
            (16384, 512),
            (3000, 3000, 3000),
        ]
        serial = [plan_microbatch(b, cost_model8, MILP_CFG) for b in batches]
        saved = planner._SKELETON_CAPACITY
        try:
            planner._SKELETON_CAPACITY = 1
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(plan_microbatch, b, cost_model8, MILP_CFG)
                    for b in batches * 3
                ]
                results = [f.result() for f in futures]
        finally:
            planner._SKELETON_CAPACITY = saved
        for i, (plan, predicted) in enumerate(results):
            ref_plan, ref_predicted = serial[i % len(batches)]
            assert predicted == ref_predicted
            assert plan == ref_plan
