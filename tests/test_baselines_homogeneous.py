"""Tests for repro.baselines.homogeneous: the DeepSpeed-style baseline."""

import pytest

from repro.baselines.homogeneous import (
    estimate_homogeneous_iteration,
    feasible_static_degrees,
    group_token_capacity,
    homogeneous_plan,
)


class TestCapacityAndFeasibility:
    def test_capacity_scales_with_degree(self, cost_model16):
        c8 = group_token_capacity(cost_model16, 8)
        c16 = group_token_capacity(cost_model16, 16)
        assert c16 == pytest.approx(2 * c8, abs=2)

    def test_feasible_degrees_exclude_too_small(self, cost_model16):
        """A 64K worst case cannot fit on few devices."""
        max_context = 64 * 1024
        degrees = feasible_static_degrees(cost_model16, max_context)
        assert degrees
        for d in degrees:
            assert group_token_capacity(cost_model16, d) >= max_context

    def test_short_context_allows_degree_one(self, cost_model16):
        degrees = feasible_static_degrees(cost_model16, 1024)
        assert 1 in degrees

    def test_rejects_nonpositive_degree(self, cost_model16):
        with pytest.raises(ValueError, match="sp_degree"):
            group_token_capacity(cost_model16, 0)


class TestHomogeneousPlan:
    def test_all_groups_same_degree(self, cost_model16):
        plan = homogeneous_plan((4096, 8192, 2048, 1024), cost_model16, 8)
        for mb in plan.microbatches:
            assert all(g.degree == 8 for g in mb.groups)

    def test_all_sequences_scheduled(self, cost_model16):
        lengths = (4096, 8192, 2048, 1024, 512, 16384)
        plan = homogeneous_plan(lengths, cost_model16, 8)
        scheduled = sorted(
            s for mb in plan.microbatches for g in mb.groups for s in g.lengths
        )
        assert scheduled == sorted(lengths)

    def test_gradient_accumulation_when_packs_exceed_groups(self, cost_model16):
        capacity = group_token_capacity(cost_model16, 8)
        seq = capacity // 2 + 1  # one sequence per pack
        lengths = (seq,) * 6  # 6 packs on 2 groups -> 3 rounds
        plan = homogeneous_plan(lengths, cost_model16, 8)
        assert plan.num_microbatches == 3

    def test_groups_respect_memory(self, cost_model16):
        lengths = (16384,) * 5 + (2048,) * 10
        plan = homogeneous_plan(lengths, cost_model16, 8)
        for mb in plan.microbatches:
            for g in mb.groups:
                assert cost_model16.fits(g.lengths, g.degree)

    def test_rejects_over_capacity_sequence(self, cost_model16):
        too_long = group_token_capacity(cost_model16, 2) + 1
        with pytest.raises(ValueError, match="exceed"):
            homogeneous_plan((too_long,), cost_model16, 2)

    def test_rejects_degree_exceeding_cluster(self, cost_model16):
        with pytest.raises(ValueError, match="exceeds cluster"):
            homogeneous_plan((1024,), cost_model16, 32)

    def test_solver_name_tags_degree(self, cost_model16):
        plan = homogeneous_plan((1024,), cost_model16, 4)
        assert plan.solver_name == "homogeneous-sp4"


class TestEstimate:
    def test_positive(self, cost_model16):
        assert estimate_homogeneous_iteration((4096, 2048), cost_model16, 8) > 0

    def test_matches_plan_structure(self, cost_model16):
        """Estimate equals the sum of per-round makespans under Eq. 14."""
        lengths = (8192, 4096, 2048, 1024)
        est = estimate_homogeneous_iteration(lengths, cost_model16, 8)
        plan = homogeneous_plan(lengths, cost_model16, 8)
        recomputed = sum(
            max(
                cost_model16.time_with_overheads(g.lengths, g.degree)
                for g in mb.groups
            )
            for mb in plan.microbatches
        )
        assert est == recomputed

    def test_small_degree_wins_for_short_sequences(self, cost_model16):
        """Short sequences: SP=8 (intra-node) must beat SP=16 (cross-
        node), the crux of Observation 1."""
        lengths = (4096,) * 16
        t8 = estimate_homogeneous_iteration(lengths, cost_model16, 8)
        t16 = estimate_homogeneous_iteration(lengths, cost_model16, 16)
        assert t8 < t16
