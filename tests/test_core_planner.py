"""Tests for repro.core.planner: the MILP parallelism planner."""

import pathlib
import subprocess
import sys

import pytest

from repro.core.planner import (
    PlanInfeasibleError,
    PlannerConfig,
    enumerate_virtual_groups,
    plan_makespan,
    plan_microbatch,
)

FAST = PlannerConfig(time_limit=1.0, mip_rel_gap=0.05)


class TestPlannerConfig:
    def test_defaults_match_paper(self):
        cfg = PlannerConfig()
        assert cfg.num_buckets == 16
        assert cfg.bucketing == "optimal"

    def test_rejects_unknown_bucketing(self):
        with pytest.raises(ValueError, match="bucketing"):
            PlannerConfig(bucketing="magic")

    def test_rejects_bad_time_limit(self):
        with pytest.raises(ValueError, match="time_limit"):
            PlannerConfig(time_limit=0)

    def test_rejects_bad_gap(self):
        with pytest.raises(ValueError, match="mip_rel_gap"):
            PlannerConfig(mip_rel_gap=1.0)

    @pytest.mark.parametrize(
        "option, value", [("min_degree", 4), ("max_groups_per_degree", 2)]
    )
    def test_virtual_group_options_are_gone(self, option, value):
        # Degrees start at 1 and each degree d gets its natural N / d
        # virtual groups (TestVirtualGroups).
        with pytest.raises(TypeError, match=option):
            PlannerConfig(**{option: value})


class TestVirtualGroups:
    def test_counts_per_degree(self, cost_model8):
        groups = enumerate_virtual_groups(cost_model8, (1024,))
        by_degree = {}
        for g in groups:
            by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
        assert by_degree == {1: 8, 2: 4, 4: 2, 8: 1}


class TestPlanValidity:
    def test_all_sequences_assigned(self, cost_model8):
        lengths = (4096, 8192, 2048, 1024, 16384, 512, 512, 3000)
        plan, __ = plan_microbatch(lengths, cost_model8, FAST)
        assigned = sorted(s for g in plan.groups for s in g.lengths)
        assert assigned == sorted(lengths)

    def test_devices_within_budget(self, cost_model8):
        lengths = (2048,) * 12
        plan, __ = plan_microbatch(lengths, cost_model8, FAST)
        assert plan.devices_used <= 8

    def test_memory_constraint_respected(self, cost_model8):
        lengths = (20_000, 10_000, 2048, 2048, 1024)
        plan, __ = plan_microbatch(lengths, cost_model8, FAST)
        for g in plan.groups:
            assert cost_model8.fits(g.lengths, g.degree), (
                f"SP={g.degree} group with {g.tokens} tokens overflows memory"
            )

    def test_predicted_time_positive_and_consistent(self, cost_model8):
        lengths = (4096, 8192, 1024)
        plan, predicted = plan_microbatch(lengths, cost_model8, FAST)
        assert predicted > 0
        assert predicted == pytest.approx(plan_makespan(cost_model8, plan))

    def test_rejects_empty_microbatch(self, cost_model8):
        with pytest.raises(ValueError, match="empty"):
            plan_microbatch((), cost_model8, FAST)


class TestPlannerBehaviour:
    def test_long_sequence_gets_large_group(self, cost_model8):
        """A sequence near the single-device limit must be scattered."""
        long_seq = int(cost_model8.max_tokens_per_device() * 4)
        plan, __ = plan_microbatch((long_seq, 1024, 1024), cost_model8, FAST)
        host = next(g for g in plan.groups if long_seq in g.lengths)
        assert host.degree >= 4

    def test_short_batch_prefers_small_groups(self, cost_model16):
        """All-short micro-batch: no group should span nodes (SP>8) —
        small groups dodge the inter-node cliff (Observation 1)."""
        lengths = (2048,) * 32
        plan, __ = plan_microbatch(lengths, cost_model16, FAST)
        assert max(g.degree for g in plan.groups) <= 8

    def test_heterogeneous_groups_for_mixed_lengths(self, cost_model64):
        """The Fig. 1 scenario on the paper's cluster: one ~100K
        sequence needs SP=32 (crossing nodes), while the short
        sequences must get smaller intra-node groups — a genuinely
        heterogeneous layout."""
        long_seq = 100 * 1024
        lengths = (long_seq,) + (48 * 1024,) * 4
        plan, predicted = plan_microbatch(lengths, cost_model64, FAST)
        host = next(g for g in plan.groups if long_seq in g.lengths)
        assert host.degree >= 32
        small = [g.degree for g in plan.groups if long_seq not in g.lengths]
        assert small and max(small) <= 8, (
            f"short sequences should use intra-node groups, got {plan.layout()}"
        )
        # And the heterogeneous layout must beat both homogeneous options
        # the paper's Fig. 1 compares against.
        assert predicted < cost_model64.time_with_overheads(lengths, 64)

    def test_beats_or_matches_single_static_group(self, cost_model16):
        """The planner must never be worse than the homogeneous SP=16
        layout it could always fall back to."""
        lengths = (16384,) * 2 + (2048,) * 16
        plan, predicted = plan_microbatch(lengths, cost_model16, FAST)
        static = cost_model16.time_with_overheads(lengths, 16)
        assert predicted <= static * 1.001

    def test_infeasible_when_sequence_too_long(self, cost_model8):
        huge = int(cost_model8.max_tokens_per_device() * 100)
        with pytest.raises(PlanInfeasibleError):
            plan_microbatch((huge,), cost_model8, FAST)

    def test_infeasible_when_tokens_exceed_cluster(self, cost_model8):
        per_device = int(cost_model8.max_tokens_per_device())
        lengths = (per_device,) * 12  # 150% of cluster capacity
        with pytest.raises(PlanInfeasibleError):
            plan_microbatch(lengths, cost_model8, FAST)


class TestGreedyIncumbentMode:
    def test_disabled_still_produces_valid_plan(self, cost_model8):
        cfg = PlannerConfig(time_limit=2.0, greedy_incumbent=False)
        lengths = (4096, 8192, 2048, 1024)
        plan, predicted = plan_microbatch(lengths, cost_model8, cfg)
        assigned = sorted(s for g in plan.groups for s in g.lengths)
        assert assigned == sorted(lengths)
        assert predicted > 0

    def test_incumbent_never_hurts(self, cost_model8):
        lengths = (4096, 8192, 2048, 1024, 20_000)
        cfg_on = PlannerConfig(time_limit=1.0, greedy_incumbent=True)
        cfg_off = PlannerConfig(time_limit=1.0, greedy_incumbent=False)
        __, with_incumbent = plan_microbatch(lengths, cost_model8, cfg_on)
        __, without = plan_microbatch(lengths, cost_model8, cfg_off)
        assert with_incumbent <= without * 1.001


@pytest.mark.parametrize(
    "config",
    [
        PlannerConfig(node_limit=50, mip_rel_gap=0.0),
        PlannerConfig(time_limit=1.0, mip_rel_gap=0.0),
    ],
    ids=["node-limited", "time-limited"],
)
def test_milp_solves_write_nothing_to_fd1_or_fd2(config, cost_model8, capfd):
    """HiGHS runs with its console output off: node- and time-limited
    MILP solves leave descriptors 1 and 2 untouched."""
    from repro.core import stage_timing

    lengths = (4096, 8192, 2048, 1024, 3000, 6000, 12_000, 500)
    with stage_timing.collect() as stages:
        plan_microbatch(lengths, cost_model8, config)
    assert "milp_solve" in stages  # HiGHS did run
    assert capfd.readouterr() == ("", "")


#: Runs in a fresh interpreter: the test process has long since loaded
#: scipy through other tests.
LAZY_SCIPY_SCRIPT = """
import sys

sys.path.insert(0, {src!r})
import repro.service  # noqa: F401
from repro.cluster.topology import standard_cluster
from repro.core.planner import PlannerConfig
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.cost.profiler import fit_cost_model
from repro.model.config import GPT_7B
from repro.model.memory import ActivationCheckpointing

model = fit_cost_model(
    GPT_7B.with_max_context(64 * 1024),
    standard_cluster(8),
    ActivationCheckpointing.NONE,
)
batch = (4096, 8192, 2048, 1024)
FlexSPSolver(model, SolverConfig(backend="greedy")).solve(batch)
print("scipy.optimize" in sys.modules)
milp = SolverConfig(num_trials=1, planner=PlannerConfig(node_limit=50))
FlexSPSolver(model, milp).solve(batch)
print("scipy.optimize" in sys.modules)
"""


def test_scipy_loads_only_for_a_milp_solve():
    """Greedy-only processes (plan server, load generator, campaigns,
    greedy pool workers) must not pay HiGHS's import time and memory."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCIPY_SCRIPT.format(src=str(src))],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
