"""Tests for repro.experiments.runner and repro.experiments.reporting."""

import pytest

from repro.core.planner import PlannerConfig
from repro.core.solver import SolverConfig
from repro.data.distributions import COMMONCRAWL
from repro.experiments.reporting import (
    format_fraction,
    format_histogram,
    format_seconds,
    format_speedup,
    format_table,
    format_violin_summary,
)
from repro.experiments.runner import run_system, speedup
from repro.experiments.systems import DeepSpeedUlyssesSystem, FlexSPSystem
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B


@pytest.fixture(scope="module")
def small_workload(cluster16):
    return Workload(
        model=GPT_7B,
        distribution=COMMONCRAWL,
        max_context=32 * 1024,
        cluster=cluster16,
        global_batch_size=24,
    )


class TestRunner:
    def test_run_aggregates(self, small_workload):
        system = DeepSpeedUlyssesSystem(small_workload, sp_degree=16)
        result = run_system(system, small_workload, num_iterations=2)
        assert len(result.outcomes) == 2
        assert result.mean_iteration_seconds > 0
        assert result.total_tokens > 0

    def test_throughput_normalised_per_gpu(self, small_workload):
        system = DeepSpeedUlyssesSystem(small_workload, sp_degree=16)
        result = run_system(system, small_workload, num_iterations=1)
        per_gpu = result.tokens_per_second_per_gpu(16)
        assert per_gpu == pytest.approx(
            result.total_tokens
            / sum(o.iteration_seconds for o in result.outcomes)
            / 16
        )

    def test_speedup_helper(self, small_workload):
        system = DeepSpeedUlyssesSystem(small_workload, sp_degree=16)
        base = run_system(system, small_workload, num_iterations=1)
        assert speedup(base, base) == pytest.approx(1.0)

    def test_flexsp_beats_static_on_this_workload(self, small_workload):
        """The headline claim at miniature scale: FlexSP's iteration
        time must not exceed the tuned static baseline's."""
        solver_config = SolverConfig(
            num_trials=2, planner=PlannerConfig(time_limit=0.5, mip_rel_gap=0.05)
        )
        flexsp = run_system(
            FlexSPSystem(small_workload, solver_config), small_workload, 2
        )
        static = run_system(
            DeepSpeedUlyssesSystem(small_workload), small_workload, 2
        )
        assert flexsp.mean_iteration_seconds <= static.mean_iteration_seconds * 1.02

    def test_rejects_zero_iterations(self, small_workload):
        system = DeepSpeedUlyssesSystem(small_workload, sp_degree=16)
        with pytest.raises(ValueError, match="num_iterations"):
            run_system(system, small_workload, num_iterations=0)


class TestReporting:
    def test_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1

    def test_table_title(self):
        text = format_table(["x"], [["1"]], title="Table 9")
        assert text.startswith("Table 9")

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [["1"]])

    def test_table_rejects_empty_headers(self):
        with pytest.raises(ValueError, match="column"):
            format_table([], [])

    def test_formatters(self):
        assert format_seconds(1.234) == "1.2"
        assert format_fraction(0.1234) == "12.3%"
        assert format_speedup(1.977) == "1.98x"

    def test_histogram_rendering(self):
        text = format_histogram({"<=1K": 0.5, "1K-2K": 0.25})
        assert "<=1K" in text
        assert "#" in text

    def test_histogram_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            format_histogram({})

    def test_violin_summary(self):
        text = format_violin_summary({8: [1000, 2000, 3000], 32: [50_000]})
        assert "SP=8" in text
        assert "SP=32" in text
        assert "median" in text


class TestSolveStatsAggregation:
    def test_flexsp_run_reports_cache_stats(self, small_workload):
        system = FlexSPSystem(
            small_workload,
            SolverConfig(
                num_trials=2, planner=PlannerConfig(time_limit=0.5, mip_rel_gap=0.05)
            ),
        )
        first = run_system(system, small_workload, num_iterations=1)
        second = run_system(system, small_workload, num_iterations=1)
        assert first.solve_stats is not None
        assert first.solve_stats.planner_calls > 0
        # Same batch re-solved: everything comes from the plan cache.
        assert second.plan_cache_hit_rate == 1.0
        assert second.solve_stats.planner_calls == 0

    def test_pruning_counters_aggregate(self, small_workload):
        system = FlexSPSystem(
            small_workload,
            SolverConfig(num_trials=4, planner=PlannerConfig(node_limit=30)),
        )
        result = run_system(system, small_workload, num_iterations=2)
        steps = [o.plan.stats for o in result.outcomes]
        total = result.solve_stats
        assert total.pruned_trials == sum(s.pruned_trials for s in steps) > 0
        assert total.pruned_microbatches == sum(
            s.pruned_microbatches for s in steps
        )
        assert total.microbatches == (
            total.cache_hits
            + total.dedup_hits
            + total.cache_misses
            + total.pruned_microbatches
        )

    def test_baselines_report_no_stats(self, small_workload):
        system = DeepSpeedUlyssesSystem(small_workload, sp_degree=8)
        result = run_system(system, small_workload, num_iterations=1)
        assert result.solve_stats is None
        assert result.plan_cache_hit_rate == 0.0
