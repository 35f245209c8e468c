"""Tests for repro.simulator.executor: running plans on the cluster."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.types import GroupAssignment, IterationPlan, MicroBatchPlan
from repro.model.config import GPT_7B
from repro.simulator.executor import IterationExecutor
from repro.simulator.trace import PhaseKind


@pytest.fixture()
def executor(cluster16, gpt7b_64k):
    return IterationExecutor(config=gpt7b_64k, cluster=cluster16)


def group(degree, start, lengths):
    return GroupAssignment(
        degree=degree,
        device_ranks=tuple(range(start, start + degree)),
        lengths=tuple(lengths),
    )


def single_group_plan(degree, lengths, microbatches=1):
    mb = MicroBatchPlan(groups=(group(degree, 0, lengths),))
    return IterationPlan(microbatches=(mb,) * microbatches)


class TestExecution:
    def test_iteration_time_positive(self, executor):
        result = executor.run(single_group_plan(8, [4096, 2048]))
        assert result.iteration_seconds > 0

    def test_microbatch_times_recorded(self, executor):
        result = executor.run(single_group_plan(8, [4096], microbatches=3))
        assert len(result.microbatch_seconds) == 3

    def test_more_microbatches_take_longer(self, executor):
        one = executor.run(single_group_plan(8, [4096], microbatches=1))
        three = executor.run(single_group_plan(8, [4096], microbatches=3))
        assert three.iteration_seconds > one.iteration_seconds

    def test_iteration_includes_step_phases(self, executor):
        result = executor.run(single_group_plan(8, [4096]))
        assert result.trace.wall_seconds(PhaseKind.GRAD_SYNC) > 0
        assert result.trace.wall_seconds(PhaseKind.OPTIMIZER) > 0

    def test_concurrent_groups_overlap(self, cluster16, gpt7b_64k):
        """Two concurrent SP=8 groups must not double the wall time of
        one group with the same per-group workload."""
        executor = IterationExecutor(config=gpt7b_64k, cluster=cluster16)
        lone = executor.run(
            IterationPlan(
                microbatches=(MicroBatchPlan(groups=(group(8, 0, [8192]),)),)
            )
        )
        pair = executor.run(
            IterationPlan(
                microbatches=(
                    MicroBatchPlan(
                        groups=(group(8, 0, [8192]), group(8, 8, [8192]))
                    ),
                )
            )
        )
        assert pair.iteration_seconds == pytest.approx(
            lone.iteration_seconds, rel=0.01
        )

    def test_makespan_is_slowest_group(self, cluster16, gpt7b_64k):
        executor = IterationExecutor(config=gpt7b_64k, cluster=cluster16)
        plan = IterationPlan(
            microbatches=(
                MicroBatchPlan(
                    groups=(group(8, 0, [32768]), group(8, 8, [1024]))
                ),
            )
        )
        result = executor.run(plan)
        slow_only = executor.run(
            IterationPlan(
                microbatches=(MicroBatchPlan(groups=(group(8, 0, [32768]),)),)
            )
        )
        assert result.microbatch_seconds[0] == pytest.approx(
            slow_only.microbatch_seconds[0], rel=0.01
        )


class TestTraceAccounting:
    def test_idle_recorded_for_stragglers(self, cluster16, gpt7b_64k):
        executor = IterationExecutor(config=gpt7b_64k, cluster=cluster16)
        plan = IterationPlan(
            microbatches=(
                MicroBatchPlan(
                    groups=(group(8, 0, [32768]), group(8, 8, [1024]))
                ),
            )
        )
        result = executor.run(plan)
        assert result.trace.wall_seconds(PhaseKind.IDLE) > 0

    def test_unused_devices_idle(self, cluster16, gpt7b_64k):
        executor = IterationExecutor(config=gpt7b_64k, cluster=cluster16)
        result = executor.run(single_group_plan(8, [4096]))  # 8 of 16 used
        assert result.trace.wall_seconds(PhaseKind.IDLE) > 0

    def test_phases_tile_device_time(self, cluster16, gpt7b_64k):
        """Per-micro-batch phases (weighted) + idle must equal the
        micro-batch wall time exactly."""
        executor = IterationExecutor(config=gpt7b_64k, cluster=cluster16)
        plan = IterationPlan(
            microbatches=(
                MicroBatchPlan(
                    groups=(group(8, 0, [16384, 2048]), group(4, 8, [1024]))
                ),
            )
        )
        result = executor.run(plan)
        mb_phases = result.trace.phases_of_microbatch(0)
        device_seconds = sum(p.device_seconds for p in mb_phases)
        expected = result.microbatch_seconds[0] * cluster16.num_gpus
        assert device_seconds == pytest.approx(expected, rel=1e-6)

    def test_alltoall_fraction_between_zero_and_one(self, executor):
        result = executor.run(single_group_plan(16, [32768, 16384]))
        assert 0 < result.alltoall_fraction < 1


class TestGroupCreation:
    def test_first_iteration_creates_groups(self, cluster16, gpt7b_64k):
        executor = IterationExecutor(config=gpt7b_64k, cluster=cluster16)
        result = executor.run(single_group_plan(8, [4096]))
        assert result.group_creation_seconds > 0

    def test_hot_switch_second_iteration_free(self, cluster16, gpt7b_64k):
        executor = IterationExecutor(config=gpt7b_64k, cluster=cluster16)
        plan = single_group_plan(8, [4096])
        executor.run(plan)
        second = executor.run(plan)
        assert second.group_creation_seconds == 0.0

    def test_creation_excluded_from_iteration_time(self, cluster16, gpt7b_64k):
        cold = IterationExecutor(config=gpt7b_64k, cluster=cluster16)
        warm = IterationExecutor(config=gpt7b_64k, cluster=cluster16)
        plan = single_group_plan(8, [4096])
        warm.run(plan)
        assert cold.run(plan).iteration_seconds == pytest.approx(
            warm.run(plan).iteration_seconds
        )

    def test_throughput_helper(self, executor):
        result = executor.run(single_group_plan(8, [4096]))
        assert result.tokens_per_second(4096) == pytest.approx(
            4096 / result.iteration_seconds
        )


#: Step 2 of a GPT-7B / CommonCrawl / 192K / 64-GPU greedy plan (global
#: batch 64), whose All-to-All fraction rounded differently under
#: different hash seeds while "Others" was summed in a set's order.
HASH_SEED_SCRIPT = """
import sys

sys.path.insert(0, {src!r})
from repro.cluster.topology import standard_cluster
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.cost.profiler import fit_cost_model
from repro.data.distributions import COMMONCRAWL
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B
from repro.simulator.executor import IterationExecutor

workload = Workload(
    model=GPT_7B,
    distribution=COMMONCRAWL,
    max_context=192 * 1024,
    cluster=standard_cluster(64),
    global_batch_size=64,
)
model = fit_cost_model(
    workload.model_at_context, workload.cluster, workload.checkpointing
)
plan = FlexSPSolver(model, SolverConfig(backend="greedy")).solve(
    workload.corpus().batch(2).lengths
)
result = IterationExecutor(
    config=workload.model_at_context,
    cluster=workload.cluster,
    checkpointing=workload.checkpointing,
).run(plan)
print(result.alltoall_fraction.hex())
"""


def test_alltoall_fraction_does_not_depend_on_the_hash_seed():
    """The "Others" kinds are summed in PhaseKind declaration order, so
    one plan gives one float under every PYTHONHASHSEED."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    fractions = set()
    for seed in ("0", "2", "5"):
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT.format(src=str(src))],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        fractions.add(proc.stdout.strip())
    assert len(fractions) == 1, fractions
