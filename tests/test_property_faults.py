"""Property-based chaos: any single fault must be survivable.

The fault plane's whole-system invariant, stated as a Hypothesis
property: for *any* one fault drawn from the survivable menu (kind,
site, occurrence), a pooled sweep under that schedule records the
injection, produces metrics **bit-identical** to the fault-free serial
pass, and leaves no worker pool behind (``live_pool_count`` returns to
its baseline).  This is the randomized counterpart of the fixed
schedules in ``benchmarks/test_bench_chaos.py`` — Hypothesis picks the
fault, the solver pool's rebuild-and-resume and the store's torn-write
handling have to hold regardless.

Examples are expensive (each one is a pooled sweep with a real worker
kill or store fault), so the example budget is small and the grid is
the suite's standard two-workload 8-GPU shape.
"""

from __future__ import annotations

import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster.topology import standard_cluster
from repro.core import faults
from repro.core.faults import FaultSchedule, FaultSpec
from repro.core.pools import live_pool_count
from repro.core.solver import SolverConfig
from repro.data.distributions import COMMONCRAWL, GITHUB
from repro.experiments.sweep import SweepRunner, grid_cells
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B

SOLVER = SolverConfig(backend="greedy", num_trials=2)

#: The highest occurrence of each menu site the grid below is sure to
#: reach: each pool worker visits ``spawn`` once, so only its first
#: visit can fire; the prewarm plans ten shapes on two workers, so one
#: of them plans at least five; and each of the two workloads is
#: saved once per pass.
LAST_OCCURRENCE = {"spawn": 0, "plan": 2, "spill": 1}

fault_strategy = st.sampled_from(faults.RANDOM_FAULT_MENU).flatmap(
    lambda pair: st.builds(
        FaultSpec,
        kind=st.just(pair[0]),
        site=st.just(pair[1]),
        occurrence=st.integers(
            min_value=0, max_value=LAST_OCCURRENCE[pair[1]]
        ),
    )
)


def _cells():
    workloads = [
        Workload(
            model=GPT_7B,
            distribution=distribution,
            max_context=32 * 1024,
            cluster=standard_cluster(8),
            global_batch_size=16,
        )
        for distribution in (GITHUB, COMMONCRAWL)
    ]
    return grid_cells(["flexsp", "deepspeed"], workloads)


@pytest.fixture(scope="module")
def serial_reference():
    """The fault-free serial pass every chaotic run must reproduce."""
    result = SweepRunner(_cells(), solver_config=SOLVER).run()
    return [m.deterministic() for m in result.metrics]


class TestAnySingleFaultIsSurvivable:
    @given(spec=fault_strategy)
    @settings(max_examples=5, deadline=None)
    def test_bit_identical_and_no_pool_leaks(self, serial_reference, spec):
        schedule = FaultSchedule(specs=(spec,))
        baseline_pools = live_pool_count()
        # A store inside the example (not a function fixture: Hypothesis
        # reuses fixtures across examples) so torn_write has a spill
        # path to corrupt.
        with tempfile.TemporaryDirectory() as store_root:
            with SweepRunner(
                _cells(),
                solver_config=SOLVER,
                solver_workers=2,
                store=store_root,
                fault_schedule=schedule,
            ) as runner:
                result = runner.run()
        assert [
            m.deterministic() for m in result.metrics
        ] == serial_reference
        assert live_pool_count() == baseline_pools
        assert dict(result.fault_stats.injections) == {spec.label: 1}
