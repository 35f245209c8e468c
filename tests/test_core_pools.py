"""Tests for repro.core.pools and the one pool it guards.

The lifecycle guard is exercised indirectly by every pooled suite;
these tests pin the contracts the solver pool leans on: ``close()``
racing a solve resolves through the rebuild-and-resume path, the pool
registry returns to baseline once a campaign's runner (or a pool a
solver plans on) is closed, and a pool dropped together with its
solver is released without a ``close()``.
"""

from __future__ import annotations

import pytest

from repro.core import pools
from repro.core.solver import FlexSPSolver, SolverConfig, SolverPool
from repro.core.types import SequenceBatch
from repro.cluster.topology import standard_cluster
from repro.data.distributions import GITHUB
from repro.experiments.sweep import SweepRunner, grid_cells
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B

SOLVER = SolverConfig(backend="greedy", num_trials=2)


@pytest.fixture(scope="module")
def workload():
    return Workload(
        model=GPT_7B,
        distribution=GITHUB,
        max_context=32 * 1024,
        cluster=standard_cluster(8),
        global_batch_size=16,
    )


class TestPoolLifecycle:
    def test_run_survives_a_concurrent_close(self, cost_model8):
        # A close() that lands between dispatches shuts the executor
        # down under the planner's feet; the next submit then raises
        # the executor's RuntimeError, and the pool rebuilds and
        # resubmits.  Simulate the race deterministically: shut the
        # executor down directly, without clearing the pool's handle,
        # as a concurrent close would have after the dispatch read it.
        batch = SequenceBatch(lengths=(4096, 8192, 2048, 1024, 512) * 2)
        reference = FlexSPSolver(cost_model8, SOLVER)
        shapes = reference.pending_shapes(batch)
        expected = reference.plan_shapes_cold(shapes)
        with SolverPool(workers=2) as pool:
            client = pool.client(cost_model8, SOLVER)
            assert client.plan_shapes(shapes) == expected
            stale = pool._pool
            stale.shutdown()
            assert client.plan_shapes(shapes) == expected
            # The retry recreated a live executor.
            assert pool._pool is not None and pool._pool is not stale

    def test_live_pool_count_returns_to_baseline(self, workload):
        baseline = pools.live_pool_count()
        runner = SweepRunner(
            grid_cells(["flexsp"], [workload]),
            solver_config=SOLVER,
            solver_workers=2,
        )
        runner.run()
        assert pools.live_pool_count() > baseline
        runner.close()
        assert pools.live_pool_count() == baseline

    def test_close_is_idempotent(self, workload):
        baseline = pools.live_pool_count()
        runner = SweepRunner(
            grid_cells(["flexsp"], [workload]),
            solver_config=SOLVER,
            solver_workers=2,
        )
        runner.run()
        runner.close()
        runner.close()
        assert pools.live_pool_count() == baseline


def _pooled_solver(pool, model) -> FlexSPSolver:
    return FlexSPSolver(model, SOLVER, service=pool.client(model, SOLVER))


class TestSolverPoolRelease:
    def test_pool_closed_twice_releases_its_workers(self, cost_model8):
        baseline = pools.live_pool_count()
        pool = SolverPool(2)
        _pooled_solver(pool, cost_model8).solve((4096, 2048, 1024, 8192) * 2)
        assert pools.live_pool_count() == baseline + 1
        pool.close()
        pool.close()
        assert pools.live_pool_count() == baseline

    def test_pool_dropped_with_its_solver_is_released(self, cost_model8):
        # Tenant handles are interned weakly, so a pool is not kept
        # alive by a reference cycle with its clients: dropping the
        # pool and its solver frees the pool, whose finalizer shuts
        # the executor down.
        baseline = pools.live_pool_count()
        pool = SolverPool(2)
        solver = _pooled_solver(pool, cost_model8)
        solver.solve((4096, 2048, 1024, 8192) * 2)
        assert pools.live_pool_count() == baseline + 1
        del solver, pool
        assert pools.live_pool_count() == baseline
