"""Chaos benchmark: the campaign under deterministic faults.

For every schedule in the chaos matrix — a solver-pool worker killed
mid-plan or while starting, a torn spill write, a stale store lock —
the unified campaign, planning on a two-worker solver pool, must

* complete, with the injection recorded in the fault ledger and
  recovered (the pool rebuilds and resubmits only the shapes still
  missing; the store reads a torn file as cold and breaks a lock
  whose recorded holder is dead);
* produce metrics **bit-identical** to the fault-free serial pass
  (faults move where and when plans are computed, never what they
  are);
* leave no worker pool behind (``live_pool_count`` back to baseline).

Each schedule's accounting and wall-clock overhead is printed.
Wall-clock overhead is never gated: recovery cost depends on the box
(pool restart latency).  ``make bench-chaos`` runs the matrix; ``make
bench-chaos-smoke`` runs only the CI smoke slice (``-k smoke``).
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

from benchmarks.conftest import FULL
from repro.core.faults import FaultSchedule
from repro.core.pools import live_pool_count
from repro.core.solver import SolverConfig
from repro.experiments.campaign import unified_campaign
from repro.experiments.reporting import format_table
from repro.experiments.sweep import SweepRunner

#: Greedy backend: deterministic planning, so every chaotic pass is
#: bit-comparable to the fault-free reference.
CAMPAIGN_SOLVER = SolverConfig(backend="greedy", num_trials=2)

GLOBAL_BATCH = 512 if FULL else 128

#: Width of the solver pool every chaotic pass plans on.
SOLVER_WORKERS = 2


def _run_campaign(
    schedule: FaultSchedule | None = None,
    solver_workers: int = 1,
    store_root: str | None = None,
):
    """One unified-campaign pass; returns (metrics, wall, result)."""
    campaign = unified_campaign(global_batch_size=GLOBAL_BATCH)
    with SweepRunner(
        solver_config=CAMPAIGN_SOLVER,
        store=store_root,
        solver_workers=solver_workers,
        fault_schedule=schedule,
    ) as runner:
        started = time.perf_counter()
        result = campaign.run(runner)
        wall = time.perf_counter() - started
    return list(result.sweep.metrics), wall, result


@pytest.fixture(scope="module")
def reference():
    """The fault-free serial pass every chaotic run must reproduce."""
    metrics, wall, _ = _run_campaign()
    return [m.deterministic() for m in metrics], wall


def _assert_recovered(reference_metrics, schedule, metrics, result):
    """Bit-identity to the fault-free serial pass, and exactly the
    scheduled injections in the ledger."""
    assert len(metrics) == len(reference_metrics)
    for want, metric in zip(reference_metrics, metrics):
        assert metric.deterministic() == want
    stats = result.sweep.fault_stats
    assert stats is not None
    assert dict(stats.injections) == {
        spec.label: 1 for spec in schedule.specs
    }, "schedule did not fire as declared"
    return stats


def test_smoke_worker_kill_mid_plan(reference, emit):
    """The CI smoke slice: one solver-pool worker killed mid-plan.

    Selected by ``make bench-chaos-smoke`` (``-k smoke``) so every CI
    run proves the pool's rebuild-and-resume recovery without paying
    for the whole matrix.
    """
    reference_metrics, reference_wall = reference
    baseline_pools = live_pool_count()
    schedule = FaultSchedule.parse("worker_kill@plan:0")
    metrics, wall, result = _run_campaign(
        schedule, solver_workers=SOLVER_WORKERS
    )
    _assert_recovered(reference_metrics, schedule, metrics, result)
    assert live_pool_count() == baseline_pools

    emit(
        f"Chaos smoke: worker_kill@plan:0 at solver_workers="
        f"{SOLVER_WORKERS} — recovered bit-identical in {wall:.2f}s "
        f"(fault-free serial {reference_wall:.2f}s)"
    )


def test_chaos_matrix_recovers_bit_identical(reference, emit):
    """The full matrix: every fault kind the campaign can survive."""
    reference_metrics, reference_wall = reference
    baseline_pools = live_pool_count()
    rows = []

    def _case(schedule, store_root=None, lock_breaks=0):
        metrics, wall, result = _run_campaign(
            schedule, solver_workers=SOLVER_WORKERS, store_root=store_root
        )
        stats = _assert_recovered(
            reference_metrics, schedule, metrics, result
        )
        name = str(schedule)
        assert stats.lock_breaks == lock_breaks, name
        assert live_pool_count() == baseline_pools, f"{name}: leaked a pool"
        rows.append(
            (
                name,
                f"{wall:.2f}",
                str(stats.total_injections),
                str(stats.lock_breaks),
            )
        )

    # 1. Planner worker killed mid-plan: the pool is rebuilt and only
    #    the shapes still missing are resubmitted.
    _case(FaultSchedule.parse("worker_kill@plan:0"))

    # 2. Planner worker killed while starting: the pool breaks before
    #    any shape completes, then rebuilds.
    _case(FaultSchedule.parse("worker_kill@spawn:0"))

    # 3. Torn spill write: the store reads the torn file as cold, and
    #    a second pass over the same (healed) store restores warm
    #    state that is still bit-identical.
    with tempfile.TemporaryDirectory() as store_root:
        _case(FaultSchedule.parse("torn_write@spill:0"), store_root)
        restored_metrics, _, _ = _run_campaign(store_root=store_root)
        for want, metric in zip(reference_metrics, restored_metrics):
            assert metric.deterministic() == want

    # 4. Stale store lock (dead recorded holder): broken, counted,
    #    never waited out.
    with tempfile.TemporaryDirectory() as store_root:
        _case(
            FaultSchedule.parse("stale_lock@lock:0"), store_root,
            lock_breaks=1,
        )

    emit(
        f"Chaos matrix: unified campaign, batch {GLOBAL_BATCH}, "
        f"solver_workers={SOLVER_WORKERS}, fault-free serial "
        f"{reference_wall:.2f}s, {os.cpu_count()} CPU(s)\n"
        + format_table(
            ["schedule", "wall (s)", "injected", "lock breaks"], rows
        )
    )
