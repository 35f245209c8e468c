"""Tests for repro.experiments.sweep: the sweep runner."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.cache_store import CacheStore, WorkloadState
from repro.core.solver import SolverConfig
from repro.cluster.topology import standard_cluster
from repro.cost.profiler import fit_cost_model
from repro.data.distributions import COMMONCRAWL, GITHUB
from repro.experiments import sweep
from repro.experiments.runner import run_system
from repro.experiments.sweep import (
    CellMetrics,
    SweepCell,
    SweepRunner,
    WorkloadContext,
    fit_inputs,
    grid_cells,
    workload_signature,
)
from repro.experiments.systems import DeepSpeedUlyssesSystem, build_system
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


@pytest.fixture(scope="module")
def other_workload():
    return Workload(
        model=GPT_7B,
        distribution=COMMONCRAWL,
        max_context=32 * 1024,
        cluster=standard_cluster(8),
        global_batch_size=16,
    )


class TestSweepCell:
    def test_rejects_unknown_system(self, workload):
        with pytest.raises(ValueError, match="unknown system"):
            SweepCell(system="pytorch", workload=workload)

    def test_rejects_nonpositive_iterations(self, workload):
        with pytest.raises(ValueError, match="num_iterations"):
            SweepCell(system="flexsp", workload=workload, num_iterations=0)

    def test_grid_cells_cross_product(self, workload, other_workload):
        cells = grid_cells(["flexsp", "megatron"], [workload, other_workload])
        assert len(cells) == 4
        assert {(c.system, c.workload.name) for c in cells} == {
            ("flexsp", workload.name),
            ("megatron", workload.name),
            ("flexsp", other_workload.name),
            ("megatron", other_workload.name),
        }


class TestWorkloadSignature:
    def test_equal_workloads_share_signature(self, workload):
        clone = Workload(
            model=GPT_7B,
            distribution=GITHUB,
            max_context=32 * 1024,
            cluster=standard_cluster(8),
            global_batch_size=16,
        )
        assert workload_signature(clone) == workload_signature(workload)

    def test_batch_size_changes_signature(self, workload):
        resized = Workload(
            model=workload.model,
            distribution=workload.distribution,
            max_context=workload.max_context,
            cluster=workload.cluster,
            global_batch_size=workload.global_batch_size * 2,
        )
        assert workload_signature(resized) != workload_signature(workload)


class TestWorkloadContext:
    def test_memoises_cost_model_and_batches(self, workload):
        context = WorkloadContext(workload, SOLVER)
        assert context.cost_model is context.cost_model
        assert context.batch(0) is context.batch(0)
        assert context.batch(0).lengths == workload.corpus().batch(0).lengths

    def test_memoises_tuning(self, workload):
        context = WorkloadContext(workload, SOLVER)
        assert context.static_degree() == context.static_degree()
        assert context.megatron_strategy() is context.megatron_strategy()

    def test_systems_persist(self, workload):
        context = WorkloadContext(workload, SOLVER)
        assert context.system("flexsp") is context.system("flexsp")

    def test_shared_cost_model_across_systems(self, workload):
        context = WorkloadContext(workload, SOLVER)
        assert (
            context.system("flexsp").cost_model
            is context.system("deepspeed").cost_model
        )


class TestSharedFits:
    """The runner fits one cost model per distinct fit input."""

    @pytest.fixture()
    def fits(self, monkeypatch):
        calls: list[tuple] = []

        def counted(*args):
            calls.append(args)
            return fit_cost_model(*args)

        monkeypatch.setattr(sweep, "fit_cost_model", counted)
        return calls

    def test_one_fit_per_distinct_input(
        self, workload, other_workload, fits
    ):
        shorter = dataclasses.replace(workload, max_context=16 * 1024)
        assert fit_inputs(other_workload) == fit_inputs(workload)
        assert fit_inputs(shorter) != fit_inputs(workload)
        cells = grid_cells(
            ["flexsp", "deepspeed"], [workload, other_workload, shorter]
        )
        runner = SweepRunner(cells, solver_config=SOLVER)
        runner.run()
        assert sorted(fits, key=repr) == sorted(
            {fit_inputs(workload), fit_inputs(shorter)}, key=repr
        )
        assert (
            runner.context(workload).cost_model
            is runner.context(other_workload).cost_model
        )
        assert (
            runner.context(shorter).cost_model
            is not runner.context(workload).cost_model
        )

    def test_restored_context_keeps_its_stored_coefficients(
        self, workload, other_workload, fits, tmp_path
    ):
        # A stored fit is the restored context's own: it is neither
        # replaced by a fresh fit nor handed to a context that shares
        # its fit inputs but has no file of its own.
        fitted = fit_cost_model(*fit_inputs(workload))
        stored = dataclasses.replace(
            fitted.coeffs, alpha1=fitted.coeffs.alpha1 * 2
        )
        store = CacheStore(tmp_path)
        signature = workload_signature(workload)
        store.save(
            signature,
            WorkloadState(
                signature=repr(signature),
                coeffs=stored,
                comm_model=fitted.comm_model,
            ),
        )
        runner = SweepRunner(solver_config=SOLVER, store=store)
        assert runner.context(workload).cost_model.coeffs == stored
        assert runner.context(other_workload).cost_model.coeffs == fitted.coeffs
        assert fits == [fit_inputs(other_workload)]

    def test_fresh_runner_fits_again(self, workload, fits):
        cells = grid_cells(["flexsp"], [workload])
        SweepRunner(cells, solver_config=SOLVER).run()
        SweepRunner(cells, solver_config=SOLVER).run()
        assert len(fits) == 2


class TestSweepRunner:
    def test_matches_direct_run(self, workload):
        cell = SweepCell(system="deepspeed", workload=workload, num_iterations=2)
        result = SweepRunner([cell], solver_config=SOLVER).run()
        direct = run_system(DeepSpeedUlyssesSystem(workload), workload, 2)
        metrics = result.metrics[0]
        assert isinstance(metrics, CellMetrics)
        assert metrics.mean_iteration_seconds == direct.mean_iteration_seconds
        assert metrics.mean_comm_fraction == direct.mean_comm_fraction
        assert metrics.tokens_per_second_per_gpu == direct.tokens_per_second_per_gpu(
            workload.cluster.num_gpus
        )

    def test_deduplicates_cells(self, workload):
        cell = SweepCell(system="megatron", workload=workload)
        result = SweepRunner([cell, cell, cell], solver_config=SOLVER).run()
        assert result.unique_cells == 1
        assert len(result.metrics) == 3
        assert result.metrics[0] is result.metrics[1] is result.metrics[2]

    def test_all_systems_and_lookup(self, workload):
        cells = grid_cells(
            ["flexsp", "deepspeed", "batchada", "megatron"], [workload]
        )
        result = SweepRunner(cells, solver_config=SOLVER).run()
        flexsp = result.metric("flexsp", workload.name)
        deepspeed = result.metric("deepspeed", workload.name)
        assert flexsp.mean_iteration_seconds <= deepspeed.mean_iteration_seconds * 1.02
        with pytest.raises(KeyError):
            result.metric("flexsp", "no-such-workload")

    def test_warm_rerun_identical_and_cached(self, workload):
        runner = SweepRunner(
            grid_cells(["flexsp"], [workload], num_iterations=2),
            solver_config=SOLVER,
        )
        cold = runner.run()
        warm = runner.run()
        for first, second in zip(cold.metrics, warm.metrics):
            assert first.deterministic() == second.deterministic()
        assert warm.metrics[0].plan_cache_hit_rate == 1.0

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            SweepRunner([], solver_config=SOLVER).run()

    def test_run_accepts_explicit_cells(self, workload, other_workload):
        runner = SweepRunner(solver_config=SOLVER)
        result = runner.run(grid_cells(["deepspeed"], [other_workload]))
        assert result.metrics[0].workload == other_workload.name

    def test_parallel_matches_serial(self, workload, other_workload):
        # Parallelism lives in the one shared solver pool: the prewarm
        # plans there, and the pool persists across sweeps.
        cells = grid_cells(["flexsp", "deepspeed"], [workload])
        later = grid_cells(["flexsp", "deepspeed"], [other_workload])
        serial = SweepRunner(cells, solver_config=SOLVER).run()
        serial_later = SweepRunner(later, solver_config=SOLVER).run()
        with SweepRunner(
            cells, solver_config=SOLVER, solver_workers=2
        ) as parallel:
            pooled = parallel.run()
            first_pool = parallel._solver_pool._pool
            assert first_pool is not None
            assert parallel._solver_pool.dispatched > 0
            again = parallel.run(later)  # cold cells: planned on the pool
            assert parallel._solver_pool._pool is first_pool
        for a, b in zip(serial.metrics, pooled.metrics):
            assert a.deterministic() == b.deterministic()
        for a, b in zip(serial_later.metrics, again.metrics):
            assert a.deterministic() == b.deterministic()

    def test_removed_fan_out_options_fail_loudly(self):
        # The runner measures cells serially and has no fan-out knobs;
        # a call passing one must raise, never run with another meaning.
        for option in (
            "workers",
            "vectorized",
            "watchdog_seconds",
            "max_cell_retries",
            "max_slot_restarts",
        ):
            with pytest.raises(TypeError, match=option):
                SweepRunner(solver_config=SOLVER, **{option: 2})

    def test_build_system_still_standalone(self, workload):
        # The injection hooks must not break plain construction.
        system = build_system("deepspeed", workload)
        outcome = system.run_iteration(workload.corpus().batch(0).lengths)
        assert outcome.iteration_seconds > 0


class TestColdBatching:
    """Campaign-level cold batching (the serial prewarm pass)."""

    def _cells(self, workload):
        base = SweepCell(
            system="flexsp", workload=workload, num_iterations=2
        )
        no_sort = SweepCell(
            system="flexsp",
            workload=workload,
            num_iterations=2,
            variant=(("sort_sequences", False),),
        )
        return [base, no_sort]

    def test_prewarmed_pass_bit_identical_to_unprewarmed(self, workload):
        cells = self._cells(workload)
        warmed = SweepRunner(cells, solver_config=SOLVER).run()
        plain = SweepRunner(
            cells, solver_config=SOLVER, prewarm=False
        ).run()
        for a, b in zip(warmed.metrics, plain.metrics):
            assert a.deterministic() == b.deterministic()
        assert plain.prewarm_planned == 0
        assert warmed.prewarm_planned > 0
        assert warmed.prewarm_seconds > 0.0

    def test_prewarmed_cells_replay_from_cache(self, workload):
        cells = self._cells(workload)
        result = SweepRunner(cells, solver_config=SOLVER).run()
        for metrics in result.metrics:
            assert metrics.plan_cache_hit_rate == 1.0

    def test_prewarm_dedups_across_shared_planning_contexts(self, workload):
        """The sort ablation changes blasting but not per-shape
        planning, so its solver shares the base cell's planning
        context — the prewarmer must plan the union once and seed
        each cache with the shapes its own cells asked for."""
        cells = self._cells(workload)
        runner = SweepRunner(cells, solver_config=SOLVER)
        result = runner.run()
        context = runner.context(workload)
        solvers = [
            context.system("flexsp", cell.variant).solver for cell in cells
        ]
        assert solvers[0].context == solvers[1].context
        assert len(solvers[0].cache) > 0
        assert len(solvers[1].cache) > 0
        union = {
            key[0]
            for solver in solvers
            for key, __ in solver.cache.snapshot()
        }
        assert result.prewarm_planned == len(union)

    def test_prewarm_seeds_each_solver_with_its_own_shapes(
        self, workload, other_workload
    ):
        # Four solvers share one greedy planning context: two
        # workloads with one fit input, and the sort and bucketing
        # ablations.  The union is planned once; each cache holds
        # exactly the shapes its own cells were missing.
        cells = self._cells(workload) + [
            SweepCell(
                system="flexsp",
                workload=workload,
                num_iterations=2,
                variant=(("bucketing", "naive"),),
            ),
            SweepCell(system="flexsp", workload=other_workload, num_iterations=2),
        ]
        runner = SweepRunner(cells, solver_config=SOLVER)
        pending = []
        for cell in cells:
            context = runner.context(cell.workload)
            solver = context.system("flexsp", cell.variant).solver
            shapes = set()
            for batch in context.batches(cell.num_iterations):
                shapes.update(solver.pending_shapes(batch.lengths))
            pending.append((solver, shapes))
        assert len({solver.context for solver, __ in pending}) == 1
        result = runner.run()
        for solver, shapes in pending:
            assert {key[0] for key, __ in solver.cache.snapshot()} == shapes
        union = set().union(*(shapes for __, shapes in pending))
        assert result.prewarm_planned == len(union)
        assert any(shapes != union for __, shapes in pending)

    def test_prewarm_stage_breakdown_recorded(self, workload):
        cells = self._cells(workload)
        warmed = SweepRunner(cells, solver_config=SOLVER).run()
        stages = dict(warmed.prewarm_stage_seconds)
        assert stages.get("lpt", 0.0) > 0.0
        # Unprewarmed cells carry the breakdown on the cell instead.
        plain = SweepRunner(
            cells, solver_config=SOLVER, prewarm=False
        ).run()
        cell_stages = dict(plain.metrics[0].stage_seconds)
        assert cell_stages.get("lpt", 0.0) > 0.0


class TestSpillBatching:
    """Batched end-of-pass spills: fewer store writes, identical state."""

    def _cells(self, workload, other_workload):
        return grid_cells(
            ["flexsp", "deepspeed"], [workload, other_workload],
            num_iterations=2,
        )

    def test_serial_cold_pass_writes_each_dirty_workload_once(
        self, workload, other_workload, tmp_path
    ):
        # Four cells over two workloads: the end-of-pass spill
        # merge-saves once per dirty workload, not once per cell.
        cells = self._cells(workload, other_workload)
        result = SweepRunner(
            cells, solver_config=SOLVER, store=tmp_path
        ).run()
        assert result.unique_cells == 4
        assert result.store_stats.writes == 2  # one per workload
        assert result.store_stats.files == 2

    def test_batched_store_restores_bit_identically(
        self, workload, other_workload, tmp_path
    ):
        cells = self._cells(workload, other_workload)
        cold = SweepRunner(
            cells, solver_config=SOLVER, store=tmp_path
        ).run()
        restored = SweepRunner(
            cells, solver_config=SOLVER, store=tmp_path
        ).run()
        for a, b in zip(cold.metrics, restored.metrics):
            assert a.deterministic() == b.deterministic()
        assert restored.metric("flexsp", workload.name).plan_cache_hit_rate == 1.0
        # A fully warm pass learns nothing and rewrites nothing.
        assert restored.store_stats.writes == 0
        assert restored.store_stats.hits == 2

    def test_pooled_pass_spills_to_the_store(
        self, workload, other_workload, tmp_path
    ):
        # Plans computed on the solver pool are seeded into the
        # parent's caches, so the end-of-pass spill carries them: a
        # fresh runner restores everything, warm and bit-identical.
        cells = self._cells(workload, other_workload)
        with SweepRunner(
            cells, solver_config=SOLVER, solver_workers=2, store=tmp_path
        ) as pooled:
            first = pooled.run()
        assert first.store_stats.writes == 2
        restored = SweepRunner(
            cells, solver_config=SOLVER, store=tmp_path
        ).run()
        for a, b in zip(first.metrics, restored.metrics):
            assert a.deterministic() == b.deterministic()
        assert restored.metric("flexsp", workload.name).plan_cache_hit_rate == 1.0
        assert restored.store_stats.writes == 0

    def test_smaller_sibling_cache_growth_is_spilled(self, workload, tmp_path):
        # The sort ablation shares the base cell's planning context but
        # is seeded with only its own shapes, so its cache stays
        # smaller than the base's.  A later pass that grows it (still
        # below the base's count) must spill, or a fresh process would
        # re-plan those shapes.
        base = SweepCell(system="flexsp", workload=workload, num_iterations=3)
        no_sort = dataclasses.replace(
            base, num_iterations=1, variant=(("sort_sequences", False),)
        )
        runner = SweepRunner(solver_config=SOLVER, store=tmp_path)
        runner.run([base, no_sort])
        longer = dataclasses.replace(no_sort, num_iterations=2)
        grown = runner.run([longer])
        assert grown.prewarm_planned > 0
        assert grown.store_stats.writes == 1
        restored = SweepRunner(solver_config=SOLVER, store=tmp_path).run(
            [longer]
        )
        assert restored.prewarm_planned == 0
        assert restored.store_stats.writes == 0

    def test_no_store_reports_no_stats(self, workload):
        result = SweepRunner(
            grid_cells(["deepspeed"], [workload]),
            solver_config=SOLVER,
        ).run()
        assert result.store_stats is None


class TestPooledPrewarm:
    """The pooled path: bit-identity, prewarm, context accounting."""

    def test_parallel_prewarm_plans_cold_flexsp_cells(self, workload):
        # A cold pooled pass plans every shape up front on the solver
        # pool, so the cells' solve phase runs fully warm.
        cells = grid_cells(["flexsp"], [workload], num_iterations=2)
        with SweepRunner(
            cells, solver_config=SOLVER, solver_workers=2
        ) as runner:
            result = runner.run()
            assert runner._solver_pool.dispatched == result.prewarm_planned
        assert result.prewarm_planned > 0
        assert result.metrics[0].plan_cache_hit_rate == 1.0

    def test_parallel_prewarm_seeds_through_the_store(
        self, workload, tmp_path
    ):
        cells = grid_cells(["flexsp"], [workload], num_iterations=2)
        serial = SweepRunner(cells, solver_config=SOLVER).run()
        with SweepRunner(
            cells, solver_config=SOLVER, solver_workers=2, store=tmp_path
        ) as runner:
            parallel = runner.run()
        assert parallel.prewarm_planned > 0
        assert parallel.metrics[0].plan_cache_hit_rate == 1.0
        for a, b in zip(serial.metrics, parallel.metrics):
            assert a.deterministic() == b.deterministic()

    def test_variant_cells_plan_on_the_runner_pool(self, workload):
        # A Fig. 7 variant's solver gets its own config and a tenant of
        # the runner's one pool, and the pooled pass matches the
        # in-process one.
        variant = (("bucketing", "naive"),)
        cells = [
            SweepCell(
                system="flexsp",
                workload=workload,
                num_iterations=2,
                variant=variant,
            )
        ]
        serial = SweepRunner(cells, solver_config=SOLVER).run()
        with SweepRunner(
            cells, solver_config=SOLVER, solver_workers=2
        ) as runner:
            pooled = runner.run()
            solver = runner.context(workload).system("flexsp", variant).solver
            assert solver._service.pool is runner._solver_pool
            assert solver.config.planner.bucketing == "naive"
            assert runner._solver_pool.dispatched == pooled.prewarm_planned
        assert pooled.prewarm_planned > 0
        assert serial.metrics[0].deterministic() == (
            pooled.metrics[0].deterministic()
        )

    def test_serial_pass_reports_its_context_builds(self, workload):
        runner = SweepRunner(
            grid_cells(["deepspeed"], [workload]),
            solver_config=SOLVER,
        )
        first = runner.run()
        assert first.unique_cells == 1
        assert first.context_builds == 1
        assert first.context_build_seconds > 0.0
        # Accounting is per-pass: a warm rerun builds no new context.
        again = runner.run()
        assert again.context_builds == 0
        assert again.context_build_seconds == 0.0

    def test_context_builds_equal_unique_workloads(
        self, workload, other_workload
    ):
        # Each workload's context is built once, by the prewarm or the
        # first cell that needs it, however many cells share it.
        cells = grid_cells(
            ["flexsp", "deepspeed", "megatron"], [workload, other_workload]
        )
        with SweepRunner(
            cells, solver_config=SOLVER, solver_workers=2
        ) as runner:
            result = runner.run()
        assert result.unique_cells == len(cells)
        assert result.context_builds == 2


class TestFaultRecovery:
    """Recovery under the deterministic fault plane: every survivable
    schedule must yield metrics bit-identical to the fault-free serial
    pass, with the injection recorded in ``SweepResult.fault_stats``
    and no worker pool left behind."""

    def _serial(self, cells):
        return SweepRunner(cells, solver_config=SOLVER).run()

    def _chaotic(self, cells, spec, tmp_path):
        from repro.core.faults import FaultSchedule
        from repro.core.pools import live_pool_count

        baseline_pools = live_pool_count()
        schedule = FaultSchedule.parse(spec)
        with SweepRunner(
            cells,
            solver_config=SOLVER,
            solver_workers=2,
            store=tmp_path,
            fault_schedule=schedule,
        ) as runner:
            result = runner.run()
        assert live_pool_count() == baseline_pools
        return result

    def test_no_faults_means_no_fault_stats(self, workload):
        result = self._serial(grid_cells(["deepspeed"], [workload]))
        assert result.fault_stats is None

    def test_worker_kill_recovers_bit_identical(
        self, workload, other_workload, tmp_path
    ):
        # A planner worker dies mid-prewarm: the pool is rebuilt and
        # only the shapes still missing are planned again.
        cells = grid_cells(
            ["flexsp", "deepspeed"], [workload, other_workload]
        )
        serial = self._serial(cells)
        chaotic = self._chaotic(cells, "worker_kill@plan:0", tmp_path)
        assert dict(chaotic.fault_stats.injections) == {
            "worker_kill@plan": 1
        }
        for a, b in zip(serial.metrics, chaotic.metrics):
            assert a.deterministic() == b.deterministic()

    @pytest.mark.parametrize(
        "spec",
        [
            "worker_kill@spawn:0",
            "worker_kill@plan:2",
            "torn_write@spill:0",
            "torn_write@spill:1",
        ],
    )
    def test_single_fault_recovers_bit_identical(
        self, workload, other_workload, tmp_path, spec
    ):
        cells = grid_cells(
            ["flexsp", "deepspeed"], [workload, other_workload]
        )
        serial = self._serial(cells)
        chaotic = self._chaotic(cells, spec, tmp_path)
        label = spec.rsplit(":", 1)[0]
        assert dict(chaotic.fault_stats.injections) == {label: 1}
        for a, b in zip(serial.metrics, chaotic.metrics):
            assert a.deterministic() == b.deterministic()

    def test_pool_dying_on_every_task_raises_instead_of_hanging(
        self, workload, tmp_path
    ):
        # No serial fallback hides a pool that cannot plan at all: two
        # rounds without a completed shape end the pass with an error.
        from concurrent.futures.process import BrokenProcessPool

        cells = grid_cells(["flexsp"], [workload])
        with pytest.raises(BrokenProcessPool):
            self._chaotic(cells, "worker_kill@plan:*", tmp_path)


class TestWorkersDefaults:
    """``solver_workers`` is the runner's one width: 1 (the default)
    plans in-process, and widths below 1 are rejected ("0 = every
    CPU" is the campaign CLI's, see test_experiments_campaign.py)."""

    @pytest.mark.parametrize("workers", [0, -2])
    def test_non_positive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="solver_workers"):
            SweepRunner(solver_workers=workers)

    def test_default_plans_in_process(self):
        runner = SweepRunner()
        assert runner.solver_workers == 1
        assert runner._solver_pool is None
