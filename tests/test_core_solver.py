"""Tests for repro.core.solver: the Alg. 1 workflow."""

import pytest

from repro.core import solver as solver_module
from repro.core.blaster import blast_multi
from repro.core.cache_store import (
    CacheStore,
    WorkloadState,
    context_digest,
    entries_from_cache,
    preload_cache,
)
from repro.core.plan_cache import canonical_shape
from repro.core.planner import PlanInfeasibleError, PlannerConfig, plan_microbatch
from repro.core.planner_greedy import plan_microbatch_greedy
from repro.core.solver import FlexSPSolver, SolverConfig, SolverPool
from repro.core.types import SequenceBatch

FAST_PLANNER = PlannerConfig(time_limit=0.5, mip_rel_gap=0.05)

#: Deterministic MILP budget for the exact-equality pruning tests.
NODE_PLANNER = PlannerConfig(node_limit=30)

#: On 16 GPUs the first trial (two micro-batches) overflows the
#: cluster, the third wins, and pruning drops some trials from two
#: trials on; one shape recurs across trials.
MIXED_BATCH = SequenceBatch(
    lengths=(
        6484, 27179, 28121, 29192, 688, 19453,
        7958, 17437, 28801, 9113, 26906, 8854,
    )
)
SMALL_BATCH = SequenceBatch(lengths=(4096, 8192, 2048, 1024, 512, 16384) * 2)


def fast_solver(model, **overrides) -> FlexSPSolver:
    defaults = dict(num_trials=2, planner=FAST_PLANNER)
    defaults.update(overrides)
    return FlexSPSolver(model, SolverConfig(**defaults))


class TestSolverConfig:
    def test_defaults_match_paper(self):
        cfg = SolverConfig()
        assert cfg.num_trials == 5
        assert cfg.backend == "milp"
        assert cfg.sort_sequences is True

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            SolverConfig(backend="quantum")

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="num_trials"):
            SolverConfig(num_trials=0)

    def test_throwaway_pool_option_is_gone(self):
        # A private pool always persists across solves.
        with pytest.raises(TypeError, match="persistent_workers"):
            SolverConfig(persistent_workers=False)

    @pytest.mark.parametrize(
        "option, value",
        [("capacity_safety", 0.5), ("plan_cache_capacity", 64)],
    )
    def test_constant_options_are_gone(self, option, value):
        # M_min uses the full cluster token capacity, and the plan
        # cache is always DEFAULT_CAPACITY entries.
        with pytest.raises(TypeError, match=option):
            SolverConfig(**{option: value})


class TestSolve:
    def test_plan_covers_batch(self, cost_model8):
        batch = SequenceBatch(lengths=(4096, 8192, 2048, 1024, 512, 16384))
        plan = fast_solver(cost_model8).solve(batch)
        planned = sorted(
            s for mb in plan.microbatches for g in mb.groups for s in g.lengths
        )
        assert planned == sorted(batch.lengths)

    def test_accepts_raw_tuple(self, cost_model8):
        plan = fast_solver(cost_model8).solve((4096, 2048))
        assert plan.num_sequences == 2

    def test_single_microbatch_when_batch_fits(self, cost_model8):
        batch = SequenceBatch(lengths=(1024,) * 8)
        solver = fast_solver(cost_model8)
        assert solver.minimum_microbatches(batch) == 1

    def test_gradient_accumulation_kicks_in(self, cost_model8):
        """A batch bigger than cluster memory must be chunked."""
        per_device = int(cost_model8.max_tokens_per_device())
        batch = SequenceBatch(lengths=(per_device // 2,) * 40)
        solver = fast_solver(cost_model8)
        assert solver.minimum_microbatches(batch) >= 2
        plan = solver.solve(batch)
        assert plan.num_microbatches >= 2

    def test_predicted_time_is_sum_of_microbatches(self, cost_model8):
        from repro.core.planner import plan_makespan

        batch = SequenceBatch(lengths=(4096,) * 20)
        plan = fast_solver(cost_model8).solve(batch)
        recomputed = sum(
            max(
                cost_model8.time_with_overheads(g.lengths, g.degree)
                for g in mb.groups
            )
            for mb in plan.microbatches
        )
        assert plan.predicted_time == pytest.approx(recomputed, rel=1e-6)

    def test_solver_name_records_backend(self, cost_model8):
        plan = fast_solver(cost_model8, backend="greedy").solve((1024, 2048))
        assert plan.solver_name == "flexsp-greedy"

    def test_infeasible_batch_raises(self, cost_model8):
        huge = int(cost_model8.max_tokens_per_device() * 100)
        with pytest.raises(PlanInfeasibleError):
            fast_solver(cost_model8).solve((huge,))


class TestBackendsAgree:
    def test_greedy_and_milp_cover_same_batch(self, cost_model8):
        batch = SequenceBatch(lengths=(8192, 4096, 2048, 1024) * 3)
        milp_plan = fast_solver(cost_model8, backend="milp").solve(batch)
        greedy_plan = fast_solver(cost_model8, backend="greedy").solve(batch)
        for plan in (milp_plan, greedy_plan):
            planned = sorted(
                s for mb in plan.microbatches for g in mb.groups for s in g.lengths
            )
            assert planned == sorted(batch.lengths)

    def test_milp_not_worse_than_greedy(self, cost_model8):
        """With the greedy incumbent, the MILP backend can only improve."""
        batch = SequenceBatch(lengths=(16384, 8192, 4096, 2048, 1024) * 2)
        milp_plan = fast_solver(cost_model8, backend="milp").solve(batch)
        greedy_plan = fast_solver(cost_model8, backend="greedy").solve(batch)
        assert milp_plan.predicted_time <= greedy_plan.predicted_time * 1.001


class TestAblationHooks:
    def test_ablated_returns_new_solver(self, cost_model8):
        solver = fast_solver(cost_model8)
        ablated = solver.ablated(sort_sequences=False)
        assert ablated.config.sort_sequences is False
        assert solver.config.sort_sequences is True

    def test_ablated_keeps_an_injected_pool(self, cost_model8):
        with SolverPool(workers=2) as pool:
            config = SolverConfig(num_trials=2, backend="greedy")
            solver = FlexSPSolver(
                cost_model8, config, service=pool.client(cost_model8, config)
            )
            ablated = solver.ablated(sort_sequences=False)
            assert ablated._service.pool is pool
            assert ablated._own_pool is None

    def test_ablated_does_not_share_a_private_pool(self, cost_model8):
        # Closing the original must not leave the copy planning on a
        # pool nobody owns: the copy gets a private pool of its own.
        solver = fast_solver(cost_model8, backend="greedy", workers=2)
        ablated = solver.ablated(sort_sequences=False)
        assert ablated._own_pool is not None
        assert ablated._own_pool is not solver._own_pool
        assert ablated._service.pool is ablated._own_pool

    def test_no_sort_still_valid(self, cost_model8):
        batch = SequenceBatch(lengths=(16384, 1024, 8192, 512, 4096, 2048))
        plan = fast_solver(cost_model8, sort_sequences=False).solve(batch)
        planned = sorted(
            s for mb in plan.microbatches for g in mb.groups for s in g.lengths
        )
        assert planned == sorted(batch.lengths)

    def test_naive_bucketing_still_valid(self, cost_model8):
        cfg = PlannerConfig(time_limit=0.5, bucketing="naive")
        batch = SequenceBatch(lengths=(16384, 1024, 8192, 512))
        plan = fast_solver(cost_model8, planner=cfg).solve(batch)
        assert plan.num_sequences == 4


class TestParallelSolve:
    def test_worker_pool_matches_serial(self, cost_model8):
        batch = SequenceBatch(lengths=(4096, 2048, 1024, 8192) * 2)
        serial = fast_solver(cost_model8, backend="greedy").solve(batch)
        parallel = fast_solver(cost_model8, backend="greedy", workers=2).solve(batch)
        assert parallel.predicted_time == pytest.approx(serial.predicted_time)

    def test_single_worker_never_builds_a_pool(self, cost_model8):
        solver = fast_solver(cost_model8, backend="greedy")
        solver.solve((4096, 2048, 1024, 8192) * 2)
        assert solver._own_pool is None and solver._service is None

    def test_closed_private_pool_restarts_on_the_next_solve(self, cost_model8):
        solver = fast_solver(cost_model8, backend="greedy", workers=2)
        serial = fast_solver(cost_model8, backend="greedy")
        solver.solve((4096, 2048, 1024, 8192) * 2)
        solver.close()
        assert solver._own_pool._pool is None
        batch = (4000, 2000, 1000, 8000) * 2  # uncached: pooled again
        try:
            restarted = solver.solve(batch)
            assert solver._own_pool._pool is not None
        finally:
            solver.close()
        assert restarted.microbatches == serial.solve(batch).microbatches


class TestPrivatePoolRecovery:
    def test_recovers_after_worker_death(self, cost_model8):
        """A SIGKILLed worker must not poison the private pool."""
        import os
        import signal

        solver = fast_solver(cost_model8, backend="greedy", workers=2)
        with solver:
            first = solver.solve((4096, 2048, 1024, 8192) * 2)
            assert first.num_sequences == 8
            pool = solver._own_pool
            assert pool is not None and pool._pool is not None
            for pid in list(pool._pool._processes):
                os.kill(pid, signal.SIGKILL)
            # A different batch (no cache hits) must transparently
            # rebuild the pool and still match a serial solve.
            batch = (4000, 2000, 1000, 8000) * 2
            recovered = solver.solve(batch)
            serial = fast_solver(cost_model8, backend="greedy").solve(batch)
            assert recovered.predicted_time == serial.predicted_time
            assert recovered.microbatches == serial.microbatches


class TestColdShapeSurface:
    """pending_shapes / plan_shapes_cold / seed_plan — the campaign
    prewarmer's planner-call-granularity dedup hooks."""

    def test_pending_then_seed_then_full_hit(self, cost_model8):
        batch = SequenceBatch(lengths=(4096, 8192, 2048, 1024, 512, 16384) * 2)
        solver = fast_solver(cost_model8, backend="greedy")
        pending = solver.pending_shapes(batch)
        assert pending, "cold solver must report uncached shapes"
        assert pending == sorted(pending, key=lambda s: (len(s), s))
        outcomes = solver.plan_shapes_cold(pending)
        for shape, outcome in zip(pending, outcomes):
            solver.seed_plan(shape, outcome)
        assert solver.pending_shapes(batch) == []
        result = solver.solve(batch)
        assert result.stats is not None
        assert result.stats.planner_calls == 0
        assert result.stats.hit_rate == 1.0

    def test_seeded_solve_bit_identical_to_cold_solve(self, cost_model8):
        batch = SequenceBatch(lengths=(4096, 8192, 2048, 1024, 512, 16384) * 2)
        cold = fast_solver(cost_model8, backend="greedy").solve(batch)
        seeded_solver = fast_solver(cost_model8, backend="greedy")
        pending = seeded_solver.pending_shapes(batch)
        for shape, outcome in zip(
            pending, seeded_solver.plan_shapes_cold(pending)
        ):
            seeded_solver.seed_plan(shape, outcome)
        seeded = seeded_solver.solve(batch)
        assert seeded.predicted_time == cold.predicted_time
        assert seeded.microbatches == cold.microbatches

    def test_pending_probe_leaves_solve_stats_untouched(self, cost_model8):
        batch = SequenceBatch(lengths=(4096, 8192, 2048, 1024) * 2)
        probed = fast_solver(cost_model8, backend="greedy")
        probed.pending_shapes(batch)
        probed.pending_shapes(batch)  # idempotent, no counter drift
        unprobed = fast_solver(cost_model8, backend="greedy")
        a = probed.solve(batch)
        b = unprobed.solve(batch)
        assert a.stats.cache_hits == b.stats.cache_hits
        assert a.stats.cache_misses == b.stats.cache_misses

    def test_disabled_cache_reports_nothing_pending(self, cost_model8):
        solver = fast_solver(cost_model8, backend="greedy", plan_cache=False)
        assert solver.pending_shapes((4096, 2048, 1024)) == []


class TestStageBreakdown:
    def test_greedy_solve_records_enumerate_and_lpt(self, cost_model8):
        batch = SequenceBatch(lengths=(4096, 8192, 2048, 1024, 512) * 3)
        result = fast_solver(cost_model8, backend="greedy").solve(batch)
        stages = result.stats.stage_seconds()
        assert stages["lpt"] > 0.0
        assert stages["milp_solve"] == 0.0

    def test_milp_solve_records_build_and_solve(self, cost_model8):
        batch = SequenceBatch(lengths=(4096, 8192, 2048, 1024, 512) * 3)
        result = fast_solver(cost_model8, backend="milp").solve(batch)
        stages = result.stats.stage_seconds()
        assert stages["milp_build"] > 0.0
        assert stages["milp_solve"] > 0.0

    def test_pooled_planning_ships_stage_timings_home(self, cost_model8):
        batch = SequenceBatch(lengths=(4096, 2048, 1024, 8192) * 2)
        with fast_solver(cost_model8, backend="greedy", workers=2) as solver:
            result = solver.solve(batch)
        stages = result.stats.stage_seconds()
        assert stages["lpt"] > 0.0

    def test_warm_solve_spends_no_stage_time(self, cost_model8):
        batch = SequenceBatch(lengths=(4096, 8192, 2048, 1024) * 2)
        solver = fast_solver(cost_model8, backend="greedy")
        solver.solve(batch)
        warm = solver.solve(batch)
        assert warm.stats.stage_seconds() == {
            "enumerate": 0.0,
            "lpt": 0.0,
            "milp_build": 0.0,
            "milp_solve": 0.0,
        }


def _oracle(solver: FlexSPSolver, batch: SequenceBatch, planner=None):
    """Alg. 1 without pruning: plan every micro-batch of every trial
    (the shape the solver hands its planner: canonical when caching)
    and keep the first strictly lowest total."""
    config = solver.config
    if planner is None:
        def planner(shape):
            return plan_microbatch(shape, solver.model, config.planner)
    m_min = solver.minimum_microbatches(batch)
    counts = [
        m for m in range(m_min, m_min + config.num_trials)
        if m <= len(batch.lengths)
    ] or [len(batch.lengths)]
    blasted = blast_multi(batch, counts, sort=config.sort_sequences)
    best = None
    for m in counts:
        if m not in blasted:
            continue
        total, plans = 0.0, []
        try:
            for mb in blasted[m]:
                shape = mb.lengths
                if config.plan_cache:
                    shape = canonical_shape(shape)
                plan, predicted = planner(shape)
                plans.append(plan)
                total += predicted
        except PlanInfeasibleError:
            continue
        if best is None or total < best[0]:
            best = (total, tuple(plans))
    return best


def _assert_invariant(stats):
    assert stats.microbatches == (
        stats.cache_hits
        + stats.dedup_hits
        + stats.cache_misses
        + stats.pruned_microbatches
    )


def _recording(monkeypatch):
    """Record every shape the in-process MILP planner receives."""
    planned = []
    real = solver_module._BACKENDS["milp"]

    def record(shape, model, config):
        planned.append(tuple(shape))
        return real(shape, model, config)

    monkeypatch.setitem(solver_module._BACKENDS, "milp", record)
    return planned


class TestTrialPruning:
    """Trial pruning must be invisible in the plans: the pruned solve
    equals planning every trial."""

    @pytest.mark.parametrize("num_trials", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("plan_cache", [True, False])
    def test_matches_unpruned_oracle(self, cost_model16, num_trials, plan_cache):
        solver = fast_solver(
            cost_model16,
            num_trials=num_trials,
            planner=NODE_PLANNER,
            plan_cache=plan_cache,
        )
        oracle = _oracle(solver, MIXED_BATCH)
        if oracle is None:
            with pytest.raises(PlanInfeasibleError):
                solver.solve(MIXED_BATCH)
            return
        plan = solver.solve(MIXED_BATCH)
        assert (plan.predicted_time, plan.microbatches) == oracle
        _assert_invariant(plan.stats)
        assert plan.stats.trials == num_trials
        assert plan.stats.pruned_trials >= 1

    def test_pooled_client_matches_oracle(self, cost_model16):
        config = SolverConfig(num_trials=5, planner=NODE_PLANNER)
        with SolverPool(workers=2) as pool:
            solver = FlexSPSolver(
                cost_model16, config, service=pool.client(cost_model16, config)
            )
            plan = solver.solve(MIXED_BATCH)
            assert pool.dispatched == plan.stats.cache_misses > 1
        assert (plan.predicted_time, plan.microbatches) == _oracle(
            solver, MIXED_BATCH
        )
        _assert_invariant(plan.stats)

    def test_everything_after_the_winner_pruned(self, cost_model8):
        solver = fast_solver(cost_model8, num_trials=5, planner=NODE_PLANNER)
        plan = solver.solve(SMALL_BATCH)
        assert plan.stats.pruned_trials == 4
        assert plan.stats.cache_misses == plan.num_microbatches
        _assert_invariant(plan.stats)
        assert (plan.predicted_time, plan.microbatches) == _oracle(
            solver, SMALL_BATCH
        )

    def test_tied_trials_keep_the_first(self, cost_model8, monkeypatch):
        """Every micro-batch predicts its token count and its bound is
        that same number, so all trials tie with lower == upper bound:
        none may be pruned, and the first count wins."""

        def tokens(shape, model, config=None):
            plan, __ = plan_microbatch_greedy(shape, model)
            return plan, float(sum(shape))

        monkeypatch.setitem(solver_module._BACKENDS, "milp", tokens)
        monkeypatch.setattr(solver_module, "plan_microbatch_greedy", tokens)
        monkeypatch.setattr(
            solver_module,
            "makespan_lower_bound",
            lambda model, shape: float(sum(shape)),
        )
        solver = fast_solver(cost_model8, num_trials=4, planner=NODE_PLANNER)
        plan = solver.solve(SMALL_BATCH)
        assert plan.stats.pruned_trials == 0
        assert plan.num_microbatches == solver.minimum_microbatches(SMALL_BATCH)
        assert plan.predicted_time == float(SMALL_BATCH.total_tokens)
        oracle = _oracle(
            solver, SMALL_BATCH, lambda shape: tokens(shape, cost_model8)
        )
        assert (plan.predicted_time, plan.microbatches) == oracle

    @pytest.mark.parametrize("model_name", ["cost_model8", "cost_model16"])
    def test_pending_shapes_are_what_a_cold_solve_plans(
        self, request, monkeypatch, model_name
    ):
        model = request.getfixturevalue(model_name)
        batch = MIXED_BATCH if model_name == "cost_model16" else SMALL_BATCH
        solver = fast_solver(model, num_trials=5, planner=NODE_PLANNER)
        pending = solver.pending_shapes(batch)
        assert not solver.is_warm(batch)
        planned = _recording(monkeypatch)
        plan = solver.solve(batch)
        assert sorted(planned) == sorted(pending)
        assert plan.stats.cache_misses == len(pending)
        assert solver.pending_shapes(batch) == []

    def test_warm_without_planners_and_after_store_round_trip(
        self, cost_model16, monkeypatch, tmp_path
    ):
        solver = fast_solver(cost_model16, num_trials=5, planner=NODE_PLANNER)
        cold = solver.solve(MIXED_BATCH)

        def refuse(*args, **kwargs):
            raise AssertionError("is_warm ran a planner")

        with monkeypatch.context() as patched:
            patched.setitem(solver_module._BACKENDS, "milp", refuse)
            patched.setitem(solver_module._BACKENDS, "greedy", refuse)
            patched.setattr(solver_module, "plan_microbatch_greedy", refuse)
            assert solver.is_warm(MIXED_BATCH)
            warm = solver.solve(MIXED_BATCH)
        assert warm.stats.planner_calls == 0
        assert warm.microbatches == cold.microbatches
        assert warm.predicted_time == cold.predicted_time

        store = CacheStore(tmp_path)
        digest = context_digest(solver.config.planner, solver.config.backend)
        signature = ("pruning", 16)
        state = WorkloadState(signature=repr(signature))
        state.plans[digest] = entries_from_cache(solver.cache)
        store.save(signature, state)
        restored = fast_solver(cost_model16, num_trials=5, planner=NODE_PLANNER)
        loaded = CacheStore(tmp_path).load(signature)
        preload_cache(restored.cache, loaded.plans[digest], restored.context)
        assert restored.is_warm(MIXED_BATCH)
        assert restored.pending_shapes(MIXED_BATCH) == []

    @pytest.mark.parametrize("survivors_first", [True, False])
    def test_is_warm_agrees_with_pending_shapes(
        self, cost_model16, survivors_first
    ):
        """Seeding every trial's shapes one at a time, the planner-free
        warm rule answers exactly as ``not pending_shapes`` in every
        intermediate cache state — warm as soon as the surviving
        trials are cached, whatever the pruned ones hold."""
        solver = fast_solver(cost_model16, num_trials=5, planner=NODE_PLANNER)
        survivors = solver.pending_shapes(MIXED_BATCH)
        __, keys = solver._trial_keys(MIXED_BATCH)
        pruned = sorted(
            {shape for trial in keys for shape in trial} - set(survivors)
        )
        assert pruned
        order = survivors + pruned if survivors_first else pruned + survivors
        answers = []
        for shape, outcome in zip(order, solver.plan_shapes_cold(order)):
            solver.seed_plan(shape, outcome)
            warm = solver.is_warm(MIXED_BATCH)
            assert warm == (solver.pending_shapes(MIXED_BATCH) == [])
            answers.append(warm)
        first_warm = answers.index(True)
        assert all(answers[first_warm:])
        if survivors_first:
            assert first_warm == len(survivors) - 1

    def test_greedy_backend_never_bounds(self, cost_model16, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the greedy backend computed a bound")

        monkeypatch.setattr(solver_module, "makespan_lower_bound", refuse)
        solver = fast_solver(cost_model16, num_trials=5, backend="greedy")
        assert solver.pending_shapes(MIXED_BATCH)
        assert not solver.is_warm(MIXED_BATCH)
        plan = solver.solve(MIXED_BATCH)
        assert plan.stats.pruned_trials == 0
        assert solver.is_warm(MIXED_BATCH)
        _assert_invariant(plan.stats)
