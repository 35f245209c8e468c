"""Planning-as-a-service front-end (:mod:`repro.service`).

Covers the tentpole's concurrency edges: in-flight coalescing (one
solve, N bit-equal answers), the warm fast path, deterministic
per-tenant admission shedding, clean shutdown with requests still
queued (no leaked pool workers), store-backed warm restarts, and the
seeded trace generator the service benchmark drives load with.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.cluster.topology import standard_cluster
from repro.core.pools import live_pool_count
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.data.distributions import COMMONCRAWL, GITHUB
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B
from repro.service import (
    GammaProcess,
    PlanService,
    RequestShed,
    ServiceClosed,
    service_jobs,
    synthesize_trace,
)
from repro.service.benchmark import SOLVER_CONFIG

MAX_CONTEXT = 16 * 1024
RESULT_TIMEOUT = 300.0


def small_workload(distribution=COMMONCRAWL, seed: int = 0) -> Workload:
    return Workload(
        model=GPT_7B,
        distribution=distribution,
        max_context=MAX_CONTEXT,
        cluster=standard_cluster(8),
        global_batch_size=8,
        seed=seed,
    )


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """Module-shared store: the first fit spills, later tests restore."""
    return tmp_path_factory.mktemp("service_store")


def batch_lengths(workload: Workload, step: int) -> tuple[int, ...]:
    return workload.corpus().batch(step).lengths


def assert_bit_equal(a, b) -> None:
    assert a.microbatches == b.microbatches
    assert a.predicted_time == b.predicted_time


class TestCoalescing:
    def test_waiters_receive_bit_equal_plans(self, store_dir):
        workload = small_workload()
        with PlanService(
            solver_config=SOLVER_CONFIG, autostart=False, store=store_dir
        ) as service:
            tenant = service.register(workload)
            lengths = batch_lengths(workload, 0)
            tickets = [service.submit(tenant, lengths) for _ in range(4)]
            # Paused service: the three duplicates attached to the
            # first submission's flight deterministically.
            assert service.stats()["coalesced"] == 3
            service.start()
            served = [t.result(timeout=RESULT_TIMEOUT) for t in tickets]
        assert sorted(p.source for p in served) == [
            "coalesced",
            "coalesced",
            "coalesced",
            "solved",
        ]
        for plan in served[1:]:
            assert_bit_equal(served[0].plan, plan.plan)
        # One solve served all four answers, bit-identical to a cold
        # solve of the same shape on a fresh engine.
        stats = service.stats()
        assert stats["solved"] == 1
        assert stats["served"] == 4
        cold = FlexSPSolver(_cold_model(workload), SOLVER_CONFIG)
        assert_bit_equal(cold.solve(lengths), served[0].plan)

    def test_warm_requests_answered_from_plan_cache(self, store_dir):
        workload = small_workload()
        with PlanService(
            solver_config=SOLVER_CONFIG, store=store_dir
        ) as service:
            tenant = service.register(workload)
            lengths = batch_lengths(workload, 0)
            first = service.submit(tenant, lengths).result(
                timeout=RESULT_TIMEOUT
            )
            warm_ticket = service.submit(tenant, lengths)
            # Warm requests resolve synchronously in the submitting
            # thread — no queue round-trip.
            assert warm_ticket.done()
            warm = warm_ticket.result()
        assert warm.source == "warm"
        assert_bit_equal(first.plan, warm.plan)
        # The first request may itself have been warm (module store
        # restored from an earlier test's spill); the repeat must be.
        assert service.stats()["warm_hits"] >= 1


class TestWarmPath:
    def test_warm_submit_blasts_once_and_plans_nothing(self, monkeypatch):
        """A warm answer costs one blast and no planner call, also when
        the batch has left the solver's trial memo, and it is counted
        once as served and once as a warm hit."""
        from repro.core import solver as solver_module

        workload = small_workload(seed=5)
        batches = [batch_lengths(workload, step) for step in range(17)]
        assert len(set(batches)) == len(batches)
        with PlanService(
            solver_config=SolverConfig(backend="greedy")
        ) as service:
            tenant = service.register(workload)
            # 17 distinct batches push the first out of the 16-entry
            # memo.
            for lengths in batches:
                service.submit(tenant, lengths).result(timeout=RESULT_TIMEOUT)
            calls = {"blast": 0, "planner": 0}

            def counted(name, original):
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return original(*args, **kwargs)

                return wrapper

            monkeypatch.setattr(
                solver_module,
                "blast_multi",
                counted("blast", solver_module.blast_multi),
            )
            for name in ("plan_microbatch_greedy", "plan_microbatches_greedy"):
                monkeypatch.setattr(
                    solver_module,
                    name,
                    counted("planner", getattr(solver_module, name)),
                )
            monkeypatch.setitem(
                solver_module._BACKENDS,
                "greedy",
                counted("planner", solver_module._BACKENDS["greedy"]),
            )
            before = service.stats()
            ticket = service.submit(tenant, batches[0])
            assert ticket.done()
            assert ticket.result().source == "warm"
            # Answered under the submit's lock: no flight, no queue.
            assert service._inflight == {}
            after = service.stats()
        assert calls == {"blast": 1, "planner": 0}
        moved = {
            name: after[name] - before[name]
            for name in ("submitted", "served", "warm_hits", "solved")
        }
        assert moved == {"submitted": 1, "served": 1, "warm_hits": 1, "solved": 0}
        assert (after["coalesced"], after["shed"], after["errors"]) == (
            before["coalesced"],
            before["shed"],
            before["errors"],
        )


    def test_racing_warm_submits_lose_no_update(self):
        """Warm answers run under the service lock: eight threads
        racing warm submits of four batches, with a short switch
        interval, lose no counter update and every answer is the cold
        solve's plan."""
        workload = small_workload(seed=6)
        batches = [batch_lengths(workload, step) for step in range(4)]
        rounds, workers = 40, 8
        with PlanService(
            solver_config=SolverConfig(backend="greedy")
        ) as service:
            tenant = service.register(workload)
            cold = {
                lengths: service.submit(tenant, lengths).result(
                    timeout=RESULT_TIMEOUT
                )
                for lengths in batches
            }
            cache = service._solvers[tenant].cache
            hits = cache.hits
            before = service.stats()
            failures: list = []

            def hammer(offset: int) -> None:
                try:
                    for index in range(rounds):
                        lengths = batches[(index + offset) % len(batches)]
                        served = service.submit(tenant, lengths).result(
                            timeout=RESULT_TIMEOUT
                        )
                        if served.source != "warm":
                            failures.append(served.source)
                        assert_bit_equal(served.plan, cold[lengths].plan)
                except BaseException as error:  # reported below
                    failures.append(error)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=hammer, args=(offset,))
                    for offset in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(interval)
            after = service.stats()
            answered = rounds * workers
            per_answer = {
                lengths: service._solvers[tenant]
                .warm_plan(lengths)
                .stats.cache_hits
                for lengths in batches
            }
        assert failures == []
        moved = {
            name: after[name] - before[name]
            for name in ("submitted", "served", "warm_hits", "solved", "coalesced")
        }
        assert moved == {
            "submitted": answered,
            "served": answered,
            "warm_hits": answered,
            "solved": 0,
            "coalesced": 0,
        }
        # Each warm answer counts one hit per distinct shape, under the
        # cache's own lock (plus the four answers read back above).
        answers_per_batch = answered // len(batches) + 1
        assert cache.hits - hits == answers_per_batch * sum(per_answer.values())


class TestAdmissionControl:
    def shed_pattern(self, *, seed: int) -> list[bool]:
        workload = small_workload(GITHUB, seed=seed)
        with PlanService(
            solver_config=SOLVER_CONFIG,
            autostart=False,
            max_pending_per_tenant=2,
        ) as service:
            tenant = service.register(workload)
            tickets = [
                service.submit(tenant, batch_lengths(workload, step))
                for step in range(5)
            ]
            pattern = [t.shed for t in tickets]
            stats = service.stats()
            assert stats["shed"] == sum(pattern)
            assert stats["shed_by_tenant"][tenant] == sum(pattern)
            for ticket in tickets:
                if ticket.shed:
                    with pytest.raises(RequestShed):
                        ticket.result()
        return pattern

    def test_shed_is_deterministic_over_the_pending_bound(self):
        # Five distinct cold shapes against a bound of two: the first
        # two admit, the rest shed — identically on every run.
        first = self.shed_pattern(seed=3)
        assert first == [False, False, True, True, True]
        assert self.shed_pattern(seed=3) == first

    def test_unknown_tenant_rejected(self):
        with PlanService(
            solver_config=SOLVER_CONFIG, autostart=False
        ) as service:
            with pytest.raises(ValueError, match="unknown tenant"):
                service.submit("nobody", (128, 256))

    def test_malformed_batch_rejected_uncounted(self):
        with PlanService(
            solver_config=SOLVER_CONFIG, autostart=False
        ) as service:
            tenant = service.register(small_workload())
            before = service.stats()
            for lengths in ((), (128, 0), (-5,)):
                with pytest.raises(ValueError):
                    service.submit(tenant, lengths)
            assert service.stats() == before

    def test_duplicate_registration_rejected(self):
        workload = small_workload()
        with PlanService(
            solver_config=SOLVER_CONFIG, autostart=False
        ) as service:
            service.register(workload)
            with pytest.raises(ValueError, match="already registered"):
                service.register(workload)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_pool_width_rejected(self, workers):
        # "0 = every CPU" belongs to the CLI, which resolves it before
        # building the service.
        with pytest.raises(ValueError, match="solver_workers"):
            PlanService(
                solver_config=SOLVER_CONFIG,
                autostart=False,
                solver_workers=workers,
            )


class TestShutdown:
    def test_close_cancels_queued_requests_and_releases_pools(self):
        baseline = live_pool_count()
        # Fresh corpus seed: nothing warm, every submit really queues.
        workload = small_workload(seed=7)
        service = PlanService(
            solver_config=SOLVER_CONFIG, autostart=False, solver_workers=2
        )
        tenant = service.register(workload)
        tickets = [
            service.submit(tenant, batch_lengths(workload, step))
            for step in range(3)
        ]
        service.close()
        for ticket in tickets:
            with pytest.raises(ServiceClosed):
                ticket.result(timeout=RESULT_TIMEOUT)
        assert service.stats()["cancelled"] == 3
        # No leaked pool workers: the shared SolverPool, the only pool
        # the tenants' solvers plan on, is gone.
        assert live_pool_count() == baseline
        with pytest.raises(ServiceClosed):
            service.submit(tenant, batch_lengths(workload, 0))
        # Idempotent.
        service.close()

    def test_store_round_trip_serves_restart_warm(self, tmp_path):
        workload = small_workload()
        lengths = batch_lengths(workload, 0)
        with PlanService(
            solver_config=SOLVER_CONFIG, store=tmp_path
        ) as service:
            tenant = service.register(workload)
            first = service.submit(tenant, lengths).result(
                timeout=RESULT_TIMEOUT
            )
        # A fresh service over the same store restores the cost model
        # and plan cache: the same request is warm at submit.
        with PlanService(
            solver_config=SOLVER_CONFIG, store=tmp_path
        ) as restarted:
            tenant = restarted.register(workload)
            ticket = restarted.submit(tenant, lengths)
            assert ticket.done()
            warm = ticket.result()
        assert warm.source == "warm"
        assert_bit_equal(first.plan, warm.plan)


class TestTickets:
    def test_result_timeout_expires_then_succeeds(self):
        # Paused service: nothing solves, so the wait genuinely
        # expires — and the ticket stays valid for a later, patient
        # result() call once the engine starts.
        workload = small_workload(GITHUB, seed=12)
        with PlanService(
            solver_config=SOLVER_CONFIG, autostart=False
        ) as service:
            tenant = service.register(workload)
            ticket = service.submit(tenant, batch_lengths(workload, 0))
            with pytest.raises(TimeoutError, match="not ready within"):
                ticket.result(timeout=0.05)
            service.start()
            served = ticket.result(timeout=RESULT_TIMEOUT)
            assert served.source == "solved"


class TestReplay:
    def _single_job(self, seed: int) -> dict:
        workload = small_workload(GITHUB, seed=seed)
        jobs = service_jobs(max_context=MAX_CONTEXT, global_batch_size=8)
        name = sorted(jobs)[0]
        return {name: workload}

    def test_replay_on_closed_service_returns_empty(self):
        # Regression: replay used to let the first submit's
        # ServiceClosed escape with earlier tickets unawaited.
        jobs = self._single_job(seed=13)
        service = PlanService(solver_config=SOLVER_CONFIG, autostart=False)
        for name, workload in jobs.items():
            service.register(workload, name=name)
        service.close()
        trace = synthesize_trace(jobs, duration=1.0, rate=5.0, seed=0)
        assert trace
        assert service.replay(trace) == []

    def test_close_mid_trace_returns_partial_tickets(self):
        jobs = self._single_job(seed=14)
        trace = synthesize_trace(
            jobs, duration=2.0, rate=10.0, seed=1, step_window=4
        )
        submitted = 5
        assert len(trace) > submitted
        service = PlanService(
            solver_config=SOLVER_CONFIG,
            autostart=False,
            max_pending_per_tenant=64,
        )
        for name, workload in jobs.items():
            service.register(workload, name=name)

        def closing_trace():
            # Close the service after ``submitted`` requests: the
            # replay meets the close mid-trace, deterministically.
            for index, request in enumerate(trace):
                if index == submitted:
                    service.close()
                yield request

        tickets = service.replay(closing_trace())
        assert len(tickets) == submitted
        # Every returned ticket still resolves — answered, shed, or
        # cancelled — never left hanging.
        for ticket in tickets:
            with pytest.raises((RequestShed, ServiceClosed)):
                ticket.result(timeout=RESULT_TIMEOUT)

    def test_replay_ignores_arrival_offsets(self):
        """Replay is closed-loop: the whole trace is submitted at once,
        however far apart its arrivals lie."""
        jobs = self._single_job(seed=15)
        trace = synthesize_trace(
            jobs, duration=60.0, rate=1.0, seed=2, step_window=2
        )
        assert trace[-1].time > 30.0
        with PlanService(
            solver_config=SOLVER_CONFIG,
            autostart=False,
            max_pending_per_tenant=64,
        ) as service:
            for name, workload in jobs.items():
                service.register(workload, name=name)
            started = time.perf_counter()
            tickets = service.replay(trace)
            elapsed = time.perf_counter() - started
        assert len(tickets) == len(trace)
        assert elapsed < trace[-1].time / 2


class TestTraffic:
    def test_trace_is_a_pure_function_of_its_seed(self):
        jobs = service_jobs(max_context=MAX_CONTEXT, global_batch_size=8)
        kwargs = dict(duration=5.0, rate=1.5, cv=2.0, step_window=3)
        a = synthesize_trace(jobs, seed=11, **kwargs)
        b = synthesize_trace(jobs, seed=11, **kwargs)
        assert a == b
        assert a != synthesize_trace(jobs, seed=12, **kwargs)

    def test_trace_is_time_sorted_and_within_duration(self):
        jobs = service_jobs(max_context=MAX_CONTEXT, global_batch_size=8)
        trace = synthesize_trace(jobs, duration=5.0, rate=2.0, seed=0)
        assert trace
        times = [r.time for r in trace]
        assert times == sorted(times)
        assert all(0 <= t < 5.0 for t in times)
        assert {r.tenant for r in trace} <= set(jobs)

    def test_trace_batches_match_the_corpus(self):
        jobs = service_jobs(max_context=MAX_CONTEXT, global_batch_size=8)
        trace = synthesize_trace(
            jobs, duration=4.0, rate=1.0, seed=5, step_window=2
        )
        for request in trace[:4]:
            expected = jobs[request.tenant].corpus().batch(request.step)
            assert request.lengths == expected.lengths

    def test_gamma_process_validates_parameters(self):
        with pytest.raises(ValueError, match="rate"):
            GammaProcess(0.0)
        with pytest.raises(ValueError, match="cv"):
            GammaProcess(1.0, cv=-1.0)
        jobs = service_jobs(max_context=MAX_CONTEXT, global_batch_size=8)
        with pytest.raises(ValueError, match="duration"):
            synthesize_trace(jobs, duration=0.0, rate=1.0)
        with pytest.raises(ValueError, match="step_window"):
            synthesize_trace(jobs, duration=1.0, rate=1.0, step_window=0)


def _cold_model(workload: Workload):
    from repro.cost.profiler import fit_cost_model

    return fit_cost_model(
        workload.model_at_context, workload.cluster, workload.checkpointing
    )
