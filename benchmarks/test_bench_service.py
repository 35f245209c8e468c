"""Planning-as-a-service latency benchmark (the service-tentpole bar).

A seeded Gamma-arrival trace over three heterogeneous tenants is
replayed against a resident :class:`~repro.service.PlanService` twice
(burst-cold, then warm churn — see :mod:`repro.service.benchmark`).
The acceptance bar:

* in-flight coalescing observed (``coalesced > 0``) on the
  duplicate-heavy trace, and per-tenant admission shedding engaged
  (``shed > 0``) under the tight pending bound;
* **every** unique served plan bit-identical to a cold
  ``FlexSPSolver`` solve of the same batch on a fresh engine;
* the burst phase's ``solved``, ``coalesced`` and ``shed`` counts
  repeated by a second burst replay on a fresh service (the service
  is paused while the burst is submitted, so they depend only on the
  trace);
* p50/p99 plan latency, sustained plans/sec, plan-cache hit rate,
  shed rate and the burst counters printed in the archived table.

The default tier runs in seconds (16K contexts, batch 8; ``make
bench-service-smoke``, CI); ``REPRO_BENCH_FULL=1`` replays a longer
trace at the paper's 32K/batch-16 service scale (``make
bench-service``, nightly).
"""

from __future__ import annotations

import contextlib

import pytest

from benchmarks.conftest import FULL
from repro.experiments.reporting import format_table
from repro.service.benchmark import (
    RESULT_TIMEOUT,
    SOLVER_CONFIG,
    TRACE_CV,
    TRACE_SEED,
    run_service_benchmark,
)
from repro.service.service import PlanService, RequestShed
from repro.service.traffic import service_jobs, synthesize_trace

MAX_CONTEXT = (32 if FULL else 16) * 1024
GLOBAL_BATCH = 16 if FULL else 8
DURATION = 20.0 if FULL else 5.0
RATE = 1.5 if FULL else 0.8
STEP_WINDOW = 4 if FULL else 2


@pytest.fixture(scope="module")
def jobs() -> dict:
    return service_jobs(
        max_context=MAX_CONTEXT, global_batch_size=GLOBAL_BATCH
    )


@pytest.fixture(scope="module")
def record(jobs) -> dict:
    return run_service_benchmark(
        jobs=jobs, duration=DURATION, rate=RATE, step_window=STEP_WINDOW
    )


def test_service_trace_latency_under_churn(emit, record):
    # The duplicate-heavy trace must exercise both control paths.
    assert record["coalesced"] > 0, "no in-flight coalescing observed"
    assert record["shed"] > 0, "admission control never engaged"
    assert record["warm_hits"] > 0, "the churn replay never hit warm"
    # Every unique served plan re-solved cold and matched bit-for-bit.
    assert record["bit_identical_verified"] == record["unique_shapes"]
    # Conservation: every submission was answered or deterministically
    # shed, none dropped on the floor.
    assert record["served"] + record["shed"] == record["submitted"]

    rows = [
        (
            phase,
            str(record[key]["served"]),
            f"{record[key]['plans_per_second']:.1f}",
            f"{record[key]['p50_ms']:.2f}",
            f"{record[key]['p99_ms']:.2f}",
        )
        for phase, key in (
            ("burst (cold)", "cold_phase"),
            ("churn (warm)", "warm_phase"),
        )
    ]
    burst = record["cold_phase"]
    emit(
        f"PlanService trace: {record['trace']['requests']} requests/replay "
        f"x2 over {len(record['jobs'])} tenants "
        f"({MAX_CONTEXT // 1024}K, batch {GLOBAL_BATCH}), "
        f"{record['unique_shapes']} unique shapes, burst "
        f"{burst['solved']} solved / {burst['coalesced']} coalesced / "
        f"{burst['shed']} shed, shed rate "
        f"{record['shed_rate']:.0%}, plan-cache hit rate "
        f"{record['plan_cache_hit_rate']:.0%}, "
        f"{record['bit_identical_verified']}/{record['unique_shapes']} "
        "bit-identical to cold solves\n"
        + format_table(
            ["phase", "served", "plans/s", "p50 (ms)", "p99 (ms)"], rows
        )
    )


def test_burst_counters_repeat_on_a_fresh_service(jobs, record):
    """The burst is submitted to a paused service, so its solved,
    coalesced and shed counts are a pure function of the trace: the
    same burst replayed on a fresh service (the routine's config and
    its one-pending-request admission bound) repeats them."""
    trace = synthesize_trace(
        jobs,
        duration=DURATION,
        rate=RATE,
        cv=TRACE_CV,
        seed=TRACE_SEED,
        step_window=STEP_WINDOW,
    )
    with PlanService(
        solver_config=SOLVER_CONFIG, max_pending_per_tenant=1, autostart=False
    ) as service:
        for workload in jobs.values():
            service.register(workload)
        tickets = service.replay(trace)
        service.start()
        for ticket in tickets:
            with contextlib.suppress(RequestShed):
                ticket.result(timeout=RESULT_TIMEOUT)
        stats = service.stats()
    burst = record["cold_phase"]
    assert (stats["solved"], stats["coalesced"], stats["shed"]) == (
        burst["solved"],
        burst["coalesced"],
        burst["shed"],
    )
