"""The service latency benchmark routines.

Two measurements, each run by a pytest benchmark suite that asserts
over the returned record (a plain dict):

* :func:`run_service_benchmark` — the in-process two-phase trace
  replay (``benchmarks/test_bench_service.py``, ``make
  bench-service-smoke`` / ``bench-service``).
* :func:`run_transport_benchmark` — a trace replayed through the TCP
  transport (:mod:`repro.service.transport`) over loopback, with
  optional deterministic network-fault injection and a server crash
  (``benchmarks/test_bench_service_net.py``, ``make
  bench-service-net``).  Its record carries a ``transport`` block:
  p50/p99 over TCP, retries, reconnects, degraded count and the
  server-side frame counters.

The in-process measurement replays one seeded Gamma-arrival trace twice:

1. **Burst (cold) phase** — the whole trace is submitted against a
   *paused* service, so in-flight coalescing and per-tenant admission
   shedding are pure functions of submission order (deterministic for
   a given trace), then the service starts and the backlog drains.
   This yields cold p50/p99 latency (queueing included — it is a
   burst), sustained plans/sec, and the phase's ``solved``,
   ``coalesced`` and ``shed`` counts, which depend only on the trace.
2. **Warm (churn) phase** — the same trace replayed against the now
   live service: previously solved shapes answer from the plan cache
   at submit time, shapes shed in phase 1 now solve, giving the warm
   hit rate and warm-path latencies under churn.  Whether a duplicate
   here coalesces or answers warm depends on thread timing, so the
   record's whole-run ``warm_hits`` and ``coalesced`` can differ
   between runs of one trace.

Every unique served plan is then re-solved on a cold
:class:`~repro.core.solver.FlexSPSolver` (fresh fit, fresh cache, no
service) and asserted bit-identical — the service contract.  Both
routines plan on :data:`SOLVER_CONFIG` and draw their traces at
:data:`TRACE_CV` and :data:`TRACE_SEED`.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from repro.core import faults
from repro.core.planner import PlannerConfig
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.cost.profiler import fit_cost_model
from repro.service.service import PlanService, RequestShed
from repro.service.traffic import synthesize_trace
from repro.service.transport import PlanClient, PlanServer

#: Generous per-ticket wait; a solve that exceeds this is a hang.
RESULT_TIMEOUT = 600.0

#: The paper's MILP under a deterministic HiGHS node limit (the one
#: perfbench ``stream-milp`` uses), so neither a served plan nor its
#: cold re-solve depends on the wall clock.  Every HiGHS call of the
#: 16K and 32K service shapes ends optimal within 15 nodes, so the
#: limit binds nowhere.
SOLVER_CONFIG = SolverConfig(planner=PlannerConfig(node_limit=500))

#: Gamma inter-arrival coefficient of variation (1.0 is Poisson).
TRACE_CV = 2.0
#: Seeds the trace and the transport client's backoff jitter.
TRACE_SEED = 23


def _percentiles(latencies: list[float]) -> dict:
    if not latencies:
        return {"p50_ms": None, "p99_ms": None, "mean_ms": None}
    array = np.asarray(latencies) * 1000.0
    return {
        "p50_ms": round(float(np.percentile(array, 50)), 3),
        "p99_ms": round(float(np.percentile(array, 99)), 3),
        "mean_ms": round(float(array.mean()), 3),
    }


def _verify_unique_plans(jobs, unique) -> int:
    """Re-solve every unique served shape on a cold engine (fresh fit,
    fresh cache, no service, no network) and assert bit-identity —
    the contract every front-end must preserve.  Returns the count."""
    models = {
        name: fit_cost_model(w.model_at_context, w.cluster, w.checkpointing)
        for name, w in jobs.items()
    }
    verified = 0
    for (tenant, lengths), plan in sorted(unique.items()):
        reference = FlexSPSolver(models[tenant], SOLVER_CONFIG).solve(lengths)
        if (
            reference.microbatches != plan.microbatches
            or reference.predicted_time != plan.predicted_time
        ):
            raise AssertionError(
                f"served plan for {tenant} diverged from the cold solve "
                f"of the same {len(lengths)}-sequence batch"
            )
        verified += 1
    return verified


def _gather(tickets) -> tuple[list, int]:
    """Resolve every ticket; returns (served plans, shed count)."""
    served, shed = [], 0
    for ticket in tickets:
        try:
            served.append(ticket.result(timeout=RESULT_TIMEOUT))
        except RequestShed:
            shed += 1
    return served, shed


def run_service_benchmark(
    *, jobs: dict, duration: float, rate: float, step_window: int
) -> dict:
    """Run the two-phase trace benchmark; returns the record dict.

    ``duration`` seconds of arrivals at ``rate`` requests/second per
    tenant, each tenant drawing its batches from ``step_window``
    training steps.  One pending cold request per tenant is the
    admission bound, tight enough that a duplicate-heavy trace (a
    small step window) shows coalescing *and* shedding in seconds.
    """
    trace = synthesize_trace(
        jobs,
        duration=duration,
        rate=rate,
        cv=TRACE_CV,
        seed=TRACE_SEED,
        step_window=step_window,
    )
    service = PlanService(
        solver_config=SOLVER_CONFIG,
        max_pending_per_tenant=1,
        autostart=False,
    )
    with service:
        for workload in jobs.values():
            service.register(workload)

        # Phase 1: burst the whole trace at the paused service, then
        # drain.  Coalescing/shed accounting is deterministic here.
        burst_started = time.perf_counter()
        cold_tickets = service.replay(trace)
        service.start()
        cold_served, cold_shed = _gather(cold_tickets)
        cold_wall = time.perf_counter() - burst_started
        burst = service.stats()

        # Phase 2: same trace against the live service — churn.
        warm_started = time.perf_counter()
        warm_served, warm_shed = _gather(service.replay(trace))
        warm_wall = time.perf_counter() - warm_started
        stats = service.stats()

        served = cold_served + warm_served
        # Plan-cache effectiveness across every actual solve (warm
        # serves replay the cache; solved flights fill it).
        hits = misses = 0
        for plan in served:
            if plan.source == "coalesced":
                continue
            hits += plan.plan.stats.cache_hits + plan.plan.stats.dedup_hits
            misses += plan.plan.stats.cache_misses
        unique = {(p.tenant, p.lengths): p.plan for p in served}
        verified = _verify_unique_plans(jobs, unique)

    submitted = stats["submitted"]
    return {
        "jobs": sorted(jobs),
        "trace": {"requests": len(trace)},
        "submitted": submitted,
        "served": stats["served"],
        "solved": stats["solved"],
        "warm_hits": stats["warm_hits"],
        "coalesced": stats["coalesced"],
        "shed": stats["shed"],
        "shed_rate": round(stats["shed"] / submitted, 4) if submitted else 0.0,
        "plan_cache_hit_rate": (
            round(hits / (hits + misses), 4) if hits + misses else None
        ),
        "cold_phase": {
            "wall_seconds": round(cold_wall, 3),
            "served": len(cold_served),
            "solved": burst["solved"],
            "coalesced": burst["coalesced"],
            "shed": cold_shed,
            "plans_per_second": (
                round(len(cold_served) / cold_wall, 3) if cold_wall else None
            ),
            **_percentiles([p.latency_seconds for p in cold_served]),
        },
        "warm_phase": {
            "wall_seconds": round(warm_wall, 3),
            "served": len(warm_served),
            "shed": warm_shed,
            "plans_per_second": (
                round(len(warm_served) / warm_wall, 3) if warm_wall else None
            ),
            **_percentiles([p.latency_seconds for p in warm_served]),
        },
        "unique_shapes": len(unique),
        "bit_identical_verified": verified,
    }


def run_transport_benchmark(
    *,
    jobs: dict,
    duration: float,
    fault_specs: str | None = None,
    crash_after: int | None = None,
    client_io_timeout: float = 2.0,
    client_retries: int = 3,
) -> dict:
    """Replay one seeded trace through the TCP transport over loopback.

    A :class:`~repro.service.transport.PlanServer` is booted on an
    ephemeral port and the trace (``duration`` seconds at 0.8
    requests/second per tenant, step window 2) replayed against it,
    optionally chaos-tested: ``fault_specs`` arms a deterministic
    :class:`~repro.core.faults.FaultSchedule` over the network sites
    for the duration of the replay, and ``crash_after=N`` aborts the
    server (no drain) after the Nth request so the remaining requests
    exercise the client's degradation to an in-process service.
    ``client_io_timeout`` and ``client_retries`` size the client's
    retry ladder.

    The client replays the trace closed-loop (one request at a time),
    so the transport — not queueing — dominates the measured
    latencies, and every retry/degradation decision is a deterministic
    function of the trace, the schedule and the client seed.
    """
    trace = synthesize_trace(
        jobs,
        duration=duration,
        rate=0.8,
        cv=TRACE_CV,
        seed=TRACE_SEED,
        step_window=2,
    )
    schedule = faults.FaultSchedule.parse(fault_specs) if fault_specs else None

    service = PlanService(solver_config=SOLVER_CONFIG)
    for workload in jobs.values():
        service.register(workload)
    server = PlanServer(service, owns_service=True)
    host, port = server.address
    client = PlanClient(
        host,
        port,
        jobs=jobs,
        solver_config=SOLVER_CONFIG,
        deadline=60.0,
        io_timeout=client_io_timeout,
        retries=client_retries,
        backoff_base=0.02,
        seed=TRACE_SEED,
    )
    served, shed = [], 0
    try:
        with faults.armed(schedule) if schedule else contextlib.nullcontext():
            replay_started = time.perf_counter()
            for index, request in enumerate(trace):
                if index == crash_after:
                    server.close(drain=False)
                try:
                    served.append(client.plan(request.tenant, request.lengths))
                except RequestShed:
                    shed += 1
            wall = time.perf_counter() - replay_started
        client_stats = client.stats()
        server_stats = server.stats()
        service_stats = service.stats()
    finally:
        client.close()
        server.close()

    unique = {(p.tenant, p.lengths): p.plan for p in served}
    verified = _verify_unique_plans(jobs, unique)

    latencies = [p.latency_seconds for p in served]
    return {
        "jobs": sorted(jobs),
        "trace": {"requests": len(trace)},
        "faults": (
            {"injections": schedule.injection_counts()}
            if schedule is not None
            else None
        ),
        "transport": {
            "requests": client_stats["requests"],
            "served": len(served),
            "shed": shed,
            "retries": client_stats["retries"],
            "reconnects": client_stats["reconnects"],
            "degraded": client_stats["degraded"],
            "wall_seconds": round(wall, 3),
            "plans_per_second": (
                round(len(served) / wall, 3) if wall and served else None
            ),
            **_percentiles(latencies),
            "server": server_stats,
        },
        "service_stats": {
            key: service_stats[key]
            for key in (
                "submitted",
                "served",
                "solved",
                "warm_hits",
                "coalesced",
                "shed",
            )
        },
        "unique_shapes": len(unique),
        "bit_identical_verified": verified,
    }
