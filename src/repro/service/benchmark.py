"""The service latency benchmark routines.

Two measurements, each shared by a pytest benchmark suite, which
asserts over the returned record (a plain dict), and a ``python -m
repro.bench`` CLI verb, which prints it:

* :func:`run_service_benchmark` — the in-process two-phase trace
  replay (``benchmarks/test_bench_service.py`` / ``--service``).
* :func:`run_transport_benchmark` — the same trace replayed through
  the TCP transport (:mod:`repro.service.transport`), loopback by
  default with optional deterministic network-fault injection, or
  against a remote ``--serve`` process via ``--service --connect``
  (``benchmarks/test_bench_service_net.py`` / ``make
  bench-service-net``).  Its record carries a ``transport`` block:
  p50/p99 over TCP, retries, reconnects, degraded count and the
  server-side frame counters.

The measurement replays one seeded Gamma-arrival trace twice:

1. **Burst (cold) phase** — the whole trace is submitted against a
   *paused* service, so in-flight coalescing and per-tenant admission
   shedding are pure functions of submission order (deterministic for
   a given trace), then the service starts and the backlog drains.
   This yields cold p50/p99 latency (queueing included — it is a
   burst), sustained plans/sec, the coalesced count and the shed rate.
2. **Warm (churn) phase** — the same trace replayed against the now
   live service: previously solved shapes answer from the plan cache
   at submit time, shapes shed in phase 1 now solve, giving the warm
   hit rate and warm-path latencies under churn.

Optionally every unique served plan is then re-solved on a cold
:class:`~repro.core.solver.FlexSPSolver` (fresh fit, fresh cache, no
service) and asserted bit-identical — the service contract.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from repro.core import faults
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.cost.profiler import fit_cost_model
from repro.service.service import PlanService, RequestShed
from repro.service.traffic import service_jobs, synthesize_trace
from repro.service.transport import PlanClient, PlanServer

#: Generous per-ticket wait; a solve that exceeds this is a hang.
RESULT_TIMEOUT = 600.0


def _percentiles(latencies: list[float]) -> dict:
    if not latencies:
        return {"p50_ms": None, "p99_ms": None, "mean_ms": None}
    array = np.asarray(latencies) * 1000.0
    return {
        "p50_ms": round(float(np.percentile(array, 50)), 3),
        "p99_ms": round(float(np.percentile(array, 99)), 3),
        "mean_ms": round(float(array.mean()), 3),
    }


def _verify_unique_plans(jobs, solver_config, unique) -> int:
    """Re-solve every unique served shape on a cold engine (fresh fit,
    fresh cache, no service, no network) and assert bit-identity —
    the contract every front-end must preserve.  Returns the count."""
    models = {
        name: fit_cost_model(w.model_at_context, w.cluster, w.checkpointing)
        for name, w in jobs.items()
    }
    config = solver_config or SolverConfig()
    verified = 0
    for (tenant, lengths), plan in sorted(unique.items()):
        reference = FlexSPSolver(models[tenant], config).solve(lengths)
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
    *,
    jobs=None,
    duration: float = 5.0,
    rate: float = 0.8,
    cv: float = 2.0,
    seed: int = 23,
    step_window: int = 2,
    max_pending_per_tenant: int = 1,
    worker_threads: int = 2,
    solver_workers: int = 1,
    solver_config: SolverConfig | None = None,
    store=None,
    verify: bool = True,
) -> dict:
    """Run the two-phase trace benchmark; returns the record dict.

    The defaults are the CI smoke shape: three heterogeneous tenants,
    a duplicate-heavy trace (``step_window=2``) and a tight pending
    bound, so coalescing *and* shedding are both observed in seconds.
    """
    jobs = jobs if jobs is not None else service_jobs()
    trace = synthesize_trace(
        jobs,
        duration=duration,
        rate=rate,
        cv=cv,
        seed=seed,
        step_window=step_window,
    )
    service = PlanService(
        solver_config=solver_config,
        store=store,
        solver_workers=solver_workers,
        worker_threads=worker_threads,
        max_pending_per_tenant=max_pending_per_tenant,
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

        verified = 0
        if verify:
            verified = _verify_unique_plans(jobs, solver_config, unique)

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
        "bit_identical_verified": verified if verify else None,
    }


def run_transport_benchmark(
    *,
    jobs=None,
    duration: float = 3.0,
    rate: float = 0.8,
    cv: float = 2.0,
    seed: int = 23,
    step_window: int = 2,
    max_pending_per_tenant: int = 8,
    worker_threads: int = 2,
    solver_workers: int = 1,
    solver_config: SolverConfig | None = None,
    store=None,
    connect: tuple[str, int] | None = None,
    fault_specs: str | None = None,
    fault_seed: int = 0,
    crash_after: int | None = None,
    client_deadline: float = 60.0,
    client_io_timeout: float = 2.0,
    client_retries: int = 3,
    client_backoff_base: float = 0.02,
    verify: bool = True,
) -> dict:
    """Replay one seeded trace through the TCP transport.

    With ``connect=None`` (the default) a loopback
    :class:`~repro.service.transport.PlanServer` is booted on an
    ephemeral port, optionally chaos-tested: ``fault_specs`` arms a
    deterministic :class:`~repro.core.faults.FaultSchedule` over the
    network sites for the duration of the replay, and
    ``crash_after=N`` aborts the server (no drain) after the Nth
    request so the remaining requests exercise the client's
    degradation to an in-process service.  With ``connect=(host,
    port)`` the trace is replayed against a remote ``--serve``
    process instead (no injection, no crash — the remote owns its own
    fault plane).

    The client replays the trace closed-loop (one request at a time),
    so the transport — not queueing — dominates the measured
    latencies, and every retry/degradation decision is a deterministic
    function of the trace, the schedule and the client seed.
    """
    if connect is not None and (fault_specs or crash_after is not None):
        raise ValueError(
            "fault injection and crash simulation are loopback-only "
            "(a remote server owns its own fault plane)"
        )
    jobs = jobs if jobs is not None else service_jobs()
    trace = synthesize_trace(
        jobs,
        duration=duration,
        rate=rate,
        cv=cv,
        seed=seed,
        step_window=step_window,
    )
    schedule = None
    if fault_specs:
        schedule = faults.FaultSchedule.parse(fault_specs, seed=fault_seed)

    server = None
    service = None
    if connect is None:
        service = PlanService(
            solver_config=solver_config,
            store=store,
            solver_workers=solver_workers,
            worker_threads=worker_threads,
            max_pending_per_tenant=max_pending_per_tenant,
        )
        for workload in jobs.values():
            service.register(workload)
        server = PlanServer(
            service, owns_service=True, result_timeout=RESULT_TIMEOUT
        )
        host, port = server.address
    else:
        host, port = connect

    client = PlanClient(
        host,
        port,
        jobs=jobs,
        solver_config=solver_config,
        deadline=client_deadline,
        io_timeout=client_io_timeout,
        retries=client_retries,
        backoff_base=client_backoff_base,
        seed=seed,
    )
    served, shed = [], 0
    crashed = False
    try:
        with faults.armed(schedule) if schedule else contextlib.nullcontext():
            replay_started = time.perf_counter()
            for index, request in enumerate(trace):
                if (
                    crash_after is not None
                    and index == crash_after
                    and server is not None
                    and not crashed
                ):
                    server.close(drain=False)
                    crashed = True
                try:
                    served.append(client.plan(request.tenant, request.lengths))
                except RequestShed:
                    shed += 1
            wall = time.perf_counter() - replay_started
        client_stats = client.stats()
        server_stats = server.stats() if server is not None else None
        service_stats = service.stats() if service is not None else None
    finally:
        client.close()
        if server is not None:
            server.close()

    unique = {(p.tenant, p.lengths): p.plan for p in served}
    verified = _verify_unique_plans(jobs, solver_config, unique) if verify else None

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
        "service_stats": (
            {
                key: service_stats[key]
                for key in (
                    "submitted",
                    "served",
                    "solved",
                    "warm_hits",
                    "coalesced",
                    "shed",
                )
            }
            if service_stats is not None
            else None
        ),
        "unique_shapes": len(unique),
        "bit_identical_verified": verified,
    }
