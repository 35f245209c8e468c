"""Network chaos benchmark: the plan transport under injected faults.

The hardened-transport PR's acceptance bar.  A seeded trace is
replayed through a loopback :class:`~repro.service.transport.PlanServer`
/ :class:`~repro.service.transport.PlanClient` pair while the
deterministic fault plane (:mod:`repro.core.faults`) fires network
faults at the transport's injection sites, and for every survivable
schedule in the matrix — connections reset at accept, torn response
frames, slow peers, responses solved but never sent — the replay must

* complete, every request answered or deterministically shed, with
  the client's deadline/retry/backoff ladder absorbing the faults;
* serve **every** plan bit-identical to a cold ``FlexSPSolver`` solve
  (the wire adds serialisation, never drift);
* never double-solve: a retry after a lost response re-attaches via
  the server's idempotency window or the service's coalescing map, so
  the engine solves each unique shape exactly once;
* keep shed/coalesce accounting deterministic (same trace + same
  schedule + same seeds = same counters);
* leave nothing behind (``live_pool_count`` back to baseline, no
  server sockets or handler threads).

A server crash mid-trace (no drain) must degrade gracefully: the
client falls back to an in-process service and the remaining requests
are still answered bit-identically, with the degradation counted.

Each test prints its latency and retry figures.  ``make
bench-service-net`` runs the matrix; ``make bench-service-net-smoke``
runs the CI slice (``-k smoke``: one injected ``conn_reset``,
recovered in seconds).
"""

from __future__ import annotations

from benchmarks.conftest import FULL
from repro.core.pools import live_pool_count
from repro.experiments.reporting import format_table
from repro.service.benchmark import run_transport_benchmark
from repro.service.traffic import service_jobs

MAX_CONTEXT = (32 if FULL else 16) * 1024
GLOBAL_BATCH = 16 if FULL else 8
DURATION = 3.0 if FULL else 2.0
RATE = 0.8
STEP_WINDOW = 2

#: The survivable schedules the matrix sweeps — every fault kind at
#: every site the transport realises it, one occurrence each (the
#: ``:*`` repeated-fault shape is covered by the unit suite's
#: degradation tests; here each schedule must be absorbed *without*
#: falling back to in-process planning).
MATRIX_SCHEDULES = (
    "conn_reset@accept",
    "conn_reset@send",
    "torn_frame@handshake",
    "torn_frame@send",
    "delay@accept",
    "delay@recv",
    "delay@send",
    "drop_response@send",
)

#: Schedules whose fault loses a request or response mid-exchange, so
#: recovery must show up as at least one client retry.
RETRYING = {
    "conn_reset@send",
    "torn_frame@send",
    "drop_response@send",
}


def _jobs(count: int = 3) -> dict:
    jobs = service_jobs(
        max_context=MAX_CONTEXT, global_batch_size=GLOBAL_BATCH
    )
    names = sorted(jobs)[:count]
    return {name: jobs[name] for name in names}


def _run(jobs, **kwargs) -> dict:
    return run_transport_benchmark(
        jobs=jobs,
        duration=DURATION,
        rate=RATE,
        cv=2.0,
        seed=23,
        step_window=STEP_WINDOW,
        verify=True,
        **kwargs,
    )


def _assert_survived(record: dict, *, schedule: str | None) -> None:
    transport = record["transport"]
    # Conservation: every request answered or deterministically shed.
    assert transport["served"] + transport["shed"] == transport["requests"]
    # Bit-identity survived the wire and the fault.
    assert record["bit_identical_verified"] == record["unique_shapes"]
    # Never a double-solve: sequential closed-loop replay means each
    # unique (tenant, shape) is solved exactly once — retries re-attach
    # through the idempotency window instead of re-entering the engine.
    stats = record["service_stats"]
    assert stats["solved"] == record["unique_shapes"]
    assert stats["submitted"] == record["trace"]["requests"]
    if schedule is not None:
        label = schedule.split(":")[0]
        injections = record["faults"]["injections"]
        assert injections.get(label, 0) >= 1, f"{schedule} never fired"


def test_smoke_conn_reset_recovered(emit):
    """The CI smoke slice: one injected ``conn_reset``, recovered.

    Selected by ``make bench-service-net-smoke`` (``-k smoke``) so
    every CI run proves the retry/reconnect rung of the client ladder
    over a real socket in seconds, without paying for the matrix.
    """
    baseline_pools = live_pool_count()
    jobs = _jobs(count=1)
    record = _run(jobs, fault_specs="conn_reset@accept")
    _assert_survived(record, schedule="conn_reset@accept")
    transport = record["transport"]
    assert transport["retries"] >= 1, "the reset was never retried"
    assert transport["degraded"] == 0, "smoke fault must not degrade"
    assert live_pool_count() == baseline_pools
    emit(
        f"Transport smoke: conn_reset@accept over loopback — "
        f"{transport['served']} served of {transport['requests']} "
        f"requests, {transport['retries']} retries, "
        f"{transport['reconnects']} reconnects, p50 "
        f"{transport['p50_ms']} ms, p99 {transport['p99_ms']} ms, "
        f"{record['bit_identical_verified']}/{record['unique_shapes']} "
        "bit-identical to cold solves"
    )


def test_network_chaos_matrix(emit):
    """Every survivable network fault, absorbed without degradation."""
    baseline_pools = live_pool_count()
    jobs = _jobs()
    rows = []
    for schedule in MATRIX_SCHEDULES:
        record = _run(jobs, fault_specs=schedule)
        _assert_survived(record, schedule=schedule)
        transport = record["transport"]
        assert transport["degraded"] == 0, f"{schedule}: degraded"
        if schedule in RETRYING:
            assert transport["retries"] >= 1, f"{schedule}: no retry"
        assert live_pool_count() == baseline_pools, f"{schedule}: leak"
        rows.append(
            (
                schedule,
                str(transport["requests"]),
                str(transport["retries"]),
                str(transport["reconnects"]),
                str(transport["server"]["replayed"]),
                f"{transport['p50_ms']:.2f}",
                f"{transport['p99_ms']:.2f}",
            )
        )
    emit(
        f"Transport chaos matrix: {len(MATRIX_SCHEDULES)} schedules over "
        f"{len(jobs)} tenants ({MAX_CONTEXT // 1024}K, batch "
        f"{GLOBAL_BATCH}), all bit-identical, zero degradations\n"
        + format_table(
            [
                "schedule",
                "requests",
                "retries",
                "reconnects",
                "replayed",
                "p50 (ms)",
                "p99 (ms)",
            ],
            rows,
        )
    )


def test_chaos_accounting_is_deterministic():
    """Same trace + same schedule + same seeds = same counters."""
    jobs = _jobs(count=1)

    def accounting(record: dict) -> tuple:
        transport = record["transport"]
        stats = record["service_stats"]
        return (
            transport["requests"],
            transport["served"],
            transport["shed"],
            transport["retries"],
            transport["degraded"],
            transport["server"]["replayed"],
            transport["server"]["dropped_responses"],
            stats["submitted"],
            stats["solved"],
            stats["shed"],
            stats["coalesced"],
        )

    first = _run(jobs, fault_specs="drop_response@send")
    second = _run(jobs, fault_specs="drop_response@send")
    assert accounting(first) == accounting(second)
    assert first["transport"]["server"]["replayed"] >= 1


def test_crash_mid_flight_degrades_to_in_process(emit):
    """Server aborted (no drain) mid-trace: the client's last rung."""
    baseline_pools = live_pool_count()
    jobs = _jobs(count=2)
    record = _run(
        jobs, crash_after=3, client_io_timeout=1.0, client_retries=2
    )
    transport = record["transport"]
    # Every request is still answered (or shed) — the ones after the
    # crash by the client's private in-process service.
    assert transport["served"] + transport["shed"] == transport["requests"]
    assert transport["degraded"] >= 1, "the crash never degraded"
    assert record["bit_identical_verified"] == record["unique_shapes"]
    assert live_pool_count() == baseline_pools
    emit(
        f"Transport crash: server aborted after request 3 — "
        f"{transport['degraded']} of {transport['requests']} requests "
        f"degraded to in-process planning, all "
        f"{record['bit_identical_verified']} unique plans bit-identical "
        "to cold solves"
    )
