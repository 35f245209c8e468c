"""Planning-as-a-service: a resident multi-tenant front-end.

:class:`PlanService` promotes the engine stack of PRs 1-8 — per-tenant
:class:`~repro.core.solver.FlexSPSolver` with its plan cache, one
shared :class:`~repro.core.solver.SolverPool`, the persistent
:class:`~repro.core.cache_store.CacheStore` — into a long-lived
front-end that serves plan requests from concurrent callers:

* **Queue + worker threads.**  Requests arrive on a thread-safe queue
  (:meth:`PlanService.submit` returns a :class:`PlanTicket`) and are
  solved by resident service threads; the solvers, their caches and
  the worker pool persist across requests, so a deployment amortises
  process startup, cost-model fitting and re-planning exactly as the
  paper's overlapped solver does (S5).
* **In-flight coalescing.**  Identical ``(tenant, lengths)`` requests
  in flight share one solve: the first becomes the flight's primary,
  later ones attach as waiters, and every ticket resolves with the
  same (bit-equal) plan.  One solve, N answers.
* **Warm fast path.**  A request whose solve would be answered
  entirely from the plan cache is answered by one
  :meth:`FlexSPSolver.warm_plan` call under the service lock, in the
  submitting thread — straight from the shared plan cache (seeded
  from the :class:`CacheStore` at tenant registration) — and never
  consumes queue budget.  It builds no flight, so a duplicate never
  coalesces onto a warm answer: it is answered warm itself.
* **Per-tenant admission control.**  Cold requests beyond
  ``max_pending_per_tenant`` outstanding for one tenant are *shed* at
  submit time with deterministic accounting: the decision depends only
  on the tenant's outstanding count at that submit, so a seeded trace
  sheds the same requests on every run (with the service paused; live
  runs shed by the same rule against live queue state).
* **Bit-identity.**  Every served plan — warm, solved or coalesced —
  equals a cold :meth:`FlexSPSolver.solve` of the same shape bit for
  bit: the service only ever *routes* requests to the same pure
  engine, it never alters planning.  ``benchmarks/test_bench_service``
  asserts this per request.

Tenant state reuses the campaign's
:class:`~repro.experiments.sweep.WorkloadContext` wholesale: cost
models restore from (or fit into) the store, plan caches preload from
spilled entries, and :meth:`PlanService.close` spills the state back —
a service restart is warm the same way a campaign rerun is.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

from repro.core.solver import FlexSPSolver, SolverConfig, SolverPool
from repro.core.types import IterationPlan, SequenceBatch
from repro.experiments.sweep import WorkloadContext
from repro.experiments.workloads import Workload

__all__ = [
    "PlanService",
    "PlanTicket",
    "ServedPlan",
    "RequestShed",
    "ServiceClosed",
]


class RequestShed(RuntimeError):
    """The tenant's pending-queue bound rejected this request."""


class ServiceClosed(RuntimeError):
    """The service shut down before (or while) handling the request."""


@dataclass(frozen=True, slots=True)
class ServedPlan:
    """One answered request.

    Attributes:
        tenant: Registered tenant name.
        lengths: The requested global batch.
        plan: The iteration plan — bit-identical to a cold solve.
        source: ``"warm"`` (answered from the plan cache at submit),
            ``"solved"`` (a flight's primary), or ``"coalesced"``
            (attached to another request's flight).
        latency_seconds: Submit-to-resolve wall time for this ticket.
    """

    tenant: str
    lengths: tuple[int, ...]
    plan: IterationPlan
    source: str
    latency_seconds: float


class PlanTicket:
    """Future-style handle for one submitted request."""

    def __init__(self, tenant: str, lengths: tuple[int, ...]) -> None:
        self.tenant = tenant
        self.lengths = lengths
        self.submitted_at = time.perf_counter()
        self._done = threading.Event()
        self._served: ServedPlan | None = None
        self._error: BaseException | None = None

    def _resolve(self, plan: IterationPlan, source: str) -> None:
        self._served = ServedPlan(
            tenant=self.tenant,
            lengths=self.lengths,
            plan=plan,
            source=source,
            latency_seconds=time.perf_counter() - self.submitted_at,
        )
        self._done.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    @property
    def shed(self) -> bool:
        """Whether admission control rejected this request."""
        return isinstance(self._error, RequestShed)

    def result(self, timeout: float | None = None) -> ServedPlan:
        """Block for the answer; raises :class:`RequestShed` /
        :class:`ServiceClosed` (or the solve's own error) on failure."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"plan for {self.tenant} not ready within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._served is not None
        return self._served


class _Flight:
    """One in-flight solve: a primary ticket plus coalesced waiters."""

    __slots__ = ("key", "batch", "primary", "waiters", "started", "cancelled")

    def __init__(
        self, key: tuple, batch: SequenceBatch, primary: PlanTicket
    ) -> None:
        self.key = key
        self.batch = batch
        self.primary = primary
        self.waiters: list[PlanTicket] = []
        self.started = False
        self.cancelled = False


#: Queue sentinel that stops one service thread.
_STOP = object()


class PlanService:
    """A resident planning front-end over the FlexSP engine.

    Args:
        solver_config: Default solver knobs for registered tenants.
        store: Optional persistent :class:`CacheStore` (or directory
            path) — tenants restore cost models and plan caches from
            it at registration and spill back on :meth:`close`.
        solver_workers: Width of the one shared
            :class:`~repro.core.solver.SolverPool` every tenant's
            solver plans on; 1 (default) plans in-process, and below 1
            is a ``ValueError``.
        worker_threads: Resident service threads consuming the
            request queue.
        max_pending_per_tenant: Cold requests a tenant may have
            outstanding (queued or solving) before new cold requests
            are shed.  Warm and coalesced requests are exempt — they
            consume no planner budget.
        autostart: Start the service threads immediately.  Pass False
            and call :meth:`start` later to make coalescing/shed
            accounting a pure function of submission order (the
            deterministic-trace tests and the duplicate-heavy
            benchmark assertion rely on this).
    """

    def __init__(
        self,
        *,
        solver_config: SolverConfig | None = None,
        store=None,
        solver_workers: int = 1,
        worker_threads: int = 2,
        max_pending_per_tenant: int = 8,
        autostart: bool = True,
    ) -> None:
        if solver_workers < 1:
            raise ValueError(
                f"solver_workers must be positive, got {solver_workers}"
            )
        if worker_threads < 1:
            raise ValueError(
                f"worker_threads must be positive, got {worker_threads}"
            )
        if max_pending_per_tenant < 1:
            raise ValueError(
                "max_pending_per_tenant must be positive, got "
                f"{max_pending_per_tenant}"
            )
        self.solver_config = solver_config or SolverConfig()
        if store is not None:
            from repro.core.cache_store import CacheStore

            if not isinstance(store, CacheStore):
                store = CacheStore(store)
        self.store = store
        self.max_pending_per_tenant = max_pending_per_tenant
        self.worker_threads = worker_threads
        self._pool = SolverPool(solver_workers) if solver_workers > 1 else None
        self._lock = threading.Lock()
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._contexts: dict[str, WorkloadContext] = {}
        self._solvers: dict[str, FlexSPSolver] = {}
        self._inflight: dict[tuple, _Flight] = {}
        self._pending: dict[str, int] = {}
        self._threads: list[threading.Thread] = []
        self._closed = False
        self._stats = {
            "submitted": 0,
            "served": 0,
            "warm_hits": 0,
            "solved": 0,
            "coalesced": 0,
            "shed": 0,
            "cancelled": 0,
            "errors": 0,
        }
        self._shed_by_tenant: dict[str, int] = {}
        if autostart:
            self.start()

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Start the service threads (idempotent)."""
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            missing = self.worker_threads - len(self._threads)
            for index in range(missing):
                thread = threading.Thread(
                    target=self._serve_loop,
                    name=f"plan-service-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def close(self) -> None:
        """Shut down: cancel queued work, stop threads, release the pool.

        Requests still queued (never started) resolve with
        :class:`ServiceClosed`; a request already being solved is
        allowed to finish and resolves normally.  Tenant state spills
        to the store (when one is configured) and the shared
        :class:`SolverPool`, the only pool the service's solvers plan
        on, shuts down — ``live_pool_count`` returns to its
        pre-service baseline.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for flight in list(self._inflight.values()):
                if flight.started:
                    continue
                flight.cancelled = True
                del self._inflight[flight.key]
                self._pending[flight.primary.tenant] -= 1
                error = ServiceClosed(
                    "service closed with the request still queued"
                )
                for ticket in (flight.primary, *flight.waiters):
                    self._stats["cancelled"] += 1
                    ticket._reject(error)
            threads = list(self._threads)
        for __ in threads:
            self._queue.put(_STOP)
        for thread in threads:
            thread.join()
        for context in self._contexts.values():
            context.persist()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tenants ------------------------------------------------------

    def register(
        self,
        workload: Workload,
        name: str | None = None,
        solver_config: SolverConfig | None = None,
    ) -> str:
        """Register one tenant; returns its name (``workload.name``).

        Builds the tenant's :class:`WorkloadContext` — cost model
        fitted or restored from the store, FlexSP solver planning on
        the shared pool, plan cache preloaded from spilled entries —
        outside the lock (fits can be slow), then publishes it.
        """
        name = name or workload.name
        context = WorkloadContext(
            workload,
            solver_config=solver_config or self.solver_config,
            store=self.store,
            solver_pool=self._pool,
        )
        solver = context.system("flexsp").solver
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            if name in self._contexts:
                raise ValueError(f"tenant {name!r} already registered")
            self._contexts[name] = context
            self._solvers[name] = solver
            self._pending[name] = 0
            self._shed_by_tenant[name] = 0
        return name

    def workload_signatures(self) -> dict[str, str]:
        """Per-tenant workload-signature digests.

        The handshake currency of the TCP transport
        (:mod:`repro.service.transport`): a remote client planning for
        the same :class:`Workload` derives the same digest, so a
        client pointed at a server configured for *different*
        workloads fails fast at connect instead of planning against
        the wrong cost model.  Digests match the
        :class:`~repro.core.cache_store.CacheStore` file-naming
        digests for the same workload.
        """
        from repro.core.cache_store import signature_digest
        from repro.experiments.sweep import workload_signature

        with self._lock:
            return {
                name: signature_digest(workload_signature(ctx.workload))
                for name, ctx in self._contexts.items()
            }

    # -- requests -----------------------------------------------------

    def submit(
        self, tenant: str, lengths: tuple[int, ...]
    ) -> PlanTicket:
        """Submit one plan request; returns immediately with a ticket.

        Routing, in order: coalesce onto an identical in-flight
        request; answer a warm request on the spot from the plan cache
        (one :meth:`FlexSPSolver.warm_plan` call, under the lock); shed
        cold requests over the tenant's pending bound; otherwise
        enqueue for the service threads.

        Raises:
            ValueError: An unknown tenant, or an empty batch or one
                with a non-positive length; neither is counted.
        """
        lengths = tuple(lengths)
        batch = SequenceBatch(lengths)
        ticket = PlanTicket(tenant, lengths)
        key = (tenant, lengths)
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            solver = self._solvers.get(tenant)
            if solver is None:
                raise ValueError(f"unknown tenant {tenant!r}")
            self._stats["submitted"] += 1
            flight = self._inflight.get(key)
            if flight is not None:
                flight.waiters.append(ticket)
                self._stats["coalesced"] += 1
                return ticket
            try:
                plan = solver.warm_plan(batch)
            except Exception as error:
                # What the warm solve raised (every live trial cached
                # infeasible, say): the ticket carries it.
                self._stats["errors"] += 1
                ticket._reject(error)
                return ticket
            if plan is not None:
                self._stats["served"] += 1
                self._stats["warm_hits"] += 1
            else:
                if self._pending[tenant] >= self.max_pending_per_tenant:
                    self._stats["shed"] += 1
                    self._shed_by_tenant[tenant] += 1
                    ticket._reject(
                        RequestShed(
                            f"tenant {tenant!r} has "
                            f"{self._pending[tenant]} requests pending "
                            f"(bound {self.max_pending_per_tenant})"
                        )
                    )
                    return ticket
                flight = _Flight(key, batch, ticket)
                self._pending[tenant] += 1
                self._inflight[key] = flight
        if plan is not None:
            ticket._resolve(plan, "warm")
        else:
            self._queue.put(flight)
        return ticket

    def replay(self, trace) -> list[PlanTicket]:
        """Submit every :class:`~repro.service.traffic.TraceRequest`
        back-to-back, ignoring arrival offsets (a closed-loop
        throughput probe).

        If the service closes mid-trace, the replay stops cleanly and
        returns the tickets submitted so far (every one of them still
        resolves — answered, shed, or cancelled) instead of raising
        with earlier tickets unawaited.
        """
        tickets: list[PlanTicket] = []
        for request in trace:
            try:
                tickets.append(self.submit(request.tenant, request.lengths))
            except ServiceClosed:
                break
        return tickets

    def stats(self) -> dict:
        """Copy of the service counters (plus per-tenant shed counts)."""
        with self._lock:
            stats = dict(self._stats)
            stats["shed_by_tenant"] = dict(self._shed_by_tenant)
            stats["pending"] = dict(self._pending)
            return stats

    # -- service threads ----------------------------------------------

    def _serve_loop(self) -> None:
        while True:
            flight = self._queue.get()
            if flight is _STOP:
                return
            with self._lock:
                if flight.cancelled:
                    continue
                flight.started = True
                solver = self._solvers[flight.primary.tenant]
            self._finish_flight(flight, solver)

    def _finish_flight(self, flight: _Flight, solver: FlexSPSolver) -> None:
        """Solve one queued flight and resolve its primary plus all
        waiters.

        The solve runs outside the lock (FlexSPSolver is thread-safe;
        its cache locks internally).  The flight is unpublished under
        the lock *before* tickets resolve, so a new identical request
        can never attach to a completed flight.
        """
        error: BaseException | None = None
        plan = None
        try:
            plan = solver.solve(flight.batch)
        except BaseException as exc:
            error = exc
        with self._lock:
            self._inflight.pop(flight.key, None)
            self._pending[flight.primary.tenant] -= 1
            if error is None:
                self._stats["served"] += 1 + len(flight.waiters)
                self._stats["solved"] += 1
            else:
                self._stats["errors"] += 1 + len(flight.waiters)
            waiters = list(flight.waiters)
        if error is None:
            flight.primary._resolve(plan, "solved")
            for ticket in waiters:
                ticket._resolve(plan, "coalesced")
        else:
            flight.primary._reject(error)
            for ticket in waiters:
                ticket._reject(error)
