"""Process-pool lifecycle guard shared by every persistent pool owner.

One component in this repo keeps ``ProcessPoolExecutor`` workers
alive across calls: :class:`repro.core.solver.SolverPool` — shared by
a :class:`~repro.experiments.sweep.SweepRunner`'s workloads, a plan
service's tenants, or any :class:`~repro.core.solver.FlexSPSolver`
built with one of its tenants (``service=pool.client(model,
config)``); a solver never owns a pool.  Each owner is a context
manager, but the trajectory-regeneration use case encourages
fire-and-forget usage (create a runner at module scope, call ``run()``
repeatedly, never ``close()``), and an abandoned pool means leaked
worker processes.

:func:`track_pool` gives the pool the same two-layer guard:

* a ``weakref.finalize`` on the *owner* shuts the pool down when the
  owner is garbage collected (fire-and-forget callers), and
* a module-level registry + ``atexit`` hook shuts down every pool that
  is still alive at interpreter exit (owners that stay referenced to
  the very end, e.g. module-scope runners).

Owners that do call ``close()`` should invoke the returned finalizer
(calling it twice is harmless — ``weakref.finalize`` runs at most
once) so the guard does not outlive the pool.
"""

from __future__ import annotations

import atexit
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor

__all__ = ["track_pool", "live_pool_count"]

_LOCK = threading.Lock()
#: Every tracked pool that has not been collected yet.  Weak references
#: only: the registry must never keep a pool (and its workers) alive.
_POOLS: "weakref.WeakSet[ProcessPoolExecutor]" = weakref.WeakSet()


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Best-effort non-blocking shutdown (finalizer / atexit target)."""
    pool.shutdown(wait=False, cancel_futures=True)
    with _LOCK:
        _POOLS.discard(pool)


def track_pool(owner: object, pool: ProcessPoolExecutor) -> weakref.finalize:
    """Register ``pool`` for shutdown when ``owner`` dies or at exit.

    Returns the ``weakref.finalize`` handle; the owner's ``close()``
    should call it after (or instead of) its own ``pool.shutdown()`` so
    the guard is retired together with the pool.
    """
    with _LOCK:
        _POOLS.add(pool)
    return weakref.finalize(owner, _shutdown_pool, pool)


def live_pool_count() -> int:
    """How many tracked pools are still alive (test/diagnostic hook)."""
    with _LOCK:
        return len(_POOLS)


@atexit.register
def _shutdown_all() -> None:
    """Interpreter-exit safety net: no tracked pool outlives the session.

    Note the ordering caveat: ``concurrent.futures`` registers its own
    shutdown through ``threading``'s internal exit hooks, which run
    *before* regular ``atexit`` callbacks and drain any still-queued
    work first — so this hook guarantees cleanup of forgotten pools,
    not prompt exit while plans are still in flight.  Owners that want
    promptness must ``close()`` (or let GC fire the per-owner
    finalizer) before exiting.
    """
    with _LOCK:
        pools = list(_POOLS)
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)
