"""Persistent cross-process cache store for per-workload solver state.

The sweep layer memoises expensive per-workload derivations — the
fitted cost model, the tuned baseline strategies, and FlexSP's
micro-batch plan cache — but only in process memory: a new process (a
CI re-run, the next figure regeneration) starts cold.  This module
spills that state to disk and restores it bit-identically, so
trajectories stay warm *across* processes.

On-disk layout (all JSON, under one root directory)::

    <root>/
      workload-<digest>.json      one file per workload signature

where ``<digest>`` is the first 16 hex chars of the SHA-256 of the
workload signature's ``repr`` (deterministic across processes, unlike
``hash()``).  Each file holds::

    {
      "version": 1,
      "signature": "<repr of the full workload signature>",
      "cost_model": {"coeffs": {...}, "comm_model": "alltoall"},
      "static_degree": 8,
      "megatron_strategy": [tp, cp, dp],
      "plans": {
        "<context digest>": [
          {"shape": [s1, s2, ...], "plan": {...} | null,
           "predicted": float | null},
          ...
        ]
      }
    }

``plans`` is keyed by the *planning context* — a digest of the
``(PlannerConfig, backend)`` pair — because plan-cache entries are only
valid for the exact planner knobs that produced them; ``plan: null``
records a shape proven infeasible.  Floats round-trip exactly through
JSON (shortest-repr doubles), so a restored cost model, plan, and
predicted time are bit-identical to what was spilled.

Invalidation rules:

* The file embeds the **full** workload signature; a digest collision
  or a stale file from a changed :class:`~repro.experiments.workloads.
  Workload` schema fails the signature comparison and loads as cold.
* :data:`STORE_VERSION` gates the whole format — bump it whenever the
  profiler, planner, or serialization semantics change in a way that
  would make restored state disagree with freshly computed state, and
  every existing store silently becomes cold.
* Plan entries are additionally scoped by the context digest, so
  changing solver knobs (backend, bucketing, trials, limits) never
  replays plans from other knobs.
* Corrupted or partially written files (killed process, disk full) are
  *ignored, never fatal*: loads return ``None`` and the next
  :meth:`CacheStore.save` atomically replaces the file.

Concurrent writers (campaigns sharing one store) are safe: writes go
through a unique temp file plus ``os.replace``, and
:meth:`CacheStore.save` holds a per-workload advisory file lock across
its read-merge-replace so two writers persisting one workload union
their plan entries rather than clobbering each other (last writer wins
per shape).  Readers never need the lock — ``os.replace`` keeps every
observable file state a complete JSON document.

Lifecycle (eviction): next to the data files lives a **store
manifest** (``store-manifest.json``) with per-file accounting —
``last_used`` (bumped by both loads and saves), ``entry_count`` and
``bytes`` — maintained best-effort under its own advisory lock and
fully reconciled against the directory on every :meth:`CacheStore.
prune` / :meth:`CacheStore.stats` (a corrupt or stale manifest is
rebuilt from a scan, never trusted blindly and never fatal).
:meth:`CacheStore.prune` evicts files by age (``max_age_days``) and
then least-recently-used-first until the store fits
``max_store_bytes``.  Two guards keep pruning safe against running
campaigns:

* files this :class:`CacheStore` instance has itself saved or loaded
  (its *working set*) are never evicted by its own ``prune`` unless
  ``protect_touched=False``, and
* a victim whose data file changed since the pass observed it (a
  concurrent writer's merge-save) is skipped — re-checked under the
  same per-workload lock the writers hold, against the file's own
  recorded mtime/size rather than this process's wall clock, so clock
  skew cannot defeat the guard.

An evicted workload simply loads cold on the next miss.  Lock files
are left in place in normal operation, but acquisition is **bounded**:
a writer that cannot take the lock immediately polls with a dead-pid
probe against the recorded holder, safely *breaks* a lock whose
holder crashed (unlink + fresh acquire, counted as ``lock_breaks``),
and only falls back to an honest blocking wait when the holder is
demonstrably alive or unidentifiable.  Because breaking recreates the
lock file, every acquisition re-verifies that the inode it locked is
still the inode on disk and retries otherwise — two writers can never
both hold "the" lock.  The write paths also visit the
:mod:`repro.core.faults` injection points ``spill`` (torn non-atomic
data write), ``lock`` and ``prune`` (a lock file stamped with a dead
holder), so chaos tests can prove all of the above actually fires.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any

try:  # pragma: no cover - import guard
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.core import faults
from repro.core.plan_cache import INFEASIBLE, PlanCache
from repro.core.planner import PlannerConfig
from repro.core.serialization import microbatch_from_dict, microbatch_to_dict
from repro.core.types import MicroBatchPlan
from repro.cost.model import CostCoefficients

__all__ = [
    "MANIFEST_NAME",
    "STORE_VERSION",
    "CacheStore",
    "PlanEntry",
    "PruneResult",
    "StoreStats",
    "WorkloadState",
    "context_digest",
    "entries_from_cache",
    "preload_cache",
    "signature_digest",
]

#: Format tag of the store layout; bump to invalidate every store.
STORE_VERSION = 1

#: Name of the per-store accounting manifest (lives inside the root).
MANIFEST_NAME = "store-manifest.json"

#: One spilled plan-cache entry: canonical (sorted) micro-batch shape,
#: the memoised plan (None = proven infeasible) and its predicted
#: makespan seconds (None for infeasible entries).
PlanEntry = tuple[tuple[int, ...], MicroBatchPlan | None, float | None]


def signature_digest(signature: tuple) -> str:
    """Deterministic short digest of a workload signature.

    ``repr`` of the signature tuple (frozen dataclasses all the way
    down) is stable across processes; ``hash()`` is not (string
    hashing is salted per process).
    """
    return hashlib.sha256(repr(signature).encode()).hexdigest()[:16]


def context_digest(planner_config: PlannerConfig, backend: str) -> str:
    """Digest of the planning context plan entries are scoped by."""
    return hashlib.sha256(repr((planner_config, backend)).encode()).hexdigest()[:16]


@dataclass
class WorkloadState:
    """Everything the store holds for one workload signature.

    Attributes:
        signature: ``repr`` of the full workload signature (collision
            and staleness guard — compared verbatim on load).
        coeffs: Fitted cost-model coefficients, if spilled.
        comm_model: The fit's communication flavour.
        static_degree: DeepSpeed's tuned static SP degree, if tuned.
        megatron_strategy: Megatron's tuned ``(tp, cp, dp)``, if tuned.
        plans: Plan-cache entries per planning-context digest.
    """

    signature: str
    coeffs: CostCoefficients | None = None
    comm_model: str | None = None
    static_degree: int | None = None
    megatron_strategy: tuple[int, int, int] | None = None
    plans: dict[str, list[PlanEntry]] = field(default_factory=dict)


def entries_from_cache(cache: PlanCache) -> list[PlanEntry]:
    """Convert a :meth:`PlanCache.snapshot` into spillable entries.

    The cache key's context half is dropped — the caller scopes the
    entries under the matching :func:`context_digest` instead.
    """
    entries: list[PlanEntry] = []
    for (shape, _context), entry in cache.snapshot():
        if entry is INFEASIBLE:
            entries.append((tuple(shape), None, None))
        else:
            plan, predicted = entry
            entries.append((tuple(shape), plan, predicted))
    return entries


def preload_cache(
    cache: PlanCache, entries: list[PlanEntry], context: object
) -> None:
    """Replay spilled entries into a live cache under ``context``.

    ``context`` must be the :class:`~repro.core.plan_cache.
    CacheContext` of the solver that will consume the cache, so the
    reconstructed keys equal the ones its hot path builds.
    """
    for shape, plan, predicted in entries:
        cache.store((tuple(shape), context), plan, predicted)


def _entry_to_dict(entry: PlanEntry) -> dict[str, Any]:
    shape, plan, predicted = entry
    return {
        "shape": list(shape),
        "plan": None if plan is None else microbatch_to_dict(plan),
        "predicted": predicted,
    }


def _entry_from_dict(payload: dict[str, Any]) -> PlanEntry:
    plan = payload["plan"]
    return (
        tuple(int(s) for s in payload["shape"]),
        None if plan is None else microbatch_from_dict(plan),
        payload["predicted"],
    )


def _state_to_dict(state: WorkloadState) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "version": STORE_VERSION,
        "signature": state.signature,
        "cost_model": None,
        "static_degree": state.static_degree,
        "megatron_strategy": (
            None
            if state.megatron_strategy is None
            else list(state.megatron_strategy)
        ),
        "plans": {
            context: [_entry_to_dict(e) for e in entries]
            for context, entries in state.plans.items()
        },
    }
    if state.coeffs is not None:
        payload["cost_model"] = {
            "coeffs": dataclasses.asdict(state.coeffs),
            "comm_model": state.comm_model,
        }
    return payload


def _state_from_dict(payload: dict[str, Any]) -> WorkloadState:
    if not isinstance(payload, dict):
        # Valid JSON of the wrong shape (an array, a string): as
        # corrupt as garbage bytes, and reported the same way.
        raise ValueError(f"store payload is not an object: {type(payload)}")
    if payload.get("version") != STORE_VERSION:
        raise ValueError(f"unsupported store version {payload.get('version')!r}")
    cost_model = payload.get("cost_model")
    coeffs = comm_model = None
    if cost_model is not None:
        coeffs = CostCoefficients(**cost_model["coeffs"])
        comm_model = cost_model["comm_model"]
    strategy = payload.get("megatron_strategy")
    return WorkloadState(
        signature=payload["signature"],
        coeffs=coeffs,
        comm_model=comm_model,
        static_degree=payload.get("static_degree"),
        megatron_strategy=None if strategy is None else tuple(strategy),
        plans={
            context: [_entry_from_dict(e) for e in entries]
            for context, entries in payload.get("plans", {}).items()
        },
    )


@dataclass(frozen=True)
class StoreStats:
    """One store's accounting snapshot plus this process's counters.

    ``files`` / ``bytes`` / ``entries`` describe what is on disk right
    now (reconciled manifest); ``hits`` / ``misses`` / ``writes`` /
    ``evictions`` count what *this* :class:`CacheStore` instance did
    (loads served warm, loads served cold, data files actually
    written, files pruned).  The sweep layer takes per-pass deltas of
    these counters, so they are also the unit the campaign's
    write-amplification figure (writes / cells measured) is built
    from.
    """

    files: int = 0
    bytes: int = 0
    entries: int = 0
    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    #: Contended lock acquisitions: how often a save had to block
    #: behind another process's merge of the same workload file — the
    #: shared-store contention figure of concurrent campaigns.
    lock_waits: int = 0
    #: Stale locks safely broken: contended acquisitions whose
    #: recorded holder pid turned out to be dead (a crashed writer) —
    #: the lock file was unlinked and re-acquired instead of blocking
    #: forever.  The chaos benchmark's stale-lock recovery figure.
    lock_breaks: int = 0


@dataclass(frozen=True)
class PruneResult:
    """Outcome of one :meth:`CacheStore.prune` pass.

    ``evicted`` lists the pruned data-file names in eviction order;
    with ``dry_run`` nothing was deleted and the list is what *would*
    have been evicted.  ``bytes_freed`` is accounted from the victims'
    sizes; ``files_kept`` / ``bytes_kept`` describe the surviving
    store.
    """

    evicted: tuple[str, ...]
    bytes_freed: int
    files_kept: int
    bytes_kept: int
    dry_run: bool = False


def _entry_count(state: WorkloadState) -> int:
    """How many restorable entries a state holds (plan entries plus
    each present scalar memo) — the manifest's ``entry_count``."""
    return (
        sum(len(entries) for entries in state.plans.values())
        + (state.coeffs is not None)
        + (state.static_degree is not None)
        + (state.megatron_strategy is not None)
    )


#: How long a contended lock acquisition probes before giving up and
#: blocking honestly behind a live (or unidentifiable) holder, and how
#: often it polls.  Module-level so tests can monkeypatch the bound.
LOCK_TIMEOUT_SECONDS = 10.0
LOCK_POLL_SECONDS = 0.05


def _same_inode(lock, lock_path: pathlib.Path) -> bool:
    """Is the fd's inode still the lock file on disk?

    Breaking a stale lock unlinks and recreates the path, so a waiter
    holding an fd on the *old* inode would otherwise "acquire" a lock
    nobody else can see.  Every successful acquisition re-verifies
    identity and retries on a fresh open when it fails.
    """
    try:
        return os.fstat(lock.fileno()).st_ino == os.stat(lock_path).st_ino
    except OSError:
        return False


def _stamp_holder(lock) -> None:
    """Record our pid in the held lock file (best-effort) so waiters
    can probe whether the holder is still alive."""
    with contextlib.suppress(OSError, ValueError):
        lock.seek(0)
        lock.truncate()
        lock.write(str(os.getpid()))
        lock.flush()


def _holder_pid(lock) -> int | None:
    """The pid recorded in the lock file, or None when absent/garbled
    (an unidentifiable holder is conservatively treated as alive)."""
    try:
        lock.seek(0)
        text = lock.read(32).strip()
    except (OSError, ValueError):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    """Signal-0 probe; EPERM means alive-but-not-ours."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):  # EPERM etc.: assume alive
        return True
    return True


def _break_lock(lock_path: pathlib.Path):
    """Break a lock whose recorded holder is dead: unlink the stale
    file and acquire a fresh one.  Returns the held file object, or
    None when another waiter won the race (the caller re-loops)."""
    with contextlib.suppress(OSError):
        os.unlink(lock_path)
    try:
        fresh = open(lock_path, "a+")
    except OSError:
        return None
    try:
        fcntl.flock(fresh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        fresh.close()
        return None
    if not _same_inode(fresh, lock_path):
        with contextlib.suppress(OSError):
            fcntl.flock(fresh.fileno(), fcntl.LOCK_UN)
        fresh.close()
        return None
    _stamp_holder(fresh)
    return fresh


def _acquire_lock(
    lock_path: pathlib.Path, on_wait, on_break, timeout, force_probe
):
    """Acquire the advisory lock with bounded waiting; returns the
    held (and pid-stamped) file object.  See :func:`_locked`."""
    notified = False
    while True:
        lock = open(lock_path, "a+")
        acquired = False
        if force_probe:
            # Injection support: skip the fast path once so the
            # planted stale-holder file is actually probed.
            force_probe = False
        else:
            with contextlib.suppress(OSError):
                fcntl.flock(lock.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                acquired = True
        if not acquired:
            if not notified:
                notified = True
                if on_wait is not None:
                    on_wait()
            deadline = time.monotonic() + timeout
            while not acquired:
                pid = _holder_pid(lock)
                if (
                    pid is not None
                    and pid != os.getpid()
                    and not _pid_alive(pid)
                ):
                    lock.close()
                    fresh = _break_lock(lock_path)
                    if fresh is None:
                        break  # lost the breaking race; reopen and retry
                    if on_break is not None:
                        on_break()
                    return fresh
                if time.monotonic() >= deadline:
                    # Live (or unidentifiable) holder past the bound:
                    # block honestly, exactly as before the bound
                    # existed.  Never steal from a live writer.
                    fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
                    acquired = True
                    break
                time.sleep(LOCK_POLL_SECONDS)
                with contextlib.suppress(OSError):
                    fcntl.flock(
                        lock.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB
                    )
                    acquired = True
        if acquired:
            if _same_inode(lock, lock_path):
                _stamp_holder(lock)
                return lock
            # The inode under our flock was broken away (unlinked and
            # recreated) while we waited: release and retry on the
            # live file.
            with contextlib.suppress(OSError):
                fcntl.flock(lock.fileno(), fcntl.LOCK_UN)
        lock.close()


@contextlib.contextmanager
def _locked(
    lock_path: pathlib.Path,
    on_wait=None,
    on_break=None,
    timeout: float | None = None,
    force_probe: bool = False,
):
    """Advisory exclusive flock on ``lock_path``, with bounded waiting
    and stale-lock breaking.

    The single definition of the store's locking idiom (per-workload
    write locks and the manifest lock both use it).  On platforms
    without ``fcntl`` the lock degrades to a no-op — single-process
    use is still fully safe.

    Acquisition: a non-blocking attempt first; on contention the
    waiter polls (every :data:`LOCK_POLL_SECONDS`) for up to
    ``timeout`` seconds (default :data:`LOCK_TIMEOUT_SECONDS`),
    probing the pid the holder stamped into the lock file.  A dead
    holder — a writer that crashed between acquiring and releasing —
    gets its lock *broken*: the stale file is unlinked and a fresh one
    acquired, so one crash never wedges every future writer.  A live
    or unidentifiable holder is never stolen from: past the bound the
    waiter simply blocks, as it always did.  Because breaking swaps
    the inode under concurrent waiters, every successful acquisition
    verifies fd-inode identity against the path and retries on a
    mismatch — mutual exclusion holds through a break.

    ``on_wait`` is called (once) when the lock is contended; the store
    counts those as ``lock_waits``.  ``on_break`` is called for each
    stale lock broken (``lock_breaks``).  ``force_probe`` skips the
    initial fast path once so an injected stale-holder file is
    actually examined (the ``stale_lock`` fault realisation).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    lock = _acquire_lock(
        lock_path,
        on_wait,
        on_break,
        LOCK_TIMEOUT_SECONDS if timeout is None else timeout,
        force_probe,
    )
    try:
        yield
    finally:
        try:
            with contextlib.suppress(OSError):
                fcntl.flock(lock.fileno(), fcntl.LOCK_UN)
        finally:
            lock.close()


def _atomic_write(path: pathlib.Path, payload: str) -> None:
    """Atomically replace ``path`` with ``payload``.

    The single definition of the store's write idiom (data files and
    the manifest both use it): a unique sibling temp file plus
    ``os.replace``, so every observable file state is a complete JSON
    document; the temp file is cleaned up on any failure.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CacheStore:
    """File-backed store of per-workload solver state.

    Args:
        root: Directory holding the store; created if missing.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Data-file names this instance saved or loaded — the running
        #: campaign's working set, protected from its own prune.
        self._touched: set[str] = set()
        self._counters = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "evictions": 0,
            "lock_waits": 0,
            "lock_breaks": 0,
        }
        # Counter increments are read-modify-write; the plan service's
        # request threads share one store instance (read-mostly:
        # concurrent load() is safe — atomic os.replace keeps every
        # observable file a complete document — and save() serialises
        # on the per-workload file lock), so the accounting needs its
        # own guard to stay exact under threads.
        self._counters_lock = threading.Lock()

    def _count(self, key: str, delta: int = 1) -> None:
        with self._counters_lock:
            self._counters[key] += delta

    def _path(self, signature: tuple) -> pathlib.Path:
        return self.root / f"workload-{signature_digest(signature)}.json"

    def counters(self) -> dict[str, int]:
        """Copy of this instance's hit/miss/write/eviction counters."""
        with self._counters_lock:
            return dict(self._counters)

    def load(self, signature: tuple) -> WorkloadState | None:
        """The spilled state for ``signature``, or None.

        None covers every cold case uniformly: no file yet, a corrupt
        or truncated file, an incompatible :data:`STORE_VERSION`, or a
        digest collision / stale schema (embedded signature mismatch).
        A served load counts as a hit and bumps the data file's mtime
        (best-effort) — an O(1) lock-free metadata op the reconciled
        manifest honours as ``last_used`` (it takes the max of the
        recorded value and the mtime), so readers keep hot files out
        of LRU eviction's reach without paying a manifest rewrite
        under the store-wide lock on every warm restore.  The bump
        also shields an in-use file from a concurrent prune's
        changed-since-observed re-check.
        """
        path = self._path(signature)
        state = self._load_state(path, signature)
        if state is None:
            self._count("misses")
            return None
        self._count("hits")
        self._touched.add(path.name)
        with contextlib.suppress(OSError):
            os.utime(path)
        return state

    def _load_state(
        self, path: pathlib.Path, signature: tuple
    ) -> WorkloadState | None:
        """Uncounted load (shared by :meth:`load` and save's merge)."""
        state = self._read(path)
        if state is None or state.signature != repr(signature):
            return None
        return state

    def _read(self, path: pathlib.Path) -> WorkloadState | None:
        try:
            text = path.read_text()
        except (OSError, ValueError):  # missing, unreadable, or not UTF-8
            return None
        try:
            return _state_from_dict(json.loads(text))
        except (ValueError, KeyError, TypeError):
            # Corrupted, truncated, foreign, or out-of-version file:
            # treat as cold; the next save() replaces it atomically.
            return None

    def _write_lock(self, path: pathlib.Path):
        """Advisory per-workload lock serialising read-merge-replace.

        Without it, two workers could both read state v0, each merge
        only its own entries, and the second ``os.replace`` would
        discard the first's.  Lock files live beside the data files.
        Contended acquisitions bump the ``lock_waits`` counter; stale
        locks broken on the way in bump ``lock_breaks``.

        This is the ``lock`` injection point: a ``stale_lock`` fault
        plants a dead holder pid in the lock file and forces the probe
        path, proving the breaking machinery end to end.
        """
        lock_path = path.with_suffix(".lock")
        force_probe = False
        if faults.maybe_inject("lock") == "stale_lock":
            force_probe = self._plant_stale_lock(lock_path)
        return _locked(
            lock_path,
            on_wait=self._count_wait,
            on_break=self._count_break,
            force_probe=force_probe,
        )

    def _plant_stale_lock(self, lock_path: pathlib.Path) -> bool:
        """Realise a ``stale_lock`` fault: stamp a dead pid into the
        lock file, exactly what a writer crashing between acquire and
        release leaves behind (the kernel drops the flock with the
        process; only the stamped pid persists)."""
        try:
            lock_path.write_text(str(faults.dead_pid()))
        except OSError:  # pragma: no cover - injection best-effort
            return False
        return True

    def _count_wait(self) -> None:
        self._count("lock_waits")

    def _count_break(self) -> None:
        self._count("lock_breaks")

    def save(self, signature: tuple, state: WorkloadState) -> None:
        """Persist ``state``, merging with what is already on disk.

        Scalars (cost model, tuner memos) prefer the new state when it
        has them; plan entries are unioned per context with the new
        entries winning per shape.  The read-merge-replace sequence
        runs under a per-workload file lock (concurrent writers union
        rather than clobber) and the write itself is atomic (unique
        temp file + ``os.replace``), so readers never observe partial
        JSON.  Each write also refreshes the file's manifest
        accounting (``last_used`` / ``entry_count`` / ``bytes``) and
        counts toward this instance's ``writes`` counter.
        """
        if state.signature != repr(signature):
            raise ValueError(
                "state.signature does not match the signature it is "
                "being saved under"
            )
        path = self._path(signature)
        with self._write_lock(path):
            existing = self._load_state(path, signature)
            if existing is not None:
                state = _merged(existing, state)
            payload = json.dumps(_state_to_dict(state), separators=(",", ":"))
            if faults.maybe_inject("spill") == "torn_write":
                # Realise a torn write: a truncated payload lands at
                # the data path *without* the atomic temp+replace, the
                # write is not counted and the manifest not updated —
                # what a crash mid-write leaves behind.  The store
                # contract absorbs it: the next load parses garbage,
                # returns cold, and the next save atomically replaces
                # the wreck.
                with contextlib.suppress(OSError):
                    path.write_text(payload[: max(1, len(payload) // 2)])
                    self._touched.add(path.name)
                return
            _atomic_write(path, payload)
            self._count("writes")
            self._touched.add(path.name)
            self._update_manifest(
                path.name,
                last_used=time.time(),
                entry_count=_entry_count(state),
                size=len(payload),
            )

    def signatures(self) -> list[str]:
        """Digests of every workload file currently in the store."""
        return sorted(
            p.stem.split("-", 1)[1] for p in self.root.glob("workload-*.json")
        )

    # -- manifest accounting ------------------------------------------------

    @property
    def _manifest_path(self) -> pathlib.Path:
        return self.root / MANIFEST_NAME

    def _manifest_lock(self, force_probe: bool = False):
        """Advisory lock serialising manifest read-modify-write.

        Always acquired *after* a per-workload file lock when both are
        held (save, prune), so the two lock levels cannot deadlock.
        Stale manifest locks are broken like workload locks (and
        counted); ``force_probe`` serves the ``prune`` injection.
        """
        return _locked(
            self.root / "store-manifest.lock",
            on_wait=self._count_wait,
            on_break=self._count_break,
            force_probe=force_probe,
        )

    def _read_manifest(self) -> dict[str, dict] | None:
        """The manifest's file table, or None when corrupt/missing.

        Validated field by field — a manifest is plain accounting that
        can always be rebuilt from a directory scan, so anything
        malformed (garbage bytes, truncation, foreign schema, wrong
        version) reads as "no manifest", never as an error.
        """
        try:
            payload = json.loads(self._manifest_path.read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != STORE_VERSION
            or not isinstance(payload.get("files"), dict)
        ):
            return None
        files: dict[str, dict] = {}
        for name, entry in payload["files"].items():
            if not isinstance(name, str) or not isinstance(entry, dict):
                return None
            try:
                files[name] = {
                    "last_used": float(entry["last_used"]),
                    "entry_count": int(entry["entry_count"]),
                    "bytes": int(entry["bytes"]),
                }
            except (KeyError, TypeError, ValueError):
                return None
        return files

    def _write_manifest(self, files: dict[str, dict]) -> None:
        """Atomically replace the manifest (same temp-file dance as the
        data files, so readers never observe partial JSON)."""
        _atomic_write(
            self._manifest_path,
            json.dumps(
                {"version": STORE_VERSION, "files": files},
                separators=(",", ":"),
                sort_keys=True,
            ),
        )

    def _update_manifest(
        self, name: str, *, last_used: float, entry_count: int, size: int
    ) -> None:
        """Record a save in the manifest (best-effort: accounting must
        never fail a data write — a lost update is reconciled by the
        next prune/stats scan)."""
        try:
            with self._manifest_lock():
                files = self._read_manifest() or {}
                files[name] = {
                    "last_used": last_used,
                    "entry_count": entry_count,
                    "bytes": size,
                }
                self._write_manifest(files)
        except OSError:  # pragma: no cover - disk full / permissions
            pass

    def _touch_manifest(self, name: str, when: float | None = None) -> None:
        """Bump ``name``'s ``last_used`` (best-effort, loads/touches)."""
        try:
            with self._manifest_lock():
                files = self._read_manifest() or {}
                if name in files:
                    files[name]["last_used"] = (
                        time.time() if when is None else when
                    )
                    self._write_manifest(files)
        except OSError:  # pragma: no cover - disk full / permissions
            pass

    def touch(self, signature: tuple, when: float | None = None) -> None:
        """Record a use of ``signature``'s file at ``when`` (default
        now).

        With an explicit ``when`` the data file's mtime is rewound too,
        so age-based pruning sees the backdated time through both the
        manifest and the reconciliation scan (the eviction property
        tests drive the clock through this).
        """
        path = self._path(signature)
        if when is not None:
            with contextlib.suppress(OSError):
                os.utime(path, (when, when))
        self._touch_manifest(path.name, when)

    def _reconciled_files(self) -> dict[str, dict]:
        """Manifest entries reconciled against the directory.

        The manifest is best-effort, so the directory is the source of
        truth for existence and size: entries for vanished files are
        dropped, files the manifest missed are adopted (their
        ``last_used`` falls back to mtime), and ``last_used`` is the
        max of the recorded value and the file's mtime so a writer
        whose manifest update was lost still reads as fresh.
        """
        recorded = self._read_manifest() or {}
        files: dict[str, dict] = {}
        for path in sorted(self.root.glob("workload-*.json")):
            try:
                st = path.stat()
            except OSError:
                continue
            entry = recorded.get(path.name)
            if entry is None:
                state = self._read(path)
                files[path.name] = {
                    "last_used": st.st_mtime,
                    "entry_count": 0 if state is None else _entry_count(state),
                    "bytes": st.st_size,
                }
            else:
                files[path.name] = {
                    "last_used": max(entry["last_used"], st.st_mtime),
                    "entry_count": entry["entry_count"],
                    "bytes": st.st_size,
                }
        return files

    def scan(self) -> tuple[int, int, int]:
        """Reconciled ``(files, bytes, entries)`` totals of the store."""
        files = self._reconciled_files()
        return (
            len(files),
            sum(entry["bytes"] for entry in files.values()),
            sum(entry["entry_count"] for entry in files.values()),
        )

    def stats(self) -> StoreStats:
        """On-disk totals plus this instance's counters."""
        num_files, num_bytes, num_entries = self.scan()
        return StoreStats(
            files=num_files,
            bytes=num_bytes,
            entries=num_entries,
            **self.counters(),
        )

    def prune(
        self,
        *,
        max_store_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
        protect_touched: bool = True,
        dry_run: bool = False,
    ) -> PruneResult:
        """Evict workload files by age and least-recently-used order.

        Two passes over the reconciled manifest, oldest ``last_used``
        first:

        1. with ``max_age_days``, every file last used more than that
           many days before ``now`` is a victim;
        2. with ``max_store_bytes``, further files are evicted
           LRU-first until the survivors' total size fits the cap.

        Files in this instance's working set (saved or loaded here)
        are skipped while ``protect_touched`` holds, so a prune issued
        mid-campaign can never evict an entry the campaign just wrote;
        cross-process writers are protected by a re-check under the
        per-workload lock — a victim whose mtime or size no longer
        matches what this pass observed is left alone.  ``now`` exists
        for deterministic tests; with ``dry_run`` the victims are
        computed but nothing is deleted.  An evicted signature simply
        loads cold on its next miss.
        """
        started = time.time() if now is None else now
        force_probe = False
        if faults.maybe_inject("prune") == "stale_lock":
            # The ``prune`` injection point: the lifecycle pass finds
            # the manifest lock orphaned by a crashed writer and must
            # break it rather than wedge.
            force_probe = self._plant_stale_lock(
                self.root / "store-manifest.lock"
            )
        with self._manifest_lock(force_probe=force_probe):
            files = self._reconciled_files()
            if not dry_run:
                self._write_manifest(files)
        protected = set(self._touched) if protect_touched else set()
        order = sorted(files, key=lambda n: (files[n]["last_used"], n))
        victims: list[str] = []
        if max_age_days is not None:
            cutoff = started - max_age_days * 86400.0
            victims.extend(
                name
                for name in order
                if files[name]["last_used"] < cutoff and name not in protected
            )
        if max_store_bytes is not None:
            total = sum(entry["bytes"] for entry in files.values())
            total -= sum(files[name]["bytes"] for name in victims)
            for name in order:
                if total <= max_store_bytes:
                    break
                if name in victims or name in protected:
                    continue
                victims.append(name)
                total -= files[name]["bytes"]
        evicted: list[str] = []
        gone: set[str] = set()
        freed = 0
        for name in victims:
            if dry_run:
                evicted.append(name)
                freed += files[name]["bytes"]
                continue
            path = self.root / name
            removed = False
            with self._write_lock(path):
                try:
                    st = path.stat()
                except OSError:
                    st = None  # already gone; still drop the accounting
                if st is not None:
                    if (
                        st.st_mtime > files[name]["last_used"]
                        or st.st_size != files[name]["bytes"]
                    ):
                        # Changed since the pass observed it (a live
                        # writer's merge-save landed): not a victim
                        # anymore.  Compared against the file's own
                        # reconciled accounting, not this process's
                        # wall clock, so clock skew between hosts (or
                        # a lagging filesystem timestamp) cannot let
                        # prune swallow a concurrent write.
                        continue
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    removed = True
                    freed += st.st_size
                with self._manifest_lock():
                    recorded = self._read_manifest()
                    if recorded is not None and name in recorded:
                        del recorded[name]
                        self._write_manifest(recorded)
            if removed:
                self._count("evictions")
                evicted.append(name)
            elif st is None:
                # Vanished before we acted (another pruner won the
                # race): its stale accounting was dropped above, but it
                # is NOT this pass's eviction — reporting it would
                # double-count the deletion across concurrent prunes —
                # and it is not a survivor either.
                gone.add(name)
        kept = [
            name for name in files if name not in gone and name not in evicted
        ]
        return PruneResult(
            evicted=tuple(evicted),
            bytes_freed=freed,
            files_kept=len(kept),
            bytes_kept=sum(files[name]["bytes"] for name in kept),
            dry_run=dry_run,
        )


def _merged(existing: WorkloadState, new: WorkloadState) -> WorkloadState:
    """Union of two states for the same signature (new wins per field
    and per plan shape)."""
    plans: dict[str, list[PlanEntry]] = {}
    for source in (existing, new):
        for context, entries in source.plans.items():
            by_shape = {e[0]: e for e in plans.get(context, [])}
            for entry in entries:
                by_shape[entry[0]] = entry
            plans[context] = list(by_shape.values())
    return WorkloadState(
        signature=new.signature,
        coeffs=new.coeffs if new.coeffs is not None else existing.coeffs,
        comm_model=(
            new.comm_model if new.coeffs is not None else existing.comm_model
        ),
        static_degree=(
            new.static_degree
            if new.static_degree is not None
            else existing.static_degree
        ),
        megatron_strategy=(
            new.megatron_strategy
            if new.megatron_strategy is not None
            else existing.megatron_strategy
        ),
        plans=plans,
    )
