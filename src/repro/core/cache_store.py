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
      workload-<digest>.lock      its advisory write lock (contents unused)

where ``<digest>`` is the first 16 hex chars of the SHA-256 of the
workload signature's ``repr`` (deterministic across processes, unlike
``hash()``).  Each file holds::

    {
      "version": 2,
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
``(PlannerConfig, backend)`` pair, or of the backend alone for greedy
LPT, which reads no planner knob — because plan-cache entries are only
valid for the planner knobs that produced them; ``plan: null`` records
a shape proven infeasible.  Floats round-trip exactly through
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
  changing the backend or a knob the MILP reads (bucketing, limits)
  never replays plans from other knobs.
* Corrupted or partially written files (killed process, disk full) are
  *ignored, never fatal*: loads return ``None`` and the next
  :meth:`CacheStore.save` atomically replaces the file.

Concurrent writers (campaigns sharing one store) are safe: writes go
through a unique temp file plus ``os.replace``, and
:meth:`CacheStore.save` holds a per-workload advisory ``flock`` (on
``workload-<digest>.lock`` beside the data file) across its
read-merge-replace, so two writers persisting one workload union
their plan entries rather than clobbering each other (last writer wins
per shape).  Readers never need the lock — ``os.replace`` keeps every
observable file state a complete JSON document.  The kernel releases a
crashed holder's ``flock`` with its file descriptors, so a lock never
outlives its writer: a contended acquisition simply blocks until the
holder is done, and no lock file's bytes are ever read or written.

Lifecycle (eviction): the data files are the whole store.  A stat scan
gives every per-file fact eviction needs — ``last_used`` is the file's
mtime, which saves write and loads bump, and ``bytes`` is its size.
:meth:`CacheStore.prune` evicts files by age (``max_age_days``) and
then least-recently-used-first until the store fits
``max_store_bytes``.  A victim whose data file changed since the scan
(a concurrent writer's merge-save, a reader's mtime bump) is skipped —
re-checked under the same per-workload lock the writers hold, against
the mtime and size the scan observed rather than this process's wall
clock, so clock skew cannot defeat the guard.  An evicted workload
simply loads cold on the next miss.  The save path visits the
:mod:`repro.core.faults` injection point ``spill`` (a torn non-atomic
data write), so chaos tests can prove a torn file reads as cold.
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
from repro.core.plan_cache import INFEASIBLE, PlanCache, planner_knobs
from repro.core.planner import PlannerConfig
from repro.core.serialization import microbatch_from_dict, microbatch_to_dict
from repro.core.types import MicroBatchPlan
from repro.cost.model import CostCoefficients

__all__ = [
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
#: Version 2 keys greedy plan entries without planner knobs.
STORE_VERSION = 2

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
    """Digest of the planning context plan entries are scoped by (the
    knobs :func:`~repro.core.plan_cache.planner_knobs` keeps)."""
    knobs = planner_knobs(planner_config, backend)
    return hashlib.sha256(repr((knobs, backend)).encode()).hexdigest()[:16]


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

    ``files`` / ``bytes`` describe the data files on disk right now (a
    stat scan); ``hits`` / ``misses`` / ``writes`` / ``evictions``
    count what *this* :class:`CacheStore` instance did (loads served
    warm, loads served cold, data files actually written, files
    pruned).  The sweep layer takes per-pass deltas of these counters,
    so they are also the unit the campaign's write-amplification
    figure (writes / cells measured) is built from.
    """

    files: int = 0
    bytes: int = 0
    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    #: Contended lock acquisitions: how often a save (or a prune's
    #: victim check) had to block behind another holder of the same
    #: workload lock — the shared-store contention figure of
    #: concurrent campaigns.
    lock_waits: int = 0


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


@contextlib.contextmanager
def _locked(lock_path: pathlib.Path, on_wait=None):
    """Advisory exclusive ``flock`` on ``lock_path``.

    A non-blocking attempt first; on contention ``on_wait`` is called
    once (the store counts those as ``lock_waits``) and the caller
    blocks until the holder releases.  A holder that crashes releases
    with its last file descriptor, so there is no stale state to
    detect.  The lock file's bytes are never read or written.  On
    platforms without ``fcntl`` the lock degrades to a no-op —
    single-process use is still fully safe.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    with open(lock_path, "a") as lock:
        try:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            if on_wait is not None:
                on_wait()
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock.fileno(), fcntl.LOCK_UN)


def _atomic_write(path: pathlib.Path, payload: str) -> None:
    """Atomically replace ``path`` with ``payload``.

    A unique sibling temp file plus ``os.replace``, so every
    observable file state is a complete JSON document; the temp file
    is cleaned up on any failure.
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
        self._counters = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "evictions": 0,
            "lock_waits": 0,
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
        (best-effort) — an O(1) lock-free metadata op, and the file's
        ``last_used`` for eviction, so readers keep hot files out of
        LRU eviction's reach.  The bump also shields an in-use file
        from a concurrent prune's changed-since-observed re-check.
        """
        path = self._path(signature)
        state = self._load_state(path, signature)
        if state is None:
            self._count("misses")
            return None
        self._count("hits")
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
        Contended acquisitions bump the ``lock_waits`` counter.
        """
        return _locked(
            path.with_suffix(".lock"),
            on_wait=lambda: self._count("lock_waits"),
        )

    def save(self, signature: tuple, state: WorkloadState) -> None:
        """Persist ``state``, merging with what is already on disk.

        Scalars (cost model, tuner memos) prefer the new state when it
        has them; plan entries are unioned per context with the new
        entries winning per shape.  The read-merge-replace sequence
        runs under a per-workload file lock (concurrent writers union
        rather than clobber) and the write itself is atomic (unique
        temp file + ``os.replace``), so readers never observe partial
        JSON.  Each write counts toward this instance's ``writes``
        counter.
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
                # the data path *without* the atomic temp+replace and
                # the write is not counted — what a crash mid-write
                # leaves behind.  The store contract absorbs it: the
                # next load parses garbage, returns cold, and the next
                # save atomically replaces the wreck.
                with contextlib.suppress(OSError):
                    path.write_text(payload[: max(1, len(payload) // 2)])
                return
            _atomic_write(path, payload)
            self._count("writes")

    def signatures(self) -> list[str]:
        """Digests of every workload file currently in the store."""
        return sorted(
            p.stem.split("-", 1)[1] for p in self.root.glob("workload-*.json")
        )

    def _scan_files(self) -> dict[str, tuple[float, int]]:
        """``{name: (last_used, bytes)}`` of every data file: its
        mtime (written by saves, bumped by loads) and size, one stat
        each.  A file that vanishes mid-scan (a concurrent prune) is
        skipped."""
        files: dict[str, tuple[float, int]] = {}
        for path in self.root.glob("workload-*.json"):
            try:
                st = path.stat()
            except OSError:
                continue
            files[path.name] = (st.st_mtime, st.st_size)
        return files

    def scan(self) -> tuple[int, int]:
        """``(files, bytes)`` totals of the store's data files."""
        files = self._scan_files()
        return len(files), sum(size for __, size in files.values())

    def stats(self) -> StoreStats:
        """On-disk totals plus this instance's counters."""
        num_files, num_bytes = self.scan()
        return StoreStats(files=num_files, bytes=num_bytes, **self.counters())

    def prune(
        self,
        *,
        max_store_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
        dry_run: bool = False,
    ) -> PruneResult:
        """Evict workload files by age and least-recently-used order.

        Two passes over a stat scan of the data files, oldest
        ``last_used`` (mtime) first:

        1. with ``max_age_days``, every file last used more than that
           many days before ``now`` is a victim;
        2. with ``max_store_bytes``, further files are evicted
           LRU-first until the survivors' total size fits the cap.

        Concurrent writers and readers are protected by a re-check
        under the per-workload lock: a victim whose mtime or size no
        longer matches what the scan observed is left alone.  ``now``
        exists for deterministic tests; with ``dry_run`` the victims
        are computed but nothing is deleted.  An evicted signature
        simply loads cold on its next miss.
        """
        started = time.time() if now is None else now
        files = self._scan_files()
        order = sorted(files, key=lambda n: (files[n][0], n))
        victims: list[str] = []
        if max_age_days is not None:
            cutoff = started - max_age_days * 86400.0
            victims.extend(name for name in order if files[name][0] < cutoff)
        if max_store_bytes is not None:
            total = sum(size for __, size in files.values())
            total -= sum(files[name][1] for name in victims)
            for name in order:
                if total <= max_store_bytes:
                    break
                if name in victims:
                    continue
                victims.append(name)
                total -= files[name][1]
        evicted: list[str] = []
        gone: set[str] = set()
        freed = 0
        for name in victims:
            if dry_run:
                evicted.append(name)
                freed += files[name][1]
                continue
            path = self.root / name
            with self._write_lock(path):
                try:
                    st = path.stat()
                except OSError:
                    # Vanished before we acted (another pruner won the
                    # race): not this pass's eviction — reporting it
                    # would double-count the deletion across
                    # concurrent prunes — and not a survivor either.
                    gone.add(name)
                    continue
                if (st.st_mtime, st.st_size) != files[name]:
                    # Changed since the scan (a live writer's
                    # merge-save or a reader's mtime bump landed): not
                    # a victim anymore.  Compared against the file's
                    # own observed stat, not this process's wall
                    # clock, so clock skew between hosts (or a lagging
                    # filesystem timestamp) cannot let prune swallow a
                    # concurrent write.
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
            self._count("evictions")
            evicted.append(name)
            freed += st.st_size
        dropped = gone.union(evicted)
        kept = [name for name in files if name not in dropped]
        return PruneResult(
            evicted=tuple(evicted),
            bytes_freed=freed,
            files_kept=len(kept),
            bytes_kept=sum(files[name][1] for name in kept),
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
