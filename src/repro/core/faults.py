"""Deterministic fault-injection plane for chaos-testing campaigns.

A training/inference campaign that serves real traffic must survive
its own infrastructure: a planner worker dying mid-batch, a
cache-store write torn by a crash, a connection reset mid-frame.  This
module lets tests and benchmarks *make those things happen on
purpose*, deterministically, so the recovery machinery in
:mod:`repro.core.solver` (the solver pool's rebuild-and-resume),
:mod:`repro.core.cache_store` and :mod:`repro.service.transport` is
exercised by CI instead of waiting for production to exercise it.

Model:

* **Injection points** are named sites the production code visits via
  :func:`maybe_inject` — ``plan`` (solver-pool worker task),
  ``spawn`` (solver-pool worker initialisation), ``spill``
  (cache-store save), plus the plan-transport network sites
  ``accept`` (the TCP listener admitting a connection), ``handshake``
  (the version/signature exchange), ``recv`` (reading a request frame)
  and ``send`` (writing a response frame) — all visited server-side
  by :mod:`repro.service.transport`.  When no schedule is armed, a
  visit is one module-global read and a ``None`` check — zero
  overhead on the hot path.
* A **fault spec** is ``kind@site[:occurrence]``: ``worker_kill@plan``
  (die on the first planner task), ``torn_write@spill:2`` (tear the
  third save), or ``delay@recv:*`` (stall *every* request read).
  Kinds: ``worker_kill`` (``os._exit`` on the spot), ``torn_write``
  (realised by the cache store itself — a truncated non-atomic data
  write), and the network kinds realised by the plan transport:
  ``conn_reset`` (the connection is aborted with an RST at the
  site), ``torn_frame`` (half a length-prefixed frame is written,
  then the connection reset), ``delay`` (the site stalls
  :data:`DELAY_SECONDS` — a slow peer), ``drop_response`` (the
  response is solved, recorded, and silently never sent — the client
  must retry and re-attach).  :data:`NETWORK_FAULT_MENU` lists the
  network pairs the transport's chaos benchmark sweeps.
* A :class:`FaultSchedule` groups specs with a seed and a **record
  ledger** — an append-only file, shared by every process the
  schedule reaches (the solver pool's initializer ships it to
  workers).  Each firing is appended *before* the fault is realised,
  so a worker that ``os._exit``\\ s still leaves an exact record;
  integer-occurrence specs are gated through the ledger to fire
  **once globally** (otherwise ``worker_kill@plan:0`` would kill
  every restarted worker forever and recovery could never converge),
  while ``*`` specs fire on every visit in every process.

The contract the injection plane exists to verify is the repo-wide
bit-identity invariant: **any survivable fault schedule yields
campaign results bit-identical to the fault-free serial pass** —
faults and the recovery they trigger move *where and when* plans are
computed, never what they are.  :class:`FaultStats` is the report
card (surfaced on :class:`~repro.experiments.sweep.SweepResult` and
as the campaign CLI's ``faults:`` line).
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import random
import tempfile
import threading
import weakref
from dataclasses import dataclass

try:  # pragma: no cover - import guard
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = [
    "DELAY_SECONDS",
    "FAULT_KINDS",
    "INJECTION_SITES",
    "NETWORK_FAULT_MENU",
    "RANDOM_FAULT_MENU",
    "FaultSchedule",
    "FaultSpec",
    "FaultStats",
    "arm",
    "active_schedule",
    "armed",
    "disarm",
    "maybe_inject",
]

#: Fault kinds a spec may request.
FAULT_KINDS = (
    "worker_kill",
    "torn_write",
    "conn_reset",
    "torn_frame",
    "delay",
    "drop_response",
)

#: Registered injection-point names (see the module docstring).
INJECTION_SITES = (
    "spill",
    "plan",
    "spawn",
    "accept",
    "handshake",
    "recv",
    "send",
)

#: The (kind, site) pairs a seeded random schedule draws from — every
#: combination has a visitor in a campaign and is survivable: the
#: solver pool rebuilds after a dead worker and resubmits only the
#: shapes still missing, and the cache store reads a torn file as
#: cold.  (Killing the campaign's own process is not a fault to
#: recover from, so no kill targets a parent-side site.)
RANDOM_FAULT_MENU = (
    ("worker_kill", "spawn"),
    ("worker_kill", "plan"),
    ("torn_write", "spill"),
)

#: The network (kind, site) pairs the plan-transport chaos benchmark
#: (``benchmarks/test_bench_service_net.py``) sweeps — every
#: combination is absorbed by the
#: :class:`~repro.service.transport.PlanClient` deadline/retry/backoff
#: ladder without degrading to an in-process service, and every kind
#: but ``delay`` costs a retry.  Kept separate from
#: :data:`RANDOM_FAULT_MENU`: a campaign never visits these sites, so
#: drawing them there would produce schedules that cannot fire.
NETWORK_FAULT_MENU = (
    ("conn_reset", "accept"),
    ("conn_reset", "handshake"),
    ("conn_reset", "recv"),
    ("conn_reset", "send"),
    ("torn_frame", "handshake"),
    ("torn_frame", "send"),
    ("delay", "accept"),
    ("delay", "handshake"),
    ("delay", "recv"),
    ("delay", "send"),
    ("drop_response", "handshake"),
    ("drop_response", "send"),
)

#: How long a ``delay`` network fault stalls its site.  Deliberately
#: *shorter* than any sane transport I/O timeout — a slow peer is
#: absorbed, not retried.
DELAY_SECONDS = 0.25

#: Exit status of a worker killed by ``worker_kill`` (diagnostic only;
#: the parent sees the death as ``BrokenProcessPool`` either way).
KILLED_EXIT_CODE = 113


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: ``kind@site[:occurrence]``.

    Attributes:
        kind: What happens (a :data:`FAULT_KINDS` member).
        site: Where it happens (an :data:`INJECTION_SITES` member).
        occurrence: Which visit of ``site`` fires it — ``0`` (the
            default) is the first visit, counted per process; ``None``
            (spelled ``*``) fires on every visit.  Integer specs fire
            **once globally** (ledger-gated across processes and
            worker restarts); ``*`` specs fire every time.
    """

    kind: str
    site: str
    occurrence: int | None = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; options: "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.site not in INJECTION_SITES:
            raise ValueError(
                f"unknown injection site {self.site!r}; options: "
                f"{sorted(INJECTION_SITES)}"
            )
        if self.occurrence is not None and self.occurrence < 0:
            raise ValueError(
                f"occurrence must be non-negative or None, got "
                f"{self.occurrence}"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``kind@site[:N|*]`` spec string."""
        text = text.strip()
        if "@" not in text:
            raise ValueError(
                f"fault spec {text!r} is not of the form kind@site[:N|*]"
            )
        kind, _, rest = text.partition("@")
        site, sep, occurrence_text = rest.partition(":")
        if not sep:
            occurrence: int | None = 0
        elif occurrence_text == "*":
            occurrence = None
        else:
            try:
                occurrence = int(occurrence_text)
            except ValueError:
                raise ValueError(
                    f"fault occurrence must be an integer or '*', got "
                    f"{occurrence_text!r} in {text!r}"
                ) from None
        return cls(kind=kind.strip(), site=site.strip(), occurrence=occurrence)

    @property
    def label(self) -> str:
        """The ``kind@site`` name injections are recorded under."""
        return f"{self.kind}@{self.site}"

    def __str__(self) -> str:
        suffix = ":*" if self.occurrence is None else f":{self.occurrence}"
        return f"{self.label}{suffix}"


@dataclass(frozen=True)
class FaultSchedule:
    """A reproducible set of fault specs plus their shared ledger.

    Picklable (it rides pool initializers into worker processes) and
    frozen; the mutable cross-process state lives in the
    ``record_path`` ledger file, never in the object.

    Attributes:
        specs: The fault specs, in declaration order.
        seed: Seed the schedule was derived from (recorded for
            reproducibility; :meth:`single_random` draws from it).
        record_path: Append-only ledger file shared by every process
            this schedule is armed in.  Auto-generated under the
            temp directory when empty; the schedule that generated it
            removes it and its lock file when it is collected (copies
            pickled into pool workers, and schedules given a path,
            never delete anything).
    """

    specs: tuple[FaultSpec, ...]
    seed: int = 0
    record_path: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        if not self.record_path:
            fd, path = tempfile.mkstemp(
                prefix="repro-fault-ledger-", suffix=".log"
            )
            os.close(fd)
            object.__setattr__(self, "record_path", path)
            weakref.finalize(self, _remove_ledger, path, os.getpid())

    @classmethod
    def parse(cls, text: str, seed: int = 0, **kwargs) -> "FaultSchedule":
        """Parse a comma-separated spec list, e.g.
        ``"worker_kill@plan:3,torn_write@spill"``."""
        specs = tuple(
            FaultSpec.parse(part) for part in text.split(",") if part.strip()
        )
        if not specs:
            raise ValueError(f"no fault specs in {text!r}")
        return cls(specs=specs, seed=seed, **kwargs)

    @classmethod
    def single_random(cls, seed: int, **kwargs) -> "FaultSchedule":
        """One seeded random fault from :data:`RANDOM_FAULT_MENU` —
        the ``--fault-seed N`` (without ``--inject-faults``) schedule:
        every seed deterministically maps to one (kind, site,
        occurrence) triple."""
        rng = random.Random(seed)
        kind, site = rng.choice(RANDOM_FAULT_MENU)
        occurrence = rng.randint(0, 2)
        return cls(
            specs=(FaultSpec(kind=kind, site=site, occurrence=occurrence),),
            seed=seed,
            **kwargs,
        )

    def read_ledger(self) -> list[str]:
        """Every recorded injection so far, as ``kind@site`` labels in
        firing order (the accounting half of the ledger; the gating
        half is internal to the plane)."""
        labels = []
        for line in _ledger_lines(self.record_path):
            parts = line.split(" ", 1)
            if len(parts) == 2:
                labels.append(parts[1])
        return labels

    def injection_counts(self) -> dict[str, int]:
        """Ledger totals per ``kind@site`` label."""
        counts: dict[str, int] = {}
        for label in self.read_ledger():
            counts[label] = counts.get(label, 0) + 1
        return counts

    def __str__(self) -> str:
        return ",".join(str(spec) for spec in self.specs)


@dataclass(frozen=True)
class FaultStats:
    """One sweep pass's fault accounting.

    Everything here is host-side bookkeeping — never part of the
    bit-identical metrics contract (which is exactly what it exists to
    defend).

    Attributes:
        injections: ``(kind@site, count)`` pairs of faults actually
            realised during the pass (from the schedule's ledger).
    """

    injections: tuple[tuple[str, int], ...] = ()

    @property
    def total_injections(self) -> int:
        return sum(count for _, count in self.injections)


# ---------------------------------------------------------------------------
# The armed plane.  One module-global slot: maybe_inject() is a single
# global read plus a None check when disarmed, so production code can
# visit injection sites unconditionally.
# ---------------------------------------------------------------------------


class _FaultPlane:
    """Per-process view of an armed schedule (visit counters + ledger)."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._visits = [0] * len(schedule.specs)
        self._lock = threading.Lock()

    def visit(self, site: str) -> str | None:
        """Count a site visit; realise and/or report any fault it fires.

        ``worker_kill`` is realised here — the kill records its ledger
        line first and never returns.  The data fault
        (``torn_write``) and the network kinds
        (``conn_reset``, ``torn_frame``, ``delay``, ``drop_response``)
        are returned as the fired kind for the *caller* to realise —
        only the cache store knows what a torn write means, and only
        the plan transport knows what resetting a connection means.
        """
        fired_kind: str | None = None
        for index, spec in enumerate(self.schedule.specs):
            if spec.site != site:
                continue
            with self._lock:
                count = self._visits[index]
                self._visits[index] = count + 1
            if spec.occurrence is None:
                self._record(index, spec, gate=False)
            elif count != spec.occurrence or not self._record(
                index, spec, gate=True
            ):
                continue
            if spec.kind == "worker_kill":
                os._exit(KILLED_EXIT_CODE)
            if fired_kind is None:
                fired_kind = spec.kind
        return fired_kind

    def _record(self, index: int, spec: FaultSpec, gate: bool) -> bool:
        """Append a firing to the ledger; with ``gate``, refuse when
        the spec already fired anywhere (once-globally semantics).

        The check-then-append runs under an flock on a sibling lock
        file, so two workers reaching the same occurrence concurrently
        cannot both fire a once-only spec.  Recording happens *before*
        realisation — a ``worker_kill`` leaves its line behind.
        """
        path = self.schedule.record_path
        marker = f"{index} "
        with _ledger_locked(path):
            if gate and any(
                line.startswith(marker) for line in _ledger_lines(path)
            ):
                return False
            try:
                with open(path, "a") as ledger:
                    ledger.write(f"{index} {spec.label}\n")
                    ledger.flush()
                    os.fsync(ledger.fileno())
            except OSError:  # pragma: no cover - ledger volume vanished
                pass
        return True


def _remove_ledger(path: str, owner: int) -> None:
    """Delete a generated ledger and its lock file, in the process
    that generated them only (a forked child inherits the finalizer)."""
    if os.getpid() != owner:
        return
    for stale in (path, path + ".lock"):
        try:
            os.unlink(stale)
        except OSError:
            pass


def _ledger_lines(path: str) -> list[str]:
    try:
        return pathlib.Path(path).read_text().splitlines()
    except OSError:
        return []


@contextlib.contextmanager
def _ledger_locked(path: str):
    """Short blocking flock guarding the ledger's check-then-append."""
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    with open(path + ".lock", "a+") as lock:
        fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock.fileno(), fcntl.LOCK_UN)


_ACTIVE: _FaultPlane | None = None


def arm(schedule: FaultSchedule | None) -> None:
    """Arm ``schedule`` in this process (None disarms).

    Worker processes are armed through the solver pool's initializer
    (it ships the parent's active schedule); the parent arms around
    each sweep pass.
    """
    global _ACTIVE
    _ACTIVE = None if schedule is None else _FaultPlane(schedule)


def disarm() -> None:
    """Disarm the plane (visits become free again)."""
    arm(None)


def active_schedule() -> FaultSchedule | None:
    """The armed schedule, if any (what pool initializers ship)."""
    plane = _ACTIVE
    return None if plane is None else plane.schedule


@contextlib.contextmanager
def armed(schedule: FaultSchedule | None):
    """Scoped arm/disarm (restores whatever was armed before)."""
    previous = active_schedule()
    arm(schedule)
    try:
        yield
    finally:
        arm(previous)


def maybe_inject(site: str) -> str | None:
    """Visit injection point ``site``.

    Returns the kind of a fired *data or network* fault
    (``torn_write`` / ``conn_reset`` / ``torn_frame`` / ``delay`` /
    ``drop_response``) for the caller to realise, or None.
    ``worker_kill`` is realised inline and does not return.
    Disarmed, this is one global read and a None check.
    """
    plane = _ACTIVE
    if plane is None:
        return None
    return plane.visit(site)

