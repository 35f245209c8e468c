"""Execution traces and time breakdowns.

The executor records one phase per (micro-batch, group, phase kind)
through :meth:`TraceRecorder.record`, which keeps it as a plain row
``(kind, start, duration, devices, microbatch, group_degree)``; the
breakdowns sum straight over the rows, and :class:`TracePhase` objects
are built only when a caller asks for :attr:`TraceRecorder.phases`
(the timeline renderer, tests).  Breakdowns weight each group phase by
its device count so that, summed with idle time, the phases tile the
cluster's device-time exactly — this is the accounting behind the
paper's Fig. 5a "All-to-All vs Others" split and Table 1's
communication ratios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class PhaseKind(enum.Enum):
    """What a span of group/cluster time was spent on."""

    COMPUTE = "compute"
    ALLTOALL = "alltoall"
    ZERO_GATHER = "zero_gather"
    GRAD_SYNC = "grad_sync"
    OPTIMIZER = "optimizer"
    GROUP_CREATE = "group_create"
    IDLE = "idle"


#: Phases that count as "Others" in the Fig. 5a breakdown, in
#: :class:`PhaseKind` declaration order (the order they are summed in).
OTHER_KINDS = (
    PhaseKind.COMPUTE,
    PhaseKind.ZERO_GATHER,
    PhaseKind.GRAD_SYNC,
    PhaseKind.OPTIMIZER,
    PhaseKind.IDLE,
)


@dataclass(frozen=True)
class TracePhase:
    """One recorded span.

    Attributes:
        kind: Phase category.
        start: Start time on the simulation clock, seconds.
        duration: Span length, seconds.
        devices: Devices occupied for the span.
        microbatch: Micro-batch index, or -1 for step-level phases.
        group_degree: SP degree of the owning group, or 0 for
            cluster-wide phases.
    """

    kind: PhaseKind
    start: float
    duration: float
    devices: int
    microbatch: int = -1
    group_degree: int = 0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")
        if self.devices <= 0:
            raise ValueError(f"devices must be positive, got {self.devices}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def device_seconds(self) -> float:
        return self.duration * self.devices


@dataclass
class TraceRecorder:
    """Accumulates phases as plain rows and derives breakdowns.

    Attributes:
        total_devices: Cluster size N; used to normalise device-time
            into wall-clock-equivalent seconds.
    """

    total_devices: int
    _rows: list[tuple[PhaseKind, float, float, int, int, int]] = field(
        default_factory=list, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.total_devices <= 0:
            raise ValueError(
                f"total_devices must be positive, got {self.total_devices}"
            )

    def record(
        self,
        kind: PhaseKind,
        start: float,
        duration: float,
        devices: int,
        microbatch: int = -1,
        group_degree: int = 0,
    ) -> None:
        """Record one span (fields as in :class:`TracePhase`)."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if devices <= 0:
            raise ValueError(f"devices must be positive, got {devices}")
        if devices > self.total_devices:
            raise ValueError(
                f"phase uses {devices} devices; cluster has "
                f"{self.total_devices}"
            )
        self._rows.append(
            (kind, start, duration, devices, microbatch, group_degree)
        )

    @property
    def phases(self) -> list[TracePhase]:
        """Every recorded span, in recording order."""
        return [TracePhase(*row) for row in self._rows]

    def wall_seconds(self, kind: PhaseKind) -> float:
        """Device-weighted wall-clock-equivalent seconds spent in ``kind``.

        A phase occupying d of N devices for t seconds contributes
        ``t * d / N``: if every device did it simultaneously this is
        exactly t, matching a per-device profiler's view.
        """
        return sum(
            row[2] * row[3] for row in self._rows if row[0] is kind
        ) / self.total_devices

    def alltoall_seconds(self) -> float:
        return self.wall_seconds(PhaseKind.ALLTOALL)

    def others_seconds(self) -> float:
        return sum(self.wall_seconds(k) for k in OTHER_KINDS)

    def breakdown(self) -> dict[str, float]:
        """Wall-equivalent seconds per phase kind (zero entries kept)."""
        return {kind.value: self.wall_seconds(kind) for kind in PhaseKind}

    def alltoall_fraction(self) -> float:
        """All-to-All share of the iteration (Table 1 / Fig. 5a metric)."""
        alltoall = self.alltoall_seconds()
        total = alltoall + self.others_seconds()
        if total <= 0:
            return 0.0
        return alltoall / total

    def phases_of_microbatch(self, index: int) -> list[TracePhase]:
        return [TracePhase(*row) for row in self._rows if row[4] == index]

    def end_time(self) -> float:
        """Last recorded phase end, seconds."""
        if not self._rows:
            return 0.0
        return max(row[1] + row[2] for row in self._rows)
