"""Plan serialization and the distributed plan store (paper S5).

FlexSP disaggregates solving (CPU services, one per node) from
training (GPUs): solvers write each batch's optimal plan into a
distributed store, and the executor reads one plan per iteration.
This module provides the wire format — plans as plain JSON — and a
file-backed :class:`PlanStore` with the store's read-ahead contract.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
from typing import Any

from repro.core.types import (
    GroupAssignment,
    IterationPlan,
    MicroBatchPlan,
    SolveStats,
)

#: Format tag written into every serialized plan.
FORMAT_VERSION = 1

#: :class:`SolveStats` field names in declaration order.  The stats
#: hold only scalars, so the wire dict reads them flat — the keys,
#: order and values of ``dataclasses.asdict`` without its recursive
#: deep copy, which cost a warm plan request ~28 µs per plan.
_STATS_FIELDS = tuple(f.name for f in dataclasses.fields(SolveStats))


def microbatch_to_dict(mb: MicroBatchPlan) -> dict[str, Any]:
    """Lossless JSON-ready representation of one micro-batch plan.

    The unit the plan cache memoises — shared by the iteration-plan
    wire format below and :mod:`repro.core.cache_store`'s spilled
    cache entries.
    """
    return {
        "groups": [
            {
                "degree": g.degree,
                "device_ranks": list(g.device_ranks),
                "lengths": list(g.lengths),
            }
            for g in mb.groups
        ]
    }


def microbatch_from_dict(
    payload: dict[str, Any], values: dict[int, int] | None = None
) -> MicroBatchPlan:
    """Inverse of :func:`microbatch_to_dict`; validates via the plan
    dataclasses' own invariants.  ``values`` maps a length to the int
    object the plan keeps for it (see :func:`plan_from_dict`)."""
    values = values or {}
    groups = tuple(
        GroupAssignment(
            degree=int(g["degree"]),
            device_ranks=tuple(int(r) for r in g["device_ranks"]),
            lengths=tuple(values.get(s, s) for s in map(int, g["lengths"])),
        )
        for g in payload["groups"]
    )
    return MicroBatchPlan(groups=groups)


def plan_to_dict(plan: IterationPlan) -> dict[str, Any]:
    """Lossless JSON-ready representation of an iteration plan."""
    payload: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "solver_name": plan.solver_name,
        "predicted_time": plan.predicted_time,
    }
    if plan.stats is not None:
        stats = plan.stats
        payload["stats"] = {name: getattr(stats, name) for name in _STATS_FIELDS}
    payload["microbatches"] = [
        microbatch_to_dict(mb) for mb in plan.microbatches
    ]
    return payload


def plan_from_dict(
    payload: dict[str, Any], batch: tuple[int, ...] | None = None
) -> IterationPlan:
    """Inverse of :func:`plan_to_dict`; validates structure via the
    plan dataclasses' own invariants.

    ``batch`` is the lengths the plan was solved for, when the caller
    holds them.  The plan's group lengths take the batch's int objects
    instead of the JSON decoder's copies, so a client keeping the plans
    of recurring batches holds each length once: at the plan service's
    16-sequence batches that is 16 ints, about a quarter of a decoded
    plan's bytes.
    """
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported plan format version {version!r}; expected "
            f"{FORMAT_VERSION}"
        )
    values = None if batch is None else {s: s for s in batch}
    microbatches = [
        microbatch_from_dict(mb, values) for mb in payload["microbatches"]
    ]
    stats = payload.get("stats")
    if stats is not None:
        # Older writers also emitted ``kernel_tiers``, a field
        # SolveStats no longer has; drop it so their plans keep loading.
        stats = {k: v for k, v in stats.items() if k != "kernel_tiers"}
    return IterationPlan(
        microbatches=tuple(microbatches),
        predicted_time=payload.get("predicted_time"),
        solver_name=sys.intern(str(payload.get("solver_name", "unknown"))),
        stats=SolveStats(**stats) if stats is not None else None,
    )


def dumps(plan: IterationPlan) -> str:
    """Serialize a plan to a JSON string."""
    return json.dumps(plan_to_dict(plan), separators=(",", ":"))


def loads(text: str) -> IterationPlan:
    """Deserialize a plan from a JSON string."""
    return plan_from_dict(json.loads(text))


class PlanStore:
    """File-backed store of per-step plans (the S5 "distributed storage").

    Solver services call :meth:`put` for the batches they have solved;
    the executor calls :meth:`get` once per training step.  Steps are
    independent files so concurrent solver processes never contend.

    Args:
        root: Directory holding the plans; created if missing.
    """

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, step: int) -> pathlib.Path:
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        return self.root / f"plan-{step:08d}.json"

    def put(self, step: int, plan: IterationPlan) -> None:
        """Persist the plan for ``step`` (atomic via rename)."""
        path = self._path(step)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(dumps(plan))
        tmp.rename(path)

    def get(self, step: int) -> IterationPlan:
        """Load the plan for ``step``.

        Raises:
            KeyError: The step has not been solved yet.
        """
        path = self._path(step)
        if not path.exists():
            raise KeyError(f"no plan stored for step {step}")
        return loads(path.read_text())

    def __contains__(self, step: int) -> bool:
        return self._path(step).exists()

    def pending_after(self, step: int) -> int:
        """How many consecutive future steps are already solved.

        The executor uses this as its read-ahead depth: a healthy
        deployment keeps it positive so solving stays overlapped.
        """
        count = 0
        while (step + count + 1) in self:
            count += 1
        return count

    def steps(self) -> list[int]:
        """All stored step indices, ascending."""
        return sorted(
            int(p.stem.split("-")[1]) for p in self.root.glob("plan-*.json")
        )
