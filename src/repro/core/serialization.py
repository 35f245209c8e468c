"""Plan serialization: iteration plans as plain JSON-ready dicts.

FlexSP disaggregates solving (CPU services, one per node) from
training (GPUs), and each batch's plan travels from the solver to the
trainer (paper S5).  Here that hand-off is the plan transport
(:mod:`repro.service.transport`), whose plan frames carry
:func:`plan_to_dict` payloads; the cache store
(:mod:`repro.core.cache_store`) spills plan-cache entries as
:func:`microbatch_to_dict` payloads.
"""

from __future__ import annotations

import dataclasses
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


#: Devices a shared rank block may reach (see :data:`_RANK_BLOCKS`).
_RANK_LIMIT = 1024

#: One tuple per canonical device-rank block decoded so far, keyed by
#: ``(first rank, size)``: a block of a power-of-two size ``d``
#: covering ``range(k * d, (k + 1) * d)`` within the first
#: :data:`_RANK_LIMIT` devices, the only blocks the planners place.
#: Each entry keeps the block as a list, which a decoded rank list is
#: compared with, and as the tuple every plan with that block shares.
#: The table never holds more than ``2 * _RANK_LIMIT`` entries,
#: whatever ranks it is fed.
_RANK_BLOCKS: dict[tuple[int, int], tuple[list[int], tuple[int, ...]]] = {}


def _rank_block(ranks) -> tuple[int, ...]:
    """``tuple(map(int, ranks))``, shared through :data:`_RANK_BLOCKS`
    when ``ranks`` is a canonical block: decoded plans that keep one
    group placement hold its ranks once, and a known block is matched
    by one list comparison instead of an int per rank."""
    size = len(ranks)
    first = ranks[0] if size else None
    entry = _RANK_BLOCKS.get((first, size))
    if (
        entry is None
        and type(first) is int
        and size & (size - 1) == 0
        and first % size == 0
        and 0 <= first <= _RANK_LIMIT - size
    ):
        block = tuple(range(first, first + size))
        entry = _RANK_BLOCKS.setdefault((first, size), (list(block), block))
    if entry is not None and ranks == entry[0]:
        return entry[1]
    return tuple(map(int, ranks))


def microbatch_from_dict(
    payload: dict[str, Any], values: dict[int, int] | None = None
) -> MicroBatchPlan:
    """Inverse of :func:`microbatch_to_dict`; validates via the plan
    dataclasses' own invariants.  ``values`` maps a length to the int
    object the plan keeps for it (see :func:`plan_from_dict`)."""
    groups = []
    for g in payload["groups"]:
        degree = int(g["degree"])
        ranks = _rank_block(g["device_ranks"])
        lengths = g["lengths"]
        groups.append(
            GroupAssignment(
                degree=degree,
                device_ranks=ranks,
                lengths=tuple(
                    map(values.get, lengths, map(int, lengths))
                    if values
                    else map(int, lengths)
                ),
            )
        )
    return MicroBatchPlan(groups=tuple(groups))


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
    values = None if batch is None else dict(zip(batch, batch))
    microbatches = [
        microbatch_from_dict(mb, values) for mb in payload["microbatches"]
    ]
    stats = payload.get("stats")
    if stats is not None and "kernel_tiers" in stats:
        # Older writers also emitted ``kernel_tiers``, a field
        # SolveStats no longer has; drop it so their plans keep loading.
        stats = dict(stats)
        del stats["kernel_tiers"]
    return IterationPlan(
        microbatches=tuple(microbatches),
        predicted_time=payload.get("predicted_time"),
        solver_name=sys.intern(str(payload.get("solver_name", "unknown"))),
        stats=SolveStats(**stats) if stats is not None else None,
    )

