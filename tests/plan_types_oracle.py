"""Reference checks and decoder for :mod:`repro.core.types` plans.

:class:`~repro.core.types.GroupAssignment` and
:class:`~repro.core.types.MicroBatchPlan` validate with ``min`` and set
sizes, and fall back to a loop only to raise; and
:func:`~repro.core.serialization.microbatch_from_dict` builds its
tuples with ``map`` and shares canonical device-rank tuples.  This
module keeps the straightforward per-element forms they must agree
with, so the tests can hold them to the same exception type and
message on every input, and to ``==`` on every decoded plan.
"""

from __future__ import annotations

from repro.core.types import GroupAssignment, MicroBatchPlan


def check_group(degree, device_ranks, lengths) -> None:
    """The checks of one SP group, one element at a time."""
    if degree <= 0 or degree & (degree - 1) != 0:
        raise ValueError(f"SP degree must be a power of two, got {degree}")
    if len(device_ranks) != degree:
        raise ValueError(
            f"group of degree {degree} must own exactly that many "
            f"devices, got {len(device_ranks)}"
        )
    if any(s <= 0 for s in lengths):
        raise ValueError("assigned sequence lengths must be positive")


def check_microbatch(groups) -> None:
    """The checks of one micro-batch plan, one rank at a time."""
    if not groups:
        raise ValueError("a micro-batch plan needs at least one group")
    seen: set[int] = set()
    for g in groups:
        for r in g.device_ranks:
            if r in seen:
                raise ValueError(
                    f"device rank {r} appears in more than one SP group"
                )
            seen.add(r)
    if any(not g.lengths for g in groups):
        raise ValueError("finalised plans must not contain empty groups")


def decode_microbatch(payload, values=None) -> MicroBatchPlan:
    """A micro-batch payload decoded with one generator per tuple."""
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
