"""Reference Best-Fit-Decreasing for :mod:`repro.data.packing`.

:func:`repro.data.packing.best_fit_decreasing` keeps the open packs'
remainders and ids in two flat int lists and builds its
:class:`~repro.data.packing.Pack` objects at the end.  This module is
the straightforward form it must agree with: one sorted list of
``(remaining, pack index)`` tuples and a ``Pack.add`` per sequence, so
the tests can hold the flat-list packing to it with ``==`` on every
pack's contents and order.
"""

from __future__ import annotations

import bisect

from repro.data.packing import Pack


def best_fit_decreasing_oracle(lengths, capacity):
    """Each sequence, longest first, into the open pack with the least
    room that still fits it (the lowest index among equals), or a new
    pack when none fits."""
    packs = []
    remaining = []  # (remaining, pack index), sorted
    for s in sorted(lengths, reverse=True):
        pos = bisect.bisect_left(remaining, (s, -1))
        if pos < len(remaining):
            rem, idx = remaining.pop(pos)
            packs[idx].add(s)
            bisect.insort(remaining, (rem - s, idx))
        else:
            pack = Pack(capacity=capacity, lengths=[s])
            packs.append(pack)
            bisect.insort(remaining, (pack.remaining, len(packs) - 1))
    return packs
