"""Sequence packing.

Baseline systems assume homogeneous input lengths, so they concatenate
varied-length sequences into packed inputs no longer than the model
replica's token capacity ``c`` (S2.2.2).  The paper's baselines use
Best-Fit Packing (Ding et al., "Fewer Truncations Improve Language
Modeling"), i.e. Best-Fit-Decreasing bin packing; we also provide
First-Fit-Decreasing for comparison.

FlexSP itself does not pre-pack: its solver assigns raw sequences to
heterogeneous SP groups directly, which subsumes packing.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field


@dataclass
class Pack:
    """One packed training input.

    Attributes:
        capacity: Maximum tokens this pack may hold.
        lengths: Lengths of the member sequences, in packing order.
            Mutate only through :meth:`add`, which keeps the O(1)
            ``used``/``remaining`` accounting in sync.

    Raises:
        ValueError: On construction, a non-positive capacity, a
            non-positive length, or lengths summing past the capacity.
    """

    capacity: int
    lengths: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(
                f"pack capacity must be positive, got {self.capacity}"
            )
        if self.lengths and min(self.lengths) <= 0:
            raise ValueError(
                "sequence lengths must be positive, got "
                f"{min(self.lengths)}"
            )
        self._used = sum(self.lengths)
        if self._used > self.capacity:
            raise ValueError(
                f"pack holds {self._used} tokens, over its capacity "
                f"{self.capacity}"
            )

    @property
    def used(self) -> int:
        return self._used

    @property
    def remaining(self) -> int:
        return self.capacity - self._used

    def add(self, length: int) -> None:
        if length > self.remaining:
            raise ValueError(
                f"sequence of {length} tokens does not fit in pack with "
                f"{self.remaining} remaining"
            )
        self.lengths.append(length)
        self._used += length


def _check_inputs(lengths: SequenceABC[int], capacity: int) -> None:
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if len(lengths) == 0 or (min(lengths) > 0 and max(lengths) <= capacity):
        return
    # Name the first offending sequence, in input order.
    for s in lengths:
        if s <= 0:
            raise ValueError(f"sequence lengths must be positive, got {s}")
        if s > capacity:
            raise ValueError(
                f"sequence of {s} tokens exceeds pack capacity {capacity}; "
                "filter over-length sequences before packing"
            )


def best_fit_decreasing(lengths: SequenceABC[int], capacity: int) -> list[Pack]:
    """Best-Fit-Decreasing packing (the paper's baseline protocol).

    Sequences are sorted in decreasing length and each is placed into
    the open pack with the *smallest* remaining space that still fits
    it, opening a new pack when none fits.

    Two flat lists kept in step hold the open packs: their remaining
    capacities, ascending, and their ids, ascending within equal
    remainders.  ``bisect_left`` on the remainders then finds the
    smallest one that fits, and among equals the lowest id.  A filled
    pack's remainder only shrinks, so it moves left: it stays in place
    while its left neighbour's remainder is still smaller (the common
    case), and otherwise goes after the equal remainders of lower-id
    packs.  The member lists become :class:`Pack` objects once, at the
    end.
    """
    _check_inputs(lengths, capacity)
    contents: list[list[int]] = []
    rems: list[int] = []
    ids: list[int] = []
    for s in sorted(lengths, reverse=True):
        pos = bisect.bisect_left(rems, s)
        if pos < len(rems):
            rem = rems[pos] - s
            idx = ids[pos]
            contents[idx].append(s)
            if pos == 0 or rems[pos - 1] < rem:
                rems[pos] = rem
                continue
            del rems[pos], ids[pos]
            pos = bisect.bisect_left(rems, rem, 0, pos)
            if rems[pos] == rem:
                end = bisect.bisect_right(rems, rem, pos)
                pos = bisect.bisect_left(ids, idx, pos, end)
        else:
            # A new pack has the highest id: after every equal remainder.
            idx = len(contents)
            rem = capacity - s
            contents.append([s])
            pos = bisect.bisect_right(rems, rem)
        rems.insert(pos, rem)
        ids.insert(pos, idx)
    return [Pack(capacity=capacity, lengths=members) for members in contents]


def first_fit_decreasing(lengths: SequenceABC[int], capacity: int) -> list[Pack]:
    """First-Fit-Decreasing packing: place into the first pack that fits.

    Runs in O(K log K) with a tournament (max-segment) tree over pack
    remainders: internal nodes hold the maximum remainder in their
    subtree, so the *lowest-index* pack that can host a sequence is
    found by descending left-first — exactly the pack the naive
    first-pack-that-fits scan would pick, so assignments are identical
    to the O(K²) loop this replaces.
    """
    _check_inputs(lengths, capacity)
    packs: list[Pack] = []
    size = 1  # leaf slots; doubled (with a rebuild) as packs open
    tree = [0] * (2 * size)  # 1-indexed heap layout; leaves at [size:]

    def _update(leaf: int, remaining: int) -> None:
        node = size + leaf
        tree[node] = remaining
        node //= 2
        while node:
            tree[node] = max(tree[2 * node], tree[2 * node + 1])
            node //= 2

    for s in sorted(lengths, reverse=True):
        if tree[1] >= s:
            node = 1
            while node < size:
                node = 2 * node if tree[2 * node] >= s else 2 * node + 1
            pack = packs[node - size]
            pack.add(s)
            _update(node - size, pack.remaining)
        else:
            if len(packs) == size:
                size *= 2
                tree = [0] * (2 * size)
                for i, pack in enumerate(packs):
                    tree[size + i] = pack.remaining
                for node in range(size - 1, 0, -1):
                    tree[node] = max(tree[2 * node], tree[2 * node + 1])
            pack = Pack(capacity=capacity, lengths=[s])
            packs.append(pack)
            _update(len(packs) - 1, pack.remaining)
    return packs


def pack_efficiency(packs: SequenceABC[Pack]) -> float:
    """Fraction of pack capacity actually occupied by tokens."""
    if not packs:
        raise ValueError("pack_efficiency of an empty packing is undefined")
    used = sum(p.used for p in packs)
    total = sum(p.capacity for p in packs)
    return used / total
