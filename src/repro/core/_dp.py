"""Monotone divide-and-conquer argmin for layered DPs.

Shared machinery of the bucketing (Eq. 15/16) and blaster (Eq. 23/24)
dynamic programs.  Both have layers of the form

    new[k] = min_{j in [j_first, k-1]} combine(prev[j], w(j, k))

whose *leftmost* argmin is nondecreasing in ``k`` (their segment costs
satisfy the concave quadrangle inequality), so each layer is solvable
by divide-and-conquer over ``k``.  All nodes of one recursion level
are evaluated together: their candidate ranges are flattened into a
single array and reduced with one segmented ``np.minimum.reduceat``
pass, leaving O(log n) numpy calls per layer and no per-``k`` Python
work.

Tie-breaking matters: the reduction selects the *smallest* ``j``
attaining each node's minimum, matching ``np.argmin`` over the full
range in the reference quadratic DPs — callers rely on bit-identical
reconstruction paths.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

#: Unreachable-state sentinel of both DPs (``np.iinfo(np.int64).max //
#: 4`` — headroom for one int64 add).
DP_INF = np.iinfo(np.int64).max // 4


def solve_monotone_layer(
    k_first: int,
    k_last: int,
    j_first: int,
    j_last: int,
    flat_cost: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    assign: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
) -> None:
    """Fill one DP layer for ``k in [k_first, k_last]``.

    Args:
        k_first, k_last: Inclusive range of positions to solve.
        j_first, j_last: Inclusive range of candidate split points;
            each ``k`` considers ``j in [j_first, min(j_last, k - 1)]``
            (monotonically narrowed as the recursion splits).
        flat_cost: ``(k, lens, flat_j) -> candidates`` where ``k`` is
            the per-node midpoint array, ``lens`` the per-node
            candidate counts, and ``flat_j`` the flattened candidate
            split points; returns the flattened candidate costs
            (``np.repeat(per_node_value, lens)`` broadcasts node-level
            terms).
        assign: ``(k, best, opt) -> None`` records each midpoint's
            optimal cost and leftmost-argmin split point.
    """
    k_lo = np.asarray([k_first], dtype=np.int64)
    k_hi = np.asarray([k_last], dtype=np.int64)
    j_lo = np.asarray([j_first], dtype=np.int64)
    j_hi = np.asarray([j_last], dtype=np.int64)
    while k_lo.size:
        k = (k_lo + k_hi) // 2
        j_top = np.minimum(j_hi, k - 1)
        lens = j_top - j_lo + 1
        starts = np.concatenate(([0], np.cumsum(lens[:-1])))
        total = int(lens.sum())
        flat_j = np.repeat(j_lo - starts, lens) + np.arange(total)
        candidates = flat_cost(k, lens, flat_j)
        best = np.minimum.reduceat(candidates, starts)
        # Leftmost argmin per node (ties resolve to the smallest j,
        # matching the reference quadratic DP's np.argmin).
        at_min = candidates == np.repeat(best, lens)
        first = np.minimum.reduceat(
            np.where(at_min, np.arange(total), total), starts
        )
        opt = flat_j[first]
        assign(k, best, opt)
        # Children: left halves inherit [j_lo, opt], right [opt, j_hi].
        left = k_lo <= k - 1
        right = k + 1 <= k_hi
        k_lo, k_hi, j_lo, j_hi = (
            np.concatenate((k_lo[left], k[right] + 1)),
            np.concatenate((k[left] - 1, k_hi[right])),
            np.concatenate((j_lo[left], opt[right])),
            np.concatenate((opt[left], j_hi[right])),
        )
