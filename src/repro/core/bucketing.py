"""Sequence bucketing (S4.1.3, Eqs. 15-16).

The MILP's variable count is proportional to the number of distinct
sequence lengths, so the planner first groups sequences into ``Q``
buckets, each represented by its maximum member length.  The bucketing
error — total deviation of each sequence from its bucket's upper limit
— is minimised exactly by dynamic programming over the sorted lengths:

    err[k][q] = min_j { err[j][q-1] + sum_{i=j+1..k} (s_k - s_i) }

Duplicate lengths are collapsed first (splitting a run of equal
lengths across buckets can never help).  The per-layer segment cost
``w(j, k) = s_k * (cnt_k - cnt_j) - (wsum_k - wsum_j)`` satisfies the
concave quadrangle inequality (``w(j1,k1) + w(j2,k2) <= w(j1,k2) +
w(j2,k1)`` reduces to ``(s_k1 - s_k2)(cnt_j2 - cnt_j1) <= 0``), so
each layer's leftmost argmin is monotone in ``k`` and the layer is
solved by divide-and-conquer argmin (:func:`_solve_monotone_layer`) in
O(n log n) numpy-vectorised work — O(n log n * Q) total instead of
the naive O(n^2 * Q).

The naive alternative (fixed-width intervals) is kept for the Table 4
/ Fig. 7 ablations.
"""

from __future__ import annotations

from collections.abc import Callable
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass

import numpy as np

#: The paper's default bucket count (S4.1.3).
DEFAULT_NUM_BUCKETS = 16

#: Unreachable-state sentinel of the DP (``np.iinfo(np.int64).max //
#: 4`` — headroom for one int64 add).
_DP_INF = np.iinfo(np.int64).max // 4


@dataclass(frozen=True)
class Bucket:
    """A group of similar-length sequences represented by one length.

    Attributes:
        upper: Representative (maximum) length ``s_hat_q``, tokens.
        lengths: The actual member lengths, ascending.
    """

    upper: int
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.lengths:
            raise ValueError("a bucket must contain at least one sequence")
        if any(s > self.upper for s in self.lengths):
            raise ValueError("bucket members must not exceed its upper limit")
        if any(s <= 0 for s in self.lengths):
            raise ValueError("sequence lengths must be positive")

    @property
    def count(self) -> int:
        """Member count ``b_hat_q``."""
        return len(self.lengths)

    @property
    def deviation(self) -> int:
        """Total bucketing error contributed by this bucket."""
        return self.upper * self.count - sum(self.lengths)


def _solve_monotone_layer(
    k_first: int,
    k_last: int,
    j_first: int,
    j_last: int,
    flat_cost: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    assign: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
) -> None:
    """Fill one DP layer ``new[k] = min_{j in [j_first, k-1]} cost(j, k)``
    for ``k in [k_first, k_last]``, given that its leftmost argmin is
    nondecreasing in ``k``.

    All nodes of one divide-and-conquer recursion level are evaluated
    together: their candidate ranges are flattened into one array and
    reduced with one segmented ``np.minimum.reduceat`` pass, leaving
    O(log n) numpy calls per layer and no per-``k`` Python work.  Ties
    resolve to the *smallest* ``j``, matching ``np.argmin`` over the
    full range in a quadratic DP, so reconstructed edges are
    bit-identical to it.

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


def _unique_sorted(lengths: SequenceABC[int]) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(lengths, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("cannot bucket an empty batch")
    if np.any(arr <= 0):
        raise ValueError("sequence lengths must be positive")
    return np.unique(arr, return_counts=True)


def optimal_buckets(
    lengths: SequenceABC[int], num_buckets: int = DEFAULT_NUM_BUCKETS
) -> list[Bucket]:
    """Minimum-deviation bucketing via dynamic programming (Eq. 16).

    Args:
        lengths: Raw sequence lengths (any order).
        num_buckets: Target bucket count Q; fewer are returned when
            there are fewer unique lengths.

    Returns:
        Buckets in ascending order of upper limit, jointly minimising
        Eq. 15's total deviation.
    """
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    values, counts = _unique_sorted(lengths)
    n = len(values)
    q_max = min(num_buckets, n)
    if q_max == n:
        return _materialise(lengths, values)

    # Prefix sums over unique values: cnt[k] sequences and wsum[k]
    # total tokens among the first k unique lengths.
    cnt = np.concatenate(([0], np.cumsum(counts)))
    wsum = np.concatenate(([0], np.cumsum(values * counts)))

    # err[j] holds err[j][q-1] while filling err[.][q]; boundary[k][q]
    # records the argmin j for reconstruction.  The segment cost is
    # concave-Monge, so each layer's leftmost argmin is monotone in k
    # and the layer is solved by the level-batched divide-and-conquer
    # argmin.
    err = np.full(n + 1, _DP_INF, dtype=np.int64)
    err[0] = 0
    boundary = np.zeros((n + 1, q_max + 1), dtype=np.int64)
    for q in range(1, q_max + 1):
        new_err = np.full(n + 1, _DP_INF, dtype=np.int64)

        def flat_cost(k, lens, flat_j):
            # Cost of making (j, k] one bucket with upper limit
            # values[k-1].
            seg = np.repeat(values[k - 1], lens) * (
                np.repeat(cnt[k], lens) - cnt[flat_j]
            ) - (np.repeat(wsum[k], lens) - wsum[flat_j])
            return err[flat_j] + seg

        def assign(k, best, opt):
            new_err[k] = best
            boundary[k, q] = opt

        _solve_monotone_layer(q, n, q - 1, n - 1, flat_cost, assign)
        err = new_err

    # Walk boundaries back to recover the bucket edges.
    edges = []
    k = n
    for q in range(q_max, 0, -1):
        edges.append(k)
        k = int(boundary[k][q])
    edges.reverse()
    uppers = values[[e - 1 for e in edges]]
    return _materialise(lengths, uppers)


def naive_buckets(
    lengths: SequenceABC[int], num_buckets: int = DEFAULT_NUM_BUCKETS
) -> list[Bucket]:
    """Fixed-width-interval bucketing (the ablation baseline).

    Splits ``[0, max_length]`` into ``num_buckets`` equal intervals and
    represents each non-empty interval by its upper edge.  On long-tail
    data this wastes most intervals on the empty tail and lumps the
    dense short-sequence mass into one coarse bucket — the source of
    the up-to-22% token estimation error in Table 4.
    """
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    values, __ = _unique_sorted(lengths)
    max_len = int(values[-1])
    width = max(1, -(-max_len // num_buckets))  # ceil division
    uppers = sorted({min((int(s) + width - 1) // width * width, max_len) or width
                     for s in values})
    return _materialise(lengths, np.asarray(uppers, dtype=np.int64))


#: The paper's naive-bucketing interval: upper limits at multiples of 2K.
FIXED_INTERVAL_WIDTH = 2048


def fixed_interval_buckets(
    lengths: SequenceABC[int], width: int = FIXED_INTERVAL_WIDTH
) -> list[Bucket]:
    """The paper's exact naive method: upper limits at multiples of ``width``.

    Buckets are 0-2K, 2K-4K, 4K-6K, ... regardless of the data; the
    bucket count is data-dependent.  On long-tail corpora this places
    the dense short-sequence mass into one or two coarse intervals,
    producing the large token-estimation bias of Table 4.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    values, __ = _unique_sorted(lengths)
    uppers = sorted({-(-int(s) // width) * width for s in values})
    return _materialise(lengths, np.asarray(uppers, dtype=np.int64))


def _materialise(
    lengths: SequenceABC[int], uppers: np.ndarray
) -> list[Bucket]:
    """Assemble Bucket objects given ascending upper limits."""
    remaining = np.sort(np.asarray(lengths, dtype=np.int64))
    uppers = np.asarray(uppers, dtype=np.int64)
    # Bucket i owns the members in (uppers[i-1], uppers[i]].
    ends = np.searchsorted(remaining, uppers, side="right")
    if not ends.size or int(ends[-1]) != remaining.size:
        raise AssertionError("bucketing failed to cover all sequences")
    starts = np.concatenate(([0], ends[:-1]))
    buckets: list[Bucket] = []
    for upper, start, end in zip(uppers, starts, ends):
        if end > start:
            buckets.append(
                Bucket(
                    upper=int(upper),
                    lengths=tuple(int(s) for s in remaining[start:end]),
                )
            )
    return buckets


def bucket_sequences(
    lengths: SequenceABC[int],
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    method: str = "optimal",
) -> list[Bucket]:
    """Bucket sequences by the named method (``"optimal"`` or ``"naive"``)."""
    if method == "optimal":
        return optimal_buckets(lengths, num_buckets)
    if method == "naive":
        return naive_buckets(lengths, num_buckets)
    if method == "fixed":
        return fixed_interval_buckets(lengths)
    raise ValueError(f"unknown bucketing method: {method!r}")


def bucketing_error(buckets: SequenceABC[Bucket]) -> int:
    """Eq. 15's objective: total token deviation across buckets."""
    return sum(b.deviation for b in buckets)


def token_error_ratio(buckets: SequenceABC[Bucket]) -> float:
    """Table 4's metric: error tokens divided by total true tokens."""
    true_tokens = sum(sum(b.lengths) for b in buckets)
    if true_tokens == 0:
        raise ValueError("token_error_ratio of an empty bucketing is undefined")
    return bucketing_error(buckets) / true_tokens
