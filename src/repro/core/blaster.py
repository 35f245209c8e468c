"""Sequence blaster (S4.2 and Appendix A).

When a global batch holds more tokens than the cluster can fit, it is
chunked into micro-batches executed sequentially under gradient
accumulation.  The blaster follows the paper's three takeaways:

1. Fewer micro-batches are usually better — start from the smallest
   feasible count ``M_min = ceil(batch_tokens / cluster_capacity)``
   and let the solver try a handful of counts above it.
2. Low length-variance within a micro-batch is better — sort the batch
   by length and cut it into *contiguous* segments.
3. Token counts should be even across micro-batches — choose the cut
   points by dynamic programming minimising the maximum segment token
   sum (Eq. 23/24).
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC

import numpy as np

from repro.core._dp import DP_INF, solve_monotone_layer
from repro.core.types import SequenceBatch

#: The paper's default number of micro-batch-count trials M'.
DEFAULT_NUM_TRIALS = 5


def min_microbatch_count(batch_tokens: float, cluster_token_capacity: float) -> int:
    """Smallest feasible micro-batch count ``M_min`` (takeaway 1)."""
    if batch_tokens <= 0:
        raise ValueError(f"batch_tokens must be positive, got {batch_tokens}")
    if cluster_token_capacity <= 0:
        raise ValueError(
            f"cluster_token_capacity must be positive, got {cluster_token_capacity}"
        )
    return max(1, math.ceil(batch_tokens / cluster_token_capacity))


def balanced_cut_points(lengths: SequenceABC[int], num_chunks: int) -> list[int]:
    """Cut a sorted length list into chunks with balanced token sums.

    Implements the Appendix A dynamic program: ``DP[k][i]`` is the best
    achievable maximum chunk-token-sum when splitting the first ``k``
    sequences into ``i`` chunks,

        DP[k][i] = min_j max(DP[j][i-1], sum(s_{j+1}..s_k)).

    Args:
        lengths: Sequence lengths, already sorted (takeaway 2 ordering).
        num_chunks: Number of chunks M; must not exceed ``len(lengths)``.

    Returns:
        Ending indices ``j_1 < ... < j_M = len(lengths)`` such that
        chunk ``i`` covers ``[j_{i-1}, j_i)``.
    """
    return balanced_cut_points_multi(lengths, (num_chunks,))[num_chunks]


def balanced_cut_points_multi(
    lengths: SequenceABC[int], chunk_counts: SequenceABC[int]
) -> dict[int, list[int]]:
    """Cut points for *several* chunk counts from one shared DP.

    The Appendix A recurrence ``DP[k][i] = min_j max(DP[j][i-1],
    sum(s_{j+1}..s_k))`` is independent of the final chunk count M —
    layer ``i`` is the same table whatever M the caller backtracks
    for.  The solver's trial loop blasts the *same sorted batch* at
    ``M_min .. M_min + M' - 1``, so running the layers once up to
    ``max(chunk_counts)`` and backtracking each requested count from
    the shared choice matrix does the work of M' separate DPs for the
    price of one; every count's cuts are bit-identical to an
    independent :func:`balanced_cut_points` call.

    Returns:
        ``{count: cuts}`` for every requested count (duplicates
        collapse onto one entry).
    """
    k_total = len(lengths)
    counts = sorted(set(int(c) for c in chunk_counts))
    if not counts:
        raise ValueError("need at least one chunk count")
    if counts[0] <= 0:
        raise ValueError(f"num_chunks must be positive, got {counts[0]}")
    if counts[-1] > k_total:
        raise ValueError(
            f"cannot split {k_total} sequences into {counts[-1]} non-empty "
            "micro-batches"
        )
    results: dict[int, list[int]] = {}
    # Trivial splits need no DP: one chunk takes everything; as many
    # chunks as sequences forces singleton chunks.
    if counts[0] == 1:
        results[1] = [k_total]
    if counts[-1] == k_total:
        results[k_total] = list(range(1, k_total + 1))
    needed = [c for c in counts if c not in results]
    if not needed:
        return results
    max_chunks = needed[-1]
    arr = np.asarray(lengths, dtype=np.int64)
    prefix = np.concatenate(([0], np.cumsum(arr)))

    # Each DP layer has monotone leftmost argmins: the chunk sum
    # ``prefix[k] - prefix[j]`` shifts by a positive constant as k
    # grows (lengths are positive) while DP[j][i-1] is nondecreasing
    # in j, so the f/segment crossing point only moves right — the
    # shared level-batched divide-and-conquer argmin applies.
    dp = np.full(k_total + 1, DP_INF, dtype=np.int64)
    dp[0] = 0
    choice = np.zeros((k_total + 1, max_chunks + 1), dtype=np.int64)
    for i in range(1, max_chunks + 1):
        new_dp = np.full(k_total + 1, DP_INF, dtype=np.int64)

        def flat_cost(k, lens, flat_j):
            seg = np.repeat(prefix[k], lens) - prefix[flat_j]
            return np.maximum(dp[flat_j], seg)

        def assign(k, best, opt):
            new_dp[k] = best
            choice[k, i] = opt

        solve_monotone_layer(i, k_total, i - 1, k_total - 1, flat_cost, assign)
        dp = new_dp

    for num_chunks in needed:
        cuts: list[int] = []
        k = k_total
        for i in range(num_chunks, 0, -1):
            cuts.append(k)
            k = int(choice[k][i])
        cuts.reverse()
        results[num_chunks] = cuts
    return results


def blast(
    batch: SequenceBatch, num_microbatches: int, sort: bool = True
) -> list[SequenceBatch]:
    """Blast a global batch into ``num_microbatches`` micro-batches.

    Args:
        batch: The global batch.
        num_microbatches: Number of micro-batches M.
        sort: Apply takeaway-2 length sorting before cutting.  The
            Fig. 7 "w/o Sort" ablation sets this False, cutting the
            batch in its arrival order instead.

    Returns:
        Micro-batches in execution order; their concatenation is a
        permutation of the input batch.
    """
    lengths = list(batch.lengths)
    if sort:
        lengths.sort()
    cuts = balanced_cut_points(lengths, num_microbatches)
    out: list[SequenceBatch] = []
    start = 0
    for end in cuts:
        out.append(SequenceBatch(lengths=tuple(lengths[start:end])))
        start = end
    return out


def blast_multi(
    batch: SequenceBatch, counts: SequenceABC[int], sort: bool = True
) -> dict[int, list[SequenceBatch]]:
    """Blast one batch at several micro-batch counts in one DP pass.

    The solver's trial sweep calls this once instead of :func:`blast`
    per trial: the batch is sorted once and the balanced-cut DP runs
    once to the largest count (see :func:`balanced_cut_points_multi`).
    Counts that cannot split the batch (more chunks than sequences)
    are simply absent from the result, mirroring the ``ValueError``
    the per-trial loop used to swallow.

    Returns:
        ``{count: micro-batches}``, each entry bit-identical to
        ``blast(batch, count, sort)``.
    """
    lengths = list(batch.lengths)
    if sort:
        lengths.sort()
    feasible = [c for c in counts if 0 < c <= len(lengths)]
    if not feasible:
        return {}
    all_cuts = balanced_cut_points_multi(lengths, feasible)
    out: dict[int, list[SequenceBatch]] = {}
    for count, cuts in all_cuts.items():
        microbatches: list[SequenceBatch] = []
        start = 0
        for end in cuts:
            microbatches.append(SequenceBatch(lengths=tuple(lengths[start:end])))
            start = end
        out[count] = microbatches
    return out


def max_microbatch_tokens(microbatches: SequenceABC[SequenceBatch]) -> int:
    """Largest token load among micro-batches (the Eq. 23 objective)."""
    if not microbatches:
        raise ValueError("no micro-batches given")
    return max(mb.total_tokens for mb in microbatches)
