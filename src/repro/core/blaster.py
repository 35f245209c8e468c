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

The DP needs no inner search over split points: with positive lengths
each layer's leftmost argmin sits at the crossing of a nondecreasing
and a strictly decreasing term, so one ``np.searchsorted`` fills a
whole layer (:func:`balanced_cut_points_multi`).  The same argument
holds for any order of the lengths, so the Fig. 7 "w/o Sort" path
takes the same DP.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC

import numpy as np

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
    """Cut a length list into contiguous chunks with balanced token sums.

    Implements the Appendix A dynamic program: ``DP[k][i]`` is the best
    achievable maximum chunk-token-sum when splitting the first ``k``
    sequences into ``i`` chunks,

        DP[k][i] = min_j max(DP[j][i-1], sum(s_{j+1}..s_k)),

    taking the smallest ``j`` among equally good split points.

    Args:
        lengths: Positive sequence lengths in cutting order — sorted
            for takeaway 2, arrival order for the "w/o Sort" ablation.
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
    the shared per-layer argmins does the work of M' separate DPs for
    the price of one; every count's cuts are bit-identical to an
    independent :func:`balanced_cut_points` call.  Each layer costs one
    ``np.searchsorted`` and a handful of elementwise numpy operations
    over its ``n`` positions (see the comment in the body).

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
    arr = np.asarray(lengths, dtype=np.int64)
    if arr.min() <= 0:
        raise ValueError("sequence lengths must be positive")
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
    prefix = np.concatenate(([0], np.cumsum(arr)))

    # Layer 1 is ``prefix`` itself (its one split point is j = 0).  In
    # layer i >= 2 the candidate ``max(DP[j][i-1], prefix[k] -
    # prefix[j])`` pairs a term nondecreasing in j (DP, for positive
    # lengths) with one strictly decreasing in j (the chunk sum).  Let
    # c be the first j where the DP term reaches the chunk sum: below
    # c the candidates are chunk sums and strictly fall, from c on
    # they are DP values and never fall, so the leftmost argmin is
    # c - 1 or c.  The key ``DP[j][i-1] + prefix[j]`` is strictly
    # increasing and reaches ``prefix[k]`` exactly at c, so one
    # searchsorted finds c for every k of the layer.  When no j < k
    # reaches it, c is clipped to k - 1, whose chunk sum is then the
    # minimum for that k.  ``dp[k]`` holds layer i - 1 for k >= i - 1
    # while layer i fills; lower entries are never read.
    dp = prefix
    choice: dict[int, np.ndarray] = {}  # choice[i][k - i]: argmin j
    for i in range(2, max_chunks + 1):
        target = prefix[i:]
        crossing = np.searchsorted(
            dp[i - 1 : k_total] + prefix[i - 1 : k_total], target
        )
        c = np.minimum(crossing, np.arange(k_total - i + 1)) + (i - 1)
        at_c = np.maximum(dp[c], target - prefix[c])
        before_c = target - prefix[c - 1]
        pick_before = (before_c <= at_c) & (c > i - 1)
        choice[i] = np.where(pick_before, c - 1, c)
        dp = np.concatenate((dp[:i], np.where(pick_before, before_c, at_c)))

    for num_chunks in needed:
        cuts = [k_total]
        for i in range(num_chunks, 1, -1):
            cuts.append(int(choice[i][cuts[-1] - i]))
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
