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
and a strictly decreasing term, so a layer is filled by a forward
pointer on short batches and by one ``np.searchsorted`` on long ones
(:func:`balanced_cut_points_multi`).  The same argument holds for any
order of the lengths, so the Fig. 7 "w/o Sort" path takes the same DP.
"""

from __future__ import annotations

import itertools
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


#: Batches of fewer sequences than this fill the DP layers in a scalar
#: loop; longer ones take one ``np.searchsorted`` per layer.  Measured
#: crossover on a 2-vCPU VM: the loops tie at 64 sequences and numpy
#: wins from 80 on, for both 1-5 and 4-8 chunk counts (timings in
#: :func:`balanced_cut_points_multi`).
_SCALAR_DP_BELOW = 64


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
    independent :func:`balanced_cut_points` call.

    Each layer ``i >= 2`` is filled from one crossing per ``k``.  The
    candidate ``max(DP[j][i-1], prefix[k] - prefix[j])`` pairs a term
    nondecreasing in ``j`` (DP, for positive lengths) with one strictly
    decreasing in ``j`` (the chunk sum).  Let ``c`` be the first ``j``
    where the DP term reaches the chunk sum, i.e. where the strictly
    increasing key ``DP[j][i-1] + prefix[j]`` reaches ``prefix[k]``:
    below ``c`` the candidates are chunk sums and strictly fall, from
    ``c`` on they are DP values and never fall, so the leftmost argmin
    is ``c - 1`` or ``c``.  When no ``j < k`` reaches it, ``c`` is
    clipped to ``k - 1``, whose chunk sum is then the minimum.

    Two loops find the crossings, chosen by batch size:

    * below ``_SCALAR_DP_BELOW`` sequences, a scalar loop: ``prefix[k]``
      rises with ``k``, so a layer's crossing never moves back and one
      forward pointer per layer finds them all;
    * from there on, one ``np.searchsorted`` per layer.

    A numpy call has a fixed cost of microseconds whatever its size,
    which the scalar loop beats on short batches; per element the
    scalar loop is slower.  Per call on a 2-vCPU VM, microseconds,
    numpy vs scalar, at chunk counts 1-5 and 4-8: 16 sequences 102 vs
    33 and 142 vs 33; 48 sequences 110 vs 83 and 178 vs 124; 64
    sequences 108 vs 95 and 175 vs 164; 128 sequences 84 vs 166 and
    149 vs 343; 512 sequences 192 vs 991 and 362 vs 1,234.  A trainer's
    batch (16 sequences on the plan service) takes the scalar loop, a
    campaign's (128-512) the numpy one.  Both give the same cuts.

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
    if min(lengths) <= 0:
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
    layers = _scalar_layers if k_total < _SCALAR_DP_BELOW else _numpy_layers
    choice = layers(lengths, needed[-1])
    for num_chunks in needed:
        cuts = [k_total]
        for i in range(num_chunks, 1, -1):
            cuts.append(int(choice[i][cuts[-1] - i]))
        cuts.reverse()
        results[num_chunks] = cuts
    return results


def _scalar_layers(
    lengths: SequenceABC[int], max_chunks: int
) -> dict[int, list[int]]:
    """DP layers ``2..max_chunks`` in plain Python: ``choice[i][k - i]``
    is layer ``i``'s argmin split point for the first ``k`` sequences.

    ``c`` walks forward from ``i - 1`` and stops at the crossing (or at
    ``k - 1``); the next ``k`` resumes from there.  ``dp`` holds layer
    ``i - 1`` (valid for ``k >= i - 1``) while layer ``i`` fills ``nxt``.
    """
    k_total = len(lengths)
    prefix = list(itertools.accumulate(lengths, initial=0))
    dp = prefix
    choice: dict[int, list[int]] = {}
    for i in range(2, max_chunks + 1):
        nxt = dp[:i]
        picks: list[int] = []
        c = i - 1
        for k in range(i, k_total + 1):
            target = prefix[k]
            while c < k - 1 and dp[c] + prefix[c] < target:
                c += 1
            at_c = target - prefix[c]
            if dp[c] > at_c:
                at_c = dp[c]
            if c > i - 1 and target - prefix[c - 1] <= at_c:
                picks.append(c - 1)
                nxt.append(target - prefix[c - 1])
            else:
                picks.append(c)
                nxt.append(at_c)
        choice[i] = picks
        dp = nxt
    return choice


def _numpy_layers(
    lengths: SequenceABC[int], max_chunks: int
) -> dict[int, np.ndarray]:
    """The same layers as :func:`_scalar_layers`, one
    ``np.searchsorted`` over every ``k`` of a layer.

    Layer 1 is ``prefix`` itself (its one split point is j = 0).
    ``dp[k]`` holds layer i - 1 for k >= i - 1 while layer i fills;
    lower entries are never read.
    """
    k_total = len(lengths)
    prefix = np.concatenate(
        ([0], np.cumsum(np.asarray(lengths, dtype=np.int64)))
    )
    dp = prefix
    choice: dict[int, np.ndarray] = {}
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
    return choice


def _cut_order(batch: SequenceBatch, sort: bool) -> tuple[int, ...]:
    """The batch's lengths as Python ints in cutting order: ascending
    for takeaway 2, arrival order for the "w/o Sort" ablation."""
    if sort:
        return tuple(sorted(map(int, batch.lengths)))
    return tuple(map(int, batch.lengths))


def _segments(
    lengths: tuple[int, ...], cuts: SequenceABC[int]
) -> list[tuple[int, ...]]:
    """``lengths`` cut at the chunk ends ``cuts``."""
    return [lengths[start:end] for start, end in zip((0, *cuts), cuts)]


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
    lengths = _cut_order(batch, sort)
    cuts = balanced_cut_points(lengths, num_microbatches)
    return [SequenceBatch(segment) for segment in _segments(lengths, cuts)]


def blast_multi(
    batch: SequenceBatch, counts: SequenceABC[int], sort: bool = True
) -> dict[int, list[tuple[int, ...]]]:
    """Blast one batch at several micro-batch counts in one DP pass.

    The solver's trial sweep calls this once instead of :func:`blast`
    per trial: the batch is sorted and converted to Python ints once and
    the balanced-cut DP runs once to the largest count (see
    :func:`balanced_cut_points_multi`).  Counts that cannot split the
    batch (more chunks than sequences) are simply absent from the
    result.

    Returns:
        ``{count: segments}``: each count's micro-batches as length
        tuples in execution order, equal to the lengths of
        ``blast(batch, count, sort)``.  A sorted blast's segments are
        sorted ``int`` tuples, which is the plan cache's canonical key
        form (:func:`~repro.core.plan_cache.canonical_shape`).
    """
    lengths = _cut_order(batch, sort)
    feasible = [c for c in counts if 0 < c <= len(lengths)]
    if not feasible:
        return {}
    return {
        count: _segments(lengths, cuts)
        for count, cuts in balanced_cut_points_multi(lengths, feasible).items()
    }


def max_microbatch_tokens(microbatches: SequenceABC[SequenceBatch]) -> int:
    """Largest token load among micro-batches (the Eq. 23 objective)."""
    if not microbatches:
        raise ValueError("no micro-batches given")
    return max(mb.total_tokens for mb in microbatches)
