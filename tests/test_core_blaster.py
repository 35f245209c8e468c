"""Tests for repro.core.blaster: micro-batch chunking."""

import pytest

from repro.core.blaster import (
    balanced_cut_points,
    balanced_cut_points_multi,
    blast,
    max_microbatch_tokens,
    min_microbatch_count,
)
from repro.core.types import SequenceBatch


class TestMinMicrobatchCount:
    def test_exact_fit_is_one(self):
        assert min_microbatch_count(1000, 1000) == 1

    def test_ceil_division(self):
        assert min_microbatch_count(1001, 1000) == 2
        assert min_microbatch_count(2500, 1000) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="batch_tokens"):
            min_microbatch_count(0, 100)
        with pytest.raises(ValueError, match="capacity"):
            min_microbatch_count(100, 0)


class TestBalancedCutPoints:
    def test_single_chunk(self):
        assert balanced_cut_points([1, 2, 3], 1) == [3]

    def test_chunks_cover_everything(self):
        cuts = balanced_cut_points([5, 5, 5, 5, 5, 5], 3)
        assert cuts[-1] == 6
        assert len(cuts) == 3

    def test_uniform_lengths_split_evenly(self):
        cuts = balanced_cut_points([10] * 12, 4)
        assert cuts == [3, 6, 9, 12]

    def test_minimises_max_segment(self):
        """Appendix A objective: no contiguous 2-split of [1,2,3,4,5]
        beats max=9 ({1,2,3,}|{4,5})."""
        lengths = [1, 2, 3, 4, 5]
        cuts = balanced_cut_points(lengths, 2)
        first = sum(lengths[: cuts[0]])
        second = sum(lengths[cuts[0] :])
        assert max(first, second) == 9

    def test_single_chunk_early_exit_matches_dp(self):
        """num_chunks == 1 must return the whole range without a DP."""
        lengths = [3, 9, 27, 81]
        assert balanced_cut_points(lengths, 1) == [len(lengths)]

    def test_singleton_chunks_early_exit_matches_dp(self):
        """num_chunks == len(lengths) forces one sequence per chunk."""
        lengths = [2, 4, 8, 16, 32]
        assert balanced_cut_points(lengths, len(lengths)) == [1, 2, 3, 4, 5]
        parts = blast(SequenceBatch(lengths=tuple(lengths)), len(lengths))
        assert [p.lengths for p in parts] == [(s,) for s in sorted(lengths)]

    def test_rejects_more_chunks_than_sequences(self):
        with pytest.raises(ValueError, match="non-empty"):
            balanced_cut_points([1, 2], 3)

    def test_rejects_nonpositive_chunks(self):
        with pytest.raises(ValueError, match="num_chunks"):
            balanced_cut_points([1], 0)

    def test_rejects_nonpositive_lengths(self):
        """The one-searchsorted layer step relies on every chunk sum
        strictly falling as its start moves right."""
        with pytest.raises(ValueError, match="positive"):
            balanced_cut_points([3, 0, 2], 2)

    def test_multi_mixes_trivial_and_dp_counts(self):
        """Counts 1 and len(lengths) skip the DP; count 3 runs it in
        the same call."""
        cuts = balanced_cut_points_multi([64] * 12, (1, 3, 12))
        assert cuts == {1: [12], 3: [4, 8, 12], 12: list(range(1, 13))}


class TestBlast:
    def test_partition_preserves_multiset(self):
        batch = SequenceBatch(lengths=(9, 1, 5, 5, 7, 3, 2, 8))
        parts = blast(batch, 3)
        combined = sorted(s for p in parts for s in p.lengths)
        assert combined == sorted(batch.lengths)

    def test_sorted_microbatches_have_contiguous_ranges(self):
        """Takeaway 2: with sorting, each micro-batch spans a contiguous
        length range, minimising within-micro-batch variance."""
        batch = SequenceBatch(lengths=(100, 5, 60, 7, 80, 6, 90, 8))
        parts = blast(batch, 2, sort=True)
        assert max(parts[0].lengths) <= min(parts[1].lengths)

    def test_unsorted_preserves_arrival_order(self):
        batch = SequenceBatch(lengths=(100, 5, 60, 7))
        parts = blast(batch, 2, sort=False)
        flattened = [s for p in parts for s in p.lengths]
        assert flattened == [100, 5, 60, 7]

    def test_token_balance_beats_count_balance(self):
        """One huge sequence should sit alone; the DP must not split
        the rest evenly by count."""
        batch = SequenceBatch(lengths=(1, 1, 1, 1, 1, 1, 1, 1, 1000))
        parts = blast(batch, 2)
        assert max_microbatch_tokens(parts) == 1000
        assert parts[1].lengths == (1000,)

    def test_max_tokens_decreases_with_more_microbatches(self):
        batch = SequenceBatch(lengths=tuple(range(1, 41)))
        maxima = [max_microbatch_tokens(blast(batch, m)) for m in (1, 2, 4, 8)]
        assert maxima == sorted(maxima, reverse=True)
        assert maxima[-1] < maxima[0]

    def test_max_microbatch_tokens_rejects_empty(self):
        with pytest.raises(ValueError, match="no micro-batches"):
            max_microbatch_tokens([])
