"""Tests for repro.data.packing: best-fit / first-fit packing."""

import random

import pytest

from repro.data.packing import (
    Pack,
    best_fit_decreasing,
    first_fit_decreasing,
    pack_efficiency,
)


def naive_first_fit_decreasing(lengths, capacity):
    """The O(K²) scan the tournament-tree implementation replaced."""
    packs = []
    for s in sorted(lengths, reverse=True):
        for pack in packs:
            if pack.remaining >= s:
                pack.add(s)
                break
        else:
            packs.append(Pack(capacity=capacity, lengths=[s]))
    return packs


class TestPack:
    def test_accounting(self):
        pack = Pack(capacity=100, lengths=[30, 20])
        assert pack.used == 50
        assert pack.remaining == 50

    def test_add_respects_capacity(self):
        pack = Pack(capacity=100, lengths=[90])
        with pytest.raises(ValueError, match="does not fit"):
            pack.add(20)

    @pytest.mark.parametrize(
        "capacity,lengths,message",
        [
            (0, [], "pack capacity must be positive, got 0"),
            (-4, [1], "pack capacity must be positive, got -4"),
            (10, [20, -3], "sequence lengths must be positive, got -3"),
            (10, [5, 0], "sequence lengths must be positive, got 0"),
            (10, [6, 5], "pack holds 11 tokens, over its capacity 10"),
            (10, [11], "pack holds 11 tokens, over its capacity 10"),
        ],
    )
    def test_construction_rejects_invalid_packs(
        self, capacity, lengths, message
    ):
        with pytest.raises(ValueError) as raised:
            Pack(capacity=capacity, lengths=lengths)
        assert str(raised.value) == message

    def test_construction_accepts_empty_and_exactly_full_packs(self):
        assert Pack(capacity=10).remaining == 10
        full = Pack(capacity=10, lengths=[4, 6])
        assert (full.used, full.remaining) == (10, 0)


class TestBestFitDecreasing:
    def test_all_sequences_packed(self):
        lengths = [50, 30, 70, 20, 90, 10]
        packs = best_fit_decreasing(lengths, capacity=100)
        packed = sorted(s for p in packs for s in p.lengths)
        assert packed == sorted(lengths)

    def test_no_pack_overflows(self):
        packs = best_fit_decreasing(list(range(1, 60)), capacity=100)
        assert all(p.used <= p.capacity for p in packs)

    def test_perfect_fit(self):
        packs = best_fit_decreasing([60, 40, 70, 30], capacity=100)
        assert len(packs) == 2
        assert all(p.used == 100 for p in packs)

    def test_best_fit_chooses_tightest_bin(self):
        # After placing 70 and 60, a 40 fits only with the 60; a naive
        # first-fit-any order could leave worse fragmentation.
        packs = best_fit_decreasing([70, 60, 40, 30], capacity=100)
        assert len(packs) == 2

    def test_single_sequence_per_oversized_pack(self):
        packs = best_fit_decreasing([100, 100], capacity=100)
        assert len(packs) == 2

    def test_rejects_over_capacity_sequence(self):
        with pytest.raises(ValueError, match="exceeds pack capacity"):
            best_fit_decreasing([101], capacity=100)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            best_fit_decreasing([1], capacity=0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match="positive"):
            best_fit_decreasing([0], capacity=10)

    def test_empty_input(self):
        assert best_fit_decreasing([], capacity=10) == []

    def test_matches_first_fit_pack_conservation(self):
        lengths = [13, 47, 22, 91, 8, 64, 33, 29, 55]
        bfd = best_fit_decreasing(lengths, capacity=100)
        ffd = first_fit_decreasing(lengths, capacity=100)
        assert sum(p.used for p in bfd) == sum(p.used for p in ffd) == sum(lengths)

    def test_never_more_packs_than_sequences(self):
        lengths = [10] * 25
        packs = best_fit_decreasing(lengths, capacity=100)
        assert len(packs) == 3  # 10 per pack, 25 items -> ceil(25/10)


class TestFirstFitDecreasing:
    def test_identical_assignments_to_naive_scan(self):
        """The segment-tree FFD must place every sequence in exactly
        the pack the naive first-pack-that-fits scan would pick."""
        rng = random.Random(41)
        for __ in range(60):
            capacity = rng.randint(10, 2000)
            lengths = [
                rng.randint(1, capacity) for __ in range(rng.randint(0, 200))
            ]
            fast = first_fit_decreasing(lengths, capacity)
            naive = naive_first_fit_decreasing(lengths, capacity)
            assert [p.lengths for p in fast] == [p.lengths for p in naive]

    def test_many_pack_growth(self):
        """Singleton packs force repeated tournament-tree doubling."""
        lengths = [100] * 37
        packs = first_fit_decreasing(lengths, capacity=100)
        assert len(packs) == 37
        assert all(p.lengths == [100] for p in packs)

    def test_empty_input(self):
        assert first_fit_decreasing([], capacity=10) == []

    def test_rejects_over_capacity_sequence(self):
        with pytest.raises(ValueError, match="exceeds pack capacity"):
            first_fit_decreasing([101], capacity=100)

    def test_first_fit_prefers_lowest_index(self):
        # 60 opens pack 0; 50 opens pack 1 (60+50 > 100); the 30 fits
        # both (rem 40 and 50) and first-fit must take pack 0.
        packs = first_fit_decreasing([60, 50, 30], capacity=100)
        assert [p.lengths for p in packs] == [[60, 30], [50]]


class TestEfficiency:
    def test_full_packs(self):
        packs = best_fit_decreasing([50, 50], capacity=100)
        assert pack_efficiency(packs) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            pack_efficiency([])

    def test_bfd_at_least_half_efficient(self):
        """Classic bin-packing bound: BFD wastes less than half."""
        lengths = [37, 81, 12, 55, 43, 66, 29, 94, 18, 71] * 5
        packs = best_fit_decreasing(lengths, capacity=100)
        assert pack_efficiency(packs) > 0.5
