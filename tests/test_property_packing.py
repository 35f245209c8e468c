"""Property-based tests for sequence packing (hypothesis), and
Best-Fit-Decreasing held to its reference (``tests/bfd_oracle.py``)
with ``==`` on every pack's contents and order."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bfd_oracle import best_fit_decreasing_oracle
from repro.data.packing import best_fit_decreasing, first_fit_decreasing


@st.composite
def lengths_and_capacity(draw):
    capacity = draw(st.integers(min_value=10, max_value=10_000))
    lengths = draw(
        st.lists(
            st.integers(min_value=1, max_value=capacity), min_size=1, max_size=100
        )
    )
    return lengths, capacity


@given(lengths_and_capacity())
@settings(max_examples=100, deadline=None)
def test_bfd_conserves_sequences(case):
    lengths, capacity = case
    packs = best_fit_decreasing(lengths, capacity)
    packed = sorted(s for p in packs for s in p.lengths)
    assert packed == sorted(lengths)


@given(lengths_and_capacity())
@settings(max_examples=100, deadline=None)
def test_bfd_respects_capacity(case):
    lengths, capacity = case
    for pack in best_fit_decreasing(lengths, capacity):
        assert 0 < pack.used <= capacity


@given(lengths_and_capacity())
@settings(max_examples=100, deadline=None)
def test_bfd_lower_bound_on_pack_count(case):
    """No packing can use fewer than ceil(total / capacity) packs."""
    lengths, capacity = case
    packs = best_fit_decreasing(lengths, capacity)
    assert len(packs) >= -(-sum(lengths) // capacity)


@given(lengths_and_capacity())
@settings(max_examples=100, deadline=None)
def test_bfd_half_full_bound(case):
    """Since any two BFD packs jointly overflow capacity, at most one
    pack is half-empty, bounding the count by 2 * volume / capacity + 1."""
    lengths, capacity = case
    packs = best_fit_decreasing(lengths, capacity)
    assert len(packs) <= 2 * sum(lengths) / capacity + 1


@given(lengths_and_capacity())
@settings(max_examples=100, deadline=None)
def test_bfd_matches_ffd_conservation(case):
    """BFD and FFD pack the same multiset (pack counts may differ)."""
    lengths, capacity = case
    bfd = best_fit_decreasing(lengths, capacity)
    ffd = first_fit_decreasing(lengths, capacity)
    assert sorted(s for p in bfd for s in p.lengths) == sorted(
        s for p in ffd for s in p.lengths
    )


@given(lengths_and_capacity())
@settings(max_examples=60, deadline=None)
def test_bfd_no_two_packs_mergeable(case):
    """Optimality sanity: BFD never leaves two packs that could merge
    into one (their combined load fitting capacity) when one holds a
    single smallest item... weaker invariant: the *two emptiest* packs
    cannot both be half-empty unless there is only one pack."""
    lengths, capacity = case
    packs = best_fit_decreasing(lengths, capacity)
    if len(packs) >= 2:
        loads = sorted(p.used for p in packs)
        # The fullest and emptiest pack cannot be merged only if their
        # sum exceeds capacity OR every pack pair overflows; check the
        # two emptiest — if they fit together, BFD would have merged.
        assert loads[0] + loads[1] > capacity or len(packs) == 1


# ---------------------------------------------------------------------------
# Best-Fit-Decreasing against the oracle
# ---------------------------------------------------------------------------


@st.composite
def tie_rich_cases(draw):
    """Batches whose packs tie on remaining capacity: a few lengths
    drawn with repetition, the capacity itself and its divisors among
    them, or packs filled exactly, so that the total is a multiple of
    the capacity."""
    capacity = draw(st.integers(min_value=1, max_value=48))
    divisors = [capacity // k for k in (1, 2, 3, 4) if capacity // k]
    if draw(st.booleans()):
        palette = draw(
            st.lists(
                st.sampled_from(divisors)
                | st.integers(min_value=1, max_value=capacity),
                min_size=1,
                max_size=4,
            )
        )
        lengths = draw(st.lists(st.sampled_from(palette), max_size=120))
    else:
        lengths = []
        for __ in range(draw(st.integers(min_value=0, max_value=12))):
            room = capacity
            while room:
                fits = [d for d in divisors if d <= room] + [room]
                part = draw(
                    st.sampled_from(fits)
                    | st.integers(min_value=1, max_value=room)
                )
                lengths.append(part)
                room -= part
        lengths = draw(st.permutations(lengths))
    return lengths, capacity


@given(tie_rich_cases())
@settings(max_examples=300, deadline=None)
def test_bfd_equals_oracle_on_ties(case):
    lengths, capacity = case
    packs = best_fit_decreasing(lengths, capacity)
    assert packs == best_fit_decreasing_oracle(lengths, capacity)


@given(lengths_and_capacity())
@settings(max_examples=100, deadline=None)
def test_bfd_equals_oracle(case):
    lengths, capacity = case
    packs = best_fit_decreasing(lengths, capacity)
    assert packs == best_fit_decreasing_oracle(lengths, capacity)


@pytest.mark.parametrize("count", [512, 1024])
@pytest.mark.parametrize("capacity", [4_096, 32_768, 393_216])
def test_bfd_equals_oracle_on_corpus_batches(count, capacity):
    """Batch sizes the baselines pack: a long-tailed corpus and the
    same corpus rounded to 512-token multiples (many equal lengths)."""
    rng = random.Random(count + capacity)
    corpus = [
        min(capacity, max(1, int(rng.lognormvariate(7.0, 1.3))))
        for __ in range(count)
    ]
    quantized = [min(capacity, 512 * -(-s // 512)) for s in corpus]
    for lengths in (corpus, quantized):
        packs = best_fit_decreasing(lengths, capacity)
        assert packs == best_fit_decreasing_oracle(lengths, capacity)
        assert sorted(s for p in packs for s in p.lengths) == sorted(lengths)
