"""The plan types' checks and the micro-batch decoder held to their
per-element references (``tests/plan_types_oracle.py``) with
Hypothesis: the same exception type and message on every input, and
``==`` (with the same length int objects) on every decoded plan.  Also
bounds the decoder's shared device-rank table."""

from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from plan_types_oracle import check_group, check_microbatch, decode_microbatch
from repro.core import serialization
from repro.core.serialization import microbatch_from_dict, microbatch_to_dict
from repro.core.types import GroupAssignment, MicroBatchPlan


def _outcome(build) -> tuple | None:
    """``(exception type, message)`` of ``build()``, or None."""
    try:
        build()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)
    return None


#: Lengths as plans carry them, plus zero and negatives, and now and
#: then a float, a NaN or a string, which only the loop can judge.
LENGTH = st.one_of(
    st.integers(min_value=-3, max_value=70_000),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([0.5, -0.5, math.nan, "x"]),
)

#: SP degrees: powers of two, others, zero and negatives.
DEGREE = st.one_of(
    st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    st.integers(min_value=-4, max_value=40),
)


@st.composite
def group_args(draw):
    degree = draw(DEGREE)
    # Rank counts equal to the degree, or off by one either way.
    count = max(0, abs(degree) + draw(st.sampled_from([-1, 0, 0, 1])))
    ranks = tuple(
        draw(st.lists(st.integers(0, 127), min_size=count, max_size=count))
    )
    lengths = tuple(draw(st.lists(LENGTH, max_size=12)))
    return degree, ranks, lengths


@given(group_args())
@settings(max_examples=400, deadline=None)
def test_group_checks_match_the_loops(args):
    degree, ranks, lengths = args
    assert _outcome(
        lambda: GroupAssignment(degree, ranks, lengths)
    ) == _outcome(lambda: check_group(degree, ranks, lengths))


@st.composite
def valid_groups(draw, max_rank: int = 24):
    """Groups that pass their own checks: small rank ranges repeat
    ranks across (and within) groups, and lengths may be empty."""
    degree = draw(st.sampled_from([1, 2, 4, 8]))
    ranks = tuple(
        draw(
            st.lists(
                st.integers(0, max_rank), min_size=degree, max_size=degree
            )
        )
    )
    lengths = tuple(
        draw(st.lists(st.integers(1, 70_000), min_size=0, max_size=6))
    )
    return GroupAssignment(degree, ranks, lengths)


@given(st.lists(valid_groups(), max_size=6))
@settings(max_examples=400, deadline=None)
def test_microbatch_checks_match_the_loops(groups):
    groups = tuple(groups)
    assert _outcome(lambda: MicroBatchPlan(groups)) == _outcome(
        lambda: check_microbatch(groups)
    )


@given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_disjoint_canonical_groups_pass(order):
    """Blocks placed as the planners place them never trip a check."""
    degrees = sorted((2**k for k in order), reverse=True)
    groups, offset = [], 0
    for degree in degrees:
        groups.append(
            GroupAssignment(degree, tuple(range(offset, offset + degree)), (1,))
        )
        offset += degree
    assert _outcome(lambda: MicroBatchPlan(tuple(groups))) is None


@st.composite
def canonical_microbatches(draw):
    """Planner-shaped micro-batches: blocks placed from rank 0, largest
    degree first, and now and then a block off its alignment."""
    degrees = sorted(
        draw(st.lists(st.sampled_from([1, 2, 4, 8, 16]), min_size=1, max_size=5)),
        reverse=True,
    )
    offset = draw(st.sampled_from([0, 0, 0, 1, 3]))
    groups = []
    for degree in degrees:
        lengths = draw(st.lists(st.integers(1, 70_000), min_size=1, max_size=5))
        groups.append(
            GroupAssignment(
                degree, tuple(range(offset, offset + degree)), tuple(lengths)
            )
        )
        offset += degree
    return MicroBatchPlan(tuple(groups))


@given(canonical_microbatches(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_decoder_matches_the_reference(mb, with_values):
    payload = microbatch_to_dict(mb)
    values = None
    if with_values:
        lengths = [s for g in mb.groups for s in g.lengths]
        values = {s: s for s in lengths}
    decoded = microbatch_from_dict(payload, values)
    reference = decode_microbatch(payload, values)
    assert decoded == reference == mb
    for new, old in zip(decoded.groups, reference.groups):
        if values is not None:
            assert all(a is b for a, b in zip(new.lengths, old.lengths))
        assert all(type(r) is int for r in new.device_ranks)


@given(
    st.lists(
        st.one_of(
            st.integers(-2_000, 5_000),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        ),
        max_size=40,
    ),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_rank_table_stays_bounded_for_arbitrary_ranks(ranks, canonical):
    """Whatever rank lists it decodes, the table keeps only canonical
    blocks, at most two per device of its reach, and every rank list
    decodes to its ints."""
    if canonical and ranks:
        size = 1 << (len(ranks).bit_length() - 1)
        first = int(abs(ranks[0])) // size * size
        ranks = list(range(first, first + size))
    table = serialization._RANK_BLOCKS
    try:
        expected = tuple(map(int, ranks))
    except (ValueError, OverflowError):
        return
    assert serialization._rank_block(ranks) == expected
    limit = serialization._RANK_LIMIT
    assert len(table) <= 2 * limit
    for (first, size), (listed, block) in table.items():
        assert size & (size - 1) == 0 and first % size == 0
        assert 0 <= first <= limit - size
        assert block == tuple(listed) == tuple(range(first, first + size))


def test_rank_table_bound_holds_when_every_block_is_fed(monkeypatch):
    """Feeding every aligned block of twice the reach fills the table
    to its bound and no further."""
    monkeypatch.setattr(serialization, "_RANK_BLOCKS", {})
    limit = serialization._RANK_LIMIT
    size = 1
    while size <= 2 * limit:
        for first in range(0, 2 * limit, size):
            block = list(range(first, first + size))
            assert serialization._rank_block(block) == tuple(block)
        size *= 2
    assert len(serialization._RANK_BLOCKS) == 2 * limit - 1
    shared = serialization._rank_block(list(range(8, 16)))
    assert serialization._rank_block(list(range(8, 16))) is shared


@pytest.mark.parametrize(
    "ranks", [[0, 1], [1, 2], [0.0, 1.0], [True], ["0", "1"], []]
)
def test_rank_block_decodes_like_int_per_rank(ranks):
    assert serialization._rank_block(ranks) == tuple(int(r) for r in ranks)
