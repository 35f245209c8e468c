"""Property tests for :func:`repro.core.planner.makespan_lower_bound`.

The solver's trial pruning is exact only if the bound never exceeds the
prediction either planner backend returns, and is infinite exactly
where the planners must reject the shape.  Both are checked here over
random micro-batches on 8/16/64-GPU clusters, with the ZeRO-3 gather on
and off and with All-to-All and ring communication.
"""

import dataclasses
import functools
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster.topology import standard_cluster
from repro.core.planner import (
    PlanInfeasibleError,
    PlannerConfig,
    makespan_lower_bound,
    plan_microbatch,
)
from repro.core.planner_greedy import plan_microbatch_greedy
from repro.cost.profiler import fit_cost_model
from repro.model.config import GPT_7B

#: (GPUs, communication model, ZeRO-3 gather on) per fitted model.
SPECS = [
    (gpus, comm, gather)
    for gpus in (8, 16, 64)
    for comm in ("alltoall", "ring")
    for gather in (True, False)
]

#: Short and long sequences; the long ones overflow the smaller
#: clusters, alone or together, so both rejection causes come up.
lengths_strategy = st.lists(
    st.one_of(
        st.integers(min_value=16, max_value=4_096),
        st.integers(min_value=4_096, max_value=48_000),
    ),
    min_size=1,
    max_size=24,
)

#: Float rounding only: the bound and a prediction sum the same terms
#: in different orders.  The solver prunes with a 1e-9 margin.
ROUNDING = 1 + 1e-12


@functools.lru_cache(maxsize=None)
def _model(spec):
    gpus, comm, gather = spec
    model = fit_cost_model(
        GPT_7B.with_max_context(64 * 1024),
        standard_cluster(gpus),
        comm_model=comm,
    )
    if gather:
        return model
    coeffs = dataclasses.replace(model.coeffs, zero_gather_seconds=0.0)
    return dataclasses.replace(model, coeffs=coeffs)


def _must_reject(model, lengths) -> bool:
    """The shape holds more tokens than the cluster, or a sequence
    that fits no degree."""
    return sum(lengths) > model.cluster_token_capacity() or any(
        model.min_degree_for_sequence(s) is None for s in lengths
    )


def _check(planner, spec, lengths):
    model = _model(spec)
    lengths = tuple(lengths)
    bound = makespan_lower_bound(model, lengths)
    rejected = _must_reject(model, lengths)
    assert math.isinf(bound) == rejected
    if rejected:
        with pytest.raises(PlanInfeasibleError):
            planner(lengths, model)
        return
    assert bound > 0
    try:
        __, predicted = planner(lengths, model)
    except PlanInfeasibleError:
        return  # a packing failure the closed-form bound cannot see
    assert bound <= predicted * ROUNDING


@given(spec=st.sampled_from(SPECS), lengths=lengths_strategy)
@settings(max_examples=200, deadline=None)
def test_bound_below_greedy_prediction(spec, lengths):
    _check(plan_microbatch_greedy, spec, lengths)


@given(spec=st.sampled_from(SPECS), lengths=lengths_strategy)
@settings(max_examples=40, deadline=None)
def test_bound_below_milp_prediction(spec, lengths):
    config = PlannerConfig(node_limit=20)
    _check(
        lambda shape, model: plan_microbatch(shape, model, config),
        spec,
        lengths,
    )


def test_single_sequence_bound_is_tight():
    """One sequence alone: the bound is that sequence's best time."""
    model = _model((8, "alltoall", True))
    __, predicted = plan_microbatch_greedy((4096,), model)
    assert makespan_lower_bound(model, (4096,)) == predicted


def test_bound_ignores_order():
    model = _model((16, "ring", False))
    lengths = (512, 9000, 2048, 300)
    assert makespan_lower_bound(model, lengths) == makespan_lower_bound(
        model, tuple(sorted(lengths))
    )


def test_empty_shape_rejected():
    with pytest.raises(ValueError, match="empty"):
        makespan_lower_bound(_model((8, "alltoall", True)), ())
