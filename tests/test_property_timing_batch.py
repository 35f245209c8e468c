"""Property tests: batched timing kernels == scalar ground truth.

The batched :class:`~repro.simulator.timing.TimingTable` kernels must
reproduce the scalar ``group_compute_time`` / ``group_alltoall_time`` /
``zero3_gather_time`` functions bit-for-bit across randomized plans.

The simulator and the baselines have one evaluation path each.  This
module keeps the scalar reference implementations they once carried
as oracles and holds every path to its oracle with exact ``==``:

* the executor's per-group charges against
  :func:`_scalar_group_times`;
* the homogeneous estimate against the plan walk of
  :func:`_scalar_homogeneous_estimate`;
* Megatron-LM's per-pack array expressions against the per-pack loop
  of :func:`_scalar_megatron_iteration`, built from the collective,
  ring and FLOP functions, so a change to any of those fails here
  until the array path follows it;
* each tuner against the argmin of its oracle estimates, in the
  tuner's candidate order.

None of them takes a ``vectorized=`` switch any more, and passing one
raises ``TypeError``.
"""

from __future__ import annotations

import functools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.batch_adaptive import choose_degree_for_batch
from repro.baselines.homogeneous import (
    estimate_homogeneous_iteration,
    feasible_static_degrees,
    homogeneous_plan,
)
from repro.baselines.megatron import (
    TP_COLLECTIVES_PER_LAYER_PER_DIRECTION,
    MegatronOutcome,
    MegatronStrategy,
    megatron_iteration,
    megatron_strategy_space,
    megatron_token_capacity,
)
from repro.baselines.tuner import choose_static_degree, tune_megatron
from repro.cluster.collectives import all_gather_time, all_reduce_time
from repro.cluster.topology import ClusterSpec, standard_cluster
from repro.core.types import (
    GroupAssignment,
    InfeasibleWorkloadError,
    IterationPlan,
    MicroBatchPlan,
)
from repro.cost.model import CostModel
from repro.data.distributions import COMMONCRAWL
from repro.data.packing import best_fit_decreasing
from repro.experiments.systems import (
    DeepSpeedUlyssesSystem,
    FlexSPBatchAdaSystem,
    FlexSPSystem,
    MegatronLMSystem,
    build_system,
)
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B, GPT_13B, ModelConfig
from repro.model.flops import batch_flops, training_flops_multiplier
from repro.model.memory import ActivationCheckpointing
from repro.parallelism.ring import cp_exposed_comm_time, cp_ring_time
from repro.simulator.executor import IterationExecutor
from repro.simulator.timing import (
    MICROBATCH_LAUNCH_OVERHEAD,
    SATURATION_TOKENS,
    TimingTable,
    group_alltoall_time,
    group_compute_time,
    optimizer_step_time,
    segment_sequential_sums,
    zero3_gather_time,
)

# ----------------------------------------------------------------------
# Oracles: the scalar reference implementations.
# ----------------------------------------------------------------------


def _scalar_group_times(
    executor: IterationExecutor, plan: IterationPlan
) -> list[list[tuple[float, float, float, float]]]:
    """(compute, alltoall, exposed zero-gather, creation) per group, per
    micro-batch, one group at a time through the scalar functions."""
    times = []
    for mb in plan.microbatches:
        row = []
        for g in mb.groups:
            __, creation = executor.pool.get(g.device_ranks)
            compute = group_compute_time(
                executor.config, executor.cluster, g.lengths, g.degree,
                executor.checkpointing,
            )
            link = executor.cluster.group_link(g.device_ranks)
            alltoall = group_alltoall_time(
                executor.config, executor.cluster, g.tokens, g.degree, link
            )
            gather = zero3_gather_time(executor.config, executor.cluster, compute)
            row.append((compute, alltoall, gather, creation))
        times.append(row)
    return times


def _scalar_homogeneous_estimate(
    lengths: tuple[int, ...], model: CostModel, sp_degree: int
) -> float:
    """Sum of per-round makespans, walking a full homogeneous plan."""
    plan = homogeneous_plan(lengths, model, sp_degree)
    total = 0.0
    for mb in plan.microbatches:
        total += max(
            model.time_with_overheads(g.lengths, g.degree) for g in mb.groups
        )
    return total


def _scalar_megatron_iteration(
    lengths: tuple[int, ...],
    config: ModelConfig,
    cluster: ClusterSpec,
    strategy: MegatronStrategy,
    checkpointing: ActivationCheckpointing,
    pack_target: int,
) -> MegatronOutcome:
    """One Megatron-LM iteration, charged pack by pack."""
    capacity = megatron_token_capacity(config, cluster, strategy, checkpointing)
    target = min(pack_target, capacity)
    if any(s > target for s in lengths):
        raise InfeasibleWorkloadError(f"a sequence exceeds {target} tokens")
    packs = [tuple(p.lengths) for p in best_fit_decreasing(lengths, target)]
    packs.sort(key=lambda p: sum(p), reverse=True)
    num_rounds = math.ceil(len(packs) / strategy.dp)
    shards = strategy.tp * strategy.cp

    total = 0.0
    comm_total = 0.0
    for r in range(num_rounds):
        round_time = 0.0
        round_comm = 0.0
        for pack in packs[r * strategy.dp : (r + 1) * strategy.dp]:
            tokens = sum(pack)
            flops = batch_flops(config, pack) * training_flops_multiplier(
                checkpointing
            )
            tokens_per_device = tokens / shards
            derate = tokens_per_device / (tokens_per_device + SATURATION_TOKENS)
            compute = (
                flops / shards / (cluster.gpu.effective_flops * derate)
                + MICROBATCH_LAUNCH_OVERHEAD
            )
            tp_comm = 0.0
            if strategy.tp > 1:
                buffer_bytes = (
                    tokens / strategy.cp * config.hidden_size
                    * config.bytes_per_element
                )
                rounds = config.num_layers * TP_COLLECTIVES_PER_LAYER_PER_DIRECTION * 2
                tp_comm = rounds * all_gather_time(
                    buffer_bytes, strategy.tp, cluster.link_for_degree(strategy.tp)
                )
            cp_comm = 0.0
            if strategy.cp > 1:
                ring = cp_ring_time(
                    config, tokens, strategy.cp,
                    cluster.link_for_degree(strategy.model_shards),
                )
                cp_comm = cp_exposed_comm_time(compute, ring, overlap_efficiency=0.9)
            replica_time = compute + tp_comm + cp_comm
            if replica_time > round_time:
                round_time = replica_time
                round_comm = tp_comm + cp_comm
        total += round_time
        comm_total += round_comm

    grad_sync = 0.0
    if strategy.dp > 1:
        grad_bytes = 2.0 * config.parameter_count() / strategy.tp
        grad_sync = all_reduce_time(
            grad_bytes, strategy.dp, cluster.hierarchical_link()
        )
    total += grad_sync + optimizer_step_time(config, cluster)
    comm_total += grad_sync
    return MegatronOutcome(
        iteration_seconds=total,
        comm_seconds=comm_total,
        num_microbatches=num_rounds,
        strategy=strategy,
    )


def _first_argmin(candidates, score):
    """(candidate, score) of the first candidate with the lowest score."""
    best = None
    for candidate in candidates:
        value = score(candidate)
        if best is None or value < best[1]:
            best = (candidate, value)
    return best


def _random_microbatch(rng: random.Random, num_gpus: int) -> MicroBatchPlan:
    """A valid micro-batch: disjoint aligned power-of-two groups."""
    groups = []
    start = 0
    while start < num_gpus:
        degree = 2 ** rng.randint(0, 3)
        degree = min(degree, num_gpus - start)
        if degree & (degree - 1):  # clamp to a power of two
            degree = 1
        if rng.random() < 0.2:  # leave some devices idle
            start += degree
            continue
        lengths = tuple(
            rng.randint(1, 48 * 1024) for __ in range(rng.randint(1, 24))
        )
        groups.append(
            GroupAssignment(
                degree=degree,
                device_ranks=tuple(range(start, start + degree)),
                lengths=lengths,
            )
        )
        start += degree
    if not groups:
        groups.append(
            GroupAssignment(degree=1, device_ranks=(0,), lengths=(rng.randint(1, 8192),))
        )
    return MicroBatchPlan(groups=tuple(groups))


def _random_plan(rng: random.Random, num_gpus: int) -> IterationPlan:
    return IterationPlan(
        microbatches=tuple(
            _random_microbatch(rng, num_gpus) for __ in range(rng.randint(1, 5))
        )
    )


def _python_segment_sums(values, counts) -> list[float]:
    """The reference: ``total = 0.0; total += v`` over each segment."""
    sums = []
    cursor = 0
    for count in counts:
        total = 0.0
        for v in values[cursor : cursor + count]:
            total += float(v)
        cursor += count
        sums.append(total)
    return sums


class TestSegmentSequentialSums:
    def test_matches_python_accumulation(self):
        rng = np.random.default_rng(11)
        for __ in range(50):
            counts = rng.integers(1, 40, size=rng.integers(1, 30))
            values = rng.uniform(1e6, 1e15, size=int(counts.sum()))
            sums = segment_sequential_sums(values, counts)
            # bit-for-bit
            assert sums.tolist() == _python_segment_sums(values, counts)

    @pytest.mark.parametrize(
        "num_segments,max_width",
        [
            (1, 1024),  # a single segment
            (12, 1024),  # widths up to 1,024 columns
            (300, 512),  # the campaign's widest calls
            (64, 1),  # single-column segments only
        ],
    )
    def test_wide_segments_match_python_accumulation(
        self, num_segments, max_width
    ):
        """Segment widths up to 1,024 and values spread from 1e0 to
        1e15, so each add rounds and the order of the adds shows."""
        rng = np.random.default_rng(num_segments * 7919 + max_width)
        for __ in range(3):
            counts = rng.integers(1, max_width + 1, size=num_segments)
            counts[rng.integers(num_segments)] = max_width
            values = 10.0 ** rng.uniform(0.0, 15.0, size=int(counts.sum()))
            sums = segment_sequential_sums(values, counts)
            assert sums.tolist() == _python_segment_sums(values, counts)

    def test_empty(self):
        assert segment_sequential_sums(np.zeros(0), np.zeros(0, dtype=int)).size == 0


@pytest.mark.parametrize("config", [GPT_7B, GPT_13B], ids=["7b", "13b"])
@pytest.mark.parametrize("num_gpus", [8, 16, 64])
@pytest.mark.parametrize(
    "checkpointing",
    [ActivationCheckpointing.NONE, ActivationCheckpointing.SELECTIVE],
    ids=["none", "selective"],
)
class TestBatchedKernelsBitIdentical:
    def test_kernels_match_scalar(self, config, num_gpus, checkpointing):
        cluster = standard_cluster(num_gpus)
        model = config.with_max_context(64 * 1024)
        table = TimingTable(model, cluster, checkpointing)
        rng = random.Random(hash((config.name, num_gpus, checkpointing.name)) & 0xFFFF)
        plan = _random_plan(rng, num_gpus)
        groups = [g for mb in plan.microbatches for g in mb.groups]
        links = [cluster.group_link(g.device_ranks) for g in groups]
        compute, alltoall, gather = table.group_times(groups, links)
        for i, (group, link) in enumerate(zip(groups, links)):
            scalar_compute = group_compute_time(
                model, cluster, group.lengths, group.degree, checkpointing
            )
            scalar_alltoall = group_alltoall_time(
                model, cluster, group.tokens, group.degree, link
            )
            scalar_gather = zero3_gather_time(model, cluster, scalar_compute)
            assert compute[i] == scalar_compute  # bit-for-bit
            assert alltoall[i] == scalar_alltoall
            assert gather[i] == scalar_gather

    def test_executor_paths_identical(
        self, config, num_gpus, checkpointing, monkeypatch
    ):
        """A run on the batched charges equals a run on the scalar
        oracle's charges."""
        cluster = standard_cluster(num_gpus)
        model = config.with_max_context(64 * 1024)
        rng = random.Random(hash((config.name, num_gpus)) & 0xFFFF)
        plan = _random_plan(rng, num_gpus)

        def executor():
            return IterationExecutor(
                config=model, cluster=cluster, checkpointing=checkpointing
            )

        batched = executor().run(plan)
        oracle = executor()
        monkeypatch.setattr(
            oracle, "_plan_group_times",
            functools.partial(_scalar_group_times, oracle),
        )
        scalar = oracle.run(plan)
        assert batched.iteration_seconds == scalar.iteration_seconds
        assert batched.microbatch_seconds == scalar.microbatch_seconds
        assert batched.group_creation_seconds == scalar.group_creation_seconds
        assert batched.trace.alltoall_seconds() == scalar.trace.alltoall_seconds()
        assert batched.trace.alltoall_fraction() == scalar.trace.alltoall_fraction()


class TestBatchedBaselinesBitIdentical:
    @pytest.fixture(scope="class")
    def probe_batches(self):
        rng = random.Random(23)
        return [
            tuple(rng.randint(256, 32 * 1024) for __ in range(32))
            for __ in range(2)
        ]

    def test_homogeneous_estimates(self, cost_model16, probe_batches):
        for degree in feasible_static_degrees(cost_model16, 32 * 1024):
            for batch in probe_batches:
                assert estimate_homogeneous_iteration(
                    batch, cost_model16, degree
                ) == _scalar_homogeneous_estimate(batch, cost_model16, degree)

    def test_megatron_iterations(self, cluster16, gpt7b_64k, probe_batches):
        checkpointing = ActivationCheckpointing.NONE
        for strategy in megatron_strategy_space(cluster16):
            capacity = megatron_token_capacity(
                gpt7b_64k, cluster16, strategy, checkpointing
            )
            if capacity < 32 * 1024:
                continue
            for batch in probe_batches:
                fast = megatron_iteration(
                    batch, gpt7b_64k, cluster16, strategy, checkpointing,
                    pack_target=32 * 1024,
                )
                scalar = _scalar_megatron_iteration(
                    batch, gpt7b_64k, cluster16, strategy, checkpointing,
                    pack_target=32 * 1024,
                )
                assert fast.iteration_seconds == scalar.iteration_seconds
                assert fast.comm_seconds == scalar.comm_seconds
                assert fast.num_microbatches == scalar.num_microbatches

    def test_tuner_choices(self, cost_model16, cluster16, gpt7b_64k, probe_batches):
        max_context = 32 * 1024
        static, __ = _first_argmin(
            feasible_static_degrees(cost_model16, max_context),
            lambda d: sum(
                _scalar_homogeneous_estimate(batch, cost_model16, d)
                for batch in probe_batches
            ),
        )
        assert choose_static_degree(
            probe_batches, cost_model16, max_context
        ) == static

        checkpointing = ActivationCheckpointing.NONE
        strategy, __ = _first_argmin(
            [
                s for s in megatron_strategy_space(cluster16)
                if megatron_token_capacity(gpt7b_64k, cluster16, s, checkpointing)
                >= max_context
            ],
            lambda s: sum(
                _scalar_megatron_iteration(
                    batch, gpt7b_64k, cluster16, s, checkpointing,
                    pack_target=max_context,
                ).iteration_seconds
                for batch in probe_batches
            ),
        )
        assert tune_megatron(
            probe_batches, gpt7b_64k, cluster16, max_context
        ) == strategy

        num_gpus = cluster16.num_gpus
        for batch in probe_batches:
            degrees = [
                d for d in (2**k for k in range(num_gpus.bit_length()))
                if num_gpus % d == 0 and cost_model16.fits([max(batch)], d)
            ]
            assert choose_degree_for_batch(batch, cost_model16) == _first_argmin(
                degrees,
                lambda d: _scalar_homogeneous_estimate(batch, cost_model16, d),
            )


#: Every surface that once took ``vectorized=``, called with it.
VECTORIZED_CALLERS = {
    "IterationExecutor": lambda f: IterationExecutor(
        config=f.model, cluster=f.cluster, vectorized=False
    ),
    "estimate_homogeneous_iteration": lambda f: estimate_homogeneous_iteration(
        (1024,), f.cost_model, 1, vectorized=False
    ),
    "megatron_iteration": lambda f: megatron_iteration(
        (1024,), f.model, f.cluster, MegatronStrategy(tp=1, cp=1, dp=16),
        vectorized=False,
    ),
    "choose_static_degree": lambda f: choose_static_degree(
        [(1024,)], f.cost_model, 1024, vectorized=False
    ),
    "tune_megatron": lambda f: tune_megatron(
        [(1024,)], f.model, f.cluster, 1024, vectorized=False
    ),
    "choose_degree_for_batch": lambda f: choose_degree_for_batch(
        (1024,), f.cost_model, vectorized=False
    ),
    "FlexSPSystem": lambda f: FlexSPSystem(f.workload, vectorized=False),
    "DeepSpeedUlyssesSystem": lambda f: DeepSpeedUlyssesSystem(
        f.workload, vectorized=False
    ),
    "FlexSPBatchAdaSystem": lambda f: FlexSPBatchAdaSystem(
        f.workload, vectorized=False
    ),
    "MegatronLMSystem": lambda f: MegatronLMSystem(f.workload, vectorized=False),
    **{
        f"build_system-{name}": (
            lambda f, name=name: build_system(name, f.workload, vectorized=False)
        )
        for name in ("flexsp", "deepspeed", "batchada", "megatron")
    },
}


@pytest.mark.parametrize("caller", sorted(VECTORIZED_CALLERS))
def test_removed_vectorized_option_fails_loudly(
    caller, cluster16, gpt7b_64k, cost_model16
):
    # One evaluation path per system: a call still passing the old
    # switch must raise, never run with another meaning.
    surfaces = SimpleNamespace(
        model=gpt7b_64k,
        cluster=cluster16,
        cost_model=cost_model16,
        workload=Workload(
            model=GPT_7B,
            distribution=COMMONCRAWL,
            max_context=32 * 1024,
            cluster=cluster16,
            global_batch_size=32,
        ),
    )
    with pytest.raises(TypeError, match="vectorized"):
        VECTORIZED_CALLERS[caller](surfaces)
