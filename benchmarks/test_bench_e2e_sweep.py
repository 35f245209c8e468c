"""End-to-end experiment-sweep benchmark: the persistent sweep runner
vs. a sequential rebuild-everything pipeline.

The campaign is a Fig. 4-style grid (GPT-7B x three corpora at 192K on
64 GPUs) plus an overlapping Fig. 6-style context slice — the shape of
a real figure-regeneration run, where grids share workloads — measured
over several epochs, because that is the trajectory use case: the
suite is regenerated after every code change, and the sweep runner is
a persistent service whose per-workload state (fitted cost models,
corpus batches, tuned baselines, FlexSP's plan cache) stays warm
across regenerations.

The *reference* path is a strictly sequential (system, workload) loop
that rebuilds every system from scratch for every cell of every epoch:
per-system cost-model fits, baseline tuning, per-system corpus
resampling and a fresh executor.  Both paths run the same evaluators
(the simulator and the baselines have one evaluation path each) and
the same greedy solver backend, so plan *solving* is identical work
where it cannot be reused; the measured difference is the sweep
runner's reuse (cost models, corpora, tuned baselines and plan caches,
across cells and across epochs).  The reference shares the library
with the sweep on purpose: the bar measures reuse, not the library, so
a faster library (cheaper link pricing, fits or tuning) shortens the
reference's rebuilds too and lowers the ratio with no loss of reuse.

Contract:

* >= 4x wall-clock for the multi-epoch campaign;
* per-cell metrics (mean iteration seconds, comm fractions,
  tokens/s/GPU) bit-identical between the two paths, every epoch.
"""

from __future__ import annotations

import math
import time

import pytest

from benchmarks.conftest import FULL
from repro.core.solver import SolverConfig
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_system
from repro.experiments.sweep import SweepRunner, grid_cells
from repro.experiments.systems import (
    DeepSpeedUlyssesSystem,
    FlexSPBatchAdaSystem,
    FlexSPSystem,
    MegatronLMSystem,
)
from repro.experiments.workloads import Workload
from repro.cluster.topology import standard_cluster
from repro.data.distributions import COMMONCRAWL, GITHUB, WIKIPEDIA
from repro.model.config import GPT_7B
from repro.simulator.timing import timing_table

#: Epochs of the campaign: one cold regeneration plus warm reruns.
EPOCHS = 5
NUM_ITERATIONS = 2
#: Timed repeats of the whole comparison.  Each path keeps its fastest
#: repeat: load from other processes only ever adds time, and the
#: sweep's five epochs take a fraction of a second.
REPEATS = 3
SYSTEMS = ("flexsp", "deepspeed", "batchada", "megatron")

#: Both paths share the greedy backend so FlexSP planning is identical
#: work wherever it cannot be reused from the sweep's plan cache.
SWEEP_SOLVER = SolverConfig(backend="greedy", num_trials=2)


def _campaign(global_batch_size: int):
    """Fig. 4-style grid plus the overlapping Fig. 6 context slice."""
    cluster = standard_cluster(64)
    fig4_style = [
        Workload(
            model=GPT_7B,
            distribution=dist,
            max_context=192 * 1024,
            cluster=cluster,
            global_batch_size=global_batch_size,
        )
        for dist in (GITHUB, COMMONCRAWL, WIKIPEDIA)
    ]
    fig6_style = [
        Workload(
            model=GPT_7B,
            distribution=COMMONCRAWL,
            max_context=k * 1024,
            cluster=cluster,
            global_batch_size=global_batch_size,
        )
        for k in (128, 192)  # the 192K point is a Fig. 4 cell
    ]
    return grid_cells(SYSTEMS, fig4_style, NUM_ITERATIONS) + grid_cells(
        SYSTEMS, fig6_style, NUM_ITERATIONS
    )


def _reference_cell(cell):
    """One cell with no reuse: build the system from scratch and measure
    it over freshly sampled batches."""
    workload = cell.workload
    if cell.system == "flexsp":
        system = FlexSPSystem(workload, SWEEP_SOLVER)
    elif cell.system == "deepspeed":
        system = DeepSpeedUlyssesSystem(workload)
    elif cell.system == "batchada":
        system = FlexSPBatchAdaSystem(workload)
    else:
        system = MegatronLMSystem(workload)
    return run_system(
        system, workload, cell.num_iterations, start_step=cell.start_step
    )


def _reference_epoch(cells):
    """One sequential pass over every cell (no reuse at all)."""
    metrics = []
    for cell in cells:
        result = _reference_cell(cell)
        metrics.append(
            (
                result.mean_iteration_seconds,
                result.mean_comm_fraction,
                result.mean_alltoall_fraction,
                result.tokens_per_second_per_gpu(cell.workload.cluster.num_gpus),
            )
        )
    return metrics


def test_e2e_sweep_speedup(emit, bench_batch_size):
    batch_size = bench_batch_size if FULL else 96
    cells = _campaign(batch_size)

    ref_seconds = sweep_seconds = math.inf
    for __ in range(REPEATS):
        # Reference: sequential regeneration, cold each epoch.
        start = time.perf_counter()
        reference_epochs = [
            _reference_epoch(cells) for __ in range(EPOCHS)
        ]
        ref_seconds = min(ref_seconds, time.perf_counter() - start)

        # Sweep service: one persistent runner across the epochs.  Every
        # repeat starts it without the timing tables an earlier repeat
        # memoised, so none runs warmer than the first.
        timing_table.cache_clear()
        runner = SweepRunner(cells, solver_config=SWEEP_SOLVER)
        start = time.perf_counter()
        sweep_epochs = [runner.run() for __ in range(EPOCHS)]
        sweep_seconds = min(sweep_seconds, time.perf_counter() - start)

        # Bit-identical per-cell metrics, every epoch: memoised state
        # and plan-cache reuse must not change a single bit of the
        # simulated measurements.
        for reference, sweep in zip(reference_epochs, sweep_epochs):
            for ref_metrics, cell_metrics in zip(reference, sweep.metrics):
                assert cell_metrics.deterministic() == ref_metrics

        # The warm epochs serve FlexSP plans entirely from the cache.
        for sweep in sweep_epochs[1:]:
            for cell, metrics in zip(sweep.cells, sweep.metrics):
                if cell.system == "flexsp":
                    assert metrics.plan_cache_hit_rate == 1.0

    speedup = ref_seconds / max(sweep_seconds, 1e-9)
    unique = sweep_epochs[0].unique_cells
    rows = [
        (
            "reference (sequential rebuild)",
            f"{ref_seconds:.2f}",
            f"{ref_seconds / EPOCHS:.2f}",
            "-",
        ),
        (
            "sweep runner (memoised)",
            f"{sweep_seconds:.2f}",
            f"{sweep_seconds / EPOCHS:.2f}",
            f"{speedup:.2f}x",
        ),
    ]
    emit(
        f"End-to-end sweep: {EPOCHS} epochs x {len(cells)} cells "
        f"({unique} unique), batch {batch_size}, "
        f"{NUM_ITERATIONS} iterations/cell\n"
        + format_table(["path", "total (s)", "per epoch (s)", "speedup"], rows)
    )

    assert speedup >= 4.0, f"sweep speedup {speedup:.2f}x < 4x"


@pytest.mark.slow
@pytest.mark.skipif(not FULL, reason="full 18-cell grid only with REPRO_BENCH_FULL=1")
def test_e2e_sweep_full_grid(emit, bench_batch_size):
    """The complete Fig. 4 grid through the sweep runner (full protocol)."""
    from repro.experiments.campaign import fig4_artefact
    from repro.model.config import GPT_13B, GPT_30B

    cells = fig4_artefact(
        global_batch_size=bench_batch_size,
        num_iterations=NUM_ITERATIONS,
        models=(GPT_7B, GPT_13B, GPT_30B),
        contexts=(192 * 1024, 384 * 1024),
        systems=SYSTEMS,
    ).cells
    runner = SweepRunner(cells, solver_config=SWEEP_SOLVER)
    result = runner.run()
    flexsp_wins = 0
    for workload_name in {c.workload.name for c in cells}:
        flexsp = result.metric("flexsp", workload_name)
        deepspeed = result.metric("deepspeed", workload_name)
        if flexsp.mean_iteration_seconds <= deepspeed.mean_iteration_seconds * 1.02:
            flexsp_wins += 1
    emit(
        f"Full Fig. 4 grid via sweep runner: {result.unique_cells} cells "
        f"in {result.wall_seconds:.1f}s; FlexSP <= DeepSpeed on "
        f"{flexsp_wins} workloads"
    )
    assert flexsp_wins == len({c.workload.name for c in cells})
