"""Fig. 8: solver complexity and scalability.

Paper: as the cluster grows from 64 to 1024 GPUs (with the batch
scaled proportionally), estimated per-iteration *training* time stays
roughly level, per-iteration *solving* time grows, but the amortized
solving time — the solver service runs on every node's CPUs, so
divide by N/8 nodes — stays far below the training time, i.e. solving
remains fully overlappable.

We sweep 64..256 GPUs by default (512 with REPRO_BENCH_FULL=1) at 2
sequences per GPU, reading the ``fig8`` artefact of the session's
solver-cost campaign pass (see conftest): every cell solves its own
plans under the benchmark MILP budget, so solve times are what a
deployment would see.  The training column is the simulated
iteration time.
"""

from benchmarks.conftest import FULL
from repro.experiments.reporting import format_artefact

GPU_COUNTS = [64, 128, 256] + ([512] if FULL else [])


def test_fig8_solver_scalability(emit, solver_cost_pass):
    fig8 = solver_cost_pass.artefact("fig8")
    emit(format_artefact(fig8))

    checks = []
    for num_gpus in GPU_COUNTS:
        m = fig8.metric("flexsp", f"gpt-7b/commoncrawl/192K/{num_gpus}gpu")
        amortized = m.mean_solve_seconds / (num_gpus // 8)
        checks.append((num_gpus, m.mean_iteration_seconds, amortized))

    trainings = [training for __, training, __ in checks]
    # Training time stays at a similar level as the cluster and batch
    # scale together (weak scaling).
    assert max(trainings) < 3 * min(trainings)
    # Amortized solving is always overlappable: well under the
    # training time of one iteration.
    for num_gpus, training, amortized in checks:
        assert amortized < training, f"{num_gpus} GPUs"
