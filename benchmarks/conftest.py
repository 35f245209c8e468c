"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables or figures and
prints it in a paper-comparable text format.  Output is emitted
outside pytest's capture so that ``pytest benchmarks/`` shows the
tables, and each table is also archived as a ``.txt`` file.  Tables
land in the committed ``benchmarks/results/`` only when ``python -m
repro.bench`` started the run (it sets ``REPRO_BENCH_RECORD=1``); any
other pytest run — tier-1 included — writes them to a pytest temp
dir.  No benchmark writes a perf history: the repo's perf record is
``perfbench/``, and the ``results/BENCH_*.json`` files are a frozen
archive.

The campaign artefacts (Fig. 4, Fig. 6, Table 1, Fig. 7, Fig. 8) are
measured once per session through the campaign engine, in two passes
the artefact benchmarks assert over (:func:`greedy_pass`,
:func:`solver_cost_pass`).

Scale: benchmarks default to a reduced protocol — the paper's cluster
shapes and context limits, but smaller global batches and 1-2 measured
iterations — so the whole suite runs in minutes on a laptop.  Set
``REPRO_BENCH_FULL=1`` for the paper's batch size of 512.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.core.planner import PlannerConfig
from repro.core.solver import SolverConfig
from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    fig4_artefact,
    fig6_artefact,
    fig7_artefact,
    fig8_artefact,
    table1_artefact,
)
from repro.experiments.sweep import SweepRunner
from repro.model.config import GPT_7B, GPT_13B, GPT_30B

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Reduced-protocol knobs (full protocol with REPRO_BENCH_FULL=1).
FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

#: Per-stage SolveStats profiling — set by ``python -m repro.bench
#: <suite> --profile``; suites that support it print their cold-path
#: stage breakdowns.
PROFILE = bool(int(os.environ.get("REPRO_BENCH_PROFILE", "0")))

#: Record into the committed ``results/`` — set by ``python -m
#: repro.bench``; other runs archive to a temp dir (:func:`results_dir`).
RECORD = bool(int(os.environ.get("REPRO_BENCH_RECORD", "0")))

GLOBAL_BATCH = 512 if FULL else 128
NUM_ITERATIONS = 3 if FULL else 1

#: Solver configuration used by benchmark FlexSP runs: the paper's
#: trial count is kept small and the per-solve MILP budget tight so
#: the greedy incumbent carries most of the weight.
BENCH_SOLVER = SolverConfig(
    num_trials=5 if FULL else 2,
    planner=PlannerConfig(time_limit=5.0 if FULL else 1.0, mip_rel_gap=0.05),
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: full-protocol benchmark cells skipped unless REPRO_BENCH_FULL=1 "
        "(keeps tier-1 pytest fast)",
    )


def pytest_collection_modifyitems(config, items):
    """Marker guard: ``slow`` alone is enough to keep a benchmark out
    of CI.

    A bare ``pytest -q benchmarks`` (no ``-m`` selection, no
    ``REPRO_BENCH_FULL=1``) must never silently run full-protocol
    grids — a ``@pytest.mark.slow`` benchmark that forgot its
    ``skipif(not FULL)`` companion would otherwise turn the tier-1
    pass into a minutes-to-hours run.  An explicit ``-m`` expression
    (e.g. ``-m slow``) is a deliberate selection and wins.
    """
    if FULL or config.getoption("-m"):
        return
    guard = pytest.mark.skip(
        reason="slow benchmark: run with REPRO_BENCH_FULL=1 or -m slow"
    )
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(guard)


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> pathlib.Path:
    """Where this session's tables go: the committed ``results/`` under
    ``python -m repro.bench``, else a temp dir."""
    path = RESULTS_DIR if RECORD else tmp_path_factory.mktemp("results")
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture()
def emit(capsys, request, results_dir):
    """Print a report table bypassing capture, and archive it."""

    def _emit(text: str) -> None:
        name = request.node.name.replace("/", "_")
        with open(results_dir / f"{name}.txt", "w") as f:
            f.write(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n")

    return _emit


@pytest.fixture(scope="session")
def bench_batch_size() -> int:
    return GLOBAL_BATCH


@pytest.fixture(scope="session")
def bench_solver_config() -> SolverConfig:
    return BENCH_SOLVER


@pytest.fixture(scope="session")
def greedy_pass() -> CampaignResult:
    """Fig. 4, Fig. 6 and Table 1, measured in one storeless campaign
    pass on the greedy backend (prewarm on).

    Their claims are "FlexSP wins" claims, which hold on the greedy
    planner; the MILP never returns a worse plan than greedy.
    """
    campaign = Campaign(
        name="bench-greedy",
        artefacts=(
            fig4_artefact(
                global_batch_size=GLOBAL_BATCH,
                num_iterations=NUM_ITERATIONS,
                models=(GPT_7B, GPT_13B, GPT_30B),
                contexts=(192 * 1024, 384 * 1024),
            ),
            fig6_artefact(
                global_batch_size=GLOBAL_BATCH,
                num_iterations=NUM_ITERATIONS,
                context_points=tuple(
                    k * 1024 for k in (64, 128, 192, 256, 384)
                ),
            ),
            table1_artefact(),
        ),
    )
    solver = SolverConfig(backend="greedy", num_trials=BENCH_SOLVER.num_trials)
    with SweepRunner(solver_config=solver) as runner:
        return campaign.run(runner)


@pytest.fixture(scope="session")
def solver_cost_pass() -> CampaignResult:
    """Fig. 7 and Fig. 8, measured in one storeless campaign pass on
    :data:`BENCH_SOLVER` with the prewarm off.

    Their claims are about solver cost, so every cell must solve its
    own plans: with the prewarm on, a cell replays seeded plans and
    ``mean_solve_seconds`` measures cache replay.
    """
    campaign = Campaign(
        name="bench-solver-cost",
        artefacts=(
            fig7_artefact(
                global_batch_size=GLOBAL_BATCH,
                num_iterations=NUM_ITERATIONS,
                contexts=(192 * 1024, 384 * 1024),
            ),
            fig8_artefact(
                sequences_per_gpu=2,
                gpu_counts=(64, 128, 256) + ((512,) if FULL else ()),
            ),
        ),
    )
    with SweepRunner(solver_config=BENCH_SOLVER, prewarm=False) as runner:
        return campaign.run(runner)
