"""Extension ablations beyond the paper's own Fig. 7.

1. MILP backend (HiGHS, with greedy incumbent) vs pure greedy LPT —
   plan quality and solve wall-time.
2. Bucket count Q sweep around the paper's default of 16.
3. Micro-batch trial count M' sweep around the paper's default of 5.
"""

import time
from dataclasses import replace

import pytest

from repro.cluster.topology import standard_cluster
from repro.core.planner import PlannerConfig
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.cost.profiler import fit_cost_model
from repro.data.dataset import SyntheticCorpus
from repro.data.distributions import COMMONCRAWL
from repro.experiments.reporting import format_table
from repro.model.config import GPT_7B

MAX_CONTEXT = 192 * 1024


@pytest.fixture(scope="module")
def setup(bench_batch_size):
    cluster = standard_cluster(64)
    config = GPT_7B.with_max_context(MAX_CONTEXT)
    model = fit_cost_model(config, cluster)
    corpus = SyntheticCorpus(
        COMMONCRAWL, max_context=MAX_CONTEXT, global_batch_size=bench_batch_size
    )
    return model, corpus.batch(0).lengths


def _solve(model, batch, config):
    solver = FlexSPSolver(model, config)
    start = time.perf_counter()
    plan = solver.solve(batch)
    return plan.predicted_time, time.perf_counter() - start


def test_ablation_milp_vs_greedy_backend(emit, setup):
    model, batch = setup
    planner = PlannerConfig(time_limit=1.0, mip_rel_gap=0.05)

    def run():
        milp = _solve(model, batch, SolverConfig(
            num_trials=2, backend="milp", planner=planner))
        greedy = _solve(model, batch, SolverConfig(
            num_trials=2, backend="greedy", planner=planner))
        return {"milp": milp, "greedy": greedy}

    results = run()
    emit(
        format_table(
            ["backend", "predicted iteration (s)", "solve wall (s)"],
            [
                [k, f"{pred:.2f}", f"{wall:.2f}"]
                for k, (pred, wall) in results.items()
            ],
            title="Ablation: MILP backend vs greedy LPT fallback",
        )
    )
    # MILP (primed with the greedy incumbent) never predicts worse.
    assert results["milp"][0] <= results["greedy"][0] * 1.001
    # Greedy is at least 3x faster to solve.
    assert results["greedy"][1] < results["milp"][1] / 3


def test_ablation_bucket_count_sweep(emit, setup):
    model, batch = setup
    base = SolverConfig(
        num_trials=2, planner=PlannerConfig(time_limit=1.0, mip_rel_gap=0.05)
    )

    def run():
        results = {}
        for q in (4, 8, 16, 32):
            cfg = replace(base, planner=replace(base.planner, num_buckets=q))
            results[q] = _solve(model, batch, cfg)
        return results

    results = run()
    emit(
        format_table(
            ["Q", "predicted iteration (s)", "solve wall (s)"],
            [
                [str(q), f"{pred:.2f}", f"{wall:.2f}"]
                for q, (pred, wall) in results.items()
            ],
            title="Ablation: bucket count Q (paper default 16)",
        )
    )
    predictions = [pred for pred, __ in results.values()]
    # Bucket count is a robustness knob, not a cliff: predictions stay
    # within a modest band across Q.
    assert max(predictions) < 1.5 * min(predictions)


def test_ablation_trial_count_sweep(emit, setup):
    model, batch = setup
    planner = PlannerConfig(time_limit=1.0, mip_rel_gap=0.05)

    def run():
        results = {}
        for trials in (1, 2, 5):
            cfg = SolverConfig(num_trials=trials, planner=planner)
            results[trials] = _solve(model, batch, cfg)
        return results

    results = run()
    emit(
        format_table(
            ["M'", "predicted iteration (s)", "solve wall (s)"],
            [
                [str(t), f"{pred:.2f}", f"{wall:.2f}"]
                for t, (pred, wall) in results.items()
            ],
            title="Ablation: micro-batch trial count M' (paper default 5)",
        )
    )
    # More trials never hurt the chosen plan.
    assert results[5][0] <= results[1][0] * 1.001
    assert results[2][0] <= results[1][0] * 1.001
