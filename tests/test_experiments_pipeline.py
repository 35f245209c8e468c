"""Tests for repro.experiments.pipeline: disaggregated solve/train."""

import time

import pytest

from repro.core.planner import PlannerConfig
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.data.dataset import SyntheticCorpus
from repro.data.distributions import COMMONCRAWL
from repro.experiments.pipeline import TrainingPipeline
from repro.model.config import GPT_7B
from repro.simulator.executor import IterationExecutor


def _solver(cost_model) -> FlexSPSolver:
    return FlexSPSolver(
        cost_model,
        SolverConfig(
            num_trials=1,
            backend="greedy",
            planner=PlannerConfig(time_limit=0.3),
        ),
    )


def _timed(method, log: list):
    """``method`` wrapped to append ``(argument, start, end)`` to
    ``log`` on every call."""

    def timed(argument):
        start = time.perf_counter()
        try:
            return method(argument)
        finally:
            log.append((argument, start, time.perf_counter()))

    return timed


@pytest.fixture(scope="module")
def parts(cost_model16, cluster16, gpt7b_64k):
    executor = IterationExecutor(config=gpt7b_64k, cluster=cluster16)
    corpus = SyntheticCorpus(
        COMMONCRAWL, max_context=32 * 1024, global_batch_size=16
    )
    return _solver(cost_model16), executor, corpus


class TestPipeline:
    def test_runs_requested_steps(self, parts):
        pipeline = TrainingPipeline(*parts, lookahead=2, workers=2)
        report = pipeline.run(4)
        assert len(report.plans) == 4
        assert len(report.iteration_seconds) == 4

    def test_plans_match_direct_solving(self, parts):
        solver, executor, corpus = parts
        pipeline = TrainingPipeline(solver, executor, corpus, lookahead=1)
        report = pipeline.run(2)
        direct = solver.solve(corpus.batch(0).lengths)
        assert report.plans[0].predicted_time == pytest.approx(
            direct.predicted_time
        )

    def test_prefetch_overlaps_solving(
        self, parts, cost_model16, monkeypatch
    ):
        """With lookahead, later steps' solves run while earlier steps
        are still in the trainer: on timestamps taken around every
        ``solve`` and ``executor.run``, a later step's solve starts
        before the trainer has finished the step before it.  The
        solver is the test's own, so no step is cached by an earlier
        test and every solve does real work."""
        __, executor, corpus = parts
        solver = _solver(cost_model16)
        solves: list = []
        trains: list = []
        monkeypatch.setattr(solver, "solve", _timed(solver.solve, solves))
        monkeypatch.setattr(executor, "run", _timed(executor.run, trains))
        pipeline = TrainingPipeline(
            solver, executor, corpus, lookahead=3, workers=3
        )
        report = pipeline.run(5)
        step_of = {corpus.batch(step).lengths: step for step in range(5)}
        solve_start = {step_of[lengths]: start for lengths, start, __ in solves}
        assert sorted(solve_start) == list(range(5))
        # The trainer runs the steps in order, one after another.
        assert [plan for plan, __, ___ in trains] == list(report.plans)
        train_end = [end for __, ___, end in trains]
        assert any(
            solve_start[step] < train_end[step - 1] for step in range(1, 5)
        ), "every later step was solved only once the trainer reached it"
        assert 0.0 <= report.overlap_fraction <= 1.0

    def test_zero_lookahead_still_correct(self, parts):
        pipeline = TrainingPipeline(*parts, lookahead=0, workers=1)
        report = pipeline.run(2)
        assert len(report.plans) == 2

    def test_rejects_bad_args(self, parts):
        solver, executor, corpus = parts
        with pytest.raises(ValueError, match="lookahead"):
            TrainingPipeline(solver, executor, corpus, lookahead=-1)
        with pytest.raises(ValueError, match="workers"):
            TrainingPipeline(solver, executor, corpus, workers=0)
        pipeline = TrainingPipeline(solver, executor, corpus)
        with pytest.raises(ValueError, match="num_steps"):
            pipeline.run(0)
