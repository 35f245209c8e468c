"""Tests for repro.experiments.campaign: the declarative campaign engine.

The engine's contract: every paper artefact grid is a declarative cell
list executed through *one* sweep pass, overlapping cells dedup to one
measurement, and every campaign path (variant cells, store-restored
runs, shared solver pool, deterministic MILP cells) reproduces the
pre-refactor registry/benchmark computations bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from repro.baselines.homogeneous import homogeneous_plan
from repro.cluster.topology import standard_cluster
from repro.core.planner import PlannerConfig
from repro.core.solver import SolverConfig
from repro.data.distributions import COMMONCRAWL, FixedLength
from repro.experiments.campaign import (
    ABLATIONS,
    Artefact,
    Campaign,
    build_campaign,
    fig4_artefact,
    fig6_artefact,
    fig7_artefact,
    fig8_artefact,
    smoke_campaign,
    table1_artefact,
)
from repro.experiments.registry import artefact_grid
from repro.experiments.reporting import format_artefact
from repro.experiments.runner import run_system
from repro.experiments.sweep import SweepCell, SweepRunner
from repro.experiments.systems import FlexSPSystem
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B
from repro.simulator.executor import IterationExecutor

SOLVER = SolverConfig(backend="greedy", num_trials=2)
NUM_GPUS = 8
BATCH = 16
CONTEXT = 32 * 1024


def small_runner(**kwargs) -> SweepRunner:
    return SweepRunner(solver_config=SOLVER, **kwargs)


@pytest.fixture(scope="module")
def campaign() -> Campaign:
    return smoke_campaign(global_batch_size=BATCH, num_gpus=NUM_GPUS)


@pytest.fixture(scope="module")
def result(campaign):
    return campaign.run(small_runner())


class TestArtefactBuilders:
    def test_five_artefacts_cover_the_paper_grids(self, campaign):
        assert [a.key for a in campaign.artefacts] == [
            "fig4",
            "fig6",
            "table1",
            "fig7",
            "fig8",
        ]

    def test_fig4_grid_is_systems_by_corpora(self):
        artefact = fig4_artefact(
            global_batch_size=BATCH, num_gpus=NUM_GPUS, contexts=(CONTEXT,)
        )
        assert len(artefact.cells) == 4 * 3  # systems x corpora
        assert {c.system for c in artefact.cells} == {
            "flexsp",
            "deepspeed",
            "batchada",
            "megatron",
        }

    def test_table1_cells_pin_degrees_via_variants(self):
        artefact = table1_artefact(
            rows=((4 * 1024, 16),),
            degrees=(8, 4),
            num_gpus=NUM_GPUS,
            max_context=CONTEXT,
        )
        assert [dict(c.variant)["sp_degree"] for c in artefact.cells] == [8, 4]
        assert all(c.system == "deepspeed" for c in artefact.cells)
        assert all(
            isinstance(c.workload.distribution, FixedLength)
            for c in artefact.cells
        )

    def test_fig7_cells_are_ablation_variants(self):
        artefact = fig7_artefact(
            global_batch_size=BATCH, num_gpus=NUM_GPUS, contexts=(CONTEXT,)
        )
        assert [c.variant for c in artefact.cells] == [
            variant for __, variant in ABLATIONS
        ]

    def test_empty_artefact_rejected(self):
        with pytest.raises(ValueError, match="no cells"):
            Artefact(key="x", title="x", cells=())

    def test_duplicate_artefact_keys_rejected(self):
        artefact = fig8_artefact(gpu_counts=(NUM_GPUS,), max_context=CONTEXT)
        with pytest.raises(ValueError, match="duplicate"):
            Campaign(name="bad", artefacts=(artefact, artefact))

    def test_unknown_campaign_name(self):
        with pytest.raises(KeyError, match="unknown campaign"):
            build_campaign("nope")

    def test_registry_is_a_thin_adapter(self):
        artefact = artefact_grid(
            "table1",
            rows=((4 * 1024, 8),),
            degrees=(4,),
            num_gpus=NUM_GPUS,
            max_context=CONTEXT,
        )
        assert artefact.key == "table1"
        assert len(artefact.cells) == 1
        with pytest.raises(ValueError, match="not an evaluation grid"):
            artefact_grid("fig2")


class TestDedupAcrossArtefacts:
    def test_overlapping_cells_measured_exactly_once(self, campaign, result):
        cells = campaign.cells
        assert len(cells) > len(set(cells))  # the grids really overlap
        assert result.sweep.unique_cells == len(set(cells))

    def test_shared_cells_share_one_metrics_object(self, result):
        """Fig. 7's un-ablated column, Fig. 8's full-cluster point and
        Fig. 6's largest-context point are all the same Fig. 4 cells —
        dedup must fan out the *same* measurement, not re-measure."""
        fig4 = result.artefact("fig4")
        workload_name = f"gpt-7b/commoncrawl/32K/{NUM_GPUS}gpu"
        flexsp = fig4.metric("flexsp", workload_name)
        assert result.artefact("fig7").metric("flexsp", workload_name) is flexsp
        assert result.artefact("fig8").metric("flexsp", workload_name) is flexsp
        assert result.artefact("fig6").metric("flexsp", workload_name) is flexsp

    def test_summary_counts(self, campaign, result):
        assert len(result.sweep.cells) == len(campaign.cells)
        assert result.sweep.unique_cells == len(set(campaign.cells))
        assert [r.artefact.key for r in result.artefacts] == [
            "fig4",
            "fig6",
            "table1",
            "fig7",
            "fig8",
        ]
        # Each workload's context is built once, by this pass.
        workloads = {cell.workload for cell in campaign.cells}
        assert result.sweep.context_builds == len(workloads)
        assert result.sweep.context_build_seconds > 0.0

    def test_summary_carries_stage_breakdown_and_prewarm(self, result):
        """The pass surfaces the cold-path engine: the per-stage
        SolveStats totals and the cold-batching pass."""
        stages = result.stage_seconds
        assert set(stages) >= {"lpt"}
        assert all(seconds >= 0.0 for seconds in stages.values())
        # This campaign runs serially with prewarming on, so its
        # FlexSP planning happened in the batched cold pass.
        assert result.sweep.prewarm_planned > 0
        assert result.sweep.prewarm_seconds > 0.0
        assert stages["lpt"] > 0.0
        # The greedy backend plans every trial.
        assert result.pruning == {"trials": 0, "microbatches": 0}


class TestArtefactTables:
    """One renderer prints every artefact, for the CLI and benchmarks."""

    @pytest.mark.parametrize(
        "key, header",
        [
            ("fig4", "tok/s/GPU"),
            ("fig6", "tok/s/GPU"),
            ("table1", "min ok"),
            ("fig7", "solve (s)"),
            ("fig8", "amortized (s)"),
        ],
    )
    def test_artefact_renders_its_own_columns(self, result, key, header):
        artefact_result = result.artefact(key)
        title, headers, __, *rows = format_artefact(artefact_result).split("\n")
        assert title == artefact_result.artefact.title
        assert header in headers
        assert rows


class TestBitIdenticalToPreRefactorPaths:
    """Campaign cells must reproduce the ad-hoc registry/benchmark
    computations they replaced, bit for bit."""

    @pytest.fixture(scope="class")
    def workload(self):
        return Workload(
            model=GPT_7B,
            distribution=COMMONCRAWL,
            max_context=CONTEXT,
            cluster=standard_cluster(NUM_GPUS),
            global_batch_size=BATCH,
        )

    def test_table1_cell_matches_homogeneous_executor_path(self):
        """The Table 1 campaign cell == the pre-refactor bench loop:
        fit model, homogeneous_plan at a pinned degree, executor."""
        from repro.cost.profiler import fit_cost_model

        seq, bs, degree = 8 * 1024, 8, 4
        artefact = table1_artefact(
            rows=((seq, bs),),
            degrees=(degree,),
            num_gpus=NUM_GPUS,
            max_context=64 * 1024,
        )
        result = small_runner().run(artefact.cells)
        metrics = result.metrics[0]

        # Reference path (the Table 1 benchmark's own loop before it
        # read the campaign): one fit, fixed-length batch, homogeneous
        # plan, executor — at the same checkpointing policy the
        # workload selects (64K on one node escalates; the paper's
        # 64-GPU protocol does not).
        workload = artefact.cells[0].workload
        cluster = standard_cluster(NUM_GPUS)
        config = GPT_7B.with_max_context(64 * 1024)
        model = fit_cost_model(config, cluster, workload.checkpointing)
        executor = IterationExecutor(
            config=config, cluster=cluster, checkpointing=workload.checkpointing
        )
        plan = homogeneous_plan((seq,) * bs, model, degree)
        reference = executor.run(plan)
        assert metrics.status == "ok"
        assert metrics.mean_iteration_seconds == reference.iteration_seconds
        assert (
            metrics.mean_alltoall_fraction
            == reference.trace.alltoall_seconds() / reference.iteration_seconds
        )

    def test_table1_oom_corner_matches_fits_check(self, cost_model8):
        """A degree the memory model rejects surfaces as an OOM cell."""
        seq, degree = 64 * 1024, 1
        assert not cost_model8.fits([seq], degree)
        artefact = table1_artefact(
            rows=((seq, 4),),
            degrees=(degree,),
            num_gpus=NUM_GPUS,
            max_context=64 * 1024,
        )
        result = small_runner().run(artefact.cells)
        assert result.metrics[0].status == "oom"
        assert not result.metrics[0].feasible
        assert result.metrics[0].deterministic() == (0.0, 0.0, 0.0, 0.0)

    def test_fig7_ablation_cell_matches_ablated_system(self, workload):
        """A bucketing-ablation variant == the pre-refactor bench path
        (FlexSPSystem with a hand-ablated solver)."""
        cell = SweepCell(
            system="flexsp",
            workload=workload,
            num_iterations=2,
            variant=(("bucketing", "naive"),),
        )
        result = small_runner().run([cell])

        system = FlexSPSystem(workload, SOLVER)
        system.solver = system.solver.ablated(
            planner=dataclasses.replace(SOLVER.planner, bucketing="naive")
        )
        reference = run_system(system, workload, 2)
        assert result.metrics[0].deterministic() == (
            reference.mean_iteration_seconds,
            reference.mean_comm_fraction,
            reference.mean_alltoall_fraction,
            reference.tokens_per_second_per_gpu(NUM_GPUS),
        )

    def test_bad_variant_values_raise_instead_of_fabricating_oom(
        self, workload
    ):
        """A typo'd variant value must fail at cell construction, not
        be swallowed downstream and rendered as a fake OOM corner."""
        with pytest.raises(ValueError, match="bucketing"):
            SweepCell(
                system="flexsp",
                workload=workload,
                variant=(("bucketing", "nave"),),
            )
        with pytest.raises(ValueError, match="power of two"):
            SweepCell(
                system="deepspeed",
                workload=workload,
                variant=(("sp_degree", 0),),
            )
        with pytest.raises(ValueError, match="bool"):
            SweepCell(
                system="flexsp",
                workload=workload,
                variant=(("sort_sequences", "no"),),
            )

    def test_variant_order_does_not_split_cells(self, workload):
        a = SweepCell(
            system="flexsp",
            workload=workload,
            variant=(("sort_sequences", False), ("bucketing", "naive")),
        )
        b = SweepCell(
            system="flexsp",
            workload=workload,
            variant=(("bucketing", "naive"), ("sort_sequences", False)),
        )
        assert a == b

    def test_checkpointing_policy_surfaces_in_metrics(self, result):
        """The satellite contract: every cell annotates the chosen
        activation-checkpointing policy for figure regeneration."""
        for cell, metrics in zip(result.sweep.cells, result.sweep.metrics):
            assert metrics.checkpointing == cell.workload.checkpointing.value
        assert {m.checkpointing for m in result.sweep.metrics} <= {
            "none",
            "selective",
            "full",
        }


class TestMilpDeterminism:
    def test_node_limited_milp_cells_are_bit_identical(self):
        """With a deterministic work limit instead of a wall-clock
        budget, MILP cells repeat bit-identically across fresh
        processes' worth of state (fresh runners = fresh solvers)."""
        workload = Workload(
            model=GPT_7B,
            distribution=COMMONCRAWL,
            max_context=16 * 1024,
            cluster=standard_cluster(NUM_GPUS),
            global_batch_size=8,
        )
        config = SolverConfig(
            backend="milp",
            num_trials=2,
            planner=PlannerConfig(node_limit=50, mip_rel_gap=0.05),
        )
        cell = SweepCell(system="flexsp", workload=workload, num_iterations=2)
        first = SweepRunner([cell], solver_config=config).run()
        second = SweepRunner([cell], solver_config=config).run()
        assert (
            first.metrics[0].deterministic()
            == second.metrics[0].deterministic()
        )


class TestCampaignWithStoreAndPool:
    def test_store_restored_campaign_is_bit_identical_and_warm(
        self, campaign, result, tmp_path
    ):
        cold = campaign.run(small_runner(store=tmp_path))
        for a, b in zip(result.sweep.metrics, cold.sweep.metrics):
            assert a.deterministic() == b.deterministic()
        # A fresh runner (fresh process's worth of state) restores
        # everything: identical metrics, fully warm plan caches.
        warm = campaign.run(small_runner(store=tmp_path))
        for a, b in zip(cold.sweep.metrics, warm.sweep.metrics):
            assert a.deterministic() == b.deterministic()
        assert warm.plan_cache_hit_rate == 1.0

    @pytest.mark.parametrize("backend", ["greedy", "milp"])
    def test_shared_solver_pool_is_bit_identical(
        self, campaign, result, backend
    ):
        """The prewarm plans the campaign on the shared pool — for the
        MILP under a deterministic node limit as for greedy — and the
        pooled pass matches the in-process one bit for bit."""
        if backend == "greedy":
            config, reference = SOLVER, result
        else:
            config = SolverConfig(
                backend="milp",
                num_trials=2,
                planner=PlannerConfig(node_limit=200),
            )
            reference = campaign.run(SweepRunner(solver_config=config))
        with SweepRunner(solver_config=config, solver_workers=2) as runner:
            pooled = campaign.run(runner)
            assert pooled.sweep.prewarm_planned > 0
            assert runner._solver_pool.dispatched > 0
        for a, b in zip(reference.sweep.metrics, pooled.sweep.metrics):
            assert a.deterministic() == b.deterministic()

    def test_corrupted_store_never_crashes_a_campaign(
        self, campaign, result, tmp_path
    ):
        """Corruption fuzz at campaign level: with every store file
        and the manifest damaged (truncated / garbage / partial JSON),
        the campaign runs cold-on-miss with bit-identical metrics and
        leaves the store cleanly rewritten."""
        campaign.run(small_runner(store=tmp_path))
        damage = [
            lambda text: text.encode()[: len(text) // 2],  # truncated
            lambda text: b"\x00\xffgarbage",
            lambda text: b'{"version": 1, "plans": ',  # partial JSON
        ]
        for index, path in enumerate(sorted(tmp_path.glob("*.json"))):
            path.write_bytes(damage[index % len(damage)](path.read_text()))
        recovered = campaign.run(small_runner(store=tmp_path))
        for a, b in zip(result.sweep.metrics, recovered.sweep.metrics):
            assert a.deterministic() == b.deterministic()
        # Every load was cold (nothing restorable survived the damage)
        # and the pass respilled a fully valid store.
        assert recovered.sweep.store_stats.hits == 0
        assert recovered.sweep.store_stats.writes > 0
        for path in tmp_path.glob("*.json"):
            json.loads(path.read_text())

    def test_store_write_amplification_below_per_cell_baseline(
        self, campaign, tmp_path
    ):
        """The pass reports the write-amplification figure, and the
        default end-of-pass cadence beats spill-per-cell."""
        per_cell = campaign.run(
            small_runner(store=tmp_path / "per_cell", spill_batch=1)
        )
        batched = campaign.run(small_runner(store=tmp_path / "batched"))
        assert (
            batched.sweep.store_stats.writes
            < per_cell.sweep.store_stats.writes
        )
        assert (
            batched.store_write_amplification
            < per_cell.store_write_amplification
        )
        # End-of-pass spilling writes each workload data file at most
        # once.
        stats = batched.sweep.store_stats
        assert stats.writes <= stats.files


class TestCampaignCli:
    def test_unknown_campaign_name_errors_cleanly(self):
        from repro.bench import main

        with pytest.raises(KeyError, match="unknown campaign"):
            main(["--campaign", "nope", "--no-store"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--campaign", "smoke", "--no-store", "--workers", "2"],
            ["--campaign", "smoke", "--no-store", "--watchdog-seconds", "5"],
            ["--calibrate-workers"],
            ["--campaign", "smoke", "--no-store", "--repeat", "2"],
            ["--calibrate-node-limit", "--campaign", "smoke"],
        ],
        ids=[
            "workers",
            "watchdog-seconds",
            "calibrate-workers",
            "repeat",
            "calibrate-node-limit",
        ],
    )
    def test_removed_fan_out_flags_error_cleanly(self, argv, capsys):
        from repro.bench import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code != 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, flag, value",
        [
            ("--campaign smoke", "--num-trials", "0"),
            ("--campaign smoke", "--node-limit", "0"),
            ("--campaign smoke", "--batch-size", "0"),
            ("--service", "--batch-size", "0"),
            ("--service", "--max-context", "0"),
            ("--service", "--step-window", "0"),
            ("--service", "--cv", "0"),
            ("--service", "--seed", "-1"),
            ("--serve", "--batch-size", "0"),
            ("--serve", "--max-context", "0"),
        ],
        ids=lambda part: part.split()[0].removeprefix("--"),
    )
    def test_bad_numeric_flags_are_argparse_errors(
        self, mode, flag, value, capsys
    ):
        """Out-of-range numbers exit 2 while parsing, naming the flag,
        before any campaign, service or socket is built."""
        from repro.bench import main

        with pytest.raises(SystemExit) as exit_info:
            main([*mode.split(), flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_milp_smoke_reports_trial_pruning(
        self, tmp_path, monkeypatch, capsys
    ):
        """``make bench-smoke-milp``: the ``--profile`` line counts the
        trials the MILP solvers dropped unplanned, and the run writes
        nothing under ``benchmarks/results/``."""
        from repro import bench

        results = tmp_path / "results"
        results.mkdir()
        monkeypatch.setattr(bench, "_benchmarks_dir", lambda: tmp_path)
        argv = [
            "--campaign", "smoke", "--no-store", "--backend", "milp",
            "--node-limit", "200", "--profile",
        ]
        assert bench.main(argv) == 0
        out = capsys.readouterr().out
        match = re.search(
            r"trial pruning: (\d+) trials / (\d+) micro-batches", out
        )
        assert match is not None, out
        trials, microbatches = map(int, match.groups())
        assert trials > 0
        assert microbatches >= trials
        assert list(results.iterdir()) == []


class TestPipelineAdapter:
    def test_pipeline_with_shared_pool_matches_plain(self, cost_model8):
        from repro.core.solver import FlexSPSolver, SolverPool
        from repro.data.dataset import SyntheticCorpus
        from repro.experiments.pipeline import TrainingPipeline

        corpus = SyntheticCorpus(
            COMMONCRAWL, max_context=16 * 1024, global_batch_size=8
        )
        executor = IterationExecutor(
            config=GPT_7B.with_max_context(64 * 1024),
            cluster=standard_cluster(NUM_GPUS),
        )
        plain = TrainingPipeline(
            FlexSPSolver(cost_model8, SOLVER), executor, corpus, workers=1
        ).run(2)
        with SolverPool(workers=2) as pool:
            pooled = TrainingPipeline.with_shared_pool(
                cost_model8, SOLVER, executor, corpus, pool, workers=1
            ).run(2)
        # Plans compare without stats: SolveStats carries host
        # wall-clock, which legitimately differs between runs.
        for a, b in zip(pooled.plans, plain.plans):
            assert a.microbatches == b.microbatches
            assert a.predicted_time == b.predicted_time
        assert pooled.iteration_seconds == plain.iteration_seconds
