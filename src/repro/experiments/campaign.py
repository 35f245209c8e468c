"""Declarative campaign engine: every paper artefact as one sweep.

A :class:`Campaign` expresses the paper's evaluation artefacts —
Fig. 4's throughput grid, Fig. 6's cluster/context scaling slices,
Table 1's capacity frontier, Fig. 7's ablation matrix, Fig. 8's weak
scaling — as declarative :class:`~repro.experiments.sweep.SweepCell`
grids with per-artefact metric reducers, and executes *all* of them in
one :class:`~repro.experiments.sweep.SweepRunner` pass.  Cells shared
between artefacts (Fig. 6's 192K point is a Fig. 4 cell; Fig. 7's
un-ablated FlexSP column and Fig. 8's largest-cluster point likewise)
are measured exactly once and fanned back out, and every cell rides
the runner's shared per-workload state, optional persistent
:class:`~repro.core.cache_store.CacheStore` and shared
:class:`~repro.core.solver.SolverPool`.

The grid vocabulary is exactly the sweep's:

* plain (system, workload) cells for the throughput grids;
* ``variant`` cells for parameterised artefacts — Table 1 pins
  DeepSpeed's SP degree per cell, Fig. 7 selects solver ablations;
* per-artefact **reducers** condense the aligned
  :class:`~repro.experiments.sweep.CellMetrics` into the artefact's
  JSON-ready summary (frontier rows, ablation ratios, scaling curves).

Two ready-made campaigns cover the tooling entry points
(``python -m repro.bench --campaign ...`` and ``make bench`` /
``make bench-smoke``): :func:`unified_campaign` is the reduced-protocol
regeneration of all five artefacts, :func:`smoke_campaign` a
minutes-to-seconds tier for CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cluster.topology import standard_cluster
from repro.core import stage_timing
from repro.data.distributions import (
    COMMONCRAWL,
    GITHUB,
    WIKIPEDIA,
    FixedLength,
)
from repro.experiments.sweep import (
    CellMetrics,
    SweepCell,
    SweepResult,
    SweepRunner,
    find_cell_metrics,
    grid_cells,
)
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B, GPT_13B, GPT_30B, ModelConfig

__all__ = [
    "ARTEFACT_BUILDERS",
    "CAMPAIGNS",
    "Artefact",
    "ArtefactResult",
    "Campaign",
    "CampaignResult",
    "build_campaign",
    "fig4_artefact",
    "fig6_artefact",
    "fig7_artefact",
    "fig8_artefact",
    "smoke_campaign",
    "table1_artefact",
    "unified_campaign",
]

#: Every evaluated system, in the paper's ordering.
DEFAULT_SYSTEMS = ("flexsp", "deepspeed", "batchada", "megatron")

#: Fig. 7's ablation columns as sweep-cell variants.
ABLATIONS: tuple[tuple[str, tuple[tuple[str, object], ...]], ...] = (
    ("FlexSP", ()),
    ("w/o Sort", (("sort_sequences", False),)),
    ("w/ naive BKT", (("bucketing", "naive"),)),
    ("w/o BKT", (("bucketing", "none"),)),
)

Reducer = Callable[
    ["Artefact", Sequence[SweepCell], Sequence[CellMetrics]], dict
]


# ---------------------------------------------------------------------------
# Reducers: aligned cell metrics -> the artefact's JSON-ready summary.
# ---------------------------------------------------------------------------


def throughput_summary(
    artefact: "Artefact",
    cells: Sequence[SweepCell],
    metrics: Sequence[CellMetrics],
) -> dict:
    """Fig. 4/6-style reduction: per-workload system comparison.

    Rows keyed by workload name carry each system's mean iteration
    seconds and tokens/s/GPU plus the chosen checkpointing policy;
    ``flexsp_speedup`` is FlexSP's iteration-time advantage over the
    best measured baseline of that workload.
    """
    rows: dict[str, dict] = {}
    for cell, m in zip(cells, metrics):
        row = rows.setdefault(
            m.workload, {"systems": {}, "checkpointing": m.checkpointing}
        )
        row["systems"][cell.system] = {
            "status": m.status,
            "mean_iteration_seconds": m.mean_iteration_seconds,
            "tokens_per_second_per_gpu": m.tokens_per_second_per_gpu,
            "plan_cache_hit_rate": m.plan_cache_hit_rate,
        }
    for row in rows.values():
        flexsp = row["systems"].get("flexsp")
        baselines = [
            s["mean_iteration_seconds"]
            for name, s in row["systems"].items()
            if name != "flexsp" and s["status"] == "ok"
        ]
        if flexsp and flexsp["status"] == "ok" and baselines:
            row["flexsp_speedup"] = round(
                min(baselines) / flexsp["mean_iteration_seconds"], 4
            )
    return {"workloads": rows}


def frontier_summary(
    artefact: "Artefact",
    cells: Sequence[SweepCell],
    metrics: Sequence[CellMetrics],
) -> dict:
    """Table 1 reduction: iteration time / All-to-All share per
    (sequence length, SP degree), OOM corners marked, plus the minimum
    feasible degree of every row (the capacity frontier)."""
    rows: dict[str, dict] = {}
    for cell, m in zip(cells, metrics):
        seq = cell.workload.distribution.length
        bs = cell.workload.global_batch_size
        degree = dict(cell.variant)["sp_degree"]
        label = f"{seq // 1024}K x {bs}"
        row = rows.setdefault(label, {"degrees": {}})
        row["degrees"][str(degree)] = (
            "OOM"
            if m.status == "oom"
            else (
                f"{m.mean_iteration_seconds:.1f}s/"
                f"{100 * m.mean_alltoall_fraction:.0f}%"
            )
        )
    for row in rows.values():
        feasible = [
            int(d) for d, v in row["degrees"].items() if v != "OOM"
        ]
        row["min_feasible_degree"] = min(feasible) if feasible else None
    return {"rows": rows}


def ablation_summary(
    artefact: "Artefact",
    cells: Sequence[SweepCell],
    metrics: Sequence[CellMetrics],
) -> dict:
    """Fig. 7 reduction: per workload, each ablation's iteration time
    relative to the full system (and its solve seconds)."""
    label_of = {variant: label for label, variant in ABLATIONS}
    rows: dict[str, dict] = {}
    for cell, m in zip(cells, metrics):
        row = rows.setdefault(m.workload, {})
        row[label_of[cell.variant]] = {
            "mean_iteration_seconds": m.mean_iteration_seconds,
            "mean_solve_seconds": m.mean_solve_seconds,
        }
    for row in rows.values():
        base = row.get("FlexSP", {}).get("mean_iteration_seconds")
        if base:
            for entry in row.values():
                entry["relative"] = round(
                    entry["mean_iteration_seconds"] / base, 4
                )
    return {"workloads": rows}


def scaling_summary(
    artefact: "Artefact",
    cells: Sequence[SweepCell],
    metrics: Sequence[CellMetrics],
) -> dict:
    """Fig. 8 reduction: per cluster size, simulated training seconds
    vs host solve seconds and the per-node amortized solve time (the
    solver service runs on every node's CPUs)."""
    rows: dict[str, dict] = {}
    for cell, m in zip(cells, metrics):
        cluster = cell.workload.cluster
        rows[str(cluster.num_gpus)] = {
            "training_seconds": m.mean_iteration_seconds,
            "solve_seconds": m.mean_solve_seconds,
            "amortized_solve_seconds": m.mean_solve_seconds
            / max(cluster.num_nodes, 1),
            "plan_cache_hit_rate": m.plan_cache_hit_rate,
        }
    return {"clusters": rows}


# ---------------------------------------------------------------------------
# The campaign structures.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Artefact:
    """One paper artefact expressed as a declarative cell grid.

    Attributes:
        key: Short id (``"fig4"``, ``"table1"``, ...).
        title: The paper's name for the artefact.
        cells: The grid, in presentation order.
        reducer: Condenses the aligned per-cell metrics into the
            artefact's JSON-ready summary.
    """

    key: str
    title: str
    cells: tuple[SweepCell, ...]
    reducer: Reducer = field(default=throughput_summary)

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError(f"artefact {self.key!r} has no cells")


@dataclass(frozen=True)
class ArtefactResult:
    """One artefact's slice of a campaign run."""

    artefact: Artefact
    cells: tuple[SweepCell, ...]
    metrics: tuple[CellMetrics, ...]
    summary: dict

    def metric(
        self,
        system: str,
        workload_name: str,
        variant: tuple[tuple[str, object], ...] = (),
    ) -> CellMetrics:
        """Look one cell's metrics up within this artefact."""
        found = find_cell_metrics(
            self.cells, self.metrics, system, workload_name, variant
        )
        if found is None:
            raise KeyError(
                f"artefact {self.artefact.key!r} has no cell for "
                f"system={system!r} workload={workload_name!r} "
                f"variant={variant!r}"
            )
        return found


@dataclass(frozen=True)
class Campaign:
    """A named set of artefacts regenerated in one sweep pass.

    Attributes:
        name: Campaign id (``"unified"``, ``"smoke"``, ...).
        artefacts: The artefact grids, in presentation order.
    """

    name: str
    artefacts: tuple[Artefact, ...]

    def __post_init__(self) -> None:
        if not self.artefacts:
            raise ValueError("a campaign needs at least one artefact")
        keys = [a.key for a in self.artefacts]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate artefact keys: {keys}")

    @property
    def cells(self) -> tuple[SweepCell, ...]:
        """Every artefact's cells, concatenated in artefact order.

        Duplicates across artefacts are intentional — the sweep runner
        measures each distinct cell once and fans the shared metrics
        back out to every artefact that requested it.
        """
        return tuple(
            cell for artefact in self.artefacts for cell in artefact.cells
        )

    def artefact(self, key: str) -> Artefact:
        for artefact in self.artefacts:
            if artefact.key == key:
                return artefact
        raise KeyError(
            f"campaign {self.name!r} has no artefact {key!r}; known: "
            f"{[a.key for a in self.artefacts]}"
        )

    def run(self, runner: SweepRunner) -> "CampaignResult":
        """Execute every artefact grid through one sweep pass."""
        sweep = runner.run(self.cells)
        results = []
        offset = 0
        for artefact in self.artefacts:
            n = len(artefact.cells)
            cells = sweep.cells[offset : offset + n]
            metrics = sweep.metrics[offset : offset + n]
            results.append(
                ArtefactResult(
                    artefact=artefact,
                    cells=cells,
                    metrics=metrics,
                    summary=artefact.reducer(artefact, cells, metrics),
                )
            )
            offset += n
        return CampaignResult(
            campaign=self, sweep=sweep, artefacts=tuple(results)
        )


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one campaign pass (all artefacts, one sweep)."""

    campaign: Campaign
    sweep: SweepResult
    artefacts: tuple[ArtefactResult, ...]

    def artefact(self, key: str) -> ArtefactResult:
        for result in self.artefacts:
            if result.artefact.key == key:
                return result
        raise KeyError(f"no artefact result {key!r}")

    @property
    def plan_cache_hit_rate(self) -> float:
        """Mean plan-cache hit rate over the feasible FlexSP cells —
        the campaign-level warmth figure the CLI prints and the
        restored-store benchmarks hold to >= 90 %.  Averaged over
        *unique* cells, so a measurement shared by several artefacts
        counts once."""
        rates = {
            cell: m.plan_cache_hit_rate
            for cell, m in zip(self.sweep.cells, self.sweep.metrics)
            if cell.system == "flexsp" and m.feasible
        }
        if not rates:
            return 0.0
        return sum(rates.values()) / len(rates)

    def _unique_metrics(self) -> list[CellMetrics]:
        """One metrics row per distinct cell of the pass."""
        unique: dict = {}
        for cell, m in zip(self.sweep.cells, self.sweep.metrics):
            unique.setdefault(cell, m)
        return list(unique.values())

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Cold-path planning stage totals (enumerate / lpt /
        milp_build / milp_solve) over the pass: every *unique* cell's
        solve-side breakdown plus the runner's cold-batching prewarm
        pass, which is where a prewarmed campaign's planning actually
        happens.  Host wall-clock (``--profile`` report)."""
        totals: dict[str, float] = {}
        for m in self._unique_metrics():
            stage_timing.accumulate(totals, m.stage_seconds)
        stage_timing.accumulate(totals, self.sweep.prewarm_stage_seconds)
        return totals

    @property
    def pruning(self) -> dict[str, int]:
        """Trials and micro-batches the solvers' trial-pruning step
        dropped unplanned, summed over the pass's unique cells (see
        :class:`~repro.core.types.SolveStats`)."""
        unique = self._unique_metrics()
        return {
            "trials": sum(m.pruned_trials for m in unique),
            "microbatches": sum(m.pruned_microbatches for m in unique),
        }

    @property
    def store_write_amplification(self) -> float | None:
        """Store data-file writes per measured cell for this pass —
        the figure the batched-spill engine drives below the
        spill-per-cell baseline (None without a store)."""
        stats = self.sweep.store_stats
        if stats is None:
            return None
        return stats.writes / max(self.sweep.unique_cells, 1)


# ---------------------------------------------------------------------------
# Artefact builders.  Scale knobs default to the reduced protocol; the
# paper's full shapes are one argument away (e.g. the full Fig. 4 grid
# via models=(GPT_7B, GPT_13B, GPT_30B), contexts=(192K, 384K)).
# ---------------------------------------------------------------------------


def fig4_artefact(
    *,
    global_batch_size: int,
    num_iterations: int = 1,
    num_gpus: int = 64,
    models: Sequence[ModelConfig] = (GPT_7B,),
    contexts: Sequence[int] = (192 * 1024,),
    distributions=(GITHUB, COMMONCRAWL, WIKIPEDIA),
    systems: Sequence[str] = DEFAULT_SYSTEMS,
) -> Artefact:
    """Fig. 4: end-to-end iteration time, systems x corpora (x models)."""
    cluster = standard_cluster(num_gpus)
    workloads = [
        Workload(
            model=model,
            distribution=dist,
            max_context=context,
            cluster=cluster,
            global_batch_size=global_batch_size,
        )
        for model in models
        for context in contexts
        for dist in distributions
    ]
    return Artefact(
        key="fig4",
        title="Fig. 4: end-to-end iteration time",
        cells=tuple(grid_cells(systems, workloads, num_iterations)),
        reducer=throughput_summary,
    )


def fig6_artefact(
    *,
    global_batch_size: int,
    num_iterations: int = 1,
    gpu_counts: Sequence[int] = (16, 32, 64),
    gpu_scaling_context: int = 128 * 1024,
    context_points: Sequence[int] = (128 * 1024, 192 * 1024),
    context_scaling_gpus: int = 64,
    distribution=COMMONCRAWL,
    systems: Sequence[str] = DEFAULT_SYSTEMS,
) -> Artefact:
    """Fig. 6: tokens/s/GPU under cluster scaling and context scaling.

    The 192K context point on the 64-GPU cluster deliberately
    coincides with a Fig. 4 cell (when the batch sizes match) — the
    campaign measures it once.
    """
    workloads = [
        Workload(
            model=GPT_7B,
            distribution=distribution,
            max_context=gpu_scaling_context,
            cluster=standard_cluster(n),
            global_batch_size=global_batch_size,
        )
        for n in gpu_counts
    ] + [
        Workload(
            model=GPT_7B,
            distribution=distribution,
            max_context=context,
            cluster=standard_cluster(context_scaling_gpus),
            global_batch_size=global_batch_size,
        )
        for context in context_points
    ]
    return Artefact(
        key="fig6",
        title="Fig. 6: scalability (cluster size and context length)",
        cells=tuple(grid_cells(systems, workloads, num_iterations)),
        reducer=throughput_summary,
    )


#: Table 1's (sequence length, batch size) rows: 4M tokens per row.
TABLE1_ROWS = (
    (4 * 1024, 1024),
    (8 * 1024, 512),
    (16 * 1024, 256),
    (32 * 1024, 128),
    (64 * 1024, 64),
    (128 * 1024, 32),
    (256 * 1024, 16),
)


def table1_artefact(
    *,
    rows: Sequence[tuple[int, int]] = TABLE1_ROWS,
    degrees: Sequence[int] = (64, 32, 16, 8, 4),
    num_gpus: int = 64,
    max_context: int = 384 * 1024,
    model: ModelConfig = GPT_7B,
) -> Artefact:
    """Table 1: the homogeneous-SP capacity frontier.

    Every cell pins DeepSpeed's static SP degree via a cell variant
    and trains a uniform fixed-length batch (:class:`~repro.data.
    distributions.FixedLength`); infeasible corners surface as
    ``status="oom"`` cells, reproducing the paper's OOM marks.
    """
    cluster = standard_cluster(num_gpus)
    cells = []
    for seq, bs in rows:
        workload = Workload(
            model=model,
            distribution=FixedLength(seq),
            max_context=max_context,
            cluster=cluster,
            global_batch_size=bs,
        )
        for degree in degrees:
            cells.append(
                SweepCell(
                    system="deepspeed",
                    workload=workload,
                    num_iterations=1,
                    variant=(("sp_degree", degree),),
                )
            )
    return Artefact(
        key="table1",
        title="Table 1: homogeneous-SP iteration time / All-to-All share",
        cells=tuple(cells),
        reducer=frontier_summary,
    )


def fig7_artefact(
    *,
    global_batch_size: int,
    num_iterations: int = 1,
    num_gpus: int = 64,
    contexts: Sequence[int] = (192 * 1024,),
    distribution=COMMONCRAWL,
) -> Artefact:
    """Fig. 7: FlexSP solver-component ablations as variant cells.

    The un-ablated column is a plain flexsp cell and therefore dedups
    against the Fig. 4 grid when the workloads coincide.
    """
    cluster = standard_cluster(num_gpus)
    cells = []
    for context in contexts:
        workload = Workload(
            model=GPT_7B,
            distribution=distribution,
            max_context=context,
            cluster=cluster,
            global_batch_size=global_batch_size,
        )
        for __, variant in ABLATIONS:
            cells.append(
                SweepCell(
                    system="flexsp",
                    workload=workload,
                    num_iterations=num_iterations,
                    variant=variant,
                )
            )
    return Artefact(
        key="fig7",
        title="Fig. 7: solver ablations",
        cells=tuple(cells),
        reducer=ablation_summary,
    )


def fig8_artefact(
    *,
    sequences_per_gpu: int = 2,
    num_iterations: int = 1,
    gpu_counts: Sequence[int] = (16, 32, 64),
    max_context: int = 192 * 1024,
    distribution=COMMONCRAWL,
) -> Artefact:
    """Fig. 8: weak scaling — the batch grows with the cluster.

    The largest cluster point coincides with a Fig. 4 flexsp cell when
    ``sequences_per_gpu * num_gpus`` equals the campaign batch size.
    """
    workloads = [
        Workload(
            model=GPT_7B,
            distribution=distribution,
            max_context=max_context,
            cluster=standard_cluster(n),
            global_batch_size=sequences_per_gpu * n,
        )
        for n in gpu_counts
    ]
    return Artefact(
        key="fig8",
        title="Fig. 8: solver weak scaling",
        cells=tuple(grid_cells(["flexsp"], workloads, num_iterations)),
        reducer=scaling_summary,
    )


#: Artefact-key -> builder, the registry's thin-adapter surface.
ARTEFACT_BUILDERS = {
    "fig4": fig4_artefact,
    "fig6": fig6_artefact,
    "table1": table1_artefact,
    "fig7": fig7_artefact,
    "fig8": fig8_artefact,
}


# ---------------------------------------------------------------------------
# Ready-made campaigns (the `make bench` / CLI entry points).
# ---------------------------------------------------------------------------


def unified_campaign(
    *,
    global_batch_size: int = 128,
    num_iterations: int = 1,
    num_gpus: int = 64,
) -> Campaign:
    """All five paper artefact grids as one reduced-protocol campaign.

    The default batch size of 128 makes the cross-artefact overlaps
    line up: Fig. 6's 192K point, Fig. 7's un-ablated column and
    Fig. 8's 64-GPU point (2 sequences/GPU) all collapse onto Fig. 4
    cells and are measured once.
    """
    return Campaign(
        name="unified",
        artefacts=(
            fig4_artefact(
                global_batch_size=global_batch_size,
                num_iterations=num_iterations,
                num_gpus=num_gpus,
            ),
            fig6_artefact(
                global_batch_size=global_batch_size,
                num_iterations=num_iterations,
                context_scaling_gpus=num_gpus,
            ),
            table1_artefact(num_gpus=num_gpus),
            fig7_artefact(
                global_batch_size=global_batch_size,
                num_iterations=num_iterations,
                num_gpus=num_gpus,
            ),
            fig8_artefact(
                sequences_per_gpu=max(global_batch_size // num_gpus, 1),
                num_iterations=num_iterations,
                gpu_counts=(16, 32, num_gpus),
            ),
        ),
    )


def smoke_campaign(
    *, global_batch_size: int = 16, num_gpus: int = 8
) -> Campaign:
    """A seconds-scale tier-1 campaign: same artefact structure, tiny
    grids (one node, 16-32K contexts), store disabled by convention."""
    contexts = (32 * 1024,)
    return Campaign(
        name="smoke",
        artefacts=(
            fig4_artefact(
                global_batch_size=global_batch_size,
                num_gpus=num_gpus,
                contexts=contexts,
            ),
            fig6_artefact(
                global_batch_size=global_batch_size,
                gpu_counts=(num_gpus,),
                gpu_scaling_context=16 * 1024,
                context_points=(16 * 1024, 32 * 1024),
                context_scaling_gpus=num_gpus,
            ),
            table1_artefact(
                rows=((4 * 1024, 16), (8 * 1024, 8)),
                degrees=(8, 4, 2),
                num_gpus=num_gpus,
                max_context=32 * 1024,
            ),
            fig7_artefact(
                global_batch_size=global_batch_size,
                num_gpus=num_gpus,
                contexts=contexts,
            ),
            fig8_artefact(
                sequences_per_gpu=max(global_batch_size // num_gpus, 1),
                gpu_counts=(num_gpus,),
                max_context=32 * 1024,
            ),
        ),
    )


def full_campaign(
    *,
    global_batch_size: int = 512,
    num_iterations: int = 1,
    num_gpus: int = 64,
) -> Campaign:
    """The paper's **full protocol**: GPT-13B/GPT-30B at 384K
    contexts, global batch 512, on the 64-GPU cluster.

    Same artefact structure as :func:`unified_campaign` but at the
    shapes the paper actually reports: Fig. 4 sweeps the larger
    models on the 384K grid, Fig. 6's context scaling reaches 384K,
    Fig. 7 ablates at 384K, and Fig. 8's weak scaling grows the batch
    to 8 sequences/GPU.  Table 1's capacity frontier is already
    full-shape.  Expect minutes, not seconds, of planning per pass on
    the MILP backend.
    """
    context = 384 * 1024
    return Campaign(
        name="full",
        artefacts=(
            fig4_artefact(
                global_batch_size=global_batch_size,
                num_iterations=num_iterations,
                num_gpus=num_gpus,
                models=(GPT_13B, GPT_30B),
                contexts=(context,),
            ),
            fig6_artefact(
                global_batch_size=global_batch_size,
                num_iterations=num_iterations,
                gpu_scaling_context=192 * 1024,
                context_points=(192 * 1024, context),
                context_scaling_gpus=num_gpus,
            ),
            table1_artefact(num_gpus=num_gpus),
            fig7_artefact(
                global_batch_size=global_batch_size,
                num_iterations=num_iterations,
                num_gpus=num_gpus,
                contexts=(context,),
            ),
            fig8_artefact(
                sequences_per_gpu=max(global_batch_size // num_gpus, 1),
                num_iterations=num_iterations,
                gpu_counts=(16, 32, num_gpus),
                max_context=192 * 1024,
            ),
        ),
    )


#: Campaign-name -> builder for the CLI (`python -m repro.bench
#: --campaign <name>`).
CAMPAIGNS = {
    "unified": unified_campaign,
    "smoke": smoke_campaign,
    "full": full_campaign,
}


def build_campaign(name: str, **overrides) -> Campaign:
    """Construct a named campaign (CLI surface).

    Raises:
        KeyError: Unknown name; the message lists the valid ones.
    """
    try:
        builder = CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; options: {sorted(CAMPAIGNS)}"
        ) from None
    return builder(**overrides)
