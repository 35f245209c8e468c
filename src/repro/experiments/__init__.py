"""Experiment harness.

Unified training-system wrappers (:mod:`repro.experiments.systems`),
workload definitions matching the paper's evaluation grid
(:mod:`repro.experiments.workloads`), the measurement runner
(:mod:`repro.experiments.runner`), the experiment-sweep runner with
shared per-workload state
(:mod:`repro.experiments.sweep`), the declarative campaign engine
expressing every paper artefact grid as one sweep
(:mod:`repro.experiments.campaign`) and text reporting in the paper's
table formats (:mod:`repro.experiments.reporting`).
"""

from repro.experiments.campaign import (
    Artefact,
    ArtefactResult,
    Campaign,
    CampaignResult,
    build_campaign,
    smoke_campaign,
    unified_campaign,
)
from repro.experiments.pipeline import PipelineReport, TrainingPipeline
from repro.experiments.registry import (
    Experiment,
    all_experiments,
    artefact_grid,
    experiment,
)
from repro.experiments.runner import RunResult, run_system
from repro.experiments.sweep import (
    CellMetrics,
    SweepCell,
    SweepResult,
    SweepRunner,
    WorkloadContext,
    grid_cells,
    workload_signature,
)
from repro.experiments.systems import (
    DeepSpeedUlyssesSystem,
    FlexSPBatchAdaSystem,
    FlexSPSystem,
    IterationOutcome,
    MegatronLMSystem,
    build_system,
)
from repro.experiments.workloads import Workload

__all__ = [
    "IterationOutcome",
    "FlexSPSystem",
    "DeepSpeedUlyssesSystem",
    "FlexSPBatchAdaSystem",
    "MegatronLMSystem",
    "build_system",
    "Workload",
    "RunResult",
    "run_system",
    "SweepCell",
    "CellMetrics",
    "SweepResult",
    "SweepRunner",
    "WorkloadContext",
    "grid_cells",
    "workload_signature",
    "TrainingPipeline",
    "PipelineReport",
    "Experiment",
    "all_experiments",
    "experiment",
    "artefact_grid",
    "Artefact",
    "ArtefactResult",
    "Campaign",
    "CampaignResult",
    "build_campaign",
    "smoke_campaign",
    "unified_campaign",
]
