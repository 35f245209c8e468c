"""Workload definitions for the paper's evaluation grid.

A workload fixes the model, the corpus, the maximum context length,
the cluster and the batching protocol.  The end-to-end grid (Fig. 4)
is {GPT-7B, 13B, 30B} x {GitHub, CommonCrawl, Wikipedia} x
{192K, 384K} on 64 GPUs with global batch 512; the scalability study
(Fig. 6) varies cluster size and context limit on CommonCrawl.  The
grids themselves are declared once, by the artefact builders of
:mod:`repro.experiments.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.topology import ClusterSpec, standard_cluster
from repro.data.dataset import DEFAULT_GLOBAL_BATCH_SIZE, SyntheticCorpus
from repro.data.distributions import COMMONCRAWL, LogNormalMixture
from repro.model.config import GPT_7B, ModelConfig
from repro.model.memory import ActivationCheckpointing, default_checkpointing


@dataclass(frozen=True)
class Workload:
    """One evaluation configuration.

    Attributes:
        model: Model architecture (context length taken from
            ``max_context``).
        distribution: Corpus length distribution.
        max_context: Task maximum context length, tokens.
        cluster: Simulated hardware.
        global_batch_size: Sequences per training step.
        seed: Corpus RNG seed.
    """

    model: ModelConfig
    distribution: LogNormalMixture
    max_context: int
    cluster: ClusterSpec = field(default_factory=lambda: standard_cluster(64))
    global_batch_size: int = DEFAULT_GLOBAL_BATCH_SIZE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_context <= 0:
            raise ValueError(f"max_context must be positive, got {self.max_context}")

    @property
    def name(self) -> str:
        return (
            f"{self.model.name}/{self.distribution.name}/"
            f"{self.max_context // 1024}K/{self.cluster.num_gpus}gpu"
        )

    @property
    def model_at_context(self) -> ModelConfig:
        """Model config with positional embedding sized to the task."""
        return self.model.with_max_context(self.max_context)

    @property
    def checkpointing(self) -> ActivationCheckpointing:
        """The paper's per-model policy, escalated if the cluster could
        not otherwise host a worst-case sequence (e.g. 128K on 16
        GPUs needs checkpointing that 64 GPUs do not)."""
        from repro.model.memory import feasible_checkpointing

        return feasible_checkpointing(
            self.model_at_context,
            self.max_context,
            self.cluster.num_gpus,
            self.cluster.gpu.usable_memory_bytes,
            base=default_checkpointing(self.model, self.max_context),
        )

    def corpus(self) -> SyntheticCorpus:
        return SyntheticCorpus(
            distribution=self.distribution,
            max_context=self.max_context,
            global_batch_size=self.global_batch_size,
            seed=self.seed,
        )


def case_study_workload(
    global_batch_size: int = DEFAULT_GLOBAL_BATCH_SIZE,
) -> Workload:
    """S6.3's case study: GPT-7B on CommonCrawl at 384K, 64 GPUs."""
    return Workload(
        model=GPT_7B,
        distribution=COMMONCRAWL,
        max_context=384 * 1024,
        cluster=standard_cluster(64),
        global_batch_size=global_batch_size,
    )
