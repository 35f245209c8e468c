"""Tests for repro.experiments.workloads: the evaluation grid."""

import pytest

from repro.data.dataset import DEFAULT_GLOBAL_BATCH_SIZE
from repro.data.distributions import COMMONCRAWL
from repro.experiments.campaign import fig4_artefact, fig6_artefact
from repro.experiments.workloads import Workload, case_study_workload
from repro.model.config import GPT_7B, GPT_13B, GPT_30B
from repro.model.memory import ActivationCheckpointing


class TestWorkload:
    def test_name_encodes_configuration(self):
        w = Workload(model=GPT_7B, distribution=COMMONCRAWL, max_context=192 * 1024)
        assert w.name == "gpt-7b/commoncrawl/192K/64gpu"

    def test_model_at_context_resizes_positional(self):
        w = Workload(model=GPT_7B, distribution=COMMONCRAWL, max_context=64 * 1024)
        assert w.model_at_context.max_context == 64 * 1024

    def test_checkpointing_policy_follows_paper(self):
        for model, expected in (
            (GPT_7B, ActivationCheckpointing.NONE),
            (GPT_13B, ActivationCheckpointing.SELECTIVE),
            (GPT_30B, ActivationCheckpointing.FULL),
        ):
            w = Workload(model=model, distribution=COMMONCRAWL,
                         max_context=384 * 1024)
            assert w.checkpointing is expected

    def test_corpus_respects_limit(self):
        w = Workload(model=GPT_7B, distribution=COMMONCRAWL,
                     max_context=32 * 1024, global_batch_size=64)
        assert w.corpus().batch(0).max_length <= 32 * 1024

    def test_rejects_bad_context(self):
        with pytest.raises(ValueError, match="max_context"):
            Workload(model=GPT_7B, distribution=COMMONCRAWL, max_context=0)


def _workloads(artefact) -> list[Workload]:
    """An artefact's distinct workloads, by name, in presentation order."""
    by_name = {cell.workload.name: cell.workload for cell in artefact.cells}
    return list(by_name.values())


class TestGrids:
    """The paper's grids, as the campaign's artefact builders declare them."""

    @pytest.fixture(scope="class")
    def fig4(self):
        return fig4_artefact(
            global_batch_size=DEFAULT_GLOBAL_BATCH_SIZE,
            models=(GPT_7B, GPT_13B, GPT_30B),
            contexts=(192 * 1024, 384 * 1024),
        )

    def test_fig4_grid_is_eighteen(self, fig4):
        workloads = _workloads(fig4)
        assert len(workloads) == 18
        assert len(fig4.cells) == 18 * len({c.system for c in fig4.cells})

    def test_fig4_covers_both_contexts(self, fig4):
        contexts = {w.max_context for w in _workloads(fig4)}
        assert contexts == {192 * 1024, 384 * 1024}

    def test_fig6_gpu_scaling_sizes(self):
        fig6 = fig6_artefact(global_batch_size=DEFAULT_GLOBAL_BATCH_SIZE)
        sizes = [
            w.cluster.num_gpus
            for w in _workloads(fig6)
            if w.max_context == 128 * 1024
        ]
        assert sizes == [16, 32, 64]

    def test_fig6_context_scaling_contexts(self):
        points = tuple(k * 1024 for k in (64, 128, 192, 256, 384))
        fig6 = fig6_artefact(
            global_batch_size=DEFAULT_GLOBAL_BATCH_SIZE, context_points=points
        )
        contexts = sorted(
            w.max_context // 1024
            for w in _workloads(fig6)
            if w.cluster.num_gpus == 64
        )
        assert contexts == [64, 128, 192, 256, 384]

    def test_case_study_matches_section_6_3(self):
        w = case_study_workload()
        assert w.model is GPT_7B
        assert w.distribution.name == "commoncrawl"
        assert w.max_context == 384 * 1024
