"""Tests for repro.baselines.batch_adaptive and repro.baselines.tuner."""

import pytest

from repro.baselines.batch_adaptive import choose_degree_for_batch
from repro.baselines.homogeneous import estimate_homogeneous_iteration
from repro.baselines.tuner import choose_static_degree, tune_megatron
from repro.model.memory import ActivationCheckpointing


class TestBatchAdaptive:
    def test_short_batch_gets_small_degree(self, cost_model16):
        degree, __ = choose_degree_for_batch((2048,) * 16, cost_model16)
        assert degree <= 8

    def test_long_batch_forced_to_large_degree(self, cost_model16):
        long_seq = int(cost_model16.max_tokens_per_device() * 10)
        degree, __ = choose_degree_for_batch((long_seq,), cost_model16)
        assert degree == 16

    def test_choice_is_argmin_over_feasible(self, cost_model16):
        lengths = (8192, 4096, 2048) * 4
        degree, estimate = choose_degree_for_batch(lengths, cost_model16)
        longest = max(lengths)
        for d in (1, 2, 4, 8, 16):
            if cost_model16.fits([longest], d):
                assert estimate <= estimate_homogeneous_iteration(
                    lengths, cost_model16, d
                ) * (1 + 1e-9)

    def test_adapts_across_batches(self, cost_model16):
        """Different batches should be able to pick different degrees —
        the whole point of BatchAda."""
        short_degree, __ = choose_degree_for_batch((1024,) * 8, cost_model16)
        long_seq = int(cost_model16.max_tokens_per_device() * 10)
        long_degree, __ = choose_degree_for_batch((long_seq,), cost_model16)
        assert short_degree != long_degree

    def test_rejects_empty(self, cost_model16):
        with pytest.raises(ValueError, match="empty"):
            choose_degree_for_batch((), cost_model16)

    def test_rejects_impossible_batch(self, cost_model16):
        huge = int(cost_model16.max_tokens_per_device() * 100)
        with pytest.raises(ValueError, match="no homogeneous"):
            choose_degree_for_batch((huge,), cost_model16)


class TestStaticTuner:
    def test_worst_case_governs_feasibility(self, cost_model16):
        """Even if probe batches are short, the degree must host the
        context-limit worst case — the static-system handicap."""
        max_context = int(cost_model16.max_tokens_per_device() * 10)
        degree = choose_static_degree(
            [(1024,) * 8], cost_model16, max_context=max_context
        )
        assert cost_model16.fits([max_context], degree)

    def test_short_context_prefers_small_groups(self, cost_model16):
        degree = choose_static_degree(
            [(2048,) * 16], cost_model16, max_context=4096
        )
        assert degree <= 8

    def test_rejects_impossible_context(self, cost_model16):
        huge = int(cost_model16.max_tokens_per_device() * 100)
        with pytest.raises(ValueError, match="fits"):
            choose_static_degree([(1024,)], cost_model16, max_context=huge)

    def test_rejects_no_probes(self, cost_model16):
        with pytest.raises(ValueError, match="probe batch"):
            choose_static_degree([], cost_model16, max_context=1024)


class TestMegatronTuner:
    def test_returns_feasible_strategy(self, cluster64, gpt7b_64k):
        strategy = tune_megatron(
            [(8192, 4096) * 8],
            gpt7b_64k,
            cluster64,
            max_context=64 * 1024,
            checkpointing=ActivationCheckpointing.NONE,
        )
        assert strategy.tp * strategy.cp * strategy.dp == 64

    def test_long_context_forces_many_model_shards(self, cluster64):
        """At 384K the paper's tuned Megatron needs tp*cp >= 32."""
        from repro.model.config import GPT_7B

        cfg = GPT_7B.with_max_context(384 * 1024)
        strategy = tune_megatron(
            [(8192,) * 16],
            cfg,
            cluster64,
            max_context=384 * 1024,
            checkpointing=ActivationCheckpointing.NONE,
        )
        assert strategy.model_shards >= 32

    def test_rejects_no_probes(self, cluster64, gpt7b_64k):
        with pytest.raises(ValueError, match="probe batch"):
            tune_megatron([], gpt7b_64k, cluster64, max_context=1024)

    def test_evaluator_errors_propagate(self, cluster64, gpt7b_64k, monkeypatch):
        """Only an infeasible strategy is skipped; any other error from
        the evaluator surfaces instead of silently changing the choice."""

        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr("repro.baselines.tuner.megatron_iteration", broken)
        with pytest.raises(ValueError, match="boom"):
            tune_megatron([(8192,) * 4], gpt7b_64k, cluster64, max_context=8192)
