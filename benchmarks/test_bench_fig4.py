"""Fig. 4: end-to-end iteration time across the evaluation grid.

Paper protocol: {GPT-7B, 13B, 30B} x {GitHub, CommonCrawl, Wikipedia}
x {192K, 384K} on 64 GPUs, global batch 512 sequences, average
iteration seconds per system.

Expected shape: FlexSP fastest everywhere (paper: up to 1.72x over
DeepSpeed, 1.98x over Megatron-LM); FlexSP-BatchAda lands between
DeepSpeed and FlexSP; the FlexSP speedup is largest on Wikipedia (the
most skewed corpus) and smallest on GitHub; Megatron-LM generally
trails DeepSpeed (Appendix D).

Benchmark protocol here: the ``fig4`` artefact of the session's greedy
campaign pass (see conftest), reduced global batch (128) and one
measured iteration per cell unless REPRO_BENCH_FULL=1.
"""

from repro.experiments.reporting import format_artefact

#: The 18 workloads of the paper's grid, by name.
WORKLOADS = [
    f"{model}/{corpus}/{context}K/64gpu"
    for model in ("gpt-7b", "gpt-13b", "gpt-30b")
    for context in (192, 384)
    for corpus in ("github", "commoncrawl", "wikipedia")
]


def test_fig4_end_to_end_grid(emit, greedy_pass):
    fig4 = greedy_pass.artefact("fig4")
    emit(format_artefact(fig4))

    # The whole grid was measured, and nothing else.
    assert sorted(fig4.summary["workloads"]) == sorted(WORKLOADS)

    speedups_vs_ds = {}
    for name in WORKLOADS:
        flexsp, deepspeed, batchada, megatron = (
            fig4.metric(system, name).mean_iteration_seconds
            for system in ("flexsp", "deepspeed", "batchada", "megatron")
        )
        # FlexSP never loses to any baseline.
        assert flexsp <= deepspeed * 1.02, name
        assert flexsp <= batchada * 1.02, name
        assert flexsp <= megatron * 1.02, name
        # BatchAda sits between FlexSP and DeepSpeed.
        assert batchada <= deepspeed * 1.02, name
        speedups_vs_ds[name] = deepspeed / flexsp

    # A real speedup exists somewhere in the grid (paper: up to 1.72x).
    assert max(speedups_vs_ds.values()) > 1.15

    # Skew ordering at 384K on GPT-7B: Wikipedia >= GitHub.
    wiki = speedups_vs_ds["gpt-7b/wikipedia/384K/64gpu"]
    github = speedups_vs_ds["gpt-7b/github/384K/64gpu"]
    assert wiki >= github * 0.95
