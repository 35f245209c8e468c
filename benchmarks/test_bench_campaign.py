"""Unified-campaign benchmark: one sweep pass for every artefact grid,
with the persistent cache store proven warm across processes.

The campaign engine's acceptance bar (the multi-layer refactor PR):

* all five paper artefact grids (Fig. 4, Fig. 6, Table 1, Fig. 7,
  Fig. 8) execute through **one** ``SweepRunner`` pass with
  overlapping cells measured exactly once;
* a **second process** started against the populated
  :class:`~repro.core.cache_store.CacheStore` reaches >= 90 % plan-cache
  hit rate on the repeated campaign, with per-cell metrics
  bit-identical to the cold run.

The second process is real: the restored pass runs in a forked child
(via a single-worker process pool), so the only warmth it can possibly
have is what :class:`CacheStore` spilled to disk.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from benchmarks.conftest import FULL
from repro.core.solver import SolverConfig
from repro.experiments.campaign import unified_campaign
from repro.experiments.reporting import format_table
from repro.experiments.sweep import SweepRunner

#: Both passes share the greedy backend so planning is deterministic
#: work wherever the store cannot serve it.
CAMPAIGN_SOLVER = SolverConfig(backend="greedy", num_trials=2)

GLOBAL_BATCH = 512 if FULL else 128


def _run_campaign(store_root: str, spill_batch: int = 0):
    """One full campaign pass against a store; returns (metrics,
    hit_rate, wall, counts).  Plain values only: the restored passes
    return them across a forked process pool."""
    campaign = unified_campaign(global_batch_size=GLOBAL_BATCH)
    runner = SweepRunner(
        solver_config=CAMPAIGN_SOLVER,
        store=store_root,
        spill_batch=spill_batch,
    )
    with runner:
        started = time.perf_counter()
        result = campaign.run(runner)
        wall = time.perf_counter() - started
    counts = {
        "cells": len(result.sweep.cells),
        "unique_cells": result.sweep.unique_cells,
        "artefacts": [r.artefact.key for r in result.artefacts],
        "write_amplification": result.store_write_amplification,
        "store_writes": result.sweep.store_stats.writes,
        "store_files": result.sweep.store_stats.files,
    }
    return list(result.sweep.metrics), result.plan_cache_hit_rate, wall, counts


def test_campaign_store_warm_across_processes(emit, tmp_path):
    store_root = str(tmp_path / "campaign_store")

    # Cold pass: this process populates the store from scratch.
    cold_metrics, cold_hit_rate, cold_wall, counts = _run_campaign(store_root)

    # Restored pass: a genuine second process (forked, fresh runner)
    # whose only warmth is the on-disk store.
    with ProcessPoolExecutor(
        max_workers=1, mp_context=get_context("fork")
    ) as pool:
        warm_metrics, warm_hit_rate, warm_wall, __ = pool.submit(
            _run_campaign, store_root
        ).result()

    # Bit-identical metrics contract: restoring spilled cost-model
    # fits, tuner memos and plan caches must not change a single bit
    # of any artefact cell.
    assert len(warm_metrics) == len(cold_metrics)
    for cold, warm in zip(cold_metrics, warm_metrics):
        assert warm.deterministic() == cold.deterministic()
        assert warm.status == cold.status
        assert warm.checkpointing == cold.checkpointing

    cells = counts["cells"]
    unique = counts["unique_cells"]
    rows = [
        ("cold (this process)", f"{cold_wall:.2f}", f"{cold_hit_rate:.0%}"),
        (
            "store-restored (second process)",
            f"{warm_wall:.2f}",
            f"{warm_hit_rate:.0%}",
        ),
    ]
    emit(
        f"Unified campaign: {cells} cells ({unique} unique), "
        f"batch {GLOBAL_BATCH}, artefacts "
        f"{', '.join(counts['artefacts'])}\n"
        + format_table(["pass", "wall (s)", "plan-cache hit rate"], rows)
    )

    # One pass covers every artefact; the grids genuinely overlap.
    assert set(counts["artefacts"]) == {
        "fig4",
        "fig6",
        "table1",
        "fig7",
        "fig8",
    }
    assert unique < cells

    # The acceptance bar: a second process against a populated store
    # serves >= 90% of FlexSP micro-batch planning from the cache.
    assert warm_hit_rate >= 0.9, f"restored hit rate {warm_hit_rate:.2%} < 90%"


def test_store_write_amplification_below_per_cell_baseline(emit, tmp_path):
    """The store lifecycle acceptance bar: batched per-worker spills
    push write amplification (store data-file writes per measured
    cell) strictly below the historical spill-after-every-cell
    baseline on the unified campaign, and a store that has been
    *pruned* still restores — warm where files survived, cold where
    they did not, bit-identical metrics either way."""
    from repro.core.cache_store import CacheStore

    per_cell_root = str(tmp_path / "per_cell_store")
    batched_root = str(tmp_path / "batched_store")

    per_cell_metrics, __, ___, per_cell_counts = _run_campaign(
        per_cell_root, spill_batch=1
    )
    batched_metrics, ____, _____, batched_counts = _run_campaign(batched_root)

    for a, b in zip(per_cell_metrics, batched_metrics):
        assert a.deterministic() == b.deterministic()
    per_cell_wa = per_cell_counts["write_amplification"]
    batched_wa = batched_counts["write_amplification"]
    assert batched_wa < per_cell_wa, (
        f"batched spills must beat the per-cell baseline: "
        f"{batched_wa} >= {per_cell_wa}"
    )

    # Restored pass in a genuine second process: still >= 90% warm and
    # bit-identical under the batched cadence.
    with ProcessPoolExecutor(
        max_workers=1, mp_context=get_context("fork")
    ) as pool:
        warm_metrics, warm_hit_rate, ______, warm_counts = pool.submit(
            _run_campaign, batched_root
        ).result()
    for a, b in zip(batched_metrics, warm_metrics):
        assert a.deterministic() == b.deterministic()
    assert warm_hit_rate >= 0.9
    # The fully warm pass learned nothing, so it spilled (almost)
    # nothing — the restored-run half of the write-amplification fix.
    assert warm_counts["store_writes"] <= warm_counts["store_files"]

    # Prune half the store (LRU), then run again: never fatal, still
    # bit-identical, cold exactly where eviction hit.
    store = CacheStore(batched_root)
    half_bytes = store.stats().bytes // 2
    pruned = store.prune(max_store_bytes=half_bytes, protect_touched=False)
    assert pruned.evicted, "the byte cap should evict something"
    pruned_metrics, pruned_hit_rate, _______, ________ = _run_campaign(
        batched_root
    )
    for a, b in zip(batched_metrics, pruned_metrics):
        assert a.deterministic() == b.deterministic()

    emit(
        "Unified campaign store lifecycle: write amplification "
        f"{per_cell_wa:.3f} writes/cell (spill-per-cell baseline) -> "
        f"{batched_wa:.3f} (batched spills), restored-pass hit rate "
        f"{warm_hit_rate:.0%}, after pruning {len(pruned.evicted)} of "
        f"{len(pruned.evicted) + pruned.files_kept} files: hit rate "
        f"{pruned_hit_rate:.0%}, metrics bit-identical"
    )


def test_campaign_artefact_shapes(emit):
    """The unified campaign's declarative grids keep the paper shapes:
    Table 1's frontier rows, Fig. 7's four ablation columns, Fig. 8's
    weak-scaling points all present in one definition."""
    campaign = unified_campaign(global_batch_size=GLOBAL_BATCH)
    by_key = {a.key: a for a in campaign.artefacts}
    assert len(by_key["table1"].cells) == 7 * 5  # rows x degrees
    assert len(by_key["fig7"].cells) == 4  # ablation columns
    assert len(by_key["fig8"].cells) == 3  # cluster sizes
    assert len(by_key["fig4"].cells) == 12  # reduced: 4 systems x 3 corpora
    emit(
        f"unified campaign: {len(campaign.cells)} declared cells, "
        f"{len(set(campaign.cells))} unique across "
        f"{len(campaign.artefacts)} artefacts"
    )
