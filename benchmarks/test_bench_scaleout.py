"""Scale-out campaign benchmark: two campaigns sharing one store.

Two **concurrent** campaigns race one :class:`CacheStore`: both must
stay bit-identical to a storeless pass, with write amplification and
lock contention printed.

Wall-clock figures are printed, never gated: this benchmark must run
on any box.
"""

from __future__ import annotations

import threading
import time

from benchmarks.conftest import FULL
from repro.core.cache_store import CacheStore
from repro.core.solver import SolverConfig
from repro.experiments.campaign import unified_campaign
from repro.experiments.sweep import SweepRunner

#: Greedy backend: planning is deterministic work, so every pass is
#: bit-comparable wherever it lands.
CAMPAIGN_SOLVER = SolverConfig(backend="greedy", num_trials=2)

GLOBAL_BATCH = 512 if FULL else 128


def _run_campaign(store_root: str | None = None):
    """One unified-campaign pass; returns (metrics, wall, result)."""
    campaign = unified_campaign(global_batch_size=GLOBAL_BATCH)
    with SweepRunner(
        solver_config=CAMPAIGN_SOLVER, store=store_root
    ) as runner:
        started = time.perf_counter()
        result = campaign.run(runner)
        wall = time.perf_counter() - started
    return list(result.sweep.metrics), wall, result


def test_concurrent_campaigns_share_one_store(emit, tmp_path):
    """Two campaigns racing one store: both bit-identical, contention
    counted.  Each thread owns its runner (and its own ``CacheStore``
    handle on the shared root), so every save goes through the
    advisory-lock path — ``lock_waits`` counts the collisions."""
    reference_metrics, __, ___ = _run_campaign()

    store_root = str(tmp_path / "shared_store")
    outcomes: dict[str, tuple] = {}

    def _campaign(label: str) -> None:
        outcomes[label] = _run_campaign(store_root=store_root)

    threads = [
        threading.Thread(target=_campaign, args=(label,))
        for label in ("first", "second")
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started

    total_writes = 0
    lock_waits = 0
    for label in ("first", "second"):
        metrics, __, result = outcomes[label]
        for a, b in zip(reference_metrics, metrics):
            assert a.deterministic() == b.deterministic(), label
        stats = result.sweep.store_stats
        total_writes += stats.writes
        lock_waits += stats.lock_waits

    cells = len(reference_metrics)
    amplification = total_writes / cells
    store = CacheStore(store_root)
    files = store.stats().files

    emit(
        f"Concurrent campaigns, one store: 2 x {cells} cells in "
        f"{wall:.2f}s, {total_writes} writes across both "
        f"({amplification:.3f}/cell), {files} store files, "
        f"{lock_waits} lock waits, metrics bit-identical to serial"
    )
