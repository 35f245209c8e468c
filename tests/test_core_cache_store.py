"""Tests for repro.core.cache_store: the persistent cross-process store.

The store's contract is exact restoration: a process that loads
spilled state must behave bit-identically to the process that spilled
it — same cost model, same plans, same
:class:`~repro.core.types.SolveStats` counters on subsequent solves —
and any corrupted, truncated or foreign file must read as *cold*,
never as an error.

The lifecycle half (manifest accounting and :meth:`CacheStore.prune`)
adds three adversarial suites: Hypothesis properties over the
eviction policy (age-cap safety, LRU order, byte-cap satisfaction,
idempotence), a multi-process stress test interleaving merge-saves
with concurrent prunes (no lost entries under non-evicting caps, no
torn files ever), and corruption fuzzing of both the data files and
the manifest (always cold, never fatal, always rewritten cleanly).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.cache_store import (
    MANIFEST_NAME,
    STORE_VERSION,
    CacheStore,
    WorkloadState,
    context_digest,
    entries_from_cache,
    preload_cache,
    signature_digest,
)
from repro.core.plan_cache import PlanCache, cache_context
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.cost.model import CostModel

SIGNATURE = ("gpt-7b", "github", 32 * 1024, 8)
OTHER_SIGNATURE = ("gpt-7b", "wikipedia", 32 * 1024, 8)

lengths_strategy = st.lists(
    st.integers(min_value=64, max_value=24_000), min_size=1, max_size=32
)


def greedy_solver(model) -> FlexSPSolver:
    return FlexSPSolver(model, SolverConfig(num_trials=3, backend="greedy"))


def spill(store: CacheStore, solver: FlexSPSolver, signature) -> None:
    state = WorkloadState(signature=repr(signature))
    state.coeffs = solver.model.coeffs
    state.comm_model = solver.model.comm_model
    digest = context_digest(solver.config.planner, solver.config.backend)
    state.plans[digest] = entries_from_cache(solver.cache)
    store.save(signature, state)


def restore(store: CacheStore, model, signature) -> FlexSPSolver:
    solver = greedy_solver(model)
    state = store.load(signature)
    assert state is not None
    digest = context_digest(solver.config.planner, solver.config.backend)
    context = cache_context(
        solver.model, solver.config.planner, solver.config.backend
    )
    preload_cache(solver.cache, state.plans[digest], context)
    return solver


def stats_counters(plan):
    """SolveStats minus the wall-clock field (host-dependent)."""
    assert plan.stats is not None
    return (
        plan.stats.cache_hits,
        plan.stats.dedup_hits,
        plan.stats.cache_misses,
        plan.stats.trials,
        plan.stats.microbatches,
    )


class TestRoundTripProperties:
    @given(lengths=lengths_strategy)
    @settings(max_examples=25, deadline=None)
    def test_restored_cache_solves_bit_identically(
        self, cost_model8, tmp_path_factory, lengths
    ):
        """spill -> restore -> solve must equal the warm original: same
        plans, same predicted times, same SolveStats counters."""
        store = CacheStore(tmp_path_factory.mktemp("store"))
        original = greedy_solver(cost_model8)
        original.solve(tuple(lengths))
        spill(store, original, SIGNATURE)

        restored = restore(store, cost_model8, SIGNATURE)
        warm = original.solve(tuple(lengths))
        fresh = restored.solve(tuple(lengths))
        assert fresh.microbatches == warm.microbatches
        assert fresh.predicted_time == warm.predicted_time
        assert stats_counters(fresh) == stats_counters(warm)
        assert fresh.stats.planner_calls == 0

    @given(lengths=lengths_strategy)
    @settings(max_examples=25, deadline=None)
    def test_restored_coeffs_are_bit_identical(
        self, cost_model8, tmp_path_factory, lengths
    ):
        """Cost-model fits survive the JSON round trip exactly."""
        store = CacheStore(tmp_path_factory.mktemp("store"))
        solver = greedy_solver(cost_model8)
        solver.solve(tuple(lengths))
        spill(store, solver, SIGNATURE)
        state = store.load(SIGNATURE)
        assert state.coeffs == cost_model8.coeffs
        restored_model = CostModel(
            coeffs=state.coeffs,
            cluster=cost_model8.cluster,
            comm_model=state.comm_model,
        )
        assert restored_model == CostModel(
            coeffs=cost_model8.coeffs,
            cluster=cost_model8.cluster,
            comm_model=cost_model8.comm_model,
        )

    def test_infeasible_entries_round_trip(self, cost_model8, tmp_path):
        """Shapes proven unplannable stay unplannable after restore."""
        store = CacheStore(tmp_path)
        cache = PlanCache()
        context = cache_context(
            cost_model8, SolverConfig().planner, "greedy"
        )
        cache.store(((10**9,), context), None, None)  # infeasible marker
        state = WorkloadState(signature=repr(SIGNATURE))
        state.plans["ctx"] = entries_from_cache(cache)
        store.save(SIGNATURE, state)
        restored = store.load(SIGNATURE)
        (shape, plan, predicted) = restored.plans["ctx"][0]
        assert shape == (10**9,)
        assert plan is None and predicted is None


class TestCorruptionIsIgnored:
    def _path(self, store: CacheStore):
        return store.root / f"workload-{signature_digest(SIGNATURE)}.json"

    def test_missing_file_loads_cold(self, tmp_path):
        assert CacheStore(tmp_path).load(SIGNATURE) is None

    def test_garbage_bytes_load_cold(self, tmp_path):
        store = CacheStore(tmp_path)
        self._path(store).write_bytes(b"\x00\xffnot json at all")
        assert store.load(SIGNATURE) is None

    def test_truncated_json_loads_cold(self, tmp_path, cost_model8):
        store = CacheStore(tmp_path)
        solver = greedy_solver(cost_model8)
        solver.solve((4096, 2048, 1024))
        spill(store, solver, SIGNATURE)
        text = self._path(store).read_text()
        self._path(store).write_text(text[: len(text) // 2])
        assert store.load(SIGNATURE) is None

    def test_wrong_version_loads_cold(self, tmp_path):
        store = CacheStore(tmp_path)
        store.save(SIGNATURE, WorkloadState(signature=repr(SIGNATURE)))
        payload = json.loads(self._path(store).read_text())
        payload["version"] = STORE_VERSION + 1
        self._path(store).write_text(json.dumps(payload))
        assert store.load(SIGNATURE) is None

    def test_signature_mismatch_loads_cold(self, tmp_path):
        """A digest collision (or stale schema) must read as cold."""
        store = CacheStore(tmp_path)
        store.save(
            OTHER_SIGNATURE, WorkloadState(signature=repr(OTHER_SIGNATURE))
        )
        foreign = store.root / (
            f"workload-{signature_digest(OTHER_SIGNATURE)}.json"
        )
        foreign.rename(self._path(store))
        assert store.load(SIGNATURE) is None

    def test_save_recovers_after_corruption(self, tmp_path, cost_model8):
        store = CacheStore(tmp_path)
        self._path(store).write_text("{broken")
        solver = greedy_solver(cost_model8)
        solver.solve((8192, 4096))
        spill(store, solver, SIGNATURE)  # must not raise
        assert store.load(SIGNATURE) is not None


class TestMergeAndKeys:
    def test_save_merges_plan_entries(self, tmp_path):
        store = CacheStore(tmp_path)
        first = WorkloadState(signature=repr(SIGNATURE), static_degree=8)
        first.plans["ctx"] = [((1024,), None, None)]
        store.save(SIGNATURE, first)
        second = WorkloadState(signature=repr(SIGNATURE))
        second.plans["ctx"] = [((2048,), None, None)]
        second.megatron_strategy = (2, 2, 2)
        store.save(SIGNATURE, second)
        merged = store.load(SIGNATURE)
        assert {e[0] for e in merged.plans["ctx"]} == {(1024,), (2048,)}
        # Scalars survive merging: the degree from the first spill, the
        # strategy from the second.
        assert merged.static_degree == 8
        assert merged.megatron_strategy == (2, 2, 2)

    def test_save_rejects_mismatched_signature(self, tmp_path):
        with pytest.raises(ValueError, match="signature"):
            CacheStore(tmp_path).save(
                SIGNATURE, WorkloadState(signature=repr(OTHER_SIGNATURE))
            )

    def test_digests_are_deterministic_and_distinct(self):
        assert signature_digest(SIGNATURE) == signature_digest(SIGNATURE)
        assert signature_digest(SIGNATURE) != signature_digest(OTHER_SIGNATURE)
        config = SolverConfig()
        assert context_digest(config.planner, "milp") != context_digest(
            config.planner, "greedy"
        )
        ablated = dataclasses.replace(config.planner, bucketing="naive")
        assert context_digest(config.planner, "milp") != context_digest(
            ablated, "milp"
        )

    def test_signatures_listing(self, tmp_path):
        store = CacheStore(tmp_path)
        assert store.signatures() == []
        store.save(SIGNATURE, WorkloadState(signature=repr(SIGNATURE)))
        assert store.signatures() == [signature_digest(SIGNATURE)]


# ---------------------------------------------------------------------------
# Lifecycle: manifest accounting, eviction, concurrency, fuzzing.
# ---------------------------------------------------------------------------

#: A deterministic "now" for eviction tests (prune takes ``now=`` and
#: ``touch`` backdates both the manifest and the file mtime, so the
#: policy sees a fully controlled clock).
NOW = 1_700_000_000.0


def _aged_store(root, ages_days: list[float]) -> tuple[CacheStore, list[tuple]]:
    """A store with one workload file per age (in days before NOW)."""
    store = CacheStore(root)
    signatures = []
    for index, age in enumerate(ages_days):
        signature = ("aged", index)
        state = WorkloadState(signature=repr(signature))
        state.plans["ctx"] = [
            ((shape,), None, None) for shape in range(index % 3 + 1)
        ]
        store.save(signature, state)
        store.touch(signature, when=NOW - age * 86400.0)
        signatures.append(signature)
    return store, signatures


def _manifest_files(store: CacheStore) -> dict:
    return json.loads((store.root / MANIFEST_NAME).read_text())["files"]


class TestManifestAccounting:
    def test_save_records_last_used_entry_count_and_bytes(self, tmp_path):
        store = CacheStore(tmp_path)
        state = WorkloadState(signature=repr(SIGNATURE), static_degree=8)
        state.plans["ctx"] = [((1024,), None, None), ((2048,), None, None)]
        before = time.time()
        store.save(SIGNATURE, state)
        path = store._path(SIGNATURE)
        entry = _manifest_files(store)[path.name]
        assert entry["bytes"] == path.stat().st_size
        assert entry["entry_count"] == 3  # two plan entries + the degree
        assert entry["last_used"] >= before

    def test_load_bumps_last_used(self, tmp_path):
        """A warm load freshens the file against LRU eviction — via
        the mtime (O(1), lock-free), which the reconciled accounting
        folds into ``last_used``."""
        store = CacheStore(tmp_path)
        store.save(SIGNATURE, WorkloadState(signature=repr(SIGNATURE)))
        path = store._path(SIGNATURE)
        store.touch(SIGNATURE, when=NOW)
        assert _manifest_files(store)[path.name]["last_used"] == NOW
        assert store.load(SIGNATURE) is not None
        assert store._reconciled_files()[path.name]["last_used"] > NOW
        # ...and a fresh pruner consequently leaves the hot file alone.
        result = CacheStore(tmp_path).prune(max_age_days=1.0, now=NOW)
        assert result.evicted == ()

    def test_counters_track_hits_misses_writes(self, tmp_path):
        store = CacheStore(tmp_path)
        assert store.load(SIGNATURE) is None
        store.save(SIGNATURE, WorkloadState(signature=repr(SIGNATURE)))
        assert store.load(SIGNATURE) is not None
        assert store.counters() == {
            "hits": 1,
            "misses": 1,
            "writes": 1,
            "evictions": 0,
            "lock_waits": 0,
            "lock_breaks": 0,
        }

    def test_lock_waits_counts_contended_saves(self, tmp_path):
        import fcntl

        store = CacheStore(tmp_path)
        state = WorkloadState(signature=repr(SIGNATURE))
        store.save(SIGNATURE, state)
        assert store.counters()["lock_waits"] == 0
        # Hold the per-workload write lock from "another process" and
        # release it from a timer, so the contended save both waits
        # and completes.
        import threading

        lock_path = store._path(SIGNATURE).with_suffix(".lock")
        held = open(lock_path, "w")
        fcntl.flock(held.fileno(), fcntl.LOCK_EX)
        timer = threading.Timer(
            0.2, lambda: fcntl.flock(held.fileno(), fcntl.LOCK_UN)
        )
        timer.start()
        try:
            store.save(SIGNATURE, state)
        finally:
            timer.join()
            held.close()
        assert store.counters()["lock_waits"] == 1

    def test_stats_reconcile_disk_and_counters(self, tmp_path):
        store = CacheStore(tmp_path)
        state = WorkloadState(signature=repr(SIGNATURE))
        state.plans["ctx"] = [((1024,), None, None)]
        store.save(SIGNATURE, state)
        store.save(
            OTHER_SIGNATURE, WorkloadState(signature=repr(OTHER_SIGNATURE))
        )
        stats = store.stats()
        assert stats.files == 2
        assert stats.entries == 1
        assert stats.bytes == sum(
            p.stat().st_size for p in tmp_path.glob("workload-*.json")
        )
        assert stats.writes == 2

    def test_scan_adopts_files_the_manifest_missed(self, tmp_path):
        """The directory is the source of truth: a data file written
        without its accounting (lost manifest update, foreign writer)
        is adopted with its mtime as last_used."""
        store = CacheStore(tmp_path)
        store.save(SIGNATURE, WorkloadState(signature=repr(SIGNATURE)))
        (tmp_path / MANIFEST_NAME).unlink()
        files, size, __ = store.scan()
        assert files == 1
        assert size == store._path(SIGNATURE).stat().st_size

    def test_scan_drops_entries_for_vanished_files(self, tmp_path):
        store = CacheStore(tmp_path)
        store.save(SIGNATURE, WorkloadState(signature=repr(SIGNATURE)))
        store._path(SIGNATURE).unlink()
        assert store.scan() == (0, 0, 0)


class TestPrune:
    def test_age_cap_evicts_only_older_files(self, tmp_path):
        __, signatures = _aged_store(tmp_path, [0.0, 1.0, 5.0, 10.0])
        pruner = CacheStore(tmp_path)
        result = pruner.prune(max_age_days=3.0, now=NOW)
        assert len(result.evicted) == 2
        assert pruner.load(signatures[0]) is not None
        assert pruner.load(signatures[1]) is not None
        assert pruner.load(signatures[2]) is None  # evicted: cold, not fatal
        assert pruner.load(signatures[3]) is None

    def test_byte_cap_evicts_lru_first(self, tmp_path):
        store, signatures = _aged_store(tmp_path, [0.0, 1.0, 5.0, 10.0])
        sizes = {
            name: entry["bytes"] for name, entry in _manifest_files(store).items()
        }
        keep_newest_two = sum(
            sizes[store._path(signatures[i]).name] for i in (0, 1)
        )
        pruner = CacheStore(tmp_path)
        result = pruner.prune(max_store_bytes=keep_newest_two, now=NOW)
        assert pruner.load(signatures[0]) is not None
        assert pruner.load(signatures[1]) is not None
        assert pruner.load(signatures[3]) is None
        assert result.bytes_kept <= keep_newest_two

    def test_prune_protects_this_instances_working_set(self, tmp_path):
        """A prune issued mid-campaign must never evict what the
        campaign itself saved or loaded, even under a zero byte cap."""
        store, signatures = _aged_store(tmp_path, [0.0, 4.0])
        result = store.prune(max_store_bytes=0, max_age_days=1.0, now=NOW)
        assert result.evicted == ()
        assert store.load(signatures[0]) is not None
        assert store.load(signatures[1]) is not None

    def test_unprotected_prune_evicts_everything_under_zero_cap(
        self, tmp_path
    ):
        store, signatures = _aged_store(tmp_path, [0.0, 4.0])
        result = store.prune(
            max_store_bytes=0, now=NOW, protect_touched=False
        )
        assert len(result.evicted) == 2
        assert store.load(signatures[0]) is None

    def test_dry_run_deletes_nothing(self, tmp_path):
        __, signatures = _aged_store(tmp_path, [0.0, 5.0])
        pruner = CacheStore(tmp_path)
        result = pruner.prune(max_age_days=1.0, now=NOW, dry_run=True)
        assert result.dry_run and len(result.evicted) == 1
        assert pruner.load(signatures[1]) is not None

    def test_prune_skips_files_changed_since_observed(
        self, tmp_path, monkeypatch
    ):
        """The cross-process guard: a victim whose data file changed
        between the pass's observation and its deletion attempt (a
        concurrent writer's merge-save landed) is left alone — checked
        against the file's own recorded mtime/size, not wall clocks."""
        __, signatures = _aged_store(tmp_path, [5.0])
        pruner = CacheStore(tmp_path)
        observed = pruner._reconciled_files()
        # The concurrent merge-save lands "after" the observation:
        writer = CacheStore(tmp_path)
        state = WorkloadState(signature=repr(signatures[0]))
        state.plans["ctx"] = [((31337,), None, None)]
        writer.save(signatures[0], state)
        monkeypatch.setattr(
            CacheStore, "_reconciled_files", lambda self: dict(observed)
        )
        result = pruner.prune(max_store_bytes=0, now=NOW)
        assert result.evicted == ()
        merged = writer.load(signatures[0])
        assert (31337,) in {entry[0] for entry in merged.plans["ctx"]}

    def test_prune_does_not_report_vanished_victims_as_evicted(
        self, tmp_path, monkeypatch
    ):
        """A victim another pruner already deleted is neither counted
        nor listed as this pass's eviction (no double-reporting across
        concurrent prunes) — and not as a survivor either."""
        store, signatures = _aged_store(tmp_path, [5.0])
        pruner = CacheStore(tmp_path)
        observed = pruner._reconciled_files()
        store._path(signatures[0]).unlink()  # the racing pruner won
        monkeypatch.setattr(
            CacheStore, "_reconciled_files", lambda self: dict(observed)
        )
        result = pruner.prune(max_store_bytes=0, now=NOW)
        assert result.evicted == ()
        assert result.files_kept == 0
        assert pruner.counters()["evictions"] == 0

    def test_pruned_signature_repopulates_on_next_save(self, tmp_path):
        __, signatures = _aged_store(tmp_path, [5.0])
        pruner = CacheStore(tmp_path)
        pruner.prune(max_age_days=1.0, now=NOW)
        assert pruner.load(signatures[0]) is None
        fresh = WorkloadState(signature=repr(signatures[0]))
        fresh.plans["ctx"] = [((4096,), None, None)]
        pruner.save(signatures[0], fresh)
        restored = pruner.load(signatures[0])
        assert [e[0] for e in restored.plans["ctx"]] == [(4096,)]

    def test_prune_counts_evictions(self, tmp_path):
        _aged_store(tmp_path, [5.0, 6.0])
        pruner = CacheStore(tmp_path)
        pruner.prune(max_age_days=1.0, now=NOW)
        assert pruner.counters()["evictions"] == 2
        assert pruner.stats().files == 0


ages_strategy = st.lists(
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


class TestPruneCli:
    """``python -m repro.bench --prune`` (``make bench-prune``)."""

    def _prune(self, capsys, *args) -> str:
        from repro.bench import main

        assert main(["--prune", *args]) == 0
        return capsys.readouterr().out

    def test_dry_run_reports_and_deletes_nothing(self, tmp_path, capsys):
        root = tmp_path / "store"
        _aged_store(root, [0.0, 1.0, 5.0])
        files = sorted(p.name for p in root.glob("workload-*.json"))
        out = self._prune(
            capsys, "--store", str(root), "--max-store-bytes", "0",
            "--dry-run",
        )
        assert sorted(
            line.split()[-1] for line in out.splitlines()
            if line.startswith("  would evict ")
        ) == files
        assert sorted(p.name for p in root.glob("workload-*.json")) == files

    def test_byte_cap_evicts_every_data_file(self, tmp_path, capsys):
        root = tmp_path / "store"
        _aged_store(root, [0.0, 1.0, 5.0])
        out = self._prune(
            capsys, "--store", str(root), "--max-store-bytes", "0"
        )
        assert "evicted 3 file(s)" in out
        assert list(root.glob("workload-*.json")) == []

    def test_missing_store_is_nothing_to_prune(self, tmp_path, capsys):
        out = self._prune(
            capsys, "--store", str(tmp_path / "absent"), "--max-age-days", "1"
        )
        assert "nothing to prune" in out

    def test_no_caps_deletes_nothing(self, tmp_path, capsys):
        root = tmp_path / "store"
        _aged_store(root, [0.0, 1.0, 5.0])
        out = self._prune(capsys, "--store", str(root))
        assert "no caps given" in out
        assert len(list(root.glob("workload-*.json"))) == 3


class TestEvictionProperties:
    """Hypothesis properties of the eviction policy.

    Explicit ``@example`` seeds pin the shrunk counter-example shapes
    these properties were built against (boundary age exactly at the
    cap, one file, all-equal ages), so regressions reproduce without a
    Hypothesis database.
    """

    @given(ages=ages_strategy, cap_days=st.floats(min_value=0.5, max_value=30.0))
    @example(ages=[2.0], cap_days=2.0)
    @example(ages=[0.0, 30.0], cap_days=1.0)
    @settings(max_examples=30, deadline=None)
    def test_prune_never_evicts_newer_than_the_age_cap(
        self, tmp_path_factory, ages, cap_days
    ):
        root = tmp_path_factory.mktemp("store")
        __, signatures = _aged_store(root, ages)
        pruner = CacheStore(root)
        result = pruner.prune(max_age_days=cap_days, now=NOW)
        evicted = set(result.evicted)
        for signature, age in zip(signatures, ages):
            name = pruner._path(signature).name
            if age * 86400.0 < cap_days * 86400.0:
                assert name not in evicted
            if name not in evicted:
                assert pruner.load(signature) is not None

    @given(ages=ages_strategy, cap=st.integers(min_value=0, max_value=4096))
    @example(ages=[0.0], cap=0)
    @example(ages=[1.0, 1.0, 1.0], cap=500)
    @settings(max_examples=30, deadline=None)
    def test_bytes_after_prune_fit_the_cap_and_lru_order_holds(
        self, tmp_path_factory, ages, cap
    ):
        root = tmp_path_factory.mktemp("store")
        __, signatures = _aged_store(root, ages)
        pruner = CacheStore(root)
        result = pruner.prune(max_store_bytes=cap, now=NOW)
        remaining = sum(
            p.stat().st_size for p in root.glob("workload-*.json")
        )
        assert remaining <= cap or not result.evicted
        assert remaining == result.bytes_kept
        # LRU order: nothing evicted may be fresher than a survivor.
        by_name = {
            pruner._path(signature).name: NOW - age * 86400.0
            for signature, age in zip(signatures, ages)
        }
        evicted = set(result.evicted)
        kept = set(by_name) - evicted
        if evicted and kept:
            assert max(by_name[n] for n in evicted) <= min(
                by_name[n] for n in kept
            )

    @given(
        ages=ages_strategy,
        cap=st.integers(min_value=0, max_value=4096),
        cap_days=st.floats(min_value=0.5, max_value=30.0),
    )
    @example(ages=[0.0, 10.0], cap=0, cap_days=1.0)
    @settings(max_examples=30, deadline=None)
    def test_prune_is_idempotent(self, tmp_path_factory, ages, cap, cap_days):
        root = tmp_path_factory.mktemp("store")
        _aged_store(root, ages)
        pruner = CacheStore(root)
        first = pruner.prune(
            max_store_bytes=cap, max_age_days=cap_days, now=NOW
        )
        second = pruner.prune(
            max_store_bytes=cap, max_age_days=cap_days, now=NOW
        )
        assert second.evicted == ()
        assert second.files_kept == first.files_kept
        assert second.bytes_kept == first.bytes_kept


# ---------------------------------------------------------------------------
# Concurrency stress: N writer processes hammer one store directory
# with interleaved merge-saves and loads while a pruner process runs
# concurrent prunes.  Module-level helpers so they fork/pickle cleanly.
# ---------------------------------------------------------------------------

STRESS_SIGNATURES = [("stress", index) for index in range(3)]
STRESS_WRITERS = 4
STRESS_ITERATIONS = 24


def _stress_entry(writer_id: int, iteration: int) -> tuple[int]:
    """A shape unique per (writer, iteration): lost-update detector."""
    return (writer_id * 1_000_000 + iteration,)


def _stress_writer(root, writer_id: int) -> None:
    store = CacheStore(root)
    for iteration in range(STRESS_ITERATIONS):
        signature = STRESS_SIGNATURES[iteration % len(STRESS_SIGNATURES)]
        state = WorkloadState(signature=repr(signature))
        state.plans["ctx"] = [
            (_stress_entry(writer_id, iteration), None, None)
        ]
        store.save(signature, state)
        loaded = store.load(signature)
        # Every mid-stream load must be bit-identical-or-cold: either
        # a complete state for the right signature or None, never a
        # torn read or a crash.
        if loaded is not None:
            assert loaded.signature == repr(signature)
            assert all(
                plan is None and predicted is None
                for entries in loaded.plans.values()
                for (__, plan, predicted) in entries
            )


def _stress_pruner(root, iterations: int, max_store_bytes, max_age_days):
    pruner = CacheStore(root)
    for __ in range(iterations):
        pruner.prune(
            max_store_bytes=max_store_bytes, max_age_days=max_age_days
        )


def _run_stress(root, max_store_bytes, max_age_days) -> None:
    context = multiprocessing.get_context("fork")
    writers = [
        context.Process(target=_stress_writer, args=(root, writer_id))
        for writer_id in range(STRESS_WRITERS)
    ]
    # Two pruners so prune-vs-prune races (victims vanishing under a
    # competing pass) are exercised alongside prune-vs-save ones.
    pruners = [
        context.Process(
            target=_stress_pruner,
            args=(root, 20, max_store_bytes, max_age_days),
        )
        for __ in range(2)
    ]
    for process in writers + pruners:
        process.start()
    for process in writers + pruners:
        process.join(timeout=120)
        assert process.exitcode == 0, f"stress process died: {process}"


class TestConcurrencyStress:
    def test_concurrent_saves_and_nonevicting_prunes_lose_nothing(
        self, tmp_path
    ):
        """4 writer processes + a concurrent pruner whose caps justify
        no eviction (everything is fresh): every entry every writer
        ever merged must be present and intact at the end."""
        _run_stress(tmp_path, max_store_bytes=None, max_age_days=1.0)
        verifier = CacheStore(tmp_path)
        for index, signature in enumerate(STRESS_SIGNATURES):
            loaded = verifier.load(signature)
            assert loaded is not None, f"signature {index} lost entirely"
            shapes = {entry[0] for entry in loaded.plans["ctx"]}
            expected = {
                _stress_entry(writer_id, iteration)
                for writer_id in range(STRESS_WRITERS)
                for iteration in range(STRESS_ITERATIONS)
                if iteration % len(STRESS_SIGNATURES) == index
            }
            assert shapes == expected

    def test_concurrent_saves_and_aggressive_prunes_never_corrupt(
        self, tmp_path
    ):
        """With a zero byte cap the pruner evicts continuously under
        the writers; entries may legitimately vanish (cold on next
        miss) but every surviving file must be complete JSON and every
        load bit-identical-or-cold."""
        _run_stress(tmp_path, max_store_bytes=0, max_age_days=None)
        verifier = CacheStore(tmp_path)
        for path in tmp_path.glob("workload-*.json"):
            json.loads(path.read_text())  # complete, never torn
        for signature in STRESS_SIGNATURES:
            loaded = verifier.load(signature)
            assert loaded is None or loaded.signature == repr(signature)
        # The store stays usable: the next save repopulates cleanly.
        state = WorkloadState(signature=repr(STRESS_SIGNATURES[0]))
        state.plans["ctx"] = [((7,), None, None)]
        verifier.save(STRESS_SIGNATURES[0], state)
        assert verifier.load(STRESS_SIGNATURES[0]) is not None


# ---------------------------------------------------------------------------
# Corruption fuzzing: damaged data files AND damaged manifests always
# load cold and are rewritten cleanly by the next spill / prune.
# ---------------------------------------------------------------------------

#: Byte-level damage applied to store files in the fuzz tests.
CORRUPTIONS = {
    "garbage": lambda text: b"\x00\xff\xfenot json at all",
    "empty": lambda text: b"",
    "half": lambda text: text.encode()[: len(text) // 2],
    "open_brace": lambda text: b"{",
    "json_array": lambda text: b"[1, 2, 3]",
    "wrong_types": lambda text: b'{"version": 1, "files": 42, "plans": "x"}',
    "wrong_version": lambda text: json.dumps(
        {**json.loads(text), "version": STORE_VERSION + 7}
    ).encode(),
}


class TestCorruptionFuzz:
    def _populate(self, root) -> CacheStore:
        store = CacheStore(root)
        for index, signature in enumerate(STRESS_SIGNATURES):
            state = WorkloadState(signature=repr(signature), static_degree=4)
            state.plans["ctx"] = [((128 * (index + 1),), None, None)]
            store.save(signature, state)
        return store

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_data_file_loads_cold_and_respills_cleanly(
        self, tmp_path, corruption
    ):
        store = self._populate(tmp_path)
        victim = store._path(STRESS_SIGNATURES[0])
        victim.write_bytes(CORRUPTIONS[corruption](victim.read_text()))
        fresh = CacheStore(tmp_path)
        assert fresh.load(STRESS_SIGNATURES[0]) is None  # cold, not fatal
        assert fresh.load(STRESS_SIGNATURES[1]) is not None  # others intact
        state = WorkloadState(signature=repr(STRESS_SIGNATURES[0]))
        state.plans["ctx"] = [((999,), None, None)]
        fresh.save(STRESS_SIGNATURES[0], state)  # rewrite must not raise
        restored = fresh.load(STRESS_SIGNATURES[0])
        assert [e[0] for e in restored.plans["ctx"]] == [(999,)]
        json.loads(victim.read_text())  # clean JSON again

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_manifest_never_breaks_loads_saves_or_prunes(
        self, tmp_path, corruption
    ):
        store = self._populate(tmp_path)
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_bytes(CORRUPTIONS[corruption](manifest.read_text()))
        fresh = CacheStore(tmp_path)
        assert fresh.load(STRESS_SIGNATURES[0]) is not None  # data unaffected
        # stats/prune reconcile from the directory scan instead.
        assert fresh.stats().files == len(STRESS_SIGNATURES)
        result = fresh.prune(max_age_days=1.0, now=time.time())
        assert result.evicted == ()  # everything fresh (mtime fallback)
        fresh.save(
            STRESS_SIGNATURES[0],
            WorkloadState(signature=repr(STRESS_SIGNATURES[0])),
        )
        # The next spill rewrote a valid manifest.
        files = json.loads(manifest.read_text())["files"]
        assert fresh._path(STRESS_SIGNATURES[0]).name in files

    def test_corrupt_file_is_prunable(self, tmp_path):
        """A damaged workload file is still subject to eviction — with
        its manifest accounting gone too, everything falls back to a
        zero entry count and mtime age."""
        store = self._populate(tmp_path)
        victim = store._path(STRESS_SIGNATURES[0])
        victim.write_bytes(b"\x00broken")
        old = NOW - 10 * 86400.0
        os.utime(victim, (old, old))
        (tmp_path / MANIFEST_NAME).unlink()
        pruner = CacheStore(tmp_path)
        result = pruner.prune(max_age_days=1.0, now=NOW)
        assert victim.name in result.evicted
        assert not victim.exists()
