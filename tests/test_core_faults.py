"""Tests for repro.core.faults: the deterministic fault-injection plane.

Covers the spec grammar, the disarmed zero-cost path, the
once-globally ledger gate (the property that keeps ``worker_kill``
from killing every restarted worker forever), and the data-fault
realisation owned by the cache store — a torn spill write must read
back as *cold*.  The resumable planner-pool collection gets a direct
unit here too, and the random menu is checked against the sites a
campaign actually visits; end-to-end recovery lives in
test_experiments_sweep.py and benchmarks/test_bench_chaos.py.
"""

from __future__ import annotations

import gc
import pathlib
import pickle
import tempfile

import pytest

from repro.core import faults
from repro.core.cache_store import (
    CacheStore,
    WorkloadState,
    context_digest,
    entries_from_cache,
)
from repro.cluster.topology import standard_cluster
from repro.core.faults import FaultSchedule, FaultSpec, FaultStats
from repro.core.solver import FlexSPSolver, SolverConfig, SolverPool
from repro.core.types import SequenceBatch
from repro.data.distributions import COMMONCRAWL, GITHUB
from repro.experiments.sweep import SweepRunner, grid_cells
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B

SIGNATURE = ("gpt-7b", "github", 32 * 1024, 8)
SOLVER = SolverConfig(backend="greedy", num_trials=2)


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no schedule armed."""
    faults.disarm()
    yield
    faults.disarm()


class TestSpecGrammar:
    def test_parse_defaults_to_first_occurrence(self):
        spec = FaultSpec.parse("worker_kill@plan")
        assert spec == FaultSpec("worker_kill", "plan", 0)

    def test_parse_explicit_occurrence_and_star(self):
        assert FaultSpec.parse("torn_write@spill:2").occurrence == 2
        assert FaultSpec.parse("worker_kill@plan:*").occurrence is None

    def test_str_round_trips(self):
        for text in (
            "worker_kill@plan:0",
            "worker_kill@spawn:3",
            "torn_write@spill:*",
            "torn_write@spill:1",
            "conn_reset@accept:0",
            "torn_frame@send:2",
            "delay@recv:*",
            "drop_response@send:0",
        ):
            assert str(FaultSpec.parse(text)) == text

    def test_network_menu_is_well_formed(self):
        # Every menu entry parses, and the transport's kinds/sites are
        # all reachable from the chaos CLI's spec grammar.
        for kind, site in faults.NETWORK_FAULT_MENU:
            spec = FaultSpec.parse(f"{kind}@{site}")
            assert spec.kind in faults.FAULT_KINDS
            assert spec.site in faults.INJECTION_SITES
        assert {"conn_reset", "torn_frame", "delay", "drop_response"} <= set(
            faults.FAULT_KINDS
        )
        assert {"accept", "handshake", "recv", "send"} <= set(
            faults.INJECTION_SITES
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "worker_kill",  # no site
            "explode@plan",  # unknown kind
            "worker_kill@coffee",  # unknown site
            "worker_kill@plan:soon",  # non-integer occurrence
            "worker_kill@plan:-1",  # negative occurrence
            # Kinds and sites no code realises or visits.
            "hang@plan",
            "worker_kill@cell",
            "worker_kill@drain",
            "worker_kill@prewarm",
            "torn_write@lock",
            "torn_write@prune",
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_schedule_parses_comma_separated_specs(self):
        schedule = FaultSchedule.parse(
            "worker_kill@plan:3, torn_write@spill", seed=7
        )
        assert [str(s) for s in schedule.specs] == [
            "worker_kill@plan:3",
            "torn_write@spill:0",
        ]
        assert schedule.seed == 7
        assert str(schedule) == "worker_kill@plan:3,torn_write@spill:0"

    def test_empty_schedule_raises(self):
        with pytest.raises(ValueError, match="no fault specs"):
            FaultSchedule.parse(" , ")

    def test_single_random_is_deterministic_per_seed(self):
        a = FaultSchedule.single_random(42)
        b = FaultSchedule.single_random(42)
        c = FaultSchedule.single_random(43)
        assert a.specs == b.specs
        assert len(a.specs) == 1
        assert (a.specs[0].kind, a.specs[0].site) in faults.RANDOM_FAULT_MENU
        # Different seeds cover the menu: at least two distinct draws
        # in any short seed range.
        draws = {FaultSchedule.single_random(s).specs for s in range(8)}
        assert len(draws) > 1
        assert c.seed == 43


class TestLedgerCleanup:
    """A schedule that generated its own ledger removes it and its
    lock file once collected; nothing else deletes a ledger."""

    @pytest.fixture()
    def temp_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        # ``tempfile`` caches the directory; None makes it re-read TMPDIR.
        monkeypatch.setattr(tempfile, "tempdir", None)
        return tmp_path

    @staticmethod
    def leftovers(directory) -> list[str]:
        return sorted(
            path.name for path in directory.glob("repro-fault-ledger-*")
        )

    def test_dropped_schedules_leave_no_ledger_or_lock(self, temp_dir):
        schedules = [
            FaultSchedule.parse("delay@recv:*,torn_write@spill:1", seed=seed)
            for seed in range(9)
        ]
        schedules += [FaultSchedule.single_random(seed) for seed in range(9)]
        schedules.append(FaultSchedule(specs=(FaultSpec("delay", "send"),)))
        for schedule in schedules:
            assert pathlib.Path(schedule.record_path).parent == temp_dir
            with faults.armed(schedule):
                faults.maybe_inject("recv")
                faults.maybe_inject("send")
        assert len(self.leftovers(temp_dir)) > len(schedules)  # locks too
        del schedule
        schedules.clear()
        gc.collect()
        assert self.leftovers(temp_dir) == []

        # The twentieth: armed around a pooled sweep pass whose
        # workers append to its ledger.
        pooled = FaultSchedule.parse("delay@spawn:*,delay@plan:*")
        workload = Workload(
            model=GPT_7B,
            distribution=GITHUB,
            max_context=32 * 1024,
            cluster=standard_cluster(8),
            global_batch_size=16,
        )
        with SweepRunner(
            grid_cells(["flexsp"], [workload]),
            solver_config=SOLVER,
            solver_workers=2,
            fault_schedule=pooled,
        ) as runner:
            runner.run()
        counts = pooled.injection_counts()
        assert counts.get("delay@spawn", 0) >= 1
        assert self.leftovers(temp_dir)
        del runner, pooled
        gc.collect()
        assert self.leftovers(temp_dir) == []

    def test_copies_and_given_paths_never_delete(self, temp_dir, tmp_path):
        given = tmp_path / "given.log"
        kept = FaultSchedule.parse("delay@recv:*", record_path=str(given))
        with faults.armed(kept):
            faults.maybe_inject("recv")
        owner = FaultSchedule.parse("delay@recv:*")
        copy = pickle.loads(pickle.dumps(owner))
        assert copy.record_path == owner.record_path
        with faults.armed(copy):
            faults.maybe_inject("recv")
        del kept, copy
        gc.collect()
        assert given.exists()
        assert (tmp_path / "given.log.lock").exists()
        assert owner.read_ledger() == ["delay@recv"]
        del owner
        gc.collect()
        assert self.leftovers(temp_dir) == []
        assert given.exists()


class TestPlane:
    def test_disarmed_visits_are_noops(self):
        assert faults.active_schedule() is None
        for site in faults.INJECTION_SITES:
            assert faults.maybe_inject(site) is None

    def test_data_fault_fires_at_exact_occurrence(self, tmp_path):
        schedule = FaultSchedule.parse(
            "torn_write@spill:2", record_path=str(tmp_path / "ledger")
        )
        with faults.armed(schedule):
            assert faults.maybe_inject("spill") is None
            assert faults.maybe_inject("spill") is None
            assert faults.maybe_inject("spill") == "torn_write"
            assert faults.maybe_inject("spill") is None
        assert schedule.read_ledger() == ["torn_write@spill"]
        assert schedule.injection_counts() == {"torn_write@spill": 1}

    def test_integer_specs_fire_once_globally(self, tmp_path):
        """A restarted worker (new plane, same ledger) must not
        re-fire a once-only spec — otherwise kill faults would kill
        every replacement worker and recovery could never converge."""
        schedule = FaultSchedule.parse(
            "torn_write@spill:0", record_path=str(tmp_path / "ledger")
        )
        with faults.armed(schedule):
            assert faults.maybe_inject("spill") == "torn_write"
        # Second plane over the same schedule: fresh per-process visit
        # counters, shared ledger.
        with faults.armed(schedule):
            assert faults.maybe_inject("spill") is None
        assert schedule.injection_counts() == {"torn_write@spill": 1}

    def test_star_specs_fire_every_visit(self, tmp_path):
        schedule = FaultSchedule.parse(
            "torn_write@spill:*", record_path=str(tmp_path / "ledger")
        )
        with faults.armed(schedule):
            for _ in range(3):
                assert faults.maybe_inject("spill") == "torn_write"
        assert schedule.injection_counts() == {"torn_write@spill": 3}

    def test_armed_restores_previous_schedule(self):
        outer = FaultSchedule.parse("torn_write@spill:5")
        inner = FaultSchedule.parse("worker_kill@plan:5")
        with faults.armed(outer):
            with faults.armed(inner):
                assert faults.active_schedule() is inner
            assert faults.active_schedule() is outer
        assert faults.active_schedule() is None

    def test_fault_stats_totals_and_dict(self):
        stats = FaultStats(
            injections=(("worker_kill@plan", 2), ("torn_write@spill", 1)),
        )
        assert stats.total_injections == 3


def _spilled_state(model) -> WorkloadState:
    solver = FlexSPSolver(model, SOLVER)
    solver.solve(SequenceBatch(lengths=(4096, 8192, 2048, 1024)))
    state = WorkloadState(signature=repr(SIGNATURE))
    state.coeffs = solver.model.coeffs
    state.comm_model = solver.model.comm_model
    digest = context_digest(solver.config.planner, solver.config.backend)
    state.plans[digest] = entries_from_cache(solver.cache)
    return state


class TestStoreRealisations:
    """The cache store realises torn_write itself."""

    def test_torn_write_reads_back_cold_then_heals(
        self, tmp_path, cost_model8
    ):
        state = _spilled_state(cost_model8)
        store = CacheStore(tmp_path / "store")
        schedule = FaultSchedule.parse(
            "torn_write@spill:0", record_path=str(tmp_path / "ledger")
        )
        with faults.armed(schedule):
            store.save(SIGNATURE, state)
        assert schedule.injection_counts() == {"torn_write@spill": 1}
        # The torn file is corruption, not an error: cold, never fatal.
        assert store.load(SIGNATURE) is None
        # A clean re-save through the same store heals the entry.
        store.save(SIGNATURE, state)
        restored = store.load(SIGNATURE)
        assert restored is not None
        assert restored.coeffs == state.coeffs
        assert restored.plans.keys() == state.plans.keys()


class TestResumablePlanning:
    def test_pool_survives_worker_kill_mid_batch(self, cost_model8):
        """plan_shapes completes after a planner worker dies, without
        replanning shapes that already finished, and the outcomes stay
        bit-identical to in-process planning."""
        batch = SequenceBatch(lengths=(4096, 8192, 2048, 1024, 512, 16384) * 2)
        reference = FlexSPSolver(cost_model8, SOLVER)
        pending = reference.pending_shapes(batch)
        assert len(pending) > 2
        expected = reference.plan_shapes_cold(pending)

        schedule = FaultSchedule.parse("worker_kill@plan:1")
        with faults.armed(schedule):
            with SolverPool(workers=2) as pool:
                solver = FlexSPSolver(
                    cost_model8,
                    SOLVER,
                    service=pool.client(cost_model8, SOLVER),
                )
                outcomes = solver.plan_shapes_cold(pending)
        assert schedule.injection_counts() == {"worker_kill@plan": 1}
        assert len(outcomes) == len(expected)
        for got, want in zip(outcomes, expected):
            if want is None:
                assert got is None
                continue
            assert got is not None
            assert got[0] == want[0]
            assert got[1] == want[1]


class TestRandomMenu:
    def test_every_menu_site_is_visited_by_a_campaign(self, tmp_path):
        """A random schedule must be able to fire: every site on
        :data:`~repro.core.faults.RANDOM_FAULT_MENU` is visited by a
        pooled campaign pass with a store.  A ``delay@site:*`` spec
        records every visit in the ledger and is realised only by the
        plan transport, so it observes without disturbing."""
        sites = sorted({site for __, site in faults.RANDOM_FAULT_MENU})
        schedule = FaultSchedule.parse(
            ",".join(f"delay@{site}:*" for site in sites),
            record_path=str(tmp_path / "ledger"),
        )
        workloads = [
            Workload(
                model=GPT_7B,
                distribution=distribution,
                max_context=32 * 1024,
                cluster=standard_cluster(8),
                global_batch_size=16,
            )
            for distribution in (GITHUB, COMMONCRAWL)
        ]
        store = CacheStore(tmp_path / "store")
        with SweepRunner(
            grid_cells(["flexsp", "deepspeed"], workloads),
            solver_config=SOLVER,
            solver_workers=2,
            store=store,
            fault_schedule=schedule,
        ) as runner:
            runner.run()
        visited = {label.split("@")[1] for label in schedule.read_ledger()}
        assert visited == set(sites)
