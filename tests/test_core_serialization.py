"""Tests for repro.core.serialization: the plan wire format."""

import json

import pytest

from repro.core.serialization import plan_from_dict, plan_to_dict
from repro.core.types import GroupAssignment, IterationPlan, MicroBatchPlan


def dumps(plan: IterationPlan) -> str:
    """A plan as compact JSON text."""
    return json.dumps(plan_to_dict(plan), separators=(",", ":"))


def loads(text: str) -> IterationPlan:
    return plan_from_dict(json.loads(text))


@pytest.fixture()
def plan():
    mb1 = MicroBatchPlan(
        groups=(
            GroupAssignment(degree=4, device_ranks=(0, 1, 2, 3),
                            lengths=(8192, 1024)),
            GroupAssignment(degree=2, device_ranks=(4, 5), lengths=(512,)),
        )
    )
    mb2 = MicroBatchPlan(
        groups=(
            GroupAssignment(degree=8, device_ranks=tuple(range(8)),
                            lengths=(30_000,)),
        )
    )
    return IterationPlan(
        microbatches=(mb1, mb2), predicted_time=3.5, solver_name="flexsp-milp"
    )


class TestRoundTrip:
    def test_dict_round_trip(self, plan):
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_json_round_trip(self, plan):
        assert loads(dumps(plan)) == plan

    def test_preserves_metadata(self, plan):
        restored = loads(dumps(plan))
        assert restored.predicted_time == 3.5
        assert restored.solver_name == "flexsp-milp"

    def test_decoding_against_the_batch_shares_its_ints(self, plan):
        """A plan decoded from JSON with the batch it was solved for is
        equal to the plain decode and keeps the batch's int objects."""
        batch = tuple(int(s) for s in "8192 1024 512 30000".split())
        payload = json.loads(dumps(plan))
        restored = plan_from_dict(payload, batch)
        assert restored == plan_from_dict(payload) == plan
        kept = [s for mb in restored.microbatches for g in mb.groups
                for s in g.lengths]
        assert sorted(map(id, kept)) == sorted(map(id, batch))

    def test_rejects_unknown_version(self, plan):
        payload = plan_to_dict(plan)
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            plan_from_dict(payload)

    def test_invalid_payload_hits_plan_invariants(self, plan):
        payload = plan_to_dict(plan)
        payload["microbatches"][0]["groups"][0]["degree"] = 3
        with pytest.raises(ValueError, match="power of two"):
            plan_from_dict(payload)


class TestSolveStatsSerialization:
    def test_stats_round_trip(self):
        from repro.core.types import SolveStats

        plan = IterationPlan(
            microbatches=(
                MicroBatchPlan(
                    groups=(
                        GroupAssignment(
                            degree=2, device_ranks=(0, 1), lengths=(512, 128)
                        ),
                    )
                ),
            ),
            predicted_time=1.25,
            stats=SolveStats(cache_hits=3, cache_misses=1,
                             trials=2, microbatches=4, pruned_trials=1,
                             pruned_microbatches=2, solve_seconds=0.5),
        )
        restored = loads(dumps(plan))
        assert restored.stats == plan.stats

    def test_stats_wire_dict_equals_asdict(self):
        """The flat field read gives ``dataclasses.asdict``'s keys,
        order and values, so the JSON bytes are unchanged."""
        import dataclasses

        from repro.core.types import SolveStats

        stats = SolveStats(
            cache_hits=3, dedup_hits=2, cache_misses=1, trials=5,
            microbatches=11, pruned_trials=1, pruned_microbatches=5,
            solve_seconds=0.5, enumerate_seconds=0.125, lpt_seconds=0.1,
            milp_build_seconds=0.2, milp_solve_seconds=0.3,
        )
        plan = IterationPlan(
            microbatches=(
                MicroBatchPlan(
                    groups=(
                        GroupAssignment(
                            degree=1, device_ranks=(0,), lengths=(64,)
                        ),
                    )
                ),
            ),
            predicted_time=0.75,
            stats=stats,
        )
        payload = plan_to_dict(plan)
        expected = dataclasses.asdict(stats)
        assert list(payload["stats"].items()) == list(expected.items())
        reference = dict(payload, stats=expected)
        assert dumps(plan) == json.dumps(reference, separators=(",", ":"))

    def test_records_without_pruning_counters_still_load(self):
        """Plans serialized before trial pruning lack its counters; they
        load with zeros."""
        from repro.core.types import SolveStats

        plan = IterationPlan(
            microbatches=(
                MicroBatchPlan(
                    groups=(
                        GroupAssignment(
                            degree=1, device_ranks=(0,), lengths=(64,)
                        ),
                    )
                ),
            ),
            stats=SolveStats(cache_misses=1, trials=1, microbatches=1),
        )
        payload = plan_to_dict(plan)
        del payload["stats"]["pruned_trials"]
        del payload["stats"]["pruned_microbatches"]
        restored = loads(json.dumps(payload))
        assert restored.stats == plan.stats
        assert restored.stats.pruned_trials == 0

    def test_plans_with_kernel_tiers_still_load(self):
        """Plans written while ``SolveStats`` had a ``kernel_tiers``
        field (frames from older plan servers) load without it."""
        from repro.core.types import SolveStats

        text = (
            '{"version":1,"solver_name":"flexsp-greedy",'
            '"predicted_time":0.5159110765210483,"stats":{"cache_hits":0,'
            '"dedup_hits":0,"cache_misses":1,"trials":1,"microbatches":1,'
            '"pruned_trials":0,"pruned_microbatches":0,'
            '"solve_seconds":0.0008868710001479485,'
            '"enumerate_seconds":0.00031686600004832144,'
            '"lpt_seconds":0.0004256759998497728,"milp_build_seconds":0.0,'
            '"milp_solve_seconds":0.0,'
            '"kernel_tiers":[["lpt_scalar","fallback"]]},'
            '"microbatches":[{"groups":[{"degree":8,'
            '"device_ranks":[0,1,2,3,4,5,6,7],'
            '"lengths":[4096,2048,1024,512]}]}]}'
        )
        expected = IterationPlan(
            microbatches=(
                MicroBatchPlan(
                    groups=(
                        GroupAssignment(
                            degree=8,
                            device_ranks=tuple(range(8)),
                            lengths=(4096, 2048, 1024, 512),
                        ),
                    )
                ),
            ),
            predicted_time=0.5159110765210483,
            solver_name="flexsp-greedy",
            stats=SolveStats(
                cache_misses=1,
                trials=1,
                microbatches=1,
                solve_seconds=0.0008868710001479485,
                enumerate_seconds=0.00031686600004832144,
                lpt_seconds=0.0004256759998497728,
            ),
        )
        assert plan_from_dict(json.loads(text)) == expected

    def test_plans_without_stats_stay_stats_free(self):
        plan = IterationPlan(
            microbatches=(
                MicroBatchPlan(
                    groups=(
                        GroupAssignment(
                            degree=1, device_ranks=(0,), lengths=(64,)
                        ),
                    )
                ),
            ),
        )
        payload = plan_to_dict(plan)
        assert "stats" not in payload
        assert loads(dumps(plan)).stats is None
