"""Tests for repro.simulator.trace: phase traces and breakdowns."""

import pytest

from repro.simulator.trace import PhaseKind, TracePhase, TraceRecorder


def phase(kind, start, duration, devices, microbatch=-1, degree=0):
    return TracePhase(
        kind=kind,
        start=start,
        duration=duration,
        devices=devices,
        microbatch=microbatch,
        group_degree=degree,
    )


class TestTracePhase:
    def test_end_and_device_seconds(self):
        p = phase(PhaseKind.COMPUTE, 1.0, 2.0, 4)
        assert p.end == 3.0
        assert p.device_seconds == 8.0

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            phase(PhaseKind.COMPUTE, 0, -1, 4)

    def test_rejects_nonpositive_devices(self):
        with pytest.raises(ValueError, match="devices"):
            phase(PhaseKind.COMPUTE, 0, 1, 0)


class TestRecorder:
    def test_rejects_phase_exceeding_cluster(self):
        rec = TraceRecorder(total_devices=8)
        with pytest.raises(ValueError, match="cluster has"):
            rec.record(PhaseKind.COMPUTE, 0, 1, 16)

    def test_wall_seconds_device_weighted(self):
        rec = TraceRecorder(total_devices=8)
        rec.record(PhaseKind.COMPUTE, 0, 4.0, 4)
        assert rec.wall_seconds(PhaseKind.COMPUTE) == pytest.approx(2.0)

    def test_full_cluster_phase_counts_fully(self):
        rec = TraceRecorder(total_devices=8)
        rec.record(PhaseKind.GRAD_SYNC, 0, 3.0, 8)
        assert rec.wall_seconds(PhaseKind.GRAD_SYNC) == pytest.approx(3.0)

    def test_alltoall_fraction(self):
        rec = TraceRecorder(total_devices=4)
        rec.record(PhaseKind.COMPUTE, 0, 6.0, 4)
        rec.record(PhaseKind.ALLTOALL, 6.0, 2.0, 4)
        assert rec.alltoall_fraction() == pytest.approx(0.25)

    def test_idle_counts_as_others(self):
        rec = TraceRecorder(total_devices=4)
        rec.record(PhaseKind.ALLTOALL, 0, 1.0, 4)
        rec.record(PhaseKind.IDLE, 0, 1.0, 4)
        assert rec.alltoall_fraction() == pytest.approx(0.5)

    def test_breakdown_has_all_kinds(self):
        rec = TraceRecorder(total_devices=2)
        rec.record(PhaseKind.COMPUTE, 0, 1.0, 2)
        breakdown = rec.breakdown()
        assert set(breakdown) == {k.value for k in PhaseKind}
        assert breakdown["compute"] == 1.0
        assert breakdown["optimizer"] == 0.0

    def test_phases_of_microbatch(self):
        rec = TraceRecorder(total_devices=4)
        rec.record(PhaseKind.COMPUTE, 0, 1.0, 4, microbatch=0)
        rec.record(PhaseKind.COMPUTE, 1, 1.0, 4, microbatch=1)
        assert len(rec.phases_of_microbatch(0)) == 1

    def test_end_time(self):
        rec = TraceRecorder(total_devices=4)
        assert rec.end_time() == 0.0
        rec.record(PhaseKind.COMPUTE, 1.0, 2.5, 4)
        assert rec.end_time() == 3.5

    def test_empty_fraction_zero(self):
        assert TraceRecorder(total_devices=4).alltoall_fraction() == 0.0
