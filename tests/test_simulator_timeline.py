"""Tests for repro.simulator.timeline: ASCII Gantt rendering."""

import pytest

from repro.core.types import GroupAssignment, IterationPlan, MicroBatchPlan
from repro.model.config import GPT_7B
from repro.simulator.executor import IterationExecutor
from repro.simulator.timeline import GLYPHS, render_timeline
from repro.simulator.trace import PhaseKind, TraceRecorder


def _synthetic_trace():
    trace = TraceRecorder(total_devices=8)
    trace.record(PhaseKind.COMPUTE, 0.0, 2.0, 4, 0, 4)
    trace.record(PhaseKind.ALLTOALL, 2.0, 1.0, 4, 0, 4)
    trace.record(PhaseKind.COMPUTE, 0.0, 1.0, 4, 0, 2)
    trace.record(PhaseKind.IDLE, 1.0, 2.0, 4, 0, 2)
    trace.record(PhaseKind.GRAD_SYNC, 3.0, 0.5, 8)
    return trace


class TestRendering:
    def test_empty_trace(self):
        assert "empty" in render_timeline(TraceRecorder(total_devices=4))

    def test_rows_and_legend(self):
        text = render_timeline(_synthetic_trace(), width=40)
        lines = text.splitlines()
        assert any("mb0 SP=4" in line for line in lines)
        assert any("mb0 SP=2" in line for line in lines)
        assert any("cluster" in line for line in lines)
        assert "C=compute" in lines[-1]

    def test_glyph_order_within_row(self):
        text = render_timeline(_synthetic_trace(), width=40)
        row = next(l for l in text.splitlines() if "SP=4" in l)
        chart = row.split("[")[1].rstrip("]")
        assert chart.index("C") < chart.index("A")

    def test_width_respected(self):
        text = render_timeline(_synthetic_trace(), width=25)
        for line in text.splitlines()[:-1]:
            chart = line.split("[")[1].rstrip("]")
            assert len(chart) == 25

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            render_timeline(_synthetic_trace(), width=0)

    def test_every_kind_has_glyph(self):
        assert set(GLYPHS) == set(PhaseKind)


class TestOnRealExecution:
    def test_renders_executor_trace(self, cluster16):
        config = GPT_7B.with_max_context(64 * 1024)
        executor = IterationExecutor(config=config, cluster=cluster16)
        plan = IterationPlan(
            microbatches=(
                MicroBatchPlan(
                    groups=(
                        GroupAssignment(degree=8, device_ranks=tuple(range(8)),
                                        lengths=(16384,)),
                        GroupAssignment(degree=8, device_ranks=tuple(range(8, 16)),
                                        lengths=(2048,)),
                    )
                ),
            )
        )
        result = executor.run(plan)
        text = render_timeline(result.trace)
        assert "mb0 SP=8" in text
        # The straggler row shows All-to-All and the light row idles.
        assert "A" in text
        assert "." in text
