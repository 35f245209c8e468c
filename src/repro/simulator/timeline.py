"""ASCII timeline rendering of execution traces.

Turns a :class:`repro.simulator.trace.TraceRecorder` into a Gantt-style
text chart — one row per SP group (or cluster-wide phase), time on the
horizontal axis — so heterogeneous plans can be inspected at a glance:

    mb0 SP=32 [CCCCCCCCCCAAAA.....]
    mb0 SP=8  [CCCCCCCAA..........]

``C`` compute, ``A`` All-to-All, ``Z`` exposed ZeRO gather, ``G``
gradient sync, ``O`` optimizer, ``.`` idle.
"""

from __future__ import annotations

from repro.simulator.trace import PhaseKind, TracePhase, TraceRecorder

#: One-character glyph per phase kind.
GLYPHS = {
    PhaseKind.COMPUTE: "C",
    PhaseKind.ALLTOALL: "A",
    PhaseKind.ZERO_GATHER: "Z",
    PhaseKind.GRAD_SYNC: "G",
    PhaseKind.OPTIMIZER: "O",
    PhaseKind.GROUP_CREATE: "N",
    PhaseKind.IDLE: ".",
}


def _row_key(phase: TracePhase) -> tuple:
    if phase.group_degree > 0:
        return (phase.microbatch, -phase.group_degree, phase.devices)
    return (phase.microbatch, 0, phase.devices)


def _row_label(phase: TracePhase) -> str:
    if phase.group_degree > 0:
        return f"mb{phase.microbatch} SP={phase.group_degree}"
    if phase.microbatch >= 0:
        return f"mb{phase.microbatch} spare"
    return "cluster"


def render_timeline(trace: TraceRecorder, width: int = 72) -> str:
    """Render the trace as an aligned ASCII Gantt chart.

    Args:
        trace: A recorder filled by the executor.
        width: Character columns representing the full iteration.

    Returns:
        Multi-line chart; rows ordered by (micro-batch, degree desc).
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    phases = trace.phases
    if not phases:
        return "(empty trace)"
    end = trace.end_time()
    if end <= 0:
        return "(zero-length trace)"

    rows: dict[tuple, list[TracePhase]] = {}
    labels: dict[tuple, str] = {}
    for phase in phases:
        key = _row_key(phase)
        rows.setdefault(key, []).append(phase)
        labels.setdefault(key, _row_label(phase))

    label_width = max(len(label) for label in labels.values())
    lines = []
    for key in sorted(rows):
        cells = ["."] * width
        for phase in sorted(rows[key], key=lambda p: p.start):
            start_col = int(phase.start / end * width)
            end_col = max(start_col + 1, int(phase.end / end * width))
            glyph = GLYPHS[phase.kind]
            for col in range(start_col, min(end_col, width)):
                cells[col] = glyph
        lines.append(f"{labels[key]:<{label_width}} [{''.join(cells)}]")
    legend = "  ".join(f"{g}={k.value}" for k, g in GLYPHS.items())
    lines.append(legend)
    return "\n".join(lines)
