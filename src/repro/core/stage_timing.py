"""Per-stage wall-clock accounting for the cold planning path.

The cold-path engine is three pipelined stages — candidate-layout
enumeration, the stacked LPT pass, and (for the MILP backend) model
assembly plus the HiGHS solve — and ``python -m repro.bench
--profile`` reports each one separately.  The planners are
pure functions called from many places (in-process, service workers,
pool workers), so the collector is deliberately decoupled from their
signatures: a caller opens a :func:`collect` frame, the planner calls
:func:`add` for each stage it executes, and every frame open *in that
thread* accumulates the seconds.

Worker processes have no access to the parent's frames; the solver's
service/pool entry points open their own frame around the planner call
and ship the collected dict back beside the planning outcome, and the
parent replays it into its active frames with :func:`merge` — so a
solve's stage breakdown is complete whether planning ran in-process or
on a pool.

Timing is host wall-clock: it never participates in the bit-identical
metrics contract (compare :meth:`repro.experiments.sweep.CellMetrics
.deterministic`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

#: The cold-path stages, in pipeline order.
STAGES = ("enumerate", "lpt", "milp_build", "milp_solve")

_LOCAL = threading.local()


def _frames() -> list[dict[str, float]]:
    frames = getattr(_LOCAL, "frames", None)
    if frames is None:
        frames = _LOCAL.frames = []
    return frames


def add(stage: str, seconds: float) -> None:
    """Charge ``seconds`` to ``stage`` in every open frame of this
    thread (no-op when none is open — planners never pay for unused
    instrumentation beyond a perf_counter pair)."""
    for frame in _frames():
        frame[stage] = frame.get(stage, 0.0) + seconds


def merge(stages: dict[str, float] | None) -> None:
    """Replay a worker-collected stage dict into the open frames."""
    if not stages:
        return
    for stage, seconds in stages.items():
        add(stage, seconds)


def accumulate(totals: dict[str, float], stages) -> dict[str, float]:
    """Fold a stage breakdown into ``totals`` (mutated and returned).

    ``stages`` may be a dict or an iterable of ``(stage, seconds)``
    pairs — the two shapes stage breakdowns travel in (collected
    frames vs the serialised tuples on
    :class:`~repro.experiments.sweep.CellMetrics`).  The single
    definition of stage-total aggregation, shared by the sweep's
    prewarm and the campaign's ``--profile`` report.
    """
    pairs = stages.items() if isinstance(stages, dict) else stages
    for stage, seconds in pairs:
        totals[stage] = totals.get(stage, 0.0) + seconds
    return totals


@contextmanager
def collect():
    """Open a frame; yields the dict the frame accumulates into.

    Frames nest (an outer solve-level frame and an inner
    per-planner-call frame both see the same :func:`add`), and each is
    removed on exit, so overlapping collectors on one thread stay
    independent.
    """
    frame: dict[str, float] = {}
    frames = _frames()
    frames.append(frame)
    try:
        yield frame
    finally:
        # Remove by identity, not equality: two frames holding equal
        # stage dicts must not shadow each other.
        for i in range(len(frames) - 1, -1, -1):
            if frames[i] is frame:
                del frames[i]
                break
