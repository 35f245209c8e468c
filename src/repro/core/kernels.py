"""Which implementation the solver's hot loops run on.

The four hot loops — the greedy planner's scalar and stacked LPT
passes (:mod:`repro.core.planner_greedy`) and the bucketing and
blaster DPs (:mod:`repro.core.bucketing`, :mod:`repro.core.blaster`)
— have one implementation each, in numpy and plain Python.  Benchmark
run envelopes record it through :func:`describe_dict`.
"""

from __future__ import annotations


def describe_dict() -> dict:
    """Machine-readable implementation tag (benchmark records)."""
    return {"tier": "numpy"}
