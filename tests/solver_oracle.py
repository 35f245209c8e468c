"""Reference Alg. 1 for :class:`repro.core.solver.FlexSPSolver`.

The solver plans each distinct micro-batch shape once, through its plan
cache, and drops trials whose bounds prove they cannot win (trial
pruning).  This module is the plain loop it must agree with: every
micro-batch of every trial planned from scratch by calling the
backend's planner directly on its canonical shape, and the first
strictly lowest total kept, so the tests can hold the solver's plans
to it with ``==``.
"""

from __future__ import annotations

from repro.core.blaster import blast_multi, min_microbatch_count
from repro.core.plan_cache import canonical_shape
from repro.core.planner import PlanInfeasibleError, plan_microbatch
from repro.core.planner_greedy import plan_microbatch_greedy

_PLANNERS = {"milp": plan_microbatch, "greedy": plan_microbatch_greedy}


def plan_every_trial(solver, batch, planner=None):
    """``(total, plans)`` of the best trial for ``batch`` (a
    :class:`~repro.core.types.SequenceBatch`) under ``solver``'s cost
    model and config (nothing else of the solver is used), or None when
    no trial is feasible.  ``planner(shape)`` replaces the backend's
    planner."""
    model, config = solver.model, solver.config
    if planner is None:
        backend = _PLANNERS[config.backend]

        def planner(shape):
            return backend(shape, model, config.planner)

    m_min = min_microbatch_count(
        batch.total_tokens, model.cluster_token_capacity()
    )
    counts = [
        m for m in range(m_min, m_min + config.num_trials)
        if m <= len(batch.lengths)
    ] or [len(batch.lengths)]
    blasted = blast_multi(batch, counts, sort=config.sort_sequences)
    best = None
    for m in counts:
        if m not in blasted:
            continue
        total, plans = 0.0, []
        try:
            for segment in blasted[m]:
                plan, predicted = planner(canonical_shape(segment))
                plans.append(plan)
                total += predicted
        except PlanInfeasibleError:
            continue
        if best is None or total < best[0]:
            best = (total, tuple(plans))
    return best
