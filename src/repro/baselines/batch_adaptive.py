"""FlexSP-BatchAda: per-batch adaptive homogeneous SP (S6.1).

A middle ground between static baselines and full FlexSP: for *each*
data batch it picks the most efficient homogeneous SP degree — e.g.
two SP=32 groups for one batch, eight SP=8 groups for the next — but
never mixes degrees within a batch.  The paper uses it to isolate how
much of FlexSP's gain comes from batch-level adaptivity versus the
finer within-batch heterogeneity.
"""

from __future__ import annotations

from repro.baselines.homogeneous import estimate_homogeneous_iteration
from repro.core.types import InfeasibleWorkloadError
from repro.cost.model import CostModel


def choose_degree_for_batch(
    lengths: tuple[int, ...], model: CostModel
) -> tuple[int, float]:
    """Best homogeneous SP degree for one specific batch.

    Unlike the static baseline, feasibility only needs to cover this
    batch's actual longest sequence, so short-sequence batches get
    small, fast groups.

    Returns:
        (degree, estimated iteration seconds).

    Raises:
        ValueError: The batch's longest sequence fits no degree.
    """
    if not lengths:
        raise ValueError("cannot choose a degree for an empty batch")
    longest = max(lengths)
    best: tuple[int, float] | None = None
    d = 1
    while d <= model.cluster.num_gpus:
        if model.cluster.num_gpus % d == 0 and model.fits([longest], d):
            estimate = estimate_homogeneous_iteration(lengths, model, d)
            if best is None or estimate < best[1]:
                best = (d, estimate)
        d *= 2
    if best is None:
        raise InfeasibleWorkloadError(
            f"no homogeneous SP degree fits a {longest}-token sequence on "
            f"{model.cluster.num_gpus} devices"
        )
    return best
