"""Fig. 9 (Appendix C): cost-model estimation accuracy.

Paper: across SP degrees 4..64 and diverse (sequence length, batch
size) workloads, the planner's Eq. 14 estimate deviates from measured
end-to-end time by less than ~5-6%.

We compare the fitted cost model against the simulator's ground truth
on the same probe grid the profiler never saw scaled combinations of.
"""

import statistics

import pytest

from repro.cluster.topology import standard_cluster
from repro.cost.profiler import estimation_errors, fit_cost_model
from repro.experiments.reporting import format_table
from repro.model.config import GPT_7B

#: Held-out probe grid: lengths offset from the fitting grid.
HOLDOUT_LENGTHS = (3072, 6144, 12288, 24576, 49152)
HOLDOUT_COUNTS = (2, 8)


def test_fig9_estimation_accuracy(emit):
    cluster = standard_cluster(64)
    config = GPT_7B.with_max_context(384 * 1024)

    def run():
        model = fit_cost_model(config, cluster)
        return estimation_errors(
            model,
            config,
            cluster,
            probe_lengths=HOLDOUT_LENGTHS,
            probe_counts=HOLDOUT_COUNTS,
        )

    errors = run()

    by_degree: dict[int, list[float]] = {}
    for degree, __, err in errors:
        by_degree.setdefault(degree, []).append(err)
    rows = []
    for degree in sorted(by_degree):
        errs = by_degree[degree]
        rows.append(
            [
                f"SP={degree}",
                f"{100 * statistics.fmean(errs):+.1f}%",
                f"{100 * max(errs, key=abs):+.1f}%",
            ]
        )
    emit(
        format_table(
            ["degree", "mean error", "worst error"],
            rows,
            title="Fig. 9: cost-model estimation error vs simulator "
            "(held-out workloads)",
        )
    )

    all_errors = [e for ____, ____, e in errors]
    worst = max(abs(e) for e in all_errors)
    mean_abs = statistics.fmean(abs(e) for e in all_errors)
    # Paper: deviations consistently below ~5-6%.
    assert worst < 0.10, f"worst {worst:.1%}"
    assert mean_abs < 0.04, f"mean {mean_abs:.1%}"
    # The model is not degenerate (fitting itself): some residual exists.
    assert any(abs(e) > 1e-5 for e in all_errors)
