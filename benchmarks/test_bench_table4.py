"""Table 4: token estimation bias of bucketing methods.

Paper: DP bucketing keeps the token error ratio (error tokens / total
tokens) at or below 2.3% across corpora, while the naive fixed-2K-
interval method reaches 8.8-22.1%, worst on the most skewed corpus
(Wikipedia).

Measured as the planner measures it: per sorted micro-batch of a
512-sequence global batch with Q=16 buckets.
"""

import numpy as np
import pytest

from repro.core.blaster import blast
from repro.core.bucketing import (
    bucketing_error,
    fixed_interval_buckets,
    optimal_buckets,
)
from repro.core.types import SequenceBatch
from repro.data.distributions import COMMONCRAWL, GITHUB, WIKIPEDIA
from repro.experiments.reporting import format_table

NUM_BATCHES = 4
NUM_MICROBATCHES = 5
NUM_BUCKETS = 16


def _error_ratios(dist):
    """Max token error ratio over several batches, per method."""
    worst_dp = 0.0
    worst_naive = 0.0
    for seed in range(NUM_BATCHES):
        lengths = dist.sample(512, np.random.default_rng(seed))
        batch = SequenceBatch(lengths=tuple(int(s) for s in lengths))
        dp_error = 0
        naive_error = 0
        for mb in blast(batch, NUM_MICROBATCHES):
            dp_error += bucketing_error(optimal_buckets(mb.lengths, NUM_BUCKETS))
            naive_error += bucketing_error(fixed_interval_buckets(mb.lengths))
        worst_dp = max(worst_dp, dp_error / batch.total_tokens)
        worst_naive = max(worst_naive, naive_error / batch.total_tokens)
    return worst_dp, worst_naive


def test_table4_bucketing_token_error(emit):
    def run():
        return {
            dist.name: _error_ratios(dist)
            for dist in (GITHUB, COMMONCRAWL, WIKIPEDIA)
        }

    ratios = run()
    emit(
        format_table(
            ["method", "github", "commoncrawl", "wikipedia"],
            [
                ["DP bucketing"]
                + [f"{100 * ratios[d][0]:.1f}%" for d in
                   ("github", "commoncrawl", "wikipedia")],
                ["Naive (fixed 2K)"]
                + [f"{100 * ratios[d][1]:.1f}%" for d in
                   ("github", "commoncrawl", "wikipedia")],
            ],
            title="Table 4: max token estimation bias of bucketing methods",
        )
    )

    for name, (dp, naive) in ratios.items():
        # DP stays small (paper: <= 2.3%).
        assert dp < 0.03, f"{name}: DP error {dp:.1%}"
        # Naive is several times worse (paper: 8.8-22.1%).
        assert naive > 3 * dp, f"{name}: naive {naive:.1%} vs DP {dp:.1%}"
    # Wikipedia (most skew, shortest sequences) is the naive method's
    # worst corpus, as in the paper.
    assert ratios["wikipedia"][1] == max(r[1] for r in ratios.values())
