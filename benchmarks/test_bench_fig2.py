"""Fig. 2: sequence-length distributions of the three corpora.

Paper shape: all three corpora are uni-modal long-tail; the majority
of sequences fall below 8K; only a small fraction exceeds 32K; GitHub
has the heaviest tail, then CommonCrawl, then Wikipedia (over 96%
below 8K).
"""

import numpy as np

from repro.data.distributions import (
    COMMONCRAWL,
    GITHUB,
    WIKIPEDIA,
    length_histogram,
)
from repro.experiments.reporting import format_histogram

SAMPLES = 100_000


def test_fig2_length_distributions(emit):
    def run():
        rng = np.random.default_rng(0)
        return {
            dist.name: length_histogram(dist.sample(SAMPLES, rng))
            for dist in (GITHUB, COMMONCRAWL, WIKIPEDIA)
        }

    histograms = run()

    sections = []
    for name, hist in histograms.items():
        sections.append(f"--- {name} ---\n{format_histogram(hist)}")
    emit("Fig. 2: sequence-length distributions (100k samples each)\n\n"
         + "\n\n".join(sections))

    def below_8k(hist):
        return sum(v for k, v in hist.items()
                   if k in ("<=1K", "1K-2K", "2K-4K", "4K-8K"))

    def above_32k(hist):
        return sum(v for k, v in hist.items()
                   if k in ("32K-64K", "64K-128K", "128K-256K", ">256K"))

    # Majority below 8K everywhere; Wikipedia over 96%.
    for name, hist in histograms.items():
        assert below_8k(hist) > 0.75, name
    assert below_8k(histograms["wikipedia"]) > 0.96

    # Tail ordering: GitHub > CommonCrawl > Wikipedia.
    assert (
        above_32k(histograms["github"])
        > above_32k(histograms["commoncrawl"])
        > above_32k(histograms["wikipedia"])
    )

    # Only a small fraction exceeds 32K anywhere.
    for name, hist in histograms.items():
        assert above_32k(hist) < 0.05, name
