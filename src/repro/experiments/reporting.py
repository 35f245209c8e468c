"""Text reporting in the paper's table formats.

Benchmarks print these tables so ``pytest benchmarks/`` regenerates
every table and figure as human-readable output that can be compared
against the paper side by side.  Campaign artefacts (Fig. 4, Fig. 6,
Table 1, Fig. 7, Fig. 8) render through one function,
:func:`format_artefact`, shared by the campaign CLI and the artefact
benchmarks.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.experiments.campaign import ArtefactResult


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned plain-text table."""
    if not headers:
        raise ValueError("a table needs at least one column")
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row}"
            )
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_artefact(result: "ArtefactResult") -> str:
    """Render one campaign artefact's summary as an aligned table."""
    summary = result.summary
    if "rows" in summary:  # Table 1 frontier
        degrees = sorted(
            {int(d) for row in summary["rows"].values() for d in row["degrees"]},
            reverse=True,
        )
        headers = ["seq x bs"] + [f"SP={d}" for d in degrees] + ["min ok"]
        rows = [
            [label]
            + [row["degrees"].get(str(d), "-") for d in degrees]
            + [row["min_feasible_degree"]]
            for label, row in summary["rows"].items()
        ]
    elif "clusters" in summary:  # Fig. 8 scaling
        headers = ["# GPUs", "training (s)", "solving (s)", "amortized (s)"]
        rows = [
            [
                n,
                f"{c['training_seconds']:.1f}",
                f"{c['solve_seconds']:.2f}",
                f"{c['amortized_solve_seconds']:.3f}",
            ]
            for n, c in summary["clusters"].items()
        ]
    elif result.artefact.key == "fig7":  # ablations
        headers = ["workload", "variant", "iteration (s)", "relative", "solve (s)"]
        rows = [
            [
                workload,
                variant,
                f"{entry['mean_iteration_seconds']:.1f}",
                f"{entry.get('relative', 1.0):.2f}x",
                f"{entry['mean_solve_seconds']:.2f}",
            ]
            for workload, variants in summary["workloads"].items()
            for variant, entry in variants.items()
        ]
    else:  # throughput grids (Fig. 4 / Fig. 6)
        headers = ["workload", "system", "iteration (s)", "tok/s/GPU", "ckpt"]
        rows = [
            [
                workload,
                system,
                "OOM"
                if entry["status"] == "oom"
                else f"{entry['mean_iteration_seconds']:.1f}",
                f"{entry['tokens_per_second_per_gpu']:.0f}",
                row["checkpointing"],
            ]
            for workload, row in summary["workloads"].items()
            for system, entry in row["systems"].items()
        ]
    return format_table(headers, rows, title=result.artefact.title)


def format_seconds(seconds: float) -> str:
    return f"{seconds:.1f}"


def format_fraction(fraction: float) -> str:
    return f"{100 * fraction:.1f}%"


def format_speedup(ratio: float) -> str:
    return f"{ratio:.2f}x"


def format_histogram(histogram: Mapping[str, float], bar_width: int = 40) -> str:
    """ASCII bar chart of a length histogram (the Fig. 2 view)."""
    if not histogram:
        raise ValueError("histogram must be non-empty")
    peak = max(histogram.values())
    lines = []
    for label, fraction in histogram.items():
        bar = "#" * (round(fraction / peak * bar_width) if peak > 0 else 0)
        lines.append(f"{label:>10} {100 * fraction:6.2f}% {bar}")
    return "\n".join(lines)


def format_violin_summary(lengths_by_degree: Mapping[int, Sequence[int]]) -> str:
    """Fig. 5b as text: length quartiles per assigned SP degree."""
    import numpy as np

    rows = []
    for degree in sorted(lengths_by_degree):
        lengths = np.asarray(lengths_by_degree[degree])
        if lengths.size == 0:
            continue
        q1, median, q3 = np.percentile(lengths, [25, 50, 75])
        rows.append(
            [
                f"SP={degree}",
                len(lengths),
                f"{lengths.min() / 1024:.1f}K",
                f"{q1 / 1024:.1f}K",
                f"{median / 1024:.1f}K",
                f"{q3 / 1024:.1f}K",
                f"{lengths.max() / 1024:.1f}K",
            ]
        )
    return format_table(
        ["degree", "# seqs", "min", "p25", "median", "p75", "max"],
        rows,
        title="Sequence lengths by assigned SP degree (Fig. 5b)",
    )
