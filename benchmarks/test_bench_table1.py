"""Table 1: homogeneous-SP iteration time and All-to-All share.

Paper protocol: GPT-7B on 64 A100s; for each (sequence length, batch
size) pair totalling 4M tokens, train with SP degrees 4..64 and report
iteration seconds with the All-to-All percentage, marking OOM cells.

Expected shape (paper): every sequence length has a *minimum feasible*
SP degree that doubles as length doubles (32K needs 8, 64K needs 16,
128K needs 32, 256K needs 64); among feasible degrees the smallest is
fastest; the All-to-All share collapses once the group fits inside a
node (SP <= 8).

Reads the ``table1`` artefact of the session's greedy campaign pass
(see conftest): exactly the paper's protocol, since the simulator is
analytic and the full scale costs nothing.
"""

from repro.experiments.reporting import format_artefact


def test_table1_iteration_time_and_alltoall_share(emit, greedy_pass):
    table1 = greedy_pass.artefact("table1")
    emit(format_artefact(table1))

    rows = table1.summary["rows"]

    def entry(seq_k, bs, degree):
        """``"<seconds>s/<share>%"`` or ``"OOM"``."""
        return rows[f"{seq_k}K x {bs}"]["degrees"][str(degree)]

    # OOM frontier matches the paper exactly.
    assert entry(32, 128, 4) == "OOM"
    assert entry(64, 64, 8) == "OOM"
    assert entry(128, 32, 16) == "OOM"
    assert entry(256, 16, 32) == "OOM"
    assert entry(256, 16, 64) != "OOM"

    def seconds(value):
        return float(value.split("s/")[0])

    # Smaller feasible degrees are faster for short sequences.
    assert seconds(entry(8, 512, 8)) < seconds(entry(8, 512, 32))
    assert seconds(entry(8, 512, 4)) < seconds(entry(8, 512, 64))

    def share(value):
        return float(value.split("/")[1].rstrip("%"))

    # All-to-All share collapses inside a node.
    assert share(entry(8, 512, 8)) < 15
    assert share(entry(8, 512, 64)) > 30
