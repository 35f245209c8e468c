"""Fig. 7: ablation study of the FlexSP solver's components.

Paper: on CommonCrawl at 192K and 384K, disabling the blaster's length
sorting (w/o Sort), replacing DP bucketing with the naive method
(w/ naive BKT), or removing bucketing entirely (w/o BKT) each hurts;
removing bucketing "increases the complexity of the MILP problem,
causing the solver to fail in producing a satisfactory solution within
limited time".

In this reproduction the deployed solver pairs the MILP with a greedy
LPT incumbent (standing in for SCIP's primal heuristics), which keeps
plan *quality* from collapsing when bucketing is ablated — so the
bucketing ablations surface exactly where the paper says they bite:
in solver cost.  The sorting ablation degrades the executed iteration
time directly.

Reads the ``fig7`` artefact of the session's solver-cost campaign pass
(see conftest), where every cell solves its own plans on the MILP.
"""

from repro.experiments.reporting import format_artefact

ABLATIONS = ["FlexSP", "w/o Sort", "w/ naive BKT", "w/o BKT"]


def test_fig7_solver_ablations(emit, solver_cost_pass):
    fig7 = solver_cost_pass.artefact("fig7")
    emit(format_artefact(fig7))

    for ctx in ("192K", "384K"):
        cells = fig7.summary["workloads"][f"gpt-7b/commoncrawl/{ctx}/64gpu"]
        iteration = {a: cells[a]["mean_iteration_seconds"] for a in ABLATIONS}
        solve = {a: cells[a]["mean_solve_seconds"] for a in ABLATIONS}
        base_iter = iteration["FlexSP"]
        # No ablation beats the full system (beyond noise).
        for ablation in ABLATIONS[1:]:
            assert iteration[ablation] >= base_iter * 0.98, f"{ctx}/{ablation}"
        # Sorting ablation degrades executed iteration time.
        assert iteration["w/o Sort"] > base_iter * 1.02, ctx
        # Removing bucketing blows up solver cost (the paper's failure
        # mode for this ablation).
        assert solve["w/o BKT"] > solve["FlexSP"] * 1.3, ctx
