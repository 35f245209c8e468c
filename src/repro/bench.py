"""Command-line entry point: run a campaign or prune its cache store.

Nothing here writes a performance record.  The repo's speed is
measured by ``perfbench/`` (see ``BENCHMARK.json``), whose one JSON
result line per run carries its own commit, host and dependency
envelope; the ``benchmarks/results/BENCH_*.json`` histories are a
frozen, read-only archive.  Every mode prints what it measured and
asserts what it promises.

**Campaign mode** (``--campaign``) runs the declarative campaign
engine directly — every paper artefact grid (Fig. 4, Fig. 6, Table 1,
Fig. 7, Fig. 8) in one deduplicated sweep pass — and prints the pass
summary and the artefact tables.  This is what ``make bench``
invokes.  A persistent :class:`~repro.core.cache_store.CacheStore`
(default ``benchmarks/results/campaign_store/``) keeps cost-model
fits, tuner memos and FlexSP plan caches warm *across* invocations and
processes; ``--no-store`` runs cold (the ``make bench-smoke`` CI
tier).  Store runs print a ``StoreStats`` report (files, bytes,
hit / miss / write / evict counts, lock waits, write amplification).

**Prune mode** (``--prune``) applies the store's lifecycle policy:
``--max-age-days D`` evicts workload files last used more than ``D``
days ago, ``--max-store-bytes N`` then evicts least-recently-used
files until the store fits ``N`` bytes (``make bench-prune``).  With
neither cap (or with ``--dry-run``) nothing is deleted and the report
shows what the store holds / would lose.  An evicted workload simply
loads cold on the next campaign — pruning is never fatal.

Campaign / prune usage::

    python -m repro.bench --campaign unified             # make bench
    python -m repro.bench --campaign smoke --no-store    # make bench-smoke
    python -m repro.bench --campaign full --profile      # full protocol
    python -m repro.bench --campaign unified --backend milp --node-limit 500
    python -m repro.bench --campaign unified --profile   # stage breakdown
    python -m repro.bench --campaign unified --backend milp --node-limit 200 \
        --solver-workers 2                              # parallel planning
    python -m repro.bench --campaign unified --solver-workers 2 \
        --inject-faults worker_kill@plan:0 --fault-seed 7   # chaos run
    python -m repro.bench --campaign smoke --fault-seed 7   # random fault
    python -m repro.bench --prune --max-age-days 30      # make bench-prune
    python -m repro.bench --prune --max-store-bytes 268435456 --dry-run

Every numeric flag is range-checked while parsing, so bad input is an
argparse error (exit 2, naming the flag) before any work starts; so is
a command line that names no mode.  The benchmark suites under
``benchmarks/`` are not a mode, the planning-service trace and its TCP
transport included: run them with plain ``pytest``, as the Makefile's
pytest targets do (``REPRO_BENCH_PROFILE=1`` prints their per-stage
breakdowns).

``--solver-workers`` sizes the one shared
:class:`~repro.core.solver.SolverPool` the campaign's prewarm plans
on; the cells themselves are measured serially.  It accepts ``0`` as
"use every CPU" (``os.cpu_count()``).  The default, 1, plans
in-process, like ``SweepRunner()`` — a process pool is always an
explicit opt-in.

``--profile`` prints the per-stage SolveStats timing breakdown
(enumerate / lpt / milp_build / milp_solve) of a campaign pass, the
trials pruned and the workload contexts built.

``--backend milp --node-limit N`` runs the MILP planner under a
*deterministic* work limit (HiGHS branch-and-bound nodes) instead of a
wall-clock budget, so MILP campaigns satisfy the same bit-identical
metrics contract as the greedy backend.

``--inject-faults SPEC --fault-seed N`` arms the deterministic chaos
plane (:mod:`repro.core.faults`): solver-pool worker kills and torn
spill writes fire at seeded injection points, the solver pool rebuilds
and resumes, the store reads torn files as cold, and the pass must
still produce metrics bit-identical to a fault-free pass.
``--fault-seed`` alone draws one random fault from the menu.  The pass
prints a fault report (``make bench-chaos`` exercises the matrix via
``benchmarks/test_bench_chaos.py``).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time


def _benchmarks_dir() -> pathlib.Path:
    """Locate ``benchmarks/`` next to the source tree.

    The repo layout is ``<root>/src/repro/bench.py`` with benchmarks at
    ``<root>/benchmarks``; fall back to the working directory for
    installed-package runs driven from a checkout.
    """
    here = pathlib.Path(__file__).resolve()
    for base in (here.parents[2], pathlib.Path.cwd()):
        candidate = base / "benchmarks"
        if candidate.is_dir():
            return candidate
    raise SystemExit(
        "cannot locate the benchmarks/ directory; run from the repo root"
    )


def run_campaign(args: argparse.Namespace) -> int:
    """Execute one campaign pass and print its report."""
    from repro.core.planner import PlannerConfig
    from repro.core.solver import SolverConfig
    from repro.experiments.campaign import build_campaign
    from repro.experiments.reporting import format_artefact
    from repro.experiments.sweep import SweepRunner

    planner = PlannerConfig(node_limit=args.node_limit)
    solver_config = SolverConfig(
        backend=args.backend, num_trials=args.num_trials, planner=planner
    )
    overrides = {}
    if args.batch_size is not None:
        overrides["global_batch_size"] = args.batch_size
    campaign = build_campaign(args.campaign, **overrides)

    fault_schedule = _build_fault_schedule(args)
    if fault_schedule is not None:
        print(
            f"[{args.campaign}] chaos: injecting {fault_schedule} "
            f"(seed {fault_schedule.seed})"
        )
    store = None
    if not args.no_store:
        store = args.store or str(
            _benchmarks_dir() / "results" / "campaign_store"
        )
    runner = SweepRunner(
        solver_config=solver_config,
        store=store,
        solver_workers=args.solver_workers,
        fault_schedule=fault_schedule,
    )
    with runner:
        started = time.perf_counter()
        result = campaign.run(runner)
        wall = time.perf_counter() - started
    tag = f"[{campaign.name}]"
    print(
        f"{tag} {result.sweep.unique_cells}/{len(result.sweep.cells)} "
        f"unique cells in {wall:.2f}s, plan-cache hit rate "
        f"{result.plan_cache_hit_rate:.2%}"
    )
    if result.sweep.prewarm_planned:
        print(
            f"{tag} cold batching: {result.sweep.prewarm_planned} unique "
            f"shapes planned up front in {result.sweep.prewarm_seconds:.2f}s"
        )
    if args.profile:
        stage_totals = result.stage_seconds
        total = sum(stage_totals.values()) or 1.0
        breakdown = ", ".join(
            f"{stage} {seconds:.3f}s ({seconds / total:.0%})"
            for stage, seconds in stage_totals.items()
        )
        print(f"{tag} solve stages: {breakdown}")
        pruning = result.pruning
        print(
            f"{tag} trial pruning: {pruning['trials']} trials / "
            f"{pruning['microbatches']} micro-batches dropped unplanned"
        )
        print(
            f"{tag} contexts: {result.sweep.context_builds} built in "
            f"{result.sweep.context_build_seconds:.3f}s"
        )
    stats = result.sweep.store_stats
    if stats is not None:
        print(
            f"{tag} store: {stats.files} files / {stats.bytes} B; hits "
            f"{stats.hits}, misses {stats.misses}, writes {stats.writes}, "
            f"evictions {stats.evictions}, lock waits {stats.lock_waits}; "
            f"write amplification "
            f"{result.store_write_amplification:.3f} writes/cell"
        )
    faults = result.sweep.fault_stats
    if faults is not None:
        injected = ", ".join(
            f"{label} x{count}" for label, count in faults.injections
        ) or "none"
        print(f"{tag} faults: injected {injected}")
    print()
    print("\n\n".join(format_artefact(r) for r in result.artefacts))
    return 0


def _build_fault_schedule(args: argparse.Namespace):
    """Build the chaos schedule from ``--inject-faults`` / ``--fault-seed``.

    An explicit spec wins; a bare ``--fault-seed`` draws one random
    fault from the menu so CI can chaos-test without hand-picking a
    failure mode.  Returns ``None`` (faults fully disarmed) when
    neither flag is given.
    """
    from repro.core.faults import FaultSchedule

    if args.inject_faults:
        return FaultSchedule.parse(
            args.inject_faults, seed=args.fault_seed or 0
        )
    if args.fault_seed is not None:
        return FaultSchedule.single_random(args.fault_seed)
    return None


def run_prune(args: argparse.Namespace) -> int:
    """Apply the store lifecycle policy from the command line."""
    from repro.core.cache_store import CacheStore

    results_dir = _benchmarks_dir() / "results"
    root = pathlib.Path(args.store or results_dir / "campaign_store")
    if not root.is_dir():
        print(f"no cache store at {root}; nothing to prune")
        return 0
    store = CacheStore(root)
    num_files, num_bytes = store.scan()
    print(f"store {root}: {num_files} files, {num_bytes} B")
    if args.max_store_bytes is None and args.max_age_days is None:
        print(
            "no caps given; nothing evicted (use --max-age-days and/or "
            "--max-store-bytes)"
        )
        return 0
    result = store.prune(
        max_store_bytes=args.max_store_bytes,
        max_age_days=args.max_age_days,
        dry_run=args.dry_run,
    )
    verb = "would evict" if args.dry_run else "evicted"
    for name in result.evicted:
        print(f"  {verb} {name}")
    print(
        f"{verb} {len(result.evicted)} file(s) / {result.bytes_freed} B; "
        f"kept {result.files_kept} file(s) / {result.bytes_kept} B"
    )
    return 0


def _number(cast: type, *, allow_zero: bool = False):
    """An argparse ``type=`` for a numeric flag: a positive ``cast``
    value, or a non-negative one with ``allow_zero``.

    Bad CLI input is an argparse error (exit 2, naming the flag)
    before any work starts, never a ``ValueError`` traceback from
    deep inside the run.
    """

    def parse(text: str):
        value = cast(text)  # a ValueError reads "invalid int value"
        if not (value >= 0 if allow_zero else value > 0):
            bound = "non-negative" if allow_zero else "positive"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = cast.__name__
    return parse


def _resolve_workers(value: int) -> int:
    """A ``--solver-workers`` width: ``0`` means every CPU."""
    return value or os.cpu_count() or 1


def _parse_campaign_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run a declarative artefact campaign.",
    )
    parser.add_argument("--campaign", required=True, help="campaign name")
    parser.add_argument(
        "--store",
        default=None,
        help="CacheStore directory (default benchmarks/results/campaign_store)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="run cold: no persistent cache store (the CI smoke tier)",
    )
    parser.add_argument("--batch-size", type=_number(int), default=None)
    parser.add_argument(
        "--solver-workers",
        type=_number(int, allow_zero=True),
        default=1,
        help="width of the shared SolverPool the prewarm plans on; "
        "0 = all CPUs (default 1: in-process planning)",
    )
    parser.add_argument(
        "--backend", choices=("greedy", "milp"), default="greedy"
    )
    parser.add_argument("--num-trials", type=_number(int), default=2)
    parser.add_argument(
        "--node-limit",
        type=_number(int),
        default=None,
        help="deterministic HiGHS work limit for --backend milp "
        "(replaces the wall-clock time limit)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage SolveStats breakdown (enumerate / lpt "
        "/ milp_build / milp_solve), the trials pruned and the "
        "workload contexts built",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="deterministic chaos schedule: comma-separated "
        "kind@site[:N|*] specs, e.g. "
        "'worker_kill@plan:0,torn_write@spill:1'; kinds are "
        "worker_kill / torn_write, sites are plan / spawn / spill",
    )
    parser.add_argument(
        "--fault-seed",
        type=_number(int, allow_zero=True),
        default=None,
        help="chaos seed; with --inject-faults it seeds the schedule, "
        "alone it draws one random fault from the menu",
    )
    args = parser.parse_args(argv)
    if args.inject_faults:
        from repro.core.faults import FaultSchedule

        try:
            FaultSchedule.parse(args.inject_faults)
        except ValueError as error:
            parser.error(str(error))
    args.solver_workers = _resolve_workers(args.solver_workers)
    return args


def _parse_prune_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Prune the persistent campaign cache store.",
    )
    parser.add_argument(
        "--prune", action="store_true", required=True, help="prune mode"
    )
    parser.add_argument(
        "--store",
        default=None,
        help="CacheStore directory (default benchmarks/results/campaign_store)",
    )
    parser.add_argument(
        "--max-store-bytes",
        type=_number(int, allow_zero=True),
        default=None,
        help="evict least-recently-used workload files until the store "
        "fits this many bytes",
    )
    parser.add_argument(
        "--max-age-days",
        type=_number(float, allow_zero=True),
        default=None,
        help="evict workload files last used more than this many days ago",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--prune" in argv:
        return run_prune(_parse_prune_args(argv))
    return run_campaign(_parse_campaign_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
