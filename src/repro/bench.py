"""Command-line entry point for the campaigns, the planning service
and the pytest benchmark suites.

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
entries, hit / miss / write / evict counts, write amplification).

**Prune mode** (``--prune``) applies the store's lifecycle policy:
``--max-age-days D`` evicts workload files last used more than ``D``
days ago, ``--max-store-bytes N`` then evicts least-recently-used
files until the store fits ``N`` bytes (``make bench-prune``).  With
neither cap (or with ``--dry-run``) nothing is deleted and the report
shows what the store holds / would lose.  An evicted workload simply
loads cold on the next campaign — pruning is never fatal.

**Pytest mode** (everything else) drives the benchmark suites::

    python -m repro.bench                    # solver-throughput suite
    python -m repro.bench all                # every benchmark
    python -m repro.bench e2e_sweep          # batched-simulation sweep
    python -m repro.bench fig8               # any benchmark-file substring

Runs started here archive each suite's ``.txt`` table under
``benchmarks/results/``; a plain ``pytest`` run archives them in a
temp dir.

**Service mode** (``--service``) boots the resident
planning-as-a-service front-end (:class:`repro.service.PlanService`),
replays a seeded Gamma-arrival trace over three heterogeneous tenants
twice (burst-cold, then warm churn — see
:mod:`repro.service.benchmark`), verifies every unique served plan
bit-identical to a cold solve and prints the latency table and the
service counters.  The default shape is the CI smoke tier (``make
bench-service-smoke``: 16K contexts, batch 8, seconds of trace);
``make bench-service`` passes the longer 32K/batch-16 trace for
nightly runs.  With ``--connect HOST:PORT`` the same trace is instead
replayed through the hardened TCP transport
(:mod:`repro.service.transport`) against a remote ``--serve`` process
and the report covers the transport (p50/p99 over TCP, retries,
reconnects, degraded count).

**Serve mode** (``--serve``) runs the planning service as a TCP
server (:class:`repro.service.transport.PlanServer`) until
interrupted: ``--listen HOST:PORT`` binds (port 0 = ephemeral,
printed once bound), tenants come from the same
:func:`~repro.service.traffic.service_jobs` shape flags as service
mode (``--max-context`` / ``--batch-size`` must match the connecting
clients — the handshake verifies workload signatures), and Ctrl-C
(or ``--serve-seconds``) drains gracefully: in-flight requests are
answered, new connections refused, then the service and its pools
shut down.  The loopback chaos tier (``make bench-service-net``)
sweeps the network fault menu over this transport in-process.

Campaign / service / prune usage::

    python -m repro.bench --campaign unified             # make bench
    python -m repro.bench --campaign smoke --no-store    # make bench-smoke
    python -m repro.bench --campaign full --profile      # full protocol
    python -m repro.bench --campaign unified --backend milp --node-limit 500
    python -m repro.bench --campaign unified --profile   # stage breakdown
    python -m repro.bench --campaign unified --no-prewarm
    python -m repro.bench --campaign unified --backend milp --node-limit 200 \
        --solver-workers 2                              # parallel planning
    python -m repro.bench --campaign unified --solver-workers 2 \
        --inject-faults worker_kill@plan:0 --fault-seed 7   # chaos run
    python -m repro.bench --campaign smoke --fault-seed 7   # random fault
    python -m repro.bench --service                      # make bench-service-smoke
    python -m repro.bench --service --duration 20 --rate 1.5 \
        --step-window 4 --max-context 32768 --batch-size 16  # make bench-service
    python -m repro.bench --serve --listen 0.0.0.0:8471  # TCP plan server
    python -m repro.bench --service --connect host:8471  # remote trace replay
    python -m repro.bench --prune --max-age-days 30      # make bench-prune
    python -m repro.bench --prune --max-store-bytes 268435456 --dry-run

Every numeric flag is range-checked while parsing, so bad input is an
argparse error (exit 2, naming the flag) before any work starts.
``--solver-workers`` sizes the one shared
:class:`~repro.core.solver.SolverPool` the campaign's prewarm plans
on; the cells themselves are measured serially.  It accepts ``0`` as
"use every CPU" (``os.cpu_count()``).  The default plans in-process,
like ``SweepRunner()`` — a process pool is always an explicit opt-in.

``--profile`` prints the per-stage SolveStats timing breakdown
(enumerate / lpt / milp_build / milp_solve) — in campaign mode with
the trials pruned and the workload contexts built, in pytest mode
through the suites that support it (e.g.
``python -m repro.bench solver_throughput --profile``).
``--no-prewarm`` disables the campaign-level cold-batching pass that
plans the grid's unique uncached micro-batch shapes up front.

``--backend milp --node-limit N`` runs the MILP planner under a
*deterministic* work limit (HiGHS branch-and-bound nodes) instead of a
wall-clock budget, so MILP campaigns satisfy the same bit-identical
metrics contract as the greedy backend.

``--inject-faults SPEC --fault-seed N`` arms the deterministic chaos
plane (:mod:`repro.core.faults`): solver-pool worker kills, torn spill
writes and stale store locks fire at seeded injection points, the
solver pool rebuilds and resumes, the store reads torn files as cold
and breaks stale locks, and the pass must still produce metrics
bit-identical to a fault-free pass.  ``--fault-seed`` alone draws one
random fault from the menu.  The pass prints a fault report (``make
bench-chaos`` exercises the matrix via
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
        prewarm=args.prewarm,
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
            f"{tag} store: {stats.files} files / {stats.bytes} B / "
            f"{stats.entries} entries; hits {stats.hits}, misses "
            f"{stats.misses}, writes {stats.writes}, evictions "
            f"{stats.evictions}, lock waits {stats.lock_waits}, lock "
            f"breaks {stats.lock_breaks}; write amplification "
            f"{result.store_write_amplification:.3f} writes/cell"
        )
    faults = result.sweep.fault_stats
    if faults is not None:
        injected = ", ".join(
            f"{label} x{count}" for label, count in faults.injections
        ) or "none"
        print(
            f"{tag} faults: injected {injected}; {faults.lock_breaks} "
            f"locks broken"
        )
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
    before = store.stats()
    print(
        f"store {root}: {before.files} files, {before.bytes} B, "
        f"{before.entries} entries"
    )
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
        default=None,
        help="width of the shared SolverPool the prewarm plans on; "
        "0 = all CPUs (default: in-process planning)",
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
        "--no-prewarm",
        dest="prewarm",
        action="store_false",
        help="disable campaign-level cold batching (per-cell planning, "
        "the pre-PR5 behaviour)",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="deterministic chaos schedule: comma-separated "
        "kind@site[:N|*] specs, e.g. "
        "'worker_kill@plan:0,torn_write@spill:1'; kinds are "
        "worker_kill / torn_write / stale_lock, sites are "
        "plan / spawn / spill / lock / prune",
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
    if args.solver_workers is not None:
        args.solver_workers = _resolve_workers(args.solver_workers)
    return args


def _parse_endpoint(
    parser: argparse.ArgumentParser,
    flag: str,
    text: str,
    *,
    allow_ephemeral: bool = False,
) -> tuple[str, int]:
    """Validate a ``HOST:PORT`` flag value into ``(host, port)``.

    Bad CLI input fails fast with an argparse error, never half-runs:
    a missing colon, an empty host, a non-integer or out-of-range
    port are all rejected here.  ``allow_ephemeral``
    admits port 0 (bind an ephemeral port and print it) — valid for
    ``--listen``, meaningless for ``--connect``.
    """
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        parser.error(f"{flag} must be HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        parser.error(f"{flag} port must be an integer, got {port_text!r}")
    minimum = 0 if allow_ephemeral else 1
    if not minimum <= port <= 65535:
        suffix = " (0 binds an ephemeral port)" if allow_ephemeral else ""
        parser.error(
            f"{flag} port must be in [{minimum}, 65535]{suffix}, got {port}"
        )
    return host, port


def _parse_serve_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the planning service as a TCP server "
        "(repro.service.transport.PlanServer) until interrupted; "
        "point remote trainers at it with --service --connect.",
    )
    parser.add_argument(
        "--serve", action="store_true", required=True, help="serve mode"
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address (default 127.0.0.1:0 — an ephemeral port, "
        "printed once bound; use 0.0.0.0:PORT to serve other hosts)",
    )
    parser.add_argument(
        "--serve-seconds",
        type=_number(float),
        default=None,
        help="exit (with a graceful drain) after this many seconds "
        "(default: serve until Ctrl-C)",
    )
    parser.add_argument(
        "--max-context",
        type=_number(int),
        default=16 * 1024,
        help="tenant context length in tokens (default 16384) — must "
        "match the connecting clients",
    )
    parser.add_argument(
        "--batch-size",
        type=_number(int),
        default=8,
        help="tenant global batch size (default 8) — must match the "
        "connecting clients",
    )
    parser.add_argument(
        "--worker-threads",
        type=_number(int),
        default=2,
        help="service solve threads (default 2)",
    )
    parser.add_argument(
        "--solver-workers",
        type=_number(int, allow_zero=True),
        default=1,
        help="width of the shared SolverPool; 0 = all CPUs (default 1)",
    )
    parser.add_argument(
        "--max-pending",
        type=_number(int),
        default=8,
        help="per-tenant admission bound on queued cold requests "
        "(default 8)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="optional CacheStore directory so the server restarts warm",
    )
    args = parser.parse_args(argv)
    args.listen = _parse_endpoint(
        parser, "--listen", args.listen, allow_ephemeral=True
    )
    args.solver_workers = _resolve_workers(args.solver_workers)
    return args


def run_serve(args: argparse.Namespace) -> int:
    """Serve plans over TCP until interrupted (or --serve-seconds)."""
    from repro.service.service import PlanService
    from repro.service.traffic import service_jobs
    from repro.service.transport import PlanServer

    jobs = service_jobs(
        max_context=args.max_context, global_batch_size=args.batch_size
    )
    host, port = args.listen
    service = PlanService(
        store=args.store,
        solver_workers=args.solver_workers,
        worker_threads=args.worker_threads,
        max_pending_per_tenant=args.max_pending,
    )
    for workload in jobs.values():
        service.register(workload)
    server = PlanServer(service, host, port, owns_service=True)
    bound_host, bound_port = server.address
    print(
        f"[serve] {len(jobs)} tenants "
        f"({args.max_context // 1024}K contexts, batch {args.batch_size}) "
        f"listening on {bound_host}:{bound_port}"
    )
    print(
        f"[serve] connect with: python -m repro.bench --service "
        f"--connect {bound_host}:{bound_port} "
        f"--max-context {args.max_context} --batch-size {args.batch_size}"
    )
    try:
        if args.serve_seconds is not None:
            time.sleep(args.serve_seconds)
        else:
            while True:
                time.sleep(3600.0)
    except KeyboardInterrupt:
        print("\n[serve] interrupted")
    finally:
        print("[serve] draining (in-flight requests are answered) ...")
        server.close()
        stats = server.stats()
        print(
            f"[serve] done: {stats['accepted']} connections, "
            f"{stats['requests']} requests, {stats['replayed']} idempotent "
            f"replays, {stats['refused']} refused"
        )
    return 0


def _parse_service_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the resident planning service against a "
        "seeded Gamma-arrival trace (burst-cold, then warm churn).",
    )
    parser.add_argument(
        "--service", action="store_true", required=True, help="service mode"
    )
    parser.add_argument(
        "--duration",
        type=_number(float),
        default=5.0,
        help="trace duration in seconds of simulated arrivals (default 5)",
    )
    parser.add_argument(
        "--rate",
        type=_number(float),
        default=0.8,
        help="per-tenant mean arrival rate, requests/second (default 0.8)",
    )
    parser.add_argument(
        "--cv",
        type=_number(float),
        default=2.0,
        help="coefficient of variation of the Gamma inter-arrival "
        "process; 1.0 is Poisson, higher is burstier (default 2.0)",
    )
    parser.add_argument(
        "--seed", type=_number(int, allow_zero=True), default=23
    )
    parser.add_argument(
        "--step-window",
        type=_number(int),
        default=2,
        help="training steps each tenant draws batches from; small "
        "windows make the trace duplicate-heavy (default 2)",
    )
    parser.add_argument(
        "--max-pending",
        type=_number(int),
        default=1,
        help="per-tenant admission bound on queued cold requests "
        "(default 1 — tight, so shedding is exercised)",
    )
    parser.add_argument(
        "--worker-threads",
        type=_number(int),
        default=2,
        help="service solve threads (default 2)",
    )
    parser.add_argument(
        "--solver-workers",
        type=_number(int, allow_zero=True),
        default=1,
        help="width of the shared SolverPool behind the service; "
        "0 = all CPUs (default 1: in-process planning)",
    )
    parser.add_argument(
        "--max-context",
        type=_number(int),
        default=16 * 1024,
        help="tenant context length in tokens (default 16384; the "
        "nightly tier passes 32768)",
    )
    parser.add_argument(
        "--batch-size",
        type=_number(int),
        default=8,
        help="tenant global batch size (default 8; nightly passes 16)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="optional CacheStore directory so the service restarts warm",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="replay the trace through the TCP transport against a "
        "remote --serve process instead of an in-process service "
        "(the multi-host benchmark)",
    )
    parser.add_argument(
        "--deadline",
        type=_number(float),
        default=60.0,
        help="with --connect: per-request wall-clock budget in seconds "
        "before the client degrades to in-process planning (default 60)",
    )
    parser.add_argument(
        "--retries",
        type=_number(int, allow_zero=True),
        default=3,
        help="with --connect: transport-failure retry budget per "
        "request (default 3)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip re-solving every unique served plan on a cold engine "
        "(the bit-identity check)",
    )
    args = parser.parse_args(argv)
    if args.connect is not None:
        args.connect = _parse_endpoint(parser, "--connect", args.connect)
    args.solver_workers = _resolve_workers(args.solver_workers)
    return args


def run_service(args: argparse.Namespace) -> int:
    """Replay the seeded trace through a resident PlanService."""
    from repro.experiments.reporting import format_table
    from repro.service.benchmark import run_service_benchmark
    from repro.service.traffic import service_jobs

    jobs = service_jobs(
        max_context=args.max_context, global_batch_size=args.batch_size
    )
    if args.connect is not None:
        return _run_service_transport(args, jobs)
    print(
        f"[service] {len(jobs)} tenants "
        f"({args.max_context // 1024}K contexts, batch {args.batch_size}), "
        f"Gamma trace: {args.duration:.0f}s at {args.rate}/s per tenant, "
        f"cv {args.cv}, step window {args.step_window}, seed {args.seed}"
    )
    record = run_service_benchmark(
        jobs=jobs,
        duration=args.duration,
        rate=args.rate,
        cv=args.cv,
        seed=args.seed,
        step_window=args.step_window,
        max_pending_per_tenant=args.max_pending,
        worker_threads=args.worker_threads,
        solver_workers=args.solver_workers,
        store=args.store,
        verify=not args.no_verify,
    )
    rows = [
        (
            phase,
            str(record[key]["served"]),
            f"{record[key]['plans_per_second']:.1f}",
            f"{record[key]['p50_ms']:.2f}",
            f"{record[key]['p99_ms']:.2f}",
        )
        for phase, key in (
            ("burst (cold)", "cold_phase"),
            ("churn (warm)", "warm_phase"),
        )
        if record[key]["served"]
    ]
    print()
    print(
        format_table(
            ["phase", "served", "plans/s", "p50 (ms)", "p99 (ms)"],
            rows,
            title="PlanService trace replay",
        )
    )
    verified = record["bit_identical_verified"]
    print(
        f"\n[service] {record['submitted']} submitted: "
        f"{record['solved']} solved, {record['warm_hits']} warm, "
        f"{record['coalesced']} coalesced, {record['shed']} shed "
        f"(rate {record['shed_rate']:.0%}); plan-cache hit rate "
        f"{record['plan_cache_hit_rate']:.0%}"
        + (
            f"; {verified}/{record['unique_shapes']} unique plans "
            "bit-identical to cold solves"
            if verified is not None
            else ""
        )
    )
    return 0


def _run_service_transport(args: argparse.Namespace, jobs) -> int:
    """Replay the seeded trace through the TCP transport against a
    remote ``--serve`` process (the multi-host half of service mode)."""
    from repro.service.benchmark import run_transport_benchmark

    host, port = args.connect
    print(
        f"[service] replaying over TCP against {host}:{port}: "
        f"{len(jobs)} tenants ({args.max_context // 1024}K contexts, "
        f"batch {args.batch_size}), {args.duration:.0f}s of trace at "
        f"{args.rate}/s per tenant, seed {args.seed}"
    )
    record = run_transport_benchmark(
        jobs=jobs,
        duration=args.duration,
        rate=args.rate,
        cv=args.cv,
        seed=args.seed,
        step_window=args.step_window,
        connect=args.connect,
        client_deadline=args.deadline,
        client_retries=args.retries,
        verify=not args.no_verify,
    )
    transport = record["transport"]
    print(
        f"\n[service] transport: {transport['served']} served / "
        f"{transport['shed']} shed of {transport['requests']} requests in "
        f"{transport['wall_seconds']}s "
        f"(p50 {transport['p50_ms']} ms, p99 {transport['p99_ms']} ms); "
        f"{transport['retries']} retries, {transport['reconnects']} "
        f"reconnects, {transport['degraded']} degraded"
        + (
            f"; {record['bit_identical_verified']}/"
            f"{record['unique_shapes']} unique plans bit-identical to "
            "cold solves"
            if record["bit_identical_verified"] is not None
            else ""
        )
    )
    return 0


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
    if "--serve" in argv:
        return run_serve(_parse_serve_args(argv))
    if "--service" in argv:
        return run_service(_parse_service_args(argv))
    if any(a.startswith("--campaign") for a in argv):
        return run_campaign(_parse_campaign_args(argv))

    if "--profile" in argv:
        # Pytest-mode profiling: the benchmark suites read this flag
        # through the environment (see benchmarks/conftest.py PROFILE)
        # and print their per-stage SolveStats breakdowns.
        argv.remove("--profile")
        os.environ["REPRO_BENCH_PROFILE"] = "1"

    import pytest

    # Benchmark tables land in the committed benchmarks/results/ only
    # for runs this CLI starts (see benchmarks/conftest.py RECORD); a
    # plain pytest run archives them to a temp dir instead.
    os.environ["REPRO_BENCH_RECORD"] = "1"
    selector = argv[0] if argv else "solver_throughput"
    bench_dir = _benchmarks_dir()
    if selector == "all":
        targets = [str(bench_dir)]
    else:
        matches = sorted(bench_dir.glob(f"test_bench_*{selector}*.py"))
        if not matches:
            options = ", ".join(
                p.stem.replace("test_bench_", "")
                for p in sorted(bench_dir.glob("test_bench_*.py"))
            )
            raise SystemExit(
                f"no benchmark matches {selector!r}; options: all, {options}"
            )
        targets = [str(p) for p in matches]
    return pytest.main(["-q", *targets, *argv[1:]])


if __name__ == "__main__":
    raise SystemExit(main())
