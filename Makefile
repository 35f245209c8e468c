# Convenience targets; all assume the repo root as working directory.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast bench bench-smoke bench-smoke-milp bench-all \
	bench-solver bench-e2e \
	bench-prune bench-scaleout bench-chaos \
	bench-chaos-smoke bench-service bench-service-smoke \
	bench-service-net bench-service-net-smoke perfbench-smoke

test:
	$(PYTHON) -m pytest tests/ -q

# Quick inner-loop tier: tests/ minus the slow and hypothesis-heavy
# suites (property tests and the store round-trip/eviction property
# classes all match "property").  The full `make test` (and the tier-1
# `pytest -x -q` from the repo root) remains the merge gate.
test-fast:
	$(PYTHON) -m pytest tests/ -q -m "not slow" -k "not property"

# The unified artefact campaign: Fig. 4, Fig. 6, Table 1, Fig. 7 and
# Fig. 8 regenerated in one deduplicated sweep pass, with the
# persistent cache store (benchmarks/results/campaign_store/) keeping
# cost-model fits, tuner memos and plan caches warm across runs.
# Prints the pass report and the artefact tables; the repo's perf
# record is perfbench/ (see perfbench-smoke below).
bench:
	$(PYTHON) -m repro.bench --campaign unified

# Fast CI tier: the same artefact structure on one-node reduced grids,
# cache store disabled (cold, deterministic, seconds-scale).
bench-smoke:
	$(PYTHON) -m repro.bench --campaign smoke --no-store

# The same smoke grids on the paper's MILP planner under a deterministic
# HiGHS node limit: exercises the MILP campaign path, its cold-batching
# prewarm and the solver's trial pruning (seconds-scale, cold).
bench-smoke-milp:
	$(PYTHON) -m repro.bench --campaign smoke --no-store --backend milp \
		--node-limit 200

# Every pytest benchmark suite (the pre-campaign `make bench`).
bench-all:
	$(PYTHON) -m repro.bench all

# Cache-store lifecycle: evict campaign-store workload files last used
# more than PRUNE_MAX_AGE_DAYS days ago, then least-recently-used files
# until the store fits PRUNE_MAX_STORE_BYTES (default 256 MiB).  Evicted
# workloads load cold on the next `make bench`; never fatal.
PRUNE_MAX_AGE_DAYS ?= 30
PRUNE_MAX_STORE_BYTES ?= 268435456
bench-prune:
	$(PYTHON) -m repro.bench --prune \
		--max-age-days $(PRUNE_MAX_AGE_DAYS) \
		--max-store-bytes $(PRUNE_MAX_STORE_BYTES)

# Store-sharing benchmark: two concurrent unified campaigns racing one
# cache store, both bit-identical to a storeless pass (write
# amplification and lock contention printed).
bench-scaleout:
	$(PYTHON) -m repro.bench scaleout

# Chaos benchmark: the unified campaign on a two-worker solver pool
# under deterministic fault injection (a planner worker killed mid-plan
# or at start-up, a torn spill write, a stale store lock), every
# schedule asserted recorded, bit-identical to the fault-free serial
# pass and leak-free.
bench-chaos:
	$(PYTHON) -m repro.bench chaos

# Fast CI tier of the chaos matrix: one solver-pool worker killed
# mid-plan, the pool's rebuild-and-resume asserted (the `-k smoke`
# slice).
bench-chaos-smoke:
	$(PYTHON) -m repro.bench chaos -k smoke

# Planning-as-a-service trace benchmark: a resident PlanService replays
# a seeded Gamma-arrival trace over three heterogeneous tenants twice
# (burst-cold, then warm churn), with in-flight coalescing, per-tenant
# admission shedding and every unique served plan verified bit-identical
# to a cold solve; prints the latency table and the service counters.
bench-service:
	$(PYTHON) -m repro.bench --service --duration 20 --rate 1.5 \
		--step-window 4 --max-context 32768 --batch-size 16

# Fast CI tier of the service trace: 16K contexts, batch 8, seconds of
# simulated arrivals at the duplicate-heavy step window.
bench-service-smoke:
	$(PYTHON) -m repro.bench --service

# Network chaos tier: the same seeded trace replayed through the TCP
# transport (PlanServer/PlanClient over loopback) while deterministic
# network faults fire at the accept/handshake/recv/send sites —
# connection resets, torn frames, slow peers, dropped responses, plus
# a server crash mid-trace degrading to in-process planning.  Every
# served plan asserted bit-identical to a cold solve, retries never
# double-solve, accounting deterministic, sockets/threads/pools
# released.
bench-service-net:
	$(PYTHON) -m repro.bench service_net

# Fast CI tier of the network chaos matrix: one injected conn_reset
# recovered over loopback (the `-k smoke` slice).
bench-service-net-smoke:
	$(PYTHON) -m repro.bench service_net -k smoke

# Solver-throughput benchmark only: cold/warm plans/sec against the
# scalar reference loop, plans asserted bit-identical.
bench-solver:
	$(PYTHON) -m repro.bench solver_throughput

# End-to-end experiment-sweep benchmark (persistent sweep runner vs. a
# sequential rebuild-everything reference, >= 4x asserted).
bench-e2e:
	$(PYTHON) -m repro.bench e2e_sweep

# The repo benchmark (perfbench/, see BENCHMARK.json), each workload
# once on a short traced run: fails when a library change breaks the
# harness or a workload's output checks.  Seconds-scale.
perfbench-smoke:
	@set -e; for workload in stream-milp campaign service-trace; do \
		echo "perfbench-smoke: $$workload"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
			--seconds 3 --trace 1; \
	done
