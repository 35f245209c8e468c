"""Trace-style workload generation for the planning service.

The service benchmark drives :class:`~repro.service.PlanService` the
way alpa_serve drives its placement policies: a seeded arrival process
per job coupled to a population of heterogeneous training jobs, so
requests-per-second curves are measured against reproducible traffic
rather than a closed loop of back-to-back calls.

* :class:`GammaProcess` — gamma-distributed inter-arrival times with a
  target ``rate`` (arrivals/sec) and coefficient of variation ``cv``
  (``cv=1`` is a Poisson process; ``cv>1`` is burstier).  Seeded via a
  ``numpy`` Generator, so a trace is a pure function of its inputs.
* :func:`synthesize_trace` — one arrival process per tenant over the
  tenant's own corpus (the existing campaign
  :class:`~repro.experiments.workloads.Workload` definitions), merged
  into one time-sorted request stream.  ``step_window`` bounds which
  corpus steps a tenant draws from: a small window produces the
  duplicate-heavy traffic that exercises in-flight coalescing and the
  warm plan-cache path; a large window produces churn.
* :func:`service_jobs` — the default heterogeneous population (≥ 3
  tenants: the three corpus distributions at smoke-tier scale).

Every batch in a trace comes from ``workload.corpus().batch(step)``,
so a trace request is exactly the batch a campaign cell at that step
would plan — the service's bit-identity check against cold
:class:`~repro.core.solver.FlexSPSolver` solves closes the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import standard_cluster
from repro.data.distributions import COMMONCRAWL, GITHUB, WIKIPEDIA
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B


class GammaProcess:
    """Seeded gamma inter-arrival process (alpa_serve style).

    Args:
        rate: Mean arrival rate, requests/second.
        cv: Coefficient of variation of the inter-arrival time.
            ``1.0`` recovers a Poisson process; larger is burstier.
    """

    def __init__(self, rate: float, cv: float = 1.0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if cv <= 0:
            raise ValueError(f"cv must be positive, got {cv}")
        self.rate = float(rate)
        self.cv = float(cv)
        #: Gamma shape/scale with mean ``1/rate`` and the requested CV.
        self.shape = 1.0 / (cv * cv)
        self.scale = cv * cv / rate

    def arrivals(
        self, duration: float, rng: np.random.Generator
    ) -> list[float]:
        """Arrival offsets in ``[0, duration)``, strictly increasing."""
        times: list[float] = []
        t = float(rng.gamma(self.shape, self.scale))
        while t < duration:
            times.append(t)
            t += float(rng.gamma(self.shape, self.scale))
        return times


@dataclass(frozen=True)
class TraceRequest:
    """One planned arrival: ``tenant`` asks for a plan of ``lengths``.

    Attributes:
        time: Arrival offset from trace start, seconds.
        tenant: Registered tenant name (the workload's ``name``).
        step: Corpus step the batch was drawn from (for reporting).
        lengths: The global batch to plan — exactly
            ``workload.corpus().batch(step).lengths``.
    """

    time: float
    tenant: str
    step: int
    lengths: tuple[int, ...]


def service_jobs(
    *,
    num_gpus: int = 8,
    global_batch_size: int = 16,
    max_context: int = 32 * 1024,
) -> dict[str, Workload]:
    """The default heterogeneous job population (3 tenants).

    GPT-7B over the three corpus distributions at smoke-campaign
    scale — heterogeneous in sequence-length statistics (the axis the
    planner actually adapts to) while staying seconds-scale to plan.
    """
    cluster = standard_cluster(num_gpus)
    jobs = {}
    for dist in (GITHUB, COMMONCRAWL, WIKIPEDIA):
        workload = Workload(
            model=GPT_7B,
            distribution=dist,
            max_context=max_context,
            cluster=cluster,
            global_batch_size=global_batch_size,
        )
        jobs[workload.name] = workload
    return jobs


def synthesize_trace(
    jobs: dict[str, Workload],
    *,
    duration: float,
    rate: float,
    cv: float = 1.0,
    seed: int = 0,
    step_window: int = 8,
) -> tuple[TraceRequest, ...]:
    """One seeded arrival trace over a population of jobs.

    Each tenant gets its own :class:`GammaProcess` at ``rate``
    arrivals/sec (so total traffic scales with the population) and its
    own substream of the seed; each arrival draws a corpus step
    uniformly from ``[0, step_window)``.  Requests are merged and
    sorted by ``(time, tenant)``, so the trace — arrival times, batch
    contents, interleaving — is a pure function of
    ``(jobs, duration, rate, cv, seed, step_window)``.

    A ``step_window`` smaller than the expected per-tenant arrival
    count makes repeats certain: back-to-back duplicates land while
    the first solve is still in flight (coalescing) and later ones hit
    the warm plan cache.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if step_window <= 0:
        raise ValueError(f"step_window must be positive, got {step_window}")
    requests: list[TraceRequest] = []
    for index, name in enumerate(sorted(jobs)):
        workload = jobs[name]
        rng = np.random.default_rng([seed, index])
        corpus = workload.corpus()
        batches: dict[int, tuple[int, ...]] = {}
        for t in GammaProcess(rate, cv).arrivals(duration, rng):
            step = int(rng.integers(step_window))
            lengths = batches.get(step)
            if lengths is None:
                lengths = corpus.batch(step).lengths
                batches[step] = lengths
            requests.append(
                TraceRequest(time=t, tenant=name, step=step, lengths=lengths)
            )
    requests.sort(key=lambda r: (r.time, r.tenant))
    return tuple(requests)
