"""The extended alpha-beta cost model (Eqs. 11-14).

FlexSP extends the classic alpha-beta model ``T = alpha * W + beta`` by
making sequence length the independent variable:

* compute (Eq. 12):
  ``T_comp = (1/d) * sum_k(alpha1 * s_k^2 + alpha2 * s_k) + beta1``
* communication (Eq. 13):
  ``T_comm = (1/(d * v_d)) * sum_k(alpha3 * s_k) + beta2``
* memory (Eq. 11):
  ``Mem = (sum_k s_k / d) * M_token + M_ms``

where ``d`` is the SP degree and ``v_d`` the profiled per-GPU bandwidth
of a degree-``d`` group under canonical placement.  All terms are
linear in the assignment variables, which is what lets the planner be
a MILP.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.topology import ClusterSpec


@dataclass(frozen=True)
class CostCoefficients:
    """Fitted coefficients of the extended alpha-beta model.

    Attributes:
        alpha1: Seconds per (token^2 / device) of attention compute.
        alpha2: Seconds per (token / device) of linear-module compute.
        beta1: Fixed compute overhead per micro-batch, seconds.
        alpha3: Communication *work* per token (bytes-equivalent); the
            time contribution is ``alpha3 * s / (d * v_d)``.
        beta2: Fixed communication startup overhead, seconds.
        memory_per_token: Activation bytes per resident token, M_token.
        model_state_bytes: Per-device model-state bytes, M_ms.
        zero_gather_seconds: Raw ZeRO-3 parameter All-Gather seconds
            per micro-batch (a profiled constant, independent of the
            SP layout); partially hidden behind compute.
        zero_overlap: Fraction of the gather hideable behind compute.
    """

    alpha1: float
    alpha2: float
    beta1: float
    alpha3: float
    beta2: float
    memory_per_token: float
    model_state_bytes: float
    zero_gather_seconds: float = 0.0
    zero_overlap: float = 0.85

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "alpha3", "memory_per_token"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("beta1", "beta2", "model_state_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class CostModel:
    """Evaluates time and memory of SP-group workloads (Eqs. 11-14).

    Attributes:
        coeffs: Fitted alpha-beta coefficients.
        cluster: Supplies per-degree bandwidths ``v_d``, device memory
            budget ``E`` and the candidate-degree universe.
        comm_model: ``"alltoall"`` for Ulysses SP (the paper's default)
            or ``"ring"`` for ring-attention context parallelism — the
            Appendix E extension, where FlexSP's planner drives
            flexible CP groups instead.  ``alpha3`` is fit against the
            matching ground truth, and the per-token communication time
            scales as ``1/d`` for All-to-All but as ``(d-1)/d`` (nearly
            degree-independent) for the KV ring.
    """

    coeffs: CostCoefficients
    cluster: ClusterSpec
    comm_model: str = "alltoall"
    _bandwidth_cache: dict[int, float] = field(
        default_factory=dict, compare=False, hash=False, repr=False
    )
    _table_cache: dict[str, "CostTable"] = field(
        default_factory=dict, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.comm_model not in ("alltoall", "ring"):
            raise ValueError(
                f"comm_model must be 'alltoall' or 'ring', got {self.comm_model!r}"
            )

    def bandwidth(self, degree: int) -> float:
        """Profiled per-GPU All-to-All bandwidth ``v_d`` of a degree-``d`` group.

        This is the *effective algorithmic* bandwidth the paper's
        profiling would observe: the physical link rate divided by the
        ``(d-1)/d`` wire fraction of an All-to-All, so that Eq. 13 with
        a single ``alpha_3`` is exact across degrees.
        """
        if degree not in self._bandwidth_cache:
            if degree == 1:
                self._bandwidth_cache[degree] = float("inf")
            else:
                link = self.cluster.link_for_degree(degree)
                wire_fraction = (degree - 1) / degree
                self._bandwidth_cache[degree] = link.bandwidth / wire_fraction
        return self._bandwidth_cache[degree]

    @property
    def memory_budget(self) -> float:
        """Per-device memory budget ``E`` in bytes."""
        return self.cluster.gpu.usable_memory_bytes

    def compute_time(self, lengths: Iterable[int], degree: int) -> float:
        """Eq. 12: per-device compute seconds of a group's workload."""
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        work = sum(
            self.coeffs.alpha1 * s * s + self.coeffs.alpha2 * s for s in lengths
        )
        return work / degree + self.coeffs.beta1

    def comm_seconds_per_token(self, degree: int) -> float:
        """Communication seconds contributed by one assigned token.

        This is the coefficient the MILP places on each assignment
        variable: ``alpha3 / (d * v_d)`` for Ulysses All-to-All
        (Eq. 13), or ``alpha3 * (d-1)/d / v_d`` for the CP ring, whose
        per-GPU rotation volume does not shrink with the group size.
        """
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        if degree == 1:
            return 0.0
        if self.comm_model == "alltoall":
            return self.coeffs.alpha3 / (degree * self.bandwidth(degree))
        link = self.cluster.link_for_degree(degree)
        return self.coeffs.alpha3 * (degree - 1) / degree / link.bandwidth

    def comm_time(self, lengths: Iterable[int], degree: int) -> float:
        """Eq. 13: sequence-scattering communication seconds."""
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        if degree == 1:
            return 0.0
        per_token = self.comm_seconds_per_token(degree)
        return per_token * sum(lengths) + self.coeffs.beta2

    def time(self, lengths: Iterable[int], degree: int) -> float:
        """Eq. 14: total group seconds (compute + communication)."""
        lengths = list(lengths)
        return self.compute_time(lengths, degree) + self.comm_time(lengths, degree)

    def time_with_overheads(self, lengths: Iterable[int], degree: int) -> float:
        """Eq. 14 plus the exposed ZeRO-3 gather (S4.1.2's extension).

        The raw per-micro-batch gather ``g`` is hidden behind compute
        up to ``zero_overlap * g``, giving the piecewise-linear form
        ``max(comp + comm + (1 - ov) * g, comm + g)`` — both branches
        linear in the assignment, so the MILP stays a MILP.
        """
        lengths = list(lengths)
        comp = self.compute_time(lengths, degree)
        comm = self.comm_time(lengths, degree)
        gather = self.coeffs.zero_gather_seconds
        if gather <= 0:
            return comp + comm
        exposed_branch = comp + comm + (1.0 - self.coeffs.zero_overlap) * gather
        gather_bound_branch = comm + gather
        return max(exposed_branch, gather_bound_branch)

    def memory(self, lengths: Iterable[int], degree: int) -> float:
        """Eq. 11: per-device bytes of a group's workload."""
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        tokens = sum(lengths)
        return (
            tokens / degree * self.coeffs.memory_per_token
            + self.coeffs.model_state_bytes
        )

    def fits(self, lengths: Iterable[int], degree: int) -> bool:
        """Whether the workload satisfies the memory constraint (Cond. 7)."""
        return self.memory(lengths, degree) <= self.memory_budget

    def max_tokens_per_device(self) -> float:
        """Largest resident token count one device can hold."""
        budget = self.memory_budget - self.coeffs.model_state_bytes
        if budget <= 0:
            raise ValueError(
                "model states alone exceed device memory; use more devices "
                "or a smaller model"
            )
        return budget / self.coeffs.memory_per_token

    def cluster_token_capacity(self) -> float:
        """Tokens the whole cluster can hold in one micro-batch.

        This is the denominator of the blaster's minimum-micro-batch
        count ``M_min = ceil(batch_tokens / cluster_capacity)``.
        """
        return self.max_tokens_per_device() * self.cluster.num_gpus

    def min_degree_for_sequence(self, seq_len: int) -> int | None:
        """Smallest power-of-two SP degree that fits one sequence alone.

        Returns None when even the full cluster cannot fit it.
        """
        if seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {seq_len}")
        degree = 1
        while degree <= self.cluster.num_gpus:
            if self.fits([seq_len], degree):
                return degree
            degree *= 2
        return None


class CostTable:
    """Vectorized view of a :class:`CostModel` over all candidate degrees.

    The solver loop evaluates Eqs. 11-14 millions of times per solve —
    once per (bucket, virtual group) pair in the MILP assembly and once
    per (sequence, group) step of the greedy LPT incumbent.  The scalar
    :class:`CostModel` methods rebuild every per-degree constant
    (``v_d`` lookups, ``alpha3 / (d * v_d)``, branch betas) on each
    call; this table precomputes them **once per solve** as numpy
    arrays aligned with the power-of-two degree universe, so the hot
    paths reduce to elementwise array arithmetic and dot products.

    Exactness: every per-entry expression replicates the scalar
    formula operation-for-operation (same IEEE-754 double ops in the
    same order), so coefficients produced from the table are
    bit-identical to the scalar path.  Whole-group times are exact
    when the caller accumulates :meth:`work_terms` left to right (see
    :meth:`group_times`).

    Attributes:
        model: The wrapped scalar model.
        degrees: Ascending power-of-two degree universe (1..N).
    """

    def __init__(self, model: CostModel, degrees: Iterable[int] | None = None):
        self.model = model
        coeffs = model.coeffs
        if degrees is None:
            degrees = []
            d = 1
            while d <= model.cluster.num_gpus:
                degrees.append(d)
                d *= 2
        self.degrees: tuple[int, ...] = tuple(int(d) for d in degrees)
        if not self.degrees:
            raise ValueError("CostTable needs at least one candidate degree")
        self.degree_index: dict[int, int] = {
            d: i for i, d in enumerate(self.degrees)
        }
        n = len(self.degrees)
        self.degree_arr = np.asarray(self.degrees, dtype=np.float64)
        #: ``alpha3``-derived communication seconds per assigned token,
        #: per degree (0 for degree 1), exactly comm_seconds_per_token.
        self.comm_per_token = np.asarray(
            [model.comm_seconds_per_token(d) for d in self.degrees]
        )
        #: beta2 where the degree communicates, else 0 (degree 1).
        self.comm_beta = np.asarray(
            [coeffs.beta2 if d > 1 else 0.0 for d in self.degrees]
        )
        self.alpha1 = coeffs.alpha1
        self.alpha2 = coeffs.alpha2
        self.beta1 = coeffs.beta1
        self.gather = coeffs.zero_gather_seconds
        self.exposed_gather = (1.0 - coeffs.zero_overlap) * self.gather
        self.memory_per_token = coeffs.memory_per_token
        self.model_state_bytes = coeffs.model_state_bytes
        #: Per-degree activation-token capacity — the exact cap the MILP
        #: memory rows and the greedy LPT feasibility check use.
        budget = model.memory_budget - coeffs.model_state_bytes
        self.activation_budget = budget
        if budget > 0:
            self.token_caps = budget / coeffs.memory_per_token * self.degree_arr
        else:
            self.token_caps = np.zeros(n)
        #: Cold-path memos keyed by problem *structure*: the greedy
        #: planner's stacked candidate-layout family per memory class
        #: (``d_big``) and the MILP's assembled constraint skeletons
        #: per (bucket count, degree list).  Both caches live exactly
        #: as long as this table (== the model instance), so repeated
        #: solves and persistent pool workers enumerate/assemble once.
        #: Layout stacks are bounded by the power-of-two degree
        #: universe; skeleton keys vary with batch length
        #: distributions, so the planner LRU-caps that dict (see
        #: ``repro.core.planner._skeleton``).
        self.layout_stacks: dict = {}
        self.milp_skeletons: "OrderedDict" = OrderedDict()

    # ------------------------------------------------------------------
    # Elementwise kernels (bit-identical to the scalar path).
    # ------------------------------------------------------------------

    def work_terms(self, lengths) -> np.ndarray:
        """Eq. 12 quadratic work per sequence: ``alpha1 s^2 + alpha2 s``."""
        s = np.asarray(lengths, dtype=np.float64)
        return self.alpha1 * s * s + self.alpha2 * s

    def milp_time_coefficients(self, uppers, degree: int) -> np.ndarray:
        """Eq. 18 coefficient of one assignment variable per bucket.

        ``(alpha1 s^2 + alpha2 s) / d + comm_per_token(d) * s`` for
        every bucket upper ``s`` — the compute-branch row of the MILP,
        bit-identical to the scalar inner loop it replaces.
        """
        s = np.asarray(uppers, dtype=np.float64)
        idx = self.degree_index[degree]
        w = (self.alpha1 * s * s + self.alpha2 * s) / degree
        return w + self.comm_per_token[idx] * s

    def group_times(
        self, work: np.ndarray, tokens: np.ndarray, degree_idx: np.ndarray
    ) -> np.ndarray:
        """Eq. 14 + exposed gather per group from *accumulated* sums.

        ``degree_idx`` indexes :attr:`degrees`.  Each ``work`` must be
        the sequential sum of :meth:`work_terms` in assignment order and
        each ``tokens`` the token sum; then every lane equals
        ``CostModel.time_with_overheads`` bit-for-bit (elementwise IEEE
        ops).
        """
        d = self.degree_arr[degree_idx]
        comp = work / d + self.beta1
        comm = self.comm_per_token[degree_idx] * tokens + self.comm_beta[degree_idx]
        if self.gather <= 0:
            return comp + comm
        return np.maximum(comp + comm + self.exposed_gather, comm + self.gather)


def cost_table(model: CostModel) -> CostTable:
    """Build (or fetch the memoised) :class:`CostTable` of ``model``.

    The table is cached on the model instance — like the bandwidth
    cache — so repeated solves, the baselines' estimates and each
    solver-service worker pay the construction cost exactly once per
    process.
    """
    table = model._table_cache.get("default")
    if table is None:
        table = CostTable(model)
        model._table_cache["default"] = table
    return table
