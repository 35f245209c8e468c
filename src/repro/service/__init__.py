"""Planning-as-a-service front-end (see :mod:`repro.service.service`).

The resident multi-tenant :class:`PlanService`, the hardened TCP
transport that puts it on the network
(:mod:`repro.service.transport`), plus the seeded trace-style load
generation (:mod:`repro.service.traffic`) that the service benchmarks
drive it with.
"""

from repro.service.service import (
    PlanService,
    PlanTicket,
    RequestShed,
    ServedPlan,
    ServiceClosed,
)
from repro.service.traffic import (
    GammaProcess,
    TraceRequest,
    service_jobs,
    synthesize_trace,
)
from repro.service.transport import (
    HandshakeError,
    PlanClient,
    PlanDeadlineExceeded,
    PlanServer,
    TransportError,
)

__all__ = [
    "PlanService",
    "PlanTicket",
    "RequestShed",
    "ServedPlan",
    "ServiceClosed",
    "GammaProcess",
    "TraceRequest",
    "service_jobs",
    "synthesize_trace",
    "HandshakeError",
    "PlanClient",
    "PlanDeadlineExceeded",
    "PlanServer",
    "TransportError",
]
