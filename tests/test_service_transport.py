"""Hardened TCP transport (:mod:`repro.service.transport`).

Covers the wire protocol edge by edge — framing, the versioned
signature handshake, typed errors for malformed frames — and the
failure semantics the transport exists for: idempotent retries that
never double-solve (and never double-count a shed verdict),
server-side deadline expiries that deliberately *stay* retryable,
graceful drain versus crash-style abort, degradation to an in-process
service when the retry budget runs dry, and the ``--serve`` /
``--connect`` endpoint validation on the CLI.  Every plan that crosses
the socket is asserted bit-identical to a cold
:class:`~repro.core.solver.FlexSPSolver` solve of the same batch.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from types import SimpleNamespace

import pytest

from repro.bench import _parse_serve_args, main as bench_main
from repro.cluster.topology import standard_cluster
from repro.core import faults
from repro.core.pools import live_pool_count
from repro.core.solver import FlexSPSolver, SolverConfig
from repro.data.distributions import COMMONCRAWL, GITHUB
from repro.experiments.workloads import Workload
from repro.model.config import GPT_7B
from repro.service import (
    HandshakeError,
    PlanClient,
    PlanDeadlineExceeded,
    PlanServer,
    PlanService,
    RequestShed,
    TransportError,
)
from repro.service.transport import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
)

MAX_CONTEXT = 16 * 1024
RESULT_TIMEOUT = 300.0


def small_workload(distribution=COMMONCRAWL, seed: int = 0) -> Workload:
    return Workload(
        model=GPT_7B,
        distribution=distribution,
        max_context=MAX_CONTEXT,
        cluster=standard_cluster(8),
        global_batch_size=8,
        seed=seed,
    )


def batch_lengths(workload: Workload, step: int) -> tuple[int, ...]:
    return workload.corpus().batch(step).lengths


def assert_bit_equal(a, b) -> None:
    assert a.microbatches == b.microbatches
    assert a.predicted_time == b.predicted_time


def _cold_model(workload: Workload):
    from repro.cost.profiler import fit_cost_model

    return fit_cost_model(
        workload.model_at_context, workload.cluster, workload.checkpointing
    )


# -- raw-socket helpers (the server's wire contract, no client) --------


def _connect(server: PlanServer) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    buffer = b""
    deadline = time.monotonic() + 10.0
    while len(buffer) < size:
        if time.monotonic() > deadline:
            raise AssertionError("timed out reading from the server")
        chunk = sock.recv(size - len(buffer))
        if not chunk:
            raise AssertionError("server closed the connection mid-frame")
        buffer += chunk
    return buffer


def _recv_frame(sock: socket.socket) -> dict:
    (size,) = struct.unpack(">I", _recv_exact(sock, 4))
    return json.loads(_recv_exact(sock, size).decode("utf-8"))


def _handshake(sock: socket.socket) -> dict:
    sock.sendall(encode_frame({"type": "hello", "protocol": PROTOCOL_VERSION}))
    return _recv_frame(sock)


@pytest.fixture(scope="module")
def served():
    """One registered tenant behind a live loopback server, shared by
    the read-only protocol tests (fault/drain tests build their own)."""
    workload = small_workload()
    service = PlanService(worker_threads=2)
    tenant = service.register(workload)
    server = PlanServer(service, owns_service=True)
    yield SimpleNamespace(
        server=server, service=service, tenant=tenant, workload=workload
    )
    server.close()


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame({"type": "ping", "id": "x"})
        (size,) = struct.unpack(">I", frame[:4])
        assert size == len(frame) - 4
        assert json.loads(frame[4:].decode("utf-8")) == {
            "type": "ping",
            "id": "x",
        }

    def test_oversized_frame_refused(self):
        with pytest.raises(TransportError, match="exceeds"):
            encode_frame({"pad": "x" * MAX_FRAME_BYTES})


class TestHandshake:
    def test_welcome_advertises_version_and_signatures(self, served):
        sock = _connect(served.server)
        try:
            welcome = _handshake(sock)
        finally:
            sock.close()
        assert welcome["type"] == "welcome"
        assert welcome["protocol"] == PROTOCOL_VERSION
        digest = welcome["tenants"][served.tenant]
        assert isinstance(digest, str) and digest

    def test_protocol_mismatch_gets_typed_error(self, served):
        sock = _connect(served.server)
        try:
            sock.sendall(encode_frame({"type": "hello", "protocol": 99}))
            reply = _recv_frame(sock)
        finally:
            sock.close()
        assert reply["type"] == "error"
        assert reply["error"] == "protocol"

    def test_signature_mismatch_refused_client_side(self, served):
        # Same tenant name, different workload (seed) — the client must
        # refuse to plan against the wrong cost model, and the error
        # must not be retried (it would never succeed).
        wrong = {served.tenant: small_workload(seed=1)}
        host, port = served.server.address
        with PlanClient(host, port, jobs=wrong, retries=5) as client:
            with pytest.raises(HandshakeError, match="signature mismatch"):
                client.plan(
                    served.tenant, batch_lengths(served.workload, 0)
                )
            assert client.stats()["retries"] == 0


class TestProtocolEdges:
    def test_bad_json_survives_connection(self, served):
        sock = _connect(served.server)
        try:
            _handshake(sock)
            sock.sendall(struct.pack(">I", 5) + b"nojso")
            reply = _recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["error"] == "bad-frame"
            # Framing stayed in sync: the connection still serves.
            sock.sendall(encode_frame({"type": "ping", "id": "p"}))
            assert _recv_frame(sock)["type"] == "pong"
        finally:
            sock.close()

    def test_garbage_length_prefix_is_fatal(self, served):
        sock = _connect(served.server)
        try:
            _handshake(sock)
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            reply = _recv_frame(sock)
            assert reply["error"] == "bad-frame"
            # The stream has lost sync — the server hangs up.
            assert sock.recv(1) == b""
        finally:
            sock.close()

    def test_unknown_frame_type(self, served):
        sock = _connect(served.server)
        try:
            _handshake(sock)
            sock.sendall(encode_frame({"type": "solve", "id": "q"}))
            reply = _recv_frame(sock)
        finally:
            sock.close()
        assert reply["error"] == "bad-request"
        assert reply["id"] == "q"

    def test_malformed_plan_frame(self, served):
        sock = _connect(served.server)
        try:
            _handshake(sock)
            sock.sendall(
                encode_frame(
                    {
                        "type": "plan",
                        "id": "m",
                        "tenant": served.tenant,
                        "lengths": [True, -4],
                    }
                )
            )
            reply = _recv_frame(sock)
        finally:
            sock.close()
        assert reply["error"] == "bad-request"

    def test_unknown_tenant_over_tcp(self, served):
        host, port = served.server.address
        with PlanClient(host, port) as client:
            with pytest.raises(ValueError, match="unknown tenant"):
                client.plan("nobody", (1024, 2048))


class TestClientServer:
    def test_plans_bit_identical_and_warm_second_time(self, served):
        host, port = served.server.address
        lengths = batch_lengths(served.workload, 1)
        with PlanClient(host, port, jobs={served.tenant: served.workload}) as client:
            first = client.plan(served.tenant, lengths)
            second = client.plan(served.tenant, lengths)
            assert client.stats()["served"] == 2
            assert client.stats()["degraded"] == 0
        assert first.source in ("solved", "warm")
        assert second.source == "warm"
        assert_bit_equal(first.plan, second.plan)
        cold = FlexSPSolver(_cold_model(served.workload), SolverConfig())
        try:
            assert_bit_equal(cold.solve(lengths), first.plan)
        finally:
            cold.close()

    def test_ping_round_trip(self, served):
        host, port = served.server.address
        with PlanClient(host, port) as client:
            rtt = client.ping()
        assert 0 < rtt < 5.0


class TestIdempotentRetry:
    def test_dropped_response_never_double_solves(self):
        """The acceptance-critical path: the response is solved and
        recorded but never sent; the retry replays the recorded answer
        instead of re-entering the engine."""
        workload = small_workload(GITHUB, seed=3)
        service = PlanService(worker_threads=1)
        tenant = service.register(workload)
        with PlanServer(service, owns_service=True) as server:
            host, port = server.address
            schedule = faults.FaultSchedule.parse("drop_response@send")
            with faults.armed(schedule):
                with PlanClient(
                    host, port, retries=3, io_timeout=1.0, backoff_base=0.01
                ) as client:
                    lengths = batch_lengths(workload, 0)
                    plan = client.plan(tenant, lengths)
                    stats = client.stats()
            assert schedule.injection_counts() == {"drop_response@send": 1}
            assert stats["retries"] == 1
            assert server.stats()["replayed"] == 1
            assert server.stats()["dropped_responses"] == 1
            assert service.stats()["solved"] == 1
        cold = FlexSPSolver(_cold_model(workload), SolverConfig())
        try:
            assert_bit_equal(cold.solve(lengths), plan.plan)
        finally:
            cold.close()

    def test_shed_verdict_replayed_not_double_counted(self):
        """A shed verdict is final per request id: a retry replays it
        from the idempotency window, so the deterministic shed
        accounting cannot be flipped (or double-counted) by a lost
        response."""
        workload = small_workload(GITHUB, seed=4)
        service = PlanService(
            autostart=False, max_pending_per_tenant=1, worker_threads=1
        )
        tenant = service.register(workload)
        blocked = service.submit(tenant, batch_lengths(workload, 0))
        with PlanServer(service, owns_service=True) as server:
            sock = _connect(server)
            try:
                _handshake(sock)
                frame = {
                    "type": "plan",
                    "id": "rid-shed",
                    "tenant": tenant,
                    "lengths": list(batch_lengths(workload, 1)),
                }
                sock.sendall(encode_frame(frame))
                first = _recv_frame(sock)
                sock.sendall(encode_frame(frame))
                second = _recv_frame(sock)
            finally:
                sock.close()
            assert first["error"] == "shed"
            assert second["error"] == "shed"
            assert server.stats()["replayed"] == 1
            # One shed, not two: the retry never reached the service.
            assert service.stats()["shed"] == 1
            service.start()
            blocked.result(timeout=RESULT_TIMEOUT)

    def test_server_deadline_expiry_is_retryable(self):
        """``deadline`` errors are deliberately *not* remembered: the
        flight may still finish, and the retry answers warm."""
        workload = small_workload(GITHUB, seed=5)
        service = PlanService(autostart=False, worker_threads=1)
        tenant = service.register(workload)
        with PlanServer(service, owns_service=True) as server:
            sock = _connect(server)
            try:
                _handshake(sock)
                frame = {
                    "type": "plan",
                    "id": "rid-dl",
                    "tenant": tenant,
                    "lengths": list(batch_lengths(workload, 0)),
                    "deadline_ms": 150,
                }
                sock.sendall(encode_frame(frame))
                expired = _recv_frame(sock)
                assert expired["error"] == "deadline"
                # The engine wakes up; the same request id now serves.
                service.start()
                frame["deadline_ms"] = int(RESULT_TIMEOUT * 1000)
                sock.sendall(encode_frame(frame))
                answered = _recv_frame(sock)
            finally:
                sock.close()
            assert answered["type"] == "plan"
            assert answered["id"] == "rid-dl"
            assert server.stats()["replayed"] == 0

    def test_coalesced_over_tcp(self):
        """Two clients, same shape, paused service: one solve serves
        both, bit-equal, via the service's in-flight map."""
        workload = small_workload(GITHUB, seed=6)
        service = PlanService(autostart=False, worker_threads=2)
        tenant = service.register(workload)
        lengths = batch_lengths(workload, 0)
        results: list = [None, None]

        def request(slot: int) -> None:
            host, port = server.address
            with PlanClient(host, port, io_timeout=60.0) as client:
                results[slot] = client.plan(
                    tenant, lengths, deadline=RESULT_TIMEOUT
                )

        with PlanServer(service, owns_service=True) as server:
            threads = [
                threading.Thread(target=request, args=(slot,))
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30.0
            while service.stats()["submitted"] < 2:
                assert time.monotonic() < deadline, "submissions never landed"
                time.sleep(0.01)
            service.start()
            for thread in threads:
                thread.join(timeout=RESULT_TIMEOUT)
                assert not thread.is_alive()
            stats = service.stats()
        assert stats["solved"] == 1
        assert stats["coalesced"] == 1
        assert_bit_equal(results[0].plan, results[1].plan)

    def test_shed_propagates_over_tcp(self):
        workload = small_workload(GITHUB, seed=7)
        service = PlanService(
            autostart=False, max_pending_per_tenant=1, worker_threads=1
        )
        tenant = service.register(workload)
        blocked = service.submit(tenant, batch_lengths(workload, 0))
        with PlanServer(service, owns_service=True) as server:
            host, port = server.address
            with PlanClient(host, port) as client:
                with pytest.raises(RequestShed):
                    client.plan(tenant, batch_lengths(workload, 1))
                assert client.stats()["shed"] == 1
            service.start()
            blocked.result(timeout=RESULT_TIMEOUT)


class TestDegradation:
    def _unused_port(self) -> int:
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_exhausted_budget_without_jobs_raises(self):
        client = PlanClient(
            "127.0.0.1",
            self._unused_port(),
            retries=1,
            backoff_base=0.01,
            io_timeout=0.5,
        )
        with client:
            with pytest.raises(PlanDeadlineExceeded, match="no fallback"):
                client.plan("anyone", (1024,))
        stats = client.stats()
        assert stats["failed"] == 1
        assert stats["retries"] == 2  # initial attempt + retry, both counted

    def test_exhausted_budget_degrades_to_in_process(self):
        baseline_pools = live_pool_count()
        workload = small_workload(GITHUB, seed=8)
        lengths = batch_lengths(workload, 0)
        client = PlanClient(
            "127.0.0.1",
            self._unused_port(),
            jobs={"solo": workload},
            retries=1,
            backoff_base=0.01,
            io_timeout=0.5,
        )
        with client:
            plan = client.plan("solo", lengths)
            assert client.stats()["degraded"] == 1
            assert plan.source in ("solved", "warm")
        cold = FlexSPSolver(_cold_model(workload), SolverConfig())
        try:
            assert_bit_equal(cold.solve(lengths), plan.plan)
        finally:
            cold.close()
        # The private fallback service released its pools on close().
        assert live_pool_count() == baseline_pools


class TestDrainAndLeaks:
    def test_graceful_drain_releases_everything(self):
        baseline_pools = live_pool_count()
        baseline_threads = set(threading.enumerate())
        workload = small_workload(GITHUB, seed=9)
        service = PlanService(worker_threads=1)
        tenant = service.register(workload)
        server = PlanServer(service, owns_service=True)
        host, port = server.address
        with PlanClient(host, port) as client:
            client.plan(tenant, batch_lengths(workload, 0))
        server.close()
        server.close()  # idempotent
        assert server.live_connections() == 0
        assert live_pool_count() == baseline_pools
        # Only this server's threads: the module fixture's server is
        # still (correctly) accepting in the background.
        lingering = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("plan-server") and t not in baseline_threads
        ]
        assert lingering == []
        # A connect after close is refused outright.
        with pytest.raises(OSError):
            _connect(server)

    def test_idle_connection_told_closing_on_drain(self):
        workload = small_workload(GITHUB, seed=10)
        service = PlanService(worker_threads=1)
        service.register(workload)
        server = PlanServer(service, owns_service=True)
        sock = _connect(server)
        try:
            _handshake(sock)
            server.close()  # drains; the idle peer is notified first
            reply = _recv_frame(sock)
        finally:
            sock.close()
        assert reply["type"] == "error"
        assert reply["error"] == "closing"

    def test_excess_connections_refused_not_queued(self):
        workload = small_workload(GITHUB, seed=11)
        service = PlanService(worker_threads=1)
        service.register(workload)
        with PlanServer(service, owns_service=True, max_connections=1) as server:
            first = _connect(server)
            try:
                _handshake(first)
                # The RST can surface at connect(), at the hello send,
                # or as EOF while awaiting the welcome — never as a
                # successful handshake.
                with pytest.raises((AssertionError, ConnectionError)):
                    second = _connect(server)
                    try:
                        _handshake(second)
                    finally:
                        second.close()
                deadline = time.monotonic() + 5.0
                while server.stats()["refused"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            finally:
                first.close()


class TestEndpointCli:
    """``--serve --listen`` / ``--service --connect`` argument
    validation: malformed or out-of-range endpoints fail fast with an
    argparse error (exit code 2), never a mid-run socket error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--service", "--connect", "nocolon"],
            ["--service", "--connect", "host:"],
            ["--service", "--connect", "host:notaport"],
            ["--service", "--connect", "host:0"],
            ["--service", "--connect", "host:65536"],
            ["--service", "--connect", "host:-1"],
            ["--serve", "--listen", "1.2.3.4:99999"],
            ["--serve", "--listen", "9000"],
        ],
    )
    def test_malformed_endpoints_exit_fast(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_main(argv)
        assert excinfo.value.code == 2
        assert "port" in capsys.readouterr().err.lower()

    def test_ephemeral_port_allowed_only_for_listen(self, capsys):
        # --listen 0 binds an ephemeral port (valid); --connect 0 can
        # never reach anything (rejected above).  Checked by parsing
        # only, so no socket is opened.
        args = _parse_serve_args(
            ["--serve", "--listen", "127.0.0.1:0", "--serve-seconds", "1"]
        )
        assert args.listen == ("127.0.0.1", 0)
        with pytest.raises(SystemExit) as excinfo:
            bench_main(
                ["--serve", "--listen", "127.0.0.1:0", "--serve-seconds", "0"]
            )
        assert excinfo.value.code == 2
        assert "serve-seconds" in capsys.readouterr().err
