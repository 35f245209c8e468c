"""Hardened TCP transport (:mod:`repro.service.transport`).

Covers the wire protocol edge by edge — framing, the versioned
signature handshake, typed errors for malformed frames — and the
failure semantics the transport exists for: idempotent retries that
never double-solve (and never double-count a shed verdict),
server-side deadline expiries that deliberately *stay* retryable,
graceful drain versus crash-style abort, and degradation to an
in-process service when the retry budget runs dry.  Every plan that
crosses the socket is asserted bit-identical to a cold
:class:`~repro.core.solver.FlexSPSolver` solve of the same batch.
"""

from __future__ import annotations

import contextlib
import json
import socket
import struct
import threading
import time
from types import SimpleNamespace

import pytest

from repro.cluster.topology import standard_cluster
from repro.core import faults
from repro.core.pools import live_pool_count
from repro.core.serialization import plan_from_dict, plan_to_dict
from repro.core.solver import FlexSPSolver
from repro.core.types import (
    GroupAssignment,
    IterationPlan,
    MicroBatchPlan,
    SolveStats,
)
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
from repro.service import transport
from repro.service.benchmark import SOLVER_CONFIG
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


@contextlib.contextmanager
def _scripted_server(handle):
    """A raw-socket stand-in for a server: ``handle(conn, index)`` runs
    for the ``index``-th accepted connection, which closes after it
    unless ``handle`` aborted it; yields the address."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    stop = threading.Event()

    def serve() -> None:
        index = 0
        while not stop.is_set():
            try:
                conn, __ = listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(5.0)
                handle(conn, index)
            index += 1

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        stop.set()
        thread.join(timeout=10.0)
        listener.close()


def _answering_hello_with(reply: bytes):
    """A stand-in server that answers every hello with the bytes
    ``reply`` and hangs up."""

    def handle(conn: socket.socket, index: int) -> None:
        _recv_frame(conn)  # the hello
        conn.sendall(reply)

    return _scripted_server(handle)


def _send_bytewise(sock: socket.socket, data: bytes) -> None:
    """Send ``data`` one byte per segment, so the peer's reads see it
    arrive a byte at a time."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    for index in range(len(data)):
        sock.sendall(data[index : index + 1])
        time.sleep(0.0002)


#: The welcome a stand-in server sends (no tenants to check).
WELCOME = {"type": "welcome", "protocol": PROTOCOL_VERSION, "tenants": {}}


def _tiny_plan_response(rid: str, lengths: tuple[int, ...]) -> dict:
    """A plan response frame for ``lengths`` in one group of two."""
    plan = IterationPlan(
        microbatches=(
            MicroBatchPlan(
                groups=(GroupAssignment(2, (0, 1), tuple(lengths)),)
            ),
        ),
        predicted_time=1.5,
        solver_name="flexsp-greedy",
        stats=SolveStats(cache_hits=1, trials=1, microbatches=1),
    )
    return {"type": "plan", "id": rid, "source": "warm", "plan": plan_to_dict(plan)}


@pytest.fixture(scope="module")
def served():
    """One registered tenant behind a live loopback server, shared by
    the read-only protocol tests (fault/drain tests build their own)."""
    workload = small_workload()
    service = PlanService(solver_config=SOLVER_CONFIG, worker_threads=2)
    tenant = service.register(workload)
    server = PlanServer(service, owns_service=True)
    yield SimpleNamespace(
        server=server, service=service, tenant=tenant, workload=workload
    )
    server.close()


@pytest.fixture()
def bare_server():
    """A server over a paused service without tenants: enough for
    handshakes and pings, with no cost model to fit."""
    service = PlanService(solver_config=SOLVER_CONFIG, autostart=False)
    with PlanServer(service, owns_service=True) as server:
        yield server


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

    def test_encoder_matches_json_dumps_for_every_frame_type(self, served):
        """The shared encoder writes exactly what ``json.dumps`` with
        the frame separators and sorted keys writes, for each frame
        the server and the client send."""
        lengths = batch_lengths(served.workload, 0)
        served_plan = served.service.submit(served.tenant, lengths).result(
            timeout=RESULT_TIMEOUT
        )
        frames = [
            {"type": "hello", "protocol": PROTOCOL_VERSION},
            {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "tenants": served.service.workload_signatures(),
            },
            {
                "type": "plan",
                "id": "ab12cd34-7",
                "tenant": served.tenant,
                "lengths": list(lengths),
                "deadline_ms": 30000,
            },
            {
                "type": "plan",
                "id": "ab12cd34-7",
                "source": served_plan.source,
                "plan": plan_to_dict(served_plan.plan),
            },
            {"type": "ping", "id": None},
            {"type": "pong", "id": "x"},
            *(
                transport._error(rid, code, f"why: {code} \u00e9\u2014")
                for rid, code in (
                    (None, "bad-frame"),
                    (None, "closing"),
                    (None, "protocol"),
                    ("r", "shed"),
                    ("r", "unknown-tenant"),
                    ("r", "bad-request"),
                    ("r", "closed"),
                    ("r", "deadline"),
                )
            ),
        ]
        for frame in frames:
            data = json.dumps(
                frame, separators=(",", ":"), sort_keys=True
            ).encode("utf-8")
            assert encode_frame(frame) == struct.pack(">I", len(data)) + data


class TestOneReadPerFrame:
    """Both ends read frames through a per-connection receive buffer:
    however the bytes arrive, the frames decoded are the same, and
    buffered bytes die with their connection."""

    PING = {"type": "ping", "id": "bytewise"}

    def test_server_decodes_a_frame_fed_bytewise(self, served):
        lengths = batch_lengths(served.workload, 2)
        request = {
            "type": "plan",
            "id": "whole",
            "tenant": served.tenant,
            "lengths": list(lengths),
        }
        sock = _connect(served.server)
        try:
            _send_bytewise(
                sock, encode_frame({"type": "hello", "protocol": PROTOCOL_VERSION})
            )
            assert _recv_frame(sock)["type"] == "welcome"
            sock.sendall(encode_frame(request))
            whole = _recv_frame(sock)
            _send_bytewise(sock, encode_frame(self.PING))
            assert _recv_frame(sock) == {"type": "pong", "id": "bytewise"}
            _send_bytewise(sock, encode_frame(dict(request, id="bytewise")))
            bytewise = _recv_frame(sock)
        finally:
            sock.close()
        assert whole["type"] == bytewise["type"] == "plan"
        assert bytewise["id"] == "bytewise"
        assert bytewise["plan"]["microbatches"] == whole["plan"]["microbatches"]
        assert bytewise["plan"]["predicted_time"] == whole["plan"]["predicted_time"]

    def test_client_decodes_frames_fed_bytewise(self):
        lengths = (1024, 2048)
        sent: list[dict] = []

        def handle(conn: socket.socket, index: int) -> None:
            _recv_frame(conn)  # the hello
            _send_bytewise(conn, encode_frame(WELCOME))
            request = _recv_frame(conn)
            response = _tiny_plan_response(request["id"], lengths)
            sent.append(response)
            _send_bytewise(conn, encode_frame(response))
            _recv_frame(conn)  # the ping
            _send_bytewise(conn, encode_frame({"type": "pong", "id": None}))
            conn.recv(1)

        with _scripted_server(handle) as (host, port):
            with PlanClient(host, port, retries=0) as client:
                served_plan = client.plan("anyone", lengths)
                assert client.ping() > 0
                assert client._buffer == bytearray()
                stats = client.stats()
        assert served_plan.plan == plan_from_dict(sent[0]["plan"])
        assert served_plan.source == "warm"
        assert (stats["connects"], stats["retries"]) == (1, 0)

    def test_server_answers_two_frames_sent_together_in_order(self, served):
        lengths = batch_lengths(served.workload, 3)
        sock = _connect(served.server)
        try:
            _handshake(sock)
            sock.sendall(
                encode_frame(self.PING)
                + encode_frame(
                    {
                        "type": "plan",
                        "id": "second",
                        "tenant": served.tenant,
                        "lengths": list(lengths),
                    }
                )
            )
            first = _recv_frame(sock)
            second = _recv_frame(sock)
        finally:
            sock.close()
        assert first == {"type": "pong", "id": "bytewise"}
        assert (second["type"], second["id"]) == ("plan", "second")

    def test_client_reads_two_frames_that_came_together_in_order(self):
        """A stale answer and the awaited one in one ``sendall``: the
        client skips the first and leaves nothing buffered for the next
        request."""
        lengths = (1024, 2048)

        def handle(conn: socket.socket, index: int) -> None:
            _recv_frame(conn)  # the hello
            conn.sendall(encode_frame(WELCOME))
            request = _recv_frame(conn)
            stale = _tiny_plan_response("abandoned", (4096,))
            conn.sendall(
                encode_frame(stale)
                + encode_frame(_tiny_plan_response(request["id"], lengths))
            )
            request = _recv_frame(conn)
            conn.sendall(
                encode_frame({"type": "pong", "id": None})
                + encode_frame(_tiny_plan_response(request["id"], lengths[::-1]))
            )
            conn.recv(1)

        with _scripted_server(handle) as (host, port):
            with PlanClient(host, port, retries=0) as client:
                first = client.plan("anyone", lengths)
                assert client._buffer == bytearray()
                second = client.plan("anyone", lengths[::-1])
                assert client._buffer == bytearray()
                stats = client.stats()
        assert first.plan.microbatches[0].groups[0].lengths == lengths
        assert second.plan.microbatches[0].groups[0].lengths == lengths[::-1]
        assert (stats["served"], stats["connects"], stats["retries"]) == (2, 1, 0)

    def test_client_reads_only_the_new_connection_after_a_reset(self):
        """The first connection resets halfway through a response; the
        retry's connection must not see those bytes."""
        lengths = (1024, 2048)

        def handle(conn: socket.socket, index: int) -> None:
            _recv_frame(conn)  # the hello
            conn.sendall(encode_frame(WELCOME))
            request = _recv_frame(conn)
            response = encode_frame(_tiny_plan_response(request["id"], lengths))
            if index == 0:
                conn.sendall(response[: len(response) // 2])
                time.sleep(0.05)  # let the half frame land first
                transport._abort_socket(conn)
                return
            conn.sendall(response)
            conn.recv(1)

        with _scripted_server(handle) as (host, port):
            with PlanClient(host, port, retries=2, backoff_base=0.01) as client:
                served_plan = client.plan("anyone", lengths)
                assert client._buffer == bytearray()
                stats = client.stats()
        assert served_plan.plan.microbatches[0].groups[0].lengths == lengths
        assert (stats["served"], stats["connects"], stats["retries"]) == (1, 2, 1)

    def test_server_reads_only_the_new_connection_after_a_reset(self, served):
        half = encode_frame(self.PING)
        reset = _connect(served.server)
        _handshake(reset)
        reset.sendall(half[: len(half) // 2])
        time.sleep(0.05)
        transport._abort_socket(reset)
        sock = _connect(served.server)
        try:
            _handshake(sock)
            sock.sendall(encode_frame({"type": "ping", "id": "fresh"}))
            assert _recv_frame(sock) == {"type": "pong", "id": "fresh"}
        finally:
            sock.close()

    def test_torn_response_retried_on_a_clean_connection(self):
        """``torn_frame@send`` writes half a response and resets: the
        client's retry reads only the new connection's bytes and gets
        the remembered answer."""
        workload = small_workload(GITHUB, seed=15)
        service = PlanService(solver_config=SOLVER_CONFIG, worker_threads=1)
        tenant = service.register(workload)
        lengths = batch_lengths(workload, 0)
        with PlanServer(service, owns_service=True) as server:
            host, port = server.address
            schedule = faults.FaultSchedule.parse("torn_frame@send:0")
            with faults.armed(schedule):
                with PlanClient(
                    host, port, retries=3, io_timeout=5.0, backoff_base=0.01
                ) as client:
                    served_plan = client.plan(tenant, lengths)
                    stats = client.stats()
            assert schedule.injection_counts() == {"torn_frame@send": 1}
            assert server.stats()["replayed"] == 1
        assert (stats["retries"], stats["connects"], stats["degraded"]) == (1, 2, 0)
        cold = FlexSPSolver(_cold_model(workload), SOLVER_CONFIG)
        assert_bit_equal(cold.solve(lengths), served_plan.plan)

    def test_connect_close_cycles_leave_nothing_behind(self, bare_server):
        host, port = bare_server.address
        client = PlanClient(host, port, retries=0)
        for __ in range(100):
            client.ping()
            client.close()
            assert client._sock is None
            assert client._buffer == bytearray()
        assert client.stats()["connects"] == 100
        for __ in range(100):
            sock = _connect(bare_server)
            _handshake(sock)
            sock.close()
        deadline = time.monotonic() + 10.0
        while bare_server.live_connections():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # A connection's buffer lives in its handler's frame: with every
        # handler gone, no buffer is left.
        assert bare_server._handlers == {}
        assert bare_server.stats()["handshakes"] == 200


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
        with PlanClient(
            host, port, jobs=wrong, solver_config=SOLVER_CONFIG, retries=5
        ) as client:
            with pytest.raises(HandshakeError, match="signature mismatch"):
                client.plan(
                    served.tenant, batch_lengths(served.workload, 0)
                )
            assert client.stats()["retries"] == 0


class TestHandshakeFaults:
    """A ``handshake`` fault fires before the protocol check, and the
    welcome goes out through the response writer."""

    HELLO = encode_frame({"type": "hello", "protocol": PROTOCOL_VERSION})

    def test_conn_reset_fires_before_the_protocol_check(self, bare_server):
        schedule = faults.FaultSchedule.parse("conn_reset@handshake")
        with faults.armed(schedule):
            sock = _connect(bare_server)
            try:
                sock.sendall(encode_frame({"type": "hello", "protocol": 99}))
                # A reset, not the ``protocol`` error frame.
                with pytest.raises((ConnectionError, AssertionError)):
                    _recv_frame(sock)
            finally:
                sock.close()
        assert schedule.injection_counts() == {"conn_reset@handshake": 1}
        assert bare_server.stats()["aborted"] == 1

    def test_dropped_welcome_ends_the_connection(self, bare_server):
        schedule = faults.FaultSchedule.parse("drop_response@handshake")
        with faults.armed(schedule):
            sock = _connect(bare_server)
            try:
                sock.sendall(self.HELLO)
                assert sock.recv(1) == b""
            finally:
                sock.close()
        stats = bare_server.stats()
        assert (stats["dropped_responses"], stats["handshakes"]) == (1, 0)

    def test_dropped_response_keeps_the_connection(self, bare_server):
        schedule = faults.FaultSchedule.parse("drop_response@send")
        with faults.armed(schedule):
            sock = _connect(bare_server)
            try:
                assert _handshake(sock)["type"] == "welcome"
                sock.sendall(encode_frame({"type": "ping", "id": "lost"}))
                sock.sendall(encode_frame({"type": "ping", "id": "kept"}))
                assert _recv_frame(sock) == {"type": "pong", "id": "kept"}
            finally:
                sock.close()
        assert bare_server.stats()["dropped_responses"] == 1

    def test_torn_welcome_aborts_the_connection(self, bare_server):
        schedule = faults.FaultSchedule.parse("torn_frame@handshake")
        with faults.armed(schedule):
            sock = _connect(bare_server)
            try:
                sock.sendall(self.HELLO)
                with pytest.raises((ConnectionError, AssertionError)):
                    _recv_frame(sock)
            finally:
                sock.close()
        stats = bare_server.stats()
        assert (stats["aborted"], stats["handshakes"]) == (1, 0)

    def test_delayed_handshake_still_welcomes(self, bare_server, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(
            transport,
            "time",
            SimpleNamespace(
                monotonic=time.monotonic,
                perf_counter=time.perf_counter,
                sleep=slept.append,
            ),
        )
        schedule = faults.FaultSchedule.parse("delay@handshake")
        with faults.armed(schedule):
            sock = _connect(bare_server)
            try:
                assert _handshake(sock)["type"] == "welcome"
            finally:
                sock.close()
        assert slept == [faults.DELAY_SECONDS]


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
        with PlanClient(
            host,
            port,
            jobs={served.tenant: served.workload},
            solver_config=SOLVER_CONFIG,
        ) as client:
            first = client.plan(served.tenant, lengths)
            second = client.plan(served.tenant, lengths)
            assert client.stats()["served"] == 2
            assert client.stats()["degraded"] == 0
        assert first.source in ("solved", "warm")
        assert second.source == "warm"
        assert_bit_equal(first.plan, second.plan)
        cold = FlexSPSolver(_cold_model(served.workload), SOLVER_CONFIG)
        assert_bit_equal(cold.solve(lengths), first.plan)

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
        service = PlanService(solver_config=SOLVER_CONFIG, worker_threads=1)
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
        cold = FlexSPSolver(_cold_model(workload), SOLVER_CONFIG)
        assert_bit_equal(cold.solve(lengths), plan.plan)

    def test_shed_verdict_replayed_not_double_counted(self):
        """A shed verdict is final per request id: a retry replays it
        from the idempotency window, so the deterministic shed
        accounting cannot be flipped (or double-counted) by a lost
        response."""
        workload = small_workload(GITHUB, seed=4)
        service = PlanService(
            solver_config=SOLVER_CONFIG,
            autostart=False,
            max_pending_per_tenant=1,
            worker_threads=1,
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
        service = PlanService(
            solver_config=SOLVER_CONFIG, autostart=False, worker_threads=1
        )
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

    def test_idempotency_window_forgets_least_recent_first(
        self, monkeypatch
    ):
        """The server remembers its last ``_MAX_REMEMBERED`` answers,
        least recently used out first: a retry inside the window
        replays, one that fell out of it is submitted again."""
        monkeypatch.setattr(transport, "_MAX_REMEMBERED", 2)
        workload = small_workload(GITHUB, seed=12)
        service = PlanService(solver_config=SOLVER_CONFIG, worker_threads=1)
        tenant = service.register(workload)
        lengths = list(batch_lengths(workload, 0))
        with PlanServer(service, owns_service=True) as server:
            sock = _connect(server)
            try:
                _handshake(sock)
                for rid in ("a", "b", "c", "c", "a"):
                    sock.sendall(
                        encode_frame(
                            {
                                "type": "plan",
                                "id": rid,
                                "tenant": tenant,
                                "lengths": lengths,
                            }
                        )
                    )
                    reply = _recv_frame(sock)
                    assert (reply["type"], reply["id"]) == ("plan", rid)
            finally:
                sock.close()
            stats = server.stats()
        # "c" replayed from the window; "a", evicted by "c", went to
        # the service again (and answered warm).
        assert stats["replayed"] == 1
        assert stats["requests"] == 4
        assert service.stats()["solved"] == 1

    def test_server_caps_each_wait_at_its_result_timeout(self, monkeypatch):
        """A request without a deadline of its own still waits at most
        ``_RESULT_TIMEOUT`` for its solve."""
        monkeypatch.setattr(transport, "_RESULT_TIMEOUT", 0.15)
        workload = small_workload(GITHUB, seed=13)
        service = PlanService(
            solver_config=SOLVER_CONFIG, autostart=False, worker_threads=1
        )
        tenant = service.register(workload)
        with PlanServer(service, owns_service=True) as server:
            sock = _connect(server)
            try:
                _handshake(sock)
                frame = {
                    "type": "plan",
                    "id": "rid-cap",
                    "tenant": tenant,
                    "lengths": list(batch_lengths(workload, 0)),
                }
                sock.sendall(encode_frame(frame))
                expired = _recv_frame(sock)
            finally:
                sock.close()
            service.start()
        assert expired["error"] == "deadline"
        assert "0.150s" in expired["message"]

    def test_coalesced_over_tcp(self):
        """Two clients, same shape, paused service: one solve serves
        both, bit-equal, via the service's in-flight map."""
        workload = small_workload(GITHUB, seed=6)
        service = PlanService(
            solver_config=SOLVER_CONFIG, autostart=False, worker_threads=2
        )
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
            solver_config=SOLVER_CONFIG,
            autostart=False,
            max_pending_per_tenant=1,
            worker_threads=1,
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


class TestSettings:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"io_timeout": 0.0},
            {"retries": -1},
            {"backoff_base": 0.0},
            {"backoff_base": 2 * transport._BACKOFF_CAP},
        ],
        ids=[
            "deadline",
            "io-timeout",
            "retries",
            "backoff-zero",
            "backoff-over-cap",
        ],
    )
    def test_client_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            PlanClient("127.0.0.1", 1, **kwargs)

    @staticmethod
    def _backoffs(monkeypatch, seed: int, budget: float) -> list[float]:
        """The sleeps of eight consecutive retries of one client."""
        slept: list[float] = []
        monkeypatch.setattr(
            transport,
            "time",
            SimpleNamespace(
                monotonic=time.monotonic,
                perf_counter=time.perf_counter,
                sleep=slept.append,
            ),
        )
        client = PlanClient("127.0.0.1", 1, backoff_base=0.1, seed=seed)
        deadline_at = time.monotonic() + budget
        for attempt in range(1, 9):
            client._backoff(attempt, deadline_at)
        return slept

    def test_backoff_doubles_to_the_cap_with_seeded_jitter(self, monkeypatch):
        first = self._backoffs(monkeypatch, seed=7, budget=3600.0)
        assert first == self._backoffs(monkeypatch, seed=7, budget=3600.0)
        assert first != self._backoffs(monkeypatch, seed=8, budget=3600.0)
        for attempt, delay in enumerate(first, start=1):
            envelope = min(transport._BACKOFF_CAP, 0.1 * 2 ** (attempt - 1))
            assert 0.5 * envelope <= delay < 1.5 * envelope

    def test_backoff_never_sleeps_past_the_deadline(self, monkeypatch):
        slept = self._backoffs(monkeypatch, seed=7, budget=0.05)
        assert slept and all(delay <= 0.05 for delay in slept)


class TestClientFrameChecks:
    """The client reads frames through the server's decoder: a bad
    welcome is a retryable transport failure."""

    @pytest.mark.parametrize(
        "reply",
        [
            struct.pack(">I", 0),
            struct.pack(">I", MAX_FRAME_BYTES + 1),
            struct.pack(">I", 5) + b"nojso",
            struct.pack(">I", 2) + b"\xff\xfe",
            encode_frame([1, 2]),
        ],
        ids=["zero-length", "over-cap", "not-json", "not-utf8", "json-array"],
    )
    def test_bad_welcome_is_retried_then_fails(self, reply):
        with _answering_hello_with(reply) as (host, port):
            client = PlanClient(host, port, retries=1, backoff_base=0.01)
            with client:
                with pytest.raises(PlanDeadlineExceeded):
                    client.plan("anyone", (1024,))
        stats = client.stats()
        assert stats["retries"] == 2
        assert stats["connects"] == 0


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
            solver_config=SOLVER_CONFIG,
            retries=1,
            backoff_base=0.01,
            io_timeout=0.5,
        )
        with client:
            plan = client.plan("solo", lengths)
            assert client.stats()["degraded"] == 1
            assert plan.source in ("solved", "warm")
        cold = FlexSPSolver(_cold_model(workload), SOLVER_CONFIG)
        assert_bit_equal(cold.solve(lengths), plan.plan)
        # The private fallback service released its pools on close().
        assert live_pool_count() == baseline_pools


class TestDrainAndLeaks:
    def test_graceful_drain_releases_everything(self):
        baseline_pools = live_pool_count()
        baseline_threads = set(threading.enumerate())
        workload = small_workload(GITHUB, seed=9)
        service = PlanService(solver_config=SOLVER_CONFIG, worker_threads=1)
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
        service = PlanService(solver_config=SOLVER_CONFIG, worker_threads=1)
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

    def test_idle_connection_hung_up_after_idle_timeout(self, monkeypatch):
        monkeypatch.setattr(transport, "_IDLE_TIMEOUT", 0.3)
        workload = small_workload(GITHUB, seed=14)
        service = PlanService(solver_config=SOLVER_CONFIG, worker_threads=1)
        service.register(workload)
        with PlanServer(service, owns_service=True) as server:
            sock = _connect(server)
            try:
                _handshake(sock)
                # Idle past the timeout: the server closes its end
                # without a frame.
                assert sock.recv(1) == b""
            finally:
                sock.close()
            deadline = time.monotonic() + 5.0
            while server.live_connections():
                assert time.monotonic() < deadline
                time.sleep(0.01)

    def test_excess_connections_refused_not_queued(self, monkeypatch):
        monkeypatch.setattr(transport, "_MAX_CONNECTIONS", 1)
        workload = small_workload(GITHUB, seed=11)
        service = PlanService(solver_config=SOLVER_CONFIG, worker_threads=1)
        service.register(workload)
        with PlanServer(service, owns_service=True) as server:
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
