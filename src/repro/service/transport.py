"""Hardened TCP transport for the planning service.

:class:`PlanServer` puts a registered :class:`PlanService` on the
network; :class:`PlanClient` is the trainer-side stub.  Together they
extend the planning-as-a-service front-end across a machine boundary
without weakening any of its contracts — every plan served over a
socket is still bit-identical to a cold
:class:`~repro.core.solver.FlexSPSolver` solve, and shed/coalesce
accounting stays deterministic even when the network misbehaves.

Wire protocol (version :data:`PROTOCOL_VERSION`):

* **Frames** are a 4-byte big-endian length prefix followed by one
  UTF-8 JSON object, at most :data:`MAX_FRAME_BYTES` long, written by
  :func:`encode_frame` through one shared JSON encoder.  Both ends read
  through a per-connection receive buffer: one ``recv(65536)`` takes
  whatever has arrived, so a frame whose header and body arrived
  together costs one read, and bytes past it wait for the next frame
  (they die with their connection).  Both ends check a frame with the
  same two functions: :func:`_frame_size` the prefix,
  :func:`_decode_frame` the body.  A frame that decodes but is
  not a JSON object gets a typed ``bad-frame`` error response and the
  connection survives; a frame whose *length prefix* is garbage is
  unrecoverable (the stream has lost sync) and the connection is
  closed after a final ``bad-frame`` error.  The client reads either
  as a retryable :class:`TransportError`.
* **Handshake**: the client opens with ``{"type": "hello",
  "protocol": 1}``; the server answers ``{"type": "welcome",
  "protocol": 1, "tenants": {name: digest}}`` where each digest is
  the tenant's workload-signature digest
  (:meth:`PlanService.workload_signatures`).  A protocol or signature
  mismatch raises :class:`HandshakeError` client-side — fail fast,
  never plan against the wrong cost model.
* **Requests**: ``{"type": "plan", "id": rid, "tenant": t,
  "lengths": [...], "deadline_ms": n}``.  Responses are either
  ``{"type": "plan", "id": rid, "source": ..., "plan": ...}`` (the
  plan serialised via :mod:`repro.core.serialization`) or
  ``{"type": "error", "id": rid, "error": code, "message": ...}``
  with codes ``shed`` / ``unknown-tenant`` / ``bad-request`` /
  ``bad-frame`` / ``protocol`` / ``deadline`` / ``closed`` /
  ``closing``.  ``{"type": "ping"}`` / ``{"type": "pong"}`` are the
  heartbeat.

Failure semantics — the reason this module exists:

* **Idempotent retries.**  Every request carries a client-unique id.
  The server records each completed response *before* sending it;  a
  retry after a lost response (``drop_response``, torn frame, reset)
  replays the recorded answer — one solve, never a double-solve, and
  a shed verdict replayed, never double-counted.  A retry that lands
  while the original flight is still solving coalesces onto it via
  the service's in-flight map.  Server-side ``deadline`` expiries are
  deliberately *not* recorded: the flight may still finish, and the
  retry then answers warm from the plan cache.
* **Deadline / retry / backoff ladder.**  Each client request has an
  absolute deadline; transport failures and server-side ``deadline``
  answers are retried under one bounded budget with seeded
  exponential backoff (deterministic jitter — a seeded client backs
  off identically on every run).  A client that exhausts its budget
  (or is told the server is closing) *degrades*: it builds an
  in-process :class:`PlanService` from its configured jobs and
  answers locally, counting the degradation — the campaign's
  recovery ladder applied to the network.
* **Graceful drain.**  :meth:`PlanServer.close` stops accepting, lets
  every in-flight request finish and be answered, tells idle
  connections ``closing`` (a connection between frames is idle, even
  with its next frame already buffered), then releases the service,
  its pools and every socket and thread (``live_pool_count`` returns
  to baseline).
* **Chaos.**  The server visits the :mod:`repro.core.faults` network
  sites (``accept`` / ``handshake`` / ``recv`` / ``send``) through
  :meth:`PlanServer._visit`, which absorbs ``delay`` (a stall) and
  returns any other fired kind.  That kind aborts the connection at
  ``accept`` and ``recv``; at ``handshake`` and ``send`` the one frame
  writer, :meth:`PlanServer._send_frame`, realises it — ``conn_reset``
  aborts with an RST, ``torn_frame`` writes half a frame then aborts,
  ``drop_response`` records but never sends (a dropped welcome ends
  the connection).  ``make bench-service-net`` sweeps the menu and
  asserts the bit-identity contract under every fault on it.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import sys
import threading
import time
import uuid
from collections import OrderedDict

from repro.core import faults
from repro.core.serialization import plan_from_dict, plan_to_dict
from repro.core.solver import SolverConfig
from repro.service.service import (
    PlanService,
    RequestShed,
    ServedPlan,
    ServiceClosed,
)

__all__ = [
    "HandshakeError",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "PlanClient",
    "PlanDeadlineExceeded",
    "PlanServer",
    "TransportError",
    "encode_frame",
]

#: Wire-protocol version; bumped on any incompatible frame change.
PROTOCOL_VERSION = 1

#: Hard cap on one frame's JSON payload (a plan for a 512-sequence
#: batch serialises to a few hundred KiB; 16 MiB is generous).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Poll granularity for interruptible socket reads — how quickly a
#: blocked handler notices a drain.
_POLL_SECONDS = 0.2

#: The server's listen backlog — the bounded accept queue.
_BACKLOG = 16

#: Connections the server admits at once; excess connects are refused
#: (aborted) rather than queued forever.
_MAX_CONNECTIONS = 32

#: The server's budget for finishing one read or write once started
#: (mid-frame reads, response sends).
_IO_TIMEOUT = 30.0

#: How long a server connection may sit idle between requests before
#: the server hangs up.
_IDLE_TIMEOUT = 300.0

#: Upper bound on the server's wait for one solve (a request's own
#: ``deadline_ms`` can only shorten it).
_RESULT_TIMEOUT = 600.0

#: The server's idempotency window: completed responses remembered
#: (LRU) for replay to retrying clients.
_MAX_REMEMBERED = 1024

#: Ceiling of the client's exponential backoff, in seconds.
_BACKOFF_CAP = 1.0

#: How long a degraded client waits for its in-process answer.
_FALLBACK_TIMEOUT = 600.0


class TransportError(RuntimeError):
    """A transport-level failure (reset, torn frame, timeout, refused
    connection) — retryable by the client's backoff ladder."""


class HandshakeError(RuntimeError):
    """Protocol-version or workload-signature mismatch — *not*
    retryable; the client and server disagree about the world."""


class PlanDeadlineExceeded(RuntimeError):
    """The request's deadline/retry budget ran out and no fallback
    jobs were configured for in-process degradation."""


#: The one frame encoder: ``json.dumps(payload, separators=(",", ":"),
#: sort_keys=True)`` builds an encoder like this on every call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_frame(payload: dict) -> bytes:
    """Serialise one frame: 4-byte big-endian length + UTF-8 JSON."""
    data = _ENCODER.encode(payload).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return struct.pack(">I", len(data)) + data


def _frame_size(buffer: bytes | bytearray) -> int:
    """The body length the 4-byte prefix at the start of ``buffer``
    announces; a ``ValueError`` outside ``(0, MAX_FRAME_BYTES]``."""
    (size,) = struct.unpack_from(">I", buffer)
    if size == 0 or size > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame length {size} outside (0, {MAX_FRAME_BYTES}]"
        )
    return size


def _decode_frame(buffer: bytearray, size: int) -> dict:
    """Take the frame of body length ``size`` off the front of
    ``buffer`` and return its JSON object; a ``ValueError`` (with the
    frame still taken) when the body is not one."""
    end = 4 + size
    body = buffer[4:end]
    del buffer[:end]
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError:  # bad UTF-8 or bad JSON
        raise ValueError("frame payload is not valid JSON") from None
    if not isinstance(payload, dict):
        raise ValueError("frame payload is not a JSON object")
    return payload


def _error(rid, code: str, message: str) -> dict:
    return {"type": "error", "id": rid, "error": code, "message": message}


def _abort_socket(sock: socket.socket) -> None:
    """Close with an RST (SO_LINGER 0) — how ``conn_reset`` is felt."""
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class PlanServer:
    """A TCP front-end over one :class:`PlanService`; the accept loop
    starts with the server.

    Args:
        service: The (already registered) service to expose.
        host / port: Bind address; port 0 binds an ephemeral port
            (read it back from :attr:`address`).
        owns_service: Close the service when the server closes.
    """

    def __init__(
        self,
        service: PlanService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        owns_service: bool = False,
    ) -> None:
        self.service = service
        self._owns_service = owns_service
        self._listener = socket.create_server((host, port), backlog=_BACKLOG)
        self._listener.settimeout(_POLL_SECONDS)
        self._host, self._port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._conns: dict[int, socket.socket] = {}
        self._handlers: dict[int, threading.Thread] = {}
        self._completed: OrderedDict[str, dict] = OrderedDict()
        self._next_token = 0
        self._draining = False
        self._stats = {
            "accepted": 0,
            "refused": 0,
            "handshakes": 0,
            "requests": 0,
            "replayed": 0,
            "dropped_responses": 0,
            "aborted": 0,
        }
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="plan-server-accept", daemon=True
        )
        self._accept_thread.start()

    # -- lifecycle ----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — what clients connect to."""
        return (self._host, self._port)

    def close(self, *, drain: bool = True) -> None:
        """Shut down the listener, the handlers and (when owned) the
        service.

        With ``drain`` (the default) in-flight requests are answered
        before their connections close and idle connections get a
        ``closing`` error; with ``drain=False`` every connection is
        aborted on the spot — the crash the chaos benchmark simulates.
        Idempotent; joins every thread it started.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
            handlers = list(self._handlers.values())
            conns = list(self._conns.values())
        try:
            self._listener.close()
        except OSError:
            pass
        if not drain:
            for conn in conns:
                _abort_socket(conn)
        self._accept_thread.join()
        if not drain and self._owns_service:
            # Crash-style: kill the engine first so handlers blocked
            # on tickets fail fast instead of finishing politely.
            self.service.close()
        for thread in handlers:
            thread.join()
        if drain and self._owns_service:
            self.service.close()

    def __enter__(self) -> "PlanServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def live_connections(self) -> int:
        """Connections currently admitted (leak probe for tests)."""
        with self._lock:
            return len(self._conns)

    def stats(self) -> dict:
        """Copy of the transport counters."""
        with self._lock:
            return dict(self._stats)

    # -- faults -------------------------------------------------------

    def _visit(self, site: str) -> str | None:
        """Visit the network fault site ``site``: stall when ``delay``
        fires, and return any other fired kind for the caller to
        realise."""
        fired = faults.maybe_inject(site)
        if fired == "delay":
            time.sleep(faults.DELAY_SECONDS)
            return None
        return fired

    def _abort(self, conn: socket.socket) -> bool:
        """Abort ``conn`` with an RST and count it; returns False, the
        connection being unusable."""
        with self._lock:
            self._stats["aborted"] += 1
        _abort_socket(conn)
        return False

    # -- accept loop --------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            with self._lock:
                if self._draining:
                    return
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            if self._visit("accept") is not None:
                # conn_reset (and any other kind at this site)
                # degenerates to aborting the fresh connection.
                self._abort(conn)
                continue
            with self._lock:
                if self._draining or len(self._conns) >= _MAX_CONNECTIONS:
                    self._stats["refused"] += 1
                    admitted = False
                else:
                    admitted = True
                    self._stats["accepted"] += 1
                    token = self._next_token
                    self._next_token += 1
                    thread = threading.Thread(
                        target=self._handle_connection,
                        args=(conn, token),
                        name=f"plan-server-conn-{token}",
                        daemon=True,
                    )
                    self._conns[token] = conn
                    self._handlers[token] = thread
            if not admitted:
                _abort_socket(conn)
                continue
            thread.start()

    # -- per-connection handler ---------------------------------------

    def _handle_connection(self, conn: socket.socket, token: int) -> None:
        # Bytes received past the frame being read; they die with the
        # connection.
        buffer = bytearray()
        try:
            conn.settimeout(_POLL_SECONDS)
            if not self._do_handshake(conn, buffer):
                return
            while True:
                if self._visit("recv") is not None:
                    self._abort(conn)
                    return
                status, value = self._recv_payload(
                    conn, buffer, timeout=_IDLE_TIMEOUT, drain_exits=True
                )
                if status == "eof":
                    return
                if status == "drain":
                    self._send_frame(
                        conn, _error(None, "closing", "server is draining")
                    )
                    return
                if status in ("fatal-frame", "soft-frame"):
                    sent = self._send_frame(
                        conn, _error(None, "bad-frame", value)
                    )
                    # A soft frame left the stream in sync; after a
                    # fatal one the connection ends.
                    if not sent or status == "fatal-frame":
                        return
                    continue
                response = self._dispatch(value)
                if not self._send_frame(conn, response, self._visit("send")):
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._conns.pop(token, None)
                self._handlers.pop(token, None)

    def _do_handshake(self, conn: socket.socket, buffer: bytearray) -> bool:
        status, hello = self._recv_payload(
            conn, buffer, timeout=_IO_TIMEOUT, drain_exits=True
        )
        if status != "ok":
            if status in ("fatal-frame", "soft-frame"):
                self._send_frame(conn, _error(None, "bad-frame", hello))
            return False
        fired = self._visit("handshake")
        if fired == "conn_reset":
            return self._abort(conn)
        if (
            hello.get("type") != "hello"
            or hello.get("protocol") != PROTOCOL_VERSION
        ):
            self._send_frame(
                conn,
                _error(
                    None,
                    "protocol",
                    f"expected hello with protocol {PROTOCOL_VERSION}, "
                    f"got {hello!r}",
                ),
            )
            return False
        welcome = {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "tenants": self.service.workload_signatures(),
        }
        # A client that never got its welcome sends no request, so a
        # dropped welcome ends the connection.
        if (
            not self._send_frame(conn, welcome, fired)
            or fired == "drop_response"
        ):
            return False
        with self._lock:
            self._stats["handshakes"] += 1
        return True

    def _dispatch(self, msg: dict) -> dict:
        """The response to one request frame."""
        mtype = msg.get("type")
        if mtype == "ping":
            return {"type": "pong", "id": msg.get("id")}
        if mtype == "plan":
            return self._handle_plan(msg)
        return _error(
            msg.get("id"), "bad-request", f"unknown frame type {mtype!r}"
        )

    def _handle_plan(self, msg: dict) -> dict:
        rid = msg.get("id")
        tenant = msg.get("tenant")
        lengths = msg.get("lengths")
        if (
            not isinstance(rid, str)
            or not isinstance(tenant, str)
            or not isinstance(lengths, list)
            or not lengths
            or not all(
                isinstance(v, int) and not isinstance(v, bool) and v > 0
                for v in lengths
            )
        ):
            return _error(
                rid if isinstance(rid, str) else None,
                "bad-request",
                "plan frame needs a string id, a string tenant and a "
                "non-empty list of positive integer lengths",
            )
        with self._lock:
            cached = self._completed.get(rid)
            if cached is not None:
                self._completed.move_to_end(rid)
                self._stats["replayed"] += 1
        if cached is not None:
            return cached
        deadline_ms = msg.get("deadline_ms")
        timeout = _RESULT_TIMEOUT
        if (
            isinstance(deadline_ms, (int, float))
            and not isinstance(deadline_ms, bool)
            and deadline_ms > 0
        ):
            timeout = min(timeout, deadline_ms / 1000.0)
        try:
            ticket = self.service.submit(tenant, tuple(lengths))
        except ServiceClosed:
            return _error(rid, "closed", "plan service is closed")
        except ValueError as error:
            code = (
                "unknown-tenant"
                if "unknown tenant" in str(error)
                else "bad-request"
            )
            return _error(rid, code, str(error))
        with self._lock:
            self._stats["requests"] += 1
        try:
            served = ticket.result(timeout=timeout)
            response = {
                "type": "plan",
                "id": rid,
                "source": served.source,
                "plan": plan_to_dict(served.plan),
            }
            self._remember(rid, response)
        except RequestShed as error:
            # A shed verdict is final for this request id: remember it
            # so a retry after a lost response replays the verdict
            # instead of re-submitting (which could double-count or,
            # worse, flip the deterministic shed accounting).
            response = _error(rid, "shed", str(error))
            self._remember(rid, response)
        except ServiceClosed as error:
            response = _error(rid, "closed", str(error))
        except TimeoutError:
            # NOT remembered: the flight may still finish, and a retry
            # then answers warm from the plan cache.
            response = _error(
                rid, "deadline", f"plan not ready within {timeout:.3f}s"
            )
        return response

    def _remember(self, rid: str, response: dict) -> None:
        with self._lock:
            self._completed[rid] = response
            self._completed.move_to_end(rid)
            while len(self._completed) > _MAX_REMEMBERED:
                self._completed.popitem(last=False)

    # -- framed I/O ---------------------------------------------------

    def _send_frame(
        self, conn: socket.socket, payload: dict, fired: str | None = None
    ) -> bool:
        """Write one frame, realising the fault kind ``fired`` (a
        ``handshake`` or ``send`` visit's); returns whether the
        connection is still usable."""
        if fired == "drop_response":
            with self._lock:
                self._stats["dropped_responses"] += 1
            return True
        if fired == "conn_reset":
            return self._abort(conn)
        try:
            data = encode_frame(payload)
            conn.settimeout(_IO_TIMEOUT)
            if fired == "torn_frame":
                conn.sendall(data[: max(1, len(data) // 2)])
                return self._abort(conn)
            conn.sendall(data)
            conn.settimeout(_POLL_SECONDS)
        except OSError:
            return False
        return True

    def _recv_payload(
        self,
        conn: socket.socket,
        buffer: bytearray,
        *,
        timeout: float,
        drain_exits: bool,
    ):
        """Read one frame through the connection's receive ``buffer``.
        Returns ``(status, value)`` where status is ``ok`` (value:
        payload dict), ``eof`` (peer gone / timed out), ``drain``
        (server draining while the connection was between frames, even
        with the next frame already buffered), ``fatal-frame`` (framing
        lost sync; value: message) or ``soft-frame`` (intact framing,
        bad JSON; value: message)."""
        if not self._fill(
            conn, buffer, 4, timeout=timeout, drain_exits=drain_exits
        ):
            with self._lock:
                draining = self._draining
            return ("drain" if drain_exits and draining else "eof", None)
        try:
            size = _frame_size(buffer)
        except ValueError as error:
            return ("fatal-frame", str(error))
        if not self._fill(
            conn, buffer, 4 + size, timeout=_IO_TIMEOUT, drain_exits=False
        ):
            return ("eof", None)
        try:
            return ("ok", _decode_frame(buffer, size))
        except ValueError as error:
            return ("soft-frame", str(error))

    def _fill(
        self,
        conn: socket.socket,
        buffer: bytearray,
        size: int,
        *,
        timeout: float,
        drain_exits: bool,
    ) -> bool:
        """Receive until ``buffer`` holds ``size`` bytes, in
        ``_POLL_SECONDS`` slices so a blocked handler notices drains;
        one ``recv`` takes whatever has arrived, so a frame whose
        header and body came together costs one.  With
        ``drain_exits`` a drain stops the wait first, and then on each
        poll while no byte of the frame has arrived.  False means stop
        serving this connection (drain, EOF, reset, or the read budget
        ran out)."""
        if drain_exits:
            with self._lock:
                if self._draining:
                    return False
        deadline = time.monotonic() + timeout
        while len(buffer) < size:
            try:
                chunk = conn.recv(65536)
            except socket.timeout:
                if time.monotonic() >= deadline:
                    return False
                if drain_exits and not buffer:
                    with self._lock:
                        if self._draining:
                            return False
                continue
            except OSError:
                return False
            if not chunk:
                return False
            buffer += chunk
        return True


class PlanClient:
    """Trainer-side stub for a remote :class:`PlanServer`.

    Not thread-safe: one client per requesting thread (clients are
    cheap; the expensive state is server-side).

    Args:
        host / port: The server's address.
        jobs: Optional ``{name: Workload}`` map.  Enables (a) the
            handshake signature check — the client derives each
            workload's digest and refuses a server whose registered
            tenant differs — and (b) graceful degradation: when the
            deadline/retry budget is exhausted, a private in-process
            :class:`PlanService` is built lazily from these jobs and
            the request is answered locally (counted in
            ``stats()["degraded"]``).
        solver_config: Solver knobs for the degraded service.
        deadline: Default per-request wall-clock budget (seconds).
        io_timeout: Budget for one socket operation / response wait.
        retries: Transport-failure retry budget per request.
        backoff_base: First retry's backoff in seconds, doubling per
            retry up to ``_BACKOFF_CAP``.
        seed: Seeds the backoff jitter — a seeded client backs off
            identically on every run.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        jobs: dict | None = None,
        solver_config: SolverConfig | None = None,
        deadline: float = 30.0,
        io_timeout: float = 10.0,
        retries: int = 3,
        backoff_base: float = 0.05,
        seed: int = 0,
    ) -> None:
        if deadline <= 0 or io_timeout <= 0:
            raise ValueError("deadline and io_timeout must be positive")
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        if not 0 < backoff_base <= _BACKOFF_CAP:
            raise ValueError(
                f"backoff_base must be in (0, {_BACKOFF_CAP}], got "
                f"{backoff_base}"
            )
        self.host = host
        self.port = int(port)
        self.deadline = deadline
        self.io_timeout = io_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.solver_config = solver_config
        self._jobs = dict(jobs) if jobs else {}
        self._rng = random.Random(seed)
        self._session = uuid.uuid4().hex[:8]
        self._request_counter = 0
        self._sock: socket.socket | None = None
        #: Bytes received past the frame being read; cleared with the
        #: connection.
        self._buffer = bytearray()
        self._fallback: PlanService | None = None
        self._stats = {
            "requests": 0,
            "served": 0,
            "retries": 0,
            "connects": 0,
            "shed": 0,
            "degraded": 0,
            "failed": 0,
        }

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "PlanClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drop the connection and close the fallback service
        (idempotent)."""
        self._drop_connection()
        if self._fallback is not None:
            self._fallback.close()
            self._fallback = None

    def stats(self) -> dict:
        """Copy of the client counters (``reconnects`` derived)."""
        stats = dict(self._stats)
        stats["reconnects"] = max(0, stats["connects"] - 1)
        return stats

    # -- requests -----------------------------------------------------

    def plan(
        self,
        tenant: str,
        lengths,
        *,
        deadline: float | None = None,
    ) -> ServedPlan:
        """Request one plan; blocks until answered, shed, or failed.

        Raises :class:`RequestShed` on an admission-control shed,
        ``ValueError`` on an unknown tenant, :class:`HandshakeError`
        on a protocol/signature mismatch, :class:`TransportError` if
        the server rejected the request as malformed, and
        :class:`PlanDeadlineExceeded` when the deadline/retry budget
        is exhausted with no fallback jobs configured.
        """
        if type(lengths) is not tuple or any(
            type(value) is not int for value in lengths
        ):
            lengths = tuple(int(value) for value in lengths)
        budget = self.deadline if deadline is None else float(deadline)
        if budget <= 0:
            raise ValueError(f"deadline must be positive, got {budget}")
        deadline_at = time.monotonic() + budget
        started = time.perf_counter()
        rid = f"{self._session}-{self._request_counter}"
        self._request_counter += 1
        self._stats["requests"] += 1
        attempt = 0
        while True:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                return self._degrade(
                    tenant, lengths, started, reason="deadline exhausted"
                )
            try:
                self._ensure_connected(remaining)
                self._send_frame(
                    {
                        "type": "plan",
                        "id": rid,
                        "tenant": tenant,
                        "lengths": list(lengths),
                        "deadline_ms": max(1, int(remaining * 1000)),
                    }
                )
                response = self._await_response(
                    rid,
                    min(deadline_at, time.monotonic() + self.io_timeout),
                )
            except HandshakeError:
                self._drop_connection()
                raise
            except TransportError:
                self._drop_connection()
            else:
                if response.get("type") == "plan":
                    # The plan shares the request's tuple and length
                    # ints, and the source string is interned: a caller
                    # keeping many served plans holds one copy of each.
                    plan = plan_from_dict(response["plan"], lengths)
                    self._stats["served"] += 1
                    return ServedPlan(
                        tenant=tenant,
                        lengths=lengths,
                        plan=plan,
                        source=sys.intern(
                            str(response.get("source", "solved"))
                        ),
                        latency_seconds=time.perf_counter() - started,
                    )
                code = (
                    response.get("error")
                    if response.get("type") == "error"
                    else None
                )
                message = str(response.get("message", response))
                if code == "shed":
                    self._stats["shed"] += 1
                    raise RequestShed(message)
                if code == "unknown-tenant":
                    raise ValueError(message)
                if code in ("bad-request", "bad-frame", "protocol"):
                    raise TransportError(
                        f"server rejected request ({code}): {message}"
                    )
                if code in ("closed", "closing"):
                    self._drop_connection()
                    return self._degrade(
                        tenant, lengths, started, reason=f"server {code}"
                    )
            # A transport failure, a "deadline" answer (server-side
            # expiry) or an unexpected frame: retry — the flight may
            # now be warm in the plan cache.
            attempt += 1
            self._stats["retries"] += 1
            if attempt > self.retries:
                return self._degrade(
                    tenant, lengths, started, reason="retry budget exhausted"
                )
            self._backoff(attempt, deadline_at)

    def ping(self, timeout: float = 5.0) -> float:
        """Round-trip one heartbeat; returns the RTT in seconds."""
        deadline_at = time.monotonic() + timeout
        try:
            self._ensure_connected(timeout)
            started = time.perf_counter()
            self._send_frame({"type": "ping", "id": None})
            while True:
                frame = self._recv_frame(deadline_at)
                if frame.get("type") == "pong":
                    return time.perf_counter() - started
        except TransportError:
            self._drop_connection()
            raise

    # -- connection management ----------------------------------------

    def _ensure_connected(self, timeout: float) -> None:
        if self._sock is not None:
            return
        try:
            sock = socket.create_connection(
                (self.host, self.port),
                timeout=max(0.1, min(timeout, self.io_timeout)),
            )
        except OSError as exc:
            raise TransportError(f"connect failed: {exc}") from exc
        self._sock = sock
        try:
            sock.settimeout(self.io_timeout)
            sock.sendall(
                encode_frame({"type": "hello", "protocol": PROTOCOL_VERSION})
            )
            welcome = self._recv_frame(
                time.monotonic() + min(timeout, self.io_timeout)
            )
            if welcome.get("type") == "error":
                raise HandshakeError(str(welcome.get("message", welcome)))
            if (
                welcome.get("type") != "welcome"
                or welcome.get("protocol") != PROTOCOL_VERSION
            ):
                raise HandshakeError(
                    f"unexpected handshake reply: {welcome!r}"
                )
            self._verify_signatures(welcome.get("tenants") or {})
        except OSError as exc:
            self._drop_connection()
            raise TransportError(f"handshake failed: {exc}") from exc
        except BaseException:
            self._drop_connection()
            raise
        self._stats["connects"] += 1

    def _verify_signatures(self, tenants: dict) -> None:
        if not self._jobs:
            return
        from repro.core.cache_store import signature_digest
        from repro.experiments.sweep import workload_signature

        for name, workload in self._jobs.items():
            remote = tenants.get(name)
            if remote is None:
                continue
            digest = signature_digest(workload_signature(workload))
            if remote != digest:
                raise HandshakeError(
                    f"tenant {name!r} workload-signature mismatch: server "
                    f"registered {remote}, client derived {digest}"
                )

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        self._buffer.clear()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _backoff(self, attempt: int, deadline_at: float) -> None:
        delay = min(_BACKOFF_CAP, self.backoff_base * (2 ** (attempt - 1)))
        delay *= 0.5 + self._rng.random()
        delay = min(delay, max(0.0, deadline_at - time.monotonic()))
        if delay > 0:
            time.sleep(delay)

    # -- framed I/O ---------------------------------------------------

    def _send_frame(self, payload: dict) -> None:
        assert self._sock is not None
        try:
            self._sock.settimeout(self.io_timeout)
            self._sock.sendall(encode_frame(payload))
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def _await_response(self, rid: str, deadline_at: float) -> dict:
        while True:
            frame = self._recv_frame(deadline_at)
            if frame.get("type") == "pong":
                continue
            fid = frame.get("id")
            if fid is not None and fid != rid:
                continue  # stale answer from an abandoned request
            return frame

    def _recv_frame(self, deadline_at: float) -> dict:
        buffer = self._buffer
        try:
            self._fill(4, deadline_at)
            size = _frame_size(buffer)
            self._fill(4 + size, deadline_at)
            return _decode_frame(buffer, size)
        except ValueError as exc:
            raise TransportError(f"bad frame from the server: {exc}") from exc

    def _fill(self, size: int, deadline_at: float) -> None:
        """Receive until the connection's buffer holds ``size`` bytes;
        one ``recv`` takes whatever has arrived, so a frame whose
        header and body came together costs one."""
        assert self._sock is not None
        buffer = self._buffer
        while len(buffer) < size:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise TransportError("timed out waiting for the server")
            self._sock.settimeout(min(self.io_timeout, remaining))
            try:
                chunk = self._sock.recv(65536)
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            if not chunk:
                raise TransportError("server closed the connection")
            buffer += chunk

    # -- degradation --------------------------------------------------

    def _fallback_service(self) -> PlanService | None:
        if self._fallback is not None:
            return self._fallback
        if not self._jobs:
            return None
        service = PlanService(
            solver_config=self.solver_config, worker_threads=1
        )
        try:
            for name, workload in self._jobs.items():
                service.register(workload, name=name)
        except BaseException:
            service.close()
            raise
        self._fallback = service
        return service

    def _degrade(
        self,
        tenant: str,
        lengths: tuple[int, ...],
        started: float,
        reason: str,
    ) -> ServedPlan:
        """Last rung of the ladder: answer from a private in-process
        service built from the configured jobs."""
        service = self._fallback_service()
        if service is None:
            self._stats["failed"] += 1
            raise PlanDeadlineExceeded(
                f"plan for tenant {tenant!r} failed over TCP ({reason}) and "
                "no fallback jobs were configured for in-process degradation"
            )
        self._stats["degraded"] += 1
        ticket = service.submit(tenant, lengths)
        served = ticket.result(timeout=_FALLBACK_TIMEOUT)
        return ServedPlan(
            tenant=tenant,
            lengths=lengths,
            plan=served.plan,
            source=served.source,
            latency_seconds=time.perf_counter() - started,
        )
