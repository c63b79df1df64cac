"""TCP front-end: RBF1 frames in both directions, from the first byte.

Every message is one length-prefixed frame from
:mod:`repro.runtime.codec` — the same framing the worker fabric uses —
so images and logits travel as raw ndarray buffers, and the JSON header
is all a non-Python client has to parse.

An inference request carries the image as a raw ``image`` array (the
target deployment's ``(C, H, W)`` shape) plus optional serving knobs in
the payload — including ``deployment``, the registry name that routes a
request on a multi-model server, and ``key``, an idempotency key:
re-submitting the same key (a client retry after a dropped connection,
a duplicated frame) is answered from the server's result ledger instead
of executing again.  Control requests carry an ``op`` field::

    {"id": 7, "deployment": "fang:4", "key": "ab-3",
     "timeout_ms": 50, "priority": 2} + image   -> inference
    {"op": "metrics"}                        -> aggregate server metrics
    {"op": "metrics",
     "deployment": "fang:4"}                 -> one deployment's metrics
    {"op": "deployments"}                    -> registry listing
    {"op": "rollout", "alias": "prod",
     "to": "fang:8"}                         -> blue/green alias flip
    {"op": "ping"}                           -> liveness probe

Responses echo the client's ``id`` so clients may pipeline: every
connection handles its requests concurrently (each becomes a
``submit()`` into the shared :class:`~repro.serve.server.InferenceServer`,
so requests from many connections coalesce into the same micro-batches).
Failures answer as structured errors instead of tearing the connection
down::

    {"id": 7, "error": {"type": "RequestTimeoutError",
                        "message": "..."}}

so a timed-out or cancelled request propagates to the client as a typed
exception (:class:`~repro.errors.RequestTimeoutError`,
:class:`~repro.errors.BackpressureError`, :class:`~repro.errors.
ServeError`) rather than a hung connection.  Bytes that are not a valid
frame get one ``CodecError`` reply and a hang-up: a length-prefixed
stream has nothing to resynchronize on.

This transport is deliberately minimal — a measurement and demo surface,
not a hardened RPC layer; the in-process API is the primary interface.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.errors import (
    BackpressureError,
    CodecError,
    DeploymentError,
    ReplicaDivergenceError,
    ReproError,
    RequestTimeoutError,
    RolloutError,
    ServeError,
)
from repro.runtime.codec import (
    FRAME_MAGIC,
    FRAME_PREFIX_LEN,
    decode_frame,
    encode_frame,
    parse_frame_prefix,
)
from repro.runtime.remote import _backoff_delay
from repro.runtime.work import next_idempotency_key
from repro.serve.server import InferenceServer

__all__ = ["TcpClient", "start_tcp_server"]

#: Error types a structured reply can resurrect client-side; anything
#: else degrades to plain :class:`ServeError`.
_ERROR_TYPES = {
    "BackpressureError": BackpressureError,
    "DeploymentError": DeploymentError,
    "ReplicaDivergenceError": ReplicaDivergenceError,
    "RequestTimeoutError": RequestTimeoutError,
    "RolloutError": RolloutError,
}

#: Read-only (or naturally idempotent) control ops a disconnected client
#: may re-send without a key.
_IDEMPOTENT_OPS = frozenset({"ping", "metrics", "deployments",
                             "rollout", "telemetry", "traces"})


class _ConnectionLost(ServeError):
    """Client-side connection failure — retryable, unlike a structured
    error the server answered with."""


def _error_payload(error: Exception) -> dict:
    return {"type": type(error).__name__, "message": str(error)}


def _raise_remote_error(error) -> Exception:
    """Rebuild the typed exception from a structured (or legacy) error."""
    if isinstance(error, dict):
        cls = _ERROR_TYPES.get(error.get("type"), ServeError)
        return cls(error.get("message", "server error"))
    return ServeError(str(error))


async def _read_frame_async(reader: asyncio.StreamReader):
    """One frame off an asyncio stream; ``None`` on clean EOF.  The
    magic is checked as soon as it arrives (see
    :func:`repro.runtime.codec.read_frame`)."""
    try:
        magic = await reader.readexactly(len(FRAME_MAGIC))
    except asyncio.IncompleteReadError as error:
        if error.partial:
            raise CodecError("connection closed mid-frame") from None
        return None
    if magic != FRAME_MAGIC:
        raise CodecError(f"bad frame magic {magic!r}")
    try:
        header_len, body_len = parse_frame_prefix(
            magic + await reader.readexactly(
                FRAME_PREFIX_LEN - len(FRAME_MAGIC)))
        header = await reader.readexactly(header_len)
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError:
        raise CodecError("connection closed mid-frame") from None
    return decode_frame(header, body)


async def _handle_connection(server: InferenceServer,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             chaos=None) -> None:
    write_lock = asyncio.Lock()
    pending: set[asyncio.Task] = set()
    peer = str(writer.get_extra_info("peername"))

    async def respond(payload: dict, arrays: dict | None = None) -> None:
        async with write_lock:
            writer.write(encode_frame(payload, arrays))
            await writer.drain()

    async def serve_one(message: dict, in_arrays: dict) -> None:
        request_id = message.get("id")
        try:
            if message.get("op") == "ping":
                await respond({"id": request_id, "ok": True})
                return
            if message.get("op") == "metrics":
                snapshot = server.snapshot(
                    deployment=message.get("deployment"))
                await respond({"id": request_id,
                               "metrics": snapshot.to_dict()})
                return
            if message.get("op") == "deployments":
                await respond({"id": request_id,
                               "deployments": server.deployments()})
                return
            if message.get("op") == "telemetry":
                from repro.telemetry import get_registry
                await respond({"id": request_id,
                               "telemetry": get_registry().to_dict()})
                return
            if message.get("op") == "traces":
                from repro.telemetry import get_tracer
                recorder = get_tracer().recorder
                limit = int(message.get("limit", 16))
                await respond({"id": request_id,
                               "traces": recorder.traces(limit=limit),
                               "events": recorder.events(limit=64)})
                return
            if message.get("op") == "rollout":
                outcome = await server.rollout(
                    str(message.get("alias")), str(message.get("to")),
                    drain=bool(message.get("drain", True)))
                await respond({"id": request_id, "rollout": outcome})
                return
            image = in_arrays.get("image")
            if image is None:
                raise ServeError(
                    "request needs an 'image' array or a known 'op'")
            timeout_ms = message.get("timeout_ms")
            key = message.get("key")
            result = await server.submit(
                image,
                timeout_ms=(float(timeout_ms) if timeout_ms is not None
                            else None),
                priority=int(message.get("priority", 0)),
                deployment=message.get("deployment"),
                key=(str(key) if key is not None else None),
                trace=message.get("trace"))
            payload = result.to_dict()
            payload["id"] = request_id
            payload.pop("logits", None)
            await respond(payload, {"logits": np.asarray(result.logits)})
        except (ReproError, ValueError, TypeError) as error:
            # TypeError covers malformed knobs (a non-numeric priority):
            # every failure must answer, or a pipelining client waits
            # on this id forever.  The structured payload
            # carries the exception type, so timeouts and backpressure
            # resurface client-side as the same typed errors.
            await respond({"id": request_id,
                           "error": _error_payload(error)})

    try:
        while True:
            # No delimiter to resync on: bytes that are not a valid
            # frame answer once and hang up.
            try:
                frame = await _read_frame_async(reader)
            except CodecError as error:
                await respond({"id": None,
                               "error": _error_payload(error)})
                break
            if frame is None:
                break
            message, in_arrays = frame
            task = asyncio.create_task(serve_one(message, in_arrays))
            pending.add(task)
            task.add_done_callback(pending.discard)
            if chaos is not None and chaos.server_hangup(peer):
                # Hang up mid-conversation: in-flight requests on this
                # connection die unanswered and the client's reconnect /
                # re-submission machinery has to recover them.
                break
    finally:
        for task in pending:
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_tcp_server(
    server: InferenceServer,
    host: str = "127.0.0.1",
    port: int = 0,
    chaos=None,
) -> tuple[asyncio.AbstractServer, int]:
    """Expose a running :class:`InferenceServer` over TCP.

    ``port=0`` binds an ephemeral port; the bound port is returned so
    callers (and tests) can hand it to clients.  ``chaos`` (a
    :class:`~repro.runtime.ChaosPolicy`) makes the transport hang
    connections up per its ``server_hangup`` schedule — the fault drill
    for client reconnects.
    """
    if not server.running:
        raise ServeError("start the InferenceServer before the transport")
    tcp = await asyncio.start_server(
        lambda r, w: _handle_connection(server, r, w, chaos=chaos),
        host, port)
    bound_port = tcp.sockets[0].getsockname()[1]
    return tcp, bound_port


class TcpClient:
    """Pipelining frame client for :func:`start_tcp_server`.

    ``infer`` may be called concurrently from many tasks: requests are
    matched to responses by id, so in-flight requests overlap — which is
    exactly what lets a single client drive the server's coalescing.

    ``retries`` (default 0: historical fail-fast behavior) turns on
    reconnect-and-resubmit: a request that dies with the connection is
    re-sent — after a jittered exponential backoff and a fresh
    ``connect`` — up to ``retries`` extra times.  Only *safe* requests
    retry: inferences (every ``infer`` carries an idempotency ``key``,
    so a re-send the server already executed is answered from its
    result ledger, never run twice) and idempotent control ops; a
    structured error the server answered with is never retried.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 retries: int = 0,
                 retry_base_s: float = 0.05, retry_cap_s: float = 2.0,
                 chaos=None) -> None:
        if retries < 0:
            raise ServeError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.retries = int(retries)
        self.retry_base_s = retry_base_s
        self.retry_cap_s = retry_cap_s
        #: Optional ChaosPolicy: outbound frames consult ``frame_fate``
        #: (drop / dup / delay) — the client-side fault drill.
        self.chaos = chaos
        self.reconnects = 0   # successful re-connections
        self.resends = 0      # requests re-submitted after a drop
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._write_lock = asyncio.Lock()
        self._connect_lock = asyncio.Lock()
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0

    async def connect(self) -> "TcpClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        self._reader_task = asyncio.create_task(self._read_loop())
        return self

    async def __aenter__(self) -> "TcpClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await _read_frame_async(self._reader)
                if frame is None:
                    break
                payload, arrays = frame
                for name, array in arrays.items():
                    payload[name] = array.tolist()
                future = self._pending.pop(payload.get("id"), None)
                if future is not None and not future.done():
                    if "error" in payload:
                        future.set_exception(
                            _raise_remote_error(payload["error"]))
                    else:
                        future.set_result(payload)
        except (CodecError, ConnectionError, OSError):
            pass  # fall through: every pending request fails below
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        _ConnectionLost("connection closed mid-request"))
            self._pending.clear()

    async def _ensure_connected(self) -> None:
        """Reconnect if the read loop died; concurrent retriers share
        one reconnection instead of racing each other."""
        async with self._connect_lock:
            if (self._reader_task is not None
                    and not self._reader_task.done()):
                return
            await self.close()
            await self.connect()
            self.reconnects += 1

    async def _request_once(self, payload: dict,
                            arrays: dict | None = None) -> dict:
        if self._writer is None:
            raise ServeError("client is not connected")
        request_id = self._next_id
        self._next_id += 1
        payload = dict(payload, id=request_id)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        # Register before checking liveness: either the read loop is
        # already done (we fail fast here) or its exit path will fail
        # this pending future — no window where a request can hang on a
        # dead connection.
        if self._reader_task is None or self._reader_task.done():
            self._pending.pop(request_id, None)
            raise _ConnectionLost("connection closed")
        data = encode_frame(payload, arrays)
        fate = (self.chaos.frame_fate(f"{self.host}:{self.port}")
                if self.chaos is not None else None)
        if fate == "drop":
            # The frame never reaches the wire; fail exactly like a cut
            # connection so the retry path (key in hand) recovers it.
            self._pending.pop(request_id, None)
            raise _ConnectionLost("outbound frame dropped (chaos)")
        if fate == "delay":
            await asyncio.sleep(self.chaos.delay_s)
        try:
            async with self._write_lock:
                self._writer.write(data)
                if fate == "dup":
                    # Same id, same key: the server answers both, the
                    # ledger guarantees it executed once; the second
                    # reply finds no pending future and is dropped.
                    self._writer.write(data)
                await self._writer.drain()
        except (ConnectionError, OSError) as error:
            self._pending.pop(request_id, None)
            raise _ConnectionLost(f"connection lost mid-send: "
                                  f"{error}") from None
        return await future

    async def _request(self, payload: dict,
                       arrays: dict | None = None) -> dict:
        """One request with the retry envelope around it.

        Connection-level failures (never structured server errors) are
        retried up to ``self.retries`` times, each attempt behind a
        jittered exponential backoff and a shared reconnect — but only
        for requests that are safe to re-send: keyed inferences and
        idempotent control ops.
        """
        safe = ("key" in payload
                or payload.get("op") in _IDEMPOTENT_OPS)
        attempts = 1 + (self.retries if safe else 0)
        last_error: Exception = ServeError("request never attempted")
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                await asyncio.sleep(_backoff_delay(
                    self.retry_base_s, attempt - 1, self.retry_cap_s))
                try:
                    await self._ensure_connected()
                except (ConnectionError, OSError) as error:
                    last_error = _ConnectionLost(
                        f"reconnect failed: {error}")
                    continue
                self.resends += 1
            try:
                return await self._request_once(payload, arrays)
            except _ConnectionLost as error:
                last_error = error
        raise last_error

    async def infer(self, image: np.ndarray,
                    timeout_ms: float | None = None,
                    priority: int = 0,
                    deployment: str | None = None,
                    key: str | None = None) -> dict:
        """One inference round-trip; returns the response payload.

        ``timeout_ms``/``priority`` ride to the server's batch policies;
        ``deployment`` routes to a named model on a multi-model server
        (an unknown name comes back as
        :class:`~repro.errors.DeploymentError`); a server-side timeout
        comes back as :class:`~repro.errors.RequestTimeoutError`.
        ``key`` is the request's idempotency key (auto-generated when
        omitted): it is what makes a reconnect re-send safe — the
        server's ledger answers a key it already completed instead of
        executing it again.

        With client-side tracing enabled (``repro.telemetry.configure``)
        every ``infer`` opens a ``client_infer`` root span and sends its
        context in the request's ``trace`` field, so the server's whole
        span tree hangs under the client's — one connected trace across
        the wire.
        """
        from repro.telemetry import get_tracer
        payload: dict = {"key": key if key is not None
                         else next_idempotency_key()}
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        if priority:
            payload["priority"] = int(priority)
        if deployment is not None:
            payload["deployment"] = deployment
        span = get_tracer().span(
            "client_infer",
            attrs={"target": f"{self.host}:{self.port}"})
        if span:
            payload["trace"] = span.context()
        try:
            reply = await self._request(
                payload, {"image": np.asarray(image, dtype=np.float64)})
        except Exception:
            span.finish(ok=False)
            raise
        span.finish()
        return reply

    async def rollout(self, alias: str, to: str,
                      drain: bool = True) -> dict:
        """Blue/green flip: point ``alias`` at deployment ``to``.

        Server-side this is atomic (no request sees a missing target);
        a refused flip (unknown target, name collision) comes back as
        :class:`~repro.errors.RolloutError`.
        """
        return (await self._request(
            {"op": "rollout", "alias": alias, "to": to,
             "drain": bool(drain)}))["rollout"]

    async def metrics(self, deployment: str | None = None) -> dict:
        payload = {"op": "metrics"}
        if deployment is not None:
            payload["deployment"] = deployment
        return (await self._request(payload))["metrics"]

    async def deployments(self) -> list[dict]:
        """The server's registry listing (name, backend, fingerprint)."""
        return (await self._request({"op": "deployments"}))["deployments"]

    async def telemetry(self) -> dict:
        """The server's unified metrics registry, as plain dicts."""
        return (await self._request({"op": "telemetry"}))["telemetry"]

    async def traces(self, limit: int = 16) -> dict:
        """Recent traces (grouped spans + rollups) and tracer events
        from the server's flight recorder."""
        reply = await self._request({"op": "traces", "limit": int(limit)})
        return {"traces": reply["traces"], "events": reply["events"]}

    async def ping(self) -> bool:
        return bool((await self._request({"op": "ping"})).get("ok"))

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
