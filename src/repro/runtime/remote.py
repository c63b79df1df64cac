"""Remote engine workers: the fabric over RBF1-framed TCP.

A host joins the fabric two ways:

* **Listen** — run ``repro worker --listen host:port``
  (:class:`WorkerServer`); a driver attaches a :class:`RemoteWorker`
  lane to it.
* **Join** — run ``repro worker --join host:port`` (:func:`join_fabric`)
  against a driver whose :class:`~repro.runtime.WorkerGroup` opened a
  :class:`GroupListener`: the connection is initiated *by the worker*,
  which then serves the same protocol over it.  This is how a lane
  enters a sweep or a serving pool **mid-run** — the listener admits the
  socket as a new lane via ``WorkerGroup.add_lane``.

Every message in both directions is one RBF1 frame
(:func:`repro.runtime.codec.encode_frame`), from the first byte of the
connection, join handshake included.  Requests are answered strictly in
order; the payloads (arrays ride as raw frame buffers)::

    {"op": "hello"}                        -> {"ok": true, "window": W,
                                               "pid": ...}
    {"op": "ping"}                         -> {"ok": true, "pid": ...}
    {"op": "deploy", "blob": "<b64>"}      -> {"ok": true, "deployments": N}
    {"op": "execute_many",
     "items": [{"item_id", "deployment"},
               ...]} + images:0, images:1  -> {"ok": true, "results": [...]}
                                              + logits:0, logits:1, ...

``hello`` advertises ``window``, the most chunks a driver may keep in
flight toward this host (``repro worker --window``).  ``execute_many``
carries one dispatch chunk of any size per frame.

Task-level failures answer ``{"ok": false, "error": {"type", "message"}}``
and keep the connection; a known type (``DeploymentError``,
``FabricAuthError``) is resurrected client-side as the same typed
exception.  Bytes that are not a valid frame get one ``CodecError``
reply and a hang-up: a length-prefixed stream has nothing to
resynchronize on.  Transport-level failures (closed socket, blown
timeout) surface as :class:`~repro.errors.WorkerCrashError` so the group
evicts the lane and requeues its work.

Results are bit-identical to a local run: images and logits cross the
wire as exact raw buffers, traces as integer counters.  The ``deploy``
blob is pickled — **only attach workers you trust, over networks you
trust**; this is a lab/cluster fabric, not a public API.  An optional
shared secret softens the caveat: a server started with a ``token``
rejects every payload that does not carry the matching auth proof
(:func:`~repro.runtime.codec.attach_token`) *before* unpickling
anything, and the join handshake is verified in both directions.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine.trace import TraceMerge
from repro.errors import (
    CodecError,
    DeploymentError,
    FabricAuthError,
    RemoteExecutionError,
    WorkerCrashError,
)
from repro.runtime.codec import (
    attach_token,
    check_token,
    decode_blob,
    encode_blob,
    encode_frame,
    read_frame,
)
from repro.runtime.work import (Deployment, WorkItem, WorkResult,
                                chunk_timeout_s, execute_item)
from repro.runtime.workers import Worker

__all__ = ["GroupListener", "JoinStats", "RemoteWorker", "WorkerServer",
           "join_fabric"]

#: Error types a structured worker reply resurrects client-side;
#: anything else degrades to :class:`RemoteExecutionError`.
_REMOTE_ERROR_TYPES = {
    "DeploymentError": DeploymentError,
    "FabricAuthError": FabricAuthError,
}


def _error_reply(error: Exception) -> dict:
    return {"ok": False,
            "error": {"type": type(error).__name__,
                      "message": str(error)}}


def _remote_error(reply: dict) -> Exception:
    """The typed exception a structured ``ok: false`` reply stands for."""
    error = reply.get("error") or {}
    cls = _REMOTE_ERROR_TYPES.get(error.get("type"), RemoteExecutionError)
    return cls(f"{error.get('type', 'Error')}: "
               f"{error.get('message', 'remote worker failure')}")


def _configure_socket(sock: socket.socket) -> None:
    """Keepalive so a host that vanished without a FIN/RST (power loss,
    partition) surfaces as an OSError in about a minute instead of
    blocking an untimed read forever; no Nagle delay, because every
    frame is written whole and a pipelined frame must not wait for the
    ACK of the one before it."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    for option, value in (("TCP_KEEPIDLE", 30),
                          ("TCP_KEEPINTVL", 10),
                          ("TCP_KEEPCNT", 3)):
        if hasattr(socket, option):
            sock.setsockopt(socket.IPPROTO_TCP,
                            getattr(socket, option), value)


# ----------------------------------------------------------------------
# Worker-side protocol core — shared by --listen and --join
# ----------------------------------------------------------------------
def _execute_many(deployments: list[Deployment], message: dict,
                  arrays: dict) -> tuple[dict, dict]:
    """One ``execute_many`` chunk -> ``(reply payload, reply arrays)``.

    Items fail one by one: a misrouted or malformed item answers its own
    error entry while its siblings' results still come back.
    """
    specs = message.get("items")
    if not isinstance(specs, list):
        raise ValueError("execute_many needs an 'items' list")
    results: list[dict] = []
    out: dict[str, np.ndarray] = {}
    for position, spec in enumerate(specs):
        try:
            images = arrays.get(f"images:{position}")
            if images is None:
                raise ValueError(f"item {position} carries no images")
            result = execute_item(deployments, WorkItem(
                item_id=int(spec["item_id"]),
                deployment=int(spec["deployment"]),
                images=images, trace=spec.get("trace")))
        except Exception as error:  # noqa: BLE001 — per-item failure
            results.append(_error_reply(error))
            continue
        results.append({
            "ok": True,
            "item_id": result.item_id,
            "traces": [t.to_dict() for t in result.image_traces],
            "elapsed_s": result.elapsed_s,
            "pid": result.pid,
            "spans": result.spans,
        })
        out[f"logits:{position}"] = result.logits
    return {"ok": True, "results": results}, out


def _handle_request(deployments: list[Deployment], message: dict,
                    arrays: dict, token: str | None,
                    window: int) -> tuple[dict, dict]:
    """One decoded request -> ``(reply payload, reply arrays)``.

    ``window`` is the in-flight chunk cap the hello reply advertises —
    how many pipelined chunks a driver may keep on the wire toward this
    host (``repro worker --window``; 1 forces stop-and-wait).
    """
    if not check_token(message, token):
        # Reject *before* touching any pickled blob the payload carries.
        raise FabricAuthError(
            "payload rejected: missing or invalid fabric token")
    op = message.get("op")
    if op == "hello":
        return {"ok": True, "pid": os.getpid(),
                "window": max(1, int(window))}, {}
    if op == "ping":
        return {"ok": True, "pid": os.getpid(),
                "deployments": len(deployments)}, {}
    if op == "deploy":
        table = decode_blob(message["blob"])
        deployments[:] = list(table)
        return {"ok": True, "deployments": len(deployments)}, {}
    if op == "execute_many":
        return _execute_many(deployments, message, arrays)
    raise ValueError(f"unknown op {op!r}")


def _serve_requests(conn: socket.socket, reader,
                    token: str | None = None,
                    chaos=None, lane: str = "conn",
                    window: int = 8) -> None:
    """Answer frames on one connection until the peer goes away.

    Every well-formed request must answer: an unpicklable blob, an
    unknown op or a bad token is a *task* failure on a healthy host —
    killing the connection would make the driver misread it as a lane
    crash and requeue the item elsewhere.  Bytes that are not a valid
    frame are the one exception: there is nothing to resynchronize on,
    so the server answers one ``CodecError`` and hangs up.  ``chaos`` is
    an optional :class:`~repro.runtime.chaos.ChaosPolicy` consulted
    after each answered request — a ``server_conn`` hangup fault closes
    the connection so the driver sees a vanished host.
    """
    deployments: list[Deployment] = []
    while True:
        try:
            decoded = read_frame(reader)
        except CodecError as error:
            try:
                conn.sendall(encode_frame(_error_reply(error)))
            except OSError:
                pass
            return
        if decoded is None:
            return
        message, arrays = decoded
        try:
            reply, out_arrays = _handle_request(
                deployments, message, arrays, token, window)
        except Exception as error:  # noqa: BLE001 — see docstring
            reply, out_arrays = _error_reply(error), {}
        conn.sendall(encode_frame(reply, out_arrays))
        if chaos is not None and chaos.server_hangup(lane):
            return  # injected hangup: the reply landed, then we vanish


# ----------------------------------------------------------------------
# Server side — what `repro worker --listen` runs
# ----------------------------------------------------------------------
class WorkerServer:
    """A TCP engine worker: accepts connections, executes work items.

    Engines are built lazily per deployment through the process-wide
    warm cache, so repeated sweeps against the same worker recompile
    nothing.  Each connection carries its own deployment table (drivers
    deploy right after connecting); one handler thread per connection
    keeps the protocol strictly request/response ordered.  With a
    ``token``, payloads without the matching auth proof are rejected
    before any blob is unpickled.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 token: str | None = None,
                 chaos=None,
                 window: int = 8) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.host = host
        self.port = port
        self.token = token
        #: In-flight chunk cap advertised in the hello reply: how many
        #: pipelined chunks a driver may keep on the wire toward this
        #: host (``repro worker --window``; 1 forces stop-and-wait).
        self.window = window
        #: Optional ChaosPolicy: injected server_conn hangups per reply.
        self.chaos = chaos
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        # Live handler threads and their sockets, pruned as connections
        # close — the worker is a long-lived daemon, so per-connection
        # state must not accumulate.  Guarded by _conn_lock (accept
        # thread adds, handlers remove, close() snapshots).
        self._handlers: set[threading.Thread] = set()
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._closing = threading.Event()

    @property
    def running(self) -> bool:
        return self._sock is not None

    def start(self) -> "WorkerServer":
        """Bind and begin accepting; ``port=0`` picks an ephemeral port."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen()
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-worker-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # socket closed by close()
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-worker-conn", daemon=True)
            with self._conn_lock:
                self._connections.add(conn)
                self._handlers.add(handler)
            handler.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("rb") as reader:
                _configure_socket(conn)
                _serve_requests(conn, reader, token=self.token,
                                chaos=self.chaos,
                                lane=f"{self.host}:{self.port}",
                                window=self.window)
        except (ConnectionError, OSError):
            pass  # peer vanished; nothing to answer
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
                self._handlers.discard(threading.current_thread())

    def close(self) -> None:
        self._closing.set()
        if self._sock is not None:
            # shutdown() before close(): closing an fd does NOT wake a
            # thread blocked in accept() on it (the kernel socket stays
            # in LISTEN and keeps taking connections); shutdown does.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        # Drop live connections too, so attached lanes observe the death
        # promptly (heartbeat probes must fail, not hang).
        with self._conn_lock:
            connections = list(self._connections)
            handlers = list(self._handlers)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
            self._accept_thread = None
        for handler in handlers:
            handler.join(timeout=1.0)


# ----------------------------------------------------------------------
# Joining side — what `repro worker --join` runs
# ----------------------------------------------------------------------
@dataclass
class JoinStats:
    """What a :func:`join_fabric` daemon did, surfaced to the caller."""

    attempts: int = 0        # dial attempts (successful or not)
    connects: int = 0        # handshakes that became serve sessions
    disconnects: int = 0     # sessions ended by the group going away

    def to_dict(self) -> dict:
        return {"attempts": self.attempts, "connects": self.connects,
                "disconnects": self.disconnects}


def _backoff_delay(base: float, streak: int, cap: float) -> float:
    """Jittered exponential backoff: ``base * 2^(streak-1)`` capped at
    ``cap``, scaled by a uniform jitter in [0.5, 1.0) so a fleet of
    daemons losing one driver does not re-dial in lockstep."""
    delay = min(cap, base * (2 ** min(max(streak - 1, 0), 16)))
    return delay * (0.5 + random.random() * 0.5)


def join_fabric(
    host: str,
    port: int,
    token: str | None = None,
    name: str | None = None,
    retry_s: float | None = None,
    stop_event: threading.Event | None = None,
    connect_timeout_s: float = 5.0,
    max_retry_s: float = 30.0,
    window: int = 8,
) -> JoinStats:
    """Connect out to a live group's :class:`GroupListener` and serve.

    The reverse of ``--listen``: the *worker* dials the driver, proves
    the shared ``token`` in a ``join`` hello (and verifies the group's
    counter-proof), and then answers deploy/execute requests over the
    same socket until the group goes away.  With ``retry_s`` the worker
    keeps re-dialing — before the listener exists and again after the
    group stops — so a fleet of ``repro worker --join`` daemons finds
    every run that opens a listener.  Consecutive failed dials back off
    exponentially from ``retry_s`` up to ``max_retry_s`` with jitter
    (see :func:`_backoff_delay`); a session that actually served resets
    the backoff, so a briefly-restarting driver is re-joined at the base
    delay while a gone-for-good one is probed ever more lazily.  A
    failed handshake raises :class:`~repro.errors.FabricAuthError`
    immediately (a wrong token never heals by retrying).  Returns a
    :class:`JoinStats` with dial/serve/disconnect counts once the loop
    exits.
    """
    worker_name = name or f"{socket.gethostname()}:{os.getpid()}"
    stats = JoinStats()
    streak = 0               # consecutive failures since the last serve
    while True:
        if stop_event is not None and stop_event.is_set():
            return stats
        stats.attempts += 1
        try:
            sock = socket.create_connection((host, port),
                                            timeout=connect_timeout_s)
        except OSError:
            if retry_s is None:
                raise WorkerCrashError(
                    f"cannot reach group listener {host}:{port} "
                    f"(attempt {stats.attempts})") from None
            streak += 1
            delay = _backoff_delay(retry_s, streak, max_retry_s)
            if stop_event is not None:
                if stop_event.wait(delay):
                    return stats
            else:
                time.sleep(delay)
            continue
        try:
            _configure_socket(sock)
            sock.settimeout(connect_timeout_s)
            sock.sendall(encode_frame(attach_token(
                {"op": "join", "name": worker_name,
                 "window": max(1, int(window))},
                token)))
            reader = sock.makefile("rb")
            try:
                decoded = read_frame(reader)
            except CodecError:
                decoded = None
            reply = decoded[0] if decoded else {}
            if not reply.get("ok") or not check_token(reply, token):
                error = (reply.get("error") or {}).get(
                    "message", "group refused the join handshake")
                raise FabricAuthError(error)
            sock.settimeout(None)
            stats.connects += 1
            streak = 0       # a real session: back to the base delay
            _serve_requests(sock, reader, window=window)
            # Clean EOF: the group hung up (run finished or driver
            # stopped) — counted the same as a mid-serve drop.
            stats.disconnects += 1
        except (ConnectionError, OSError):
            # The group went away MID-serve (reset, partition, driver
            # killed): record the disconnect and let the retry loop
            # decide — the explicit path the old silent fall-through
            # used to hide.
            stats.disconnects += 1
            streak += 1
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if retry_s is None:
            return stats
        delay = _backoff_delay(retry_s, streak, max_retry_s)
        if stop_event is not None:
            if stop_event.wait(delay):
                return stats
        else:
            time.sleep(delay)


class GroupListener:
    """Admits ``repro worker --join`` hosts into a live :class:`WorkerGroup`.

    Owned by whoever owns the group (the sweep driver's ``accept=``
    knob, or any caller): each accepted connection performs the join
    handshake (token checked both ways) and, on success, becomes a
    :class:`RemoteWorker` lane via ``group.add_lane`` — from that moment
    it is a full fabric citizen: it steals work, answers heartbeats, and
    its eviction requeues exactly like any other lane.
    """

    def __init__(self, group, host: str = "127.0.0.1", port: int = 0,
                 token: str | None = None,
                 handshake_timeout_s: float = 5.0) -> None:
        self.group = group
        self.host = host
        self.port = port
        self.token = token
        self.handshake_timeout_s = handshake_timeout_s
        self.joined: list[str] = []          # lane names, admission order
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._closing = threading.Event()

    @property
    def running(self) -> bool:
        return self._sock is not None

    def start(self) -> "GroupListener":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen()
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-group-listener",
            daemon=True)
        self._accept_thread.start()
        return self

    def __enter__(self) -> "GroupListener":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, peer = self._sock.accept()
            except OSError:
                return  # socket closed by close()
            try:
                self._admit(conn, peer)
            except Exception:  # noqa: BLE001 — a bad joiner must not
                # kill the accept loop; the group keeps running on its
                # existing lanes.
                try:
                    conn.close()
                except OSError:
                    pass

    def _admit(self, conn: socket.socket, peer) -> None:
        """Handshake one joiner and hand its socket to the group."""
        conn.settimeout(self.handshake_timeout_s)
        reader = conn.makefile("rb")
        try:
            decoded = read_frame(reader)
        except CodecError as error:
            conn.sendall(encode_frame(_error_reply(error)))
            reader.close()
            conn.close()
            return
        hello = decoded[0] if decoded else {}
        if hello.get("op") != "join" or not check_token(hello, self.token):
            conn.sendall(encode_frame(_error_reply(FabricAuthError(
                "join rejected: missing or invalid fabric token"))))
            reader.close()
            conn.close()
            return
        name = str(hello.get("name") or f"joined@{peer[0]}:{peer[1]}")
        conn.sendall(encode_frame(attach_token(
            {"ok": True, "name": name}, self.token)))
        conn.settimeout(None)
        _configure_socket(conn)
        worker = RemoteWorker.from_socket(conn, reader, name=name)
        # The joiner's hello caps the in-flight window toward it.
        advertised = hello.get("window")
        if advertised is not None:
            try:
                worker.pipeline_depth = max(
                    1, min(_MAX_REMOTE_WINDOW, int(advertised)))
            except (TypeError, ValueError):
                pass
        try:
            lane_name = self.group.add_lane(worker)
        except Exception:
            worker.close()
            raise
        self.joined.append(lane_name)

    def close(self) -> None:
        self._closing.set()
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
            self._accept_thread = None


# ----------------------------------------------------------------------
# Client side — the lane a WorkerGroup schedules onto
# ----------------------------------------------------------------------
#: Most chunks a remote lane keeps on the wire at once.  The server
#: answers strictly in order per connection, so this is purely a
#: client-side credit cap; the server's hello can lower it per lane.
_MAX_REMOTE_WINDOW = 8


@dataclass
class _RemoteFlight:
    """One chunk on the wire awaiting its (in-order) reply."""

    items: list
    spans: dict = field(default_factory=dict)
    deadline: float | None = None


class RemoteWorker(Worker):
    """One fabric lane backed by a :class:`WorkerServer` connection.

    The protocol answers requests strictly in send order on a
    connection, so the lane pipelines: :meth:`send_chunk` puts a chunk
    on the wire without waiting and :meth:`collect_chunk` reads the
    oldest outstanding reply — chunk N+1 is encoded and in flight while
    the server computes chunk N.  ``pipeline_depth`` starts at the
    client cap and is lowered to whatever the server's hello advertises.
    """

    kind = "remote"

    def __init__(self, host: str, port: int, name: str | None = None,
                 connect_timeout_s: float = 5.0,
                 token: str | None = None) -> None:
        super().__init__(name or f"remote@{host}:{port}")
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self.token = token
        self.pipeline_depth = _MAX_REMOTE_WINDOW
        self._sock: socket.socket | None = None
        self._reader = None
        self._outstanding: deque[_RemoteFlight] = deque()
        # Serializes the request/response exchange: the group's monitor
        # may ping while the dispatcher thread owns the socket.  The
        # condition lets a whole-exchange request (deploy) wait for the
        # in-flight window to drain — injecting one between a pipelined
        # send and its collect would desequence the strictly-ordered
        # replies.
        self._io_lock = threading.Lock()
        self._io_cond = threading.Condition(self._io_lock)

    @classmethod
    def from_socket(cls, sock: socket.socket, reader,
                    name: str) -> "RemoteWorker":
        """Wrap an already-connected socket (a joined host) as a lane.

        The peer initiated this connection, so the lane cannot re-dial
        it after a drop — ``restartable`` is False and probation is
        skipped; a recovered host simply joins again.
        """
        try:
            host, port = sock.getpeername()[:2]
        except OSError:
            host, port = "joined", 0
        worker = cls(host, int(port), name=name)
        worker._sock = sock
        worker._reader = reader
        worker.restartable = False
        return worker

    def start(self) -> None:
        if self._sock is not None:
            return  # pre-connected (joined) lane
        if not self.restartable:
            raise WorkerCrashError(
                f"worker {self.name!r} joined over its own connection "
                "and cannot be re-dialed")
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s)
            # A collect without a chunk deadline blocks in a read;
            # keepalive bounds how long a silently vanished host can
            # stall it (see _configure_socket).
            _configure_socket(self._sock)
            self._reader = self._sock.makefile("rb")
        except OSError as error:
            raise WorkerCrashError(
                f"cannot reach worker {self.host}:{self.port}: "
                f"{error}") from error
        # A fresh connection re-reads the window from the cap (the
        # previous server's advertisement died with the old socket).
        self.pipeline_depth = _MAX_REMOTE_WINDOW
        with self._io_lock:
            try:
                reply = self._request_locked(
                    {"op": "hello"}, timeout_s=self.connect_timeout_s)
            except FabricAuthError:
                # Keep the cap; the refusal resurfaces on ``deploy``,
                # where the group already knows how to degrade it.
                return
        # The server caps how many chunks may be in flight toward it
        # (``repro worker --window``).
        self.pipeline_depth = max(1, min(
            self.pipeline_depth, int(reply.get("window", 1))))

    def _request(self, payload: dict,
                 timeout_s: float | None = None) -> dict:
        with self._io_cond:
            # Replies are strictly ordered per connection: a full
            # exchange must wait until every pipelined chunk has been
            # collected, else its read would consume a chunk reply.
            # The timed wait doubles as a poll for close() clearing the
            # window without holding the lock.
            while self._outstanding:
                self._io_cond.wait(timeout=0.1)
            return self._request_locked(payload, timeout_s)

    def _sever_if_chaos(self) -> None:
        """Injected partition: drop the socket mid-protocol so the group
        sees the real dead-lane signature and evicts us — with a window
        open, every outstanding chunk dies with it."""
        if (self.chaos is not None
                and self.chaos.exchange_fate(self.name) == "sever"):
            self.close()
            raise WorkerCrashError(
                f"worker {self.name!r} connection severed (chaos)")

    def _read_reply_locked(self, timeout_s: float | None):
        """The next frame off the connection; caller holds ``_io_lock``.
        Any transport failure closes the lane as a crash."""
        try:
            self._sock.settimeout(timeout_s)
            decoded = read_frame(self._reader)
        except (OSError, ValueError, CodecError) as error:
            self.close()
            raise WorkerCrashError(
                f"worker {self.name!r} connection failed: "
                f"{error}") from error
        if decoded is None:
            self.close()
            raise WorkerCrashError(
                f"worker {self.name!r} closed the connection")
        return decoded

    def _request_locked(self, payload: dict,
                        timeout_s: float | None = None) -> dict:
        """One exchange; caller must hold ``_io_lock``."""
        if self._sock is None:
            raise WorkerCrashError(
                f"worker {self.name!r} is not connected")
        self._sever_if_chaos()
        try:
            self._sock.settimeout(timeout_s)
            self._sock.sendall(encode_frame(
                attach_token(payload, self.token)))
        except (OSError, ValueError, CodecError) as error:
            self.close()
            raise WorkerCrashError(
                f"worker {self.name!r} connection failed: "
                f"{error}") from error
        reply, _ = self._read_reply_locked(timeout_s)
        if not reply.get("ok"):
            raise _remote_error(reply)
        return reply

    def deploy(self, deployments: list[Deployment]) -> None:
        try:
            self._request({"op": "deploy",
                           "blob": encode_blob(list(deployments))},
                          timeout_s=self.connect_timeout_s * 4)
        except FabricAuthError as error:
            # An unauthenticated lane can never execute anything: treat
            # the handshake failure as lane-level so the group degrades
            # (dead lane, tolerated) instead of aborting the whole run.
            self.close()
            raise WorkerCrashError(
                f"worker {self.name!r} rejected the fabric token: "
                f"{error}") from error

    def _result_from(self, reply: dict, logits) -> WorkResult:
        spans = list(reply.get("spans") or [])
        # The server side executes with no knowledge of what this group
        # calls its lane, so its lane_execute spans come back with an
        # empty worker attribute.  Stamp the client-edge lane identity
        # here — the one place that knows both the spans and the name —
        # so traces attribute remote execution to ``remote@host:port``.
        for span in spans:
            attrs = span.get("attrs")
            if isinstance(attrs, dict) and not attrs.get("worker"):
                attrs["worker"] = self.name
        return WorkResult(
            item_id=int(reply["item_id"]),
            logits=logits,
            image_traces=[TraceMerge.from_dict(t)
                          for t in reply["traces"]],
            elapsed_s=float(reply["elapsed_s"]),
            worker=self.name,
            pid=int(reply.get("pid", 0)),
            spans=spans,
        )

    def _chunk_payload(self, items: list[WorkItem]):
        """Build an ``execute_many`` payload: wire entries, array map
        and one exchange span per traced item.

        One wire round-trip serves the whole chunk, but each traced
        item still gets its own exchange span (all covering the same
        shared window, like the serve layer's shared execute spans) so
        every request's tree keeps the request -> ... -> exchange ->
        lane_execute shape regardless of how dispatch chunked it.
        """
        exchange_spans: dict = {}
        wire_items = []
        for item in items:
            entry = {"item_id": item.item_id,
                     "deployment": item.deployment}
            if item.trace:
                from repro.telemetry import Span
                span = Span.child_of(item.trace, "exchange")
                exchange_spans[item.item_id] = span
                entry["trace"] = span.context()
            wire_items.append(entry)
        payload = {"op": "execute_many", "items": wire_items}
        arrays = {f"images:{position}": item.images
                  for position, item in enumerate(items)}
        return payload, arrays, exchange_spans

    def send_chunk(self, items: list[WorkItem]) -> None:
        """Encode a chunk and put it on the wire without waiting.

        The server answers strictly in order, so replies collect FIFO;
        the caller keeps at most :attr:`pipeline_depth` chunks
        outstanding.  The chunk's deadline starts *now* — queue wait
        behind earlier windowed chunks counts against it.
        """
        payload, arrays, spans = self._chunk_payload(items)
        timeout_s = chunk_timeout_s(items)
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        with self._io_lock:
            if self._sock is None:
                raise WorkerCrashError(
                    f"worker {self.name!r} is not connected")
            if len(self._outstanding) >= self.pipeline_depth:
                raise ValueError(
                    f"worker {self.name!r} already has "
                    f"{len(self._outstanding)} chunk(s) in flight "
                    f"(pipeline_depth={self.pipeline_depth})")
            self._sever_if_chaos()
            try:
                self._sock.settimeout(timeout_s)
                self._sock.sendall(encode_frame(
                    attach_token(payload, self.token), arrays))
            except (OSError, ValueError, CodecError) as error:
                self.close()
                raise WorkerCrashError(
                    f"worker {self.name!r} connection failed: "
                    f"{error}") from error
            self._outstanding.append(_RemoteFlight(
                list(items), spans, deadline))

    def collect_chunk(self) -> list:
        """Read the oldest outstanding chunk's reply and decode it."""
        with self._io_cond:
            if not self._outstanding:
                # The group believes a chunk is in flight; an empty
                # window here means close() tore the connection down
                # underneath it (monitor-driven eviction) — crash
                # semantics, so the caller requeues instead of failing.
                raise WorkerCrashError(
                    f"worker {self.name!r} has no chunk in flight "
                    "(connection was closed)")
            flight = self._outstanding[0]
            if self._sock is None:
                raise WorkerCrashError(
                    f"worker {self.name!r} is not connected")
            timeout_s = None
            if flight.deadline is not None:
                timeout_s = flight.deadline - time.monotonic()
                if timeout_s <= 0:
                    self.close()
                    raise WorkerCrashError(
                        f"worker {self.name!r} exceeded its chunk "
                        "deadline before replying")
            reply, arrays = self._read_reply_locked(timeout_s)
            self._outstanding.popleft()
            self._io_cond.notify_all()
        if not reply.get("ok"):
            # A whole-chunk refusal (auth, malformed request) on a live
            # connection: a task-level failure — the reply was consumed
            # in order, the lane stays healthy.
            raise _remote_error(reply)
        return self._decode_chunk(reply, arrays, flight)

    def _decode_chunk(self, reply: dict, arrays: dict,
                      flight: _RemoteFlight) -> list:
        """An ``execute_many`` reply -> aligned outcomes for a flight."""
        items = flight.items
        entries = reply.get("results")
        if not isinstance(entries, list) or len(entries) != len(items):
            raise WorkerCrashError(
                f"worker {self.name!r} answered "
                f"{len(entries) if isinstance(entries, list) else 0} "
                f"results for a {len(items)}-item chunk")
        outcomes: list = []
        for position, entry in enumerate(entries):
            if entry.get("ok"):
                outcomes.append(self._result_from(
                    entry, arrays[f"logits:{position}"]))
            else:
                outcomes.append(_remote_error(entry))
        if flight.spans:
            shared = len(items) > 1
            for position, item in enumerate(items):
                span = flight.spans.get(item.item_id)
                if span is None:
                    continue
                outcome = outcomes[position]
                span.set(worker=self.name, num_images=item.num_images,
                         shared=shared)
                finished = span.finish(
                    ok=isinstance(outcome, WorkResult)).to_dict()
                if isinstance(outcome, WorkResult):
                    outcome.spans = [finished, *outcome.spans]
        return outcomes

    def ping(self, timeout_s: float = 5.0) -> bool:
        # A lane busy executing is alive by definition; never block the
        # monitor behind a long-running chunk — probe only if the lock
        # can be taken NOW, and hold it for the whole exchange (a
        # release-then-reacquire would let an untimed exchange slip in
        # and stall the monitor indefinitely).
        if not self._io_lock.acquire(blocking=False):
            return True
        try:
            if self._outstanding:
                # A lane with a window open is alive by definition;
                # injecting a ping between a pipelined send and its
                # collect would desequence the in-order replies.
                return True
            self._request_locked({"op": "ping"}, timeout_s=timeout_s)
            return True
        except (WorkerCrashError, RemoteExecutionError, FabricAuthError):
            return False
        finally:
            self._io_lock.release()

    def close(self) -> None:
        self._outstanding.clear()  # the window died with the connection
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
