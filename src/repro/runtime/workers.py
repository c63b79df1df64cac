"""Workers: the three interchangeable executors of the fabric.

A :class:`Worker` owns one execution lane — it is started once, receives
the deployment table once, and then executes chunks of
:class:`~repro.runtime.work.WorkItem` through one protocol:
:meth:`Worker.send_chunk` ships a chunk, :meth:`Worker.collect_chunk`
returns its per-item outcomes, oldest chunk first.  Three kinds ship:

* :class:`ThreadWorker` — runs each chunk inline on the group's
  dispatcher thread, inside ``send_chunk``.  numpy releases the GIL
  inside its kernels, so several thread
  workers overlap real work; zero serialization cost, shares the
  process-wide warm-engine cache.  Also the ``workers=1`` determinism
  baseline every other executor mix is compared against.
* :class:`ProcessWorker` — one dedicated forked (or spawned) child
  process holding warm engines.  Image and logit tensors travel through
  a shared-memory arena (``repro.runtime.shm``) instead of pickle when
  the host allows it (``REPRO_NO_SHM=1`` forces the pickle path), so
  the per-item serialization tax is a few hundred bytes of work-item
  metadata.  Sidesteps the GIL; a killed child surfaces as
  :class:`~repro.errors.WorkerCrashError`, which the group turns into
  eviction + requeue instead of a deadlock.
* ``RemoteWorker`` (``repro.runtime.remote``) — the same protocol over an
  RBF1-framed TCP connection to a host running ``repro worker --listen``.

Spec strings name workers uniformly across the CLI, the sweep driver and
the serving pool: ``"thread"``, ``"process"``, ``"thread:4"`` /
``"process:4"`` (multipliers), or ``"host:port"`` for a remote worker.
An integer worker count keeps its historical meaning — ``1`` is the
inline baseline, ``N`` is ``N`` process workers.
"""

from __future__ import annotations

import abc
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import multiprocessing as mp
from multiprocessing import resource_tracker

import numpy as np

from repro.errors import ConfigurationError, WorkerCrashError
from repro.runtime.shm import ShmArena, ShmView, attach_view, shm_available
from repro.runtime.work import (Deployment, WorkItem, chunk_timeout_s,
                                execute_item)

__all__ = [
    "ProcessWorker",
    "ThreadWorker",
    "Worker",
    "create_workers",
    "normalize_worker_specs",
]


class Worker(abc.ABC):
    """One execution lane: start, deploy once, send/collect chunks, ping."""

    #: Executor kind ("thread" | "process" | "remote").
    kind: str = "abstract"

    #: Whether an evicted lane can be brought back by ``close()`` +
    #: ``start()`` (the group's probation re-admission).  Lanes built
    #: around a connection *they* did not initiate (a joined host's
    #: socket) set this False — the host re-joins on its own instead.
    restartable: bool = True

    #: Optional :class:`~repro.runtime.chaos.ChaosPolicy` the owning
    #: group injects; executors that model connection faults consult it
    #: per exchange.  ``None`` = no chaos.
    chaos = None

    #: Largest in-flight chunk window this executor supports.  ``1``
    #: means stop-and-wait (the dispatcher collects each chunk before
    #: shipping the next); executors that can overlap raise it so the
    #: group can pipeline encode + transfer of chunk N+1 behind the
    #: compute of chunk N.
    pipeline_depth: int = 1

    def __init__(self, name: str) -> None:
        self.name = name

    @abc.abstractmethod
    def start(self) -> None:
        """Acquire the lane's resources (executor, connection)."""

    @abc.abstractmethod
    def deploy(self, deployments: list[Deployment]) -> None:
        """Register the deployment table this lane will execute against."""

    @abc.abstractmethod
    def send_chunk(self, items: list[WorkItem]) -> None:
        """Ship a chunk of any size.  Chunks collect strictly in send
        order; the caller keeps at most :attr:`pipeline_depth` chunks
        outstanding.  Raises :class:`WorkerCrashError` if the lane
        itself died (process killed, connection dropped)."""

    @abc.abstractmethod
    def collect_chunk(self) -> list:
        """Block for the *oldest* outstanding chunk; returns one
        :class:`WorkResult` **or** :class:`Exception` per item, aligned
        with the chunk :meth:`send_chunk` shipped.

        Task-level failures come back in place so sibling items in a
        healthy chunk still complete; a lane death (or a blown chunk
        deadline) raises :class:`WorkerCrashError` — every outstanding
        chunk is lost with the lane, and the group requeues the whole
        window."""

    def ping(self, timeout_s: float = 5.0) -> bool:
        """Liveness probe; ``False``/``WorkerCrashError`` marks the lane
        dead.  In-process lanes are alive by definition."""
        return True

    def kill(self) -> None:
        """Hard-kill the lane mid-run (chaos injection).

        Unlike :meth:`close`, this models a *failure*, not a shutdown:
        the executor dies the way a real one would (SIGKILLed child,
        severed socket) so the next chunk or ``ping`` surfaces
        :class:`WorkerCrashError` and the group's eviction + requeue
        machinery runs for real.  Default: ``close()`` — good enough
        for lanes whose next use fails once resources are gone.
        """
        self.close()

    def close(self) -> None:
        """Release the lane's resources; idempotent."""


class ThreadWorker(Worker):
    """Inline execution on the group's dispatcher thread.

    ``send_chunk`` runs the whole chunk and keeps its outcomes until
    ``collect_chunk`` hands them over, so the lane is stop-and-wait
    (``pipeline_depth`` 1).
    """

    kind = "thread"

    def __init__(self, name: str = "thread") -> None:
        super().__init__(name)
        self._deployments: list[Deployment] = []
        self._outcomes: list | None = None
        self._killed = False

    def start(self) -> None:
        # A probation restart revives a chaos-killed inline lane.
        self._killed = False

    def deploy(self, deployments: list[Deployment]) -> None:
        self._deployments = list(deployments)

    def send_chunk(self, items: list[WorkItem]) -> None:
        if self._killed:
            raise WorkerCrashError(
                f"worker {self.name!r} was killed (chaos)")
        outcomes: list = []
        for item in items:
            try:
                outcomes.append(execute_item(self._deployments, item,
                                             worker=self.name))
            except Exception as error:  # noqa: BLE001 — task failure
                outcomes.append(error)
        self._outcomes = outcomes

    def collect_chunk(self) -> list:
        outcomes, self._outcomes = self._outcomes, None
        if outcomes is None:
            raise WorkerCrashError(
                f"worker {self.name!r} has no chunk in flight")
        return outcomes

    def ping(self, timeout_s: float = 5.0) -> bool:
        return not self._killed

    def kill(self) -> None:
        # An inline lane has no process to SIGKILL; the flag makes the
        # next chunk/ping crash the same way a dead one would.
        self._killed = True


# ----------------------------------------------------------------------
# Process-worker child side (module-level for picklability).  One child
# per ProcessWorker, so a plain global table is per-lane state.
# ----------------------------------------------------------------------
_CHILD_DEPLOYMENTS: list[Deployment] = []

#: Logits wider than this per-image bound fall back to pickled replies
#: (the shm reply region is pre-sized before the class count is known).
_REPLY_CLASSES_CAP = 256


@dataclass
class _WireItem:
    """The picklable skeleton of one item crossing into the child.

    Exactly one of ``images`` (pickle path) or ``view`` (shared-memory
    path) is set; ``reply`` is the shm region the child may answer
    through when it is big enough for the logits.
    """

    item_id: int
    deployment: int
    timeout_s: float | None
    images: np.ndarray | None = None
    view: ShmView | None = None
    reply: ShmView | None = None
    trace: dict | None = None


def _child_deploy(deployments: list[Deployment]) -> int:
    global _CHILD_DEPLOYMENTS
    _CHILD_DEPLOYMENTS = list(deployments)
    return os.getpid()


def _child_execute_batch(wire_items: list[_WireItem]) -> list:
    """Run a chunk in the child; one ``(logits_view, result)`` or
    ``Exception`` per item.  Logits that fit the item's reply region are
    written there (``result.logits`` comes back ``None``); otherwise
    they ride home pickled."""
    outcomes: list = []
    for wire in wire_items:
        try:
            images = (attach_view(wire.view) if wire.view is not None
                      else wire.images)
            item = WorkItem(item_id=wire.item_id,
                            deployment=wire.deployment,
                            images=images, timeout_s=wire.timeout_s,
                            trace=wire.trace)
            result = execute_item(_CHILD_DEPLOYMENTS, item)
            logits_view = None
            if (wire.reply is not None
                    and result.logits.nbytes <= wire.reply.nbytes):
                logits = np.ascontiguousarray(result.logits)
                region = attach_view(wire.reply)
                region[:logits.nbytes] = logits.reshape(-1).view(np.uint8)
                logits_view = ShmView(wire.reply.segment,
                                      wire.reply.offset,
                                      str(logits.dtype), logits.shape)
                result.logits = None
            outcomes.append((logits_view, result))
        except Exception as error:  # noqa: BLE001 — task failure; the
            # chunk's sibling items must still answer
            outcomes.append(error)
    return outcomes


@dataclass
class _ProcessFlight:
    """One chunk in flight to the child: its pool future plus what is
    needed to collect it (alignment, arena slot, deadline)."""

    future: object
    items: list
    slot: int
    deadline: float | None


class ProcessWorker(Worker):
    """One dedicated child process holding warm engines.

    Pipelines up to two chunks (``pipeline_depth = 2``): the shm arena
    is double-buffered, one slot per in-flight chunk, so the parent
    packs chunk N+1 into the idle slot while the child computes chunk N
    out of the other.  A slot is only reused after its chunk was
    collected (the window bound enforces this), which preserves the
    wholesale-reuse invariant from :mod:`repro.runtime.shm` per slot.
    """

    kind = "process"
    pipeline_depth = 2

    def __init__(self, name: str = "process") -> None:
        super().__init__(name)
        self._pool: ProcessPoolExecutor | None = None
        self.pid: int | None = None
        # Double-buffered arenas: chunk k packs into slot k % 2.
        self._arenas: list[ShmArena | None] = [None, None]
        self._slot = 0
        self._outstanding: deque[_ProcessFlight] = deque()
        # Serializes submissions (pack + pool.submit) against the
        # monitor's ping.  The group's monitor pings "idle" lanes, but
        # a chunk may start between its idle check and the ping; a ping
        # queued behind outstanding chunks on this single-child pool
        # would time out and falsely evict a healthy lane, so ping only
        # probes when it can take this lock AND no chunk is in flight.
        self._exec_lock = threading.Lock()

    def start(self) -> None:
        # Spawn the resource tracker *before* the pool forks children:
        # a child whose first shm attach finds no inherited tracker
        # would start a private one, whose lone registration nobody
        # unregisters (leak warnings at shutdown).  With the tracker
        # alive pre-fork, every register/unregister lands in the one
        # shared tracker and balances (see repro.runtime.shm).
        if shm_available():
            resource_tracker.ensure_running()
        methods = mp.get_all_start_methods()
        context = mp.get_context("fork" if "fork" in methods else None)
        self._pool = ProcessPoolExecutor(max_workers=1,
                                         mp_context=context)

    def _submit(self, fn, *args, timeout_s: float | None = None):
        if self._pool is None:
            raise WorkerCrashError(f"worker {self.name!r} is not started")
        try:
            return self._pool.submit(fn, *args).result(timeout=timeout_s)
        except BrokenProcessPool as error:
            raise WorkerCrashError(
                f"worker {self.name!r} (pid {self.pid}) died: "
                f"{error}") from error
        except FutureTimeout as error:
            # A blown budget is indistinguishable from a hung child;
            # treat the lane as dead so the group can requeue elsewhere.
            self.close()
            raise WorkerCrashError(
                f"worker {self.name!r} (pid {self.pid}) exceeded its "
                f"{timeout_s} s execution budget") from error

    def deploy(self, deployments: list[Deployment]) -> None:
        self.pid = self._submit(_child_deploy, list(deployments))

    def _pack(self, items: list[WorkItem],
              slot: int = 0) -> list[_WireItem]:
        """Wire items for a chunk: shm-backed when available.

        All image buffers are placed in one write into the ``slot``
        arena; each item gets an aligned slice of a shared reply region
        sized for ``_REPLY_CLASSES_CAP`` classes.  Any shm hiccup
        (exhausted ``/dev/shm``, races with teardown) falls back to
        pickling — slower, never wrong.  Caller-side ``meta`` is
        stripped here: it is documented as never crossing the boundary
        (and may be unpicklable).
        """
        wires = [_WireItem(item_id=item.item_id,
                           deployment=item.deployment,
                           timeout_s=item.timeout_s,
                           trace=item.trace)
                 for item in items]
        if shm_available():
            if self._arenas[slot] is None:
                self._arenas[slot] = ShmArena()
            arena = self._arenas[slot]
            caps = [max(4096, -(-item.num_images
                                * _REPLY_CLASSES_CAP * 8 // 64) * 64)
                    for item in items]
            try:
                views, reply = arena.place(
                    [item.images for item in items],
                    reply_nbytes=sum(caps))
            except (OSError, ValueError):
                views = None
            if views is not None:
                cursor = reply.offset
                for wire, view, cap in zip(wires, views, caps):
                    wire.view = view
                    wire.reply = ShmView(reply.segment, cursor,
                                         "uint8", (cap,))
                    cursor += cap
                return wires
        for wire, item in zip(wires, items):
            wire.images = np.ascontiguousarray(item.images)
        return wires

    def _unpack(self, outcome, slot: int = 0):
        """One child outcome -> WorkResult or Exception (parent side)."""
        if isinstance(outcome, Exception):
            return outcome
        logits_view, result = outcome
        if logits_view is not None:
            # Copy out before the slot is reused: the arena region is
            # recycled by the next chunk packed into this slot.
            result.logits = np.array(self._arenas[slot].read(logits_view),
                                     copy=True)
        result.worker = self.name
        # The child executed without knowing its lane name; stamp it on
        # the spans here so forked-lane lane_execute spans are
        # attributable, exactly like the remote client edge does.
        for span in result.spans:
            attrs = span.get("attrs")
            if isinstance(attrs, dict) and not attrs.get("worker"):
                attrs["worker"] = self.name
        return result

    def send_chunk(self, items: list[WorkItem]) -> None:
        """Pack a chunk into the idle arena slot and submit it to the
        child without waiting; the single-child pool executes chunks
        strictly in submission order, so collection is FIFO."""
        with self._exec_lock:
            if self._pool is None:
                raise WorkerCrashError(
                    f"worker {self.name!r} is not started")
            if len(self._outstanding) >= self.pipeline_depth:
                raise ValueError(
                    f"worker {self.name!r} already has "
                    f"{len(self._outstanding)} chunk(s) in flight "
                    f"(pipeline_depth={self.pipeline_depth})")
            slot = self._slot
            self._slot = (self._slot + 1) % len(self._arenas)
            wires = self._pack(items, slot)
            timeout_s = chunk_timeout_s(items)
            deadline = (None if timeout_s is None
                        else time.monotonic() + timeout_s)
            try:
                future = self._pool.submit(_child_execute_batch, wires)
            except (BrokenProcessPool, RuntimeError) as error:
                raise WorkerCrashError(
                    f"worker {self.name!r} (pid {self.pid}) died: "
                    f"{error}") from error
            self._outstanding.append(_ProcessFlight(
                future, list(items), slot, deadline))

    def collect_chunk(self) -> list:
        """Block for the oldest outstanding chunk and unpack it."""
        if not self._outstanding:
            # The group believes a chunk is in flight; an empty window
            # here means close() tore the pool down underneath it
            # (monitor-driven eviction) — crash semantics, so the
            # caller requeues instead of failing the items.
            raise WorkerCrashError(
                f"worker {self.name!r} has no chunk in flight "
                "(worker was closed)")
        flight = self._outstanding[0]
        timeout_s = None
        if flight.deadline is not None:
            timeout_s = max(0.0, flight.deadline - time.monotonic())
        try:
            outcomes = flight.future.result(timeout=timeout_s)
        except BrokenProcessPool as error:
            raise WorkerCrashError(
                f"worker {self.name!r} (pid {self.pid}) died: "
                f"{error}") from error
        except FutureTimeout as error:
            # A blown budget is indistinguishable from a hung child;
            # treat the lane as dead so the group can requeue elsewhere.
            self.close()
            raise WorkerCrashError(
                f"worker {self.name!r} (pid {self.pid}) exceeded its "
                f"chunk deadline") from error
        with self._exec_lock:
            self._outstanding.popleft()
        if (not isinstance(outcomes, list)
                or len(outcomes) != len(flight.items)):
            raise WorkerCrashError(
                f"worker {self.name!r} answered a malformed chunk")
        return [self._unpack(outcome, flight.slot)
                for outcome in outcomes]

    def ping(self, timeout_s: float = 5.0) -> bool:
        # A lane mid-chunk is alive by definition; never queue a probe
        # behind outstanding work on the single-child pool (it would
        # falsely time out behind a long chunk).
        if not self._exec_lock.acquire(blocking=False):
            return True
        try:
            if self._outstanding:
                return True
            self._submit(os.getpid, timeout_s=timeout_s)
            return True
        except WorkerCrashError:
            return False
        finally:
            self._exec_lock.release()

    def kill(self) -> None:
        # The real failure mode: SIGKILL the child, leaving the broken
        # pool in place so the next chunk raises BrokenProcessPool →
        # WorkerCrashError and the group's crash path runs end to end.
        if self.pid is not None:
            try:
                os.kill(self.pid, getattr(signal, "SIGKILL",
                                          signal.SIGTERM))
            except OSError:
                pass
        else:
            self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._outstanding.clear()
        for slot, arena in enumerate(self._arenas):
            if arena is not None:
                arena.close()
                self._arenas[slot] = None
        self._slot = 0


# ----------------------------------------------------------------------
# Worker specs — the one grammar the CLI, sweeps and serving share
# ----------------------------------------------------------------------
_LOCAL_KINDS = ("thread", "process")


def normalize_worker_specs(workers) -> list[str]:
    """Expand a worker request into one spec string per lane.

    ``workers`` may be an integer (``1`` → one inline thread lane, the
    determinism baseline; ``N`` → ``N`` process lanes), a single spec
    string, or a sequence of spec strings.  Multipliers expand here:
    ``"process:4"`` → four process lanes.
    """
    if isinstance(workers, int):
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}")
        return ["thread"] if workers == 1 else ["process"] * workers
    if isinstance(workers, str):
        workers = [workers]
    specs: list[str] = []
    for token in workers:
        token = str(token).strip()
        if not token:
            continue
        kind, _, tail = token.partition(":")
        if kind in _LOCAL_KINDS:
            count = 1
            if tail:
                try:
                    count = int(tail)
                except ValueError:
                    raise ConfigurationError(
                        f"bad worker multiplier in {token!r}") from None
                if count < 1:
                    raise ConfigurationError(
                        f"worker multiplier must be >= 1 in {token!r}")
            specs.extend([kind] * count)
        elif ":" in token:
            host, _, port = token.rpartition(":")
            try:
                int(port)
            except ValueError:
                raise ConfigurationError(
                    f"bad remote worker spec {token!r}; expected "
                    "host:port") from None
            if not host:
                raise ConfigurationError(
                    f"bad remote worker spec {token!r}; expected "
                    "host:port")
            specs.append(f"{host}:{int(port)}")
        else:
            raise ConfigurationError(
                f"unknown worker spec {token!r}; expected 'thread', "
                "'process', 'kind:N' or 'host:port'")
    if not specs:
        raise ConfigurationError("worker spec list selected no workers")
    return specs


def create_workers(workers, token: str | None = None) -> list[Worker]:
    """Build (unstarted) workers from specs; names are group-unique.

    ``token`` is the fabric's optional shared secret: it rides to every
    remote lane, which attaches the auth proof to each payload (a host
    started with ``repro worker --listen --token T`` rejects the rest).
    """
    from repro.runtime.remote import RemoteWorker  # avoid module cycle

    built: list[Worker] = []
    for index, spec in enumerate(normalize_worker_specs(workers)):
        if spec == "thread":
            built.append(ThreadWorker(name=f"thread-{index}"))
        elif spec == "process":
            built.append(ProcessWorker(name=f"process-{index}"))
        else:
            host, _, port = spec.rpartition(":")
            built.append(RemoteWorker(host, int(port),
                                      name=f"remote-{index}@{spec}",
                                      token=token))
    return built
