"""The worker fabric: one executor/transport layer for serving and sweeps.

``repro.runtime`` owns the worker abstraction for the whole codebase.
A :class:`Worker` executes chunks of :class:`WorkItem` batches on warm
engines through one send/collect protocol and returns logits plus
per-image trace aggregates; three interchangeable executors ship
(``thread``, ``process``, ``remote`` — the last over TCP to a host
running ``repro worker --listen``, speaking the one zero-copy RBF1
frame format of :mod:`repro.runtime.codec`); a :class:`WorkerGroup`
schedules items across any mix of them with one windowed dispatch loop
per lane, work stealing, heartbeat liveness tracking and crash
requeueing.

The serving pool (``repro.serve.pool.EnginePool``) and the sweep driver
(``repro.harness.sweep.SweepDriver``) are thin policy layers over this
fabric — serving keeps its micro-batch flush policies, sweeps keep
sharding and the persistent store — and both inherit the fabric's
contract: **any executor mix merges bit-identically to a serial
single-process run.**

Quick tour::

    from repro.runtime import (Deployment, WorkItem, WorkerGroup,
                               create_workers)

    group = WorkerGroup(create_workers(["thread", "host:7601"]),
                        deployments=[Deployment(network, config)])
    with group:
        results = group.run([WorkItem(0, 0, images)])
"""

from repro.runtime.codec import (
    attach_token,
    check_token,
    decode_blob,
    decode_frame,
    encode_blob,
    encode_frame,
    fabric_auth,
    parse_frame_prefix,
    read_frame,
)
from repro.runtime.chaos import ChaosEvent, ChaosPolicy
from repro.runtime.group import GroupMetrics, WorkerGroup
from repro.runtime.registry import DeploymentRegistry, RegisteredDeployment
from repro.runtime.remote import (
    GroupListener,
    JoinStats,
    RemoteWorker,
    WorkerServer,
    join_fabric,
)
from repro.runtime.shm import ShmArena, shm_available
from repro.runtime.work import (
    Deployment,
    ResultLedger,
    WorkItem,
    WorkResult,
    execute_item,
    next_idempotency_key,
)
from repro.runtime.workers import (
    ProcessWorker,
    ThreadWorker,
    Worker,
    create_workers,
    normalize_worker_specs,
)

__all__ = [
    "ChaosEvent",
    "ChaosPolicy",
    "Deployment",
    "DeploymentRegistry",
    "GroupListener",
    "GroupMetrics",
    "JoinStats",
    "ProcessWorker",
    "RegisteredDeployment",
    "RemoteWorker",
    "ResultLedger",
    "ShmArena",
    "ThreadWorker",
    "WorkItem",
    "WorkResult",
    "Worker",
    "WorkerGroup",
    "WorkerServer",
    "attach_token",
    "check_token",
    "create_workers",
    "decode_blob",
    "decode_frame",
    "encode_blob",
    "encode_frame",
    "execute_item",
    "fabric_auth",
    "join_fabric",
    "next_idempotency_key",
    "normalize_worker_specs",
    "parse_frame_prefix",
    "read_frame",
    "shm_available",
]
