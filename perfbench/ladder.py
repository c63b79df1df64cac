"""The concurrency-1 ladder of the traced run.

One image, sent alone and again and again, through each layer of the
serving stack in turn::

    VectorizedEngine.run_batch  (core.engine)
    EnginePool.run_batch        (runtime, one thread lane)
    InferenceServer.submit      (serve, max_wait_ms=0, no result cache)
    TcpClient.infer             (serve.transport, same event loop)

Each rung is timed from outside, and the rungs alternate within every
round so drift on the host hits them alike.  A layer's own cost is the
difference between the medians of its rung and the rung below.  The
top rung runs twice per round, with the program's own tracer
(``repro.telemetry``) off and on, which gives the tracer's overhead.
"""

from __future__ import annotations

import asyncio
import time

import common


async def run_ladder(network, config, image, batch32, seconds: float,
                     recorder: common.SpanRecorder) -> dict:
    from repro.core.engine import warm_engine
    from repro.serve import EnginePool, InferenceServer, TcpClient
    from repro.serve.transport import start_tcp_server
    from repro.telemetry import configure

    engine = warm_engine(network, config)
    pool = EnginePool(network, config)
    pool.start()
    server = InferenceServer(network, config, max_wait_ms=0.0,
                             result_cache=0)
    await server.start()
    tcp, port = await start_tcp_server(server)
    client = TcpClient("127.0.0.1", port)
    await client.connect()
    batch = image[None]

    async def engine_call():
        engine.run_batch(batch)

    async def traced_infer():
        configure(tracing=True)
        try:
            await client.infer(image)
        finally:
            configure(tracing=False)

    rungs = [("engine.run_batch", engine_call),
             ("EnginePool.run_batch", lambda: pool.run_batch(batch)),
             ("InferenceServer.submit", lambda: server.submit(image)),
             ("TcpClient.infer", lambda: client.infer(image)),
             ("TcpClient.infer+tracer", traced_infer)]
    times = {name: [] for name, _ in rungs}
    lateness = []
    try:
        warm_started = time.perf_counter()
        for _, call in rungs:        # warm every path once
            await call()
        # Rounds are due on a fixed period of 1.25 warm rounds, so a
        # round never queues behind the tail of the one before; how late
        # each round starts checks the event loop's own health.
        period = 1.25 * (time.perf_counter() - warm_started)
        began = time.perf_counter()
        rounds = 0
        while (time.perf_counter() - began < seconds or rounds < 5):
            due = began + rounds * period
            rounds += 1
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append((time.perf_counter() - due) * 1e3)
            for name, call in rungs:
                start = time.perf_counter()
                await call()
                end = time.perf_counter()
                times[name].append((end - start) * 1e3)
                recorder.record(f"ladder.{name}", start, end)
        b32 = []
        for _ in range(3):
            start = time.perf_counter()
            engine.run_batch(batch32)
            b32.append((time.perf_counter() - start) * 1e3 / len(batch32))
        snapshot = server.snapshot()
    finally:
        await client.close()
        tcp.close()
        await tcp.wait_closed()
        await server.stop()
        pool.shutdown()

    med = {name: common.median(values) for name, values in times.items()}
    return {
        "engine.run_batch_ms.b1": med["engine.run_batch"],
        "engine.ms_per_img.b32": common.median(b32),
        "runtime.dispatch_ms.b1": (med["EnginePool.run_batch"]
                                   - med["engine.run_batch"]),
        "serve.submit_ms.c1": (med["InferenceServer.submit"]
                               - med["EnginePool.run_batch"]),
        "transport.infer_ms.c1": (med["TcpClient.infer"]
                                  - med["InferenceServer.submit"]),
        "telemetry.overhead_frac": (med["TcpClient.infer+tracer"]
                                    / med["TcpClient.infer"] - 1.0),
        "ladder.rounds": rounds,
        "ladder.lateness_ms": lateness,
        "ladder.infer_ms": times["TcpClient.infer"],
        "ladder.snapshot": snapshot.to_dict(),
    }
