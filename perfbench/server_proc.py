"""The server process of the serving workloads.

Reads the calibrated layer scales as one JSON line on stdin, builds the
workload network with them, compiles it, starts a default-config
:class:`~repro.serve.InferenceServer` (greedy policy, result cache on,
one thread lane) behind the TCP transport and prints one ``ready`` JSON
line with the bound port.  Then it answers one-line commands on stdin,
each with one JSON line on stdout:

* ``stats``  reports peak resident memory and the network fingerprint;
* ``quit``   stops the transport and the server, then exits.

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import json
import sys
import time

import common

common.prepare_process()

import asyncio  # noqa: E402

from repro.core.config import AcceleratorConfig  # noqa: E402
from repro.core.engine import network_fingerprint, warm_compile  # noqa: E402
from repro.serve import InferenceServer  # noqa: E402
from repro.serve.transport import start_tcp_server  # noqa: E402


async def serve(model: str, scales: list) -> None:
    started = time.perf_counter()
    network = common.build_network(model, scales)
    built = time.perf_counter()
    config = AcceleratorConfig.for_network(network)
    warm_compile(network, config)
    compiled = time.perf_counter()
    server = InferenceServer(network)
    await server.start()
    tcp, port = await start_tcp_server(server)
    ready = time.perf_counter()
    common.emit({"event": "ready", "port": port,
                 "build_s": built - started,
                 "compile_s": compiled - built,
                 "start_s": ready - compiled})
    loop = asyncio.get_running_loop()
    try:
        while True:
            command = (await loop.run_in_executor(
                None, sys.stdin.readline)).strip()
            if command == "stats":
                common.emit({"event": "stats",
                             "peak_rss_mb": common.peak_rss_mb(),
                             "fingerprint": network_fingerprint(network)})
            else:                       # "quit", or the client went away
                break
    finally:
        tcp.close()
        await tcp.wait_closed()
        await server.stop()


def main() -> int:
    asyncio.run(serve(sys.argv[1], json.loads(sys.stdin.readline())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
