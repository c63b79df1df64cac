"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload lenet-serve --seed 1 \
        --seconds 20 --trace 0

Workloads (the reasons for each are in ``BENCHMARK.json`` and
``perfbench/README.md``):

* ``vgg11-sweep``  full-geometry VGG-11 images swept by ``SweepDriver``
  over two process lanes while this process waits;
* ``lenet-serve``  LeNet-5 behind the TCP server: blocks of an open loop
  of Poisson arrivals at a fixed rate alternate with blocks of a closed
  loop with 64 requests in flight, unique dense images;
* ``event-serve``  quarter-width VGG-11 on sparse event-camera frames,
  three in four of them silent, same two phases.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and writes the recorded spans under ``.perfbench_out/``).  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every reply and every sweep shard is checked
against a direct ``run_batch`` of the same images, and two LeNet images
against the ``reference`` engine; any mismatch fails the command.
"""

from __future__ import annotations

import argparse
import sys
import time

import common

common.prepare_process()

import asyncio  # noqa: E402
import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import selectors  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.config import AcceleratorConfig  # noqa: E402
from repro.core.energy import trace_energy  # noqa: E402
from repro.core.engine import (  # noqa: E402
    create_engine, network_fingerprint, warm_compile, warm_engine)
from repro.core.engine.trace import TraceMerge  # noqa: E402
from repro.runtime import (  # noqa: E402
    decode_frame, encode_frame, parse_frame_prefix)
from repro.runtime.codec import FRAME_PREFIX_LEN  # noqa: E402
from repro.serve import TcpClient  # noqa: E402
from repro.serve.cache import batch_digest  # noqa: E402

from ladder import run_ladder  # noqa: E402

HERE = common.ROOT / "perfbench"
WORKLOADS = ("vgg11-sweep", "lenet-serve", "event-serve")

#: Set-up is measured this many times per run (fresh processes each
#: time); the last launch serves the measurement.
SETUP_LAUNCHES = 3
CHILD_TIMEOUT_S = 150.0

#: Six default 64-image shards, three queued per lane.  With one or two
#: per lane, a lane that pipelines its next shard sometimes takes a
#: peer's only queued shard first, and the sweep runs 2-0 or 3-1.  That
#: open dispatcher defect is measured, not hidden: the traced run
#: reports each sweep's lane split, and first times one-shard-per-lane
#: sweeps, where the split shows.
SWEEP_IMAGES = 384

#: Serving: (model, open-loop rate in requests/s).
SERVE = {"lenet-serve": ("lenet", 150.0),
         "event-serve": ("vgg11-quarter", 100.0)}
WARMUP_REQUESTS = 48
IN_FLIGHT = 64
#: The timed part of a serving run alternates open-loop and saturation
#: blocks, so a slow spell on the host falls on both phases alike.
BLOCKS = 4
#: Saturation throughput is the median rate over runs of this many
#: consecutive replies.  Replies come back a batch at a time, so windows
#: of fixed length would count whole batches and read coarsely.
STRIDE = 256

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_ips": "images/s", "lat_p50_ms": "ms",
    "success_rate": "fraction", "peak_rss_mb": "MB",
    "model_cycles_per_img": "cycles", "model_adder_ops_per_img": "ops"}


def per_layer_units() -> dict:
    units = {
        "engine.run_batch_ms.b1": "ms", "engine.ms_per_img.b32": "ms",
        "engine.compile_s": "s",
        "runtime.dispatch_ms.b1": "ms", "runtime.start_s": "s",
        "runtime.lane_busy_frac": "fraction", "runtime.retries": "count",
        "runtime.requeued": "count", "runtime.worker_crashes": "count",
        "runtime.codec_us.encode": "us", "runtime.codec_us.decode": "us",
        "runtime.wire_bytes_per_req": "bytes",
        "serve.submit_ms.c1": "ms",
        "serve.queue_wait_ms.p50": "ms", "serve.service_ms.p50": "ms",
        "serve.batch_size.mean": "images",
        "serve.queue_wait_ms.p50.sat": "ms",
        "serve.service_ms.p50.sat": "ms",
        "serve.batch_size.mean.sat": "images",
        "serve.cache_hit_frac": "fraction", "serve.digest_us": "us",
        "serve.lat_p90_ms": "ms", "serve.lat_p99_ms": "ms",
        "transport.infer_ms.c1": "ms", "transport.gen_late_p99_ms": "ms",
        "sweep.units": "count", "sweep.stolen_units": "count",
        "sweep.lane_share_max": "fraction",
        "sweep.small.lane_share_max": "fraction",
        "sweep.small.throughput_ips": "images/s",
        "telemetry.overhead_frac": "fraction"}
    for name in common.LAYER_NAMES:
        units[f"model.cycles.{name}"] = "cycles"
        units[f"model.adder_ops.{name}"] = "ops"
    return units


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Child:
    """A benchmark child process that answers in JSON lines."""

    def __init__(self, args: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=common.child_env(),
            cwd=common.ROOT)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)

    def read(self) -> dict:
        if not self._selector.select(CHILD_TIMEOUT_S):
            raise TimeoutError(f"{self.proc.args[1]} sent nothing for "
                               f"{CHILD_TIMEOUT_S:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args[1]} exited with code "
                               f"{self.proc.wait()}")
        return json.loads(line)

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def request(self, command: str) -> dict:
        self.send(command)
        return self.read()

    def close(self) -> None:
        """Ask the child to quit; if it does not, terminate it (it then
        stops its own children), and kill it as the last resort.
        Waits until it has ended."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        finally:
            self._selector.close()
            self.proc.stdin.close()
            self.proc.stdout.close()


def launch(args: list[str], model: str
           ) -> tuple[Child, list[float], list[dict]]:
    """Start the child ``SETUP_LAUNCHES`` times, timing each from
    process launch to its ``ready`` line; all but the last are closed
    at once.  Each child is handed the calibrated layer scales of
    ``model``, worked out here beforehand, so the benchmark's own
    calibration pass stays out of the set-up time.  Returns the last
    child, the set-up times and the readies.
    """
    scales = json.dumps(common.layer_scales(workload_network(model)))
    setups, readies = [], []
    for launch_index in range(SETUP_LAUNCHES):
        started = time.perf_counter()
        child = Child(args)
        try:
            child.send(scales)
            readies.append(child.read())
        except BaseException:
            child.close()
            raise
        setups.append(time.perf_counter() - started)
        if launch_index < SETUP_LAUNCHES - 1:
            child.close()
    return child, setups, readies


#: Seconds each workload network took to build and calibrate, here and
#: off the clock.
CALIBRATE_S: dict = {}


@functools.cache
def workload_network(model: str):
    """The calibrated workload network, built once per run."""
    started = time.perf_counter()
    network = common.build_network(model)
    CALIBRATE_S[model] = time.perf_counter() - started
    return network


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def reference_mismatches(seed: int) -> int:
    """Images of two LeNet images whose logits or traces differ between
    the default engine and the ``reference`` hardware model."""
    network = workload_network("lenet")
    config = AcceleratorConfig.for_network(network)
    images = common.digit_images(seed, 2)
    fast_logits, fast_traces = warm_engine(network, config).run_batch(
        images)
    reference = create_engine("reference", warm_compile(network, config))
    ref_logits, ref_traces = reference.run_batch(images)
    return sum(1 for i in range(len(images))
               if not np.array_equal(fast_logits[i], ref_logits[i])
               or fast_traces[i] != ref_traces[i])


def zero_layers(layers: dict) -> list[str]:
    """Conv and linear layers that did no adder work at all."""
    return [name for name, layer in layers.items()
            if layer["kind"] in ("conv", "linear")
            and layer["adder_ops"] == 0]


def codec_and_digest(images) -> dict:
    """Frame codec and admission digest costs on request payloads."""
    encode_us, decode_us, digest_us, sizes = [], [], [], []
    for index, image in enumerate(images):
        payload = {"key": f"perfbench-{index}", "id": index}
        arrays = {"image": np.asarray(image, dtype=np.float64)}
        for _ in range(5):
            start = time.perf_counter()
            frame = encode_frame(payload, arrays)
            encoded = time.perf_counter()
            header_len, _ = parse_frame_prefix(frame[:FRAME_PREFIX_LEN])
            body_at = FRAME_PREFIX_LEN + header_len
            decode_frame(frame[FRAME_PREFIX_LEN:body_at], frame[body_at:])
            decoded = time.perf_counter()
            batch_digest(arrays["image"])
            digested = time.perf_counter()
            encode_us.append((encoded - start) * 1e6)
            decode_us.append((decoded - encoded) * 1e6)
            digest_us.append((digested - decoded) * 1e6)
        sizes.append(len(frame))
    return {"runtime.codec_us.encode": common.median(encode_us),
            "runtime.codec_us.decode": common.median(decode_us),
            "runtime.wire_bytes_per_req": float(np.mean(sizes)),
            "serve.digest_us": common.median(digest_us)}


def ladder_layers(model: str, image, batch32, seconds: float,
                  recorder) -> dict:
    network = workload_network(model)
    config = AcceleratorConfig.for_network(network)
    with recorder.span("ladder"):
        return asyncio.run(run_ladder(network, config, image, batch32,
                                      seconds, recorder))


# ----------------------------------------------------------------------
# vgg11-sweep
# ----------------------------------------------------------------------
def sweep_workload(args, recorder) -> dict:
    child, setups, readies = launch([str(HERE / "sweep_proc.py")], "vgg11")
    try:
        with recorder.span("sweep.measure") as parent:
            result = child.request(
                f"run {args.seed} {args.seconds} {SWEEP_IMAGES} "
                f"{int(args.trace)}")
        recorder.adopt(result["spans"], parent)
    finally:
        child.close()
    check = result["check"]
    walls = result["walls"]
    attempted = result["attempted"]
    failed = min(check["mismatched_images"], attempted)
    e2e = {
        "setup_s": common.median(setups),
        "throughput_ips": SWEEP_IMAGES / common.median(walls),
        "lat_p50_ms": common.percentile(result["latencies_ms"], 50),
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
        "model_cycles_per_img": check["cycles_per_img"],
        "model_adder_ops_per_img": check["adder_ops_per_img"],
    }
    layers = {}
    if args.trace:
        images = common.cifar_images(args.seed, 33)[0]
        ladder = ladder_layers("vgg11", images[0], images[1:],
                               args.seconds / 4, recorder)
        snapshot = ladder["ladder.snapshot"]
        layers = {
            "engine.compile_s": common.median(
                [r["compile_s"] for r in readies]),
            "runtime.start_s": common.median(
                [r["start_s"] for r in readies]),
            "runtime.lane_busy_frac": common.median(result["lane_busy"]),
            "runtime.retries": result["retries"],
            "runtime.requeued": result["requeued"],
            "runtime.worker_crashes": result["worker_crashes"],
            "serve.queue_wait_ms.p50": snapshot["queue_wait_ms"]["p50"],
            "serve.service_ms.p50": snapshot["service_ms"]["p50"],
            "serve.batch_size.mean": snapshot["mean_batch_size"],
            "serve.queue_wait_ms.p50.sat": snapshot["queue_wait_ms"]["p50"],
            "serve.service_ms.p50.sat": snapshot["service_ms"]["p50"],
            "serve.batch_size.mean.sat": snapshot["mean_batch_size"],
            "serve.cache_hit_frac": snapshot["cached"] / max(
                snapshot["completed"], 1),
            "serve.lat_p90_ms": common.percentile(ladder["ladder.infer_ms"],
                                                  90),
            "serve.lat_p99_ms": common.percentile(ladder["ladder.infer_ms"],
                                                  99),
            "transport.gen_late_p99_ms": common.percentile(
                ladder["ladder.lateness_ms"], 99),
            "sweep.units": sum(result["units"]),
            "sweep.stolen_units": sum(result["stolen"]),
            "sweep.lane_share_max": float(np.mean(result["lane_share"])),
            "sweep.small.lane_share_max": float(np.mean(
                result["small_lane_share"])),
            "sweep.small.throughput_ips": (
                result["small_images"] / common.median(
                    result["small_walls"])),
        }
        layers.update({k: v for k, v in ladder.items()
                       if not k.startswith("ladder.")})
        layers.update(codec_and_digest(images[:16]))
        layers.update(model_layers(check["layers"]))
    return {"e2e": e2e, "layers": layers, "attempted": attempted,
            "failed": failed, "zero_layers": zero_layers(check["layers"]),
            "info": {"setups_s": setups, "build_s": [
                         r["build_s"] for r in readies],
                     "sweep_walls_s": walls,
                     "sweep_lane_share": result["lane_share"],
                     "small_sweep_walls_s": result["small_walls"],
                     "small_sweep_lane_share": result["small_lane_share"]}}


def model_layers(layers: dict) -> dict:
    metrics = {}
    for name in common.LAYER_NAMES:
        layer = layers.get(name, {"cycles": 0, "adder_ops": 0})
        metrics[f"model.cycles.{name}"] = layer["cycles"]
        metrics[f"model.adder_ops.{name}"] = layer["adder_ops"]
    return metrics


# ----------------------------------------------------------------------
# lenet-serve / event-serve
# ----------------------------------------------------------------------
def serve_inputs(workload: str, seed: int, seconds: float) -> dict:
    """Warm-up, open-loop and saturation images, pairwise disjoint, plus
    the open loop's seeded Poisson schedule.  ``sat`` maps an index to
    an image, made as the saturation phase asks.  ``model`` is the open
    loop's images padded to whole stream chunks: the fixed-size set the
    ``model_*`` metrics average over (each event chunk holds exactly
    ``EVENT_SILENT_FRAC`` silent frames)."""
    model, rate = SERVE[workload]
    n_open = int(rate * seconds / 2)
    n_model = -(-n_open // common.ImageStream.CHUNK) * common.ImageStream.CHUNK
    due = np.cumsum(np.random.default_rng([seed, 0]).exponential(
        1.0 / rate, n_open))
    if model == "lenet":
        stream = common.digit_stream([seed, 1])
        warm = stream.take(0, WARMUP_REQUESTS)
        model_images = stream.take(WARMUP_REQUESTS, n_model)

        def sat(index: int):
            return stream[WARMUP_REQUESTS + n_open + index]
    else:
        # Warm-up sends live frames only, so the first silent frame of
        # the timed phases is a real cache miss.
        rng = np.random.default_rng([seed, 2])
        warm = [common.live_event_frame(rng)
                for _ in range(WARMUP_REQUESTS)]
        model_images = common.event_stream([seed, 3]).take(0, n_model)
        sat = common.event_stream([seed, 4]).__getitem__
    return {"warm": warm, "open": model_images[:n_open], "due": due,
            "sat": sat, "model": model_images}


async def call(client, image) -> dict | str:
    """One inference; a failure comes back as its exception type."""
    try:
        return await client.infer(image)
    except Exception as error:  # noqa: BLE001 — every failure is
        # counted against the run, whatever its type.
        return type(error).__name__


async def open_loop(client, images, due, first, recorder, parent) -> dict:
    """Send image ``i`` at ``start + due[i]`` whatever came back; time
    each request from when it was due.  ``first`` numbers the requests
    in the spans."""
    replies = [None] * len(images)
    latency_ms = [None] * len(images)
    lateness_ms = []

    async def one(index: int, due_at: float) -> None:
        sent = time.perf_counter()
        replies[index] = await call(client, images[index])
        done = time.perf_counter()
        latency_ms[index] = (done - due_at) * 1e3
        recorder.record("TcpClient.infer", sent, done, parent,
                        first + index)

    start = time.perf_counter()
    tasks = []
    for index, offset in enumerate(due):
        due_at = start + offset
        delay = due_at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness_ms.append((time.perf_counter() - due_at) * 1e3)
        tasks.append(asyncio.create_task(one(index, due_at)))
    await asyncio.gather(*tasks)
    return {"replies": replies, "latency_ms": latency_ms,
            "lateness_ms": lateness_ms}


async def saturation(client, image_at, indices, seconds, recorder,
                     parent) -> dict:
    """``IN_FLIGHT`` requests outstanding on the one connection until
    ``seconds`` have passed; each request takes the next index from
    ``indices`` and sends ``image_at(index)``.  ``rates`` holds the
    reply rate over each run of ``STRIDE`` replies."""
    replies = {}
    done_at = []
    start = time.perf_counter()
    deadline = start + seconds

    async def sender() -> None:
        for index in indices:
            if time.perf_counter() >= deadline:
                return
            sent = time.perf_counter()
            replies[index] = await call(client, image_at(index))
            done = time.perf_counter()
            if isinstance(replies[index], dict):
                done_at.append(done)
            recorder.record("TcpClient.infer", sent, done, parent, index)

    await asyncio.gather(*(sender() for _ in range(IN_FLIGHT)))
    marks = np.sort(done_at)[::STRIDE]
    rates = (STRIDE / np.diff(marks)).tolist()
    return {"replies": replies, "rates": rates, "count": len(done_at),
            "elapsed_s": max(done_at, default=deadline) - start}


async def drive_server(port: int, inputs: dict, seconds: float,
                       recorder) -> dict:
    """Warm up, then ``BLOCKS`` rounds of an open-loop block and a
    saturation block, each ``seconds / (2 * BLOCKS)`` long.  The open
    loop's schedule is cut at the block edges; its last block takes the
    rest of it."""
    client = TcpClient("127.0.0.1", port)
    await client.connect()
    block_s = seconds / (2 * BLOCKS)
    due = inputs["due"]
    edges = np.searchsorted(due, block_s * np.arange(BLOCKS + 1)).tolist()
    edges[-1] = len(due)
    opened = {"replies": [], "latency_ms": [], "lateness_ms": []}
    saturated = {"replies": {}, "rates": [], "count": 0, "elapsed_s": 0.0}
    indices = itertools.count()
    try:
        warm = inputs["warm"]
        warm_replies = [await call(client, image) for image in warm[:8]]
        warm_replies += await asyncio.gather(
            *(call(client, image) for image in warm[8:]))
        for block in range(BLOCKS):
            lo, hi = edges[block], edges[block + 1]
            with recorder.span("phase.open_loop") as parent:
                part = await open_loop(
                    client, inputs["open"][lo:hi],
                    due[lo:hi] - block * block_s, lo, recorder, parent)
            for key, values in part.items():
                opened[key] += values
            with recorder.span("phase.saturation") as parent:
                part = await saturation(client, inputs["sat"], indices,
                                        block_s, recorder, parent)
            saturated["replies"].update(part["replies"])
            saturated["rates"] += part["rates"]
            saturated["count"] += part["count"]
            saturated["elapsed_s"] += part["elapsed_s"]
        metrics = await client.metrics()
    finally:
        await client.close()
    # The median over many short runs of replies: a stall on the host
    # moves a few of them, not the figure.
    saturated["rate"] = (common.median(saturated["rates"])
                         if saturated["rates"]
                         else saturated["count"] / saturated["elapsed_s"])
    return {"warm": warm_replies, "open": opened, "sat": saturated,
            "metrics": metrics}


def check_replies(network, pairs, extra=()) -> tuple[int, dict]:
    """Count replies that failed or differ from a direct run of the same
    image (logits, cycles, energy).  ``pairs`` is ``(image, reply)``;
    byte-identical images run once, and so do the ``extra`` images.
    Returns the count and each run image's direct trace, keyed by
    ``id(image)``."""
    config = AcceleratorConfig.for_network(network)
    engine = warm_engine(network, config)
    unique = {}
    for image in itertools.chain((image for image, _ in pairs), extra):
        unique.setdefault(id(image), image)
    keys = list(unique)
    logits, traces = common.direct_run(engine,
                                       [unique[key] for key in keys])
    direct = {}
    for key, row, trace in zip(keys, logits, traces):
        merge = TraceMerge.from_traces([trace])
        direct[key] = (row, trace, merge.total_cycles, trace_energy(
            merge, weight_bits=network.weight_bits).total_pj)
    wrong = 0
    for image, reply in pairs:
        row, _, cycles, energy = direct[id(image)]
        if (not isinstance(reply, dict)
                or not np.array_equal(np.asarray(reply["logits"]), row)
                or reply["cycles"] != cycles
                or reply["energy_pj"] != energy):
            wrong += 1
    return wrong, direct


def served_stats(replies) -> dict:
    """Queue wait, service time and batch size of the replies the
    engine served (cache hits replay with zero timings; left out)."""
    executed = [r for r in replies if isinstance(r, dict)
                and r["service_ms"] > 0.0]
    if not executed:
        return {"queue_wait_ms": 0.0, "service_ms": 0.0, "batch": 0.0,
                "busy_ms": 0.0}
    return {"queue_wait_ms": common.median([r["queue_wait_ms"]
                                            for r in executed]),
            "service_ms": common.median([r["service_ms"]
                                         for r in executed]),
            "batch": float(np.mean([r["batch_size"] for r in executed])),
            "busy_ms": sum(r["service_ms"] / r["batch_size"]
                           for r in executed)}


def serve_workload(args, recorder) -> dict:
    model = SERVE[args.workload][0]
    inputs = serve_inputs(args.workload, args.seed, args.seconds)
    child, setups, readies = launch([str(HERE / "server_proc.py"), model],
                                    model)
    try:
        with recorder.span("serve.measure"):
            phases = asyncio.run(drive_server(readies[-1]["port"], inputs,
                                              args.seconds, recorder))
        stats = child.request("stats")
    finally:
        child.close()

    network = workload_network(model)
    same_network = stats["fingerprint"] == network_fingerprint(network)
    opened, saturated = phases["open"], phases["sat"]
    sat_items = sorted(saturated["replies"].items())
    pairs = (list(zip(inputs["warm"], phases["warm"]))
             + list(zip(inputs["open"], opened["replies"]))
             + [(inputs["sat"](i), reply) for i, reply in sat_items])
    wrong, direct = check_replies(network, pairs, inputs["model"])
    if not same_network:
        wrong = len(pairs)
    attempted = len(pairs)

    latencies = [latency for reply, latency
                 in zip(opened["replies"], opened["latency_ms"])
                 if isinstance(reply, dict)]
    sat_ok = sum(1 for _, reply in sat_items if isinstance(reply, dict))
    layer_totals: dict = {}
    for image in inputs["model"]:
        for layer in direct[id(image)][1].layers:
            totals = layer_totals.setdefault(
                layer.name, {"kind": layer.kind, "cycles": 0,
                             "adder_ops": 0})
            totals["cycles"] += layer.cycles + layer.dram_cycles
            totals["adder_ops"] += layer.adder_ops
    n_open, n_model = len(inputs["open"]), len(inputs["model"])
    for totals in layer_totals.values():
        totals["cycles"] /= n_model
        totals["adder_ops"] /= n_model
    metrics = phases["metrics"]
    cache_hit_frac = metrics["cached"] / max(metrics["completed"], 1)
    e2e = {
        "setup_s": common.median(setups),
        "throughput_ips": saturated["rate"],
        "lat_p50_ms": common.percentile(latencies, 50),
        "success_rate": 1.0 - wrong / attempted,
        "peak_rss_mb": stats["peak_rss_mb"],
        "model_cycles_per_img": float(np.mean(
            [direct[id(image)][2] for image in inputs["model"]])),
        "model_adder_ops_per_img": sum(
            t["adder_ops"] for t in layer_totals.values()),
    }
    layers = {}
    if args.trace:
        open_stats = served_stats(opened["replies"])
        sat_stats = served_stats([reply for _, reply in sat_items])
        fabric = metrics["fabric"]
        ladder = ladder_layers(model, inputs["warm"][0],
                               np.stack(inputs["warm"][:32]),
                               args.seconds / 4, recorder)
        layers = {
            "engine.compile_s": common.median(
                [r["compile_s"] for r in readies]),
            "runtime.start_s": common.median(
                [r["start_s"] for r in readies]),
            "runtime.lane_busy_frac": sat_stats["busy_ms"] / (
                saturated["elapsed_s"] * 1e3),
            "runtime.retries": fabric["retries"],
            "runtime.requeued": fabric["requeued"],
            "runtime.worker_crashes": fabric["worker_crashes"],
            "serve.queue_wait_ms.p50": open_stats["queue_wait_ms"],
            "serve.service_ms.p50": open_stats["service_ms"],
            "serve.batch_size.mean": open_stats["batch"],
            "serve.queue_wait_ms.p50.sat": sat_stats["queue_wait_ms"],
            "serve.service_ms.p50.sat": sat_stats["service_ms"],
            "serve.batch_size.mean.sat": sat_stats["batch"],
            "serve.cache_hit_frac": cache_hit_frac,
            "serve.lat_p90_ms": common.percentile(latencies, 90),
            "serve.lat_p99_ms": common.percentile(latencies, 99),
            "transport.gen_late_p99_ms": common.percentile(
                opened["lateness_ms"], 99),
            "sweep.units": 0, "sweep.stolen_units": 0,
            "sweep.lane_share_max": 0, "sweep.small.lane_share_max": 0,
            "sweep.small.throughput_ips": 0,
        }
        layers.update({k: v for k, v in ladder.items()
                       if not k.startswith("ladder.")})
        layers.update(codec_and_digest(inputs["open"][:64]))
        layers.update(model_layers(layer_totals))
    failed = wrong
    if args.workload == "lenet-serve" and metrics["cached"]:
        # Every LeNet image is unique: a cache hit is a wrong answer.
        failed = max(failed, metrics["cached"])
    return {"e2e": e2e, "layers": layers, "attempted": attempted,
            "failed": failed, "zero_layers": zero_layers(layer_totals),
            "info": {"setups_s": setups,
                     "build_s": [r["build_s"] for r in readies],
                     "open_requests": n_open,
                     "sat_replies": sat_ok,
                     "sat_rates": saturated["rates"],
                     "cache_hit_frac": cache_hit_frac,
                     "gen_late_p99_ms": common.percentile(
                         opened["lateness_ms"], 99),
                     "lat_p99_ms": common.percentile(latencies, 99)}}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    recorder = common.SpanRecorder(bool(args.trace))
    began = time.perf_counter()
    if args.workload == "vgg11-sweep":
        outcome = sweep_workload(args, recorder)
    else:
        outcome = serve_workload(args, recorder)
    reference_off = reference_mismatches(args.seed)

    failed = outcome["failed"] + reference_off
    correct = failed == 0 and not outcome["zero_layers"]
    info = dict(common.stamp(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                reference_mismatches=reference_off,
                zero_adder_layers=outcome["zero_layers"],
                calibrate_s=CALIBRATE_S,
                wall_s=time.perf_counter() - began, **outcome["info"])
    if args.trace:
        units = per_layer_units()
        values = outcome["layers"]
        path = (common.OUT_DIR
                / f"{args.workload}-seed{args.seed}.spans.jsonl")
        recorder.write(path, info)
        info["spans_file"] = str(path.relative_to(common.ROOT))
    else:
        units = END_TO_END_UNITS
        values = outcome["e2e"]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()}}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
