"""Shared pieces of the repository benchmark.

Host hygiene, the workload networks, seeded inputs, the span recorder,
process memory readings and small statistics.  Every benchmark process
calls :func:`prepare_process` before anything imports numpy, so BLAS
runs single-threaded and ``repro`` is imported from this checkout's
``src/`` and nowhere else.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: The networks are part of the system under test, not inputs: their
#: weights and calibration images use fixed seeds, so ``--seed`` varies
#: only the traffic and the sweep images.
NETWORK_SEED = 0
CALIBRATION_SEED = 7919
CALIBRATION_IMAGES = 16


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def prepare_process() -> None:
    """Pin BLAS to one thread and put this checkout's ``src/`` first.

    Must run before numpy is imported.  Exits with code 2 when the
    checkout holds no ``src/repro`` (the benchmark alone measures
    nothing).  SIGTERM becomes ``SystemExit``, so the ``finally``
    blocks that stop child processes run when the process is stopped.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("prepare_process() must run before numpy loads")
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    os.environ.update(THREAD_ENV)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; nothing to "
              "measure", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# Workload networks
# ----------------------------------------------------------------------
LENET_LAYERS = [("conv", 6, 5, 1, 0), ("pool", 2),
                ("conv", 16, 5, 1, 0), ("pool", 2),
                ("conv", 120, 5, 1, 0), ("flatten",),
                ("linear", 120), ("linear", 84), ("linear", 10)]

#: Every layer name a workload network can have, in network order
#: (LeNet uses a prefix of the convs and pools).
LAYER_NAMES = ([f"conv{i}" for i in range(1, 9)]
               + [f"pool{i}" for i in range(1, 6)]
               + ["flatten", "fc1", "fc2", "fc3"])


def vgg11_layers(width: float, num_classes: int = 100) -> list:
    """VGG-11 descriptors with every width (convs and the two hidden
    classifier layers) scaled by ``width``."""
    from repro.models import VGG11_CONV_PLAN

    layers = [("pool", 2) if entry == "P"
              else ("conv", max(1, round(entry * width)), 3, 1, 1)
              for entry in VGG11_CONV_PLAN]
    hidden = max(1, round(4096 * width))
    return layers + [("flatten",), ("linear", hidden), ("linear", hidden),
                     ("linear", num_classes)]


def model_spec(model: str) -> tuple[list, tuple, int]:
    """``(descriptors, input shape, T)`` of a workload network."""
    if model == "lenet":
        return LENET_LAYERS, (1, 32, 32), 3
    if model == "vgg11":
        return vgg11_layers(1.0), (3, 32, 32), 6
    if model == "vgg11-quarter":
        return vgg11_layers(0.25), EVENT_SHAPE, 6
    raise ValueError(f"unknown model {model!r}")


def build_network(model: str, scales: list | None = None):
    """The workload network: paper geometry and seeded random weights.

    ``performance_network`` scales each layer by ``1/(C*k*k*top)``, which
    silences random networks after the second pool.  Here each layer's
    scale instead maps the 99th percentile of its positive accumulators
    on the calibration images to ``2**T - 1``, so every layer stays
    active, as it would in a trained network.  Without ``scales`` the
    calibration pass runs here; with them (from :func:`layer_scales`
    of a calibrated network) it is skipped, so a timed launch builds
    only what the program itself builds.
    """
    from dataclasses import replace

    import numpy as np
    from repro.models import performance_network

    layers, shape, steps = model_spec(model)
    network = performance_network(layers, shape, steps, seed=NETWORK_SEED)
    if scales is not None:
        return replace(network, layers=tuple(
            spec if scale is None else replace(
                spec, scales=np.full(spec.scales.shape, scale))
            for spec, scale in zip(network.layers, scales)))
    if model == "lenet":
        images = digit_images(CALIBRATION_SEED, CALIBRATION_IMAGES)
    elif model == "vgg11":
        images = cifar_images(CALIBRATION_SEED, CALIBRATION_IMAGES)[0]
    else:
        rng = np.random.default_rng(CALIBRATION_SEED)
        images = np.stack([live_event_frame(rng, shape)
                           for _ in range(CALIBRATION_IMAGES)])
    return calibrate(network, images)


def layer_scales(network) -> list:
    """Each layer's (uniform) requantization scale, ``None`` where the
    calibration left the layer alone; what :func:`build_network` takes."""
    return [None if spec.kind in ("pool", "flatten")
            or (spec.kind == "linear" and spec.is_output)
            else float(spec.scales.flat[0]) for spec in network.layers]


def calibrate(network, images):
    """Rescale every requantized layer from a pass over ``images``."""
    from dataclasses import replace

    import numpy as np
    from repro.encoding import radix
    from repro.nn import functional as F
    from repro.snn.spec import requantize

    steps = network.num_steps
    top = (1 << steps) - 1
    x = radix.quantize_real(images, steps)
    layers = []
    for spec in network.layers:
        if spec.kind == "pool":
            window = F.avg_pool2d(x.astype(np.float64), spec.size,
                                  spec.stride)
            x = np.rint(window * spec.size * spec.size).astype(
                np.int64) >> spec.shift
        elif spec.kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        else:
            if spec.kind == "conv":
                acc, _ = F.conv2d(x.astype(np.float64),
                                  spec.weights.astype(np.float64), None,
                                  spec.stride, spec.padding)
                acc = np.rint(acc).astype(np.int64) + spec.bias.reshape(
                    1, -1, 1, 1)
            else:
                acc = np.rint(x.astype(np.float64)
                              @ spec.weights.T.astype(np.float64)
                              ).astype(np.int64) + spec.bias
            if spec.kind == "linear" and spec.is_output:
                x = acc
            else:
                positive = acc[acc > 0]
                reach = (float(np.percentile(positive, 99))
                         if positive.size else 1.0)
                spec = replace(spec, scales=np.full(
                    spec.scales.shape, top / max(reach, 1.0)))
                x = requantize(acc, spec.scales, steps, channel_axis=1)
        layers.append(spec)
    return replace(network, layers=tuple(layers))


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
class ImageStream:
    """An endless seeded image stream, made ``CHUNK`` images at a time as
    the load asks for them, so a faster server never runs out of
    distinct images.  ``make_chunk(k)`` returns the ``k``-th chunk."""

    CHUNK = 1024

    def __init__(self, make_chunk) -> None:
        self._make_chunk = make_chunk
        self.images: list = []

    def __getitem__(self, index: int):
        while index >= len(self.images):
            self.images += self._make_chunk(len(self.images) // self.CHUNK)
        return self.images[index]

    def take(self, start: int, count: int) -> list:
        return [self[index] for index in range(start, start + count)]


#: Distinct synthetic digits behind a digit stream.  The mean adder-op
#: count over the open loop averages over these, so more of them keep
#: ``model_adder_ops_per_img`` steadier from seed to seed.
DIGIT_BASE = 4096


def digit_images(seed: int, count: int):
    """``SyntheticMNIST`` digits, padded to 32x32."""
    from repro.data.mnist_synth import SyntheticMNIST

    return SyntheticMNIST(seed=seed).generate(count).images


def digit_stream(seed: list[int]) -> ImageStream:
    """Unique dense digit images: synthetic MNIST digits plus seeded
    low-amplitude noise, so no two images are byte-identical."""
    import numpy as np

    base_seed = int(np.random.default_rng(seed).integers(1 << 31))
    base = digit_images(base_seed, DIGIT_BASE)

    def chunk(k: int) -> list:
        rng = np.random.default_rng([*seed, k])
        picks = base[(k * ImageStream.CHUNK
                      + np.arange(ImageStream.CHUNK)) % len(base)] * 0.92
        picks += rng.uniform(0.0, 0.08, size=picks.shape)
        return list(np.clip(picks, 0.0, 1.0, out=picks))

    return ImageStream(chunk)


def cifar_images(seed: int, count: int):
    """``SyntheticCIFAR100`` images and labels."""
    from repro.data.cifar_synth import SyntheticCIFAR100

    dataset = SyntheticCIFAR100(seed=seed).generate(count)
    return dataset.images, dataset.labels


#: The event traffic mix is assumed, not measured: no recorded sensor
#: statistics back the 5% live-frame density or the 3/4 silent share.
#: The silent share sets event-serve's result-cache hit rate, and with
#: it most of that workload's latency and throughput, so event-serve
#: exercises the cache-hit and sparse-wire paths; its figures do not
#: stand for any real camera or frame interval.
EVENT_SHAPE = (2, 32, 32)        # ON/OFF polarity planes
EVENT_DENSITY = 0.05             # share of pixels with an event, live frames
EVENT_SILENT_FRAC = 0.75         # frames with no event at all


def live_event_frame(rng, shape=EVENT_SHAPE):
    """One event-camera frame: a blob of events around a moving point,
    split over the polarity planes, about 5% of pixels set."""
    import numpy as np

    channels, h, w = shape
    frame = np.zeros(shape, dtype=np.float64)
    count = max(1, round(EVENT_DENSITY * h * w))
    centre = rng.uniform((4, 4), (h - 4, w - 4))
    rows = np.clip(np.rint(rng.normal(centre[0], 3.0, count)), 0, h - 1)
    cols = np.clip(np.rint(rng.normal(centre[1], 3.0, count)), 0, w - 1)
    polarity = rng.integers(0, channels, count)
    frame[polarity, rows.astype(int), cols.astype(int)] = rng.uniform(
        0.5, 1.0, count)
    return frame


def event_stream(seed: list[int]) -> ImageStream:
    """Event-camera frames; each chunk has exactly ``EVENT_SILENT_FRAC``
    silent frames at seeded positions.  A chunk's silent frames share
    one zero array (they are byte-identical on the wire); live frames
    are fresh."""
    import numpy as np

    def chunk(k: int) -> list:
        rng = np.random.default_rng([*seed, k])
        count = ImageStream.CHUNK
        silent = np.zeros(EVENT_SHAPE, dtype=np.float64)
        is_silent = np.zeros(count, dtype=bool)
        is_silent[rng.permutation(count)[:round(count
                                                * EVENT_SILENT_FRAC)]] = True
        return [silent if flag else live_event_frame(rng)
                for flag in is_silent]

    return ImageStream(chunk)


# ----------------------------------------------------------------------
# Direct runs for the checks
# ----------------------------------------------------------------------
#: What the forked check processes read; set only for one
#: :func:`direct_run` call.
_DIRECT: dict = {}


def _direct_slice(bounds: tuple[int, int]):
    import numpy as np

    engine, images = _DIRECT["engine"], _DIRECT["images"]
    logits, traces = [], []
    for start in range(bounds[0], bounds[1], 32):
        batch_logits, batch_traces = engine.run_batch(
            np.asarray(images[start:min(start + 32, bounds[1])]))
        logits.append(batch_logits)
        traces += batch_traces
    return logits, traces


def direct_run(engine, images):
    """``engine.run_batch`` over ``images`` (an array, or a list of
    images) in batches of 32, split over two forked children.  Checks
    run off the clock, after the system under test has stopped, so they
    may use both cores; forking hands the children this process's warm
    engine without a rebuild.  Returns ``(logits, traces)`` in image
    order."""
    import gc
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import numpy as np

    # Collect executors the measured system already shut down, so the
    # forked children do not inherit their stale exit hooks.
    gc.collect()
    cuts = np.linspace(0, len(images), 3).astype(int)
    _DIRECT.update(engine=engine, images=images)
    try:
        with ProcessPoolExecutor(
                2, mp_context=multiprocessing.get_context("fork")) as pool:
            parts = list(pool.map(_direct_slice,
                                  zip(cuts[:-1].tolist(), cuts[1:].tolist())))
    finally:
        _DIRECT.clear()
    logits = np.concatenate([row for part, _ in parts for row in part])
    return logits, [trace for _, traces in parts for trace in traces]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans recorded around calls made from the benchmark.

    Each span has a name, start and end (``perf_counter`` seconds), the
    id of its parent span and an optional request id.  Disabled, every
    method returns at once and nothing is kept.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []

    def record(self, name: str, start: float, end: float,
               parent: int | None = None,
               request: int | None = None) -> int | None:
        if not self.enabled:
            return None
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end, "parent": parent,
                           "request": request})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: int | None = None,
             request: int | None = None):
        """Record a span around a block; yields the span id (or None)."""
        if not self.enabled:
            yield None
            return
        span_id = self.record(name, time.perf_counter(), 0.0, parent,
                              request)
        try:
            yield span_id
        finally:
            self.spans[span_id]["end"] = time.perf_counter()

    def adopt(self, spans: list[dict], parent: int | None) -> None:
        """Append spans recorded in another process under ``parent``."""
        offset = len(self.spans)
        for span in spans:
            copied = dict(span, id=span["id"] + offset)
            copied["parent"] = (parent if span["parent"] is None
                                else span["parent"] + offset)
            self.spans.append(copied)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds: each span's
        duration minus the part of it covered by its children."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"]))
        totals: dict[str, float] = {}
        for span in self.spans:
            covered = 0.0
            reach = span["start"]
            for start, end in sorted(children.get(span["id"], [])):
                start, end = max(start, reach), min(end, span["end"])
                if end > start:
                    covered += end - start
                    reach = end
            own = span["end"] - span["start"] - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Path, info: dict) -> None:
        """One JSON line of run info, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps(dict(info, self_times_s=self
                                         .self_times())) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# Host readings and statistics
# ----------------------------------------------------------------------
def emit(payload: dict) -> None:
    """One JSON line to stdout, flushed: how child processes answer."""
    print(json.dumps(payload), flush=True)


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def stamp() -> dict:
    """Ungated facts about the host and the code measured."""
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = 0
    for path in SRC.rglob("*.py"):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {"cpu_count": os.cpu_count(), "numpy": np.__version__,
            "commit": commit, "src_py_lines": src_lines}
