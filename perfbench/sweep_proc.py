"""The sweep driver process of the ``vgg11-sweep`` workload.

Reads the calibrated layer scales as one JSON line on stdin, builds
full-geometry VGG-11 with them, compiles it, starts a
:class:`~repro.runtime.WorkerGroup` of two process lanes and prints one
``ready`` JSON line.  Then it reads one command from stdin: ``quit``
stops the lanes (a set-up-only launch); ``run <seed> <seconds> <images>
<trace>`` sweeps the seeded images through :class:`SweepDriver` until
``seconds`` have passed, checks every shard against a direct
``run_batch`` off the clock, and prints one ``result`` JSON line.  A
traced run first times a few one-shard-per-lane sweeps.

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import common

common.prepare_process()

import numpy as np  # noqa: E402

from repro.core.config import AcceleratorConfig  # noqa: E402
from repro.core.engine import warm_compile, warm_engine  # noqa: E402
from repro.core.engine.trace import TraceMerge  # noqa: E402
from repro.harness.sweep import (SweepDriver, SweepTask,  # noqa: E402
                                 shard_tasks)
from repro.runtime import (Deployment, ResultLedger, WorkerGroup,  # noqa: E402
                           create_workers)

LANES = ["process", "process"]
WARMUP_IMAGES = 128
SMALL_IMAGES = 128
SMALL_SWEEPS = 6


class RecordingLedger(ResultLedger):
    """The group's result ledger, also keeping every completed result
    so the sweep's logits and per-image traces can be checked."""

    def __init__(self) -> None:
        super().__init__()
        self.results: list = []      # (perf_counter at record, result)

    def record(self, key, result) -> bool:
        self.results.append((time.perf_counter(), result))
        return super().record(key, result)


def lane_share(results) -> float:
    """Share of a sweep's images that its busiest lane ran."""
    per_lane = Counter()
    for _, result in results:
        per_lane[result.worker] += len(result.logits)
    return max(per_lane.values()) / sum(per_lane.values())


def check(engine, images, runs) -> dict:
    """Compare every recorded shard with a direct ``run_batch``."""
    logits, traces = common.direct_run(engine, images)
    merges, layers = [], {}
    for trace in traces:
        merges.append(TraceMerge.from_traces([trace]))
        for layer in trace.layers:
            totals = layers.setdefault(layer.name, [layer.kind, 0, 0])
            totals[1] += layer.cycles + layer.dram_cycles
            totals[2] += layer.adder_ops
    expected = [merge.to_dict() for merge in merges]
    mismatched = 0
    for run in runs:
        count = run["count"]
        total = TraceMerge()
        for merge in merges[:count]:
            total.merge(merge)
        bad = 0
        for _, result in run["results"]:
            unit = run["units"][result.item_id]
            got = [merge.to_dict() for merge in result.image_traces]
            if (not np.array_equal(result.logits,
                                   logits[unit.start:unit.stop])
                    or got != expected[unit.start:unit.stop]):
                bad += unit.stop - unit.start
        outcome = run["outcome"]
        if (not np.array_equal(outcome.predictions,
                               logits[:count].argmax(axis=1))
                or outcome.trace.to_dict() != total.to_dict()):
            bad = count
        mismatched += bad
    count = len(images)
    return {
        "mismatched_images": mismatched,
        "cycles_per_img": sum(m.total_cycles for m in merges) / count,
        "adder_ops_per_img": sum(m.adder_ops for m in merges) / count,
        "layers": {name: {"kind": kind, "cycles": cycles / count,
                          "adder_ops": ops / count}
                   for name, (kind, cycles, ops) in layers.items()},
    }


def sweep(group, ledger, network, config, seed, seconds, count,
          recorder) -> dict:
    images, labels = common.cifar_images(seed, count + WARMUP_IMAGES)
    driver = SweepDriver(workers=LANES)

    def one(key: str, size: int) -> dict:
        ledger.results = []
        task = SweepTask(key=key, network=network, config=config,
                         images=images[:size], labels=labels[:size])
        start = time.perf_counter()
        with recorder.span("SweepDriver.run"):
            outcome = driver.run([task], group=group)[task.key]
        wall = time.perf_counter() - start
        summary = driver.last_summary
        return {"results": list(ledger.results), "outcome": outcome,
                "units": shard_tasks([task], driver.shard_size),
                "count": size, "start": start, "wall": wall,
                "lane_s": outcome.elapsed_s,
                "lane_share": lane_share(ledger.results),
                "units_run": summary.num_units,
                "stolen": summary.stolen_units}

    # One untimed sweep on other images first: the lanes touch their
    # buffers and the group learns their service times.
    driver.run([SweepTask(key="warmup", network=network, config=config,
                          images=images[count:], labels=labels[count:])],
               group=group)
    images, labels = images[:count], labels[:count]
    # One default shard per lane: the size at which the dispatcher can
    # hand both shards to one lane.  Traced runs only, off the gated
    # clock, and before the full sweeps: after those the split was not
    # seen again.
    small = [one(f"small-{index}", SMALL_IMAGES)
             for index in range(SMALL_SWEEPS if recorder.enabled else 0)]
    runs, latencies = [], []
    began = time.perf_counter()
    while not runs or time.perf_counter() - began < seconds:
        runs.append(one(f"vgg11-{len(runs)}", count))
        # A shard's latency runs from the sweep's start to the moment
        # its result reached the ledger; it counts once per image.
        for finished, result in runs[-1]["results"]:
            latencies += ([(finished - runs[-1]["start"]) * 1e3]
                          * len(result.logits))
    return {"images": images, "runs": runs, "small": small,
            "latencies_ms": latencies}


def main() -> int:
    scales = json.loads(sys.stdin.readline())
    started = time.perf_counter()
    network = common.build_network("vgg11", scales)
    built = time.perf_counter()
    config = AcceleratorConfig.for_network(network)
    warm_compile(network, config)
    compiled = time.perf_counter()
    # Built before the lanes fork, so they inherit the warm engine.
    engine = warm_engine(network, config)
    ledger = RecordingLedger()
    group = WorkerGroup(create_workers(LANES),
                        deployments=[Deployment(network, config)],
                        ledger=ledger)
    lane_start = time.perf_counter()
    group.start()
    ready = time.perf_counter()
    common.emit({"event": "ready", "build_s": built - started,
                 "compile_s": compiled - built,
                 "start_s": ready - lane_start})
    try:
        command = sys.stdin.readline().split()
        if not command or command[0] != "run":
            return 0
        seed, seconds, count, traced = (int(command[1]),
                                        float(command[2]),
                                        int(command[3]),
                                        command[4] == "1")
        recorder = common.SpanRecorder(traced)
        measured = sweep(group, ledger, network, config, seed, seconds,
                         count, recorder)
        rss = common.peak_rss_mb() + sum(
            common.peak_rss_mb(worker.pid) for worker in group.workers)
        fabric = group.metrics.to_dict()
    finally:
        group.stop()
    runs, small = measured["runs"], measured["small"]
    checked = check(engine, measured["images"], runs + small)
    common.emit({
        "event": "result",
        "walls": [run["wall"] for run in runs],
        "attempted": sum(run["count"] for run in runs + small),
        "latencies_ms": measured["latencies_ms"],
        "lane_busy": [run["lane_s"] / (run["wall"] * len(LANES))
                      for run in runs],
        "lane_share": [run["lane_share"] for run in runs],
        "small_walls": [run["wall"] for run in small],
        "small_images": SMALL_IMAGES,
        "small_lane_share": [run["lane_share"] for run in small],
        "units": [run["units_run"] for run in runs],
        "stolen": [run["stolen"] for run in runs],
        "retries": fabric["retries"], "requeued": fabric["requeued"],
        "worker_crashes": fabric["worker_crashes"],
        "peak_rss_mb": rss, "check": checked,
        "spans": recorder.spans})
    return 0


if __name__ == "__main__":
    sys.exit(main())
