"""The telemetry plane: tracing, the unified registry, exposition.

The contracts pinned here:

* a traced request served over a **mixed** thread / process / remote-TCP
  lane group yields one connected span tree — every span's parent is in
  the tree (no orphans), worker-side ``lane_execute`` spans merge back
  across process and host boundaries, and the served predictions stay
  bit-identical to a direct engine run;
* the retroactive stage spans (admission → batch → dispatch → execute →
  reply) sum to the request's end-to-end span within 5% (by
  construction they sum exactly; the tolerance is the acceptance gate);
* tracing disabled is **free**: the tracer hands out the shared
  ``NULL_SPAN`` singleton, ``spans_started`` stays 0 across a full
  serve run, and the registry allocates no new series per request;
* the registry renders valid Prometheus text exposition (0.0.4) and a
  JSON mirror without breaking any legacy ``snapshot()`` shape;
* the HTTP scrape endpoint, the TCP ``op: "telemetry"`` / ``"traces"``
  surface, ``repro top`` rendering, heartbeat ages, chaos fault
  counters and the load generator's ``latency_out`` records all read
  from the same plane.
"""

import asyncio
import json
import urllib.request

import numpy as np
import pytest

from repro.models import performance_network
from repro.runtime import ChaosPolicy, WorkerServer
from repro.serve import (
    InferenceServer,
    LoadGenerator,
    ServerMetrics,
    TcpClient,
    start_tcp_server,
)
from repro.telemetry import (
    NULL_SPAN,
    FlightRecorder,
    MetricsRegistry,
    Span,
    Tracer,
    configure,
    get_registry,
    get_tracer,
    reset_telemetry,
    telemetry_summary,
)
from repro.telemetry.exposition import PROMETHEUS_CONTENT_TYPE, MetricsServer
from repro.telemetry.top import render_top


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends at the boot state (tracing off)."""
    reset_telemetry()
    yield
    reset_telemetry()


def tiny_network(rng, num_steps=3):
    return performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 5)],
        input_shape=(1, 8, 8), num_steps=num_steps,
        seed=int(rng.integers(1 << 16)))


def direct_predictions(network, images):
    from repro.core import AcceleratorConfig, compile_network, create_engine
    engine = create_engine(
        "vectorized",
        compile_network(network, AcceleratorConfig.for_network(network)))
    logits, _ = engine.run_batch(images)
    return logits.argmax(axis=1)


# ----------------------------------------------------------------------
# Registry units
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs", labelnames=("kind",))
        c.labels(kind="a").inc()
        c.labels(kind="a").inc(2)
        c.labels(kind="b").inc()
        assert c.labels(kind="a").value == 3.0
        assert c.value == 4.0

        g = reg.gauge("depth", "queue depth")
        g.set(7)
        g.inc(-2)
        assert g.value == 5.0

        h = reg.histogram("lat_ms", "latency", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        child = h.labels()
        assert child.count == 3 and child.sum == 55.5
        assert child.counts == [1, 1, 1]  # <=1, <=10, +Inf

    def test_get_or_create_shares_and_type_checks(self):
        reg = MetricsRegistry()
        a = reg.counter("n", "first")
        b = reg.counter("n", "second registration ignored")
        assert a is b
        with pytest.raises(TypeError):
            reg.gauge("n")

    def test_labels_children_are_cached(self):
        """The per-request path is a cached-child lookup, never an
        allocation: asking for the same label set twice returns the
        same object and num_series stays put."""
        reg = MetricsRegistry()
        fam = reg.counter("x_total", "", labelnames=("lane",))
        child = fam.labels(lane="w0")
        before = reg.num_series
        for _ in range(100):
            assert fam.labels(lane="w0") is child
        assert reg.num_series == before

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", "requests",
                    labelnames=("deployment",)).labels(
                        deployment="lenet:3").inc(5)
        h = reg.histogram("lat_ms", "latency", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        text = reg.to_prometheus()
        lines = text.strip().splitlines()
        assert "# HELP lat_ms latency" in lines
        assert "# TYPE lat_ms histogram" in lines
        assert "# TYPE reqs_total counter" in lines
        assert 'reqs_total{deployment="lenet:3"} 5' in lines
        assert 'lat_ms_bucket{le="1"} 1' in lines
        assert 'lat_ms_bucket{le="10"} 2' in lines
        assert 'lat_ms_bucket{le="+Inf"} 2' in lines
        assert "lat_ms_sum 5.5" in lines
        assert "lat_ms_count 2" in lines
        # Every non-comment line is "name{labels} value" — parseable.
        for line in lines:
            if not line.startswith("#"):
                name_part, value = line.rsplit(" ", 1)
                assert name_part
                float(value.replace("+Inf", "inf"))

    def test_to_dict_mirrors_series(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "help here",
                    labelnames=("k",)).labels(k="v").inc(2)
        payload = reg.to_dict()
        assert payload["c_total"]["type"] == "counter"
        assert payload["c_total"]["help"] == "help here"
        assert payload["c_total"]["series"] == [
            {"labels": {"k": "v"}, "value": 2.0}]
        json.dumps(payload)  # wire-safe

    def test_samplers_run_at_scrape_time(self):
        reg = MetricsRegistry()
        state = {"depth": 3}
        reg.register_sampler(
            lambda: reg.gauge("d", "").set(state["depth"]))
        assert "d 3" in reg.to_prometheus()
        state["depth"] = 9
        assert "d 9" in reg.to_prometheus()


# ----------------------------------------------------------------------
# Tracer units
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_hands_out_the_null_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("request")
        assert span is NULL_SPAN
        assert not span  # falsy, so `if request.span:` skips all work
        span.set(anything=1)
        assert span.finish() is NULL_SPAN
        assert tracer.spans_started == 0
        assert tracer.spans_finished == 0

    def test_span_tree_and_context_propagation(self):
        tracer = Tracer(enabled=True)
        root = tracer.span("request")
        child = tracer.span("execute", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        # A worker on the far side of a wire continues the context.
        remote = Span.child_of(child.context(), "lane_execute")
        assert remote.trace_id == root.trace_id
        assert remote.parent_id == child.span_id

    def test_explicit_boundaries_sum_exactly(self):
        tracer = Tracer(enabled=True)
        t0, t1, t2 = 100.0, 100.25, 100.75
        root = tracer.span("request", started_at=t0)
        a = tracer.span("wait", parent=root, started_at=t0).finish(at=t1)
        b = tracer.span("run", parent=root, started_at=t1).finish(at=t2)
        root.finish(at=t2)
        assert a.duration_ms + b.duration_ms == pytest.approx(
            root.duration_ms)

    def test_record_foreign_merges_and_recorder_groups(self):
        tracer = Tracer(enabled=True)
        root = tracer.span("request")
        foreign = Span.child_of(root.context(), "lane_execute")
        foreign.finish()
        tracer.record_foreign([foreign.to_dict()])
        root.finish()
        traces = tracer.recorder.traces()
        assert len(traces) == 1
        assert traces[0]["trace_id"] == root.trace_id
        assert traces[0]["num_spans"] == 2
        assert traces[0]["root"] == "request"

    def test_recorder_is_bounded(self):
        recorder = FlightRecorder(capacity=8)
        for i in range(50):
            recorder.record({"trace_id": f"t{i}", "name": "x",
                             "parent_id": None, "duration_ms": 1.0})
        assert len(recorder.spans()) == 8

    def test_summary_rolls_up_per_stage(self):
        configure(tracing=True)
        tracer = get_tracer()
        tracer.span("execute", started_at=0.0).finish(at=0.010)
        tracer.span("execute", started_at=0.0).finish(at=0.020)
        summary = telemetry_summary()
        assert summary["tracing_enabled"] is True
        assert summary["spans_total"] == 2
        assert summary["per_stage_spans"] == {"execute": 2}
        assert summary["per_stage_ms"]["execute"] == pytest.approx(
            30.0, abs=0.01)


# ----------------------------------------------------------------------
# The acceptance contract: one connected trace across a mixed fabric
# ----------------------------------------------------------------------
class TestMixedFabricTrace:
    def test_mixed_lanes_single_connected_trace(self, rng):
        """Thread + process + remote-TCP lanes, traced: every request's
        span tree is connected (no orphans), stage durations sum to the
        end-to-end span within 5%, remote lane spans are attributed and
        cross the wire, and predictions are bit-identical to direct."""
        net = tiny_network(rng)
        images = rng.random((8,) + net.input_shape)
        expected = direct_predictions(net, images)

        configure(tracing=True)
        tracer = get_tracer()

        worker = WorkerServer().start()
        spec = f"127.0.0.1:{worker.port}"

        async def serve(workers):
            async with InferenceServer(
                    net, max_batch=4, max_wait_ms=10.0,
                    workers=workers) as server:
                return await server.submit_many(images)

        try:
            results = asyncio.run(serve([spec, "process", "thread"]))
            # The mixed group does not guarantee which lane wins a
            # batch, so the remote leg below re-serves through the TCP
            # lane alone — that makes the wire crossing deterministic.
            remote_results = asyncio.run(serve([spec]))
        finally:
            worker.close()

        np.testing.assert_array_equal(
            [r.prediction for r in results], expected)

        spans = tracer.recorder.spans()
        by_trace: dict = {}
        for span in spans:
            by_trace.setdefault(span["trace_id"], []).append(span)
        # One trace per request per leg, each with its own id on the
        # result (the recorder holds both legs: 2 x 8 distinct traces).
        mixed_ids = {r.trace_id for r in results}
        assert len(mixed_ids) == len(results)
        assert len(by_trace) == len(results) + len(
            {r.trace_id for r in remote_results})
        for result in results:
            tree = by_trace[result.trace_id]
            ids = {s["span_id"] for s in tree}
            orphans = [s for s in tree
                       if s["parent_id"] and s["parent_id"] not in ids]
            assert orphans == []  # connected: every parent is present
            request = next(s for s in tree if s["name"] == "request")
            stages = [s for s in tree
                      if s["parent_id"] == request["span_id"]
                      and s["name"] in ("admission", "batch", "dispatch",
                                        "execute", "reply")]
            assert sorted(s["name"] for s in stages) == [
                "admission", "batch", "dispatch", "execute", "reply"]
            stage_sum = sum(s["duration_ms"] for s in stages)
            assert stage_sum == pytest.approx(
                request["duration_ms"],
                rel=0.05)  # the ±5% acceptance gate
        # Every lane_execute merged back is attributed to its lane —
        # thread and process lanes stamp their own name, remote spans
        # get the client-edge lane identity stamped on merge.
        lane_spans = [s for s in spans if s["name"] == "lane_execute"]
        assert lane_spans, "no lane_execute spans merged back"
        assert all(s["attrs"].get("worker") for s in lane_spans)

        # Remote-only leg: every batch crossed the TCP hop, so each
        # request's tree must contain an exchange span (the wire-side
        # stage) parenting a lane_execute attributed to the remote lane.
        np.testing.assert_array_equal(
            [r.prediction for r in remote_results], expected)
        remote_ids = {r.trace_id for r in remote_results}
        remote_spans = [s for s in tracer.recorder.spans()
                        if s["trace_id"] in remote_ids]
        exchanges = {s["span_id"] for s in remote_spans
                     if s["name"] == "exchange"}
        remote_lane = [s for s in remote_spans
                       if s["name"] == "lane_execute"]
        assert remote_lane, "no lane_execute came back over the wire"
        for span in remote_lane:
            assert span["attrs"]["worker"].startswith("remote")
            assert span["parent_id"] in exchanges

    def test_overhead_guard_disabled_tracing_is_free(self, rng):
        """Tracing off: zero spans started and zero new registry series
        per request across a full serve run."""
        net = tiny_network(rng)
        images = rng.random((6,) + net.input_shape)

        async def run_once():
            async with InferenceServer(net, max_batch=4,
                                       max_wait_ms=5.0) as server:
                return await server.submit_many(images)

        asyncio.run(run_once())
        tracer = get_tracer()
        assert tracer.spans_started == 0
        assert tracer.spans_finished == 0
        assert tracer.recorder.spans() == []
        # Instruments exist (one series per label set), but more
        # requests must not allocate more series.
        series_after_first_run = get_registry().num_series
        asyncio.run(run_once())
        assert get_registry().num_series == series_after_first_run


# ----------------------------------------------------------------------
# Exposition: HTTP scrape + TCP op surface + top rendering
# ----------------------------------------------------------------------
class TestExposition:
    def test_http_endpoints(self):
        configure(tracing=True)
        get_registry().counter("probe_total", "probe").inc(3)
        get_tracer().span("request").finish()
        with MetricsServer(snapshot_fn=lambda: {"completed": 1}) as ms:
            with urllib.request.urlopen(f"{ms.url}/metrics") as reply:
                assert reply.headers["Content-Type"] == \
                    PROMETHEUS_CONTENT_TYPE
                text = reply.read().decode()
            assert "probe_total 3" in text
            with urllib.request.urlopen(f"{ms.url}/metrics.json") as reply:
                payload = json.loads(reply.read())
            assert payload["metrics"]["probe_total"]["series"][0][
                "value"] == 3.0
            assert payload["server"] == {"completed": 1}
            with urllib.request.urlopen(f"{ms.url}/traces?limit=4") as reply:
                traces = json.loads(reply.read())
            assert traces["traces"][0]["root"] == "request"
            with urllib.request.urlopen(f"{ms.url}/healthz") as reply:
                assert reply.read() == b"ok\n"

    def test_tcp_telemetry_and_traces_ops(self, rng):
        net = tiny_network(rng)
        images = rng.random((4,) + net.input_shape)
        configure(tracing=True)

        async def main():
            async with InferenceServer(net, max_batch=4) as server:
                tcp, port = await start_tcp_server(server)
                async with TcpClient("127.0.0.1", port) as client:
                    for image in images:
                        await client.infer(image)
                    telemetry = await client.telemetry()
                    traces = await client.traces(limit=8)
                tcp.close()
                await tcp.wait_closed()
                return telemetry, traces

        telemetry, traces = asyncio.run(main())
        assert telemetry["repro_requests_total"]["series"][0][
            "value"] == 4.0
        assert traces["traces"]  # the flight recorder answered live
        names = {s["name"] for t in traces["traces"] for s in t["spans"]}
        assert "lane_execute" in names and "request" in names

    def test_render_top_frame(self):
        snapshot = {
            "throughput_rps": 123.4, "queue_depth": 2, "completed": 10,
            "rejected": 1, "timed_out": 0, "deduped": 0,
            "per_deployment": {
                "lenet:3": {"throughput_rps": 123.4, "queue_depth": 2,
                            "mean_batch_size": 3.2, "completed": 10,
                            "latency_ms": {"p50": 4.0, "p99": 9.0},
                            "queue_wait_ms": {"p99": 2.0}}},
            "fabric": {"executed": {"thread-0": 10}, "stolen": 3,
                       "batched": 2, "retries": 0, "requeued": 0,
                       "worker_crashes": 0, "poisoned": 0, "deduped": 0,
                       "heartbeat_age_s": {"thread-0": 0.4}},
        }
        telemetry = {
            "repro_chaos_faults_total": {"series": [
                {"labels": {"site": "dispatch", "action": "kill"},
                 "value": 2}]},
            "repro_spans_finished": {"series": [{"labels": {},
                                                 "value": 70}]},
        }
        frame = render_top(snapshot, telemetry, target="127.0.0.1:7000")
        assert "repro top - 127.0.0.1:7000" in frame
        assert "lenet:3" in frame and "123.4" in frame
        assert "thread-0" in frame and "0.4" in frame
        assert "stolen=3" in frame
        assert "site=dispatch,action=kill: 2" in frame.replace(
            "action=kill,site=dispatch", "site=dispatch,action=kill")
        assert "tracing: 70 spans recorded" in frame


# ----------------------------------------------------------------------
# Satellites: heartbeat ages, chaos counters, codec bytes, latency_out
# ----------------------------------------------------------------------
class TestSatellites:
    def test_group_metrics_export_heartbeat_age(self, rng):
        net = tiny_network(rng)
        images = rng.random((2,) + net.input_shape)

        async def main():
            async with InferenceServer(net, engines=2) as server:
                await server.submit_many(images)
                return server.snapshot()

        snapshot = asyncio.run(main())
        ages = snapshot.fabric["heartbeat_age_s"]
        assert ages  # one entry per lane that ever heartbeat
        for age in ages.values():
            assert 0.0 <= age < 60.0

    def test_chaos_faults_feed_the_registry(self):
        policy = ChaosPolicy(kill={"lane-1": 1})
        assert policy.dispatch_fate("lane-1") == "kill"
        series = get_registry().to_dict()[
            "repro_chaos_faults_total"]["series"]
        assert series == [{"labels": {"site": "dispatch",
                                      "action": "kill"}, "value": 1.0}]
        # The legacy summary shape is untouched.
        assert policy.summary()["by_site"] == {"dispatch:kill": 1}

    def test_codec_byte_counters(self):
        from repro.runtime.codec import decode_frame, encode_frame
        frame = encode_frame({"payload": True},
                             {"x": np.zeros((4, 4), dtype=np.float64)})
        header_len = int.from_bytes(frame[4:8], "little")
        decode_frame(frame[16:16 + header_len], frame[16 + header_len:])
        series = get_registry().to_dict()[
            "repro_codec_bytes_total"]["series"]
        by_labels = {(s["labels"]["direction"], s["labels"]["encoding"]):
                     s["value"] for s in series}
        assert by_labels[("sent", "binary")] >= 128  # the array body
        assert by_labels[("received", "binary")] == len(frame)

    def test_server_metrics_snapshot_shape_unchanged(self):
        """Feeding the registry must not change the legacy snapshot."""
        labeled = ServerMetrics(deployment="lenet:3")
        plain = ServerMetrics()
        for m in (labeled, plain):
            m.record(latency_ms=5.0, queue_wait_ms=1.0, service_ms=4.0,
                     batch_size=2)
            m.record_rejected()
        assert labeled.snapshot().to_dict().keys() == \
            plain.snapshot().to_dict().keys()
        # Only the labeled collector fed the registry (no double count).
        series = get_registry().to_dict()["repro_requests_total"]["series"]
        assert series == [{"labels": {"deployment": "lenet:3"},
                           "value": 1.0}]

    def test_loadgen_latency_out_records(self, rng, tmp_path):
        net = tiny_network(rng)
        images = rng.random((5,) + net.input_shape)
        out = tmp_path / "latency.jsonl"
        configure(tracing=True)

        async def main():
            async with InferenceServer(net, max_batch=4) as server:
                return await LoadGenerator(
                    server.submit, rate_rps=2000.0,
                    latency_out=str(out)).run(images)

        report = asyncio.run(main())
        assert report.completed == 5
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert [r["index"] for r in records] == list(range(5))
        for record in records:
            assert record["ok"] is True
            assert record["latency_ms"] > 0
            assert record["trace_id"]  # joinable against the recorder
        recorded_ids = {s["trace_id"]
                        for s in get_tracer().recorder.spans()}
        assert {r["trace_id"] for r in records} <= recorded_ids

    def test_artifact_stamp_carries_telemetry(self, tmp_path):
        from benchmarks.conftest import write_artifact
        configure(tracing=True)
        get_tracer().span("execute", started_at=0.0).finish(at=0.005)
        path = tmp_path / "bench_probe.json"
        write_artifact(path, {"value": 1})
        payload = json.loads(path.read_text())
        assert payload["value"] == 1
        assert payload["telemetry"]["spans_total"] == 1
        assert "execute" in payload["telemetry"]["per_stage_ms"]
