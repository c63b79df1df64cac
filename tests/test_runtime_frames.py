"""Zero-copy dispatch: binary frames, shm lanes, batched submission.

The contracts pinned here:

* the binary frame codec round-trips arrays bit-for-bit — raw or COO —
  and rejects every malformed or hostile frame with a typed
  :class:`~repro.errors.CodecError` *before* allocating a buffer for
  it (truncations, oversized length prefixes, dtype smuggling,
  out-of-bounds descriptors, COO expansion past the per-frame cap);
* the blocking and the asyncio stream readers agree on every input;
* frames are the only wire format, from the first byte of a connection:
  remote lanes merge bit-identically to an in-process lane, and a
  deployment table larger than the 1 MiB header cap deploys to both
  ``--listen`` and ``--join`` lanes;
* the shared-memory lane of :class:`ProcessWorker` is equally inert:
  ``REPRO_NO_SHM=1`` (the pickle path) produces the same bits;
* batched submission (``submit_many`` into ``execute_many`` chunks)
  returns the same results as item-at-a-time dispatch, with per-item
  task errors failing only their own future.
"""

import asyncio
import io
import json
import pickle
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError, DeploymentError
from repro.core import AcceleratorConfig
from repro.models import performance_network
from repro.runtime import (
    Deployment,
    GroupListener,
    ProcessWorker,
    RemoteWorker,
    ThreadWorker,
    WorkItem,
    WorkerGroup,
    WorkerServer,
    decode_frame,
    encode_frame,
    join_fabric,
    parse_frame_prefix,
    read_frame,
    shm_available,
)
from repro.runtime import codec
from repro.runtime.codec import (
    _WIRE_DTYPES,
    FRAME_MAGIC,
    FRAME_PREFIX_LEN,
    MAX_BODY_BYTES,
    MAX_COO_DENSE_BYTES,
    MAX_HEADER_BYTES,
    read_frame_async,
)
from test_runtime import make_items, run_group, tiny_deployment

_PREFIX = struct.Struct("<4sIQ")


def frame_of(header: dict, body: bytes = b"") -> bytes:
    """Hand-assemble a frame from a raw header dict (for hostile tests)."""
    raw = json.dumps(header).encode()
    return _PREFIX.pack(FRAME_MAGIC, len(raw), len(body)) + raw + body


class TestBinaryFrameRoundtrip:
    def test_payload_and_arrays_bit_identical(self, rng):
        arrays = {
            "images": rng.random((3, 1, 8, 8)),
            "ids": np.arange(7, dtype=np.int32),
            "mask": rng.random(300) < 0.5,
        }
        payload = {"op": "execute", "nested": {"a": [1, 2.5, None]}}
        frame = encode_frame(payload, arrays)
        reader = io.BytesIO(frame)
        decoded_payload, decoded = read_frame(reader)
        assert decoded_payload == payload
        assert reader.read() == b""  # frame is self-delimiting
        for name, array in arrays.items():
            np.testing.assert_array_equal(decoded[name], array)
            assert decoded[name].dtype == array.dtype

    def test_int_and_empty_arrays_roundtrip(self, rng):
        for array in (rng.integers(-5, 99, size=(4, 5)),
                      np.zeros((2, 0, 3)),
                      np.zeros((0, 1, 8, 8))):
            _, decoded = read_frame(io.BytesIO(
                encode_frame({}, {"x": array})))
            assert decoded["x"].dtype == array.dtype
            assert decoded["x"].shape == array.shape
            np.testing.assert_array_equal(decoded["x"], array)

    def test_raw_arrays_are_zero_copy_views(self, rng):
        array = rng.random((4, 4))
        frame = encode_frame({}, {"x": array})
        _, decoded = read_frame(io.BytesIO(frame))
        assert not decoded["x"].flags.writeable  # view into the body
        np.testing.assert_array_equal(decoded["x"], array)

    def test_sparse_arrays_ship_as_coo_and_rebuild_exactly(self, rng):
        dense = np.zeros(4096)
        hot = rng.choice(4096, size=64, replace=False)
        dense[hot] = rng.random(64)
        frame = encode_frame({}, {"x": dense})
        # The COO form must actually be smaller than the raw buffer.
        assert len(frame) < dense.nbytes
        header_len, _ = parse_frame_prefix(frame[:FRAME_PREFIX_LEN])
        header = json.loads(frame[FRAME_PREFIX_LEN:
                                  FRAME_PREFIX_LEN + header_len])
        assert header["arrays"]["x"]["enc"] == "coo"
        _, decoded = read_frame(io.BytesIO(frame))
        np.testing.assert_array_equal(decoded["x"], dense)

    def test_dense_and_tiny_arrays_stay_raw(self, rng):
        for array in (rng.random(4096),            # dense
                      np.zeros(16)):               # sparse but tiny
            frame = encode_frame({}, {"x": array})
            header_len, _ = parse_frame_prefix(frame[:FRAME_PREFIX_LEN])
            header = json.loads(frame[FRAME_PREFIX_LEN:
                                      FRAME_PREFIX_LEN + header_len])
            assert header["arrays"]["x"]["enc"] == "raw"

    def test_clean_eof_returns_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_object_arrays_refused_at_encode(self):
        with pytest.raises(CodecError, match="non-wire dtype"):
            encode_frame({}, {"x": np.array([object()])})


class TestHostileFrames:
    """Every malformed frame fails typed, before any allocation."""

    def test_truncated_prefix(self):
        with pytest.raises(CodecError, match="truncated frame prefix"):
            read_frame(io.BytesIO(b"RBF1\x01"))

    def test_bad_magic(self):
        prefix = _PREFIX.pack(b"EVIL", 2, 0)
        with pytest.raises(CodecError, match="bad frame magic"):
            parse_frame_prefix(prefix)

    def test_oversized_header_length(self):
        prefix = _PREFIX.pack(FRAME_MAGIC, MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(CodecError, match="header length"):
            parse_frame_prefix(prefix)

    def test_oversized_body_length(self):
        """A 16-exabyte length prefix is rejected from 16 bytes alone."""
        prefix = _PREFIX.pack(FRAME_MAGIC, 2, 1 << 60)
        with pytest.raises(CodecError, match="body length"):
            parse_frame_prefix(prefix)
        assert MAX_BODY_BYTES < 1 << 60

    def test_truncated_header(self):
        frame = encode_frame({"op": "ping"}, {})
        with pytest.raises(CodecError, match="truncated in header"):
            read_frame(io.BytesIO(frame[:FRAME_PREFIX_LEN + 3]))

    def test_truncated_body(self, rng):
        frame = encode_frame({}, {"x": rng.random(32)})
        with pytest.raises(CodecError, match="truncated in body"):
            read_frame(io.BytesIO(frame[:-10]))

    def test_header_not_json(self):
        raw = b"\xff\xfenot json"
        frame = _PREFIX.pack(FRAME_MAGIC, len(raw), 0) + raw
        with pytest.raises(CodecError, match="not valid JSON"):
            read_frame(io.BytesIO(frame))

    def test_dtype_smuggling_rejected(self):
        """object/void/structured dtypes never reach np.dtype."""
        for dtype in ("object", "O", "V8", "float64,float64", "U16",
                      "complex128", None, 7):
            frame = frame_of(
                {"payload": {}, "arrays": {
                    "x": {"dtype": dtype, "shape": [1], "enc": "raw",
                          "offset": 0, "nbytes": 8}}},
                body=b"\0" * 8)
            with pytest.raises(CodecError, match="smuggles dtype"):
                read_frame(io.BytesIO(frame))

    def test_shape_byte_accounting_enforced(self):
        frame = frame_of(
            {"payload": {}, "arrays": {
                "x": {"dtype": "float64", "shape": [4], "enc": "raw",
                      "offset": 0, "nbytes": 8}}},  # 4 floats need 32
            body=b"\0" * 8)
        with pytest.raises(CodecError, match="holds 8 bytes"):
            read_frame(io.BytesIO(frame))

    def test_declared_elements_over_cap(self):
        frame = frame_of(
            {"payload": {}, "arrays": {
                "x": {"dtype": "float64", "shape": [1 << 40],
                      "enc": "raw", "offset": 0, "nbytes": 8}}},
            body=b"\0" * 8)
        with pytest.raises(CodecError, match="over cap"):
            read_frame(io.BytesIO(frame))

    def test_buffer_slice_outside_body(self):
        frame = frame_of(
            {"payload": {}, "arrays": {
                "x": {"dtype": "float64", "shape": [1], "enc": "raw",
                      "offset": 4096, "nbytes": 8}}},
            body=b"\0" * 8)
        with pytest.raises(CodecError, match="outside the"):
            read_frame(io.BytesIO(frame))

    def test_coo_index_out_of_range(self):
        indices = np.array([3], dtype=np.uint32).tobytes()
        values = np.array([1.0]).tobytes()
        frame = frame_of(
            {"payload": {}, "arrays": {
                "x": {"dtype": "float64", "shape": [2], "enc": "coo",
                      "count": 1, "index_offset": 0, "index_nbytes": 4,
                      "offset": 4, "nbytes": 8}}},
            body=indices + values)
        with pytest.raises(CodecError, match="index out of range"):
            read_frame(io.BytesIO(frame))

    def test_coo_expansion_capped_per_frame(self):
        """A few hundred header bytes may not demand a gigabyte of
        zeros: every COO allocation is checked against what is left of
        the frame's cap first."""
        huge = frame_of(
            {"payload": {}, "arrays": {
                "x": {"dtype": "float64", "shape": [1 << 27],
                      "enc": "coo", "count": 0, "index_offset": 0,
                      "index_nbytes": 0, "offset": 0, "nbytes": 0}}})
        assert len(huge) < 256
        with pytest.raises(CodecError, match="COO arrays expand past"):
            read_frame(io.BytesIO(huge))
        # Each descriptor under the cap, together over it.
        half = MAX_COO_DENSE_BYTES // 2 + 8
        empty = {"dtype": "uint8", "shape": [half], "enc": "coo",
                 "count": 0, "index_offset": 0, "index_nbytes": 0,
                 "offset": 0, "nbytes": 0}
        with pytest.raises(CodecError, match="COO arrays expand past"):
            read_frame(io.BytesIO(frame_of(
                {"payload": {}, "arrays": {"a": empty, "b": empty}})))

    def test_encoder_ships_raw_past_the_coo_cap(self, rng, monkeypatch):
        monkeypatch.setattr(codec, "MAX_COO_DENSE_BYTES", 40_000)
        arrays = {"a": np.zeros(4096), "b": np.zeros(4096)}
        arrays["a"][7] = arrays["b"][9] = 1.0
        frame = encode_frame({}, arrays)
        header_len, _ = parse_frame_prefix(frame[:FRAME_PREFIX_LEN])
        header = json.loads(frame[FRAME_PREFIX_LEN:
                                  FRAME_PREFIX_LEN + header_len])
        assert [header["arrays"][n]["enc"] for n in "ab"] == \
            ["coo", "raw"]
        _, decoded = read_frame(io.BytesIO(frame))
        for name, array in arrays.items():
            np.testing.assert_array_equal(decoded[name], array)

    def test_unknown_encoding(self):
        frame = frame_of(
            {"payload": {}, "arrays": {
                "x": {"dtype": "float64", "shape": [0],
                      "enc": "pickle", "offset": 0, "nbytes": 0}}})
        with pytest.raises(CodecError, match="unknown encoding"):
            read_frame(io.BytesIO(frame))

    def test_header_missing_sections(self):
        raw = json.dumps({"just": "stuff"}).encode()
        with pytest.raises(CodecError, match="must carry"):
            decode_frame(raw, b"")


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(1 << 70), 1 << 70),
              st.floats(allow_nan=False), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)
_SMALL_INT = st.one_of(st.integers(-4, 96), _JSON)
_DESCRIPTOR = st.fixed_dictionaries({}, optional={
    "dtype": st.one_of(st.sampled_from(sorted(_WIRE_DTYPES)
                                       + ["object", "V8", "<f8"]), _JSON),
    "shape": st.one_of(st.lists(st.one_of(st.integers(0, 8),
                                          st.integers(-2, 1 << 66)),
                                max_size=4), _JSON),
    "enc": st.one_of(st.sampled_from(["raw", "coo"]), _JSON),
    "offset": _SMALL_INT, "nbytes": _SMALL_INT, "count": _SMALL_INT,
    "index_offset": _SMALL_INT, "index_nbytes": _SMALL_INT,
})
_HEADER = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda obj: json.dumps(obj).encode(), _JSON),
    st.builds(lambda payload, arrays: json.dumps(
        {"payload": payload, "arrays": arrays}).encode(),
        st.one_of(st.dictionaries(st.text(max_size=4), _JSON,
                                  max_size=3), _JSON),
        st.one_of(st.dictionaries(st.text(max_size=4),
                                  st.one_of(_DESCRIPTOR, _JSON),
                                  max_size=3), _JSON)))


def _decodes_or_codec_error(call):
    """Run ``call``; a frame, ``None`` or a CodecError are the only
    outcomes a wire decoder may have.  Returns a comparable summary."""
    try:
        outcome = call()
    except CodecError:
        return "CodecError"
    if outcome is None:
        return None
    assert (isinstance(outcome, tuple) and isinstance(outcome[0], dict)
            and isinstance(outcome[1], dict))
    payload, arrays = outcome
    return repr(payload), {name: (str(array.dtype), array.shape,
                                  array.tobytes())
                           for name, array in arrays.items()}


def _read_async(data: bytes):
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame_async(reader)
    return asyncio.run(read())


def _both_readers_agree(data: bytes) -> None:
    """The blocking and the asyncio reader: same frame, both
    CodecError, or both None at a clean EOF."""
    sync = _decodes_or_codec_error(lambda: read_frame(io.BytesIO(data)))
    assert _decodes_or_codec_error(lambda: _read_async(data)) == sync


class TestCodecFuzz:
    """Every byte that reaches either socket is parsed by the codec: on
    any input it yields a frame, ``None`` at clean EOF, or a typed
    :class:`CodecError` — never any other exception — and the blocking
    (fabric) and asyncio (serving) readers agree on which."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(st.binary(max_size=128),
                          st.builds(lambda tail: FRAME_MAGIC + tail,
                                    st.binary(max_size=128))))
    def test_read_frame_on_arbitrary_bytes(self, data):
        _both_readers_agree(data)

    @settings(max_examples=150, deadline=None)
    @given(header=_HEADER, body=st.binary(max_size=96))
    def test_decode_frame_on_arbitrary_header_and_body(self, header,
                                                       body):
        _decodes_or_codec_error(lambda: decode_frame(header, body))
        # The same bytes behind a well-formed prefix take the stream path.
        stream = _PREFIX.pack(FRAME_MAGIC, len(header), len(body))
        _both_readers_agree(stream + header + body)

    def test_readers_agree_on_valid_and_truncated_frames(self, rng):
        frame = encode_frame({"op": "x"}, {"a": rng.random((2, 3)),
                                           "s": np.zeros(512)})
        for data in (frame, frame + frame, frame[:3], frame[:20],
                     frame[:-1], b""):
            _both_readers_agree(data)
        assert _read_async(frame)[1]["a"].shape == (2, 3)


class TestFrameNegotiation:
    def test_binary_negotiated_by_default(self, rng):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=3)
        baseline, _ = run_group([ThreadWorker()], deployment, items)
        server = WorkerServer().start()
        try:
            worker = RemoteWorker("127.0.0.1", server.port)
            results, _ = run_group([worker], deployment, items)
            for base, other in zip(baseline, results):
                np.testing.assert_array_equal(base.logits, other.logits)
                assert base.merged_trace() == other.merged_trace()
        finally:
            server.close()


class TestShmLane:
    def test_shm_and_pickle_paths_bit_identical(self, rng,
                                                monkeypatch):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=4)
        with_shm, _ = run_group([ProcessWorker()], deployment, items)
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        assert not shm_available()
        without, _ = run_group([ProcessWorker()], deployment, items)
        for a, b in zip(with_shm, without):
            np.testing.assert_array_equal(a.logits, b.logits)
            assert a.merged_trace() == b.merged_trace()

    def test_wide_output_layer_falls_back_to_pickled_logits(self, rng):
        """Logits wider than the reply region still come back exact."""
        from repro.core import AcceleratorConfig
        from repro.models import performance_network
        from repro.runtime import Deployment
        from repro.runtime.workers import _REPLY_CLASSES_CAP
        net = performance_network(
            [("flatten",), ("linear", _REPLY_CLASSES_CAP + 16)],
            input_shape=(1, 6, 6), num_steps=3,
            seed=int(rng.integers(1 << 16)))
        deployment = Deployment(
            network=net, config=AcceleratorConfig.for_network(net))
        items = make_items(rng, deployment, count=2)
        baseline, _ = run_group([ThreadWorker()], deployment, items)
        results, _ = run_group([ProcessWorker()], deployment, items)
        for base, other in zip(baseline, results):
            np.testing.assert_array_equal(base.logits, other.logits)


class TestBatchedSubmission:
    def test_submit_many_matches_serial(self, rng):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=10)
        baseline, _ = run_group([ThreadWorker()], deployment, items)
        results, metrics = run_group([ProcessWorker()], deployment,
                                     items, max_batch_items=4)
        assert metrics.batched > 0
        for base, other in zip(baseline, results):
            np.testing.assert_array_equal(base.logits, other.logits)
            assert base.merged_trace() == other.merged_trace()

    def test_batched_task_error_fails_only_its_item(self, rng):
        deployment = tiny_deployment(rng)
        good = make_items(rng, deployment, count=3)
        bad = WorkItem(item_id=99, deployment=7,  # no such deployment
                       images=good[0].images)
        with WorkerGroup([ProcessWorker()],
                         deployments=[deployment]) as group:
            futures = group.submit_many(good + [bad])
            for future, item in zip(futures[:3], good):
                result = future.result(timeout=60)
                assert result.item_id == item.item_id
            with pytest.raises(DeploymentError):
                futures[3].result(timeout=60)
            assert group.metrics.worker_crashes == 0

    def test_remote_execute_many_one_frame_roundtrip(self, rng):
        """A chunk to a remote worker comes back complete and ordered."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=5)
        baseline, _ = run_group([ThreadWorker()], deployment, items)
        server = WorkerServer().start()
        try:
            results, metrics = run_group(
                [RemoteWorker("127.0.0.1", server.port)], deployment,
                items, max_batch_items=5)
            assert metrics.batched > 0
            for base, other in zip(baseline, results):
                np.testing.assert_array_equal(base.logits, other.logits)
                assert base.merged_trace() == other.merged_trace()
        finally:
            server.close()

    def test_max_batch_items_validated(self, rng):
        deployment = tiny_deployment(rng)
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            WorkerGroup([ThreadWorker()], deployments=[deployment],
                        max_batch_items=0)


def large_deployment() -> Deployment:
    """A deployment whose pickled table is over the 1 MiB header cap
    (a 256 x 4096 hidden layer) yet compiles and runs in milliseconds."""
    net = performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",),
         ("linear", 4096), ("linear", 10)],
        input_shape=(1, 16, 16), num_steps=3, seed=11)
    deployment = Deployment(network=net,
                            config=AcceleratorConfig.for_network(net))
    assert len(pickle.dumps([deployment])) > MAX_HEADER_BYTES
    return deployment


class TestLargeDeploy:
    """The deploy table rides in the frame body, so a network whose
    pickle exceeds the header cap still reaches remote lanes."""

    def test_listen_lane(self, rng):
        deployment = large_deployment()
        items = make_items(rng, deployment, count=3)
        baseline, _ = run_group([ThreadWorker()], deployment, items)
        with WorkerServer() as server:
            results, metrics = run_group(
                [RemoteWorker("127.0.0.1", server.port, name="wide")],
                deployment, items)
        assert metrics.worker_crashes == 0
        for base, other in zip(baseline, results):
            assert other.worker == "wide"
            np.testing.assert_array_equal(base.logits, other.logits)
            assert base.merged_trace() == other.merged_trace()

    def test_join_lane(self, rng):
        deployment = large_deployment()
        items = make_items(rng, deployment, count=3)
        baseline, _ = run_group([ThreadWorker()], deployment, items)
        group = WorkerGroup([ThreadWorker(name="local")],
                            deployments=[deployment]).start()
        listener = GroupListener(group, "127.0.0.1", 0).start()
        joiner = threading.Thread(
            target=join_fabric, args=("127.0.0.1", listener.port),
            kwargs={"name": "visitor"}, daemon=True)
        joiner.start()
        try:
            deadline = time.time() + 20
            while (group.metrics.lanes_added < 1
                   and time.time() < deadline):
                time.sleep(0.02)
            assert "visitor" in group.alive_workers()
            group.remove_lane("local")
            results = group.run(items)
        finally:
            listener.close()
            group.stop()
        joiner.join(timeout=10)
        for base, other in zip(baseline, results):
            assert other.worker == "visitor"
            np.testing.assert_array_equal(base.logits, other.logits)
            assert base.merged_trace() == other.merged_trace()
