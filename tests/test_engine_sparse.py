"""Sparsity edge cases: the sparse backend's skip logic must be inert.

The sparse engine earns its speed by *not* computing silent spike
planes — all-zero images, patches no spike touches, dead input taps.
Each skip is a claim that the skipped work contributes exactly zero,
and each has an edge where the claim could quietly break (empty live
masks, dense fallbacks, single-survivor gathers).  Every test here
builds a batch that exercises one such edge and asserts bit-identical
logits and fully identical traces across ``reference``, ``vectorized``
and ``sparse``.
"""

import numpy as np
import pytest

from repro.core import Accelerator, AcceleratorConfig
from repro.core.engine.sparse import DENSE_FALLBACK_DENSITY, SparseEngine
from repro.models import performance_network
from repro.snn import SNNModel

BACKENDS = ("reference", "vectorized", "sparse")

TRAFFIC_FIELDS = ("activation_read_bits", "activation_write_bits",
                  "kernel_read_values", "weight_stream_bits")


def _assert_all_equal(net, images, num_conv_units=2):
    """Run all three backends; assert identical logits and traces."""
    config = AcceleratorConfig.for_network(net,
                                           num_conv_units=num_conv_units)
    snn = SNNModel(net)
    outputs = {}
    for backend in BACKENDS:
        accelerator = Accelerator(config, backend=backend)
        accelerator.deploy(snn)
        outputs[backend] = accelerator.run_logits(images)
    ref_logits, ref_traces = outputs["reference"]
    for backend in ("vectorized", "sparse"):
        logits, traces = outputs[backend]
        np.testing.assert_array_equal(ref_logits, logits, err_msg=backend)
        for ref_trace, trace in zip(ref_traces, traces):
            assert ref_trace.input_cycles == trace.input_cycles, backend
            assert ref_trace.total_cycles == trace.total_cycles, backend
            for ref_layer, layer in zip(ref_trace.layers, trace.layers):
                assert ref_layer.cycles == layer.cycles, backend
                assert ref_layer.dram_cycles == layer.dram_cycles, backend
                assert ref_layer.adder_ops == layer.adder_ops, (
                    backend, ref_layer.name)
                for field in TRAFFIC_FIELDS:
                    assert (getattr(ref_layer.traffic, field)
                            == getattr(layer.traffic, field)), (
                        backend, ref_layer.name, field)
    return ref_logits


def _net(seed, stack=None, input_shape=(1, 8, 8), num_steps=4):
    return performance_network(
        stack or [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",),
                  ("linear", 12), ("linear", 5)],
        input_shape=input_shape, num_steps=num_steps, seed=seed)


class TestSparsityEdgeCases:
    def test_all_zero_batch(self, rng):
        """Every image silent: every layer takes the skip-everything path."""
        net = _net(int(rng.integers(1 << 16)))
        images = np.zeros((3,) + net.input_shape)
        logits = _assert_all_equal(net, images)
        # All-zero inputs yield bias-only logits, identical per image.
        assert (logits == logits[0]).all()

    def test_zero_images_mixed_into_batch(self, rng):
        """Silent images ride alongside live ones (partial live mask)."""
        net = _net(int(rng.integers(1 << 16)))
        images = rng.random((4,) + net.input_shape)
        images[1] = 0.0
        images[3] = 0.0
        _assert_all_equal(net, images)

    def test_fully_dense_planes(self, rng):
        """Saturated inputs: the dense-fallback branch must stay exact."""
        net = _net(int(rng.integers(1 << 16)))
        images = np.clip(rng.random((2,) + net.input_shape), 0.5, None)
        assert images.astype(bool).mean() > DENSE_FALLBACK_DENSITY
        _assert_all_equal(net, images)

    def test_single_active_pixel(self, rng):
        """One spike in the whole batch: single-row gathers everywhere."""
        net = _net(int(rng.integers(1 << 16)))
        images = np.zeros((2,) + net.input_shape)
        images[0, 0, 3, 4] = 0.9
        _assert_all_equal(net, images)

    def test_single_active_row(self, rng):
        """One live input row: most im2col patches stay silent."""
        net = _net(int(rng.integers(1 << 16)))
        images = np.zeros((2,) + net.input_shape)
        images[:, :, 5, :] = rng.random((2, 1, net.input_shape[2]))
        _assert_all_equal(net, images)

    def test_subthreshold_values_quantize_to_silence(self, rng):
        """Values below the T-step grid produce empty spike trains.

        With ``num_steps=3`` anything under 1/8 floors to zero — the
        batch looks nonzero in float but is silent after quantization.
        """
        net = _net(int(rng.integers(1 << 16)), num_steps=3)
        images = rng.random((2,) + net.input_shape) * 0.12
        logits = _assert_all_equal(net, images)
        assert (logits == logits[0]).all()

    def test_strided_padded_stack_with_sparse_input(self, rng):
        """Geometry stress: stride/padding offsets in the patch gather."""
        net = _net(int(rng.integers(1 << 16)),
                   stack=[("conv", 3, 3, 2, 1), ("conv", 5, 3, 1, 0),
                          ("flatten",), ("linear", 6)])
        images = rng.random((3,) + net.input_shape)
        images[images < 0.8] = 0.0
        _assert_all_equal(net, images)

    def test_multi_channel_sparse(self, rng):
        """Channel-major im2col layout with one silent channel."""
        net = _net(int(rng.integers(1 << 16)), input_shape=(3, 6, 6))
        images = rng.random((2,) + net.input_shape)
        images[:, 1] = 0.0
        _assert_all_equal(net, images)

    def test_sparse_engine_registered(self):
        from repro.core import available_backends
        assert "sparse" in available_backends()
        accelerator = Accelerator(AcceleratorConfig(), backend="sparse")
        assert accelerator.backend == "sparse"
        assert isinstance(accelerator, Accelerator)

    def test_sparse_engine_class_selectable(self):
        accelerator = Accelerator(AcceleratorConfig(),
                                  backend=SparseEngine)
        assert accelerator.backend == "sparse"


class TestSparseIsFasterOnSparseInput:
    def test_less_popcount_work_same_answer(self, rng):
        """Sanity: the spike accounting both engines use counts the
        radix trains' spikes on a pathological mix of zero and
        saturated entries, in the narrow dtype and in int64 alike."""
        from repro.core import compile_network, create_engine
        from repro.encoding import radix
        net = _net(int(rng.integers(1 << 16)))
        compiled = compile_network(net, AcceleratorConfig.for_network(net))
        dense = create_engine("vectorized", compiled)
        sparse = create_engine("sparse", compiled)
        x = rng.integers(0, 16, size=(4, 2, 5, 7)).astype(np.int64)
        x[x < 12] = 0
        weights = rng.integers(1, 4, size=7).astype(np.int64)
        spikes = radix.encode_ints(x, 4).bits.astype(np.int64)
        per_column = spikes.sum(axis=(0, 2, 3))        # (N, W)
        for engine in (dense, sparse):
            for values in (x, x.astype(np.uint8)):
                np.testing.assert_array_equal(
                    engine._popcount_sum(values, weights, axis=3),
                    per_column @ weights)
                np.testing.assert_array_equal(
                    engine._popcount_sum(values.reshape(4, -1)),
                    per_column.sum(axis=1))
