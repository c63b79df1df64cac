"""The vectorized backend: whole-batch narrow-integer tensor execution.

The reference engine simulates every register shift, which makes anything
beyond a handful of images intractable in Python.  This backend exploits
that the accelerator's arithmetic is *linear per layer*: summing binary
spike planes with a left-shifting accumulator over ``T`` steps is exactly
one integer convolution / pooling / matmul over the radix-decoded
activations.  It therefore runs each layer as a single im2col-GEMM (or
window sum / matmul) over the whole batch and requantizes with the shared
:func:`~repro.snn.spec.requantize` contract.

The datapath is as narrow as the encoding.  Activations are ``T``-bit
integers, carried in the smallest unsigned dtype that holds them
(:func:`~repro.encoding.radix.activation_dtype`, ``uint8`` for every
paper network) from the input quantizer through every layer.  Each GEMM
runs in float32 or float64, chosen per layer from the accumulator bound
the compiler stores on its program
(:attr:`~repro.core.compiler.LayerProgram.acc_bound`, the largest
``|partial sum|`` the layer can produce).  Every operand is an integer,
so every partial sum is one too; below ``2**24`` float32 represents all
of them exactly, so the GEMM is exact in any summation order, and at or
above it float64 takes over (the compiler rejects layers whose biased
accumulator could reach float64's ``2**53``).  Logits are therefore
bit-identical to the reference by construction.

Trace parity: cycle and memory-traffic counters are charged from the same
calibrated formulas the unit models charge per loop iteration, collapsed
into closed forms; the data-dependent adder-operation counters are
recovered from spike popcounts (a spike train's per-step bits of value
``v`` sum to ``popcount(v)``, one ``np.bitwise_count``).  The equivalence
suite pins every trace field against the reference engine.

The arithmetic itself is factored into four overridable hooks —
:meth:`VectorizedEngine._conv_acc`, :meth:`~VectorizedEngine._pool_sums`,
:meth:`~VectorizedEngine._linear_acc` and
:meth:`~VectorizedEngine._popcount_sum` — so alternative compute
strategies (see :mod:`repro.core.engine.sparse`) can swap the tensor
kernels while inheriting every cycle/traffic charge unchanged.  The
charges are closed-form in the layer geometry (data-independent), so any
subclass that only overrides the hooks produces identical traces by
construction.  The logits contract: each hook returns the exact integers
of the dense formula, as an integer array or as exact integer-valued
floats (the GEMM precision from :meth:`VectorizedEngine._gemm_dtype`
keeps them exact).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.compiler import CompiledModel, LayerProgram
from repro.core.engine.base import ExecutionEngine, register_engine
from repro.core.engine.trace import ExecutionTrace, LayerTrace
from repro.core.latency import (
    conv_pass_cycles,
    dram_stream_cycles,
    flatten_cycles,
    input_load_cycles,
)
from repro.core.stats import MemoryTraffic
from repro.encoding import radix
from repro.errors import SimulationError
from repro.snn.spec import requantize

__all__ = ["VectorizedEngine", "FLOAT32_EXACT", "patch_columns"]

#: float32 represents every integer of magnitude below this exactly.
FLOAT32_EXACT = 1 << 24


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def patch_columns(spec, x: np.ndarray, dtype) -> np.ndarray:
    """Tap-major im2col of a conv layer's input: ``(K, N*H_out*W_out)``.

    Row ``(c, i, j)`` holds the input tap at kernel offset ``(i, j)`` of
    channel ``c`` for every output position of every image, so the copy
    reads whole output rows at a time and one GEMM with the flattened
    ``(C_out, K)`` kernels convolves the whole batch.
    """
    n, c, h, w = x.shape
    _, h_out, w_out = spec.out_shape
    kr, kc = spec.kernel_size
    p, s = spec.padding, spec.stride
    padded = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dtype)
    padded[:, :, p:p + h, p:p + w] = x
    sn, sc, sh, sw = padded.strides
    taps = as_strided(padded, shape=(c, kr, kc, n, h_out, w_out),
                      strides=(sc, sh, sw, sn, sh * s, sw * s),
                      writeable=False)
    return np.ascontiguousarray(taps).reshape(c * kr * kc, -1)


class _LayerResult:
    """One layer's batched output plus its (shared + per-image) charges."""

    def __init__(self, out: np.ndarray, cycles: int,
                 adder_ops: np.ndarray, traffic: MemoryTraffic) -> None:
        self.out = out
        self.cycles = cycles
        self.adder_ops = adder_ops  # (N,) — the only data-dependent counter
        self.traffic = traffic


@register_engine
class VectorizedEngine(ExecutionEngine):
    """Batched integer-tensor execution with reference-identical traces."""

    name = "vectorized"

    def __init__(self, compiled: CompiledModel,
                 calibration: LatencyCalibration = DEFAULT_LATENCY) -> None:
        super().__init__(compiled, calibration)
        self._act_dtype = radix.activation_dtype(compiled.network.num_steps)
        self._gemm_dtypes = {
            id(program.spec): (np.float32
                               if program.acc_bound < FLOAT32_EXACT
                               else np.float64)
            for program in compiled.programs
            if program.kind in ("conv", "linear")
        }

    def run_batch(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, list[ExecutionTrace]]:
        images = self._check_batch(images)
        network = self.compiled.network
        t = network.num_steps
        n = images.shape[0]
        x = radix.quantize_real(images, t, self._act_dtype)  # (N, C, H, W)

        traces = [ExecutionTrace() for _ in range(n)]
        in_cycles = input_load_cycles(network.input_shape,
                                      self.calibration, t)
        for trace in traces:
            trace.input_cycles = in_cycles

        logits: np.ndarray | None = None
        for program in self.compiled.programs:
            dram_cycles = 0
            streamed_bits = 0
            if (program.kind in ("conv", "linear")
                    and not program.weights_on_chip):
                streamed_bits = (program.spec.num_weights
                                 * network.weight_bits)
                if streamed_bits:
                    dram_cycles = dram_stream_cycles(
                        streamed_bits, self.compiled.config)
            if program.kind == "conv":
                result = self._run_conv(program, x, t)
            elif program.kind == "pool":
                result = self._run_pool(program, x, t)
            elif program.kind == "flatten":
                result = self._run_flatten(program, x, t)
            else:  # linear
                result = self._run_linear(program, x, t)
                if program.spec.is_output:
                    logits = result.out
            x = result.out
            result.traffic.weight_stream_bits += streamed_bits
            for i, trace in enumerate(traces):
                traffic = MemoryTraffic()
                traffic.merge(result.traffic)
                trace.layers.append(LayerTrace(
                    name=program.name, kind=program.kind,
                    cycles=result.cycles, dram_cycles=dram_cycles,
                    adder_ops=int(result.adder_ops[i]), traffic=traffic))
        if logits is None:
            raise SimulationError(
                "compiled model has no output linear layer")
        return logits, traces

    def _gemm_dtype(self, spec) -> type:
        """The float dtype in which ``spec``'s GEMM is exact: float32
        while its accumulator bound stays below ``2**24``."""
        return self._gemm_dtypes.get(id(spec), np.float64)

    # ------------------------------------------------------------------
    # Compute hooks: the arithmetic, separable from the trace charges.
    # Subclasses may override these (and only these).  Each returns the
    # exact integers of the dense formula, as integers or as exact
    # integer-valued floats; GEMMs in ``_gemm_dtype`` are exact in any
    # summation order, so reordering or dropping zero terms is free.
    # ------------------------------------------------------------------
    def _conv_acc(self, spec, x: np.ndarray) -> np.ndarray:
        """Pre-bias convolution accumulator, ``(N, C_out, H_out, W_out)``
        (one GEMM over the whole batch, see :func:`patch_columns`)."""
        dtype = self._gemm_dtype(spec)
        c_out, h_out, w_out = spec.out_shape
        acc = (spec.weights.reshape(c_out, -1).astype(dtype)
               @ patch_columns(spec, x, dtype))
        return acc.reshape(c_out, -1, h_out, w_out).transpose(1, 0, 2, 3)

    def _pool_sums(self, spec, x: np.ndarray) -> np.ndarray:
        """Integer window sums (pre-shift), ``(N,) + spec.out_shape``."""
        _, h_out, w_out = spec.out_shape
        rows = spec.stride * (h_out - 1) + 1
        cols = spec.stride * (w_out - 1) + 1
        top = spec.size * spec.size * radix.max_int(
            self.compiled.network.num_steps)
        sums = np.zeros(x.shape[:2] + (h_out, w_out),
                        dtype=np.promote_types(np.min_scalar_type(top),
                                               x.dtype))
        for dy in range(spec.size):
            for dx in range(spec.size):
                sums += x[:, :, dy:dy + rows:spec.stride,
                          dx:dx + cols:spec.stride]
        return sums

    def _linear_acc(self, spec, x: np.ndarray) -> np.ndarray:
        """Pre-bias matmul accumulator, ``(N, out_features)``."""
        dtype = self._gemm_dtype(spec)
        return x.astype(dtype) @ spec.weights.astype(dtype).T

    def _popcount_sum(self, x: np.ndarray,
                      weights: np.ndarray | None = None,
                      axis: int | None = None) -> np.ndarray:
        """Per-image weighted spike count, ``(N,)`` int64.

        ``weights`` (if given) is a 1-D integer cover applied along
        ``axis`` of ``x``; with no weights every spike counts once.
        """
        pops = np.bitwise_count(x)
        if weights is None:
            return pops.reshape(x.shape[0], -1).sum(axis=1, dtype=np.int64)
        others = tuple(a for a in range(1, x.ndim) if a != axis)
        return pops.sum(axis=others, dtype=np.int64) @ weights

    # ------------------------------------------------------------------
    # Layer executors: batched compute + closed-form trace charges
    # ------------------------------------------------------------------
    def _run_conv(self, program: LayerProgram, x: np.ndarray,
                  t: int) -> _LayerResult:
        spec = program.spec
        cal = self.calibration
        out = requantize(self._conv_acc(spec, x), spec.scales, t,
                         channel_axis=1, bias=spec.bias,
                         dtype=self._act_dtype)

        c_in, h_in, w_in = spec.in_shape
        c_out, h_out, w_out = spec.out_shape
        kr, kc = spec.kernel_size
        h_padded = h_in + 2 * spec.padding
        # Every unit pass sweeps all padded rows of every input channel at
        # every step; rounds run back to back, concurrent units tie.
        per_round = t * (c_in * conv_pass_cycles(spec, cal)
                         + cal.conv_pass_setup)
        rounds = program.conv_schedule.num_rounds
        cycles = rounds * per_round + cal.layer_setup

        groups = sum(len(r) for r in program.conv_schedule.rounds)
        traffic = MemoryTraffic(
            activation_read_bits=groups * t * c_in * h_padded * w_in,
            activation_write_bits=c_out * h_out * w_out * t,
            kernel_read_values=t * c_in * h_padded * kr * c_out,
        )

        # Adder activity: tap (w, j) reads padded column w*stride + j, so
        # an input spike in column x feeds cover(x) shift cycles, each
        # driving the kr adder rows of every output channel's slot.
        cover = np.zeros(w_in + 2 * spec.padding, dtype=np.int64)
        for j in range(kc):
            cover[np.arange(w_out) * spec.stride + j] += 1
        inner = cover[spec.padding:spec.padding + w_in]
        spikes = self._popcount_sum(x, inner, axis=3)
        adder_ops = kr * c_out * spikes
        return _LayerResult(out, cycles, adder_ops, traffic)

    def _run_pool(self, program: LayerProgram, x: np.ndarray,
                  t: int) -> _LayerResult:
        spec = program.spec
        cal = self.calibration
        out = (self._pool_sums(spec, x) >> spec.shift).astype(
            self._act_dtype, copy=False)

        c, h_in, w_in = spec.in_shape
        _, h_out, w_out = spec.out_shape
        cycles = (t * c * (h_in * (spec.size + cal.pool_row_overhead)
                           + cal.pool_pass_setup)
                  + cal.layer_setup)
        traffic = MemoryTraffic(
            activation_read_bits=t * c * h_in * w_in,
            activation_write_bits=c * h_out * w_out * t,
        )
        # The pool unit sums whole rows: a spike in input row r is added
        # once per output row whose window covers r.
        cover = np.zeros(h_in, dtype=np.int64)
        for oy in range(h_out):
            cover[oy * spec.stride:oy * spec.stride + spec.size] += 1
        adder_ops = self._popcount_sum(x, cover, axis=2)
        return _LayerResult(out, cycles, adder_ops, traffic)

    def _run_flatten(self, program: LayerProgram, x: np.ndarray,
                     t: int) -> _LayerResult:
        spec = program.spec
        out = x.reshape(x.shape[0], -1)
        bits = t * spec.out_features
        traffic = MemoryTraffic(activation_read_bits=bits,
                                activation_write_bits=bits)
        cycles = flatten_cycles(spec, self.compiled.config, t)
        adder_ops = np.zeros(x.shape[0], dtype=np.int64)
        return _LayerResult(out, cycles, adder_ops, traffic)

    def _run_linear(self, program: LayerProgram, x: np.ndarray,
                    t: int) -> _LayerResult:
        spec = program.spec
        cal = self.calibration
        acc = self._linear_acc(spec, x)
        if spec.is_output:
            out = acc.astype(np.int64) + spec.bias
        else:
            out = requantize(acc, spec.scales, t, channel_axis=1,
                             bias=spec.bias, dtype=self._act_dtype)

        p = self.compiled.config.linear_unit.parallel_outputs
        blocks = _ceil_div(spec.out_features, p)
        cycles = (t * (blocks * (spec.in_features + cal.linear_block_flush)
                       + cal.linear_pass_setup)
                  + cal.layer_setup)
        traffic = MemoryTraffic(
            activation_read_bits=t * spec.in_features,
            activation_write_bits=spec.out_features * t,
            kernel_read_values=t * spec.in_features * spec.out_features,
        )
        # Each input spike gates one add in every parallel output's adder.
        adder_ops = self._popcount_sum(x) * spec.out_features
        return _LayerResult(out, cycles, adder_ops, traffic)
