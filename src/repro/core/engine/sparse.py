"""The sparse backend: skip silent spike planes, keep every bit and charge.

Radix-coded SNN activations are mostly zero: a quantized input pixel
that never spikes across the ``T`` steps is a zero in the collapsed
integer tensor, and whole receptive-field patches — often whole images
mid-sweep — carry no spikes at all.  The dense GEMMs in the vectorized
engine multiply all of those zeros anyway.  This backend subclasses
:class:`~repro.core.engine.vectorized.VectorizedEngine` and overrides
three of its four compute hooks to gather the *active* work:

* images whose activation tensor is entirely zero skip the layer's
  arithmetic outright (their outputs are exact zeros);
* convolutions run an im2col-GEMM over only the patch rows with at
  least one spike, and only the kernel columns some patch touches;
* linear layers drop all-zero input columns before the matmul.

Adder-operation popcounts stay on the parent's single
``np.bitwise_count`` pass: a nonzero gather cost 3-10x that pass at
every density probed from 0.1% up, so it has nothing to skip.

Why this is bit-exact rather than merely close: every GEMM here runs in
the parent's per-layer precision (:meth:`VectorizedEngine._gemm_dtype`),
chosen from the compiler's bound on the layer's partial sums so that
each one is an integer the float type represents exactly — dropping
terms that are identically zero, or reordering the remaining ones,
cannot change a single bit.
The trace side needs no argument at all: all cycle and memory-traffic
charges in the parent are closed-form in the layer geometry (the
accelerator's units sweep every plane whether or not it spikes), and
the data-dependent adder counters count exactly the same spikes — so
traces are identical by construction.  The equivalence suite pins both
claims against the reference engine.

When a layer's activations are actually dense the gather bookkeeping
is pure overhead, so each hook falls back to the parent's dense kernel
above a density threshold.  The thresholds are *calibrated*: when a
:class:`~repro.core.engine.calibrate.CalibrationTable` is installed for
this deployment, each layer gets its own measured crossover; otherwise
the historical constant :data:`DENSE_FALLBACK_DENSITY` applies.
Thresholds only choose *which* exact kernel runs, so calibration can
never change an output bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY
from repro.core.engine.base import register_engine
from repro.core.engine.calibrate import EngineThresholds, thresholds_for
from repro.core.engine.vectorized import VectorizedEngine, patch_columns

__all__ = ["SparseEngine", "DENSE_FALLBACK_DENSITY"]

#: The uncalibrated default: above this fraction of active rows/columns,
#: gather/scatter loses to the dense GEMM and the hooks defer to the
#: parent implementation.  A calibration table overrides it per layer.
DENSE_FALLBACK_DENSITY = 0.85


@register_engine
class SparseEngine(VectorizedEngine):
    """Sparsity-aware execution: identical bits, only the live work."""

    name = "sparse"

    def __init__(self, compiled, calibration=DEFAULT_LATENCY) -> None:
        super().__init__(compiled, calibration)
        self.apply_thresholds(thresholds_for(compiled, calibration))

    def apply_thresholds(self, thresholds: EngineThresholds) -> None:
        """Adopt (re-)calibrated crossovers; outputs are unaffected."""
        self.thresholds = thresholds
        self._fallback_default = thresholds.dense_fallback
        self._fallback_by_spec = {
            id(program.spec): thresholds.for_layer(program.name,
                                                   program.kind)
            for program in self.compiled.programs
            if program.kind in ("conv", "linear")
        }

    def _fallback_for(self, spec) -> float:
        return self._fallback_by_spec.get(id(spec),
                                          self._fallback_default)

    # -- compute hooks -------------------------------------------------
    def _conv_acc(self, spec, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        c_out, h_out, w_out = spec.out_shape
        threshold = self._fallback_for(spec)
        dtype = self._gemm_dtype(spec)
        live = x.reshape(n, -1).any(axis=1)
        acc = np.zeros((n, c_out, h_out, w_out), dtype=dtype)
        if not live.any():
            return acc
        if live.all():
            if np.count_nonzero(x) > x.size * threshold:
                return super()._conv_acc(spec, x)
            xs = x  # all live: skip the gather copy
        else:
            xs = x[live]
        cols = patch_columns(spec, xs, dtype)
        active = cols.any(axis=0)
        flat_k = spec.weights.reshape(c_out, -1).astype(dtype)
        if active.mean() > threshold:
            prod = flat_k @ cols
        else:
            prod = np.zeros((c_out, cols.shape[1]), dtype=dtype)
            sub = cols[:, active]
            taps = sub.any(axis=1)
            prod[:, active] = flat_k[:, taps] @ sub[taps]
        acc[live] = (prod.reshape(c_out, -1, h_out, w_out)
                     .transpose(1, 0, 2, 3))
        return acc

    def _pool_sums(self, spec, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        live = x.reshape(n, -1).any(axis=1)
        if live.all():
            return super()._pool_sums(spec, x)
        part = super()._pool_sums(spec, x[live])
        sums = np.zeros((n,) + tuple(spec.out_shape), dtype=part.dtype)
        sums[live] = part
        return sums

    def _linear_acc(self, spec, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        dtype = self._gemm_dtype(spec)
        live = x.any(axis=1)
        if not live.any():
            return np.zeros((n, spec.out_features), dtype=dtype)
        xs = x if live.all() else x[live]
        taps = xs.any(axis=0)
        if taps.mean() > self._fallback_for(spec):
            out = super()._linear_acc(spec, xs)
        else:
            out = (xs[:, taps].astype(dtype)
                   @ spec.weights[:, taps].astype(dtype).T)
        if live.all():
            return out
        acc = np.zeros((n, spec.out_features), dtype=dtype)
        acc[live] = out
        return acc
