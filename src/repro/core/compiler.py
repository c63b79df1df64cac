"""Compiler: maps a quantized network onto an accelerator configuration.

Produces a :class:`CompiledModel` — an ordered list of layer programs with
the output-channel schedule for the convolution units (which unit computes
which channels in which pass), the memory plan (weights on-chip vs DRAM,
buffer sizes) and validated capacity constraints.  The controller executes
this schedule; the latency model prices it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bram import BramPlan, plan_bram
from repro.core.config import AcceleratorConfig
from repro.core.latency import channels_per_pass
from repro.errors import CompilationError
from repro.snn.spec import QuantizedNetwork

__all__ = ["ConvSchedule", "LayerProgram", "CompiledModel", "compile_network"]

#: float64 represents every integer of magnitude below this exactly.
FLOAT64_EXACT = 1 << 53


@dataclass(frozen=True)
class ConvSchedule:
    """The output-channel schedule of one convolution layer.

    ``rounds`` is a list of scheduling rounds; each round assigns to every
    active unit the list of channels it computes in one pass.  All units in
    a round run concurrently, rounds run back to back (this is the ``G``
    of the latency model).
    """

    channels_per_unit_pass: int
    rounds: tuple

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


@dataclass(frozen=True)
class LayerProgram:
    """One layer's execution descriptor."""

    index: int
    name: str
    kind: str                      # conv / pool / linear / flatten
    spec: object
    conv_schedule: ConvSchedule | None = None
    weights_on_chip: bool = True
    #: Largest ``|acc|`` any partial sum of the layer's pre-bias
    #: accumulator can reach: ``max_row sum|w| * (2**T - 1)`` (conv and
    #: linear layers; 0 elsewhere).  Engines pick their GEMM precision
    #: from it.
    acc_bound: int = 0


@dataclass(frozen=True)
class CompiledModel:
    """A network bound to a configuration, ready to execute."""

    network: QuantizedNetwork
    config: AcceleratorConfig
    programs: tuple
    bram: BramPlan
    weights_on_chip: bool

    @property
    def num_layers(self) -> int:
        return len(self.programs)


def _schedule_conv(spec, config: AcceleratorConfig) -> ConvSchedule:
    """Round-robin channel groups over the available convolution units."""
    p = channels_per_pass(spec, config)
    c_out = spec.out_shape[0]
    groups = [list(range(lo, min(lo + p, c_out)))
              for lo in range(0, c_out, p)]
    rounds = []
    u = config.num_conv_units
    for start in range(0, len(groups), u):
        round_assignment = tuple(
            tuple(g) for g in groups[start:start + u])
        rounds.append(round_assignment)
    return ConvSchedule(channels_per_unit_pass=p, rounds=tuple(rounds))


def _accumulator_bound(weights: np.ndarray, num_steps: int) -> int:
    """``max_row sum|w| * (2**T - 1)``, one output channel per row.

    The rows are summed a block at a time, so no int64 copy of a large
    weight tensor is ever made.
    """
    rows = weights.reshape(weights.shape[0], -1)
    block = max(1, (1 << 16) // max(rows.shape[1], 1))
    widest = 0
    for lo in range(0, rows.shape[0], block):
        sums = np.abs(rows[lo:lo + block], dtype=np.int64).sum(axis=1)
        widest = max(widest, int(sums.max()))
    return widest * ((1 << num_steps) - 1)


def _checked_bound(name: str, spec, num_steps: int) -> int:
    """The layer's accumulator bound; raises when the biased accumulator
    could leave float64's exact-integer range."""
    bound = _accumulator_bound(spec.weights, num_steps)
    reach = bound + int(np.abs(spec.bias).max(initial=0))
    if reach >= FLOAT64_EXACT:
        raise CompilationError(
            f"{name}: accumulator can reach {reach}, beyond the 2**53 "
            f"range in which float64 holds every integer exactly"
        )
    return bound


def compile_network(
    network: QuantizedNetwork,
    config: AcceleratorConfig,
) -> CompiledModel:
    """Validate and schedule ``network`` for ``config``.

    Raises :class:`~repro.errors.CompilationError` when a layer cannot map
    (kernel taller than the adder array, rows wider than the units,
    activations exceeding buffer capacity, or an accumulator that could
    reach ``2**53``).
    """
    if network.weight_bits != config.weight_bits:
        raise CompilationError(
            f"network quantized to {network.weight_bits}-bit weights but "
            f"the accelerator is configured for {config.weight_bits}"
        )
    weight_bytes = network.parameter_bytes
    weights_on_chip = (
        weight_bytes <= config.memory.onchip_weight_capacity)

    programs: list[LayerProgram] = []
    conv_idx = pool_idx = fc_idx = 0
    for i, spec in enumerate(network.layers):
        if spec.kind == "conv":
            conv_idx += 1
            kr, kc = spec.kernel_size
            if kr > config.conv_unit.rows:
                raise CompilationError(
                    f"conv{conv_idx}: kernel of {kr} rows exceeds the "
                    f"unit's {config.conv_unit.rows} adder rows"
                )
            schedule = _schedule_conv(spec, config)
            name = f"conv{conv_idx}"
            programs.append(LayerProgram(
                index=i, name=name, kind="conv", spec=spec,
                conv_schedule=schedule, weights_on_chip=weights_on_chip,
                acc_bound=_checked_bound(name, spec, network.num_steps)))
        elif spec.kind == "pool":
            pool_idx += 1
            if spec.size > config.pool_unit.rows:
                raise CompilationError(
                    f"pool{pool_idx}: window of {spec.size} rows exceeds "
                    f"the pool unit's {config.pool_unit.rows} adder rows"
                )
            if spec.out_shape[2] > config.pool_unit.columns:
                raise CompilationError(
                    f"pool{pool_idx}: pooled rows of width "
                    f"{spec.out_shape[2]} exceed the pool unit's "
                    f"{config.pool_unit.columns} columns"
                )
            programs.append(LayerProgram(
                index=i, name=f"pool{pool_idx}", kind="pool", spec=spec))
        elif spec.kind == "flatten":
            programs.append(LayerProgram(
                index=i, name="flatten", kind="flatten", spec=spec))
        else:
            fc_idx += 1
            name = f"fc{fc_idx}"
            programs.append(LayerProgram(
                index=i, name=name, kind="linear", spec=spec,
                weights_on_chip=weights_on_chip,
                acc_bound=_checked_bound(name, spec, network.num_steps)))

    bram = plan_bram(network, config.memory, weights_on_chip)
    activation_bits = max(bram.activation_2d_bits, bram.activation_1d_bits)
    if activation_bits > config.memory.activation_capacity * 8:
        raise CompilationError(
            f"activations need {activation_bits} bits per bank, exceeding "
            f"the configured {config.memory.activation_capacity * 8}"
        )
    return CompiledModel(
        network=network, config=config, programs=tuple(programs),
        bram=bram, weights_on_chip=weights_on_chip)
