"""Neural encoding schemes: radix (the paper's emerging encoding) and rate.

The radix functions are the reference semantics that the SNN simulator and
the hardware model must reproduce bit-exactly.
"""

from repro.encoding.quantize import (
    ActivationCalibrator,
    QuantizedWeights,
    quantize_weights,
    weight_int_range,
)
from repro.encoding.radix import (
    activation_dtype,
    decode_ints,
    decode_real,
    encode_ints,
    encode_real,
    max_int,
    quantize_real,
    step_weight,
)
from repro.encoding.rate import (
    DeterministicRateEncoder,
    PoissonRateEncoder,
    decode_rate,
)
from repro.encoding.spike_train import SpikeTrain

__all__ = [
    "ActivationCalibrator",
    "DeterministicRateEncoder",
    "PoissonRateEncoder",
    "QuantizedWeights",
    "SpikeTrain",
    "activation_dtype",
    "decode_ints",
    "decode_rate",
    "decode_real",
    "encode_ints",
    "encode_real",
    "max_int",
    "quantize_real",
    "quantize_weights",
    "step_weight",
    "weight_int_range",
]
