"""Symmetric per-tensor quantization for the functional runtime.

F-CAD's design-space exploration only needs bit *widths*; actual value
quantization lives here so the runtime can demonstrate 8-/16-bit inference
on the decoder (and so tests can bound the quantization error).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from repro.quant.schemes import QuantScheme


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer values plus the scale that maps them back to reals."""

    values: np.ndarray
    scale: float
    bits: int

    def dequantized(self) -> np.ndarray:
        return self.values.astype(np.float64) * self.scale


def quantize_tensor(x: np.ndarray, bits: int) -> QuantizedTensor:
    """Symmetric mid-rise quantization of ``x`` to ``bits`` signed integers.

    The scale maps the largest absolute value onto the extreme code, so the
    roundtrip error of any element is bounded by ``scale / 2``.
    """
    if bits < 2:
        raise ValueError(f"need at least 2 bits, got {bits}")
    x = np.asarray(x, dtype=np.float64)
    qmax = 2 ** (bits - 1) - 1
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    scale = max_abs / qmax if max_abs > 0 else 1.0
    if scale < sys.float_info.min:
        # A subnormal quotient rounds to a multiple of the smallest
        # subnormal, possibly to 0 or below max_abs / qmax. Round it up
        # instead, so the scale is positive and no code clips.
        tiny = math.ulp(0.0)
        scale = -(-int(max_abs / tiny) // qmax) * tiny
    values = np.clip(np.round(x / scale), -qmax - 1, qmax)
    return QuantizedTensor(values=values.astype(np.int64), scale=scale, bits=bits)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Map quantized values back to reals."""
    return q.dequantized()


def quantization_error(x: np.ndarray, scheme: QuantScheme) -> float:
    """Max absolute roundtrip error of ``x`` under ``scheme``'s weight width."""
    q = quantize_tensor(x, scheme.weight_bits)
    return float(np.max(np.abs(q.dequantized() - np.asarray(x, dtype=np.float64))))
