"""Tests for quantization schemes and tensor quantizers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant.quantize import quantization_error, quantize_tensor
from repro.quant.schemes import INT8, INT16, QuantScheme, get_scheme


class TestSchemes:
    def test_int8_packs_two_macs_per_dsp(self):
        assert INT8.macs_per_multiplier == 2
        assert INT8.beta == 4

    def test_int16_single_mac_per_dsp(self):
        assert INT16.macs_per_multiplier == 1
        assert INT16.beta == 2

    def test_beta_reproduces_paper_hybriddnn_efficiency(self):
        # HybridDNN scheme 2: 13.1 GOP x 22.0 FPS / (beta x 1024 x 0.2 GHz)
        # must equal the published 70.4 %.
        eff = 13.1 * 22.0 / (INT16.beta * 1024 * 0.2)
        assert eff == pytest.approx(0.704, abs=0.005)

    def test_mixed_width_does_not_pack(self):
        mixed = QuantScheme(name="w8a16", weight_bits=8, activation_bits=16)
        assert mixed.macs_per_multiplier == 1

    def test_byte_helpers(self):
        assert INT8.weight_bytes(100) == 100
        assert INT16.weight_bytes(100) == 200
        assert INT16.activation_bytes(4) == 8

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            QuantScheme(name="bad", weight_bits=0, activation_bits=8)

    def test_registry_lookup(self):
        assert get_scheme("INT8") is INT8
        assert get_scheme("int16") is INT16
        with pytest.raises(KeyError, match="known schemes"):
            get_scheme("fp4")


class TestQuantize:
    def test_roundtrip_of_exact_grid(self):
        x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        q = quantize_tensor(x, 8)
        np.testing.assert_allclose(q.dequantized(), x, atol=q.scale / 2)

    def test_integer_codes_within_range(self):
        x = np.linspace(-3, 3, 100)
        q = quantize_tensor(x, 8)
        assert q.values.max() <= 127
        assert q.values.min() >= -128

    def test_zero_tensor(self):
        q = quantize_tensor(np.zeros(5), 8)
        np.testing.assert_array_equal(q.dequantized(), np.zeros(5))

    def test_too_few_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_tensor(np.ones(3), 1)

    def test_int16_error_smaller_than_int8(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000)
        assert quantization_error(x, INT16) < quantization_error(x, INT8)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(max_dims=3, max_side=8),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        st.sampled_from([4, 8, 12, 16]),
    )
    def test_roundtrip_error_bounded_by_half_scale(self, x, bits):
        q = quantize_tensor(x, bits)
        error = np.max(np.abs(q.dequantized() - x)) if x.size else 0.0
        assert error <= q.scale / 2 + 1e-12

    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    @pytest.mark.parametrize(
        "ulps",
        [[1, -1, 0], [3], [190, -7], [1000, 2, 0], [2**52 - 1, -(2**51)]],
    )
    def test_subnormal_tensor_has_positive_scale(self, ulps, bits):
        # max_abs / qmax of a subnormal tensor rounds to 0 or below the
        # exact quotient; the scale must still be positive and large
        # enough that no code clips, so the bound holds with no slack.
        x = np.array(ulps, dtype=np.float64) * math.ulp(0.0)
        qmax = 2 ** (bits - 1) - 1
        with np.errstate(all="raise"):
            q = quantize_tensor(x, bits)
            error = np.max(np.abs(q.dequantized() - x))
        assert q.scale > 0
        assert -qmax - 1 <= q.values.min() and q.values.max() <= qmax
        assert error <= q.scale / 2
