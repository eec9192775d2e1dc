"""Randomized round-trip properties: bit packing and activation quantization.

Hypothesis-style property tests without the dependency: seeded loops draw
bit widths, shapes and value ranges broadly (odd shapes, negative/zero/
extreme offsets, degenerate constant tensors) and assert the invariants
that make the deployment formats trustworthy —

* ``unpack_codes(pack_codes(q)) == q`` exactly, with the packed width never
  exceeding the span's information content;
* :class:`~repro.deploy.plan.ActQuantSpec` codes are integers on
  ``[0, levels]``, quantize∘dequantize is idempotent (grid points are fixed
  points), the grid error is bounded by half a step inside the clip range,
  and the serving-side math equals the training-side fake-quantize forward.
"""

import numpy as np
import pytest

from repro.deploy.packing import pack_codes, required_bits, unpack_codes
from repro.deploy.plan import ActQuantSpec, PlanError

_TRIALS = 25


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------


def _random_shape(rng) -> tuple:
    ndim = int(rng.integers(1, 5))
    # Odd, prime-ish extents — off any byte/word alignment sweet spots.
    return tuple(int(rng.choice([1, 3, 5, 7, 11, 13, 17, 31])) for _ in range(ndim))


def test_pack_roundtrip_random_widths_and_offsets():
    rng = np.random.default_rng(1234)
    for _ in range(_TRIALS):
        bits = int(rng.integers(2, 17))  # 2..16 packed bits
        shape = _random_shape(rng)
        span = 2 ** bits - 1
        # Offsets cover negative, zero and extreme placements of the window.
        offset = int(rng.choice([-(2 ** 20), -span, -1, 0, 1, 2 ** 20]))
        q = rng.integers(offset, offset + span + 1, size=shape)
        # Pin both extremes somewhere so the drawn width is exactly `bits`.
        flat = q.reshape(-1)
        flat[int(rng.integers(flat.size))] = offset
        flat[int(rng.integers(flat.size))] = offset + span
        packed = pack_codes(q)
        assert packed.bits == bits == required_bits(offset, offset + span)
        assert packed.shape == shape
        np.testing.assert_array_equal(unpack_codes(packed), q)


def test_pack_roundtrip_narrow_and_degenerate():
    rng = np.random.default_rng(99)
    for _ in range(_TRIALS):
        shape = _random_shape(rng)
        constant = int(rng.integers(-(2 ** 16), 2 ** 16))
        q = np.full(shape, constant, dtype=np.int64)
        packed = pack_codes(q)
        assert packed.bits == 0 and packed.data.size == 0
        np.testing.assert_array_equal(unpack_codes(packed), q)
        # One differing element forces exactly the span's width (needs a
        # second element to keep the original constant present).
        if q.size > 1:
            q.reshape(-1)[0] = constant + 1
            packed = pack_codes(q)
            assert packed.bits == 1
            np.testing.assert_array_equal(unpack_codes(packed), q)


def test_pack_width_is_information_theoretic_minimum():
    rng = np.random.default_rng(7)
    for _ in range(_TRIALS):
        lo = int(rng.integers(-1000, 1000))
        hi = lo + int(rng.integers(0, 5000))
        q = rng.integers(lo, hi + 1, size=257)
        packed = pack_codes(q)
        span = int(q.max()) - int(q.min())
        assert packed.bits == span.bit_length()
        np.testing.assert_array_equal(unpack_codes(packed), q)


# ---------------------------------------------------------------------------
# Activation quantize / dequantize
# ---------------------------------------------------------------------------


def _random_spec(rng) -> ActQuantSpec:
    bits = int(rng.integers(2, 17))  # 2..16 activation bits
    mode = str(rng.choice(["observer", "pact"]))
    # Ranges from the degenerate floor to very large, matching what frozen
    # observers/alphas can legally carry.
    range_ = float(rng.choice([1e-5, 1e-2, 0.37, 1.0, 6.0, 123.0, 1e4]))
    return ActQuantSpec(bits, mode, range_)


def test_act_codes_are_integers_on_grid():
    rng = np.random.default_rng(2024)
    for _ in range(_TRIALS):
        spec = _random_spec(rng)
        shape = _random_shape(rng)
        # Inputs straddle the clip range on both sides, with exact zeros.
        x = (rng.standard_normal(shape) * 2.0 * spec.range).astype(np.float32)
        x.reshape(-1)[0] = 0.0
        codes = spec.quantize(x)
        assert codes.dtype == np.float32
        np.testing.assert_array_equal(codes, np.round(codes))  # integer-valued
        assert float(codes.min()) >= 0.0
        assert float(codes.max()) <= spec.levels


def test_act_quantize_dequantize_idempotent():
    """Grid points are fixed points: Q(D(Q(x))) == Q(x)."""
    rng = np.random.default_rng(4)
    for _ in range(_TRIALS):
        spec = _random_spec(rng)
        x = (rng.standard_normal((5, 13)) * 1.5 * spec.range).astype(np.float32)
        codes = spec.quantize(x).copy()
        again = spec.quantize(spec.dequantize(codes))
        np.testing.assert_array_equal(again, codes)


def test_act_grid_error_bounded_by_half_step():
    rng = np.random.default_rng(11)
    for _ in range(_TRIALS):
        spec = _random_spec(rng)
        # Strictly inside the clip range, where the grid must be faithful.
        x = (rng.random((311,)) * spec.range).astype(np.float32)
        codes = spec.quantize(x)
        reconstructed = spec.dequantize(codes)
        # Half a grid step plus float32 slack on the range arithmetic.
        bound = 0.5 * spec.scale * (1.0 + 1e-5) + 1e-6 * spec.range
        assert float(np.abs(reconstructed - np.clip(x, 0.0, spec.range)).max()) <= bound


def test_act_observer_matches_training_fake_quantize():
    """Serving-side codes × scale equals the training-side STE forward."""
    from repro.autograd import ops
    from repro.autograd.tensor import Tensor

    rng = np.random.default_rng(17)
    for _ in range(_TRIALS):
        bits = int(rng.integers(2, 9))
        range_ = float(rng.choice([1e-2, 0.5, 1.0, 7.3]))
        spec = ActQuantSpec(bits, "observer", range_)
        x = (rng.standard_normal((7, 11)) * 2.0 * range_).astype(np.float32)
        want = ops.fake_quantize(Tensor(x), range_, spec.levels, 0.0, 1.0).data
        codes = spec.quantize(x)
        np.testing.assert_array_equal(spec.dequantize(codes), want)


def test_act_pact_matches_training_quantizer():
    from repro.quant.pact import PACTActivationQuantizer
    from repro.autograd.tensor import Tensor, no_grad

    rng = np.random.default_rng(23)
    for _ in range(_TRIALS):
        bits = int(rng.integers(2, 9))
        alpha = float(rng.choice([0.1, 1.0, 3.7, 6.0]))
        quantizer = PACTActivationQuantizer(bits=bits, alpha_init=alpha)
        spec = ActQuantSpec(bits, "pact", alpha)
        x = (rng.standard_normal((5, 9)) * 2.0 * alpha).astype(np.float32)
        with no_grad():
            want = quantizer(Tensor(x)).data
        codes = spec.quantize(x)
        np.testing.assert_allclose(spec.dequantize(codes), want, atol=1e-6, rtol=1e-6)


def test_act_pact_subfloor_alpha_matches_training():
    """PACT clips to the raw alpha but divides by the floored one; serving
    must replay that split, not floor both (a floored clip would admit
    activations the trained model never passed)."""
    from repro.quant.act_quant import ActivationQuantizer
    from repro.autograd.tensor import Tensor, no_grad

    rng = np.random.default_rng(31)
    for alpha in (1e-6, 5e-6, 9.9e-6):
        quantizer = ActivationQuantizer(bits=4, mode="pact")
        quantizer.impl.alpha.data = np.array([alpha], dtype=np.float32)
        exported = quantizer.frozen_range()
        spec = ActQuantSpec(4, "pact", exported)
        # Straddle the raw alpha and the 1e-5 floor.
        x = (rng.random((257,)) * 3e-5 - 1e-5).astype(np.float32)
        with no_grad():
            want = quantizer(Tensor(x)).data
        codes = spec.quantize(x)
        np.testing.assert_allclose(spec.dequantize(codes), want, atol=1e-12, rtol=1e-6)


def test_act_spec_rejects_degenerate_parameters():
    with pytest.raises(PlanError, match="bits"):
        ActQuantSpec(0, "observer", 1.0)
    with pytest.raises(PlanError, match="bits"):
        ActQuantSpec(32, "observer", 1.0)
    with pytest.raises(PlanError, match="range"):
        ActQuantSpec(4, "observer", 0.0)
    with pytest.raises(PlanError, match="range"):
        ActQuantSpec(4, "observer", -1.0)
    with pytest.raises(PlanError, match="mode"):
        ActQuantSpec(4, "minmax", 1.0)
