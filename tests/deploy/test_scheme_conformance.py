"""Cross-scheme conformance matrix: every quantizer serves end-to-end.

The tentpole guarantee of the deployment tier: every quantization scheme the
repository trains (CSQ and all baselines) crossed with every architecture
family the registry serves (plain conv, depthwise-separable, attention,
MLP-mixer) round-trips export → save → load → serve, with pinned parity
against the frozen eval graph the artifact was exported from:

* logits within 1e-5 of the frozen eval graph for every ``(scheme, arch)``
  cell, with float and integer activation semantics;
* stored weight codes dequantize **bit-exactly** to the eval graph's
  effective weights for symmetric and palette schemes (DoReFa's affine
  re-association is pinned to float32 rounding error);
* the manifest records the scheme id and the session exposes it.

Plus seeded hypothesis-style property tests (following
``test_roundtrip_properties.py``) for the plan primitives: conv GEMM
packing on both input paths (im2col and the padded channel-major buffer) for
dense, grouped and depthwise convs, and the fused attention/mixer steps.
"""

import numpy as np
import pytest

from repro import nn
from repro.autograd.tensor import Tensor, no_grad
from repro.baselines.bsq import bsq_layers
from repro.csq.precision import csq_layers
from repro.deploy import (
    KNOWN_SCHEMES,
    InferenceSession,
    load_artifact,
    save_artifact,
)
from repro.deploy import plan
from repro.deploy.plan import (
    ActQuantSpec,
    AttentionStep,
    ChannelMixStep,
    ConvStep,
    GroupedGemmKernel,
    MeanTokensStep,
    PlanError,
    TokenMixStep,
    TokensStep,
    compile_plan,
)
from repro.deploy.testing import frozen_scheme_model
from repro.models.attention import AttentionBlock, MixerBlock
from repro.quant.qconv import QConv2d
from repro.quant.qlinear import QLinear

_TRIALS = 25

#: (arch, arch_kwargs, input shape) — one representative per model family
#: the plan compiler knows: plain conv+BN, depthwise-separable (grouped
#: convs), attention (fused token steps), MLP-mixer (token/channel mixing).
_ARCHS = [
    ("simple_convnet", {"num_classes": 5, "width": 4}, (2, 3, 12, 12)),
    ("mobilenet_tiny", {"num_classes": 5, "in_channels": 3}, (2, 3, 16, 16)),
    ("tiny_attention", {"num_classes": 5, "dim": 8, "patch_size": 4}, (2, 3, 8, 8)),
    ("tiny_mixer", {"num_classes": 5, "dim": 8, "patch_size": 4, "image_size": 8}, (2, 3, 8, 8)),
]

_MATRIX = [(scheme, case) for scheme in KNOWN_SCHEMES for case in _ARCHS]


def _roundtrip(scheme, arch, arch_kwargs, shape, tmp_path, act_bits):
    model = frozen_scheme_model(
        scheme, arch, seed=3, act_bits=act_bits, calibration_shape=shape, **arch_kwargs
    )
    rng = np.random.default_rng(7)
    x = rng.standard_normal(shape).astype(np.float32)
    with no_grad():
        reference = model(Tensor(x)).data
    path = str(tmp_path / f"{scheme}_{arch}_{act_bits}.npz")
    save_artifact(model, path, arch, arch_kwargs=arch_kwargs)
    session = InferenceSession(load_artifact(path))
    return model, session, x, reference


@pytest.mark.parametrize(
    "scheme,case", _MATRIX, ids=[f"{scheme}-{case[0]}" for scheme, case in _MATRIX]
)
def test_matrix_cell_serves_with_pinned_parity(scheme, case, tmp_path):
    """Every (scheme × arch) cell: export → load → serve matches eval graph."""
    arch, arch_kwargs, shape = case
    model, session, x, reference = _roundtrip(
        scheme, arch, arch_kwargs, shape, tmp_path, act_bits=32
    )
    assert session.scheme_id == scheme
    assert session.artifact.manifest["scheme"] == scheme
    got = session.run(x)
    assert got.shape == reference.shape
    np.testing.assert_allclose(got, reference, atol=1e-5, rtol=1e-5)


@pytest.mark.parametrize("scheme", KNOWN_SCHEMES)
def test_matrix_act_quantized_leg(scheme, tmp_path):
    """Integer-activation serving (act_bits=4) holds for every scheme."""
    arch, arch_kwargs, shape = _ARCHS[0]
    model, session, x, reference = _roundtrip(
        scheme, arch, arch_kwargs, shape, tmp_path, act_bits=4
    )
    assert session.activation_mode == "integer"
    np.testing.assert_allclose(session.run(x), reference, atol=1e-5, rtol=1e-5)


@pytest.mark.parametrize("scheme", ["csq", "bsq", "uniform_qat", "dorefa", "lqnets"])
def test_matrix_act_quantized_grouped_leg(scheme, tmp_path):
    """Integer activations through grouped convolutions (depthwise arch)."""
    arch, arch_kwargs, shape = _ARCHS[1]
    _, session, x, reference = _roundtrip(
        scheme, arch, arch_kwargs, shape, tmp_path, act_bits=4
    )
    assert session.activation_mode == "integer"
    np.testing.assert_allclose(session.run(x), reference, atol=1e-5, rtol=1e-5)


def _eval_effective_weights(model):
    """name → the weight the frozen eval graph multiplies with."""
    weights = {}
    for name, module in model.named_modules():
        if isinstance(module, (QConv2d, QLinear)):
            with no_grad():
                weights[name] = module.weight_quantizer(module.weight).data
    for name, layer in csq_layers(model):
        weights[name] = layer.bitparam.frozen_weight()
    for name, layer in bsq_layers(model):
        planes_p = np.round(np.clip(layer.bits_p.data, 0.0, 1.0))
        planes_n = np.round(np.clip(layer.bits_n.data, 0.0, 1.0))
        broadcast = (layer.num_bits,) + (1,) * len(layer.weight_shape)
        masked = (layer._pow2 * layer.bit_mask.data).reshape(broadcast)
        accumulated = ((planes_p - planes_n) * masked).sum(axis=0).astype(np.float32)
        levels = float(2 ** layer.num_bits - 1)
        factor = np.divide(layer.scale.data, levels).astype(np.float32)
        weights[name] = (accumulated * factor).astype(np.float32)
    return weights


@pytest.mark.parametrize("scheme", KNOWN_SCHEMES)
def test_stored_codes_reproduce_eval_weights(scheme, tmp_path):
    """Dequantized codes equal the eval graph's weights — bit-exact where the
    dequantization is a pure f32 replay (symmetric/palette), float32-rounding
    close for DoReFa's re-associated affine map."""
    arch, arch_kwargs, shape = _ARCHS[0]
    model = frozen_scheme_model(
        scheme, arch, seed=11, act_bits=32, calibration_shape=shape, **arch_kwargs
    )
    path = str(tmp_path / "codes.npz")
    save_artifact(model, path, arch, arch_kwargs=arch_kwargs)
    artifact = load_artifact(path)
    eval_weights = _eval_effective_weights(model)
    assert set(artifact.quantized) == set(eval_weights)
    for name, record in artifact.quantized.items():
        assert record.scheme == scheme
        got = record.dequantized_weight
        want = eval_weights[name]
        if scheme == "dorefa":
            assert record.dequant_kind == "affine"
            np.testing.assert_allclose(got, want, atol=2e-7, rtol=0)
        else:
            if scheme == "lqnets":
                assert record.dequant_kind == "palette"
            else:
                assert record.dequant_kind == "symmetric"
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# Property: grouped-convolution GEMM packing
# ---------------------------------------------------------------------------


def _conv_reference(conv, x):
    with no_grad():
        return conv(Tensor(x)).data


def _draw_conv(rng, groups, large):
    """A random conv geometry with ``groups`` (0 draws depthwise).

    ``large`` draws the smallest batch whose gather is above the buffer
    path's crossover, so the trial sits right at the shape rule's edge;
    otherwise the batch is 1-3.
    """
    multiplier = int(rng.integers(1, 4))
    if groups == 0:
        groups = cin = cout = int(rng.integers(2, 13))
    else:
        cin = groups * int(rng.integers(1, 5))
        cout = groups * multiplier
    kernel = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))
    padding = int(rng.integers(0, 2)) if kernel > 1 else 0
    size = int(rng.integers(kernel + 1, 15))
    batch = int(rng.integers(1, 4))
    if large:
        per_image = _gathered(cin, kernel, stride, padding, size, 1)
        batch = _crossover(groups, cin, cout) // per_image + 1
    return groups, cin, cout, kernel, stride, padding, size, batch


def _crossover(groups, cin, cout):
    """The gather size above which a stride-1 conv reads a padded buffer."""
    if groups == cin == cout > 1:
        return plan._DEPTHWISE_TAPS_MIN_ELEMENTS
    return plan._SMALL_GATHER_ELEMENTS


def _gathered(cin, kernel, stride, padding, size, batch):
    out = (size + 2 * padding - kernel) // stride + 1
    return cin * kernel * kernel * batch * out * out


def _takes_buffer_path(groups, cin, cout, kernel, stride, padding, size, batch):
    depthwise = groups == cin == cout > 1
    return (stride == 1 or depthwise) and (
        _gathered(cin, kernel, stride, padding, size, batch) > _crossover(groups, cin, cout)
    )


def test_grouped_conv_step_matches_eval_graph_randomized():
    """Random dense/grouped/depthwise geometries: ConvStep == nn.Conv2d forward.

    Draws cover depthwise (groups == channels), grouped and dense convs with
    odd spatial sizes, strides, paddings and 1x1/3x3 kernels, at batch sizes
    that land on both sides of the buffer path's shape rule.  The packing
    claim under test is that both paths' channel-outermost row order makes
    each group's reduction rows and output channels contiguous blocks.
    """
    rng = np.random.default_rng(2024)
    #: (kind, path) pairs drawn; every kind must land on both paths.
    drawn = set()
    depthwise_path_strides = set()
    for trial in range(2 * _TRIALS):
        groups, cin, cout, kernel, stride, padding, size, batch = _draw_conv(
            rng, trial % 5, large=trial % 2 == 1
        )
        bias = bool(rng.integers(0, 2))
        buffered = _takes_buffer_path(groups, cin, cout, kernel, stride, padding, size, batch)
        depthwise = groups == cin == cout and groups > 1
        kind = "depthwise" if depthwise else "grouped" if groups > 1 else "dense"
        drawn.add((kind, buffered))
        if depthwise:
            depthwise_path_strides.add((stride, buffered))

        conv = nn.Conv2d(cin, cout, kernel, stride=stride, padding=padding,
                         bias=bias, groups=groups)
        conv.weight.data = rng.standard_normal(conv.weight.data.shape).astype(np.float32)
        if bias:
            conv.bias.data = rng.standard_normal(cout).astype(np.float32)
        conv.eval()

        w_mat = conv.weight.data.reshape(cout, -1).astype(np.float32)
        step = ConvStep(
            f"trial{trial}",
            w_mat,
            np.ones(cout, dtype=np.float32),
            conv.bias.data.astype(np.float32) if bias else None,
            kernel_size=kernel,
            stride=stride,
            padding=padding,
            groups=groups,
        )
        if groups > 1:
            assert isinstance(step.kernel, GroupedGemmKernel)
            assert f"+g{groups}" in step.describe()
        x = rng.standard_normal((batch, cin, size, size)).astype(np.float32)
        np.testing.assert_allclose(
            step(x), _conv_reference(conv, x), atol=1e-5, rtol=1e-5
        )
    assert drawn == {(kind, path) for kind in ("dense", "grouped", "depthwise")
                     for path in (False, True)}
    assert depthwise_path_strides == {(1, True), (1, False), (2, True), (2, False)}


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint32)


def test_buffer_conv_is_bitwise_equal_to_im2col_on_integer_codes():
    """Integer weights against quantized activations: the padded buffer and
    im2col feed the same exact integer products, so the served bits match.

    Every trial is a stride-1 dense or grouped conv, or a depthwise conv at
    stride 1 or 2, above the shape rule's crossover; the reference is the
    same step with the crossovers raised so that it gathers with im2col.
    """
    rng = np.random.default_rng(77)
    kinds = set()
    for trial in range(_TRIALS):
        kind = int(rng.choice([0, 1, 2]))  # depthwise, dense, grouped
        groups, cin, cout, kernel, stride, padding, size, batch = _draw_conv(
            rng, kind, large=True
        )
        if kind:
            # A stride-2 draw only raised the batch, so stride 1 stays above
            # the crossover; strided depthwise convs use the buffer too.
            stride = 1
        assert _takes_buffer_path(groups, cin, cout, kernel, stride, padding, size, batch)
        kinds.add((kind, kernel, stride))
        spec = ActQuantSpec(
            int(rng.choice([2, 4, 8])),
            str(rng.choice(["observer", "pact"])),
            float(rng.uniform(0.5, 3.0)),
        )
        w_mat = rng.integers(-7, 8, size=(cout, cin // groups * kernel * kernel))
        step = ConvStep(
            f"int{trial}",
            w_mat.astype(np.float32),
            rng.uniform(0.001, 0.1, size=cout).astype(np.float32),
            rng.standard_normal(cout).astype(np.float32) if trial % 2 else None,
            kernel_size=kernel,
            stride=stride,
            padding=padding,
            relu=bool(trial % 3),
            act_quant=spec,
            groups=groups,
        )
        # Inputs as a previous conv step hands them over: a transposed
        # channel-major view, with negatives the quantizer clips.
        x = rng.standard_normal((cin, batch, size, size)).astype(np.float32)
        x = x.transpose(1, 0, 2, 3)
        buffered = step(x)
        with pytest.MonkeyPatch.context() as patch:
            for crossover in ("_SMALL_GATHER_ELEMENTS", "_DEPTHWISE_TAPS_MIN_ELEMENTS"):
                patch.setattr(plan, crossover, np.iinfo(np.int64).max)
            reference = step(x)
        np.testing.assert_array_equal(_bits(buffered), _bits(reference), err_msg=f"trial {trial}")
    assert {kind for kind, _, _ in kinds} == {0, 1, 2}
    assert {kernel for _, kernel, _ in kinds} == {1, 3}
    assert {stride for kind, _, stride in kinds if kind == 0} == {1, 2}


def test_grouped_kernel_rejects_indivisible_geometry():
    w_mat = np.zeros((6, 4), dtype=np.float32)
    with pytest.raises(PlanError, match="not divisible"):
        GroupedGemmKernel(w_mat, 4)  # 6 output channels, groups=4
    kernel = GroupedGemmKernel(w_mat, 3)
    with pytest.raises(PlanError, match="not divisible"):
        kernel.conv(np.zeros((5, 2), dtype=np.float32), np.zeros((6, 2), dtype=np.float32))
    with pytest.raises(PlanError, match="convolutions"):
        kernel.linear(np.zeros((2, 4), dtype=np.float32))


# ---------------------------------------------------------------------------
# Property: attention / mixer plan steps
# ---------------------------------------------------------------------------


def test_tokens_step_matches_reshape_reference_randomized():
    rng = np.random.default_rng(31)
    step = TokensStep()
    pool = MeanTokensStep()
    for _ in range(_TRIALS):
        n, c, h, w = (int(rng.integers(1, 6)) for _ in range(4))
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        want = x.reshape(n, c, h * w).transpose(0, 2, 1)
        got = step(x)
        np.testing.assert_array_equal(got, want)
        assert got.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(pool(got), want.mean(axis=1),
                                   atol=1e-6, rtol=1e-6)


def _seeded_block(block, rng):
    for _, param in block.named_parameters():
        param.data = (0.3 * rng.standard_normal(param.data.shape)).astype(np.float32)
    block.eval()
    return block


def test_attention_step_matches_eval_graph_randomized():
    """Random (batch, tokens, dim) draws: the fused AttentionStep reproduces
    AttentionBlock's eval forward (softmax attention + residual MLP)."""
    rng = np.random.default_rng(77)
    for _ in range(_TRIALS):
        dim = int(rng.choice([4, 8]))
        tokens = int(rng.integers(2, 7))
        batch = int(rng.integers(1, 4))
        block = _seeded_block(AttentionBlock(dim, mlp_ratio=float(rng.choice([1.0, 2.0]))), rng)
        steps = compile_plan(block, {})
        assert len(steps) == 1 and isinstance(steps[0], AttentionStep)
        x = rng.standard_normal((batch, tokens, dim)).astype(np.float32)
        with no_grad():
            want = block(Tensor(x)).data
        np.testing.assert_allclose(steps[0](x), want, atol=1e-5, rtol=1e-5)


def test_mixer_steps_match_eval_graph_randomized():
    rng = np.random.default_rng(78)
    for _ in range(_TRIALS):
        dim = int(rng.choice([4, 8]))
        tokens = int(rng.integers(2, 7))
        batch = int(rng.integers(1, 4))
        block = _seeded_block(MixerBlock(dim, num_tokens=tokens), rng)
        steps = compile_plan(block, {})
        assert [type(s) for s in steps] == [TokenMixStep, ChannelMixStep]
        x = rng.standard_normal((batch, tokens, dim)).astype(np.float32)
        out = x
        for step in steps:
            out = step(out)
        with no_grad():
            want = block(Tensor(x)).data
        np.testing.assert_allclose(out, want, atol=1e-5, rtol=1e-5)
