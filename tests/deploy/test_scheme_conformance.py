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
from repro.autograd import ops
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

    ``large`` draws, for a depthwise conv, the smallest batch whose gather
    is above the buffer path's crossover, so the trial sits right at the
    shape rule's edge; otherwise the batch is 1-3.  Other kinds have no
    crossover: their stride alone picks the path.
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
    if large and groups == cin == cout > 1:
        per_image = _gathered(cin, kernel, stride, padding, size, 1)
        batch = plan._DEPTHWISE_TAPS_MIN_ELEMENTS // per_image + 1
    return groups, cin, cout, kernel, stride, padding, size, batch


def _gathered(cin, kernel, stride, padding, size, batch):
    out = (size + 2 * padding - kernel) // stride + 1
    return cin * kernel * kernel * batch * out * out


def _takes_buffer_path(groups, cin, cout, kernel, stride, padding, size, batch):
    """The shape rule: a depthwise conv reads the padded buffer above its
    crossover, at any stride; every other conv does exactly at stride 1."""
    if groups == cin == cout > 1:
        gathered = _gathered(cin, kernel, stride, padding, size, batch)
        return gathered > plan._DEPTHWISE_TAPS_MIN_ELEMENTS
    return stride == 1


def _call_recording_path(step, x):
    """``step(x)``, and whether the call read the padded buffer (no im2col)."""
    gathers = []

    def recording_im2col(*args):
        gathers.append(args)
        return ops.im2col(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plan, "im2col", recording_im2col)
        out = step(x)
    return out, not gathers


def _exact_conv_reference(step, x):
    """An integer-code ``ConvStep`` computed independently of its gathers.

    ``ops.im2col`` of the activation codes and an int64 ``np.matmul`` of
    the integer weight codes per group give the exact accumulators; the
    step's float32 affine then runs as the step runs it.
    """
    k, stride, pad, groups = step.kernel_size, step.stride, step.padding, step.groups
    batch, _, height, width = x.shape
    out_h = (height + 2 * pad - k) // stride + 1
    out_w = (width + 2 * pad - k) // stride + 1
    codes = x if step.act_quant is None else step.act_quant.quantize(x)
    cols = ops.im2col(codes, k, k, stride, pad)
    assert np.array_equal(cols, np.rint(cols)) and np.array_equal(step.w_mat, np.rint(step.w_mat))
    weights = step.w_mat.astype(np.int64)
    acc = np.matmul(
        weights.reshape(groups, -1, weights.shape[1]),
        cols.astype(np.int64).reshape(groups, -1, cols.shape[1]),
    ).reshape(len(weights), -1)
    out = acc.astype(np.float32) * step.mult
    if step.shift is not None:
        out += step.shift
    if step.relu:
        np.maximum(out, 0.0, out=out)
    return out.reshape(len(weights), batch, out_h, out_w).transpose(1, 0, 2, 3)


def test_grouped_conv_step_matches_eval_graph_randomized():
    """Random dense/grouped/depthwise geometries: ConvStep == nn.Conv2d forward.

    Draws cover depthwise (groups == channels), grouped and dense convs with
    odd spatial sizes, strides, paddings and 1x1/3x3 kernels, at batch sizes
    that land on both sides of the depthwise crossover.  The packing claim
    under test is that both paths' channel-outermost row order makes each
    group's reduction rows and output channels contiguous blocks.
    """
    rng = np.random.default_rng(2024)
    #: (kind, stride, path) drawn, the path as the step took it.
    drawn = set()
    for trial in range(2 * _TRIALS):
        groups, cin, cout, kernel, stride, padding, size, batch = _draw_conv(
            rng, trial % 5, large=trial % 2 == 1
        )
        bias = bool(rng.integers(0, 2))
        depthwise = groups == cin == cout and groups > 1
        kind = "depthwise" if depthwise else "grouped" if groups > 1 else "dense"

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
        got, buffered = _call_recording_path(step, x)
        assert buffered == _takes_buffer_path(
            groups, cin, cout, kernel, stride, padding, size, batch
        ), f"trial {trial}"
        drawn.add((kind, stride, buffered))
        np.testing.assert_allclose(got, _conv_reference(conv, x), atol=1e-5, rtol=1e-5)
    # Stride-1 dense and grouped convs on the buffer, strided ones on
    # im2col, and depthwise convs on both paths at both strides.
    assert drawn == {
        ("dense", 1, True), ("dense", 2, False),
        ("grouped", 1, True), ("grouped", 2, False),
        *(("depthwise", stride, path) for stride in (1, 2) for path in (False, True)),
    }


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint32)


def test_buffer_conv_is_bitwise_equal_to_im2col_on_integer_codes():
    """Integer weights against quantized activations: the padded buffer
    feeds the exact integer products im2col does, so the served bits match.

    Every trial is a stride-1 dense or grouped conv, or a depthwise conv at
    stride 1 or 2 above its crossover; the reference is
    :func:`_exact_conv_reference` (im2col and an int64 matmul).
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
        got, buffered = _call_recording_path(step, x)
        assert buffered, f"trial {trial}"
        reference = _exact_conv_reference(step, x)
        np.testing.assert_array_equal(_bits(got), _bits(reference), err_msg=f"trial {trial}")
    assert {kind for kind, _, _ in kinds} == {0, 1, 2}
    assert {kernel for _, kernel, _ in kinds} == {1, 3}
    assert {stride for kind, _, stride in kinds if kind == 0} == {1, 2}


#: Every stride-1 ``(kernel, padding)`` the tap view must handle: padding
#: 0 to k-1, plus a 1x1 conv with padding.
_TAP_GEOMETRIES = [(k, p) for k in (1, 3, 5) for p in range(k)] + [(1, 1)]


@pytest.mark.parametrize("mode", ["float", "observer", "pact"])
def test_stride1_tap_view_edge_geometries(mode):
    """Stride-1 dense and grouped ConvSteps at the tap view's edges.

    Every kernel and padding above, inputs from the smallest that gives an
    output (down to 1x1) up to k+2, batch 1-3.  Served logits match the
    eval graph within 1e-5, and on integer codes they equal the exact
    im2col reference bit for bit.
    """
    rng = np.random.default_rng(["float", "observer", "pact"].index(mode))
    trials = 0
    for kernel, padding in _TAP_GEOMETRIES:
        for size in range(max(1, kernel - 2 * padding), kernel + 3):
            batch = int(rng.integers(1, 4))
            groups = int(rng.choice([1, 2]))
            cin, cout = groups * int(rng.integers(1, 3)), groups * int(rng.integers(1, 3))
            if groups == cin == cout:
                cout += groups  # not depthwise: that kind keeps its crossover
            spec = None if mode == "float" else ActQuantSpec(
                int(rng.choice([2, 4, 8])), mode, float(rng.uniform(0.5, 3.0))
            )
            codes = rng.integers(-7, 8, size=(cout, cin // groups, kernel, kernel))
            codes = codes.astype(np.float32)
            w_scale = rng.uniform(0.01, 0.1, size=cout).astype(np.float32)
            bias = rng.standard_normal(cout).astype(np.float32)
            relu = bool(rng.integers(0, 2))
            act_scale = np.float32(1.0 if spec is None else spec.scale)
            step = ConvStep(
                "edge", codes.reshape(cout, -1), w_scale * act_scale, bias,
                kernel_size=kernel, stride=1, padding=padding, relu=relu,
                act_quant=spec, groups=groups,
            )
            conv = nn.Conv2d(cin, cout, kernel, padding=padding, groups=groups)
            conv.weight.data = codes * w_scale[:, None, None, None]
            conv.bias.data = bias
            conv.eval()
            x = rng.standard_normal((batch, cin, size, size)).astype(np.float32)
            got, buffered = _call_recording_path(step, x)
            assert buffered
            want = _conv_reference(conv, x if spec is None else spec.dequantize(spec.quantize(x)))
            if relu:
                want = np.maximum(want, 0.0)
            err = f"k={kernel} pad={padding} size={size} batch={batch} groups={groups}"
            np.testing.assert_allclose(got, want, atol=1e-5, rtol=1e-5, err_msg=err)
            # Integer codes: quantized inputs as they are, float inputs
            # rounded onto integers (negatives included).
            codes_in = x if spec is not None else np.rint(4 * x)
            np.testing.assert_array_equal(
                _bits(step(codes_in)), _bits(_exact_conv_reference(step, codes_in)), err_msg=err
            )
            trials += 1
    assert trials > 40


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
