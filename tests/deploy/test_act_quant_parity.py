"""Served integer-activation outputs vs the frozen CSQ training-graph eval.

The deploy conformance contract for the paper's "A-Bits" column: an
``act_bits < 32`` artifact must serve the *same numbers* the frozen CSQ
model produced when it was validated — the session replays each layer's
frozen clip range on the training-time quantization grid, so the only
permitted divergence is float32 reassociation (codes × codes GEMM + one
folded output affine instead of elementwise dequantize + float conv + BN),
orders of magnitude below one activation quantization step.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.deploy import InferenceSession, load_artifact, save_artifact
from tests.deploy.conftest import frozen_mixed_model

# Float32 reassociation budget: far below any activation grid step
# (the coarsest grid here, 4 bits over a ~unit range, steps at ~6.7e-2).
_TOL = dict(atol=1e-4, rtol=1e-4)

# (arch, arch_kwargs, batched input shape) — the models the paper's tables
# report A-Bits for (resnet/vgg) plus the linear-only path.
_CASES = [
    ("resnet20", {"num_classes": 10, "width_mult": 0.25}, (4, 3, 12, 12)),
    ("vgg11_bn", {"num_classes": 10, "width_mult": 0.125}, (2, 3, 32, 32)),
    ("tiny_mlp", {}, (4, 16)),
]


def _served_and_frozen(arch, arch_kwargs, shape, artifact_path, act_bits,
                       act_mode="observer"):
    model = frozen_mixed_model(
        arch, precisions=(2, 3, 4, 5), act_bits=act_bits, act_mode=act_mode,
        calibration_shape=shape, **arch_kwargs,
    )
    model.eval()
    save_artifact(model, artifact_path, arch=arch, arch_kwargs=arch_kwargs)
    session = InferenceSession(load_artifact(artifact_path))
    return session, model


@pytest.mark.parametrize("arch,arch_kwargs,shape", _CASES,
                         ids=[case[0] for case in _CASES])
@pytest.mark.parametrize("act_bits", [4, 8])
def test_served_matches_frozen_csq_eval(arch, arch_kwargs, shape, act_bits,
                                        artifact_path, rng):
    """train→freeze→export→serve reproduces the frozen CSQ eval graph."""
    session, frozen = _served_and_frozen(arch, arch_kwargs, shape,
                                         artifact_path, act_bits)
    assert session.activation_mode == "integer"
    x = rng.standard_normal(shape).astype(np.float32)
    got = session.run(x)
    with no_grad():
        want = frozen(Tensor(x)).data
    np.testing.assert_allclose(got, want, **_TOL)


@pytest.mark.parametrize("arch,arch_kwargs,shape", _CASES,
                         ids=[case[0] for case in _CASES])
def test_argmax_agreement_batched(arch, arch_kwargs, shape, artifact_path, rng):
    """Served class decisions agree with the frozen model at batch > 1."""
    batched = (8,) + shape[1:]
    session, frozen = _served_and_frozen(arch, arch_kwargs, batched,
                                         artifact_path, act_bits=4)
    x = rng.standard_normal(batched).astype(np.float32)
    with no_grad():
        want = frozen(Tensor(x)).data.argmax(axis=-1)
    np.testing.assert_array_equal(session.predict(x), want)


def test_pact_range_parity(artifact_path, rng):
    """PACT-mode layers serve on the alpha-clipped grid they trained with."""
    shape = (4, 3, 10, 10)
    session, frozen = _served_and_frozen(
        "simple_convnet", {"num_classes": 10, "width": 8}, shape,
        artifact_path, act_bits=4, act_mode="pact",
    )
    assert session.activation_mode == "integer"
    x = rng.standard_normal(shape).astype(np.float32)
    got = session.run(x)
    with no_grad():
        want = frozen(Tensor(x)).data
    np.testing.assert_allclose(got, want, **_TOL)


def test_uncalibrated_observer_still_serves(artifact_path, rng):
    """Default (0, 1) observer ranges round-trip too — a trivial but legal grid."""
    shape = (2, 3, 10, 10)
    model = frozen_mixed_model("simple_convnet", act_bits=8,
                               num_classes=10, width=8)  # no calibration_shape
    model.eval()
    save_artifact(model, artifact_path, arch="simple_convnet",
                  arch_kwargs={"num_classes": 10, "width": 8})
    session = InferenceSession(artifact_path)
    assert session.activation_mode == "integer"
    x = rng.standard_normal(shape).astype(np.float32)
    with no_grad():
        want = model(Tensor(x)).data
    np.testing.assert_allclose(session.run(x), want, **_TOL)


def test_float_override_diverges_from_frozen_grid(artifact_path, rng):
    """float_activations=True is a real semantic change, not a no-op."""
    shape = (4, 3, 12, 12)
    session, frozen = _served_and_frozen(
        "resnet20", {"num_classes": 10, "width_mult": 0.25}, shape,
        artifact_path, act_bits=4,
    )
    override = InferenceSession(session.artifact, float_activations=True)
    x = rng.standard_normal(shape).astype(np.float32)
    with no_grad():
        want = frozen(Tensor(x)).data
    # The integer session matches the frozen grid; the float override skips
    # the activation grid entirely and must measurably diverge from it.
    np.testing.assert_allclose(session.run(x), want, **_TOL)
    assert float(np.abs(override.run(x) - want).max()) > 1e-4


def test_server_serves_integer_activation_artifact(artifact_path, rng):
    """A served integer-activation session matches its own ``run``."""
    from repro.deploy import Server

    shape = (6, 3, 12, 12)
    session, _ = _served_and_frozen(
        "resnet20", {"num_classes": 10, "width_mult": 0.25}, shape,
        artifact_path, act_bits=4,
    )
    x = rng.standard_normal(shape).astype(np.float32)
    want = session.run(x)
    with Server(session, max_batch=4, max_wait_ms=1.0) as server:
        served = np.stack(server.predict_many(list(x)))
    np.testing.assert_allclose(served, want, atol=1e-6, rtol=1e-6)
