"""Compile-time GEMM certification wired through plan and session.

The contract: an integer-activation artifact tags every GEMM whose f32
bound certifies exact integer arithmetic (summary tags show which
semantics is live per layer), and the one float32 BLAS path really does
compute those integers exactly — its logits equal a plan whose GEMMs run
as int64 ``np.matmul``.  Float-activation plans keep their kernel tags out
of the summary so the existing describe strings are untouched.
"""

import numpy as np
import pytest

from repro.deploy import InferenceSession, load_artifact, save_artifact
from repro.deploy.plan import GemmKernel
from repro.runtime.intgemm import F32_EXACT_BOUND, gemm_bound
from repro.runtime.threadpool import parallel_gemm, thread_scope
from tests.deploy.conftest import frozen_mixed_model

_KWARGS = {"num_classes": 10, "width_mult": 0.25}
_SHAPE = (4, 3, 12, 12)


@pytest.fixture
def act4_artifact(artifact_path):
    model = frozen_mixed_model(
        "resnet20", precisions=(2, 3, 4, 5), act_bits=4,
        calibration_shape=_SHAPE, **_KWARGS,
    )
    model.eval()
    save_artifact(model, artifact_path, arch="resnet20", arch_kwargs=_KWARGS)
    return load_artifact(artifact_path)


def test_auto_selects_dense_int_kernels(act4_artifact):
    session = InferenceSession(act4_artifact)
    kernels = session.gemm_kernels
    assert kernels, "plan reported no GEMM steps"
    assert all(tag == "int8" for tag in kernels.values()), kernels
    summary = session.summary()
    assert "gemm=int8" in summary
    assert "+aq4+int8" in summary


class _ExactIntKernel(GemmKernel):
    """Reference kernel: the true integer GEMM via int64 ``np.matmul``."""

    def __init__(self, w_mat: np.ndarray) -> None:
        self.w_codes = w_mat.astype(np.int64)

    def conv(self, cols, out):
        out[...] = self.w_codes @ cols.astype(np.int64)

    def linear(self, x):
        return (x.astype(np.int64) @ self.w_codes.T).astype(np.float32)


def test_int_tagged_plan_matches_exact_integer_gemm(act4_artifact, rng):
    served = InferenceSession(act4_artifact)
    exact = InferenceSession(act4_artifact)
    steps = list(_gemm_steps(exact.plan))
    for _, step in steps:
        step.kernel = _ExactIntKernel(step.kernel.w_mat)
    assert steps
    x = rng.standard_normal(_SHAPE).astype(np.float32)
    # Certified f32 BLAS and int64 matmul compute the same integers; the
    # folded output affine then sees identical inputs.
    np.testing.assert_array_equal(served.run(x), exact.run(x))


def test_f32_gemm_on_certified_codes_is_exact_integer_arithmetic():
    """Seeded property: int8 weights × 4-bit activations under the bound."""
    rng = np.random.default_rng(2024)
    for trial in range(40):
        m, n = (int(v) for v in rng.integers(1, 48, size=2))
        if trial % 4 == 0:
            # At the bound's edge: full int8 range, the largest certified K.
            w_lo, w_hi = -128, 127
            k = (F32_EXACT_BOUND - 1) // (128 * 15)
        else:
            w_lo, w_hi = -int(rng.integers(1, 129)), int(rng.integers(0, 128))
            k = int(rng.integers(1, 3000))
        assert gemm_bound(k, w_lo, w_hi, 0, 15) < F32_EXACT_BOUND
        w = rng.integers(w_lo, w_hi + 1, size=(m, k)).astype(np.int8)
        x = rng.integers(0, 16, size=(k, n)).astype(np.uint8)
        if trial % 8 == 0:  # extreme codes: every partial sum at its maximum
            w[:] = w_lo
            x[:] = 15
        reference = np.matmul(w.astype(np.int64), x.astype(np.int64))
        for threads in (1, 2):
            with thread_scope(threads):
                got = parallel_gemm(w.astype(np.float32), x.astype(np.float32))
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got.astype(np.int64), reference, err_msg=str(trial))


def test_float_activation_plan_keeps_float_kernels(artifact_path):
    model = frozen_mixed_model("resnet20", precisions=(2, 3, 4, 5), **_KWARGS)
    model.eval()
    save_artifact(model, artifact_path, arch="resnet20", arch_kwargs=_KWARGS)
    session = InferenceSession(load_artifact(artifact_path))
    assert session.activation_mode == "float"
    assert set(session.gemm_kernels.values()) == {"f32"}
    # Float plans keep the pre-existing describe strings: no kernel tags.
    assert "+int" not in session.summary()


def test_clones_share_kernel_operands(act4_artifact):
    session = InferenceSession(act4_artifact)
    clone = session.clone()
    first = {name: step for name, step in _gemm_steps(session.plan)}
    for name, step in _gemm_steps(clone.plan):
        assert step is not first[name], name
        assert step.kernel.w_mat is first[name].kernel.w_mat, name


def _gemm_steps(steps):
    for step in steps:
        if hasattr(step, "kernel"):
            yield step.name, step
        if hasattr(step, "main"):
            yield from _gemm_steps(step.main)
            yield from _gemm_steps(step.shortcut)
