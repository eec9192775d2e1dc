"""Finite-difference gradient checks for conv2d and the pooling ops.

The im2col/col2im hot path was rewritten around ``as_strided`` patch views
and a slice-accumulating scatter; these checks pin the gradients across the
stride/padding/kernel grid so any future layout change that silently breaks
a corner (odd sizes, stride > kernel, asymmetric geometry) is caught.
"""

import numpy as np
import pytest

from repro.autograd import gradcheck, ops
from repro.autograd.tensor import Tensor


def _randn64(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestConv2dGradcheck:
    @pytest.mark.parametrize("kernel,stride,padding", [
        (1, 1, 0),
        (2, 1, 0),
        (3, 1, 1),
        (3, 2, 1),
        (2, 2, 0),
        (3, 1, 0),
        (3, 2, 0),
        (1, 2, 0),
        (3, 1, 2),
    ])
    def test_conv2d_input_and_weight_grads(self, kernel, stride, padding):
        x = Tensor(_randn64(2, 3, 7, 7, seed=1), requires_grad=True)
        w = Tensor(_randn64(4, 3, kernel, kernel, seed=2), requires_grad=True)
        b = Tensor(_randn64(4, seed=3), requires_grad=True)
        assert gradcheck(
            lambda x, w, b: ops.conv2d(x, w, b, stride=stride, padding=padding),
            [x, w, b],
        )

    def test_conv2d_no_bias(self):
        x = Tensor(_randn64(2, 2, 5, 5, seed=4), requires_grad=True)
        w = Tensor(_randn64(3, 2, 3, 3, seed=5), requires_grad=True)
        assert gradcheck(lambda x, w: ops.conv2d(x, w, stride=1, padding=1), [x, w])

    def test_conv2d_rectangular_input(self):
        x = Tensor(_randn64(1, 2, 6, 9, seed=6), requires_grad=True)
        w = Tensor(_randn64(2, 2, 3, 3, seed=7), requires_grad=True)
        assert gradcheck(lambda x, w: ops.conv2d(x, w, stride=2, padding=1), [x, w])


class TestPoolingGradcheck:
    @pytest.mark.parametrize("kernel,stride", [
        (2, 2),
        (2, 1),
        (3, 2),
        (3, 3),
        (2, 3),  # stride larger than kernel (gaps between windows)
    ])
    def test_avg_pool2d(self, kernel, stride):
        x = Tensor(_randn64(2, 3, 7, 7, seed=8), requires_grad=True)
        assert gradcheck(lambda x: ops.avg_pool2d(x, kernel, stride), [x])

    @pytest.mark.parametrize("kernel,stride", [
        (2, 2),
        (3, 2),
        (3, 3),
        (2, 3),
    ])
    def test_max_pool2d(self, kernel, stride):
        # Well-separated values so finite differences never flip the argmax.
        rng = np.random.default_rng(9)
        values = rng.permutation(2 * 2 * 8 * 8).astype(np.float64)
        x = Tensor(values.reshape(2, 2, 8, 8) * 0.37, requires_grad=True)
        assert gradcheck(lambda x: ops.max_pool2d(x, kernel, stride), [x])

    def test_max_pool2d_overlapping_windows_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = ops.max_pool2d(Tensor(x), 2, 1)
        expected = np.array([[5, 6, 7], [9, 10, 11], [13, 14, 15]], dtype=np.float32)
        np.testing.assert_array_equal(out.data[0, 0], expected)


class TestScratchBufferIsolation:
    """im2col results must not alias anything another computation can touch:
    conv2d saves them for backward while later calls gather their own
    columns, so they must never share memory with the input or with the
    columns of a later call.  The 1x1-kernel
    geometries below are the ones where a naive patch-view reshape would
    degenerate into a view of the input."""

    @pytest.mark.parametrize("batch,channels", [(1, 4), (2, 1), (1, 1)])
    def test_im2col_never_aliases_input_or_later_calls(self, batch, channels):
        x = np.random.default_rng(0).standard_normal(
            (batch, channels, 6, 6)
        ).astype(np.float32)
        for padding in (0, 1):
            cols = ops.im2col(x, 1, 1, 1, padding)
            assert not np.shares_memory(cols, x), f"padding={padding}: cols aliases x"
            again = ops.im2col(x, 1, 1, 1, padding)
            assert not np.shares_memory(cols, again), (
                f"padding={padding}: live cols were recycled by a later call"
            )
            expected = cols.copy()
            again[:] = -1.0  # scribble over the second gather
            np.testing.assert_array_equal(cols, expected)

    def test_back_to_back_conv_grads_unaffected_by_scratch_reuse(self):
        # Two same-geometry convs: the second call's scratch must not
        # corrupt the cols the first conv saved.
        rng = np.random.default_rng(1)
        x1 = Tensor(rng.standard_normal((1, 4, 6, 6)), requires_grad=True)
        x2 = Tensor(rng.standard_normal((1, 4, 6, 6)), requires_grad=True)
        w1 = Tensor(rng.standard_normal((3, 4, 1, 1)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((3, 4, 1, 1)), requires_grad=True)
        out1 = ops.conv2d(x1, w1, stride=1, padding=1)
        out2 = ops.conv2d(x2, w2, stride=1, padding=1)
        out1.sum().backward()
        expected_grad_w1 = np.zeros_like(w1.data)
        padded = np.pad(x1.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected_grad_w1[:, :, 0, 0] = padded.sum(axis=(0, 2, 3))
        np.testing.assert_allclose(w1.grad, expected_grad_w1, rtol=1e-5)
        del out2


class TestGradBufferIsolation:
    def test_shared_backward_array_not_aliased_between_leaves(self):
        # add's backward returns the incoming grad object for both parents
        # when no broadcasting happened; each leaf must still get its own
        # .grad buffer so in-place grad edits cannot corrupt a sibling.
        a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        (a + b).backward(np.ones(3, dtype=np.float32))
        assert a.grad is not b.grad
        a.grad[0] = 99.0
        assert b.grad[0] == 1.0


class TestColumnLayoutConsistency:
    """im2col/col2im stay mutually adjoint: <col2im(c), x> == <c, im2col(x)>."""

    @pytest.mark.parametrize("kernel,stride,padding", [
        (3, 1, 1),
        (2, 2, 0),
        (3, 2, 1),
    ])
    def test_adjoint_identity(self, kernel, stride, padding):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        cols = ops.im2col(x, kernel, kernel, stride, padding)
        c = rng.standard_normal(cols.shape).astype(np.float32)
        back = ops.col2im(c, x.shape, kernel, kernel, stride, padding)
        lhs = float(np.sum(back * x))
        rhs = float(np.sum(c * cols))
        assert lhs == pytest.approx(rhs, rel=1e-4)
