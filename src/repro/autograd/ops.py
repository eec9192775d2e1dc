"""Primitive differentiable operations.

Every function here takes :class:`~repro.autograd.tensor.Tensor` (or
array-like) inputs, computes the forward value with NumPy, and registers a
closure computing the vector-Jacobian product for the backward pass.

The operations cover what the reproduction needs:

* elementwise arithmetic with full broadcasting,
* reductions (sum/mean/max/min),
* shape manipulation (reshape/transpose/indexing/concatenate/pad),
* activations (relu, sigmoid, tanh, softplus),
* ``matmul`` for linear layers,
* ``conv2d`` / ``max_pool2d`` / ``avg_pool2d`` implemented with im2col,
* numerically-stable ``log_softmax`` used by the cross-entropy loss.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.tensor import ArrayLike, Tensor, ensure_tensor, unbroadcast
from repro.runtime.intgemm import parallel_gemm

# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def identity(x: ArrayLike) -> Tensor:
    """Return a graph-participating copy of ``x``."""
    x = ensure_tensor(x)
    return Tensor._from_op(x.data.copy(), (x,), lambda g: (g,), "identity")


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data + b.data

    def backward(grad: np.ndarray):
        return unbroadcast(grad, a.shape), unbroadcast(grad, b.shape)

    return Tensor._from_op(out, (a, b), backward, "add")


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data - b.data

    def backward(grad: np.ndarray):
        return unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape)

    return Tensor._from_op(out, (a, b), backward, "sub")


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data * b.data

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad * b.data, a.shape),
            unbroadcast(grad * a.data, b.shape),
        )

    return Tensor._from_op(out, (a, b), backward, "mul")


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data / b.data

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad / b.data, a.shape),
            unbroadcast(-grad * a.data / (b.data ** 2), b.shape),
        )

    return Tensor._from_op(out, (a, b), backward, "div")


def neg(x: ArrayLike) -> Tensor:
    x = ensure_tensor(x)
    return Tensor._from_op(-x.data, (x,), lambda g: (-g,), "neg")


def pow(x: ArrayLike, exponent: float) -> Tensor:  # noqa: A001 - mirrors torch API
    """Elementwise power with a constant (non-differentiated) exponent."""
    x = ensure_tensor(x)
    out = x.data ** exponent

    def backward(grad: np.ndarray):
        return (grad * exponent * (x.data ** (exponent - 1)),)

    return Tensor._from_op(out, (x,), backward, "pow")


def abs(x: ArrayLike) -> Tensor:  # noqa: A001 - mirrors torch API
    x = ensure_tensor(x)
    out = np.abs(x.data)

    def backward(grad: np.ndarray):
        return (grad * np.sign(x.data),)

    return Tensor._from_op(out, (x,), backward, "abs")


def exp(x: ArrayLike) -> Tensor:
    x = ensure_tensor(x)
    out = np.exp(x.data)

    def backward(grad: np.ndarray):
        return (grad * out,)

    return Tensor._from_op(out, (x,), backward, "exp")


def log(x: ArrayLike) -> Tensor:
    x = ensure_tensor(x)
    out = np.log(x.data)

    def backward(grad: np.ndarray):
        return (grad / x.data,)

    return Tensor._from_op(out, (x,), backward, "log")


def sqrt(x: ArrayLike) -> Tensor:
    x = ensure_tensor(x)
    out = np.sqrt(x.data)

    def backward(grad: np.ndarray):
        return (grad * 0.5 / out,)

    return Tensor._from_op(out, (x,), backward, "sqrt")


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = np.maximum(a.data, b.data)

    def backward(grad: np.ndarray):
        a_mask = (a.data >= b.data).astype(grad.dtype)
        return (
            unbroadcast(grad * a_mask, a.shape),
            unbroadcast(grad * (1.0 - a_mask), b.shape),
        )

    return Tensor._from_op(out, (a, b), backward, "maximum")


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = np.minimum(a.data, b.data)

    def backward(grad: np.ndarray):
        a_mask = (a.data <= b.data).astype(grad.dtype)
        return (
            unbroadcast(grad * a_mask, a.shape),
            unbroadcast(grad * (1.0 - a_mask), b.shape),
        )

    return Tensor._from_op(out, (a, b), backward, "minimum")


def where(condition: ArrayLike, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable ``np.where``; the condition itself is not differentiated."""
    cond = ensure_tensor(condition).data.astype(bool)
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray):
        return (
            None,
            unbroadcast(np.where(cond, grad, 0.0), a.shape),
            unbroadcast(np.where(cond, 0.0, grad), b.shape),
        )

    return Tensor._from_op(out, (ensure_tensor(condition), a, b), backward, "where")


def clip(x: ArrayLike, low: float, high: float) -> Tensor:
    """Clamp with zero gradient outside ``[low, high]`` (hard clip)."""
    x = ensure_tensor(x)
    out = np.clip(x.data, low, high)

    def backward(grad: np.ndarray):
        mask = ((x.data >= low) & (x.data <= high)).astype(grad.dtype)
        return (grad * mask,)

    return Tensor._from_op(out, (x,), backward, "clip")


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def relu(x: ArrayLike) -> Tensor:
    x = ensure_tensor(x)
    out = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray):
        return (grad * (x.data > 0.0).astype(grad.dtype),)

    return Tensor._from_op(out, (x,), backward, "relu")


def leaky_relu(x: ArrayLike, negative_slope: float = 0.01) -> Tensor:
    x = ensure_tensor(x)
    out = np.where(x.data > 0.0, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray):
        slope = np.where(x.data > 0.0, 1.0, negative_slope).astype(grad.dtype)
        return (grad * slope,)

    return Tensor._from_op(out, (x,), backward, "leaky_relu")


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Branch-free numerically stable logistic sigmoid on a NumPy array."""
    e = np.exp(-np.abs(z))
    t = 1.0 / (1.0 + e)
    return np.where(z >= 0, t, e * t)


def sigmoid(x: ArrayLike) -> Tensor:
    """Numerically stable logistic sigmoid."""
    x = ensure_tensor(x)
    out = _stable_sigmoid(x.data)

    def backward(grad: np.ndarray):
        return (grad * out * (1.0 - out),)

    return Tensor._from_op(out, (x,), backward, "sigmoid")


def tanh(x: ArrayLike) -> Tensor:
    x = ensure_tensor(x)
    out = np.tanh(x.data)

    def backward(grad: np.ndarray):
        return (grad * (1.0 - out ** 2),)

    return Tensor._from_op(out, (x,), backward, "tanh")


def softplus(x: ArrayLike, beta: float = 1.0) -> Tensor:
    """``log(1 + exp(beta * x)) / beta`` computed stably."""
    x = ensure_tensor(x)
    z = beta * x.data
    out = (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))) / beta

    def backward(grad: np.ndarray):
        sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
        return (grad * sig,)

    return Tensor._from_op(out, (x,), backward, "softplus")


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _normalize_axis(axis, ndim: int) -> Optional[Tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def sum(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    x = ensure_tensor(x)
    axis_n = _normalize_axis(axis, x.ndim)
    out = x.data.sum(axis=axis_n, keepdims=keepdims)

    def backward(grad: np.ndarray):
        g = grad
        if axis_n is not None and not keepdims:
            shape = list(x.shape)
            for a in axis_n:
                shape[a] = 1
            g = g.reshape(shape)
        # Read-only broadcast view: backward consumers never mutate grads
        # in place, so materializing the full array here is wasted work.
        return (np.broadcast_to(g, x.shape),)

    return Tensor._from_op(np.asarray(out), (x,), backward, "sum")


def mean(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    x = ensure_tensor(x)
    axis_n = _normalize_axis(axis, x.ndim)
    out = x.data.mean(axis=axis_n, keepdims=keepdims)
    if axis_n is None:
        count = x.size
    else:
        count = int(np.prod([x.shape[a] for a in axis_n]))

    def backward(grad: np.ndarray):
        g = grad / count
        if axis_n is not None and not keepdims:
            shape = list(x.shape)
            for a in axis_n:
                shape[a] = 1
            g = g.reshape(shape)
        return (np.broadcast_to(g, x.shape),)

    return Tensor._from_op(np.asarray(out), (x,), backward, "mean")


def _minmax_reduce(x: Tensor, axis, keepdims: bool, mode: str) -> Tensor:
    axis_n = _normalize_axis(axis, x.ndim)
    reducer = np.max if mode == "max" else np.min
    out = reducer(x.data, axis=axis_n, keepdims=keepdims)

    def backward(grad: np.ndarray):
        out_keep = reducer(x.data, axis=axis_n, keepdims=True)
        mask = (x.data == out_keep).astype(grad.dtype)
        # Split gradient equally among ties (matches subgradient convention).
        counts = mask.sum(axis=axis_n, keepdims=True)
        g = grad
        if axis_n is not None and not keepdims:
            shape = list(x.shape)
            for a in axis_n:
                shape[a] = 1
            g = g.reshape(shape)
        elif axis_n is None:
            g = np.asarray(g).reshape((1,) * x.ndim)
        return (mask / counts * g,)

    return Tensor._from_op(np.asarray(out), (x,), backward, mode)


def max(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _minmax_reduce(ensure_tensor(x), axis, keepdims, "max")


def min(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _minmax_reduce(ensure_tensor(x), axis, keepdims, "min")


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def reshape(x: ArrayLike, shape: Sequence[int]) -> Tensor:
    x = ensure_tensor(x)
    out = x.data.reshape(shape)

    def backward(grad: np.ndarray):
        return (grad.reshape(x.shape),)

    return Tensor._from_op(out, (x,), backward, "reshape")


def transpose(x: ArrayLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    x = ensure_tensor(x)
    out = np.transpose(x.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)

    def backward(grad: np.ndarray):
        return (np.transpose(grad, inverse),)

    return Tensor._from_op(out, (x,), backward, "transpose")


def getitem(x: ArrayLike, index) -> Tensor:
    x = ensure_tensor(x)
    out = x.data[index]

    def backward(grad: np.ndarray):
        full = np.zeros_like(x.data)
        np.add.at(full, index, grad)
        return (full,)

    return Tensor._from_op(np.asarray(out), (x,), backward, "getitem")


def concatenate(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray):
        return tuple(np.split(grad, boundaries, axis=axis))

    return Tensor._from_op(out, tuple(tensors), backward, "concatenate")


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return Tensor._from_op(out, tuple(tensors), backward, "stack")


def pad2d(x: ArrayLike, padding: Union[int, Tuple[int, int]]) -> Tensor:
    """Zero-pad the last two (spatial) dimensions of a 4-D NCHW tensor."""
    x = ensure_tensor(x)
    if isinstance(padding, int):
        ph = pw = padding
    else:
        ph, pw = padding
    if ph == 0 and pw == 0:
        return identity(x)
    out = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

    def backward(grad: np.ndarray):
        h, w = x.shape[2], x.shape[3]
        return (grad[:, :, ph:ph + h, pw:pw + w],)

    return Tensor._from_op(out, (x,), backward, "pad2d")


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data @ b.data

    def backward(grad: np.ndarray):
        if a.ndim == 1 and b.ndim == 1:
            return grad * b.data, grad * a.data
        a_data, b_data = a.data, b.data
        if a.ndim == 1:
            a_data = a_data[None, :]
        if b.ndim == 1:
            b_data = b_data[:, None]
        g = grad
        if a.ndim == 1:
            g = g[..., None, :] if g.ndim >= 1 else g
        if b.ndim == 1:
            g = g[..., :, None]
        grad_a = g @ np.swapaxes(b_data, -1, -2)
        grad_b = np.swapaxes(a_data, -1, -2) @ g
        if a.ndim == 1:
            grad_a = grad_a.reshape(a.shape) if grad_a.size == a.data.size else unbroadcast(
                grad_a.sum(axis=-2), a.shape
            )
        else:
            grad_a = unbroadcast(grad_a, a.shape)
        if b.ndim == 1:
            grad_b = grad_b.reshape(b.shape) if grad_b.size == b.data.size else unbroadcast(
                grad_b.sum(axis=-1), b.shape
            )
        else:
            grad_b = unbroadcast(grad_b, b.shape)
        return grad_a, grad_b

    return Tensor._from_op(out, (a, b), backward, "matmul")


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------


def log_softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    x = ensure_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    softmax_value = np.exp(out)

    def backward(grad: np.ndarray):
        return (grad - softmax_value * grad.sum(axis=axis, keepdims=True),)

    return Tensor._from_op(out, (x,), backward, "log_softmax")


def softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    x = ensure_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp_x = np.exp(shifted)
    out = exp_x / exp_x.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        dot = (grad * out).sum(axis=axis, keepdims=True)
        return (out * (grad - dot),)

    return Tensor._from_op(out, (x,), backward, "softmax")


# ---------------------------------------------------------------------------
# Convolution / pooling (im2col)
# ---------------------------------------------------------------------------
#
# The forward gather copies one strided slice per kernel offset into a
# fresh column buffer — kernel_h * kernel_w large vectorized copies,
# which beats both ``np.add.at`` fancy indexing and a single reshape-copy of
# an ``as_strided`` 6-D patch view (the 6-D iterator degrades to tiny inner
# runs; the per-offset slices keep NumPy's 4-D copy loops hot).
#
# Conv backward-data can run as a *transposed convolution*: the incoming
# gradient is (fractionally-strided) dilated, gathered with the same fast
# im2col, and hit with one GEMM against the flipped/transposed weight
# matrix.  Whether that beats the per-offset ``col2im`` slice scatter
# depends on the shape (the gather moves C_out-proportional bytes, the
# scatter C_in * out-area-proportional ones), so
# :func:`conv2d_backward_data` selects per layer; ``col2im`` also remains
# the pooling scatter and the only path for exotic geometries.
#
# Column convention: rows are ``(channel, kh, kw)`` (row-major), columns are
# ``(batch, out_h, out_w)`` (row-major).


def _pad_nchw(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the spatial dims into a new buffer (``x`` itself when ``padding == 0``)."""
    if padding == 0:
        return x
    batch, channels, height, width = x.shape
    buf = np.empty((batch, channels, height + 2 * padding, width + 2 * padding), x.dtype)
    buf[:, :, :padding, :] = 0.0
    buf[:, :, -padding:, :] = 0.0
    buf[:, :, padding:-padding, :padding] = 0.0
    buf[:, :, padding:-padding, -padding:] = 0.0
    buf[:, :, padding:padding + height, padding:padding + width] = x
    return buf


def _patch_view(padded: np.ndarray, kernel_h: int, kernel_w: int, stride: int) -> np.ndarray:
    """Read-only ``(C, kh, kw, N, out_h, out_w)`` window view of a padded batch."""
    batch, channels, height, width = padded.shape
    out_h = (height - kernel_h) // stride + 1
    out_w = (width - kernel_w) // stride + 1
    sn, sc, sh, sw = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(channels, kernel_h, kernel_w, batch, out_h, out_w),
        strides=(sc, sh, sw, sn, stride * sh, stride * sw),
        writeable=False,
    )


#: Below this many gathered elements a single 6-D strided-view copy beats the
#: per-offset slice loop: the loop's kh*kw Python-level copies cost ~2 us
#: each, which dominates small problems (batch-1 serving), while the 6-D
#: iterator's tiny inner runs dominate large ones.  Both paths move the
#: identical bytes, so the shape-based switch cannot affect results.
_SMALL_GATHER_ELEMENTS = 1 << 15


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Rearrange NCHW image patches into columns of shape (C*kh*kw, N*out_h*out_w).

    Columns are ordered ``(batch, out_h, out_w)`` row-major.  The result is
    a new array that never aliases ``x``.
    """
    padded = _pad_nchw(x, padding)
    batch, channels, height, width = padded.shape
    out_h = (height - kernel_h) // stride + 1
    out_w = (width - kernel_w) // stride + 1
    cols6 = np.empty((channels, kernel_h, kernel_w, batch, out_h, out_w), x.dtype)

    if cols6.size <= _SMALL_GATHER_ELEMENTS:
        np.copyto(cols6, _patch_view(padded, kernel_h, kernel_w, stride))
        return cols6.reshape(channels * kernel_h * kernel_w, batch * out_h * out_w)

    src = padded.transpose(1, 0, 2, 3)  # (C, N, H, W) view
    for di in range(kernel_h):
        row = slice(di, di + stride * out_h, stride)
        for dj in range(kernel_w):
            np.copyto(cols6[:, di, dj], src[:, :, row, dj:dj + stride * out_w:stride])
    return cols6.reshape(channels * kernel_h * kernel_w, batch * out_h * out_w)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add column values back into images."""
    batch, channels, height, width = x_shape
    pad_h, pad_w = height + 2 * padding, width + 2 * padding
    out_h = (pad_h - kernel_h) // stride + 1
    out_w = (pad_w - kernel_w) // stride + 1
    cols6 = cols.reshape(channels, kernel_h, kernel_w, batch, out_h, out_w)
    # Channel-leading layout so each kernel-offset slice add is contiguous
    # in the same order as ``cols6``; transposed back to NCHW at the end.
    padded = np.zeros((channels, batch, pad_h, pad_w), dtype=cols.dtype)
    for di in range(kernel_h):
        row_slice = slice(di, di + stride * out_h, stride)
        for dj in range(kernel_w):
            padded[:, :, row_slice, dj:dj + stride * out_w:stride] += cols6[:, di, dj]
    if padding:
        padded = padded[:, :, padding:padding + height, padding:padding + width]
    return padded.transpose(1, 0, 2, 3)


def conv2d_backward_data(
    grad: np.ndarray,
    weight: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    stride: int,
    padding: int,
    algo: Optional[str] = None,
    grad_flat: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of ``conv2d`` w.r.t. its input.

    Two algorithms, selected by operand shape (``algo=None``):

    * ``"transposed"`` — the output gradient is placed on a fractionally-
      strided (zero-dilated) grid, gathered with :func:`im2col` at stride 1,
      and multiplied by the spatially-flipped, channel-transposed weight
      matrix: one gather plus one GEMM, no scatter.  Its data movement
      scales with ``C_out`` (it gathers the *gradient*), so it wins for the
      contracting/equal-width convolutions that dominate deep networks.
    * ``"col2im"`` — small-K GEMM followed by the per-offset slice scatter.
      Its movement scales with ``C_in * out_h * out_w``, so it wins for
      expanding (``C_out > C_in``) and strided convolutions, and is the only
      path for exotic geometries (``padding > kernel - 1``, non-square
      kernels).

    The choice depends only on shapes, never on the host.

    ``grad_flat`` may pass an already-packed ``(C_out, N*oh*ow)`` view of
    ``grad`` (channel-major) so the col2im path avoids re-packing it.
    """
    batch, in_channels, height, width = x_shape
    out_channels, _, kernel_h, kernel_w = weight.shape
    out_h, out_w = grad.shape[2], grad.shape[3]

    transposed_ok = (
        kernel_h == kernel_w and padding <= kernel_h - 1
    )
    if algo is None:
        use_transposed = (
            transposed_ok and stride == 1 and kernel_h > 1 and out_channels <= in_channels
        )
        algo = "transposed" if use_transposed else "col2im"
    elif algo == "transposed" and not transposed_ok:
        raise ValueError(
            f"transposed backward-data needs a square kernel with padding <= kernel - 1, "
            f"got kernel=({kernel_h},{kernel_w}), padding={padding}"
        )
    elif algo not in ("transposed", "col2im"):
        raise ValueError(f"algo must be 'transposed', 'col2im' or None, got {algo!r}")

    if algo == "col2im":
        if grad_flat is None:
            grad_flat = grad.transpose(1, 0, 2, 3).reshape(out_channels, -1)
        w_t = weight.reshape(out_channels, -1).T
        grad_cols = np.empty((w_t.shape[0], grad_flat.shape[1]),
                             np.result_type(w_t.dtype, grad_flat.dtype))
        parallel_gemm(w_t, grad_flat, out=grad_cols)
        return col2im(grad_cols, x_shape, kernel_h, kernel_w, stride, padding)

    if stride == 1:
        # oh + 2*(k-1-p) - k + 1 == H exactly, so the plain padded gather works.
        grad_cols = im2col(grad, kernel_h, kernel_w, 1, kernel_h - 1 - padding)
    else:
        # Fractional stride: scatter grad onto a zero grid with s-1 zeros
        # between elements (plus the k-1-p border), then gather at stride 1.
        left = kernel_h - 1 - padding
        dilated = np.zeros(
            (batch, out_channels, height + kernel_h - 1, width + kernel_w - 1), grad.dtype
        )
        dilated[
            :, :, left:left + stride * out_h:stride, left:left + stride * out_w:stride
        ] = grad
        grad_cols = im2col(dilated, kernel_h, kernel_w, 1, 0)

    # Rows of grad_cols are ordered (out_channel, kh, kw); the matching
    # weight matrix is the 180°-rotated kernel with in/out channels swapped.
    w_rot = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(in_channels, -1)
    grad_x = np.empty(
        (in_channels, batch * height * width),
        dtype=np.result_type(w_rot.dtype, grad_cols.dtype),
    )
    parallel_gemm(w_rot, grad_cols, out=grad_x)
    return grad_x.reshape(in_channels, batch, height, width).transpose(1, 0, 2, 3)


def conv2d(
    x: ArrayLike,
    weight: ArrayLike,
    bias: Optional[ArrayLike] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation over an NCHW batch.

    Parameters
    ----------
    x:
        Input tensor of shape ``(N, C_in, H, W)``.
    weight:
        Filter tensor of shape ``(C_out, C_in // groups, kH, kW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    stride, padding:
        Integer stride and symmetric zero padding.
    groups:
        Channel groups; ``groups == C_in`` is a depthwise convolution.  Both
        channel counts must divide evenly.  The grouped path reuses the same
        im2col gather: channel rows are outermost in the column matrix, so
        each group is a contiguous row-block GEMM against its weight slice.
    """
    x = ensure_tensor(x)
    weight = ensure_tensor(weight)
    bias_t = ensure_tensor(bias) if bias is not None else None

    batch, in_channels, height, width = x.shape
    out_channels, w_in_channels, kernel_h, kernel_w = weight.shape
    if groups < 1:
        raise ValueError(f"conv2d groups must be >= 1, got {groups}")
    if in_channels % groups or out_channels % groups:
        raise ValueError(
            f"conv2d groups={groups} must divide in_channels={in_channels} "
            f"and out_channels={out_channels}"
        )
    if in_channels // groups != w_in_channels:
        raise ValueError(
            f"conv2d channel mismatch: input has {in_channels} channels in "
            f"{groups} group(s), weight expects {w_in_channels} per group"
        )
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    cin_g = in_channels // groups
    cout_g = out_channels // groups
    rows_g = cin_g * kernel_h * kernel_w

    cols = im2col(x.data, kernel_h, kernel_w, stride, padding)
    gemm_out = np.empty(
        (out_channels, cols.shape[1]),
        dtype=np.result_type(weight.data.dtype, cols.dtype),
    )
    if groups == 1:
        parallel_gemm(weight.data.reshape(out_channels, -1), cols, out=gemm_out)
    else:
        for g in range(groups):
            w_mat = weight.data[g * cout_g:(g + 1) * cout_g].reshape(cout_g, -1)
            parallel_gemm(
                w_mat,
                cols[g * rows_g:(g + 1) * rows_g],
                out=gemm_out[g * cout_g:(g + 1) * cout_g],
            )
    out = gemm_out.reshape(out_channels, batch, out_h, out_w).transpose(1, 0, 2, 3)
    if bias_t is not None:
        out = out + bias_t.data.reshape(1, out_channels, 1, 1)

    parents = (x, weight) if bias_t is None else (x, weight, bias_t)

    def backward(grad: np.ndarray):
        nonlocal cols
        if cols is None:
            raise RuntimeError(
                "conv2d backward called twice on the same graph: the saved "
                "column buffer was freed after the first call"
            )
        # Pack grad into (C_out, N*oh*ow) GEMM layout.
        grad_flat = np.empty((out_channels, batch * out_h * out_w), grad.dtype)
        np.copyto(
            grad_flat.reshape(out_channels, batch, out_h, out_w),
            grad.transpose(1, 0, 2, 3),
        )
        grad_weight = np.empty(
            (out_channels, rows_g), dtype=np.result_type(grad_flat.dtype, cols.dtype)
        )
        if groups == 1:
            parallel_gemm(grad_flat, cols.T, out=grad_weight)
        else:
            for g in range(groups):
                parallel_gemm(
                    grad_flat[g * cout_g:(g + 1) * cout_g],
                    cols[g * rows_g:(g + 1) * rows_g].T,
                    out=grad_weight[g * cout_g:(g + 1) * cout_g],
                )
        grad_weight = grad_weight.reshape(weight.shape)
        cols = None  # the columns are dead; a second backward call is a bug
        if groups == 1:
            grad_x = conv2d_backward_data(
                grad, weight.data, x.shape, stride, padding, grad_flat=grad_flat
            )
        else:
            # Each group is an independent small convolution: run backward-data
            # per group over the channel slices and reassemble along channels.
            grad_x = np.empty(x.shape, dtype=grad.dtype)
            group_shape = (batch, cin_g, height, width)
            for g in range(groups):
                out_sl = slice(g * cout_g, (g + 1) * cout_g)
                grad_x[:, g * cin_g:(g + 1) * cin_g] = conv2d_backward_data(
                    grad[:, out_sl],
                    weight.data[out_sl],
                    group_shape,
                    stride,
                    padding,
                    grad_flat=grad_flat[out_sl],
                )
        if bias_t is None:
            return grad_x, grad_weight
        grad_bias = grad.sum(axis=(0, 2, 3))
        return grad_x, grad_weight, grad_bias

    return Tensor._from_op(out.astype(x.dtype, copy=False), parents, backward, "conv2d")


def max_pool2d(x: ArrayLike, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows of an NCHW tensor."""
    x = ensure_tensor(x)
    stride = stride if stride is not None else kernel_size
    batch, channels, height, width = x.shape
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1

    reshaped = x.data.reshape(batch * channels, 1, height, width)
    cols = im2col(reshaped, kernel_size, kernel_size, stride, 0)
    argmax = cols.argmax(axis=0)
    out = cols[argmax, np.arange(cols.shape[1])]
    out = out.reshape(batch, channels, out_h, out_w)
    cols_shape, cols_dtype = cols.shape, cols.dtype
    # Only the argmax indices are needed for backward; the closure must not
    # keep the columns alive.
    del cols

    def backward(grad: np.ndarray):
        grad_cols = np.zeros(cols_shape, cols_dtype)
        grad_cols[argmax, np.arange(cols_shape[1])] = grad.reshape(-1)
        grad_x = col2im(
            grad_cols, (batch * channels, 1, height, width), kernel_size, kernel_size, stride, 0
        )
        return (grad_x.reshape(x.shape),)

    return Tensor._from_op(out, (x,), backward, "max_pool2d")


def avg_pool2d(x: ArrayLike, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over windows of an NCHW tensor."""
    x = ensure_tensor(x)
    stride = stride if stride is not None else kernel_size
    batch, channels, height, width = x.shape
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1

    reshaped = x.data.reshape(batch * channels, 1, height, width)
    cols = im2col(reshaped, kernel_size, kernel_size, stride, 0)
    out = cols.mean(axis=0)
    out = out.reshape(batch, channels, out_h, out_w)
    window = kernel_size * kernel_size
    del cols

    def backward(grad: np.ndarray):
        grad_flat = grad.reshape(-1) / window
        grad_cols = np.broadcast_to(grad_flat, (window, grad_flat.size))
        grad_x = col2im(
            grad_cols, (batch * channels, 1, height, width), kernel_size, kernel_size, stride, 0
        )
        return (grad_x.reshape(x.shape),)

    return Tensor._from_op(out, (x,), backward, "avg_pool2d")


# ---------------------------------------------------------------------------
# Fused quantization / normalization kernels
# ---------------------------------------------------------------------------


def fake_quantize(x: ArrayLike, scale: float, levels: int, low: float, high: float) -> Tensor:
    """Fused STE fake-quantization: ``round(clip(x/scale, low, high)*levels)/levels*scale``.

    One kernel replacing the clip → div → mul → ste_round → div → mul chain:
    the constant rescalings cancel in the backward pass, so the exact STE
    gradient is ``grad`` masked to the clip range.  The normalize/round
    intermediate lives in one scratch buffer.
    """
    x = ensure_tensor(x)
    scratch = np.multiply(x.data, 1.0 / scale)
    np.clip(scratch, low, high, out=scratch)
    np.multiply(scratch, levels, out=scratch)
    np.round(scratch, out=scratch)
    out = scratch * (scale / levels)

    def backward(grad: np.ndarray):
        mask = (x.data >= low * scale) & (x.data <= high * scale)
        return (grad * mask,)

    return Tensor._from_op(out.astype(x.dtype, copy=False), (x,), backward, "fake_quantize")


def batch_norm(
    x: ArrayLike,
    weight: Optional[ArrayLike] = None,
    bias: Optional[ArrayLike] = None,
    axes: Tuple[int, ...] = (0,),
    eps: float = 1e-5,
    mean: Optional[np.ndarray] = None,
    var: Optional[np.ndarray] = None,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Fused batch normalization with a hand-written backward.

    When ``mean``/``var`` are ``None`` (training mode) the batch statistics
    are computed here and the backward differentiates through them (the
    classic BN gradient); otherwise the provided running statistics are
    treated as constants (eval mode).

    Returns ``(out, mean, var)`` where ``mean``/``var`` are the (biased,
    keepdims) statistics actually used — callers update running estimates
    from them without recomputation.
    """
    x = ensure_tensor(x)
    if (weight is None) != (bias is None):
        raise ValueError("batch_norm requires weight and bias together (or neither)")
    weight_t = ensure_tensor(weight) if weight is not None else None
    bias_t = ensure_tensor(bias) if bias is not None else None

    # Layout-matched intermediates (``empty_like`` keeps ``x``'s memory
    # order): the variance and the backward sums reduce over them, and
    # NumPy's pairwise summation order follows their strides, so a
    # C-contiguous copy of a transposed conv output could differ in the
    # last bit.
    centered = np.empty_like(x.data)
    use_batch_stats = mean is None
    if use_batch_stats:
        mu = x.data.mean(axis=axes, keepdims=True)
        np.subtract(x.data, mu, out=centered)
        variance = np.mean(centered * centered, axis=axes, keepdims=True)
    else:
        mu = np.asarray(mean, dtype=x.dtype)
        variance = np.asarray(var, dtype=x.dtype)
        np.subtract(x.data, mu, out=centered)
    inv_std = 1.0 / np.sqrt(variance + eps)

    param_shape = tuple(1 if i in axes else x.shape[i] for i in range(x.ndim))
    xhat = centered * inv_std
    del centered
    if weight_t is not None:
        out = xhat * weight_t.data.reshape(param_shape) + bias_t.data.reshape(param_shape)
        parents: Tuple[Tensor, ...] = (x, weight_t, bias_t)
    else:
        out = xhat
        parents = (x,)
    count = int(np.prod([x.shape[a] for a in axes]))

    def backward(grad: np.ndarray):
        nonlocal xhat
        if xhat is None:
            raise RuntimeError(
                "batch_norm backward called twice on the same graph: the saved "
                "normalized activations were freed after the first call"
            )
        if weight_t is not None:
            grad_weight = (grad * xhat).sum(axis=axes).reshape(weight_t.shape)
            grad_bias = grad.sum(axis=axes).reshape(bias_t.shape)
            grad_xhat = grad * weight_t.data.reshape(param_shape)
        else:
            grad_xhat = grad
        if use_batch_stats:
            s1 = grad_xhat.sum(axis=axes, keepdims=True)
            s2 = (grad_xhat * xhat).sum(axis=axes, keepdims=True)
            grad_x = inv_std * (grad_xhat - s1 / count - xhat * (s2 / count))
        else:
            grad_x = grad_xhat * inv_std
        if weight_t is not None:
            xhat = None  # consumed; a second backward call is a bug
            return grad_x, grad_weight, grad_bias
        return (grad_x,)

    tensor = Tensor._from_op(out.astype(x.dtype, copy=False), parents, backward, "batch_norm")
    return tensor, mu, variance


# ---------------------------------------------------------------------------
# Fused CSQ weight reconstruction (Eq. 5)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _pow2_weights(num_bits: int) -> np.ndarray:
    """Constant ``2**b`` bit-plane weights (LSB first), float32, read-only."""
    pow2 = (2.0 ** np.arange(num_bits)).astype(np.float32)
    pow2.flags.writeable = False
    return pow2


def csq_reconstruct(
    m_p: ArrayLike,
    m_n: ArrayLike,
    scale: ArrayLike,
    m_b: Optional[ArrayLike] = None,
    beta: float = 1.0,
    beta_mask: float = 1.0,
    hard_values: bool = False,
    hard_mask: bool = False,
) -> Tensor:
    """Fused Eq. (5) weight reconstruction of one CSQ layer.

    Computes ``scale / (2**n - 1) * sum_b (f(m_p[b]) - f(m_n[b])) * 2**b *
    f(m_B[b])`` in a single kernel: one stable sigmoid over each stacked
    ``(num_bits, *weight_shape)`` gate tensor, one ``tensordot`` reduction
    over the bit axis, and a hand-written backward — replacing the chain of
    per-bit-plane autograd ops (sub/mul/mul/sum) the graph used to record.

    Parameters
    ----------
    m_p, m_n:
        Bit-representation parameters of shape ``(num_bits, *weight_shape)``.
    scale:
        Trainable scaling factor of shape ``(1,)``.
    m_b:
        Optional bit-mask parameters of shape ``(num_bits,)``; ``None`` means
        the mask is fixed to all-ones (CSQ-Uniform mode).
    beta, beta_mask:
        Gate temperatures for the bit representations / bit masks.
    hard_values, hard_mask:
        Replace the corresponding sigmoid gates by exact unit steps.  Hard
        gates are non-differentiable: the matching parameters receive no
        gradient (their entry in the backward tuple is ``None``), exactly as
        when the old chain routed them through a detached tensor.
    """
    m_p, m_n, scale = ensure_tensor(m_p), ensure_tensor(m_n), ensure_tensor(scale)
    mask_t = ensure_tensor(m_b) if m_b is not None else None
    num_bits = m_p.shape[0]
    levels = float(2 ** num_bits - 1)
    pow2 = _pow2_weights(num_bits)

    def _sigmoid(m: np.ndarray, temperature: float) -> np.ndarray:
        """Stable sigmoid of ``temperature * m`` in two buffers."""
        expo = np.abs(m)
        expo *= -temperature
        np.exp(expo, out=expo)  # exp(-|t*m|)
        gate = np.add(expo, 1.0)
        np.reciprocal(gate, out=gate)  # 1 / (1 + exp(-|t*m|))
        np.multiply(expo, gate, out=expo)  # the m < 0 branch
        np.copyto(gate, expo, where=m < 0.0)
        return gate

    if hard_values:
        gate_p = (m_p.data >= 0.0).astype(np.float32)
        gate_n = (m_n.data >= 0.0).astype(np.float32)
    else:
        gate_p = _sigmoid(m_p.data, beta)
        gate_n = _sigmoid(m_n.data, beta)

    if mask_t is None:
        gate_b = None
        coeff = pow2
    elif hard_mask:
        gate_b = None
        coeff = pow2 * (mask_t.data >= 0.0).astype(np.float32)
    else:
        gate_b = _stable_sigmoid(beta_mask * mask_t.data)
        coeff = pow2 * gate_b

    diff = gate_p - gate_n
    accumulated = np.tensordot(coeff, diff, axes=(0, 0))
    scale_over_levels = scale.data / levels
    out = accumulated * scale_over_levels

    parents = (m_p, m_n, scale) if mask_t is None else (m_p, m_n, scale, mask_t)
    bit_broadcast = (num_bits,) + (1,) * accumulated.ndim

    def backward(grad: np.ndarray):
        grad_acc = grad * scale_over_levels
        grad_scale = np.array(
            [np.dot(grad.reshape(-1), accumulated.reshape(-1)) / levels],
            dtype=scale.dtype,
        )
        if hard_values:
            grad_m_p = grad_m_n = None
        else:
            # d out / d diff[b] = grad_acc * coeff[b]; chain through the
            # sigmoid Jacobian beta * g * (1 - g) per stacked gate, built in
            # one scratch buffer.
            grad_diff = coeff.reshape(bit_broadcast) * grad_acc[None]
            jac = np.subtract(1.0, gate_p)
            np.multiply(jac, gate_p, out=jac)
            jac *= beta
            grad_m_p = grad_diff * jac
            np.subtract(1.0, gate_n, out=jac)
            np.multiply(jac, gate_n, out=jac)
            jac *= -beta
            grad_m_n = grad_diff * jac
        if mask_t is None:
            return grad_m_p, grad_m_n, grad_scale
        if gate_b is None:
            return grad_m_p, grad_m_n, grad_scale, None
        grad_coeff = diff.reshape(num_bits, -1) @ grad_acc.reshape(-1)
        grad_m_b = (pow2 * grad_coeff) * (beta_mask * gate_b * (1.0 - gate_b))
        return grad_m_p, grad_m_n, grad_scale, grad_m_b

    return Tensor._from_op(out, parents, backward, "csq_reconstruct")


def adaptive_avg_pool2d(x: ArrayLike, output_size: int = 1) -> Tensor:
    """Adaptive average pooling; only ``output_size=1`` (global pooling) is supported."""
    if output_size != 1:
        raise NotImplementedError("Only global average pooling (output_size=1) is supported")
    x = ensure_tensor(x)
    out = x.data.mean(axis=(2, 3), keepdims=True)
    count = x.shape[2] * x.shape[3]

    def backward(grad: np.ndarray):
        return (np.broadcast_to(grad / count, x.shape),)

    return Tensor._from_op(out, (x,), backward, "adaptive_avg_pool2d")
