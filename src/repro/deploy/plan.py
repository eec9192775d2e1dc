"""Flat layer plans: compiling a model skeleton into fused NumPy steps.

The inference runtime does not execute ``Module.forward`` — that path builds
an autograd graph per op.  Instead the model structure is compiled *once*
into a flat list of :class:`Step` objects operating on plain ``np.ndarray``
activations:

* a convolution followed by batch normalization (and optionally ReLU)
  becomes **one** step: a single GEMM against the integer weight matrix
  and a per-output-channel affine that folds the dequantization factor, the
  BN scale/shift and the conv bias — dequantized exactly once, in the output
  domain.  The GEMM reads shifted slices of one zero-bordered channel-major
  buffer (a 1x1 conv reads the activation itself, and a depthwise conv is
  k*k multiply-adds instead of a GEMM), or, for strided dense convs and
  small batches, an im2col patch gather (see :class:`ConvStep`);
* a linear layer keeps its integer matrix and applies the per-feature
  output affine (dequantization, folded BN) to the GEMM output;
* a layer whose artifact record carries a frozen activation range
  (``act_bits < 32``) additionally *quantizes its input* onto the training
  grid — ``round(clip(x / r, 0, 1) * (2**a - 1))`` — so the GEMM runs
  integer weight codes against integer activation codes and the combined
  ``w_scale * a_scale`` dequantization folds into the same output affine
  (see :class:`ActQuantSpec`);
* residual blocks become one step holding the compiled main/shortcut
  sub-plans, so the top-level plan stays a flat sequence.

Architecture coverage is a registry keyed by module class name
(:func:`register_plan_handler`): the built-in handlers cover every model in
``repro.models`` (ResNet-CIFAR/-ImageNet, VGG, SimpleConvNet, TinyMLP) plus
generic ``Sequential`` chains of leaf layers.  Third-party architectures
register a handler instead of patching the compiler.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.autograd.ops import _SMALL_GATHER_ELEMENTS, im2col
from repro.deploy.artifact import QuantizedTensorRecord
from repro.nn.module import Module
from repro.quant.act_quant import RANGE_FLOOR
from repro.runtime.intgemm import kernel_tag, parallel_gemm


class PlanError(ValueError):
    """Raised when a model cannot be compiled into a layer plan."""


class ActQuantSpec:
    """Frozen activation quantization of one layer input.

    Replays the eval-time forward of the training-side quantizers with the
    serialized clip range ``r``:

    * ``mode="observer"`` (:class:`~repro.quant.fake_quant.FakeQuantize`):
      ``codes = round(clip(x * (1/r), 0, 1) * levels)``,
    * ``mode="pact"`` (PACT): ``codes = round((clip(x, 0, r) / d) * levels)``
      with ``d = max(r, RANGE_FLOOR)`` — PACT's training forward clips to
      the *raw* learned alpha but divides by the floored one, and the two
      only coincide for ``r >= RANGE_FLOOR``.

    The modes otherwise differ only in whether the range is applied as a
    reciprocal multiply or a divide — matched operation-for-operation so
    serving stays on the exact rounding boundaries training saw.  Codes are
    integer-valued float32 in ``[0, levels]``; the dequantization factor
    ``d / levels`` (``scale``) is folded into the owning step's output
    affine, never applied per element.
    """

    __slots__ = ("bits", "mode", "range", "levels", "divisor", "scale")

    def __init__(self, bits: int, mode: str, range_: float) -> None:
        if not 1 <= bits < 32:
            raise PlanError(f"ActQuantSpec needs 1 <= bits < 32, got {bits}")
        if range_ <= 0.0:
            raise PlanError(f"ActQuantSpec needs a positive clip range, got {range_}")
        if mode not in ("observer", "pact"):
            raise PlanError(f"Unknown activation quantization mode {mode!r}")
        self.bits = bits
        self.mode = mode
        self.range = float(range_)
        self.levels = 2 ** bits - 1
        # Observer ranges arrive pre-floored from export (training floors
        # them before both the clip and the scale); PACT floors only the
        # divisor, keeping the raw alpha as the clip bound.
        self.divisor = max(self.range, RANGE_FLOOR) if mode == "pact" else self.range
        self.scale = self.divisor / float(self.levels)

    @classmethod
    def from_record(cls, record: QuantizedTensorRecord) -> Optional["ActQuantSpec"]:
        """The spec an artifact record implies; ``None`` for float activations."""
        if record.act_bits >= 32 or record.act_range is None:
            return None
        return cls(record.act_bits, record.act_mode, record.act_range)

    def quantize(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Integer activation codes of ``x`` as float32, in ``out`` when given.

        ``out`` may be ``x`` itself: conv steps quantize their zero-bordered
        channel-major buffer in place, and a zero maps to code 0 in both
        modes, so the border stays the padding the conv expects.  Without
        ``out`` the codes get a new array matching ``x``'s memory layout
        (``empty_like``) rather than just its shape, so every ufunc pass
        iterates in memory order even when ``x`` is a transposed view.
        """
        codes = np.empty_like(x, dtype=np.float32) if out is None else out
        if self.mode == "pact":
            np.clip(x, 0.0, self.range, out=codes)
            codes /= self.divisor
        else:
            np.multiply(x, 1.0 / self.range, out=codes)
            np.clip(codes, 0.0, 1.0, out=codes)
        codes *= self.levels
        # rint == round(decimals=0) bit-for-bit (round dispatches to rint),
        # minus several microseconds of wrapper overhead per call — this runs
        # once per quantized layer per batch.
        np.rint(codes, out=codes)
        return codes

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        """Map codes back to the float activation grid (``codes * r/levels``)."""
        return np.asarray(codes, dtype=np.float32) * np.float32(self.scale)

    def describe(self) -> str:
        return f"aq{self.bits}"


# ---------------------------------------------------------------------------
# GEMM kernels
# ---------------------------------------------------------------------------


class GemmKernel:
    """Executes one layer's GEMM into the step's float32 output.

    Steps only ever call :meth:`conv` / :meth:`linear`.  ``tag`` records the
    GEMM's numeric semantics, certified once at plan-compile time by
    :func:`repro.runtime.intgemm.kernel_tag`: ``int8``/``int16`` when the
    float32 GEMM of integer codes is an exact integer GEMM, ``f32``
    otherwise.  The plan summary shows integer tags per layer; ``f32``
    layers keep their describe strings unchanged.
    """

    tag = "f32"

    def conv(self, cols: np.ndarray, out: np.ndarray) -> None:  # pragma: no cover
        raise NotImplementedError

    def linear(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class FloatGemmKernel(GemmKernel):
    """Float32 BLAS on the operand matrix — the one dense GEMM path.

    With integer weight codes against integer activation codes and a
    ``gemm_bound`` under 2**24, every product and partial sum is an integer
    exactly representable in float32, so this BLAS call **is** an exact
    int32-accumulating integer GEMM (``tag`` ``int8``/``int16``) — and
    bitwise identical to the float32 eval graph by construction.
    """

    def __init__(self, w_mat: np.ndarray, tag: str = "f32", linear: bool = False) -> None:
        self.w_mat = w_mat
        self.tag = tag
        #: Pre-transposed operand of linear steps, built once at compile time.
        self.w_t: Optional[np.ndarray] = None
        if linear:
            self.w_t = np.ascontiguousarray(w_mat.T)
            self.w_t.flags.writeable = False

    def conv(self, cols: np.ndarray, out: np.ndarray) -> None:
        parallel_gemm(self.w_mat, cols, out=out)

    def linear(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w_t


class GroupedGemmKernel(GemmKernel):
    """One stacked GEMM for a grouped convolution.

    This runs true grouped convs, and depthwise convs on the im2col path
    (small batches; larger ones are :class:`ConvStep`'s k*k multiply-adds).
    Both of ConvStep's gathers order their rows with the input channel
    outermost, so group ``g``'s reduction rows form the contiguous block
    ``[g*rows_g, (g+1)*rows_g)`` of the column matrix and its output
    channels the contiguous block ``[g*cout_g, (g+1)*cout_g)`` of the
    output — a grouped convolution is one ``np.matmul`` of the
    ``(groups, cout_g, rows_g)`` weights against the ``(groups, rows_g, P)``
    view of the columns into the ``(groups, cout_g, P)`` view of the output,
    no copy required.  NumPy runs each group as the BLAS call a dense GEMM
    of that shape makes, so the integer certification argument (products
    and partial sums below ``2**24`` are exact in float32) applies per
    group unchanged.
    """

    def __init__(self, w_mat: np.ndarray, groups: int) -> None:
        if w_mat.shape[0] % groups:
            raise PlanError(
                f"grouped kernel: {w_mat.shape[0]} output channels not divisible "
                f"by groups={groups}"
            )
        self.w_mat = w_mat
        self.groups = groups
        self._w_groups = w_mat.reshape(groups, w_mat.shape[0] // groups, w_mat.shape[1])

    def conv(self, cols: np.ndarray, out: np.ndarray) -> None:
        if cols.shape[0] % self.groups:
            raise PlanError(
                f"grouped kernel: {cols.shape[0]} reduction rows not divisible "
                f"by groups={self.groups}"
            )
        # Splitting the leading axis of a 2-D array is always a view, so the
        # matmul writes straight into ``out``.
        np.matmul(
            self._w_groups,
            cols.reshape(self.groups, -1, cols.shape[1]),
            out=out.reshape(self.groups, -1, out.shape[1]),
        )

    def linear(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - conv only
        raise PlanError("GroupedGemmKernel only executes convolutions")


def _record_kernel(
    record: QuantizedTensorRecord,
    w_mat: np.ndarray,
    act_quant: Optional[ActQuantSpec],
    linear: bool,
) -> FloatGemmKernel:
    """The GEMM kernel of one artifact record, tagged with its certified semantics."""
    q = record.q
    tag = kernel_tag(
        k=w_mat.shape[1],
        w_lo=int(q.min()) if q.size else 0,
        w_hi=int(q.max()) if q.size else 0,
        a_bits=act_quant.bits if act_quant is not None else None,
    )
    return FloatGemmKernel(w_mat, tag, linear=linear)


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


# ConvStep's shape rule, measured per conv kind at batch 1-64 (PERFORMANCE.md).
# A stride-1 conv reads a padded buffer once its im2col gather would exceed
# ``_SMALL_GATHER_ELEMENTS`` entries (below that the float stem conv is
# faster on im2col).  A depthwise conv, at any stride, does once it would
# exceed this many: below that its k*k elementwise passes cost more than
# im2col plus one stacked GEMM.  Strided dense and 1x1 convs measured slower
# on the buffer's phase split at every batch size, so they keep im2col.
_DEPTHWISE_TAPS_MIN_ELEMENTS = 3 << 16


class Step:
    """One fused operation of the plan: ``ndarray -> ndarray``."""

    name: str = "step"

    def __call__(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class ConvStep(Step):
    """Fused (act-quantize) → conv → (BN) → (ReLU): one GEMM plus an affine.

    ``w_mat`` holds the raw integer codes (as float32 for the GEMM);
    ``mult``/``shift`` are the folded output-domain affine:
    ``mult = dequant * gamma / sqrt(var + eps)`` and
    ``shift = (bias - mean) * gamma / sqrt(var + eps) + beta`` when a BN
    layer was folded, or plain dequantization and bias otherwise.  With an
    ``act_quant`` spec the input is first snapped to integer activation
    codes, the GEMM multiplies codes by codes, and the activation scale
    ``r / levels`` rides in ``mult`` alongside the weight dequantization —
    the caller folds it in when constructing the step.

    The step reads its input one of two ways, chosen by shape alone (never
    by an option):

    * **padded buffer** (a gather above the shape rule's crossover, in
      im2col column-matrix entries, for stride-1 and depthwise convs): the
      input is copied once into a zero-bordered channel-major buffer of
      ``(N, Hq, Wq)`` grids per channel and, for an ``act_quant`` layer,
      quantized there in place.  Neighbouring images and rows share their
      zero border, so ``Hq = H + pad`` and ``Wq = W + pad`` for a
      ``k = 2*pad + 1`` conv.  Output ``(n, i, j)`` of tap ``(di, dj)``
      reads flat position ``q + di*Wq + dj`` with ``q = (n*Hq + i)*Wq + j``,
      so every tap is one contiguous ``(C, N*Hq*Wq)`` block of the flat
      buffer, and an output is computed at every grid position; the affine
      then reads the valid ones through a crop view.  (A stride-``s``
      buffer holds the ``s*s`` phases of the padded image, every ``s``-th
      row and column, each with its own full border; each tap is then a
      stride-1 tap of one phase.)  A dense conv stacks
      the ``k*k`` blocks in im2col's ``(c, di, dj)`` row order for one
      GEMM; a 1x1 conv's GEMM reads the buffer itself, with no gather; a
      depthwise conv (``groups == C == Cout``) is ``k*k`` multiply-adds of
      the blocks, with no GEMM;
    * **im2col** (strided dense convs, and problems small enough that the
      buffer's extra passes cost more than the patch copy they save —
      batch-1 and batch-2 serving): the patch gather, then the kernel's
      GEMM.

    Both ways feed every kept output the same products, so plans whose
    arithmetic is exact — integer weight codes against integer activation
    codes — serve identical bits on either.

    Every array a call writes — the buffer or column matrix and the output
    — is allocated by that call, and the step's own operands are
    read-only, so a step (and a plan of them) is a pure function of its
    input and safe to call from several threads at once.
    """

    def __init__(
        self,
        name: str,
        w_mat: np.ndarray,
        mult: np.ndarray,
        shift: Optional[np.ndarray],
        kernel_size: int,
        stride: int,
        padding: int,
        relu: bool = False,
        act_quant: Optional[ActQuantSpec] = None,
        kernel: Optional[GemmKernel] = None,
        groups: int = 1,
    ) -> None:
        self.name = name
        self.groups = groups
        self.w_mat = np.ascontiguousarray(w_mat, dtype=np.float32)
        if kernel is None:
            kernel = (
                GroupedGemmKernel(self.w_mat, groups)
                if groups > 1
                else FloatGemmKernel(self.w_mat)
            )
        self.kernel = kernel
        self.out_channels = self.w_mat.shape[0]
        #: ``groups == C == Cout``: one input and one output channel per group.
        self.depthwise = (
            groups == self.out_channels > 1 and self.w_mat.shape[1] == kernel_size ** 2
        )
        self.mult = mult.astype(np.float32).reshape(-1, 1)
        self.shift = None if shift is None else shift.astype(np.float32).reshape(-1, 1)
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.relu = relu
        self.act_quant = act_quant

    def fold_bn(self, gamma_invstd: np.ndarray, shift: np.ndarray) -> None:
        """Fold a following BatchNorm into this step's output affine."""
        base_shift = 0.0 if self.shift is None else self.shift.reshape(-1)
        new_shift = base_shift * gamma_invstd + shift
        self.mult = (self.mult.reshape(-1) * gamma_invstd).astype(np.float32).reshape(-1, 1)
        self.shift = new_shift.astype(np.float32).reshape(-1, 1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        k, stride, pad = self.kernel_size, self.stride, self.padding
        out_h = (height + 2 * pad - k) // stride + 1
        out_w = (width + 2 * pad - k) // stride + 1
        crossover = _DEPTHWISE_TAPS_MIN_ELEMENTS if self.depthwise else _SMALL_GATHER_ELEMENTS
        if (stride == 1 or self.depthwise) and (
            channels * k * k * batch * out_h * out_w > crossover
        ):
            # The affine reads the valid outputs through a crop view and
            # writes them compactly.
            grid = self._from_buffer(x)[:, :, :out_h, :out_w]
            out = np.multiply(grid, self.mult[:, :, None, None]).reshape(self.out_channels, -1)
        else:
            if self.act_quant is not None:
                x = self.act_quant.quantize(x)
            out = np.empty((self.out_channels, batch * out_h * out_w), dtype=np.float32)
            self.kernel.conv(im2col(x, k, k, stride, pad), out)
            out *= self.mult
        if self.shift is not None:
            out += self.shift
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out.reshape(self.out_channels, batch, out_h, out_w).transpose(1, 0, 2, 3)

    def _from_buffer(self, x: np.ndarray) -> np.ndarray:
        """The conv read from a padded channel-major buffer.

        Returns ``(Cout, N, grid_h, grid_w)``: an output at every position
        of the (phase) grid, the valid ones in its top-left corner.
        """
        batch, channels, height, width = x.shape
        k, s, pad = self.kernel_size, self.stride, self.padding
        if s == 1:
            # Neighbouring images and rows share their zero border: ``gap``
            # zero rows (columns) follow every image (row), and ``lead``
            # zeros hold the first image's top and left border.
            gap = max(pad, 2 * pad - k + 1)
            grid_h, grid_w = height + gap, width + gap
            lead = pad * grid_w + pad
        else:
            # Stride s splits the padded image into s*s phases (every s-th
            # row and column); tap (di, dj) reads phase (di % s, dj % s)
            # shifted by (di // s, dj // s), a stride-1 tap of that phase.
            grid_h, grid_w = -(-(height + 2 * pad) // s), -(-(width + 2 * pad) // s)
            lead = 0
        size = lead + batch * grid_h * grid_w
        # The buffer runs ``reach`` zeros past its last phase, so every tap
        # is a contiguous ``(C, size)`` block of it.  A tap crossing into the
        # next channel or phase only feeds border positions the crop drops.
        reach = (k - 1) // s * (grid_w + 1)
        xt = x.transpose(1, 0, 2, 3)
        if k == s == 1 and pad == 0 and self.act_quant is None:
            # No copy when ``x`` is the channel-major output of a conv step.
            buf = np.ascontiguousarray(xt).reshape(-1)
        else:
            buf = np.zeros(s * s * channels * size + reach, dtype=np.float32)
            phases = buf[:s * s * channels * size].reshape(s, s, channels, size)[..., lead:]
            phases = phases.reshape(s, s, channels, batch, grid_h, grid_w)
            if s == 1:
                phases[0, 0, :, :, :height, :width] = xt
            else:
                for a in range(s):
                    row = (a - pad) % s  # first input row in phase a
                    for b in range(s):
                        col = (b - pad) % s
                        src = xt[:, :, row::s, col::s]
                        top, left = (row + pad - a) // s, (col + pad - b) // s
                        phases[a, b, :, :, top:top + src.shape[2], left:left + src.shape[3]] = src
            if self.act_quant is not None:
                self.act_quant.quantize(buf, out=buf)
        block = channels * size
        taps = [
            buf[start:start + block].reshape(channels, size)
            for start in (
                ((di % s) * s + dj % s) * block + di // s * grid_w + dj // s
                for di in range(k)
                for dj in range(k)
            )
        ]
        if self.depthwise:
            # k*k multiply-adds summed from +0.0, as a BLAS dot product is:
            # a window of zero codes then gives +0.0, never -0.0.
            out = np.zeros((channels, size), dtype=np.float32)
            product = np.empty_like(out)
            for t, tap in enumerate(taps):
                np.multiply(tap, self.w_mat[:, t:t + 1], out=product)
                out += product
        else:
            if k == 1:
                cols = taps[0]
            else:
                cols = np.empty((channels, k * k, size), dtype=np.float32)
                for t, tap in enumerate(taps):
                    np.copyto(cols[:, t], tap)
                cols = cols.reshape(channels * k * k, size)
            out = np.empty((self.out_channels, size), dtype=np.float32)
            self.kernel.conv(cols, out)
        return out[:, :batch * grid_h * grid_w].reshape(self.out_channels, batch, grid_h, grid_w)

    def describe(self) -> str:
        tail = f"+{self.act_quant.describe()}" if self.act_quant is not None else ""
        if self.kernel.tag != "f32":
            tail += f"+{self.kernel.tag}"
        if self.groups > 1:
            tail += f"+g{self.groups}"
        tail += "+bn" if self.shift is not None else ""
        tail += "+relu" if self.relu else ""
        return f"conv[{self.name}]{tail}"


class LinearStep(Step):
    """Fused (act-quantize) → linear → (BN) → (ReLU): integer GEMM + affine.

    The weight matrix keeps its raw integer codes; dequantization (times the
    activation scale when the input is quantized) and a folded BatchNorm1d
    both live in the per-feature output affine, mirroring :class:`ConvStep` —
    the GEMM itself is always codes × codes on the integer-activation path.
    """

    def __init__(
        self,
        name: str,
        w_mat: np.ndarray,
        dequant: float,
        bias: Optional[np.ndarray],
        relu: bool = False,
        act_quant: Optional[ActQuantSpec] = None,
        kernel: Optional[GemmKernel] = None,
    ) -> None:
        self.name = name
        if kernel is None:
            kernel = FloatGemmKernel(np.ascontiguousarray(w_mat, dtype=np.float32), linear=True)
        self.kernel = kernel
        #: Per-feature (or scalar) output multiplier; ``None`` skips the pass.
        self.mult: Optional[np.ndarray] = None if dequant == 1.0 else np.float32(dequant)
        self.bias = None if bias is None else bias.astype(np.float32)
        self.relu = relu
        self.act_quant = act_quant
        self._folded_bn = False

    def fold_bn(self, gamma_invstd: np.ndarray, shift: np.ndarray) -> None:
        """Fold a following BatchNorm1d into the output affine."""
        base_mult = np.float32(1.0) if self.mult is None else self.mult
        self.mult = (base_mult * gamma_invstd).astype(np.float32)
        base_bias = 0.0 if self.bias is None else self.bias
        self.bias = (base_bias * gamma_invstd + shift).astype(np.float32)
        self._folded_bn = True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.act_quant is not None:
            x = self.act_quant.quantize(x)
        out = self.kernel.linear(x)
        if self.mult is not None:
            out *= self.mult
        if self.bias is not None:
            out += self.bias
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out

    def describe(self) -> str:
        tail = f"+{self.act_quant.describe()}" if self.act_quant is not None else ""
        if self.kernel.tag != "f32":
            tail += f"+{self.kernel.tag}"
        tail += "+bn" if self._folded_bn else ""
        tail += "+relu" if self.relu else ""
        return f"linear[{self.name}]{tail}"


class AffineStep(Step):
    """Standalone per-channel affine (a BatchNorm with no conv to fold into)."""

    def __init__(self, name: str, mult: np.ndarray, shift: np.ndarray, ndim: int = 4) -> None:
        self.name = name
        shape = (1, -1, 1, 1) if ndim == 4 else (1, -1)
        self.mult = mult.astype(np.float32).reshape(shape)
        self.shift = shift.astype(np.float32).reshape(shape)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x * self.mult + self.shift

    def describe(self) -> str:
        return f"affine[{self.name}]"


class ReluStep(Step):
    name = "relu"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


class MaxPoolStep(Step):
    def __init__(self, kernel_size: int, stride: int) -> None:
        self.name = f"maxpool{kernel_size}s{stride}"
        self.kernel_size = kernel_size
        self.stride = stride

    def __call__(self, x: np.ndarray) -> np.ndarray:
        k, s = self.kernel_size, self.stride
        batch, channels, height, width = x.shape
        if k == s and height % k == 0 and width % k == 0:
            # Non-overlapping windows: a reshape and two reductions.
            view = x.reshape(batch, channels, height // k, k, width // k, k)
            return view.max(axis=5).max(axis=3)
        cols = im2col(
            np.ascontiguousarray(x).reshape(batch * channels, 1, height, width),
            k, k, s, 0,
        )
        out_h = (height - k) // s + 1
        out_w = (width - k) // s + 1
        return cols.max(axis=0).reshape(batch, channels, out_h, out_w)


class AvgPoolStep(Step):
    def __init__(self, kernel_size: int, stride: int) -> None:
        self.name = f"avgpool{kernel_size}s{stride}"
        self.kernel_size = kernel_size
        self.stride = stride

    def __call__(self, x: np.ndarray) -> np.ndarray:
        k, s = self.kernel_size, self.stride
        batch, channels, height, width = x.shape
        if k == s and height % k == 0 and width % k == 0:
            view = x.reshape(batch, channels, height // k, k, width // k, k)
            return view.mean(axis=(3, 5))
        cols = im2col(
            np.ascontiguousarray(x).reshape(batch * channels, 1, height, width),
            k, k, s, 0,
        )
        out_h = (height - k) // s + 1
        out_w = (width - k) // s + 1
        return cols.mean(axis=0).reshape(batch, channels, out_h, out_w)


class GlobalAvgPoolStep(Step):
    name = "global_avg_pool"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x.mean(axis=(2, 3), keepdims=True)


class FlattenStep(Step):
    name = "flatten"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(x).reshape(x.shape[0], -1)


def _call(step: Step, x: np.ndarray) -> np.ndarray:
    return step(x)


class CompositeStep(Step):
    """A step that runs nested sub-steps (a residual block, an attention or
    mixer block).

    Every sub-step runs through ``call(sub_step, x)``, which is a plain call
    unless the session's profiler passes one that also times the sub-step.
    """

    def __call__(self, x: np.ndarray, call=_call) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class ResidualStep(CompositeStep):
    """A residual block: main path plus (possibly empty) shortcut path."""

    def __init__(self, name: str, main: List[Step], shortcut: List[Step], relu: bool = True) -> None:
        self.name = name
        self.main = main
        self.shortcut = shortcut
        self.relu = relu

    def __call__(self, x: np.ndarray, call=_call) -> np.ndarray:
        identity = x
        out = x
        for step in self.main:
            out = call(step, out)
        for step in self.shortcut:
            identity = call(step, identity)
        out = out + identity
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out

    def describe(self) -> str:
        inner = ", ".join(s.describe() for s in self.main)
        return f"residual[{self.name}]({inner})"


class TokensStep(Step):
    """NCHW feature map → ``(N, T, C)`` token sequence (patch-embed output)."""

    name = "tokens"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        batch, channels = x.shape[0], x.shape[1]
        return np.ascontiguousarray(
            x.reshape(batch, channels, -1).transpose(0, 2, 1)
        )


class MeanTokensStep(Step):
    """``(N, T, D)`` token sequence → ``(N, D)`` mean-pooled features."""

    name = "mean_tokens"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x.mean(axis=1)


class AttentionStep(CompositeStep):
    """One transformer block: single-head attention + MLP, residual adds.

    Holds six nested :class:`LinearStep` objects (q/k/v/proj and the two MLP
    linears), each compiled from its own artifact record — quantized weights
    and frozen activation ranges ride along per linear exactly as they do in
    a flat plan.  Every linear runs on the ``(N*T, D)`` flattening and the
    softmax replays :func:`repro.autograd.ops.softmax` operation for
    operation (shifted exponentials normalized by their sum), matching the
    eval graph's rounding behaviour.
    """

    def __init__(
        self,
        name: str,
        q: LinearStep,
        k: LinearStep,
        v: LinearStep,
        proj: LinearStep,
        fc1: LinearStep,
        fc2: LinearStep,
        scale: float,
    ) -> None:
        self.name = name
        self.q, self.k, self.v, self.proj = q, k, v, proj
        self.fc1, self.fc2 = fc1, fc2
        self.scale = scale
        #: Nested GEMM steps, walked by :func:`step_kernel_tags`.
        self.inner = [q, k, v, proj, fc1, fc2]

    def __call__(self, x: np.ndarray, call=_call) -> np.ndarray:
        batch, tokens, dim = x.shape
        flat = np.ascontiguousarray(x).reshape(batch * tokens, dim)
        q = call(self.q, flat).reshape(batch, tokens, dim)
        k = call(self.k, flat).reshape(batch, tokens, dim)
        v = call(self.v, flat).reshape(batch, tokens, dim)
        scores = (q @ k.transpose(0, 2, 1)) * self.scale
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exp_scores = np.exp(shifted)
        attn = exp_scores / exp_scores.sum(axis=-1, keepdims=True)
        context = attn @ v
        context_flat = np.ascontiguousarray(context).reshape(batch * tokens, dim)
        out = x + call(self.proj, context_flat).reshape(batch, tokens, dim)
        flat = out.reshape(batch * tokens, dim)
        mlp = call(self.fc2, call(self.fc1, flat))
        return out + mlp.reshape(batch, tokens, dim)

    def describe(self) -> str:
        inner = ", ".join(s.describe() for s in self.inner)
        return f"attention[{self.name}]({inner})"


class TokenMixStep(CompositeStep):
    """Mixer token-mixing MLP: transpose sandwich around two linears."""

    def __init__(self, name: str, fc1: LinearStep, fc2: LinearStep) -> None:
        self.name = name
        self.fc1, self.fc2 = fc1, fc2
        self.inner = [fc1, fc2]

    def __call__(self, x: np.ndarray, call=_call) -> np.ndarray:
        batch, tokens, dim = x.shape
        mixed = np.ascontiguousarray(x.transpose(0, 2, 1)).reshape(batch * dim, tokens)
        mixed = call(self.fc2, call(self.fc1, mixed))
        return x + mixed.reshape(batch, dim, tokens).transpose(0, 2, 1)

    def describe(self) -> str:
        inner = ", ".join(s.describe() for s in self.inner)
        return f"token_mix[{self.name}]({inner})"


class ChannelMixStep(CompositeStep):
    """Mixer channel-mixing MLP on the ``(N*T, D)`` flattening."""

    def __init__(self, name: str, fc1: LinearStep, fc2: LinearStep) -> None:
        self.name = name
        self.fc1, self.fc2 = fc1, fc2
        self.inner = [fc1, fc2]

    def __call__(self, x: np.ndarray, call=_call) -> np.ndarray:
        batch, tokens, dim = x.shape
        flat = np.ascontiguousarray(x).reshape(batch * tokens, dim)
        out = call(self.fc2, call(self.fc1, flat))
        return x + out.reshape(batch, tokens, dim)

    def describe(self) -> str:
        inner = ", ".join(s.describe() for s in self.inner)
        return f"channel_mix[{self.name}]({inner})"


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


class PlanBuilder:
    """Accumulates steps while walking a module tree, fusing as it goes.

    ``float_activations=True`` compiles every layer with float activation
    semantics even when its record carries a frozen activation range — the
    explicit escape hatch :class:`~repro.deploy.session.InferenceSession`
    exposes; the default honors the ranges and emits integer-activation
    steps.
    """

    def __init__(
        self,
        weights: Dict[int, QuantizedTensorRecord],
        float_activations: bool = False,
    ) -> None:
        self.weights = weights
        self.float_activations = float_activations
        self.steps: List[Step] = []

    # -- leaf emitters --------------------------------------------------
    def _conv_record(self, module: Module, name: str, groups: int = 1, linear: bool = False):
        record = self.weights.get(id(module))
        act_quant = None
        if record is not None and record.dequant_kind != "symmetric":
            # Affine (DoReFa) and palette (LQ-Nets) dequantization cannot
            # fold into the per-channel output multiplier — an offset or a
            # level table is not expressible as ``out * mult`` — so these
            # schemes run float GEMM on the dequantized weights.
            w_mat = np.ascontiguousarray(
                record.dequantized_weight.reshape(record.q.shape[0], -1)
            )
            dequant = 1.0
            bias = record.bias
            if not self.float_activations:
                act_quant = ActQuantSpec.from_record(record)
            if act_quant is not None:
                # The GEMM input is activation codes; only the activation
                # dequantization remains to fold into the output multiplier.
                dequant = act_quant.scale
            kernel = None
        elif record is not None:
            w_mat = np.ascontiguousarray(
                record.q.astype(np.float32).reshape(record.q.shape[0], -1)
            )
            dequant = record.dequant_factor
            bias = record.bias
            if not self.float_activations:
                act_quant = ActQuantSpec.from_record(record)
            if act_quant is not None:
                # The GEMM output is codes x codes: both the weight and the
                # activation dequantization fold into one output multiplier.
                dequant = dequant * act_quant.scale
            # Grouped convs get ConvStep's untagged grouped kernel: the
            # integer certification only tags full-matrix GEMMs.
            kernel = None if groups > 1 else _record_kernel(record, w_mat, act_quant, linear)
        else:
            weight = module.weight.data
            w_mat = weight.reshape(weight.shape[0], -1).astype(np.float32)
            dequant = 1.0
            bias = None if module.bias is None else module.bias.data
            kernel = None
        # Plan operands are only ever read: steps may run concurrently.
        w_mat.flags.writeable = False
        return w_mat, dequant, bias, act_quant, kernel

    def conv(self, module: Module, name: str) -> None:
        groups = getattr(module, "groups", 1)
        w_mat, dequant, bias, act_quant, kernel = self._conv_record(module, name, groups=groups)
        out_channels = w_mat.shape[0]
        mult = np.full(out_channels, dequant, dtype=np.float32)
        shift = None if bias is None else bias.astype(np.float32)
        self.steps.append(
            ConvStep(
                name,
                w_mat,
                mult,
                shift,
                kernel_size=module.kernel_size,
                stride=module.stride,
                padding=module.padding,
                act_quant=act_quant,
                kernel=kernel,
                groups=groups,
            )
        )

    def linear_step(self, module: Module, name: str, relu: bool = False) -> LinearStep:
        """Build (but do not append) the LinearStep for one linear module.

        Composite steps — attention and mixer blocks — embed linears inside
        one fused step; this gives them record-resolved LinearSteps without
        touching the flat step stream.
        """
        # A quantized record's bias is authoritative — like the conv path,
        # never fall back to the skeleton module's (randomly initialized)
        # bias when the record says the layer has none.
        w_mat, dequant, bias, act_quant, kernel = self._conv_record(module, name, linear=True)
        return LinearStep(
            name, w_mat, dequant, bias, relu=relu, act_quant=act_quant, kernel=kernel,
        )

    def linear(self, module: Module, name: str) -> None:
        self.steps.append(self.linear_step(module, name))

    def batch_norm(self, module: Module, name: str) -> None:
        invstd = 1.0 / np.sqrt(module.running_var.data + module.eps)
        gamma = module.weight.data if module.weight is not None else np.ones_like(invstd)
        beta = module.bias.data if module.bias is not None else np.zeros_like(invstd)
        gamma_invstd = (gamma * invstd).astype(np.float32)
        shift = (beta - module.running_mean.data * gamma_invstd).astype(np.float32)
        ndim = 2 if type(module).__name__ == "BatchNorm1d" else 4
        last = self.steps[-1] if self.steps else None
        if isinstance(last, (ConvStep, LinearStep)) and not last.relu:
            last.fold_bn(gamma_invstd, shift)
        else:
            self.steps.append(AffineStep(name, gamma_invstd, shift, ndim=ndim))

    def relu(self) -> None:
        last = self.steps[-1] if self.steps else None
        if isinstance(last, (ConvStep, LinearStep, ResidualStep)) and not last.relu:
            last.relu = True
        else:
            self.steps.append(ReluStep())

    # -- composition ----------------------------------------------------
    def subplan(self) -> "PlanBuilder":
        return PlanBuilder(self.weights, float_activations=self.float_activations)

    def compile(self, module: Module, name: str) -> None:
        """Dispatch one module (leaf or composite) into the step stream."""
        handler = _HANDLERS.get(type(module).__name__)
        if handler is not None:
            handler(self, module, name)
            return
        raise PlanError(
            f"No plan handler for module type {type(module).__name__!r} (at {name!r}); "
            f"register one with repro.deploy.plan.register_plan_handler"
        )


def _quantizes_every_input(step: Step) -> bool:
    """True when every path ``step`` routes its input through starts with an
    activation quantizer — i.e. the input is always re-clipped at zero."""
    if isinstance(step, (ConvStep, LinearStep)):
        return step.act_quant is not None
    if isinstance(step, ResidualStep):
        return (
            bool(step.main)
            and _quantizes_every_input(step.main[0])
            and bool(step.shortcut)
            and _quantizes_every_input(step.shortcut[0])
        )
    return False


def _elide_subsumed_relus(steps: List[Step]) -> List[Step]:
    """Drop ReLUs whose sole consumer re-clips at zero while quantizing.

    In a flat step list, step ``i``'s output feeds exactly step ``i + 1``.
    When that consumer quantizes its input, the quantizer's ``clip(·, 0, r)``
    maps every negative value to code 0 — exactly what a preceding ReLU
    would have produced — so the ReLU pass is bit-for-bit redundant and the
    integer-activation plan saves one full-tensor pass per such pair.  A
    residual consumer qualifies only when *both* its branches quantize (an
    identity shortcut would leak the un-rectified tensor into the add).
    """
    for step in steps:
        if isinstance(step, ResidualStep):
            step.main = _elide_subsumed_relus(step.main)
            step.shortcut = _elide_subsumed_relus(step.shortcut)
    out: List[Step] = []
    for index, step in enumerate(steps):
        successor = steps[index + 1] if index + 1 < len(steps) else None
        if successor is not None and _quantizes_every_input(successor):
            if isinstance(step, ReluStep):
                continue
            if isinstance(step, (ConvStep, LinearStep, ResidualStep)) and step.relu:
                step.relu = False
        out.append(step)
    return out


#: module class name -> handler(builder, module, qualified_name)
_HANDLERS: Dict[str, Callable[[PlanBuilder, Module, str], None]] = {}


def register_plan_handler(*class_names: str):
    """Register a plan compilation handler for the named module classes."""

    def decorator(handler: Callable[[PlanBuilder, Module, str], None]):
        for class_name in class_names:
            _HANDLERS[class_name] = handler
        return handler

    return decorator


def compile_plan(
    model: Module,
    weights: Dict[int, QuantizedTensorRecord],
    float_activations: bool = False,
) -> List[Step]:
    """Compile ``model`` (an eval-mode float skeleton) into a flat step list.

    ``weights`` maps ``id(module)`` of conv/linear modules to their artifact
    records; modules without a record fall back to their dense float weight.
    Records carrying a frozen activation range compile to integer-activation
    steps unless ``float_activations=True`` forces float semantics.
    """
    builder = PlanBuilder(weights, float_activations=float_activations)
    builder.compile(model, "")
    if not builder.steps:
        raise PlanError(f"Model {type(model).__name__} compiled to an empty plan")
    return _elide_subsumed_relus(builder.steps)


def plan_summary(steps: List[Step]) -> str:
    """One line per step — the deployment analogue of ``repr(model)``."""
    return "\n".join(step.describe() for step in steps)


def step_kernel_tags(step: Step) -> Dict[str, str]:
    """``layer name -> kernel tag`` for every GEMM kernel nested in ``step``.

    Tags are the compile-time kernel selections the plan summary shows
    (``f32``/``int8``/``int16``); residual steps contribute
    their main and shortcut sub-plans.  The per-step profiler and the
    ``plan.step`` trace spans attach exactly this mapping, so a trace can
    be checked against :meth:`InferenceSession.summary` tag-for-tag.
    """
    tags: Dict[str, str] = {}

    def walk(steps: List[Step]) -> None:
        for inner in steps:
            kernel = getattr(inner, "kernel", None)
            if kernel is not None:
                tags[inner.name] = kernel.tag
            if hasattr(inner, "main"):
                walk(inner.main)
                walk(inner.shortcut)
            # Attention/mixer steps embed their GEMM sub-steps in ``inner``.
            walk(getattr(inner, "inner", []))

    walk([step])
    return tags


# ---------------------------------------------------------------------------
# Built-in handlers: leaves
# ---------------------------------------------------------------------------


def _child_name(prefix: str, child: str) -> str:
    return f"{prefix}.{child}" if prefix else child


@register_plan_handler("Conv2d")
def _handle_conv(builder: PlanBuilder, module: Module, name: str) -> None:
    builder.conv(module, name)


@register_plan_handler("Linear")
def _handle_linear(builder: PlanBuilder, module: Module, name: str) -> None:
    builder.linear(module, name)


@register_plan_handler("BatchNorm2d", "BatchNorm1d")
def _handle_bn(builder: PlanBuilder, module: Module, name: str) -> None:
    builder.batch_norm(module, name)


@register_plan_handler("ReLU")
def _handle_relu(builder: PlanBuilder, module: Module, name: str) -> None:
    builder.relu()


@register_plan_handler("MaxPool2d")
def _handle_maxpool(builder: PlanBuilder, module: Module, name: str) -> None:
    builder.steps.append(MaxPoolStep(module.kernel_size, module.stride))


@register_plan_handler("AvgPool2d")
def _handle_avgpool(builder: PlanBuilder, module: Module, name: str) -> None:
    builder.steps.append(AvgPoolStep(module.kernel_size, module.stride))


@register_plan_handler("AdaptiveAvgPool2d")
def _handle_adaptive_avgpool(builder: PlanBuilder, module: Module, name: str) -> None:
    builder.steps.append(GlobalAvgPoolStep())


@register_plan_handler("Flatten")
def _handle_flatten(builder: PlanBuilder, module: Module, name: str) -> None:
    builder.steps.append(FlattenStep())


@register_plan_handler("Identity", "Dropout")
def _handle_noop(builder: PlanBuilder, module: Module, name: str) -> None:
    # Dropout is identity at inference; Identity is identity everywhere.
    return


@register_plan_handler("Sequential", "ModuleList")
def _handle_sequential(builder: PlanBuilder, module: Module, name: str) -> None:
    for child_name, child in module.named_children():
        builder.compile(child, _child_name(name, child_name))


# ---------------------------------------------------------------------------
# Built-in handlers: composite blocks and model classes
# ---------------------------------------------------------------------------


def _compile_downsample(builder: PlanBuilder, block: Module, name: str) -> List[Step]:
    shortcut = builder.subplan()
    shortcut.compile(block.downsample, _child_name(name, "downsample"))
    return shortcut.steps


@register_plan_handler("BasicBlockCIFAR", "BasicBlock")
def _handle_basic_block(builder: PlanBuilder, block: Module, name: str) -> None:
    main = builder.subplan()
    main.conv(block.conv1, _child_name(name, "conv1"))
    main.batch_norm(block.bn1, _child_name(name, "bn1"))
    main.relu()
    main.conv(block.conv2, _child_name(name, "conv2"))
    main.batch_norm(block.bn2, _child_name(name, "bn2"))
    builder.steps.append(
        ResidualStep(name, main.steps, _compile_downsample(builder, block, name), relu=True)
    )


@register_plan_handler("Bottleneck")
def _handle_bottleneck(builder: PlanBuilder, block: Module, name: str) -> None:
    main = builder.subplan()
    main.conv(block.conv1, _child_name(name, "conv1"))
    main.batch_norm(block.bn1, _child_name(name, "bn1"))
    main.relu()
    main.conv(block.conv2, _child_name(name, "conv2"))
    main.batch_norm(block.bn2, _child_name(name, "bn2"))
    main.relu()
    main.conv(block.conv3, _child_name(name, "conv3"))
    main.batch_norm(block.bn3, _child_name(name, "bn3"))
    builder.steps.append(
        ResidualStep(name, main.steps, _compile_downsample(builder, block, name), relu=True)
    )


@register_plan_handler("ResNetCIFAR")
def _handle_resnet_cifar(builder: PlanBuilder, model: Module, name: str) -> None:
    builder.conv(model.conv1, _child_name(name, "conv1"))
    builder.batch_norm(model.bn1, _child_name(name, "bn1"))
    builder.relu()
    for stage in ("layer1", "layer2", "layer3"):
        builder.compile(getattr(model, stage), _child_name(name, stage))
    builder.steps.append(GlobalAvgPoolStep())
    builder.steps.append(FlattenStep())
    builder.linear(model.fc, _child_name(name, "fc"))


@register_plan_handler("ResNetImageNet")
def _handle_resnet_imagenet(builder: PlanBuilder, model: Module, name: str) -> None:
    builder.conv(model.conv1, _child_name(name, "conv1"))
    builder.batch_norm(model.bn1, _child_name(name, "bn1"))
    builder.relu()
    builder.compile(model.maxpool, _child_name(name, "maxpool"))
    for stage in ("layer1", "layer2", "layer3", "layer4"):
        builder.compile(getattr(model, stage), _child_name(name, stage))
    builder.steps.append(GlobalAvgPoolStep())
    builder.steps.append(FlattenStep())
    builder.linear(model.fc, _child_name(name, "fc"))


@register_plan_handler("VGG")
def _handle_vgg(builder: PlanBuilder, model: Module, name: str) -> None:
    builder.compile(model.features, _child_name(name, "features"))
    builder.steps.append(GlobalAvgPoolStep())
    builder.steps.append(FlattenStep())
    builder.linear(model.classifier, _child_name(name, "classifier"))


@register_plan_handler("SimpleConvNet")
def _handle_simple_convnet(builder: PlanBuilder, model: Module, name: str) -> None:
    builder.conv(model.conv1, _child_name(name, "conv1"))
    builder.batch_norm(model.bn1, _child_name(name, "bn1"))
    builder.relu()
    builder.conv(model.conv2, _child_name(name, "conv2"))
    builder.batch_norm(model.bn2, _child_name(name, "bn2"))
    builder.relu()
    builder.steps.append(GlobalAvgPoolStep())
    builder.steps.append(FlattenStep())
    builder.linear(model.fc, _child_name(name, "fc"))


@register_plan_handler("TinyMLP")
def _handle_tiny_mlp(builder: PlanBuilder, model: Module, name: str) -> None:
    builder.linear(model.fc1, _child_name(name, "fc1"))
    builder.relu()
    builder.linear(model.fc2, _child_name(name, "fc2"))


@register_plan_handler("DepthwiseSeparableBlock")
def _handle_dw_separable(builder: PlanBuilder, block: Module, name: str) -> None:
    builder.conv(block.dw, _child_name(name, "dw"))
    builder.batch_norm(block.bn1, _child_name(name, "bn1"))
    builder.relu()
    builder.conv(block.pw, _child_name(name, "pw"))
    builder.batch_norm(block.bn2, _child_name(name, "bn2"))
    builder.relu()


@register_plan_handler("MobileNetTiny")
def _handle_mobilenet_tiny(builder: PlanBuilder, model: Module, name: str) -> None:
    builder.conv(model.stem, _child_name(name, "stem"))
    builder.batch_norm(model.bn, _child_name(name, "bn"))
    builder.relu()
    builder.compile(model.blocks, _child_name(name, "blocks"))
    builder.steps.append(GlobalAvgPoolStep())
    builder.steps.append(FlattenStep())
    builder.linear(model.fc, _child_name(name, "fc"))


@register_plan_handler("AttentionBlock")
def _handle_attention_block(builder: PlanBuilder, block: Module, name: str) -> None:
    builder.steps.append(
        AttentionStep(
            name,
            q=builder.linear_step(block.q, _child_name(name, "q")),
            k=builder.linear_step(block.k, _child_name(name, "k")),
            v=builder.linear_step(block.v, _child_name(name, "v")),
            proj=builder.linear_step(block.proj, _child_name(name, "proj")),
            fc1=builder.linear_step(block.fc1, _child_name(name, "fc1"), relu=True),
            fc2=builder.linear_step(block.fc2, _child_name(name, "fc2")),
            scale=block.scale,
        )
    )


@register_plan_handler("MixerBlock")
def _handle_mixer_block(builder: PlanBuilder, block: Module, name: str) -> None:
    builder.steps.append(
        TokenMixStep(
            name,
            builder.linear_step(block.token_fc1, _child_name(name, "token_fc1"), relu=True),
            builder.linear_step(block.token_fc2, _child_name(name, "token_fc2")),
        )
    )
    builder.steps.append(
        ChannelMixStep(
            name,
            builder.linear_step(block.channel_fc1, _child_name(name, "channel_fc1"), relu=True),
            builder.linear_step(block.channel_fc2, _child_name(name, "channel_fc2")),
        )
    )


@register_plan_handler("TinyAttention", "TinyMixer")
def _handle_token_model(builder: PlanBuilder, model: Module, name: str) -> None:
    builder.conv(model.patch_embed, _child_name(name, "patch_embed"))
    builder.steps.append(TokensStep())
    builder.compile(model.blocks, _child_name(name, "blocks"))
    builder.steps.append(MeanTokensStep())
    builder.linear(model.head, _child_name(name, "head"))
