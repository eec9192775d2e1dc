"""Compile-time certification of code × code GEMMs on float32 BLAS.

The deployment plan multiplies *integer code* operands — weight codes from
the artifact, activation codes from the frozen quantization grid — but a
NumPy-on-CPU host has exactly one fast matmul: float BLAS (NumPy's integer
``matmul`` has no BLAS backing and measures 50–150× slower).  Float32 BLAS
is nevertheless an exact integer GEMM whenever the operand ranges allow it:
with weight codes in ``[w_lo, w_hi]`` and activation codes in
``[a_lo, a_hi]`` over a reduction of length ``K``, no product or partial
sum can exceed ``K · max|w·a|`` (:func:`gemm_bound`).  Below ``2**24``
every intermediate is an exactly representable float32 integer, and each
add of such integers whose result is also exactly representable is exact
regardless of association order — so the float32 result *is* the
int32-accumulated integer result, at full BLAS speed.

:func:`kernel_tag` turns that bound into the per-layer tag the plan summary
shows: ``int8``/``int16`` (the natural storage width of the codes) for an
integer-activation layer the bound certifies, ``f32`` otherwise.  Past the
bound the integer result and the float32 eval graph the model was
validated as genuinely diverge; serving keeps float32 semantics there.
Every layer runs the same float32 GEMM either way — the tag records which
semantics that GEMM has.

:func:`parallel_gemm` is that GEMM: the one 2-D matmul entry point of the
training ops and the deploy plans.  It is a single BLAS call on one thread:
OpenBLAS sums some float32 GEMMs in an order that depends on its thread
count (a conv weight gradient of (13×450) @ (450×117) already does), so a
result would depend on how many cores the host has.  Importing this module
pins the OpenBLAS NumPy loaded to one thread (:func:`pin_blas_threads`),
whatever ``OPENBLAS_NUM_THREADS`` says; with another BLAS backend it warns
that results may depend on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import glob
import os
import warnings
from typing import Callable, Optional

import numpy as np

#: Largest magnitude for which every intermediate of an integer GEMM is
#: exactly representable in float32.
F32_EXACT_BOUND = 1 << 24


#: Threads every BLAS call runs on: the one count every host can give.
BLAS_THREADS = 1


def openblas_function(*symbols: str) -> Optional[Callable]:
    """The first of ``symbols`` exported by the OpenBLAS NumPy loaded, or ``None``.

    NumPy wheels ship their OpenBLAS in ``numpy.libs``; opening that file
    through ctypes returns the copy NumPy already loaded.  ``None`` means
    NumPy runs on another BLAS backend (or one this lookup cannot find).
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            function = getattr(lib, symbol, None)
            if function is not None:
                return function
    return None


def pin_blas_threads() -> None:
    """Set OpenBLAS to :data:`BLAS_THREADS` threads, or warn
    (``RuntimeWarning``) when no OpenBLAS thread setter is found."""
    setter = openblas_function(
        "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
        "openblas_set_num_threads64_", "openblas_set_num_threads",
    )
    if setter is None:
        warnings.warn(
            "no OpenBLAS thread setter found for NumPy's BLAS: results may "
            "depend on the BLAS thread count",
            RuntimeWarning, stacklevel=2,
        )
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(BLAS_THREADS)


pin_blas_threads()


class IntGemmError(ValueError):
    """Raised on an invalid reduction length or code range."""


def gemm_bound(k: int, w_lo: int, w_hi: int, a_lo: int, a_hi: int) -> int:
    """Largest possible ``|Σ_k w·a|`` for operands in the given ranges.

    Every partial sum of the reduction is bounded by this too (each term's
    magnitude is at most the corner-product maximum), which is what lets a
    sub-2**24 bound certify float32 BLAS as exact integer arithmetic.
    """
    if k < 0:
        raise IntGemmError(f"reduction length must be >= 0, got {k}")
    corners = (w_lo * a_lo, w_lo * a_hi, w_hi * a_lo, w_hi * a_hi)
    return int(k) * max(abs(int(c)) for c in corners)


def natural_int_dtype(lo: int, hi: int) -> np.dtype:
    """Smallest NumPy integer dtype holding values in ``[lo, hi]``.

    Nonnegative ranges prefer unsigned dtypes (activation codes are
    offset-free and nonnegative); ranges containing negatives get the
    smallest signed dtype (weight codes).
    """
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise IntGemmError(f"invalid range [{lo}, {hi}]")
    candidates = (
        (np.uint8, np.uint16, np.uint32, np.uint64)
        if lo >= 0
        else (np.int8, np.int16, np.int32, np.int64)
    )
    for candidate in candidates:
        info = np.iinfo(candidate)
        if info.min <= lo and hi <= info.max:
            return np.dtype(candidate)
    raise IntGemmError(f"range [{lo}, {hi}] exceeds 64-bit integers")


def kernel_tag(k: int, w_lo: int, w_hi: int, a_bits: Optional[int]) -> str:
    """The semantics tag of one layer's GEMM, decided at plan-compile time.

    ``k`` is the reduction length, ``[w_lo, w_hi]`` the weight code range
    and ``a_bits`` the activation bit width (``None`` = float activations).
    Integer activations whose bound is below :data:`F32_EXACT_BOUND` get
    ``int{8,16,...}``, the wider of the two code storage widths; every
    other layer is ``f32``.
    """
    if a_bits is None or a_bits >= 32:
        return "f32"
    a_hi = 2 ** a_bits - 1
    if gemm_bound(k, w_lo, w_hi, 0, a_hi) >= F32_EXACT_BOUND:
        return "f32"
    width = max(natural_int_dtype(w_lo, w_hi).itemsize, natural_int_dtype(0, a_hi).itemsize)
    return f"int{8 * width}"


def parallel_gemm(
    a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """2-D matmul ``a @ b`` as one BLAS call, written into ``out`` if given.

    The conv GEMMs of the training ops and the deploy plans go through this
    module-level name, which the benchmark's trace mode patches by
    attribute.  It runs on the one BLAS thread this module pins, so its
    bytes do not depend on the host's core count.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"parallel_gemm needs 2-D operands, got {a.ndim}-D @ {b.ndim}-D")
    return np.matmul(a, b, out=out)


__all__ = [
    "BLAS_THREADS",
    "F32_EXACT_BOUND",
    "IntGemmError",
    "gemm_bound",
    "kernel_tag",
    "natural_int_dtype",
    "openblas_function",
    "parallel_gemm",
    "pin_blas_threads",
]
