"""Compile-time integer-GEMM certification (bound, storage widths, tags),
the plain ``parallel_gemm`` entry point and the one-thread BLAS pin.

The exactness claim itself (f32 BLAS on certified code matrices equals the
int64 reference bit for bit) is pinned in
``tests/deploy/test_kernel_selection.py``.
"""

import numpy as np
import pytest

from repro.runtime import intgemm
from repro.runtime.intgemm import (
    BLAS_THREADS,
    F32_EXACT_BOUND,
    IntGemmError,
    gemm_bound,
    kernel_tag,
    natural_int_dtype,
    parallel_gemm,
    pin_blas_threads,
)


def test_gemm_bound_is_corner_product_times_k():
    assert gemm_bound(10, -8, 7, 0, 15) == 10 * 8 * 15
    assert gemm_bound(3, -2, 5, -7, 4) == 3 * 35
    assert gemm_bound(0, -100, 100, -100, 100) == 0
    with pytest.raises(IntGemmError):
        gemm_bound(-1, 0, 1, 0, 1)


def test_natural_int_dtype():
    assert natural_int_dtype(0, 255) == np.dtype(np.uint8)
    assert natural_int_dtype(0, 256) == np.dtype(np.uint16)
    assert natural_int_dtype(-1, 1) == np.dtype(np.int8)
    assert natural_int_dtype(-129, 0) == np.dtype(np.int16)
    assert natural_int_dtype(0, 2 ** 40) == np.dtype(np.uint64)
    with pytest.raises(IntGemmError):
        natural_int_dtype(5, 4)


def test_kernel_tag_policy():
    # Float activations: nothing to certify.
    assert kernel_tag(576, -8, 7, None) == "f32"
    assert kernel_tag(576, -8, 7, 32) == "f32"
    # Certified f32 bound: integer semantics, tagged by storage width.
    assert kernel_tag(576, -8, 7, 4) == "int8"
    # Bound past 2**24: float32 semantics.
    assert kernel_tag(10 ** 6, -127, 127, 8) == "f32"


def test_kernel_tag_threshold_is_the_f32_bound():
    # 8-bit weights × 4-bit activations: 128 · 15 per product.
    k_edge = (F32_EXACT_BOUND - 1) // (128 * 15)
    assert kernel_tag(k_edge, -128, 127, 4) == "int8"
    assert kernel_tag(k_edge + 1, -128, 127, 4) == "f32"


def test_kernel_tag_int16_widths():
    # 9-bit weight codes need int16 storage; small K keeps the f32 bound.
    assert kernel_tag(16, -256, 255, 4) == "int16"
    # 9-bit activations widen the tag even with 8-bit weights.
    assert kernel_tag(16, -8, 7, 9) == "int16"


def test_parallel_gemm_matches_numpy():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((33, 70)).astype(np.float32)
    b = rng.standard_normal((70, 9000)).astype(np.float32)
    np.testing.assert_allclose(parallel_gemm(a, b), a @ b, rtol=1e-6, atol=1e-5)
    out = np.empty((33, 9000), np.float32)
    assert parallel_gemm(a, b, out=out) is out
    np.testing.assert_allclose(out, a @ b, rtol=1e-6, atol=1e-5)


def test_parallel_gemm_rejects_non_2d_operands():
    a = np.ones((2, 3), np.float32)
    with pytest.raises(ValueError):
        parallel_gemm(a, np.ones(3, np.float32))
    with pytest.raises(ValueError):
        parallel_gemm(np.ones((1, 2, 3), np.float32), np.ones((3, 2), np.float32))


def test_pin_sets_the_openblas_thread_count(monkeypatch):
    calls = []

    def setter(threads):
        calls.append(threads)

    monkeypatch.setattr(intgemm, "openblas_function", lambda *symbols: setter)
    pin_blas_threads()
    assert calls == [BLAS_THREADS] == [1]


def test_pin_warns_without_an_openblas_setter(monkeypatch):
    monkeypatch.setattr(intgemm, "openblas_function", lambda *symbols: None)
    with pytest.warns(RuntimeWarning, match="BLAS thread count"):
        pin_blas_threads()
