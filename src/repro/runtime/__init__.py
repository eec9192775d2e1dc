"""GEMM entry point and compile-time GEMM certification.

Shared by the training stack (:mod:`repro.autograd.ops`) and the serving
stack (:mod:`repro.deploy`): :func:`parallel_gemm` is the one 2-D matmul
both call, a plain BLAS call whose parallelism is BLAS's own threads; and
:mod:`repro.runtime.intgemm` certifies at plan-compile time when the
float32 GEMM of a code × code layer is an exact integer GEMM
(:func:`gemm_bound`) and derives the layer's :func:`kernel_tag`.
"""

from repro.runtime.intgemm import gemm_bound, kernel_tag, natural_int_dtype, parallel_gemm

__all__ = [
    "gemm_bound",
    "kernel_tag",
    "natural_int_dtype",
    "parallel_gemm",
]
