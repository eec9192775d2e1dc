"""Process-wide compute runtime: worker thread pool + GEMM certification.

Shared by the training stack (:mod:`repro.autograd.ops`) and the serving
stack (:mod:`repro.deploy`):

* :func:`parallel_apply` / :func:`parallel_gemm` shard large copies and
  matmuls across a persistent :class:`ThreadPool` (``REPRO_NUM_THREADS``
  knob, bitwise-deterministic at any thread count);
* :mod:`repro.runtime.intgemm` certifies at plan-compile time when the
  float32 GEMM of a code × code layer is an exact integer GEMM
  (:func:`gemm_bound`) and derives the layer's :func:`kernel_tag`.
"""

from repro.runtime.intgemm import gemm_bound, kernel_tag, natural_int_dtype
from repro.runtime.threadpool import (
    ThreadPool,
    get_pool,
    num_threads,
    parallel_apply,
    parallel_gemm,
    set_num_threads,
    shard_bounds,
    thread_scope,
)

__all__ = [
    "ThreadPool",
    "gemm_bound",
    "get_pool",
    "kernel_tag",
    "natural_int_dtype",
    "num_threads",
    "parallel_apply",
    "parallel_gemm",
    "set_num_threads",
    "shard_bounds",
    "thread_scope",
]
