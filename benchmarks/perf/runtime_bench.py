"""Compute-runtime benchmarks: thread scaling, prefetch.

The ``runtime`` suite measures the levers the shared compute runtime adds on
top of the vectorized kernels:

* ``conv2d_fwd_bwd_t{1,2,4}`` — the conv train-step kernel under 1/2/4
  compute threads (the thread-scaling curve; flat on a single-core host);
* ``gemm_shard_t{1,2,4}`` — a bare ``parallel_gemm`` of serving-sized shape;
* ``dataloader_prefetch_{off,on}`` — one epoch of the synthetic loader with
  and without the background prefetch worker.

Every case restores the global thread configuration in its teardown,
so suite order cannot leak state into later cases.
"""

from __future__ import annotations

from typing import List

import numpy as np

from benchmarks.perf.harness import BenchCase, register_suite

_SCALES = {
    "quick": {
        "conv_x": (50, 16, 12, 12),
        "conv_w": (32, 16, 3, 3),
        "gemm": (64, 576, 8192),
        "loader_samples": 256,
        "loader_batch": 32,
    },
    "tiny": {
        "conv_x": (8, 8, 8, 8),
        "conv_w": (8, 8, 3, 3),
        "gemm": (16, 128, 2048),
        "loader_samples": 64,
        "loader_batch": 16,
    },
}

_THREAD_POINTS = (1, 2, 4)


def _conv_state(cfg):
    from repro.autograd import ops
    from repro.autograd.tensor import Tensor

    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(cfg["conv_x"]).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal(cfg["conv_w"]).astype(np.float32), requires_grad=True)
    seed_grad = np.ones(ops.conv2d(x, w, stride=1, padding=1).shape, dtype=np.float32)
    return x, w, seed_grad


def _conv_fwd_bwd(state):
    from repro.autograd import ops

    x, w, seed_grad = state
    x.zero_grad(), w.zero_grad()
    out = ops.conv2d(x, w, stride=1, padding=1)
    out.backward(seed_grad)
    return out


@register_suite("runtime")
def build_runtime_suite(scale: str) -> List[BenchCase]:
    if scale not in _SCALES:
        raise KeyError(f"Unknown perf scale {scale!r}; choose from {sorted(_SCALES)}")
    cfg = _SCALES[scale]
    cases: List[BenchCase] = []
    batch = float(cfg["conv_x"][0])

    # -- thread scaling: conv fwd+bwd ----------------------------------
    def make_conv_thread_case(threads: int) -> BenchCase:
        def setup():
            from repro import runtime

            previous = runtime.num_threads()
            runtime.set_num_threads(threads)
            return _conv_state(cfg), previous

        def fn(state):
            return _conv_fwd_bwd(state[0])

        def teardown(state):
            from repro import runtime

            runtime.set_num_threads(state[1])

        return BenchCase(
            f"conv2d_fwd_bwd_t{threads}", setup, fn, batch, "image", teardown=teardown
        )

    cases.extend(make_conv_thread_case(t) for t in _THREAD_POINTS)

    # -- thread scaling: bare sharded GEMM -----------------------------
    def make_gemm_case(threads: int) -> BenchCase:
        m, k, n = cfg["gemm"]

        def setup():
            from repro import runtime

            previous = runtime.num_threads()
            runtime.set_num_threads(threads)
            rng = np.random.default_rng(1)
            a = rng.standard_normal((m, k)).astype(np.float32)
            b = rng.standard_normal((k, n)).astype(np.float32)
            out = np.empty((m, n), dtype=np.float32)
            return (a, b, out), previous

        def fn(state):
            from repro import runtime

            a, b, out = state[0]
            return runtime.parallel_gemm(a, b, out=out)

        def teardown(state):
            from repro import runtime

            runtime.set_num_threads(state[1])

        return BenchCase(
            f"gemm_shard_t{threads}", setup, fn, float(2 * m * k * n) / 1e9, "gflop",
            teardown=teardown,
        )

    cases.extend(make_gemm_case(t) for t in _THREAD_POINTS)

    # -- dataloader prefetch -------------------------------------------
    def make_prefetch_case(prefetch: bool) -> BenchCase:
        def setup():
            from repro.data import DataLoader, cifar10_like
            from repro.data.transforms import Compose, Normalize, RandomCrop

            train = cifar10_like(
                train=True, train_size=cfg["loader_samples"], image_size=12, seed=0
            )
            transform = Compose([RandomCrop(12, padding=2), Normalize(0.5, 0.5)])
            loader = DataLoader(
                train, batch_size=cfg["loader_batch"], shuffle=True,
                transform=transform, prefetch=prefetch,
            )

            def epoch():
                consumed = 0
                for images, _labels in loader:
                    # A tiny stand-in step so the worker has time to overlap.
                    consumed += float(images.sum())
                return consumed

            return epoch

        label = "on" if prefetch else "off"
        return BenchCase(
            f"dataloader_prefetch_{label}", setup, lambda epoch: epoch(),
            float(cfg["loader_samples"]), "sample",
        )

    cases.extend(make_prefetch_case(flag) for flag in (False, True))
    return cases
