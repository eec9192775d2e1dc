"""Data-pipeline benchmarks: background prefetch.

The ``runtime`` suite measures the one lever the data pipeline adds on top
of the vectorized kernels:

* ``dataloader_prefetch_{off,on}`` — one epoch of the synthetic loader with
  and without the background prefetch worker.
"""

from __future__ import annotations

from typing import List

from benchmarks.perf.harness import BenchCase, register_suite

_SCALES = {
    "quick": {"loader_samples": 256, "loader_batch": 32},
    "tiny": {"loader_samples": 64, "loader_batch": 16},
}


@register_suite("runtime")
def build_runtime_suite(scale: str) -> List[BenchCase]:
    if scale not in _SCALES:
        raise KeyError(f"Unknown perf scale {scale!r}; choose from {sorted(_SCALES)}")
    cfg = _SCALES[scale]

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

    return [make_prefetch_case(flag) for flag in (False, True)]
