"""Datasets and data loading.

Because the execution environment has no network access, the CIFAR-10 and
ImageNet workloads of the paper are replaced by deterministic synthetic
image-classification datasets (:mod:`repro.data.synthetic` documents the
substitution and why it preserves the properties the paper's comparisons
rely on).  The loaders and transforms mirror the
standard CIFAR training pipeline (random crop with padding, horizontal flip,
per-channel normalization).
"""

from repro.data.dataset import Dataset, TensorDataset, Subset
from repro.data.dataloader import DataLoader, prefetch_batches
from repro.data.transforms import (
    Compose,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    ToFloat,
)
from repro.data.synthetic import (
    SyntheticImageClassification,
    cifar10_like,
    imagenet_like,
    make_classification_arrays,
)

__all__ = [
    "Dataset",
    "TensorDataset",
    "Subset",
    "DataLoader",
    "prefetch_batches",
    "Compose",
    "Normalize",
    "RandomCrop",
    "RandomHorizontalFlip",
    "ToFloat",
    "SyntheticImageClassification",
    "cifar10_like",
    "imagenet_like",
    "make_classification_arrays",
]
