"""Dataset shape specifications.

Private-inference cost depends only on the input resolution and the network
architecture, never on pixel values, so synthetic uniformly random inputs
exercise exactly the same code paths as the real datasets (the substitution
the system design documents for CIFAR-100 / TinyImageNet / ImageNet).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.shapes import TensorShape


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    input_shape: TensorShape
    num_classes: int


CIFAR100 = DatasetSpec("CIFAR-100", TensorShape(3, 32, 32), 100)
TINY_IMAGENET = DatasetSpec("TinyImageNet", TensorShape(3, 64, 64), 200)
IMAGENET = DatasetSpec("ImageNet", TensorShape(3, 224, 224), 1000)

DATASETS = {d.name: d for d in (CIFAR100, TINY_IMAGENET, IMAGENET)}


def tiny_dataset(size: int = 8, channels: int = 1, classes: int = 4) -> DatasetSpec:
    """A miniature dataset spec for functional end-to-end protocol tests."""
    return DatasetSpec("Tiny", TensorShape(channels, size, size), classes)
