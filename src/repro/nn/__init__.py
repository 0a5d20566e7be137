"""Plaintext neural-network substrate: layers, models, datasets, shapes."""

from repro.nn.datasets import (
    CIFAR100,
    DATASETS,
    IMAGENET,
    TINY_IMAGENET,
    DatasetSpec,
    tiny_dataset,
)
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Layer,
    Linear,
    ReLU,
    Residual,
)
from repro.nn.models import (
    MODEL_BUILDERS,
    resnet18,
    resnet32,
    tiny_cnn,
    tiny_mlp,
    vgg16,
)
from repro.nn.network import Network
from repro.nn.quantize import FixedPointEncoder, quantize_network
from repro.nn.shapes import LinearLayerInfo, ReluLayerInfo, TensorShape

__all__ = [
    "AvgPool2d",
    "CIFAR100",
    "Conv2d",
    "DATASETS",
    "DatasetSpec",
    "FixedPointEncoder",
    "Flatten",
    "quantize_network",
    "GlobalAvgPool",
    "IMAGENET",
    "Layer",
    "Linear",
    "LinearLayerInfo",
    "MODEL_BUILDERS",
    "Network",
    "ReLU",
    "ReluLayerInfo",
    "Residual",
    "TINY_IMAGENET",
    "TensorShape",
    "resnet18",
    "resnet32",
    "tiny_cnn",
    "tiny_mlp",
    "vgg16",
]
