"""Plaintext neural-network layers over floats and over Z_p.

The integer (``forward_mod``) path is the reference semantics for the
private protocols: linear layers are exact ring operations, ReLU uses the
centered-sign convention shared with the garbled circuit, and average
pooling is realized as *sum* pooling (the 1/k^2 scale is folded into the
next layer's weights in fixed-point deployments, and a pure scale never
changes shapes, ReLU counts, or protocol costs).
"""

from __future__ import annotations

import numpy as np

from repro.nn.shapes import TensorShape


class Layer:
    """Base layer interface."""

    name: str = "layer"

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Float forward pass."""
        raise NotImplementedError

    def forward_mod(self, x: np.ndarray, modulus: int) -> np.ndarray:
        """Exact forward pass over Z_modulus (protocol reference)."""
        raise NotImplementedError


def _as_chw(x: np.ndarray) -> np.ndarray:
    if x.ndim != 3:
        raise ValueError(f"expected (C,H,W) input, got shape {x.shape}")
    return x


class Conv2d(Layer):
    """2-D convolution with 'same' padding at stride 1, or strided downsample."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        weights: np.ndarray | None = None,
        name: str = "conv",
    ):
        if kernel % 2 == 0:
            raise ValueError("only odd kernels are supported ('same' padding)")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = kernel // 2
        self.name = name
        if weights is None:
            weights = np.zeros((out_channels, in_channels, kernel, kernel))
        if weights.shape != (out_channels, in_channels, kernel, kernel):
            raise ValueError("weight shape mismatch")
        self.weights = weights

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        if in_shape.channels != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} channels, got {in_shape}"
            )
        return TensorShape(
            self.out_channels,
            -(-in_shape.height // self.stride),
            -(-in_shape.width // self.stride),
        )

    def _conv(self, x: np.ndarray, accumulate_dtype) -> np.ndarray:
        x = _as_chw(x)
        c, h, w = x.shape
        k, pad, stride = self.kernel, self.padding, self.stride
        out_h, out_w = -(-h // stride), -(-w // stride)
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=accumulate_dtype)
        padded[:, pad : pad + h, pad : pad + w] = x
        out = np.zeros((self.out_channels, out_h, out_w), dtype=accumulate_dtype)
        weights = self.weights.astype(accumulate_dtype)
        for ky in range(k):
            for kx in range(k):
                window = padded[:, ky : ky + h : stride, kx : kx + w : stride]
                # (C_out, C_in) x (C_in, out_h*out_w)
                contrib = weights[:, :, ky, kx] @ window.reshape(c, -1)
                out += contrib.reshape(self.out_channels, out_h, out_w)
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._conv(x, np.float64)

    def forward_mod(self, x: np.ndarray, modulus: int) -> np.ndarray:
        return self._conv(x.astype(object), object) % modulus


class Linear(Layer):
    """Fully connected layer on flattened activations."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weights: np.ndarray | None = None,
        name: str = "fc",
    ):
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        if weights is None:
            weights = np.zeros((out_features, in_features))
        if weights.shape != (out_features, in_features):
            raise ValueError("weight shape mismatch")
        self.weights = weights

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        if in_shape.elements != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} inputs, got {in_shape}"
            )
        return TensorShape(self.out_features)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.weights @ x.reshape(-1)

    def forward_mod(self, x: np.ndarray, modulus: int) -> np.ndarray:
        flat = x.reshape(-1).astype(object)
        return (self.weights.astype(object) @ flat) % modulus


class ReLU(Layer):
    """ReLU; in field mode, values in [ceil(p/2), p) are negative."""

    def __init__(self, name: str = "relu"):
        self.name = name

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        return in_shape

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0)

    def forward_mod(self, x: np.ndarray, modulus: int) -> np.ndarray:
        threshold = (modulus + 1) // 2
        flat = x.reshape(-1)
        out = np.array(
            [v if v < threshold else 0 for v in flat.tolist()], dtype=object
        )
        return out.reshape(x.shape)


class AvgPool2d(Layer):
    """Average pooling (sum pooling over Z_p, see module docstring)."""

    def __init__(self, kernel: int = 2, name: str = "avgpool"):
        self.kernel = kernel
        self.name = name

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        if in_shape.height % self.kernel or in_shape.width % self.kernel:
            raise ValueError(
                f"{self.name}: {in_shape} not divisible by kernel {self.kernel}"
            )
        return TensorShape(
            in_shape.channels,
            in_shape.height // self.kernel,
            in_shape.width // self.kernel,
        )

    def _pool(self, x: np.ndarray) -> np.ndarray:
        c, h, w = _as_chw(x).shape
        k = self.kernel
        return x.reshape(c, h // k, k, w // k, k).sum(axis=(2, 4))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._pool(x) / (self.kernel * self.kernel)

    def forward_mod(self, x: np.ndarray, modulus: int) -> np.ndarray:
        return self._pool(x.astype(object)) % modulus


class GlobalAvgPool(Layer):
    """Global spatial pooling down to (C,) — sum semantics over Z_p."""

    def __init__(self, name: str = "gap"):
        self.name = name

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        return TensorShape(in_shape.channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return _as_chw(x).mean(axis=(1, 2))

    def forward_mod(self, x: np.ndarray, modulus: int) -> np.ndarray:
        return _as_chw(x).astype(object).sum(axis=(1, 2)) % modulus


class Flatten(Layer):
    def __init__(self, name: str = "flatten"):
        self.name = name

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        return TensorShape(in_shape.elements)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(-1)

    def forward_mod(self, x: np.ndarray, modulus: int) -> np.ndarray:
        return x.reshape(-1)


class Residual(Layer):
    """A residual block: out = ReLU-free body(x) + shortcut(x).

    The body is a sub-network; the shortcut is identity (zero-padded across
    channels / strided spatially when shapes change, i.e. the paper's
    downsample-free 'option A' shortcut without projection convolutions).
    """

    def __init__(self, body: list[Layer], name: str = "residual"):
        self.body = body
        self.name = name

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        shape = in_shape
        for layer in self.body:
            shape = layer.output_shape(shape)
        return shape

    def _shortcut(self, x: np.ndarray, out_shape: tuple[int, int, int]) -> np.ndarray:
        c_out, h_out, w_out = out_shape
        c_in, h_in, w_in = x.shape
        stride_h = h_in // h_out if h_out else 1
        stride_w = w_in // w_out if w_out else 1
        strided = x[:, ::stride_h, ::stride_w]
        if c_out == c_in:
            return strided
        padded = np.zeros(out_shape, dtype=x.dtype)
        padded[:c_in] = strided
        return padded

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.body:
            out = layer.forward(out)
        return out + self._shortcut(x, out.shape)

    def forward_mod(self, x: np.ndarray, modulus: int) -> np.ndarray:
        out = x
        for layer in self.body:
            out = layer.forward_mod(out, modulus)
        return (out + self._shortcut(x, out.shape)) % modulus
