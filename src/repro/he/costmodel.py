"""Analytic operation counts for Gazelle-style packed HE linear layers.

The simulator needs per-layer HE latencies for real networks (ResNet-18 on
TinyImageNet has layers far too large to execute under pure-Python HE), so
we count the homomorphic operations Gazelle's packed kernels perform and
convert them to time with per-operation costs calibrated against the
paper's measurements (see :mod:`repro.profiling.calibration`).

The counts follow Gazelle's packed convolution (input-rotation variant) and
diagonal matrix-vector product:

* convolution, ``c_n = slots / (H*W)`` channels per ciphertext:
  - input ciphertexts  ``ci = ceil(C_in / c_n)``
  - output ciphertexts ``co = ceil(C_out / c_n)``
  - plaintext mults    ``k^2 * ci * C_out``
  - rotations          ``ci * (k^2 - 1) + co * log2(min(c_n, C_in))``
* fully connected (n_out x n_in):
  - plaintext mults    ``ceil(n_in * n_out / slots)``
  - rotations          ``mults + log2(slots / max(n_out, 1))``

The functional kernel (:meth:`repro.he.linear.HomomorphicLinearEvaluator.matvec`)
runs its diagonal product in Gazelle's *output-rotation* (Horner) order —
the accumulator is rotated, not the input. That changes where key-switch
noise lands and so how wide the key-switching digits may be; it changes
none of the counts here (w - 1 rotations and w plaintext products per
width-w product either way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HeOpCount:
    """Operation counts for one linear layer evaluated under HE."""

    input_ciphertexts: int
    output_ciphertexts: int
    plain_mults: int
    rotations: int
    additions: int

    def __add__(self, other: "HeOpCount") -> "HeOpCount":
        return HeOpCount(
            self.input_ciphertexts + other.input_ciphertexts,
            self.output_ciphertexts + other.output_ciphertexts,
            self.plain_mults + other.plain_mults,
            self.rotations + other.rotations,
            self.additions + other.additions,
        )


def conv_op_count(
    in_height: int,
    in_width: int,
    c_in: int,
    c_out: int,
    kernel: int,
    slots: int,
    stride: int = 1,
) -> HeOpCount:
    """Operation counts for a packed 'same' convolution layer.

    Input ciphertext counts are driven by the *input* resolution and output
    accumulation by the *output* resolution; strided layers therefore do
    roughly ``stride^2`` more multiplication work per output ciphertext,
    which is what makes stage-transition layers the longest-running ones
    (they bound the LPHE makespan, §5.2).
    """

    def packed(pixels: int, channels: int) -> tuple[int, int]:
        """(ciphertext count, channels per ciphertext) for one tensor."""
        if pixels > slots:
            blocks = math.ceil(pixels / slots)
            return blocks * channels, 1
        per_ct = max(1, slots // pixels)
        return math.ceil(channels / per_ct), per_ct

    in_pixels = in_height * in_width
    out_pixels = -(-in_height // stride) * (-(-in_width // stride))
    ci, _ = packed(in_pixels, c_in)
    co, out_per_ct = packed(out_pixels, c_out)
    mults = kernel * kernel * ci * c_out
    accum = co * max(0, math.ceil(math.log2(min(out_per_ct, max(c_in, 1)))))
    rotations = ci * (kernel * kernel - 1) + accum
    return HeOpCount(ci, co, mults, rotations, mults)


def fc_op_count(n_in: int, n_out: int, slots: int) -> HeOpCount:
    """Operation counts for a packed fully connected layer."""
    ci = math.ceil(n_in / slots)
    co = math.ceil(n_out / slots)
    mults = max(1, math.ceil(n_in * n_out / slots))
    rotations = mults + max(0, math.ceil(math.log2(max(1, slots // max(n_out, 1)))))
    return HeOpCount(ci, co, mults, rotations, mults)


@dataclass(frozen=True)
class HeUnitCosts:
    """Seconds per homomorphic operation on a reference server core."""

    plain_mult: float
    rotation: float
    addition: float
    encrypt: float
    decrypt: float

    def layer_seconds(self, ops: HeOpCount) -> float:
        """Server-side time to evaluate one layer with these unit costs."""
        return (
            ops.plain_mults * self.plain_mult
            + ops.rotations * self.rotation
            + ops.additions * self.addition
        )

    def client_seconds(self, ops: HeOpCount) -> float:
        """Client-side encrypt/decrypt time for one layer's ciphertexts."""
        return (
            ops.input_ciphertexts * self.encrypt
            + ops.output_ciphertexts * self.decrypt
        )
