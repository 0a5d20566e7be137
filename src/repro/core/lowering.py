"""Lowering a layered network to the field-matrix program the 2PC runs.

Shared by the role-separated sessions (:mod:`repro.core.session`) and
the :class:`~repro.core.protocol.HybridProtocol` façade: one definition of
the alternating linear/ReLU program, its packing plan, and the exact
plaintext evaluation the protocol is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import backend_for
from repro.crypto.modmath import matvec_mod
from repro.he.linear import HomomorphicLinearEvaluator, SlotGroup, pack_layers
from repro.nn.layers import Conv2d, Flatten, Linear, ReLU
from repro.nn.network import Network


@dataclass
class LoweredLinear:
    """A linear layer lowered to an explicit field matrix.

    ``matrix`` is backend-native: a ``uint64`` ndarray under the numpy
    backend (so HE diagonal extraction and the online matvec are
    vectorized gathers/matmuls) or a list of row lists under python — or
    ``None`` in a *shape-only* lowering, the client's view of the
    program: layer widths are public, the weights never materialize.
    """

    name: str
    n_in: int
    n_out: int
    matrix: "np.ndarray | list[list[int]] | None" = None


@dataclass
class LoweredNetwork:
    """Alternating linear/ReLU program extracted from a Network.

    ``steps`` is a list of ("linear", index) / ("relu", index) tags;
    shape-only layers (Flatten) vanish during lowering.
    """

    linears: list[LoweredLinear]
    steps: list[tuple[str, int]]
    modulus: int
    input_size: int
    output_size: int


def lower_network(
    network: Network, modulus: int, backend: str | None = None,
    shape_only: bool = False,
) -> LoweredNetwork:
    """Lower a stride-1 conv/FC/ReLU/Flatten network to field matrices.

    Matrices are stored in the representation native to the compute
    backend resolved for ``modulus`` (see :class:`LoweredLinear`).
    ``shape_only=True`` skips materializing the matrices entirely — the
    client session lowers this way: it needs only the (public) layer
    widths and ReLU placement, never the weights, and skips the
    conv-as-matrix expansion that dominates setup cost.
    """
    be = backend_for(modulus, prefer=backend)
    linears: list[LoweredLinear] = []
    steps: list[tuple[str, int]] = []
    shape = network.input_shape

    def add_linear(layer, matrix_fn) -> None:
        out_shape = layer.output_shape(shape)
        steps.append(("linear", len(linears)))
        linears.append(
            LoweredLinear(
                layer.name,
                n_in=shape.elements,
                n_out=out_shape.elements,
                matrix=None if shape_only else be.asmatrix(matrix_fn(), modulus),
            )
        )

    for layer in network.layers:
        if isinstance(layer, Conv2d):
            if layer.stride != 1:
                raise ValueError("functional runner supports stride-1 convs only")
            in_shape = (shape.channels, shape.height, shape.width)
            add_linear(
                layer,
                lambda layer=layer, in_shape=in_shape: (
                    HomomorphicLinearEvaluator.conv_as_matrix(
                        np.asarray(layer.weights), in_shape, layer.padding, modulus
                    )
                ),
            )
        elif isinstance(layer, Linear):
            add_linear(
                layer,
                lambda layer=layer: [
                    [int(w) % modulus for w in row]
                    for row in np.asarray(layer.weights)
                ],
            )
        elif isinstance(layer, ReLU):
            if not steps or steps[-1][0] != "linear":
                raise ValueError("ReLU must follow a linear layer")
            steps.append(("relu", steps[-1][1]))
        elif isinstance(layer, Flatten):
            pass  # pure reshape; the flattened ordering matches lowering
        else:
            raise ValueError(
                f"functional runner cannot lower layer {type(layer).__name__}"
            )
        shape = layer.output_shape(shape)
    if steps[-1][0] != "linear":
        raise ValueError("network must end with a linear layer")
    return LoweredNetwork(
        linears=linears,
        steps=steps,
        modulus=modulus,
        input_size=network.input_shape.elements,
        output_size=network.output_shape.elements,
    )


def next_linear_index(lowered: LoweredNetwork, relu_pos: int) -> int:
    """The linear layer whose input mask covers the ReLU at ``relu_pos``."""
    for kind, idx in lowered.steps[relu_pos + 1 :]:
        if kind == "linear":
            return idx
    raise ValueError("ReLU with no following linear layer")


def packing_plan(lowered: LoweredNetwork, row_size: int) -> tuple[SlotGroup, ...]:
    """Which ciphertext carries each linear layer's offline product
    (:func:`~repro.he.linear.pack_layers`): one ``Enc(r)`` up and one
    ``Enc(W r - s)`` down per group. Both parties and ``predict_comm``
    read it from the public shapes; a width the HE batching layout
    cannot pack raises ``ValueError``."""
    return pack_layers(
        tuple((lin.n_out, lin.n_in) for lin in lowered.linears), row_size
    )


def needs_galois_key(plan: tuple[SlotGroup, ...]) -> bool:
    """Whether some group's product rotates (takes more than one step).
    Only then is a Galois key made and sent."""
    return any(group.steps > 1 for group in plan)


def plaintext_reference(
    lowered: LoweredNetwork,
    x: list[int],
    truncate_bits: int = 0,
    prefer: str | None = None,
) -> list[int]:
    """Field-exact plaintext evaluation of the lowered program."""
    p = lowered.modulus
    vec = [v % p for v in x]
    threshold = (p + 1) // 2
    for kind, lin_idx in lowered.steps:
        lin = lowered.linears[lin_idx]
        if kind == "linear":
            vec = matvec_mod(lin.matrix, vec, p, prefer=prefer)
        else:
            vec = [(v >> truncate_bits) if v < threshold else 0 for v in vec]
    return vec
