"""The slot layout of a homomorphic matvec, as a pure function of the shape.

:class:`repro.he.linear.SlotLayout` says where each output's partial sums
sit after a ``w``-step Horner product; the server's diagonals, the
client's reduction and the Galois-key rule all read it. These tests hold
it to its definition without any encryption: every (output, column) pair
is summed in exactly one (slot, step), ``w`` is the fewest steps that
fit, the masks sum to the shares, and reducing the plaintext partial
sums gives ``W @ x``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.linear import SlotLayout, slot_layout

T = 65537


@st.composite
def shapes(draw):
    """``(n_out, n_in, row_size)``: row_size 128 or 1024, every power of
    two n_in dividing it, every n_out up to two rows."""
    row_size = draw(st.sampled_from([128, 1024]))
    n_in = 1 << draw(st.integers(0, row_size.bit_length() - 1))
    n_out = draw(st.integers(1, 2 * row_size))
    return n_out, n_in, row_size


def partial_sums(layout, matrix, x):
    """Slot j of the decrypted product: its output's weights times x over
    the ``w`` columns that start at the slot's offset (0 if unused)."""
    outputs = layout.outputs
    slots = np.arange(len(outputs))
    cols = (slots[:, None] + np.arange(layout.steps)) % layout.n_in
    rows = np.minimum(outputs, layout.n_out - 1)[:, None]
    sums = (matrix[rows, cols] * x[cols]).sum(axis=1) % T
    return np.where(outputs < layout.n_out, sums, 0).tolist()


@settings(max_examples=60, deadline=None)
@given(shapes())
def test_every_output_column_pair_is_summed_once(shape):
    n_out, n_in, row_size = shape
    layout = slot_layout(n_out, n_in, row_size)
    w = layout.steps
    assert len(layout.outputs) == 2 * row_size
    covered = np.zeros((n_out, n_in), dtype=np.int64)
    for j, i in enumerate(layout.outputs.tolist()):
        if i < n_out:
            for d in range(w):
                covered[i, (j + d) % n_in] += 1
    assert (covered == 1).all()
    # The groups are exactly each output's slots.
    assert layout.groups.shape == (n_out, n_in // w)
    for i, group in enumerate(layout.groups.tolist()):
        assert set(group) == set(np.flatnonzero(layout.outputs == i).tolist())


@settings(max_examples=60, deadline=None)
@given(shapes())
def test_steps_are_the_fewest_that_fit(shape):
    n_out, n_in, row_size = shape
    w = slot_layout(n_out, n_in, row_size).steps
    assert w & (w - 1) == 0 and n_in % w == 0
    assert 2 * row_size * w >= n_out * n_in
    assert w == 1 or 2 * row_size * (w // 2) < n_out * n_in
    # Full width only when the outputs outnumber one row.
    assert (w == n_in) <= (n_out > row_size or n_in == 1)


@settings(max_examples=40, deadline=None)
@given(shapes(), st.integers(0, 2**32 - 1))
def test_masks_reduce_to_the_share(shape, seed):
    n_out, n_in, row_size = shape
    layout = slot_layout(n_out, n_in, row_size)
    rng = np.random.default_rng(seed)
    s = rng.integers(0, T, size=n_out).tolist()
    uniform = rng.integers(0, T, size=2 * row_size).tolist()
    masks = layout.masks(s, uniform, T)
    assert len(masks) == 2 * row_size
    assert all(0 <= m < T for m in masks)
    assert layout.reduce(masks, T) == s
    # Only each output's first slot is set; the rest keep their draw.
    heads = set(layout.groups[:, 0].tolist())
    assert all(
        m == u for j, (m, u) in enumerate(zip(masks, uniform)) if j not in heads
    )


@settings(max_examples=25, deadline=None)
@given(shapes(), st.integers(0, 2**32 - 1))
def test_reduced_partial_sums_are_the_product(shape, seed):
    n_out, n_in, row_size = shape
    layout = slot_layout(n_out, n_in, row_size)
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, T, size=(n_out, n_in))
    x = rng.integers(0, T, size=n_in)
    want = [sum(int(a) * int(b) for a, b in zip(row, x)) % T for row in matrix]
    assert layout.reduce(partial_sums(layout, matrix, x), T) == want


@pytest.mark.parametrize(
    "shape, steps",
    [
        ((8, 16, 1024), 1),  # delphi 16-8-3, both layers
        ((3, 8, 1024), 1),
        ((8, 16, 128), 1),  # fast 16-8-3
        ((3, 8, 128), 1),
        ((128, 16, 128), 8),  # fast 16-128-3
        ((3, 128, 128), 2),
        ((256, 128, 128), 128),  # two full rows: the full-width Horner sum
    ],
)
def test_benchmark_shapes(shape, steps):
    assert slot_layout(*shape).steps == steps


def test_unpackable_shapes_are_rejected():
    with pytest.raises(ValueError, match="width 3 must divide"):
        SlotLayout(1, 3, 128)
    with pytest.raises(ValueError, match="height 257 exceeds the 256 slots"):
        SlotLayout(257, 2, 128)


def test_layouts_are_shared_and_read_only():
    layout = slot_layout(5, 4, 128)
    assert slot_layout(5, 4, 128) is layout
    with pytest.raises(ValueError):
        layout.outputs[0] = 0
    with pytest.raises(ValueError):
        layout.groups[0, 0] = 0
