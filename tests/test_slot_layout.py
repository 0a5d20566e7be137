"""The slot layout of a homomorphic matvec, as a pure function of the shape.

:class:`repro.he.linear.SlotLayout` says where each output's partial sums
sit after a ``w``-step Horner product; the server's diagonals, the
client's reduction and the Galois-key rule all read it. These tests hold
it to its definition without any encryption: every (output, column) pair
is summed in exactly one (slot, step), ``w`` is the fewest steps that
fit, the masks sum to the shares, and reducing the plaintext partial
sums gives ``W @ x``. :func:`repro.he.linear.pack_layers` lays the
products that take one step side by side in one ciphertext: its plan is
held to first fit, disjoint in-range spans, lone rotating products and
determinism, and a packed group's vector, masks and reduction to the
members' products.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.linear import SlotGroup, SlotLayout, pack_layers, slot_layout

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
    the ``w`` columns that start at the slot's offset within its block
    (0 if unused)."""
    outputs = layout.outputs
    slots = np.arange(len(outputs))
    cols = (slots[:, None] - layout.offset + np.arange(layout.steps)) % layout.n_in
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


def test_a_short_share_or_draw_is_rejected():
    """A share per output and a draw per slot, or a ``ValueError``: a
    short ``s`` used to leave the missing outputs' slots as bare draws."""
    layout = slot_layout(8, 16, 128)
    uniform = list(range(256))
    with pytest.raises(ValueError, match="3 shares for 8 outputs"):
        layout.masks([5, 6, 7], uniform, T)
    with pytest.raises(ValueError, match="9 shares for 8 outputs"):
        layout.masks(list(range(9)), uniform, T)
    with pytest.raises(ValueError, match="mask draw has 255 slots, the layout 256"):
        layout.masks(list(range(8)), uniform[:-1], T)
    assert layout.reduce(layout.masks(list(range(8)), uniform, T), T) == list(range(8))


def _loop_reduce(layout, slots, modulus):
    """The reference: a Python sum per output."""
    return [
        sum(int(slots[j]) for j in group) % modulus
        for group in layout.groups.tolist()
    ]


def _loop_masks(layout, s, uniform, modulus):
    """The reference: each output's head slot set by a Python loop."""
    masks = [int(v) for v in uniform]
    for share, (head, *rest) in zip(s, layout.groups.tolist()):
        masks[head] = (share - sum(masks[j] for j in rest)) % modulus
    return masks


@settings(max_examples=40, deadline=None)
@given(
    shapes(),
    st.sampled_from([T, 2061584302081, (1 << 61) - 1, (1 << 89) - 1]),
    st.integers(0, 2**32 - 1),
)
def test_numpy_passes_equal_the_loops(shape, modulus, seed):
    """Int64 lanes at the share primes, Python ints where a sum could
    overflow one (the 61- and 89-bit moduli): the same values as the
    per-slot loops."""
    n_out, n_in, row_size = shape
    layout = slot_layout(n_out, n_in, row_size)
    rng = random.Random(seed)
    s = [rng.randrange(modulus) for _ in range(n_out)]
    uniform = [rng.randrange(modulus) for _ in range(2 * row_size)]
    uniform[:2] = [0, modulus - 1]
    masks = layout.masks(s, uniform, modulus)
    assert [int(m) for m in masks] == _loop_masks(layout, s, uniform, modulus)
    assert layout.reduce(masks, modulus) == _loop_reduce(layout, masks, modulus) == s
    assert layout.reduce(uniform, modulus) == _loop_reduce(layout, uniform, modulus)


def test_a_short_slot_vector_is_rejected():
    layout = slot_layout(8, 16, 128)
    with pytest.raises(ValueError, match="slot vector has 128 slots, the layout 256"):
        layout.reduce([0] * 128, T)
    with pytest.raises(ValueError, match="slot vector has 257 slots"):
        layout.reduce([0] * 257, T)


def test_only_a_one_step_layout_takes_an_offset():
    assert slot_layout(8, 16, 128, 100).span == (100, 228)
    assert slot_layout(128, 16, 128).span == (0, 256)  # eight steps: all slots
    with pytest.raises(ValueError, match="in 8 steps cannot sit at slot 16"):
        SlotLayout(128, 16, 128, 16)
    with pytest.raises(ValueError, match="cannot sit at slot 129"):
        SlotLayout(8, 16, 128, 129)  # 129 + 128 > 256
    with pytest.raises(ValueError, match="cannot sit at slot -1"):
        SlotLayout(8, 16, 128, -1)


@settings(max_examples=40, deadline=None)
@given(shapes(), st.data())
def test_an_offset_layout_is_the_prefix_shifted(shape, data):
    n_out, n_in, row_size = shape
    base = slot_layout(n_out, n_in, row_size)
    if base.steps > 1:
        return
    offset = data.draw(st.integers(0, 2 * row_size - n_out * n_in))
    layout = slot_layout(n_out, n_in, row_size, offset)
    assert (layout.groups == base.groups + offset).all()
    used = np.flatnonzero(layout.outputs < n_out)
    assert used.tolist() == list(range(*layout.span))
    rng = np.random.default_rng(offset)
    matrix = rng.integers(0, T, size=(n_out, n_in))
    x = rng.integers(0, T, size=n_in)
    want = [sum(int(a) * int(b) for a, b in zip(row, x)) % T for row in matrix]
    assert layout.reduce(partial_sums(layout, matrix, x), T) == want


@st.composite
def plans(draw):
    """``(shapes, row_size)``: up to six products of any packable shape."""
    row_size = draw(st.sampled_from([32, 128, 1024]))
    shape = st.tuples(
        st.integers(1, 2 * row_size),
        st.integers(0, row_size.bit_length() - 1).map(lambda b: 1 << b),
    )
    return tuple(draw(st.lists(shape, min_size=1, max_size=6))), row_size


def first_fit_count(shapes, row_size):
    """Ciphertexts first fit opens: one per rotating product, and bins of
    ``2 * row_size`` slots for the rest, each item into the first bin
    with room."""
    bins, rotating = [], 0
    for n_out, n_in in shapes:
        if slot_layout(n_out, n_in, row_size).steps > 1:
            rotating += 1
            continue
        size = n_out * n_in
        for k, used in enumerate(bins):
            if used + size <= 2 * row_size:
                bins[k] += size
                break
        else:
            bins.append(size)
    return rotating + len(bins)


@settings(max_examples=80, deadline=None)
@given(plans())
def test_the_plan_is_first_fit_over_disjoint_spans(case):
    shapes, row_size = case
    plan = pack_layers(shapes, row_size)
    members = [i for group in plan for i in group.layers]
    assert sorted(members) == list(range(len(shapes)))  # each exactly once
    assert len(plan) == first_fit_count(shapes, row_size)
    for group in plan:
        assert len(group.layers) == len(group.layouts)
        covered = np.zeros(2 * row_size, dtype=int)
        for i, layout in zip(group.layers, group.layouts):
            assert (layout.n_out, layout.n_in, layout.row_size) == (*shapes[i], row_size)
            start, stop = layout.span
            assert 0 <= start < stop <= 2 * row_size
            covered[start:stop] += 1
        assert (covered <= 1).all()
        if group.steps > 1:
            assert len(group.layers) == 1
        # Members keep their lowered order, packed end to end.
        assert list(group.layers) == sorted(group.layers)
        assert group.layouts[0].offset == 0
    # Groups open in the order of their first member.
    assert [group.layers[0] for group in plan] == sorted(g.layers[0] for g in plan)
    # Deterministic from the shapes: a recomputed plan lays out the same.
    pack_layers.cache_clear()
    slot_layout.cache_clear()
    again = pack_layers(shapes, row_size)
    assert again is not plan
    assert [
        (g.layers, [(l.n_out, l.n_in, l.offset) for l in g.layouts]) for g in again
    ] == [(g.layers, [(l.n_out, l.n_in, l.offset) for l in g.layouts]) for g in plan]


@settings(max_examples=30, deadline=None)
@given(plans(), st.integers(0, 2**32 - 1))
def test_a_group_reduces_to_each_members_product_and_share(case, seed):
    shapes, row_size = case
    rng = np.random.default_rng(seed)
    for group in pack_layers(shapes, row_size):
        matrices = [rng.integers(0, T, size=shapes[i]) for i in group.layers]
        inputs = [rng.integers(0, T, size=shapes[i][1]) for i in group.layers]
        vector = group.vector(inputs)
        slots = [0] * (2 * row_size)
        for layout, matrix, x in zip(group.layouts, matrices, inputs):
            start, stop = layout.span
            # The member's input, replicated over its span.
            assert vector[start:stop].tolist() == np.resize(x, stop - start).tolist()
            for j, v in enumerate(partial_sums(layout, matrix, x)):
                slots[j] += v
        # Slots no member uses encrypt zero.
        used = {j for layout in group.layouts for j in range(*layout.span)}
        assert all(v == 0 for j, v in enumerate(vector) if j not in used)
        assert group.reduce(slots, T) == [
            [sum(int(a) * int(b) for a, b in zip(row, x)) % T for row in matrix]
            for matrix, x in zip(matrices, inputs)
        ]
        shares = [rng.integers(0, T, size=shapes[i][0]).tolist() for i in group.layers]
        uniform = rng.integers(0, T, size=2 * row_size).tolist()
        masks = group.masks(shares, uniform, T)
        assert group.reduce(masks, T) == shares
        heads = {int(j) for layout in group.layouts for j in layout.groups[:, 0]}
        assert all(m == u for j, (m, u) in enumerate(zip(masks, uniform)) if j not in heads)


@pytest.mark.parametrize(
    "shapes, row_size, layers",
    [
        (((8, 16), (3, 8)), 1024, [(0, 1)]),  # delphi 16-8-3: one ciphertext
        (((8, 16), (3, 8)), 128, [(0, 1)]),  # fast 16-8-3: 128 + 24 of 256
        (((128, 16), (3, 128)), 128, [(0,), (1,)]),  # fast 16-128-3: both rotate
        (((8, 16), (16, 8), (3, 16)), 128, [(0, 1), (2,)]),  # 128 + 128, then 48
        (((64, 2), (128, 16), (3, 8)), 128, [(0, 2), (1,)]),  # a rotating middle
    ],
)
def test_benchmark_and_mixed_plans(shapes, row_size, layers):
    plan = pack_layers(shapes, row_size)
    assert [group.layers for group in plan] == layers
    assert all(isinstance(group, SlotGroup) for group in plan)


def test_an_unpackable_layer_is_named_by_index():
    with pytest.raises(ValueError, match="layer 1: matrix width 3 must divide"):
        pack_layers(((8, 16), (4, 3)), 128)


def test_a_group_checks_its_inputs():
    (group,) = pack_layers(((8, 16), (3, 8)), 128)
    with pytest.raises(ValueError, match="input of 15 for a width-16 product"):
        group.vector([[0] * 15, [0] * 8])
    with pytest.raises(ValueError):
        group.vector([[0] * 16])  # one input for two members
    with pytest.raises(ValueError):
        group.masks([[0] * 8], [0] * 256, T)
