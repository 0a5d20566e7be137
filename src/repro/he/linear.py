"""Homomorphic linear-layer evaluation (Gazelle-style packed kernels).

The hybrid protocol's offline phase asks the server to compute ``W @ r`` on
an encrypted random vector ``r``. We implement the Halevi-Shoup diagonal
method for packed matrix-vector products — in Gazelle's output-rotation
(Horner) order, see :meth:`HomomorphicLinearEvaluator.matvec` — and
evaluate convolutions by
lowering them to a matrix-vector product over the flattened input (the
im2col/Toeplitz matrix). Gazelle's rotation-optimized convolution kernels
differ only in *cost*, never in the computed function; their operation
counts are modeled separately in :mod:`repro.he.costmodel`.

The product is not summed to one slot per output. Its client decrypts
``W r - s`` anyway, so the server stops after ``w`` Horner steps and
leaves each output spread over ``n_in / w`` slots of partial sums,
masked with shares of ``s``; the client adds them up in the clear —
GALA's rotate-and-sum in the share domain (Zhang, Xin and Wu, NDSS
2021). :class:`SlotLayout` is where everything lands; ``w`` is the
fewest steps that fit every output in the two batching rows, so a layer
whose ``n_out * n_in`` fits ``n`` slots rotates nothing and needs no
Galois key. Such layers move no slot, so :func:`pack_layers` lays them
side by side in one ciphertext (:class:`SlotGroup`, Gazelle's packing):
one ``Enc(r)`` up and one ``Enc(W r - s)`` down for all of them.

A server's weights are the same for every request, so the plaintext side
of a matvec — gathering the diagonals, encoding them, lifting them into
the ciphertext ring and transforming them — is done once per process:
:data:`_PLAIN_CACHE` keeps the evaluation-domain plaintexts of every
diagonal block, keyed by a digest of the matrix content and the ring
they live in (see :meth:`HomomorphicLinearEvaluator.matvec`).
"""

from __future__ import annotations

import functools
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.he.bfv import BfvContext, Ciphertext, GaloisKeys
from repro.he.encoder import BatchEncoder
from repro.he.polynomial import EvalPair

# Bytes of cached plaintext stacks per process: a delphi_params 16-8-3
# MLP keeps ~1.2 MB, a fast_params(256) 16-128-3 one ~0.3 MB.
_PLAIN_CACHE_BUDGET = 32 << 20


class _PlainEvalCache:
    """LRU of evaluation-domain plaintext stacks, bounded in bytes.

    The get → ``move_to_end`` / insert → evict sequence is compound and the
    gateway's refill and selector threads both run matvecs, so it sits
    behind a lock like the NTT-context LRU; encoding happens outside it
    (two threads missing on one block both encode it, identically, and
    the second insert is a no-op). An entry larger than the whole budget
    is not kept. Entries are pure functions of their keys, so a forked
    child may use what it inherits; pool workers drop it anyway through
    :func:`repro.runtime.reset_process_state`.
    """

    def __init__(self):
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, stack, nbytes: int) -> None:
        with self._lock:
            if key in self._entries or nbytes > _PLAIN_CACHE_BUDGET:
                return
            self._entries[key] = (stack, nbytes)
            self._bytes += nbytes
            while self._bytes > _PLAIN_CACHE_BUDGET:
                _, (_, freed) = self._entries.popitem(last=False)
                self._bytes -= freed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def size(self) -> tuple[int, int]:
        """(entries, bytes)."""
        with self._lock:
            return len(self._entries), self._bytes


_PLAIN_CACHE = _PlainEvalCache()


def clear_plain_cache() -> None:
    """Drop every cached plaintext stack (tests, parameter sweeps, forks)."""
    _PLAIN_CACHE.clear()


def plain_cache_size() -> tuple[int, int]:
    """(entries, bytes) of the plaintext cache, for tests and probes."""
    return _PLAIN_CACHE.size()


def _matrix_digest(matrix) -> bytes:
    """Content digest of a weight matrix: dtype, shape and bytes of an
    array, the entries' integers of a list of rows."""
    h = hashlib.blake2b(digest_size=16)
    if isinstance(matrix, np.ndarray) and matrix.dtype != object:
        h.update(f"{matrix.dtype.str}{matrix.shape}".encode())
        h.update(matrix.tobytes())
    else:
        h.update(repr([[int(v) for v in row] for row in matrix]).encode())
    return h.digest()


def _frozen(stack, bound: int):
    """A read-only chain stack of values below ``bound``, and its bytes:
    on numpy the narrowest unsigned lane that holds them (``uint32`` for
    the lazy output of every chain prime below 2^31), on the python
    backend tuples (counted at a word per coefficient)."""
    if isinstance(stack, np.ndarray):
        lane = np.uint32 if bound <= 1 << 32 else np.uint64
        stack = stack.astype(lane, copy=False)
        stack.flags.writeable = False
        return stack, stack.nbytes
    stack = tuple(tuple(tuple(row) for row in rows) for rows in stack)
    return stack, 8 * sum(len(row) for rows in stack for row in rows)


class SlotLayout:
    """Where a ``(n_out, n_in)`` product's partial sums sit in the ``n``
    slots of one ciphertext, from the public shape alone.

    ``steps`` (``w``) is the smallest power of two dividing ``n_in`` with
    ``2 * row_size * w >= n_out * n_in``; it is ``n_in`` only when
    ``n_out > row_size``. Slot ``j`` sits in row ``j // row_size`` at
    ``u = j % row_size``, in block ``q = u // n_in`` at offset
    ``o = u % n_in``; it holds output
    ``(row * row_size / n_in + q) * w + o % w`` (:attr:`outputs`) summed
    over the ``w`` columns ``o … o + w - 1 (mod n_in)``: every output
    gets ``n_in / w`` slots (:attr:`groups`) that together cover each
    of its columns once. Outputs ``>= n_out`` mark unused slots.

    A product that takes one step rotates nothing, and slot ``j`` holds
    the single term ``(j // n_in, j % n_in)``: its used slots are the
    prefix ``[0, n_out * n_in)``. Such a layout may sit at a slot
    ``offset``, every slot index shifted by it, so that several share
    one ciphertext (:func:`pack_layers`); :attr:`span` is the slots a
    product reads and writes — all of them when it rotates.
    """

    def __init__(self, n_out: int, n_in: int, row_size: int, offset: int = 0):
        if row_size % n_in != 0:
            raise ValueError(f"matrix width {n_in} must divide row size {row_size}")
        if n_out > 2 * row_size:
            raise ValueError(
                f"matrix height {n_out} exceeds the {2 * row_size} slots of two rows"
            )
        self.n_out, self.n_in, self.row_size = n_out, n_in, row_size
        w = 1
        while w < n_in and 2 * row_size * w < n_out * n_in:
            w *= 2
        self.steps = w
        if offset and (w > 1 or not 0 < offset <= 2 * row_size - n_out * n_in):
            raise ValueError(
                f"a {n_out}x{n_in} product in {w} steps cannot sit at slot {offset}"
            )
        self.offset = offset
        self.span = (offset, offset + n_out * n_in) if w == 1 else (0, 2 * row_size)
        slots = np.arange(2 * row_size) - offset
        u = slots % row_size
        self.outputs = (
            (slots // row_size * (row_size // n_in) + u // n_in) * w + u % n_in % w
        )
        self.outputs[slots < 0] = n_out  # before the offset: unused
        used = np.flatnonzero(self.outputs < n_out)
        self.groups = used[np.argsort(self.outputs[used], kind="stable")].reshape(
            n_out, n_in // w
        )
        # Shared by every product of this shape (:func:`slot_layout`).
        self.outputs.flags.writeable = self.groups.flags.writeable = False

    def _check_slots(self, name: str, values) -> None:
        if len(values) != 2 * self.row_size:
            raise ValueError(
                f"{name} has {len(values)} slots, the layout {2 * self.row_size}"
            )

    def _lane(self, modulus: int):
        """The dtype an output's slots, values below ``modulus``, add up
        in: int64 when no sum can overflow it, else Python ints."""
        return np.int64 if self.groups.shape[1] * modulus < 1 << 63 else object

    def reduce(self, slots, modulus: int) -> list[int]:
        """Per output, the sum of its slots (values below ``modulus``)
        mod ``modulus``."""
        self._check_slots("slot vector", slots)
        slots = np.asarray(slots, dtype=self._lane(modulus))
        return (slots[self.groups].sum(axis=1) % modulus).tolist()

    def masks(self, s, uniform, modulus: int) -> np.ndarray:
        """``uniform`` (one draw below ``modulus`` per slot) with each
        output's first slot replaced so the output's slots :meth:`reduce`
        to its ``s``: every slot is uniform, and only the sums are fixed."""
        if len(s) != self.n_out:
            raise ValueError(f"{len(s)} shares for {self.n_out} outputs")
        self._check_slots("mask draw", uniform)
        masks = np.array(uniform, dtype=self._lane(modulus))
        rest = masks[self.groups[:, 1:]].sum(axis=1)
        masks[self.groups[:, 0]] = (np.asarray(s, dtype=masks.dtype) - rest) % modulus
        return masks


@functools.lru_cache(maxsize=256)
def slot_layout(n_out: int, n_in: int, row_size: int, offset: int = 0) -> SlotLayout:
    """The (shared, immutable) :class:`SlotLayout` of one shape and offset."""
    return SlotLayout(n_out, n_in, row_size, offset)


@dataclass(frozen=True)
class SlotGroup:
    """Products that share one ciphertext: ``layers`` (indices into the
    shapes :func:`pack_layers` was given) and their layouts, whose
    :attr:`SlotLayout.span` are disjoint. A group that rotates has one
    member: its Horner steps move every slot."""

    layers: tuple[int, ...]
    layouts: tuple[SlotLayout, ...]

    @property
    def steps(self) -> int:
        return max(layout.steps for layout in self.layouts)

    def vector(self, inputs) -> np.ndarray:
        """The slots the client encrypts, one input per member: each
        replicated over its member's span (both rows, for a product that
        rotates), zero in slots no member uses. An ``int64`` array, or
        Python ints where a value does not fit one."""
        try:
            rows = [np.asarray(x, dtype=np.int64) for x in inputs]
        except OverflowError:
            rows = [np.asarray(x, dtype=object) for x in inputs]
        slots = np.zeros(2 * self.layouts[0].row_size, dtype=rows[0].dtype)
        for layout, x in zip(self.layouts, rows, strict=True):
            if len(x) != layout.n_in:
                raise ValueError(f"input of {len(x)} for a width-{layout.n_in} product")
            start, stop = layout.span
            slots[start:stop] = np.resize(x, stop - start)
        return slots

    def reduce(self, slots, modulus: int) -> list[list[int]]:
        """Per member, its outputs (:meth:`SlotLayout.reduce`)."""
        return [layout.reduce(slots, modulus) for layout in self.layouts]

    def masks(self, shares, uniform, modulus: int) -> np.ndarray:
        """One ``uniform`` draw for the whole ciphertext, each member's
        outputs fixed to its share (:meth:`SlotLayout.masks`). Slots no
        member uses keep their draw."""
        masks = uniform
        for layout, s in zip(self.layouts, shares, strict=True):
            masks = layout.masks(s, masks, modulus)
        return masks


@functools.lru_cache(maxsize=64)
def pack_layers(
    shapes: tuple[tuple[int, int], ...], row_size: int
) -> tuple[SlotGroup, ...]:
    """Which ciphertext each ``(n_out, n_in)`` product rides in.

    First fit in the given order: a product goes at the end of the first
    group with room for its ``n_out * n_in`` slots, else opens a group.
    A product that rotates spans every slot (:attr:`SlotLayout.span`:
    its Horner steps move them all), so it fits in no group and leaves
    no room in its own. Groups come in the order they open. Both parties
    and the byte prediction read this one plan, from the public shapes
    alone; a shape no layout fits raises ``ValueError`` naming its index.
    """
    groups: list[tuple[list[int], list[SlotLayout]]] = []
    for index, (n_out, n_in) in enumerate(shapes):
        try:
            layout = slot_layout(n_out, n_in, row_size)
        except ValueError as exc:
            raise ValueError(f"layer {index}: {exc}") from None
        for indices, layouts in groups:
            end = layouts[-1].span[1]
            if end + n_out * n_in <= 2 * row_size:
                layouts.append(slot_layout(n_out, n_in, row_size, end))
                indices.append(index)
                break
        else:
            groups.append(([index], [layout]))
    return tuple(
        SlotGroup(tuple(indices), tuple(layouts)) for indices, layouts in groups
    )


class HomomorphicLinearEvaluator:
    """Server-side evaluator for encrypted matrix-vector products.

    ``galois_keys`` may be None when every product it is asked for fits
    its slots without rotating (:attr:`SlotLayout.steps` of 1); one that
    rotates then fails as a missing key does (``KeyError``).
    """

    def __init__(
        self, ctx: BfvContext, encoder: BatchEncoder, galois_keys: GaloisKeys | None
    ):
        self._ctx = ctx
        self._encoder = encoder
        self._galois_keys = (
            GaloisKeys(ctx.params, {}) if galois_keys is None else galois_keys
        )
        self.rotations_performed = 0
        self.plain_mults_performed = 0

    def _diagonals(self, products, start: int, stop: int):
        """Diagonals start..stop-1 over both batching rows, each
        pre-rotated right by its own index within its row: entry j of
        diagonal d is the weight that slot ``j - d`` of the same row
        (cyclic in it) takes at Horner step d — ``matrix[i][(j - offset)
        % n_in]``, ``i`` that slot's output (:attr:`SlotLayout.outputs`)
        in the ``(layout, matrix)`` product that uses it, or 0 where no
        product does. Rotating it left by d lines it up with the slot.
        The products of a packed group take one step each, so their one
        diagonal is their weights side by side.

        One fancy-index per product when every matrix is an ndarray (see
        :meth:`_gatherable`); the list path keeps the reference loop.
        """
        t = self._encoder.params.t
        row_size = self._encoder.row_size
        if all(isinstance(matrix, np.ndarray) for _, matrix in products):
            slots = np.arange(2 * row_size)
            sources = (slots - np.arange(start, stop)[:, None]) % row_size + (
                slots // row_size * row_size
            )
            out = np.zeros(sources.shape, dtype=np.uint64)
            for layout, matrix in products:
                rows = layout.outputs[sources]
                values = matrix[
                    np.minimum(rows, layout.n_out - 1),
                    (slots - layout.offset) % layout.n_in,
                ]
                out = np.where(rows < layout.n_out, values % np.uint64(t), out)
            return out
        out = [[0] * (2 * row_size) for _ in range(start, stop)]
        for layout, matrix in products:
            outputs, n_in = layout.outputs.tolist(), layout.n_in
            for row, d in zip(out, range(start, stop)):
                for j in range(2 * row_size):
                    i = outputs[(j - d) % row_size + j // row_size * row_size]
                    if i < layout.n_out:
                        row[j] = matrix[i][(j - layout.offset) % n_in] % t
        return out

    def _gatherable(self, matrix):
        """The matrix as a ``uint64`` array whenever plaintexts live on a
        vectorized backend. ``asmatrix`` keeps lists from t = 2^32 up —
        its products would overflow a lane — but gathering a diagonal
        multiplies nothing, so that choice need not cost a Python loop
        per diagonal here. Entries a lane cannot hold stay a list."""
        if isinstance(matrix, np.ndarray) or self._encoder.backend.name == "python":
            return matrix
        try:
            return np.asarray(matrix, dtype=np.uint64)
        except OverflowError:  # negative or >= 2^64: the list path reduces
            return matrix

    def matvec(
        self, ct_x: Ciphertext, *matrices, group: SlotGroup | None = None
    ) -> Ciphertext:
        """Homomorphically compute the partial sums of ``matrix @ x`` in
        the :class:`SlotLayout` of the matrix's shape — or, given a
        packed ``group``, of each member's matrix (one per member, in
        order) on its own input, each in its layout at its offset.

        ``ct_x`` must encrypt x replicated to fill both batching rows
        (see :meth:`pack_vector`), or the group's
        :meth:`SlotGroup.vector`; the matrix width must divide the row
        size and its height fit two rows. A matrix is a 2D field matrix
        — list of rows or ndarray. Decrypted, slot j holds its output's
        sum over the layout's ``w = steps`` columns; the layout's
        ``reduce`` turns the slots into ``matrix @ x``. A group's members
        take one step each, so the product is one plaintext
        multiplication by their weights side by side.

        Computes ``sum_d rotate^d(P_d * ct_x)`` over d < w in Horner
        form, ``acc = P_{w-1} * x; acc = rotate(acc) + P_d * x`` for d =
        w-2 … 0, with ``P_d`` the d-th diagonal pre-rotated right by d
        (:meth:`_diagonals`) — the ciphertext the public ``rotate`` /
        ``mul_plain`` / ``+`` ops build in that order, residue for
        residue: ``w - 1`` rotations and ``w`` plaintext products, and
        neither a rotation nor a key when ``w`` is 1. Rotating the
        *accumulator* instead of the input means every key-switch error
        is added after the weights have been multiplied in, never scaled
        by them, which is what lets the parameter sets key-switch on
        few, wide digits. The working pair never leaves the evaluation
        domain (:class:`repro.he.polynomial.EvalPair`): the input is
        transformed once, every step is a permutation plus one inner
        product per component, and the sum is transformed back once.

        Diagonals are taken a bounded block at a time, each block's
        evaluation-domain plaintexts from the process-wide cache or, on
        a miss, gathered, encoded, range-checked, lifted, transformed and
        inserted (:meth:`_plain_block`). The key is every product's
        matrix content and offset and the ring the plaintexts live in, so
        a model's weights are encoded once per process however many
        protocols lower them.
        """
        ctx, encoder = self._ctx, self._encoder
        p = ctx.params
        if group is None:
            (matrix,) = matrices
            group = SlotGroup(
                (0,), (slot_layout(len(matrix), len(matrix[0]), encoder.row_size),)
            )
        products = []
        for layout, matrix in zip(group.layouts, matrices, strict=True):
            if (len(matrix), len(matrix[0])) != (layout.n_out, layout.n_in):
                raise ValueError(
                    f"a {len(matrix)}x{len(matrix[0])} matrix in a "
                    f"{layout.n_out}x{layout.n_in} layout"
                )
            products.append((layout, self._gatherable(matrix)))
        steps = group.steps

        g = encoder.galois_element_for_rotation(1)
        groups = p.digit_groups
        ring = ct_x.c1.ring_ntt()
        # Everything the cached stacks depend on besides the weights and
        # offsets (which with the weights' shapes fix the layouts): the
        # encoding (n, t, the plaintext backend) and the ring (its moduli
        # — q or the chain's primes — and backend).
        content = (
            tuple((_matrix_digest(m), layout.offset) for layout, m in products),
            p.n, p.t, encoder.backend.name, ring.moduli, ring.backend.name,
        )
        x = EvalPair.from_coeff(ct_x.c0, ct_x.c1)
        keyed = (
            x.keyed(ctx.rotation_keys(g, self._galois_keys))
            if steps > 1
            else None
        )
        # About 2^15 coefficients of encoded diagonals at a time, over all
        # residue rings: 2 rows at delphi_params, 128 at fast_params(256).
        block = max(1, (1 << 15) // (p.n * len(ring.moduli)))
        acc: EvalPair | None = None
        for stop in range(steps, 0, -block):
            start = max(stop - block, 0)
            plains = self._plain_block(
                (*content, start, stop), products, start, stop, 2 * max(ring.moduli)
            )
            for k in range(stop - start - 1, -1, -1):
                plain = [rows[k] for rows in plains]
                if acc is None:
                    acc = x.times(plain)
                else:
                    acc = acc.rotated_plus(g, keyed, groups, p.decomp_bits, plain)
                    self.rotations_performed += 1
                self.plain_mults_performed += 1
            # An uncached block's stacks go before the next block allocates.
            del plains
        assert acc is not None
        c0, c1 = acc.to_coeff()
        return Ciphertext(p, c0, c1)

    def _plain_block(self, key, products, start: int, stop: int, bound: int):
        """Per residue ring, the read-only evaluation-domain stack of the
        diagonals start..stop-1 (a row each, lazily reduced: entries
        below ``bound``) — cached, or encoded now and inserted. Every
        plaintext passes ``plain_evals``' range check when it is encoded."""
        plains = _PLAIN_CACHE.get(key)
        if plains is None:
            diagonals = self._diagonals(products, start, stop)
            plains, nbytes = _frozen(
                self._ctx.plain_evals(self._encoder.encode_many(list(diagonals))),
                bound,
            )
            _PLAIN_CACHE.put(key, plains, nbytes)
        return plains

    def pack_vector(self, vector: list[int]) -> list[int]:
        """Replicate a vector periodically across a full batching row.

        With the replicated layout, a cyclic row rotation by d places
        x[(i+d) mod n_in] at slot i, which is exactly what the diagonal
        method consumes.
        """
        row_size = self._encoder.row_size
        n_in = len(vector)
        if row_size % n_in != 0:
            raise ValueError(f"vector length {n_in} must divide row size {row_size}")
        reps = row_size // n_in
        row = list(vector) * reps
        return row + row  # both batching rows

    @staticmethod
    def conv_as_matrix(
        weights: np.ndarray, in_shape: tuple[int, int, int], padding: int, modulus: int
    ) -> list[list[int]]:
        """Lower a (C_out, C_in, k, k) convolution to an explicit matrix.

        The returned matrix maps the flattened (C_in, H, W) input to the
        flattened (C_out, H, W) output, 'same' spatial size with the given
        zero padding (stride 1, as in the paper's downsample-free networks).
        """
        c_out, c_in, k, _ = weights.shape
        channels, height, width = in_shape
        if channels != c_in:
            raise ValueError("input channel mismatch")
        n_in = c_in * height * width
        n_out = c_out * height * width
        matrix = [[0] * n_in for _ in range(n_out)]
        for oc in range(c_out):
            for oy in range(height):
                for ox in range(width):
                    row = (oc * height + oy) * width + ox
                    for ic in range(c_in):
                        for ky in range(k):
                            for kx in range(k):
                                iy = oy + ky - padding
                                ix = ox + kx - padding
                                if 0 <= iy < height and 0 <= ix < width:
                                    col = (ic * height + iy) * width + ix
                                    matrix[row][col] = int(weights[oc, ic, ky, kx]) % modulus
        return matrix
