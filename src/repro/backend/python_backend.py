"""Pure-Python reference backend: ``list[int]`` vectors, exact for any q.

This is the seed implementation's arithmetic moved behind the backend
interface — every other backend is validated bit-for-bit against it
(``tests/test_backend_parity.py``). It has no modulus ceiling because
Python ints are arbitrary precision, which is why oversized moduli
(q >= 2^62) always land here.
"""

from __future__ import annotations

from typing import Sequence

from repro.backend.base import ComputeBackend, NttPlan
from repro.crypto.modmath import mod_inverse


def _iterative_ntt(values: list[int], root: int, q: int) -> list[int]:
    """In-place iterative Cooley-Tukey NTT; ``root`` is a primitive n-th root."""
    n = len(values)
    a = list(values)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            a[i], a[j] = a[j], a[i]
    length = 2
    while length <= n:
        w_len = pow(root, n // length, q)
        for start in range(0, n, length):
            w = 1
            half = length // 2
            for k in range(start, start + half):
                u = a[k]
                v = a[k + half] * w % q
                a[k] = (u + v) % q
                a[k + half] = (u - v) % q
                w = w * w_len % q
        length <<= 1
    return a


def _powers(base: int, count: int, q: int) -> list[int]:
    powers = [1] * count
    for i in range(1, count):
        powers[i] = powers[i - 1] * base % q
    return powers


class _PythonRingPlan:
    """One residue ring of a chain: the textbook transform mod one q."""

    def __init__(self, n: int, q: int, root: int, psi: int):
        self.q = q
        self.root = root
        self.root_inv = mod_inverse(root, q)
        n_inv = mod_inverse(n, q)
        # Twist by psi^k going in, by psi^-k / n coming out.
        self.twist = _powers(psi, n, q)
        self.untwist = [p * n_inv % q for p in _powers(mod_inverse(psi, q), n, q)]

    def forward(self, vec: list[int]) -> list[int]:
        q = self.q
        vec = [x * w % q for x, w in zip(vec, self.twist)]
        return _iterative_ntt(vec, self.root, q)

    def inverse(self, vec: list[int]) -> list[int]:
        q = self.q
        out = _iterative_ntt(vec, self.root_inv, q)
        return [x * w % q for x, w in zip(out, self.untwist)]


class _PythonNttPlan(NttPlan):
    """The reference semantics of the chain form: a loop over per-ring
    plans, a loop over rows. Outputs are always canonical (``lazy`` is a
    licence, not an obligation)."""

    def __init__(self, n, moduli, roots, twists):
        self.n = n
        self.rings = [
            _PythonRingPlan(n, q, root, psi)
            for q, root, psi in zip(moduli, roots, twists, strict=True)
        ]

    def _each(self, stack, transform):
        stack = [list(rows) for rows in stack]
        if len(stack) != len(self.rings):
            raise ValueError(
                f"expected a stack for each of {len(self.rings)} residue "
                f"rings, got {len(stack)}"
            )
        for rows in stack:
            for row in rows:
                if len(row) != self.n:
                    raise ValueError(
                        f"expected rows of {self.n} values, got {len(row)}"
                    )
        return [
            [transform(ring, row) for row in rows]
            for ring, rows in zip(self.rings, stack)
        ]

    def forward(self, stack, lazy=False):
        return self._each(stack, _PythonRingPlan.forward)

    def inverse(self, stack):
        return self._each(stack, _PythonRingPlan.inverse)


class PythonBackend(ComputeBackend):
    name = "python"

    def supports_modulus(self, q: int) -> bool:
        return True

    # -- vectors -----------------------------------------------------------

    def asvec(self, values: Sequence[int], q: int) -> list[int]:
        return [int(v) % q for v in values]

    def tolist(self, vec: list[int]) -> list[int]:
        return list(vec)

    def veclen(self, vec: list[int]) -> int:
        return len(vec)

    def eq(self, a: list[int], b: list[int]) -> bool:
        return a == b

    def stack(self, vecs):
        return list(vecs)

    # -- elementwise -------------------------------------------------------

    def add(self, a, b, q):
        return [(x + y) % q for x, y in zip(a, b)]

    def sub(self, a, b, q):
        return [(x - y) % q for x, y in zip(a, b)]

    def neg(self, a, q):
        return [-x % q for x in a]

    def mul(self, a, b, q):
        return [x * y % q for x, y in zip(a, b)]

    def mul_rows(self, rows, vec, q):
        return [self.mul(row, vec, q) for row in rows]

    def inner_product(self, a, b, q):
        if len(a) != len(b):
            raise ValueError(
                f"inner product of {len(a)} rows against {len(b)}"
            )
        return [
            sum(x * y for x, y in zip(xs, ys)) % q
            for xs, ys in zip(zip(*a), zip(*b))
        ]

    def scalar_mul(self, a, scalar, q):
        scalar %= q
        return [x * scalar % q for x in a]

    def max_value(self, vec):
        return max(vec)

    # -- structure ---------------------------------------------------------

    def index_array(self, indices):
        return [int(i) for i in indices]

    def permute(self, vec, index):
        return [vec[i] for i in index]

    def automorphism(self, rows, galois_element, moduli):
        return [
            self._automorphism(vec, galois_element, q)
            for vec, q in zip(rows, moduli, strict=True)
        ]

    @staticmethod
    def _automorphism(vec, galois_element, q):
        n = len(vec)
        two_n = 2 * n
        out = [0] * n
        for i, c in enumerate(vec):
            if not c:
                continue
            j = i * galois_element % two_n
            if j < n:
                out[j] = (out[j] + c) % q
            else:
                out[j - n] = (out[j - n] - c) % q
        return out

    def decompose(self, vec, base_bits, num_digits, q):
        mask = (1 << base_bits) - 1
        digits = []
        coeffs = list(vec)
        for _ in range(num_digits):
            digits.append([c & mask for c in coeffs])
            coeffs = [c >> base_bits for c in coeffs]
        return digits

    def crt_lift(self, residues, primes):
        x, product = residues[0], primes[0]
        for r, p in zip(residues[1:], primes[1:]):
            inv = mod_inverse(product % p, p)
            x = [a + product * ((b - a) * inv % p) for a, b in zip(x, r)]
            product *= p
        return x

    # -- wire codec ---------------------------------------------------------

    def pack_le(self, limbs, limb_bytes, width):
        shift = 8 * limb_bytes
        return b"".join(
            sum(d << (shift * j) for j, d in enumerate(row)).to_bytes(
                width, "little"
            )
            for row in zip(*limbs)
        )

    def unpack_le(self, data, width, moduli):
        values = [
            int.from_bytes(data[i : i + width], "little")
            for i in range(0, len(data), width)
        ]
        return [[v % q for v in values] for q in moduli]

    # -- transforms --------------------------------------------------------

    def make_ntt_plan(self, n, moduli, roots, twists):
        return _PythonNttPlan(n, moduli, roots, twists)

    # -- linear algebra ----------------------------------------------------

    def asmatrix(self, rows, q):
        return [[int(w) % q for w in row] for row in rows]

    def matvec_mod(self, matrix, vec, q):
        rows = matrix
        if hasattr(matrix, "tolist") and not isinstance(matrix, list):
            rows = matrix.tolist()  # ndarray handed across a backend switch
        v = [int(x) for x in vec]
        return [sum(w * x for w, x in zip(row, v)) % q for row in rows]
