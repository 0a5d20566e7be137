"""The chain-stacked transform kernel against the python reference.

One numpy plan call transforms every residue ring of a chain; these tests
hold it bit-identical to the python backend's loop over per-ring textbook
transforms — across ring degrees (including those smaller than the
transposed block, where the layout degrades to the plain walk), chain
lengths, row counts, directions, output contracts, both arithmetic
regimes and the inputs that sit on their bounds. Also: a row of the wrong
length is a typed error on both backends, never a truncation.
"""

import random

import pytest

from repro.backend import available_backends, get_backend
from repro.crypto.modmath import (
    find_ntt_prime,
    generate_ntt_primes,
    primitive_root_of_unity,
)
from repro.he.ntt import NegacyclicNtt

np = pytest.importorskip("numpy")
NP = get_backend("numpy")
PY = get_backend("python")

# Just below 2^30 (the 32-bit Shoup regime at its bound), in [2^30, 2^31)
# (pointwise products still fit a lane; the transform takes its quotient
# from a float64 product), just below 2^49 (that product's bound), 62 bits
# (the 32-bit-limb quotient).
REGIMES = {"narrow": 30, "edge": 31, "mid": 48, "wide": 62}


def _plans(n, moduli):
    psis = [primitive_root_of_unity(2 * n, q) for q in moduli]
    roots = [psi * psi % q for psi, q in zip(psis, moduli)]
    return (
        NP.make_ntt_plan(n, moduli, roots, psis),
        PY.make_ntt_plan(n, moduli, roots, psis),
    )


def _stacks(n, moduli, rows_per_ring, rng):
    """Chain stacks on the bounds of the contract, then random ones."""
    fills = {
        "zero": lambda q: 0,
        "q-1": lambda q: q - 1,
        "2q-1": lambda q: 2 * q - 1,  # the largest lazy value admitted
        "random": lambda q: rng.randrange(q),
        "random lazy": lambda q: rng.randrange(2 * q),
    }
    for name, fill in fills.items():
        yield name, [
            [[fill(q) for _ in range(n)] for _ in range(rows)]
            for q, rows in zip(moduli, rows_per_ring)
        ]


def _check(got, want, moduli, lazy):
    assert len(got) == len(want)
    for got_rows, want_rows, q in zip(got, want, moduli):
        assert len(got_rows) == len(want_rows)
        for got_row, want_row in zip(got_rows, want_rows):
            values = NP.tolist(got_row)
            if lazy:
                assert max(values, default=0) < 2 * q
                values = [v % q for v in values]
            assert values == want_row


def _compare(n, moduli, rows, rng):
    fast, reference = _plans(n, moduli)
    for name, stack in _stacks(n, moduli, [rows] * len(moduli), rng):
        native = np.asarray(stack, dtype=np.uint64).reshape(len(moduli), rows, n)
        want = reference.forward(stack)
        _check(fast.forward(native), want, moduli, lazy=False)
        _check(fast.forward(native, lazy=True), want, moduli, lazy=True)
        _check(fast.inverse(native), reference.inverse(stack), moduli, lazy=False)
        # A nested sequence of vectors is the same stack.
        _check(fast.forward([list(r) for r in native]), want, moduli, lazy=False)


class TestBitIdentity:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("n", (2, 4, 8, 16, 32, 64, 128, 256, 512))
    def test_every_degree_chain_length_and_row_count(self, n, regime):
        """n = 2 … 512 (below 64 the plain walk, from 64 up the
        transposed short stages), chains of 1–6 primes, 0–7 rows."""
        rng = random.Random(n * 100 + REGIMES[regime])
        primes = generate_ntt_primes(n, 6, REGIMES[regime])
        for length in range(1, 7):
            rows = (length * 3 + n.bit_length()) % 8  # 0..7, all hit across n
            _compare(n, primes[:length], rows, rng)

    @pytest.mark.parametrize("rows", range(8))
    def test_every_row_count_on_a_six_prime_chain(self, rows):
        _compare(64, generate_ntt_primes(64, 6, 30), rows, random.Random(rows))

    @pytest.mark.parametrize("regime", REGIMES)
    def test_degree_4096(self, regime):
        primes = generate_ntt_primes(4096, 2, REGIMES[regime])
        fast, reference = _plans(4096, primes)
        rng = random.Random(4096)
        stack = [
            [[rng.randrange(q) for _ in range(4096)] for _ in range(3)]
            for q in primes
        ]
        native = np.asarray(stack, dtype=np.uint64)
        _check(fast.forward(native), reference.forward(stack), primes, lazy=False)
        _check(fast.inverse(native), reference.inverse(stack), primes, lazy=False)

    def test_degree_one_runs_no_stage(self):
        """A one-point transform is the identity, as on the reference."""
        moduli = (find_ntt_prime(30, 2), find_ntt_prime(62, 2))
        for length in (1, 2):
            chain = moduli[:length]
            fast, reference = _plans(1, chain)
            stack = [[[0], [q - 1], [q // 3]] for q in chain]
            native = np.asarray(stack, dtype=np.uint64)
            for call in ("forward", "inverse"):
                want = getattr(reference, call)(stack)
                assert want == stack
                _check(getattr(fast, call)(native), want, chain, lazy=False)

    def test_delphi_degree_on_the_delphi_chain(self):
        from repro.he.params import delphi_params

        params = delphi_params()
        _compare(params.n, params.rns_primes, 2, random.Random(2048))

    def test_a_chain_mixing_regimes_takes_the_wide_lanes(self):
        n = 128
        moduli = (
            generate_ntt_primes(n, 1, 30)[0],
            generate_ntt_primes(n, 1, 62)[0],
            find_ntt_prime(20, n),
            generate_ntt_primes(n, 1, 31)[0],
        )
        _compare(n, moduli, 3, random.Random(5))


class TestChainContext:
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_chain_transform_is_the_per_ring_transforms(self, backend_name):
        """A chain context's stack call equals one single-modulus context
        per prime, ring by ring — and round-trips."""
        be = get_backend(backend_name)
        n, primes = 64, generate_ntt_primes(64, 4, 30)
        chain = NegacyclicNtt(n, primes, backend=be)
        rng = random.Random(7)
        stack = [
            [be.asvec([rng.randrange(q) for _ in range(n)], q) for _ in range(3)]
            for q in primes
        ]
        evals = chain.forward_stack(stack)
        for q, rows, ring_evals in zip(primes, stack, evals):
            single = NegacyclicNtt(n, q, backend=be)
            assert [be.tolist(e) for e in ring_evals] == [
                be.tolist(single.forward_vec(r)) for r in rows
            ]
        back = chain.inverse_stack(evals)
        assert [[be.tolist(r) for r in rows] for rows in back] == [
            [be.tolist(r) for r in rows] for rows in stack
        ]

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_a_plan_takes_one_twist_per_modulus(self, backend_name):
        """Every plan is negacyclic: no twists is no plan, and a twist
        list shorter than the chain is refused, not zipped short."""
        be = get_backend(backend_name)
        n, primes = 16, generate_ntt_primes(16, 2, 30)
        psis = [primitive_root_of_unity(2 * n, q) for q in primes]
        roots = [psi * psi % q for psi, q in zip(psis, primes)]
        with pytest.raises(TypeError):
            be.make_ntt_plan(n, primes, roots)
        with pytest.raises(ValueError):
            be.make_ntt_plan(n, primes, roots, psis[:1])

    def test_a_numpy_integer_is_one_modulus_not_a_chain(self):
        q = find_ntt_prime(30, 64)
        ntt = NegacyclicNtt(64, np.uint64(q), backend=NP)
        assert ntt.moduli == (q,) and type(ntt.moduli[0]) is int

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_unfriendly_prime_anywhere_in_the_chain_is_rejected(self, backend_name):
        be = get_backend(backend_name)
        good = find_ntt_prime(30, 64)
        with pytest.raises(ValueError, match="97"):
            NegacyclicNtt(64, (good, 97), backend=be)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_multiply_shared_matches_per_ring_schoolbook(self, backend_name):
        be = get_backend(backend_name)
        n, primes = 8, generate_ntt_primes(8, 2, 30)
        chain = NegacyclicNtt(n, primes, backend=be)
        rng = random.Random(3)
        draw = lambda: [[rng.randrange(q) for _ in range(n)] for q in primes]
        shared, others = draw(), [draw(), draw()]
        native = lambda elem: [be.asvec(v, q) for v, q in zip(elem, primes)]
        got = chain.multiply_shared(native(shared), [native(o) for o in others])
        for other, product in zip(others, got):
            for q, a, b, c in zip(primes, shared, other, product):
                want = [0] * n
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        sign = 1 if i + j < n else -1
                        want[(i + j) % n] = (want[(i + j) % n] + sign * x * y) % q
                assert be.tolist(c) == want


class TestWrongLengthRows:
    """A 2n-long row used to come back as an n-vector on numpy (the
    gather read its first n entries) and a short one raised a bare
    IndexError; the python backend transformed whatever it was handed."""

    N = 16
    Q = find_ntt_prime(30, 16)

    @pytest.mark.parametrize("length", (8, 15, 17, 32))
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_stack_calls_name_n_and_the_length(self, backend_name, length):
        be = get_backend(backend_name)
        ntt = NegacyclicNtt(self.N, self.Q, backend=be)
        good = be.asvec(list(range(self.N)), self.Q)
        bad = be.asvec(list(range(length)), self.Q)
        for call in (ntt.forward_stack, ntt.inverse_stack):
            with pytest.raises(ValueError, match=rf"{self.N}\b.*\b{length}\b"):
                call([[bad]])
            with pytest.raises(ValueError):
                call([[good, bad]])  # one wrong row among right ones
        for call in (ntt.forward_vec, ntt.inverse_vec):
            with pytest.raises(ValueError, match=rf"{self.N}\b.*\b{length}\b"):
                call(bad)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_a_stack_for_the_wrong_number_of_rings(self, backend_name):
        be = get_backend(backend_name)
        primes = generate_ntt_primes(self.N, 2, 30)
        chain = NegacyclicNtt(self.N, primes, backend=be)
        row = be.asvec(list(range(self.N)), primes[0])
        with pytest.raises(ValueError, match="2 residue rings"):
            chain.forward_stack([[row]])
        with pytest.raises(ValueError, match="2 residue rings"):
            chain.inverse_stack([[row], [row], [row]])


class TestAutomorphismScatter:
    """X -> X^g on a whole ring stack through one memoised scatter."""

    @pytest.mark.parametrize("g", (3, 5, 9, 31, 2 * 32 - 1))
    def test_ring_stack_matches_the_reference_per_ring(self, g):
        n, moduli = 32, generate_ntt_primes(32, 3, 30) + (find_ntt_prime(62, 32),)
        rng = random.Random(g)
        rows = [[rng.randrange(q) for _ in range(n)] for q in moduli]
        rows[0][3] = 0  # -0 must stay 0, not become q
        want = PY.automorphism(rows, g, moduli)
        native = [NP.asvec(r, q) for r, q in zip(rows, moduli)]
        got = NP.automorphism(native, g, moduli)
        assert [NP.tolist(r) for r in got] == want
        again = NP.automorphism(np.stack(native), g, moduli)  # memo hit, 2D input
        assert [NP.tolist(r) for r in again] == want
