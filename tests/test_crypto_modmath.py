"""Unit and property tests for modular arithmetic helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.modmath import (
    find_ntt_prime,
    is_probable_prime,
    mod_inverse,
    primitive_root_of_unity,
)


class TestIsProbablePrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 65537):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 15, 91, 561, 65536):
            assert not is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat pseudoprimes must not fool Miller-Rabin.
        for c in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_probable_prime(c)

    def test_large_known_prime(self):
        assert is_probable_prime(2**61 - 1)  # Mersenne prime
        assert not is_probable_prime(2**67 - 1)  # famously composite

    def test_delphi_share_prime(self):
        # The prime DELPHI uses for its share field.
        assert is_probable_prime(2061584302081)


class TestModInverse:
    def test_basic(self):
        assert mod_inverse(3, 7) == 5
        assert 3 * 5 % 7 == 1

    def test_not_invertible_raises(self):
        with pytest.raises(ValueError):
            mod_inverse(6, 9)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_inverse_property(self, a):
        p = 1000003  # prime
        inv = mod_inverse(a, p)
        assert a * inv % p == 1


class TestFindNttPrime:
    @pytest.mark.parametrize("bits,n", [(17, 256), (30, 1024), (60, 2048), (100, 128)])
    def test_prime_is_ntt_friendly(self, bits, n):
        q = find_ntt_prime(bits, n)
        assert is_probable_prime(q)
        assert (q - 1) % (2 * n) == 0
        assert q.bit_length() == bits

    def test_impossible_request_raises(self):
        with pytest.raises(ValueError):
            find_ntt_prime(4, 256)  # no 4-bit prime ≡ 1 mod 512


class TestPrimitiveRootOfUnity:
    @pytest.mark.parametrize("order", [2, 4, 8, 64, 512])
    def test_exact_order(self, order):
        p = find_ntt_prime(40, max(order // 2, 2))
        root = primitive_root_of_unity(order, p)
        assert pow(root, order, p) == 1
        assert pow(root, order // 2, p) != 1

    def test_order_one(self):
        assert primitive_root_of_unity(1, 97) == 1

    def test_non_dividing_order_raises(self):
        with pytest.raises(ValueError):
            primitive_root_of_unity(5, 97)  # 5 does not divide 96

    def test_wide_modulus_is_fast(self):
        # Regression: must not attempt to factor q-1 (a 100-bit number).
        q = find_ntt_prime(100, 128)
        root = primitive_root_of_unity(256, q)
        assert pow(root, 256, q) == 1
        assert pow(root, 128, q) == q - 1  # psi^n == -1 for negacyclic psi

