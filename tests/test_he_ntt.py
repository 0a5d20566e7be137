"""Tests for the negacyclic NTT."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.modmath import find_ntt_prime
from repro.he.ntt import NegacyclicNtt

Q = find_ntt_prime(40, 64)


def schoolbook_negacyclic(a, b, q):
    """Reference negacyclic convolution: X^n = -1."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            if k < n:
                out[k] = (out[k] + ai * bj) % q
            else:
                out[k - n] = (out[k - n] - ai * bj) % q
    return out


class TestNegacyclicNtt:
    @given(
        st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=64, max_size=64)
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, coeffs):
        ntt = NegacyclicNtt(64, Q)
        assert ntt.inverse(ntt.forward(coeffs)) == coeffs

    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=16, max_size=16),
        st.lists(st.integers(min_value=0, max_value=200), min_size=16, max_size=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_multiply_matches_schoolbook(self, a, b):
        q = find_ntt_prime(40, 16)
        ntt = NegacyclicNtt(16, q)
        assert ntt.multiply(a, b) == schoolbook_negacyclic(a, b, q)

    def test_x_times_xn_minus_1_wraps_negative(self):
        """X * X^(n-1) must equal -1 in the negacyclic ring."""
        n = 16
        q = find_ntt_prime(40, n)
        ntt = NegacyclicNtt(n, q)
        x = [0, 1] + [0] * (n - 2)
        xn1 = [0] * (n - 1) + [1]
        product = ntt.multiply(x, xn1)
        assert product == [q - 1] + [0] * (n - 1)

    def test_unfriendly_modulus_rejected(self):
        with pytest.raises(ValueError):
            NegacyclicNtt(64, 97)  # 97-1 not divisible by 128

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            NegacyclicNtt(20, Q)

    def test_size_validation(self):
        ntt = NegacyclicNtt(64, Q)
        with pytest.raises(ValueError):
            ntt.forward([1] * 32)
        with pytest.raises(ValueError):
            ntt.inverse([1] * 128)

    def test_linearity(self):
        ntt = NegacyclicNtt(64, Q)
        a = [i * 7 % Q for i in range(64)]
        b = [i * i % Q for i in range(64)]
        fa, fb = ntt.forward(a), ntt.forward(b)
        fsum = ntt.forward([(x + y) % Q for x, y in zip(a, b)])
        assert fsum == [(x + y) % Q for x, y in zip(fa, fb)]

    def test_forward_evaluates_at_the_odd_powers_of_psi(self):
        """The transform is evaluation at the n roots of X^n + 1, in some
        order: psi^(2i+1) for the primitive 2n-th root psi."""
        n, q = 16, find_ntt_prime(40, 16)
        ntt = NegacyclicNtt(n, q)
        (psi,) = ntt.psis
        coeffs = [(3 * k * k + 1) % q for k in range(n)]
        points = [pow(psi, 2 * i + 1, q) for i in range(n)]
        want = [
            sum(c * pow(x, k, q) for k, c in enumerate(coeffs)) % q for x in points
        ]
        assert sorted(ntt.forward(coeffs)) == sorted(want)

    @given(
        st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=16, max_size=16),
        st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=16, max_size=16),
    )
    @settings(max_examples=15, deadline=None)
    def test_multiply_commutes(self, a, b):
        ntt = NegacyclicNtt(16, Q)
        assert ntt.multiply(a, b) == ntt.multiply(b, a)
