"""Tests for homomorphic linear algebra (diagonal matvec, conv lowering)."""

import numpy as np
import pytest

from repro.crypto.rng import SecureRandom
from repro.he.bfv import BfvContext
from repro.he.encoder import BatchEncoder
from repro.he.linear import HomomorphicLinearEvaluator, slot_layout
from repro.he.params import toy_params


@pytest.fixture(scope="module")
def rig():
    params = toy_params(n=128)
    ctx = BfvContext(params, SecureRandom(3))
    encoder = BatchEncoder(params)
    sk, pk = ctx.keygen()
    gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
    return params, ctx, encoder, sk, pk, gk


def run_matvec(rig, matrix, vector):
    params, ctx, encoder, sk, pk, gk = rig
    evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
    packed = evaluator.pack_vector(vector)
    ct = ctx.encrypt(pk, encoder.encode(packed))
    ct_out = evaluator.matvec(ct, matrix)
    layout = slot_layout(len(matrix), len(matrix[0]), encoder.row_size)
    return layout.reduce(encoder.decode(ctx.decrypt(sk, ct_out)), params.t), evaluator


class TestMatvec:
    def test_identity(self, rig):
        params = rig[0]
        n = 8
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        x = list(range(1, n + 1))
        y, _ = run_matvec(rig, eye, x)
        assert y == x

    def test_random_square(self, rig):
        params = rig[0]
        rng = np.random.default_rng(11)
        n = 16
        m = rng.integers(0, params.t, size=(n, n)).tolist()
        x = rng.integers(0, params.t, size=n).tolist()
        y, _ = run_matvec(rig, m, x)
        expected = [sum(m[i][j] * x[j] for j in range(n)) % params.t for i in range(n)]
        assert y == expected

    def test_rectangular_tall(self, rig):
        """More outputs than inputs (n_out > n_in)."""
        params = rig[0]
        rng = np.random.default_rng(5)
        m = rng.integers(0, 100, size=(32, 8)).tolist()
        x = rng.integers(0, 100, size=8).tolist()
        y, _ = run_matvec(rig, m, x)
        expected = [sum(m[i][j] * x[j] for j in range(8)) % params.t for i in range(32)]
        assert y == expected

    def test_rectangular_wide(self, rig):
        """Fewer outputs than inputs (n_out < n_in)."""
        params = rig[0]
        rng = np.random.default_rng(6)
        m = rng.integers(0, 100, size=(4, 16)).tolist()
        x = rng.integers(0, 100, size=16).tolist()
        y, _ = run_matvec(rig, m, x)
        expected = [sum(m[i][j] * x[j] for j in range(16)) % params.t for i in range(4)]
        assert y == expected

    def test_rotation_count(self, rig):
        """w - 1 rotations and w products, w the fewest steps that fit
        n_out x 16 partial sums in the 128 slots: none for 4 x 16, the
        full width once the outputs outnumber a row."""
        for n_out, steps in [(4, 1), (16, 2), (65, 16), (128, 16)]:
            m = [[1] * 16 for _ in range(n_out)]
            y, evaluator = run_matvec(rig, m, list(range(16)))
            assert y == [120] * n_out
            assert evaluator.rotations_performed == steps - 1
            assert evaluator.plain_mults_performed == steps

    def test_width_must_divide_row(self, rig):
        params, ctx, encoder, sk, pk, gk = rig
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        with pytest.raises(ValueError):
            evaluator.pack_vector([1] * 7)

    def test_too_tall_rejected(self, rig):
        params, ctx, encoder, sk, pk, gk = rig
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        packed = evaluator.pack_vector([1] * 8)
        ct = ctx.encrypt(pk, encoder.encode(packed))
        too_tall = [[0] * 8 for _ in range(2 * params.row_size + 1)]
        with pytest.raises(ValueError):
            evaluator.matvec(ct, too_tall)


class TestConvLowering:
    def test_identity_kernel(self, rig):
        params = rig[0]
        w = np.zeros((1, 1, 3, 3), dtype=np.int64)
        w[0, 0, 1, 1] = 1
        m = HomomorphicLinearEvaluator.conv_as_matrix(w, (1, 4, 4), 1, params.t)
        x = np.arange(16)
        y = np.array(m) @ x % params.t
        assert (y == x).all()

    def test_matches_plaintext_conv(self, rig):
        """Lowered matrix agrees with direct convolution arithmetic."""
        params = rig[0]
        rng = np.random.default_rng(8)
        c_in, c_out, h, w, k = 2, 3, 4, 4, 3
        weights = rng.integers(0, 20, size=(c_out, c_in, k, k))
        x = rng.integers(0, 20, size=(c_in, h, w))
        matrix = HomomorphicLinearEvaluator.conv_as_matrix(
            weights, (c_in, h, w), 1, params.t
        )
        y_matrix = (np.array(matrix) @ x.reshape(-1)) % params.t
        # Direct dense conv with zero padding.
        padded = np.zeros((c_in, h + 2, w + 2), dtype=np.int64)
        padded[:, 1:-1, 1:-1] = x
        expected = np.zeros((c_out, h, w), dtype=np.int64)
        for oc in range(c_out):
            for oy in range(h):
                for ox in range(w):
                    window = padded[:, oy : oy + k, ox : ox + k]
                    expected[oc, oy, ox] = (weights[oc] * window).sum() % params.t
        assert (y_matrix.reshape(c_out, h, w) == expected).all()

    def test_channel_mismatch_rejected(self, rig):
        params = rig[0]
        w = np.zeros((1, 2, 3, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            HomomorphicLinearEvaluator.conv_as_matrix(w, (3, 4, 4), 1, params.t)

    def test_end_to_end_encrypted_conv(self, rig):
        """Encrypted conv via lowering equals plaintext conv."""
        params = rig[0]
        rng = np.random.default_rng(9)
        weights = rng.integers(0, 10, size=(2, 1, 3, 3))
        x = rng.integers(0, 10, size=(1, 4, 4))
        matrix = HomomorphicLinearEvaluator.conv_as_matrix(
            weights, (1, 4, 4), 1, params.t
        )
        y, _ = run_matvec(rig, matrix, x.reshape(-1).tolist())
        expected = (np.array(matrix) @ x.reshape(-1)) % params.t
        assert y == expected.tolist()

