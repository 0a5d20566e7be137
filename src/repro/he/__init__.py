"""From-scratch BFV homomorphic encryption with batching and rotations."""

from repro.he.bfv import BfvContext, Ciphertext, GaloisKeys, PublicKey, SecretKey
from repro.he.costmodel import HeOpCount, HeUnitCosts, conv_op_count, fc_op_count
from repro.he.encoder import BatchEncoder
from repro.he.linear import HomomorphicLinearEvaluator
from repro.he.ntt import NegacyclicNtt, Ntt
from repro.he.params import BfvParams, delphi_params, fast_params, toy_params
from repro.he.polynomial import RingPoly, clear_ntt_cache

__all__ = [
    "BatchEncoder",
    "BfvContext",
    "BfvParams",
    "Ciphertext",
    "GaloisKeys",
    "HeOpCount",
    "HeUnitCosts",
    "HomomorphicLinearEvaluator",
    "NegacyclicNtt",
    "Ntt",
    "PublicKey",
    "RingPoly",
    "SecretKey",
    "clear_ntt_cache",
    "conv_op_count",
    "delphi_params",
    "fast_params",
    "fc_op_count",
    "toy_params",
]
