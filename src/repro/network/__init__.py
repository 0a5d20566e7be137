"""Communication substrate: byte-counted channel and TDD bandwidth model."""

from repro.network.bandwidth import GBPS, MBPS, TddLink
from repro.network.channel import CLIENT, SERVER, Channel, wire_size
from repro.network.serialize import (
    deserialize_ciphertext,
    deserialize_field_vector,
    deserialize_garbled_circuit,
    deserialize_labels,
    serialize_ciphertext,
    serialize_field_vector,
    serialize_garbled_circuit,
    serialize_labels,
)

__all__ = [
    "CLIENT",
    "Channel",
    "GBPS",
    "MBPS",
    "SERVER",
    "TddLink",
    "deserialize_ciphertext",
    "deserialize_field_vector",
    "deserialize_garbled_circuit",
    "deserialize_labels",
    "serialize_ciphertext",
    "serialize_field_vector",
    "serialize_garbled_circuit",
    "serialize_labels",
    "wire_size",
]
