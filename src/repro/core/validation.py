"""Cross-validation between the functional protocol and the cost model.

The paper validates its simulator against DELPHI measurements (0.9%
relative error, §3). We do the analogue internally: run the *functional*
two-party protocol — which counts every byte it actually sends — and
compare against the *analytic* communication model (the same formulas the
simulator uses at testbed scale, re-parameterized for the toy field and
toy BFV parameters of the functional run).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.protocol import HybridProtocol
from repro.ot.extension import KAPPA
from repro.profiling.calibration import LABEL_BYTES


@dataclass(frozen=True)
class CommValidation:
    """Measured vs predicted bytes for each phase/direction."""

    measured: dict[str, int]
    predicted: dict[str, float]

    def relative_errors(self) -> dict[str, float]:
        out = {}
        for key, measured in self.measured.items():
            predicted = self.predicted[key]
            if measured == 0 and predicted == 0:
                out[key] = 0.0
            else:
                out[key] = abs(measured - predicted) / max(measured, predicted)
        return out

    @property
    def worst_error(self) -> float:
        return max(self.relative_errors().values())


def _iknp_bytes(n_ots: int) -> tuple[float, float]:
    """(receiver->sender, sender->receiver) bytes of one IKNP batch.

    Delegates to the extension's own formula so the predictor can never
    drift from what the protocol actually charges.
    """
    from repro.ot.extension import iknp_wire_bytes

    return iknp_wire_bytes(n_ots, LABEL_BYTES)


def predict_comm(protocol: HybridProtocol) -> dict[str, float]:
    """Analytic communication prediction for a functional protocol setup.

    Mirrors the per-ReLU formulas of :mod:`repro.profiling.model_costs`,
    re-parameterized by the protocol's actual field width, ciphertext
    size, and garbled-circuit size. Each ReLU layer's label OT is one
    seed-form IKNP batch in the phase it runs in (offline under
    Server-Garbler, online under Client-Garbler), split by direction as
    :func:`repro.ot.extension.iknp_wire_bytes` does: the chooser sends
    the base-OT key and kappa columns of one bit per OT (32 + 128*ceil(m/8)
    bytes), the label holder the kappa base-OT points and both masked
    labels of every OT (128*32 + 2*m*16 bytes).
    """
    lowered = protocol.lowered
    params = protocol.params
    bits = protocol.bits
    field_bytes = (bits + 7) // 8

    relu_layers = [
        lowered.linears[idx].n_out
        for kind, idx in lowered.steps
        if kind == "relu"
    ]
    relu_count = sum(relu_layers)
    n_linear = len(lowered.linears)
    gc_tables = 2 * LABEL_BYTES * protocol.client.relu_circuit().and_count

    # Public key (one ciphertext-sized pair) plus one Galois key with one
    # (k0, k1) pair per key-switching digit of the parameters' gadget.
    key_bytes = params.ciphertext_bytes * (1 + params.num_decomp_digits)
    he_up = n_linear * params.ciphertext_bytes
    he_down = n_linear * params.ciphertext_bytes
    input_up = lowered.input_size * field_bytes
    result_down = lowered.output_size * field_bytes
    word_labels = bits * LABEL_BYTES

    if protocol.server.garbles:
        # Offline: GCs + label OT (2 words per ReLU) travel down; HE up/down.
        per_layer_ot = [_iknp_bytes(2 * bits * n) for n in relu_layers]
        offline_up = key_bytes + he_up + sum(c for c, _ in per_layer_ot)
        offline_down = he_down + relu_count * gc_tables + sum(
            p for _, p in per_layer_ot
        )
        online_up = input_up + relu_count * word_labels
        online_down = relu_count * word_labels + result_down
    else:
        # Offline: client uploads GCs (+decode bits) and its own labels.
        decode_bytes = (bits + 7) // 8
        own_labels = (2 * bits + 2) * LABEL_BYTES  # share+mask words + constants
        offline_up = (
            key_bytes
            + he_up
            + relu_count * (gc_tables + decode_bytes + own_labels)
        )
        offline_down = he_down
        per_layer_ot = [_iknp_bytes(bits * n) for n in relu_layers]
        online_up = input_up + sum(p for _, p in per_layer_ot)
        online_down = sum(c for c, _ in per_layer_ot) + result_down

    return {
        "offline_up": offline_up,
        "offline_down": offline_down,
        "online_up": online_up,
        "online_down": online_down,
    }


def validate_protocol_comm(protocol: HybridProtocol, x: list[int]) -> CommValidation:
    """Run the protocol and compare measured bytes against the prediction."""
    protocol.run_offline()
    protocol.run_online(x)
    return CommValidation(
        measured=protocol.channel.summary(),
        predicted=predict_comm(protocol),
    )
