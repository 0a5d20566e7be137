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
from repro.ot.extension import iknp_transcript
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


def predict_comm(protocol: HybridProtocol) -> dict[str, float]:
    """Analytic communication prediction for a functional protocol setup.

    Mirrors the per-ReLU formulas of :mod:`repro.profiling.model_costs`,
    re-parameterized by the protocol's actual field width, ciphertext
    size, and garbled-circuit size. Each ReLU layer's label OT is one
    batch of the protocol's IKNP stream in the phase it runs in (offline
    under Server-Garbler, online under Client-Garbler): the chooser sends
    kappa columns of one bit per OT (128*ceil(m/8) bytes), the label
    holder both masked labels of every OT (2*m*16 bytes). The stream's
    base OTs — the chooser's key A (32 bytes) and the holder's kappa
    points (128*32 bytes) — are setup, paid once by its first batch. All
    of it is :func:`repro.ot.extension.iknp_transcript`.
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

    # One Galois key, a seeded (k0, seed) digit per key-switching digit of
    # the parameters' gadget, and a seeded symmetric Enc(r) per linear
    # layer; the returns Enc(W r - s) travel in full at the switched
    # modulus. No public key.
    key_bytes = params.seeded_ciphertext_bytes * params.num_decomp_digits
    he_up = n_linear * params.seeded_ciphertext_bytes
    he_down = n_linear * params.switched_ciphertext_bytes
    input_up = lowered.input_size * field_bytes
    result_down = lowered.output_size * field_bytes
    word_labels = bits * LABEL_BYTES

    # Server-Garbler OTs both client words per ReLU, Client-Garbler the
    # server's share word.
    ot_words = 2 if protocol.server.garbles else 1
    ots = [
        iknp_transcript(ot_words * bits * n, LABEL_BYTES, setup=i == 0)
        for i, n in enumerate(relu_layers)
    ]
    to_holder = sum(t.column_bytes for t in ots)
    to_chooser = sum(t.ciphertext_bytes for t in ots)
    setup_to_holder = sum(t.key_bytes for t in ots)
    setup_to_chooser = sum(t.point_bytes for t in ots)

    if protocol.server.garbles:
        # Offline: GCs + label OT (2 words per ReLU) travel down; HE up/down.
        setup_up, setup_down = setup_to_holder, setup_to_chooser
        offline_up = key_bytes + he_up + to_holder
        offline_down = he_down + relu_count * gc_tables + to_chooser
        online_up = input_up + relu_count * word_labels
        online_down = relu_count * word_labels + result_down
    else:
        # Offline: client uploads GCs (+decode bits) and its own labels.
        decode_bytes = (bits + 7) // 8
        own_labels = (2 * bits + 2) * LABEL_BYTES  # share+mask words + constants
        setup_up, setup_down = setup_to_chooser, setup_to_holder
        offline_up = (
            key_bytes
            + he_up
            + relu_count * (gc_tables + decode_bytes + own_labels)
        )
        offline_down = he_down
        online_up = input_up + to_chooser
        online_down = to_holder + result_down

    return {
        "setup_up": setup_up,
        "setup_down": setup_down,
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
