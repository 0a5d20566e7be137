"""Private CNN inference with both garbling roles, compared side by side.

Runs the same tiny convolutional network through the Server-Garbler and
Client-Garbler protocols, verifying both give the identical (plaintext-
exact) prediction while exhibiting the communication asymmetries the
paper characterizes: Server-Garbler downloads the garbled circuits in the
offline phase, Client-Garbler uploads them and pays online OT instead.

Run:  python examples/private_cnn_inference.py
"""

import numpy as np

from repro import HybridProtocol, tiny_cnn, tiny_dataset, toy_params


def run_role(network, x, garbler: str):
    protocol = HybridProtocol(network, toy_params(n=256), garbler=garbler, seed=7)
    protocol.run_offline()
    prediction = protocol.run_online(x)
    return prediction, protocol


def main() -> None:
    params = toy_params(n=256)
    dataset = tiny_dataset(size=4, channels=1, classes=3)
    network = tiny_cnn(dataset, width=4)  # wider conv layers per ROADMAP
    network.randomize_weights(params.t, np.random.default_rng(3))
    print(network.summary())

    x = np.random.default_rng(4).integers(0, params.t, size=16).tolist()
    plaintext = network.forward_mod(
        np.array(x, dtype=object).reshape(1, 4, 4), params.t
    ).tolist()

    print("\nrole            prediction        offline up/down (KB)   online up/down (KB)")
    for garbler in ("server", "client"):
        prediction, protocol = run_role(network, x, garbler)
        assert prediction == plaintext
        s = protocol.channel.summary()
        print(
            f"{garbler + '-garbler':15s} {str(prediction):16s}  "
            f"{s['offline_up'] / 1e3:8.1f} / {s['offline_down'] / 1e3:8.1f}     "
            f"{s['online_up'] / 1e3:7.1f} / {s['online_down'] / 1e3:7.1f}"
        )

    print("\nboth roles agree with plaintext:", plaintext)
    print("note the asymmetry: server-garbler is download-heavy offline (GC")
    print("transfer to the client); client-garbler is upload-heavy offline and")
    print("pays extra online upload for the label OT — exactly Figure 2 vs 6.")


if __name__ == "__main__":
    main()
