"""Pick the best protocol + slot allocation for a concrete deployment.

Given a client device, a storage budget, and a wireless link, this walks
the paper's decision process: compare client storage footprints, compute
the optimal TDD slot allocation for each protocol (Figure 11), and
estimate single-inference latency with and without each optimization
(Table 1 / §6.1): a ``SystemConfig`` whose ``parallelism`` picks
sequential or layer-parallel HE (LPHE) and whose ``wsa`` picks the even
or the optimal slot split.

Run:  python examples/optimize_deployment.py
"""

from repro import (
    ATOM, EPYC, TINY_IMAGENET, OfflineParallelism, Protocol, SystemConfig,
    profile_network, resnet18,
)
from repro.core.estimator import estimate
from repro.core.wsa import improvement_over_even_split, optimal_upload_fraction

GBPS = 1e9


def main() -> None:
    profile = profile_network(resnet18(TINY_IMAGENET))
    client_storage_gb = 16

    print(f"deployment: {profile.network_name}, Atom client, EPYC server, "
          f"{client_storage_gb} GB client storage, 1 Gbps TDD link\n")

    for protocol in (Protocol.SERVER_GARBLER, Protocol.CLIENT_GARBLER):
        storage = profile.storage(protocol)
        volumes = profile.comm(protocol)
        f_up = optimal_upload_fraction(volumes)
        fits = storage.client_bytes <= client_storage_gb * 1e9
        print(f"{protocol.value}:")
        print(f"  client pre-compute footprint: {storage.client_bytes / 1e9:6.1f} GB"
              f"  -> {'fits' if fits else 'DOES NOT FIT'} in {client_storage_gb} GB")
        print(f"  optimal slot allocation: {f_up:.0%} upload / {1 - f_up:.0%} download"
              f"  (saves {improvement_over_even_split(volumes, GBPS):.0%} vs even)")
        for parallelism, wsa, label in (
            (OfflineParallelism.SEQUENTIAL, False, "no optimizations"),
            (OfflineParallelism.LPHE, False, "+ LPHE"),
            (OfflineParallelism.LPHE, True, "+ LPHE + WSA"),
        ):
            est = estimate(SystemConfig(
                profile, protocol, ATOM, EPYC, total_bps=GBPS,
                wsa=wsa, parallelism=parallelism,
            ))
            print(f"  single inference ({label:18s}): "
                  f"{est.total_seconds:7.1f} s "
                  f"(offline {est.offline.total:7.1f} s, "
                  f"online {est.online.total:6.1f} s)")
        print()

    print("recommendation: with a storage-constrained client, Client-Garbler is")
    print("the only protocol that can buffer pre-computes, so it sustains higher")
    print("arrival rates despite slightly worse isolated-inference latency.")


if __name__ == "__main__":
    main()
