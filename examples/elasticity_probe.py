#!/usr/bin/env python3
"""Use the elasticity detector as a standalone measurement tool (§1).

The paper suggests elasticity detection is useful beyond congestion control,
e.g. as a diagnostic that tells an operator whether the traffic sharing a
bottleneck reacts to available bandwidth.  This example probes three
different cross-traffic types with the same pulsing flow and prints the
measured elasticity metric and classification for each.

Run with:  python examples/elasticity_probe.py
"""

from __future__ import annotations


from repro.experiments import table1_classification


def main() -> None:
    print("Probing cross traffic with 5 Hz asymmetric pulses...\n")
    print(f"{'cross traffic':<18}{'expected':<12}{'classified':<12}"
          f"{'competitive fraction':>22}")
    for traffic in ("cubic", "vegas", "constant-stream", "app-limited"):
        row = table1_classification.classify(
            traffic, duration=35.0, dt=0.004)["extra"]
        print(f"{traffic:<18}{row['expected']:<12}{row['classification']:<12}"
              f"{row['competitive_fraction']:>22.2f}")
    print("\nACK-clocked transports respond to the induced rate fluctuations")
    print("within one RTT and show up as elastic; application-limited and")
    print("constant-rate streams do not.")


if __name__ == "__main__":
    main()
