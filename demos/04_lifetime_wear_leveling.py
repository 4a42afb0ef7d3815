"""Lifetime to 50% capacity, with and without wear leveling.

A worst-case workload alternates every block between the two hottest values
each pass. Under differential writes that flips every cell of a block per
write, so all pages wear out together near the endurance limit. The codebook
scheme flips one bit per granule, and epoch rotation walks that bit across
the granule, so the same endurance budget lasts about four times longer.

Uses a deliberately tiny endurance so the experiment finishes in seconds.
"""

import numpy as np

from pcmsim import (PcmConfig, Simulation, TraceEvent, WearConfig,
                    build_report, run_lifetime)

BLOCKS = 32
ENDURANCE = 300


def alternating_trace():
    zero, ones = bytes(64), bytes([0xFF] * 64)
    events = []
    for p in range(2):
        for a in range(BLOCKS):
            events.append(TraceEvent("W", a, zero if (a + p) % 2 == 0 else ones))
    return events


def hot_bit_profile(enabled):
    """Wear of one granule's four cells on a hot block, by epoch policy."""
    wear = WearConfig(enabled=enabled, epoch_writes=8, remap_period=10**9)
    sim = Simulation("wire", 2, wear=wear)
    zero, ones = bytes(64), bytes([0xFF] * 64)
    sim.write(0, zero)
    sim.write(0, ones)
    sim.write(1, bytes([0xF0] * 64))  # keeps both values in the FV table
    for i in range(200):
        sim.write(0, zero if i % 2 == 0 else ones)
    hot = sim.physical[0]
    return sim.memory.wear_matrix()[hot, :4]


def main():
    cfg = PcmConfig(cell_endurance=ENDURANCE, page_bytes=512)
    events = alternating_trace()

    print(f"{BLOCKS} blocks, endurance {ENDURANCE} programs/cell, "
          f"alternating two-value workload\n")
    for label, scheme_id, wear in (
            ("diffwrite", "diffwrite", None),
            ("wire + wear leveling", "wire",
             WearConfig(enabled=True, epoch_writes=16, remap_period=5_000))):
        sim = Simulation(scheme_id, BLOCKS, cfg, wear)
        run_lifetime(sim, events, max_writes=1_000_000)
        rep = build_report(sim, [], lifetime=True)
        print(f"{label:>22}: {rep.lifetime_writes:>7} writes until capacity < 50% "
              f"({rep.lifetime_seconds * 1e3:.2f} ms at 250 ns/write)")

    print("\nwear of the first granule's four cells after 200 alternations:")
    for enabled in (False, True):
        profile = hot_bit_profile(enabled)
        label = "epoch rotation on " if enabled else "epoch rotation off"
        print(f"  {label}: {np.array2string(profile)}")


if __name__ == "__main__":
    main()
