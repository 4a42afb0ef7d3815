"""Tour of the four write schemes on a single hot block.

Writes the same little payload sequence under each scheme and prints how many
cells each one actually programs. Plain writes always touch all 512 cells;
differential writes touch only changed bits; the flip-word scheme inverts
words when that is cheaper; the codebook scheme re-encodes granules and
rotates partitions to land near the stored bits.
"""

from pcmsim import Simulation, pack_granules

PAYLOADS = [
    ("all zeros", bytes(64)),
    ("all zeros again", bytes(64)),
    ("all ones", bytes([0xFF] * 64)),
    ("back to zeros", bytes(64)),
    ("one hot byte", bytes([0x07]) + bytes(63)),
    ("mixed granules", pack_granules([0x0, 0x7] * 64, 4)),
]


def main():
    print(f"{'write':>16} | {'plain':>6} {'diffwrite':>9} {'fnw':>6} {'wire':>6}")
    print("-" * 52)
    sims = {s: Simulation(s, 1) for s in ("plain", "diffwrite", "fnw", "wire")}
    for label, payload in PAYLOADS:
        flips = {}
        for name, sim in sims.items():
            out = sim.write(0, payload)
            flips[name] = out.flips
            assert sim.read(0) == payload  # every scheme must round-trip
        print(f"{label:>16} | {flips['plain']:>6} {flips['diffwrite']:>9} "
              f"{flips['fnw']:>6} {flips['wire']:>6}")

    print()
    for name, sim in sims.items():
        total = sim.totals
        print(f"{name:>10}: {total.flips} data flips, {total.meta_flips} metadata "
              f"flips, {total.energy_pj():.0f} pJ")


if __name__ == "__main__":
    main()
