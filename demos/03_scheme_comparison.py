"""Replay one synthetic trace under every scheme and compare the damage.

Generates a balanced read/write trace whose top five granule values cover
about 82% of the stream, replays it against four independent memory images,
and tabulates flips, energy and the intra-block wear variation. This is the
library-API version of `pcmsim run --preset balanced`.
"""

from pcmsim import (Simulation, WearConfig, generate, intrav, mfv_coverage,
                    preset_spec, top_k_coverage)

EVENTS = 20_000
BLOCKS = 64


def main():
    spec = preset_spec("balanced", events=EVENTS, seed=11)
    events = generate(spec, num_blocks=BLOCKS)
    rows = mfv_coverage([e.payload for e in events if e.op == "W"], 4)
    print(f"{EVENTS} events over {BLOCKS} blocks; "
          f"top-5 granule coverage {top_k_coverage(rows, 5):.1%}\n")

    wear_on = WearConfig(enabled=True, epoch_writes=32, remap_period=10_000)
    configs = [
        ("plain", None),
        ("diffwrite", None),
        ("fnw", None),
        ("wire", wear_on),
    ]

    print(f"{'scheme':>10} | {'data flips':>11} {'meta flips':>10} "
          f"{'energy (uJ)':>12} {'intrav':>8}")
    print("-" * 58)
    baseline = None
    for scheme_id, wear in configs:
        sim = Simulation(scheme_id, BLOCKS, wear=wear)
        sim.replay(events)
        energy_pj = sim.totals.energy_pj()
        iv = intrav(sim.memory.wear_matrix())
        if scheme_id == "plain":
            baseline = energy_pj
        rel = energy_pj / baseline
        print(f"{scheme_id:>10} | {sim.totals.flips:>11} {sim.totals.meta_flips:>10} "
              f"{energy_pj / 1e6:>12.2f} {iv:>8.4f}   ({rel:.0%} of plain)")


if __name__ == "__main__":
    main()
