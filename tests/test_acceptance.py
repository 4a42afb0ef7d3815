"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The directional criteria (7-9, 12 and 13) are desk-scale analogues on skewed
synthetic workloads; the rest are exact.
"""

import random
from unittest import mock

import numpy as np
import pytest

from pcmsim import (GenSpec, PcmBlock, PcmConfig, Simulation, TraceEvent,
                    WearConfig, build_codebook, intrav,
                    mfv_coverage, optimal_rotation, pack_granules,
                    run_lifetime, schemes, top_k_coverage, preset_spec, generate)
from pcmsim.cli import ExperimentConfig, cmd_run
from pcmsim.core import E_RESET, E_SET
from pcmsim.schemes import FnwScheme, WireScheme
from pcmsim.trace import PRESET_VALUES, value_probabilities

from helpers import alternation_events, freeze_codebook, hamming, intrav_oracle


def check(n, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {n:>2}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. round-trip fidelity

def _random_block_state(rng, cfg, scheme=None, n_versions=1):
    block = PcmBlock()
    block.bits = rng.getrandbits(cfg.block_bits)
    # `wire`'s metadata word in lane form: partition i's rotation counter at
    # bit i * partition_bits, the epoch at bit block_bits
    counters = [rng.randint(0, cfg.rotation_max) for _ in range(cfg.partitions_per_block)]
    block.meta = sum(r << (i * cfg.partition_bits) for i, r in enumerate(counters))
    block.meta |= rng.randrange(cfg.granule_bits) << cfg.block_bits
    block.tags = (rng.randrange(n_versions), 0, 0)
    return block


def test_criterion_1_round_trip_fidelity():
    rng = random.Random(2024)
    cfg = PcmConfig(cell_endurance=10**9)  # fidelity fuzz must outlive wear
    n = 10_000
    ok = True

    for scheme_id in ("plain", "diffwrite"):
        sim = Simulation(scheme_id, 1, cfg)
        for _ in range(n):
            sim.memory.blocks[0].bits = rng.getrandbits(512)
            payload = rng.randbytes(64)
            sim.write(0, payload)
            if sim.read(0) != payload:
                ok = False
                break

    fnw = FnwScheme(cfg, word_bits=16)
    for _ in range(n):
        block = _random_block_state(rng, cfg)
        flags = rng.getrandbits(fnw.overhead_bits)  # a flip bit per word
        block.meta = sum(((flags >> i) & 1) << (i * fnw.word_bits)
                         for i in range(fnw.overhead_bits))
        payload = rng.randbytes(64)
        fnw.write(block, payload)
        if fnw.read(block) != payload:
            ok = False
            break

    # several scheme instances, each frozen on a different random codebook
    wires = []
    for i in range(8):
        ranked = rng.sample(range(16), rng.randrange(17))
        scheme = freeze_codebook(WireScheme(cfg))
        scheme.versions.append(build_codebook(ranked, 4))
        wires.append(scheme)
    for _ in range(n):
        scheme = wires[rng.randrange(8)]
        block = _random_block_state(rng, cfg, n_versions=2)
        payload = rng.randbytes(64)
        scheme.write(block, payload)
        if scheme.read(block) != payload:
            ok = False
            break

    check(1, "read-after-write is byte-exact for every scheme", ok,
          f"{n} fuzzed pairs per scheme, random codebooks/epochs/rotations")


# ---------------------------------------------------------------------------
# 2. degeneration to differential write

def test_criterion_2_wire_degenerates_to_diffwrite():
    rng = random.Random(7)
    cfg = PcmConfig(rotation_max=0)
    wire = Simulation("wire", 8, cfg)
    freeze_codebook(wire.scheme)
    diff = Simulation("diffwrite", 8, cfg)
    ok = True
    for _ in range(10_000):
        addr = rng.randrange(8)
        payload = rng.randbytes(64)
        out_w = wire.write(addr, payload)
        out_d = diff.write(addr, payload)
        if ((out_w.flips_set, out_w.flips_reset)
                != (out_d.flips_set, out_d.flips_reset)) or out_w.meta_flips:
            ok = False
            break
    check(2, "identity codebook + zero rotation equals diffwrite flip counts",
          ok, "10^4 random writes, exact")


# ---------------------------------------------------------------------------
# 3. exhaustive flip-word bound

def test_criterion_3_fnw_exhaustive_bound():
    cfg = PcmConfig(block_bytes=1, partitions_per_block=1, rotation_max=0,
                    granule_bits=4, page_bytes=64)
    ok = True
    for phys in range(16):
        for data in range(16):
            for flip in (0, 1):
                scheme = FnwScheme(cfg, word_bits=4)
                block = PcmBlock()
                block.bits = phys
                block.meta = flip
                out = scheme.write(block, bytes([data]))
                total = out.flips + out.meta_flips
                best = min(hamming(phys, data) + (flip != 0),
                           hamming(phys, data ^ 0xF) + (flip != 1))
                if total != best or total > 3:
                    ok = False
    check(3, "flip-word choice is the true minimum and bounded by floor(N/2)+1",
          ok, "all 16x16x2 states at N=4, exact")


# ---------------------------------------------------------------------------
# 4. rotation conformance

def test_criterion_4_rotation_conformance():
    r, flips, _ = optimal_rotation(0b0010, 0b1000, 4, 3, incumbent=0, partitions=1)
    ok = (r, flips) == (2, 0)

    cfg = PcmConfig(block_bytes=4, partitions_per_block=8, rotation_max=3,
                    granule_bits=4, page_bytes=4096)
    scheme = freeze_codebook(WireScheme(cfg))
    block = PcmBlock()
    block.bits = 0b1000
    out = scheme.write(block, pack_granules([0b0010] + [0] * 7, 4))
    r = block.meta & ((1 << cfg.partition_bits) - 1)  # partition 0's counter lane
    ok = ok and out.flips == 0 and r == 2
    check(4, "stored 1000 reaches encoded 0010 with a 2-bit rotation, 0 flips",
          ok, f"r={r}, data flips={out.flips}")


# ---------------------------------------------------------------------------
# 5. wear-variation oracle equivalence

def test_criterion_5_intrav_oracle_equivalence():
    rng = np.random.default_rng(55)
    ok = intrav([[2, 2, 2, 2]]) == 0.0
    ok = ok and abs(intrav([[4, 0, 0, 0]]) - 2.0) < 1e-12
    worst = 0.0
    for _ in range(100):
        m = rng.integers(0, 40, size=(int(rng.integers(1, 17)),
                                      int(rng.integers(2, 513))))
        if m.sum() == 0:
            m[0, 0] = 3
        a, b = intrav(m), intrav_oracle(m.tolist())
        worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
        ok = ok and abs(a - b) <= 1e-12 * max(abs(b), 1.0)
    check(5, "wear-variation metric matches direct-summation oracle", ok,
          f"100 random matrices, worst rel err {worst:.2e}; hand cases exact")


# ---------------------------------------------------------------------------
# 6. overhead constants

def test_criterion_6_overhead_constants():
    sim = Simulation("wire", 1)
    bits = sim.scheme.overhead_bits
    ratio = bits / PcmConfig().block_bits
    cap = sim.metadata_cache.capacity_blocks  # the cache the simulation built
    ok = bits == 48 and ratio == 0.09375 and cap == 341
    check(6, "48 metadata bits/block (9.375%) and 341-block 2KB cache", ok,
          f"bits={bits}, ratio={ratio}, cache capacity={cap}")


# ---------------------------------------------------------------------------
# 7 & 8. directional energy and wear-variation claims (shared workload)

@pytest.fixture(scope="module")
def preset_runs():
    cfg = PcmConfig()
    spec = preset_spec("balanced", events=100_000, seed=11)
    events = generate(spec, num_blocks=64)
    coverage = mfv_coverage([e.payload for e in events if e.op == "W"], 4)
    results = {"top5": top_k_coverage(coverage, 5)}
    for scheme_id, wear in (("plain", None), ("diffwrite", None),
                            ("wire", WearConfig(enabled=True, epoch_writes=32,
                                                remap_period=10_000))):
        sim = Simulation(scheme_id, 64, cfg, wear)
        sim.replay(events)
        results[scheme_id] = {
            "data_energy": sim.totals.flips_set * E_SET + sim.totals.flips_reset * E_RESET,
            "intrav": intrav(sim.memory.wear_matrix()),
            "truncated": sim.truncated,
        }
    return results


def test_criterion_7_directional_energy(preset_runs):
    r = preset_runs
    reduction = 1 - r["wire"]["data_energy"] / r["diffwrite"]["data_energy"]
    ok = (r["top5"] >= 0.8
          and 0.15 <= reduction <= 0.45
          and r["diffwrite"]["data_energy"] < r["plain"]["data_energy"]
          and not any(r[s]["truncated"] for s in ("plain", "diffwrite", "wire")))
    check(7, "encoded writes cut data-flip energy 15-45% below diffwrite, "
             "diffwrite below plain", ok,
          f"reduction={reduction:.1%}, top5 coverage={r['top5']:.3f}")


def test_criterion_8_directional_wear_variation(preset_runs):
    r = preset_runs
    ratio = r["wire"]["intrav"] / r["diffwrite"]["intrav"]
    ok = ratio <= 0.9
    check(8, "wear-leveled encoding cuts IntraV to <= 0.9x diffwrite", ok,
          f"ratio={ratio:.3f} "
          f"({r['wire']['intrav']:.4f} vs {r['diffwrite']['intrav']:.4f})")


# ---------------------------------------------------------------------------
# 9. directional lifetime claim

def test_criterion_9_directional_lifetime():
    cfg = PcmConfig(cell_endurance=1000, page_bytes=512)
    blocks = 64  # 4 KiB of data blocks, well under 1 MiB
    events = alternation_events(blocks, passes=2)

    lives = {}
    for scheme_id, wear in (("diffwrite", None),
                            ("wire", WearConfig(enabled=True, epoch_writes=64,
                                                remap_period=10_000))):
        sim = Simulation(scheme_id, blocks, cfg, wear)
        run_lifetime(sim, events, max_writes=2_000_000)
        lives[scheme_id] = sim
    ratio = lives["wire"].writes / lives["diffwrite"].writes
    ok = (ratio >= 1.1
          and not lives["wire"].capped and not lives["diffwrite"].capped)
    check(9, "wear-leveled encoding survives >= 1.1x the writes of diffwrite",
          ok, f"{lives['wire'].writes} vs {lives['diffwrite'].writes} writes, "
              f"ratio={ratio:.2f}")


# ---------------------------------------------------------------------------
# 10. determinism

def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        cfg = ExperimentConfig()
        cfg.memory_blocks = 32
        cfg.schemes = ["plain", "diffwrite", "fnw", "wire"]
        cfg.gen = preset_spec("balanced", events=3_000, seed=42)
        cfg.out = str(tmp_path / name)
        assert cmd_run(cfg) == 0
        outputs.append((tmp_path / name / "report.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    check(10, "identical config and seed give byte-identical CSV", ok,
          f"{len(outputs[0])} bytes compared")


# ---------------------------------------------------------------------------
# 11. wear migration

def test_criterion_11_wear_migration():
    zero, ones = bytes(64), bytes([0xFF] * 64)
    pin = bytes([0xF0] * 64)  # keeps both hot values referenced

    def max_hot_wear(enabled):
        wear = WearConfig(enabled=enabled, epoch_writes=8, remap_period=10**9)
        sim = Simulation("wire", 2, wear=wear)
        sim.write(0, zero)
        sim.write(0, ones)
        sim.write(1, pin)
        hot = sim.physical[0]
        before = sim.memory.wear_matrix()[hot]
        for i in range(256):  # 32 epoch bumps >= granule_bits full cycles
            sim.write(0, zero if i % 2 == 0 else ones)
        return int((sim.memory.wear_matrix()[hot] - before).max())

    with_rotation = max_hot_wear(True)
    without = max_hot_wear(False)
    ok = with_rotation < without
    check(11, "epoch rotation strictly lowers max per-cell wear on the "
              "alternating one-bit trace", ok,
          f"max wear {with_rotation} vs {without}")


# ---------------------------------------------------------------------------
# 12. one changed cell per frequent-value change (the abstract's one-flip claim)

def changed_data_cells(scheme_id, events):
    """Each write's changed data cells, as `block.bits ^ bits`, at g4 with
    wear off."""
    sim = Simulation(scheme_id, 64, PcmConfig(granule_bits=4))
    changes, program = [], schemes.program_cells

    def recording_program(block, bits, meta, cfg):
        changes.append(block.bits ^ bits)
        return program(block, bits, meta, cfg)

    with mock.patch.object(schemes, "program_cells", recording_program):
        sim.replay(events)
    assert not sim.truncated
    return changes


def one_granule_events(seed, blocks=64, writes=2_000):
    """One warm-up write per block, then writes that each redraw one random
    granule of their address's last payload, from the presets' distribution."""
    rng = np.random.default_rng(seed)
    p = value_probabilities(GenSpec(values=PRESET_VALUES), 4)
    last = [rng.choice(16, size=128, p=p).astype(np.uint8) for _ in range(blocks)]
    events = [TraceEvent("W", a, pack_granules(g, 4)) for a, g in enumerate(last)]
    for _ in range(writes):
        addr = int(rng.integers(blocks))
        last[addr] = granules = last[addr].copy()
        granules[rng.integers(128)] = rng.choice(16, p=p)
        events.append(TraceEvent("W", addr, pack_granules(granules, 4)))
    return events


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_12_one_granule_writes_change_at_most_one_cell(seed):
    events = one_granule_events(seed)
    share = {}
    for scheme_id in ("wire", "diffwrite"):
        changes = changed_data_cells(scheme_id, events)[64:]  # after warm-up
        share[scheme_id] = sum(c.bit_count() <= 1 for c in changes) / len(changes)
    ok = share["wire"] > max(0.5, share["diffwrite"])
    check(12, "most one-granule writes change at most one data cell under wire, "
              "more than under diffwrite", ok,
          f"{share['wire']:.3f} vs {share['diffwrite']:.3f}")


def test_criterion_12_windows_changing_at_most_one_cell_on_balanced():
    events = generate(preset_spec("balanced", events=4_000, seed=1), num_blocks=64)
    share = {}
    for scheme_id in ("wire", "diffwrite"):
        changes = changed_data_cells(scheme_id, events)
        nibbles = np.frombuffer(b"".join(c.to_bytes(64, "little") for c in changes),
                                dtype=np.uint8)
        counts = np.concatenate([np.bitwise_count(nibbles & 0xF),
                                 np.bitwise_count(nibbles >> 4)])
        share[scheme_id] = float((counts <= 1).mean())
    ok = share["wire"] > share["diffwrite"]
    check(12, "more aligned 4-bit windows change at most one cell under wire "
              "than under diffwrite", ok,
          f"{share['wire']:.3f} vs {share['diffwrite']:.3f}")


# ---------------------------------------------------------------------------
# 13. lifetime, one mechanism at a time

LIFETIME_WEAR = {"enabled": True, "epoch_writes": 64, "remap_period": 97}
# each run: (scheme, PcmConfig changes, WearConfig changes); wire's three
# mechanisms are start-gap, epoch rotation of codewords and per-partition
# rotation, and each is switched off by one existing key
LIFETIME_RUNS = {
    "diffwrite": ("diffwrite", {}, {}),
    "fnw": ("fnw", {}, {}),
    "wire": ("wire", {}, {}),
    "wire, no epoch bumps": ("wire", {}, {"epoch_writes": 10**9}),
    "wire, rotation_max 0": ("wire", {"rotation_max": 0}, {}),
    "wire, no start-gap": ("wire", {}, {"remap_period": 10**9}),
    "diffwrite, wear off": ("diffwrite", {}, {"enabled": False}),
    "wire, wear off": ("wire", {}, {"enabled": False}),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_13_each_lifetime_mechanism_adds_life(seed):
    events = generate(GenSpec(events=3000, read_fraction=0.5, values=PRESET_VALUES,
                              seed=seed), num_blocks=32)
    sims = {}
    for name, (scheme_id, pcm, wear) in LIFETIME_RUNS.items():
        cfg = PcmConfig(cell_endurance=100, page_bytes=256, **pcm)
        sims[name] = Simulation(scheme_id, 32, cfg, WearConfig(**{**LIFETIME_WEAR, **wear}))
        run_lifetime(sims[name], events, max_writes=10**6)
    lives = {name: sim.writes for name, sim in sims.items()}
    ok = (lives["wire"] > max(lives["fnw"], lives["diffwrite"])
          and all(lives[f"wire, {off}"] < lives["wire"]
                  for off in ("no epoch bumps", "rotation_max 0", "no start-gap"))
          and lives["wire, wear off"] > lives["diffwrite, wear off"]
          and not any(sim.capped for sim in sims.values()))
    check(13, "wire outlives fnw and diffwrite, and each of its three mechanisms "
              "adds lifetime", ok, "; ".join(f"{k}: {v}" for k, v in lives.items()))
