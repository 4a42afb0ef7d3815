import random

import pytest

from pcmsim import (DeadBlockError, PcmConfig, PcmMemory, Simulation, StartGapLeveler,
                    WearConfig, WireScheme, WriteOutcome, build_codebook, pack_granules,
                    program_all_cells)

from helpers import RegisterStartGap, rotate_left, rotate_right

# An epoch rotates a codeword's bits left by the epoch (`wire`'s encode
# tables); decoding rotates them back right.


def wire_fields(meta, cfg=PcmConfig()):
    """`wire`'s metadata word split into its rotation counters, then the epoch:
    partition i's counter in the lane at bit i * partition_bits, the epoch at
    bit block_bits."""
    w, n = cfg.partition_bits, cfg.partitions_per_block
    return [(meta >> (i * w)) & ((1 << w) - 1) for i in range(n)] + [meta >> cfg.block_bits]


def epoch(block):
    return wire_fields(block.meta)[-1]


def codec(g, epoch):
    """`wire`'s (encode, decode) translate tables at `epoch` for the g-bit
    codebook that ranks the all-ones value first: each byte's granules
    through that codebook, each codeword rotated left by the epoch."""
    scheme = WireScheme(PcmConfig(granule_bits=g))
    scheme.versions.append(build_codebook([(1 << g) - 1], g))
    return scheme._codec(1, epoch)


def per_granule(table, g, f):
    """Each byte of `table` with f applied to each of its g-bit granules."""
    mask = (1 << g) - 1
    return bytes(sum(f((b >> i) & mask) << i for i in range(0, 8, g)) for b in table)


def test_epoch_zero_is_identity():
    for g in (1, 2, 4, 8):
        book = build_codebook([(1 << g) - 1], g)
        assert codec(g, 0)[0] == per_granule(range(256), g, book.__getitem__)


def test_epoch_moves_the_difference_bit():
    # version 0 is the identity codebook: byte 0x01 is granules (1, 0)
    scheme = WireScheme(PcmConfig())
    assert scheme._codec(0, 1)[0][0b0001] == rotate_left(0b0001, 1, 4) == 0b0010
    assert scheme._codec(0, 3)[0][0b0001] == rotate_left(0b0001, 3, 4) == 0b1000


def test_full_cycle_is_identity():
    for g in (1, 2, 4, 8):
        assert codec(g, g) == codec(g, 0)


def test_transform_untransform_compose_to_identity():
    identity = bytes(range(256))
    for epoch in range(4):
        enc, dec = codec(4, epoch)
        assert per_granule(enc, 4, lambda cw: rotate_right(cw, epoch, 4)) == codec(4, 0)[0]
        assert per_granule(codec(4, 0)[0], 4, lambda cw: rotate_left(cw, epoch, 4)) == enc
        assert identity.translate(enc).translate(dec) == identity


def test_epoch_bump_cadence():
    wear = WearConfig(enabled=True, epoch_writes=2, remap_period=10**9)
    sim = Simulation("wire", 1, wear=wear)
    payload = bytes(64)
    block = sim.memory.blocks[sim.leveler.physical[0]]
    sim.write(0, payload)
    assert epoch(block) == 0
    sim.write(0, payload)
    assert epoch(block) == 0
    sim.write(0, payload)   # third write runs at the bumped epoch
    assert epoch(block) == 1


def test_epoch_wraps_after_granule_bits_bumps():
    wear = WearConfig(enabled=True, epoch_writes=1, remap_period=10**9)
    sim = Simulation("wire", 1, wear=wear)
    payload = bytes(64)
    seen = []
    for _ in range(5):
        sim.write(0, payload)
        seen.append(epoch(sim.memory.blocks[sim.leveler.physical[0]]))
    assert seen == [0, 1, 2, 3, 0]


def test_disabled_wear_keeps_epoch_zero():
    sim = Simulation("wire", 1)
    for _ in range(600):
        sim.write(0, bytes(64))
    assert epoch(sim.memory.blocks[0]) == 0


# ---------------------------------------------------------------------------
# start-gap remapping

def test_five_steps_shift_every_block_one_slot():
    # permutation trace: a full gap cycle (N+1 steps) rotates every block one
    # slot within the occupied positions and returns the gap to its start
    cfg = PcmConfig()
    mem = PcmMemory(4, cfg, extra_blocks=1)
    lev = StartGapLeveler(4)
    for la in range(4):
        mem.blocks[lev.physical[la]].bits = la + 1
    for _ in range(5):
        lev.step(mem)
    assert lev.gap == 4
    for la in range(4):
        assert lev.physical[la] == (la + 1) % 4
        assert mem.blocks[lev.physical[la]].bits == la + 1


def test_mapping_stays_bijective_after_random_steps():
    rng = random.Random(13)
    cfg = PcmConfig()
    for n in (1, 3, 8):
        mem = PcmMemory(n, cfg, extra_blocks=1)
        lev = StartGapLeveler(n)
        for _ in range(rng.randrange(1, 4 * (n + 1))):
            lev.step(mem)
        physical = [lev.physical[la] for la in range(n)]
        assert len(set(physical)) == n
        assert lev.gap not in physical
        for la in range(n):
            assert lev.logical[lev.physical[la]] == la


def start_gap_state(gap, physical, logical, n):
    """(gap, every address's block, the address of every other block), from
    the logical -> physical and physical -> logical lookups."""
    backed = [pa for pa in range(n + 1) if pa != gap]
    return gap, [physical(la) for la in range(n)], [logical(pa) for pa in backed]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_table_equals_the_start_gap_register_rule(n):
    """(n + 1) * (n + 2) steps: `start` runs through all n values and the gap
    wraps n + 2 times."""
    mem = PcmMemory(n, PcmConfig(), extra_blocks=1)
    lev, ref = StartGapLeveler(n), RegisterStartGap(n)
    for _ in range((n + 1) * (n + 2)):
        lev.step(mem)
        ref.step()
        assert (start_gap_state(lev.gap, lev.physical.__getitem__, lev.logical.__getitem__, n)
                == start_gap_state(ref.gap, ref.map, ref.inverse, n))
        assert lev.logical[lev.gap] is None
        with pytest.raises(ValueError):
            ref.inverse(ref.gap)
    assert ref.start == (n + 2) % n


def test_remap_copy_wears_the_destination():
    cfg = PcmConfig()
    mem = PcmMemory(2, cfg, extra_blocks=1)
    lev = StartGapLeveler(2)
    mem.blocks[1].bits = (1 << 512) - 1
    out = lev.step(mem)  # copies block 1 into the gap (block 2)
    assert out.flips == 512
    assert (mem.wear_matrix()[2] == 1).all()
    assert mem.blocks[2].bits == mem.blocks[1].bits


def test_start_gap_copy_into_a_failed_block_programs_nothing():
    # the tags still move and the block is marked lost; its cells and
    # metadata word keep their stale image and nothing is charged
    cfg = PcmConfig()
    mem = PcmMemory(2, cfg, extra_blocks=1)
    lev = StartGapLeveler(2)
    src, dest = mem.blocks[1], mem.blocks[2]
    src.bits, src.meta, src.tags = (1 << 512) - 1, 0b101, (3, 0, 0b11)
    dest.bits, dest.meta, dest.failed = 0b1010, 0b110, True
    out = lev.step(mem)
    assert out == WriteOutcome()
    assert (dest.bits, dest.meta, int(mem.wear_matrix()[2].sum())) == (0b1010, 0b110, 0)
    assert dest.lost and dest.tags == (3, 0, 0b11)
    assert lev.physical[1] == 2
    assert mem.dead_pages == {0}  # the page of address 1, the moved one


def test_start_gap_copy_that_wears_the_destination_out_kills_the_moved_page():
    # the gap block was programmed once, all its endurance allows; the copy
    # into it programs it again and fails it, so address 1's page dies
    cfg = PcmConfig(cell_endurance=1, page_bytes=64)
    mem = PcmMemory(2, cfg, extra_blocks=1)
    lev = StartGapLeveler(2)
    program_all_cells(mem.blocks[lev.gap], 0, 0, cfg)
    assert not mem.blocks[2].failed
    lev.step(mem)
    assert mem.blocks[2].failed and lev.physical[1] == 2
    assert mem.dead_pages == {1}


def test_gap_steps_after_every_remap_period_serviced_writes():
    # remap_period 3: the gap moves after the 3rd and 6th serviced writes
    # only; a write refused because its block is dead does not count
    sim = Simulation("diffwrite", 4, wear=WearConfig(enabled=True, remap_period=3))
    gaps = []
    for _ in range(7):
        sim.write(1, bytes(64))
        gaps.append(sim.leveler.gap)
    assert gaps == [4, 4, 3, 3, 3, 2, 2]

    sim.memory.blocks[sim.leveler.physical[0]].failed = True
    sim.write(1, bytes(64))  # the 8th serviced write
    with pytest.raises(DeadBlockError):
        sim.write(0, bytes(64))
    assert (sim.writes, sim.leveler.gap) == (8, 2)
    sim.write(1, bytes(64))  # the 9th: the next step is due here, not earlier
    assert (sim.writes, sim.leveler.gap) == (9, 1)


def test_read_after_write_survives_bumps_and_remaps():
    rng = random.Random(47)
    wear = WearConfig(enabled=True, epoch_writes=3, remap_period=7)
    for scheme_id in ("wire", "fnw", "diffwrite", "plain"):
        sim = Simulation(scheme_id, 5, wear=wear)
        stored = {}
        for _ in range(300):
            addr = rng.randrange(5)
            vals = [rng.choice([0, 0, 0xF, rng.randrange(16)]) for _ in range(128)]
            payload = pack_granules(vals, 4)
            sim.write(addr, payload)
            stored[addr] = payload
            check = rng.randrange(5)
            if check in stored:  # the second read takes `wire`'s last decode
                assert sim.read(check) == stored[check]
                assert sim.read(check) == stored[check]
        for addr, payload in stored.items():
            assert sim.read(addr) == payload
            assert sim.read(addr) == payload


@pytest.mark.parametrize("scheme_id", ["plain", "diffwrite", "wire"])
def test_start_gap_copy_charges_the_metadata_word(scheme_id):
    # a gap step after every second write; the copy charges the flips between
    # the two blocks' metadata words: `wire`'s counters and epoch, summed
    # field by field, and nothing for the schemes that keep no metadata
    rng = random.Random(59)
    sim = Simulation(scheme_id, 2, PcmConfig(page_bytes=64),
                     WearConfig(enabled=True, epoch_writes=1, remap_period=2))
    charged = 0
    for i in range(60):
        gap = sim.leveler.gap
        old_dest = sim.memory.blocks[gap].meta
        before = sim.totals.meta_flips
        vals = [rng.choice([0, 0, 0xF, rng.randrange(16)]) for _ in range(128)]
        out = sim.write(i % 2, pack_granules(vals, 4))
        step_charge = sim.totals.meta_flips - before - out.meta_flips
        if i % 2 == 0:  # no step after an odd number of writes
            assert step_charge == 0
            continue
        dest = sim.memory.blocks[gap]
        assert dest.meta == sim.memory.blocks[sim.leveler.gap].meta  # moved with the content
        assert step_charge == sum((a ^ b).bit_count() for a, b in
                                  zip(wire_fields(old_dest), wire_fields(dest.meta)))
        charged += step_charge
    assert (charged > 0) == (scheme_id == "wire")


def test_start_gap_copy_moves_fnw_flip_bits_uncharged():
    # the one documented exception: FNW flip bits move with the content but
    # the copy charges none of their flips
    sim = Simulation("fnw", 2, PcmConfig(page_bytes=64),
                     WearConfig(enabled=True, remap_period=2))
    ones = b"\xff" * 64
    sim.write(0, bytes(64))
    out = sim.write(1, ones)  # stored as inverted zeros; the gap step copies it
    lanes = sum(1 << (i * 16) for i in range(32))
    assert out.meta_flips == 32
    assert sim.memory.blocks[1].meta == sim.memory.blocks[2].meta == lanes
    assert sim.leveler.physical[1] == 2
    assert sim.totals.meta_flips == 32
    assert sim.read(1) == ones


def test_epoch_rotation_spreads_hot_bit_wear():
    # alternating one-bit-difference traffic on a hot block: with rotation the
    # hot codeword bit migrates across the granule positions, without it one
    # cell position soaks everything. A second block keeps both hot values
    # referenced so the codebook stays put during the measurement.
    zero, ones = bytes(64), bytes([0xFF] * 64)
    pin = bytes([0xF0] * 64)  # one 0x0 and one 0xF granule per byte

    def run(enabled):
        wear = WearConfig(enabled=enabled, epoch_writes=8, remap_period=10**9)
        sim = Simulation("wire", 2, wear=wear)
        sim.write(0, zero)
        sim.write(0, ones)
        sim.write(1, pin)
        hot = sim.physical[0]
        before = sim.memory.wear_matrix()[hot]
        for i in range(256):
            sim.write(0, zero if i % 2 == 0 else ones)
        return int((sim.memory.wear_matrix()[hot] - before).max())

    assert run(True) < run(False)
