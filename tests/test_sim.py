import random

import pytest

from pcmsim import (DeadBlockError, MfvFinder, PcmConfig, Simulation,
                    SimulationError, TraceEvent, WearConfig, preset_spec,
                    generate, run_lifetime)

from helpers import fifo


def test_data_flip_counts_conserve_cell_wear():
    # every counted data flip wears exactly one cell, including remap copies
    spec = preset_spec("balanced", events=2_000, seed=19)
    events = generate(spec, num_blocks=8)
    wear = WearConfig(enabled=True, epoch_writes=16, remap_period=100)
    for scheme_id in ("plain", "diffwrite", "fnw", "wire"):
        sim = Simulation(scheme_id, 8, wear=wear)
        sim.replay(events)
        assert int(sim.memory.wear_matrix().sum()) == sim.totals.flips


def test_lifetime_mode_drops_writes_to_dead_blocks():
    cfg = PcmConfig(cell_endurance=2, page_bytes=128)
    sim = Simulation("plain", 4, cfg)
    run_lifetime(sim, [TraceEvent("W", 0, bytes(64))], max_writes=4)
    assert sim.memory.blocks[0].failed
    assert sim.dropped_writes == 1
    assert sim.writes == 3
    assert sim.memory.live_capacity() == 0.5


def test_run_lifetime_on_a_default_simulation_drops_dead_writes_and_finishes():
    # block 0 dies on its third write; its later writes are dropped until
    # block 1 dies too and capacity falls below one half
    cfg = PcmConfig(cell_endurance=2, page_bytes=64)
    sim = Simulation("plain", 2, cfg)
    events = [TraceEvent("W", 0, bytes(64))] * 2 + [TraceEvent("W", 1, bytes(64))]
    run_lifetime(sim, events)
    assert not sim.capped
    assert (sim.writes, sim.dropped_writes, sim.memory.live_capacity()) == (6, 3, 0.0)


def test_read_after_start_gap_move_into_failed_block_raises():
    # the gap step skips the copy into the failed spare block but still
    # remaps logical block 3 onto it, so the block holds none of its content
    sim = Simulation("diffwrite", 4, PcmConfig(page_bytes=64),
                     WearConfig(enabled=True, remap_period=1))
    sim.memory.blocks[4].failed = True
    sim.write(3, b"\xaa" * 64)
    assert sim.leveler.map(3) == 4
    with pytest.raises(DeadBlockError):
        sim.read(3)
    assert sim.reads == 0


def stale_copy_sim():
    """Address 3's content is lost: the gap step after its write skips the
    copy into the failed spare block 4, and the fourth later step copies
    block 4's stale image into block 0, where address 3 then lives."""
    sim = Simulation("diffwrite", 4, PcmConfig(page_bytes=64),
                     WearConfig(enabled=True, remap_period=1))
    sim.memory.blocks[4].failed = True
    events = [TraceEvent("W", 3, b"\xaa" * 64)]
    events += [TraceEvent("W", addr, bytes(64)) for addr in (0, 1, 2, 0)]
    return sim, events


def test_read_of_a_stale_image_copied_out_of_a_failed_block_raises():
    sim, events = stale_copy_sim()
    sim.replay(events)
    assert sim.leveler.map(3) == 0 and not sim.memory.blocks[0].failed
    with pytest.raises(DeadBlockError):
        sim.read(3)  # block 0 holds zeros, not the 0xAA written to address 3
    assert sim.reads == 0
    sim.write(3, b"\x55" * 64)  # a serviced write restores the address
    assert sim.read(3) == b"\x55" * 64


def test_lifetime_replay_skips_reads_of_lost_content():
    sim, events = stale_copy_sim()
    run_lifetime(sim, events + [TraceEvent("R", 3), TraceEvent("W", 1, bytes(64))],
                 max_writes=6)
    assert (sim.writes, sim.dropped_writes, sim.reads, sim.capped) == (6, 0, 0, True)


def test_lifetime_replay_skips_reads_of_dead_blocks():
    # block 0 dies on its third write; half the pages stay live, so replay
    # runs to the cap and every later read of block 0 is skipped
    cfg = PcmConfig(cell_endurance=2, page_bytes=64)
    sim = Simulation("plain", 2, cfg)
    events = [TraceEvent("W", 0, bytes(64)), TraceEvent("R", 0)]
    run_lifetime(sim, events, max_writes=10)
    assert sim.capped
    assert (sim.writes, sim.dropped_writes, sim.reads) == (3, 7, 2)


def test_lifetime_keeps_writing_live_blocks_of_a_dead_page():
    # block 0 dies on its third write and kills page 0; block 1 shares the
    # page but has not failed, so its writes are still serviced
    sim = Simulation("diffwrite", 4, PcmConfig(cell_endurance=2, page_bytes=128))
    zeros, ones = bytes(64), bytes([0xFF] * 64)
    events = [TraceEvent("W", 0, zeros), TraceEvent("W", 0, ones),
              TraceEvent("W", 1, zeros)]
    run_lifetime(sim, events, max_writes=30)
    assert sim.memory.dead_pages == {0}
    assert [b.failed for b in sim.memory.blocks] == [True, False, False, False]
    assert (sim.writes, sim.dropped_writes) == (14, 16)
    assert sim.capped


def test_out_of_range_address_rejected():
    sim = Simulation("plain", 4)
    with pytest.raises(SimulationError):
        sim.write(4, bytes(64))
    with pytest.raises(SimulationError):
        sim.read(-1)


def test_fifo_counters_stay_bounded_under_fuzz():
    rng = random.Random(61)
    f = MfvFinder(fifo_entries=6, sat_max=5, fv_entries=4)
    for _ in range(20_000):
        f.observe(rng.randrange(32))
        assert len(fifo(f)) <= 6
        values = [e.value for e in fifo(f)]
        assert len(values) == len(set(values))
        assert all(0 <= e.sat_counter <= 5 for e in fifo(f))
        ranked = f.ranked_values()
        assert len(ranked) == len(set(ranked))
