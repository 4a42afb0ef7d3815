import random
from unittest import mock

import pytest

from pcmsim import (DeadBlockError, GenSpec, MfvFinder, PcmConfig, Simulation,
                    SimulationError, TraceEvent, WearConfig, build_report, preset_spec,
                    generate, mfv_coverage, run_lifetime, schemes)

from helpers import PerGranuleFinder, fifo, freeze_codebook


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


# ---------------------------------------------------------------------------
# wire's look-ahead: the same run with and without it

def churn_events(phase_events: int, num_blocks: int):
    """FV churn at g8: three phases of 20 equally likely values (0-19, then
    100-119, then 0-19), 50% reads, more than the 16-entry FV table holds,
    so entries retire and codebook versions are built all along the replay."""
    events = []
    for phase, base in enumerate((0, 100, 0)):
        spec = GenSpec(events=phase_events, read_fraction=0.5, seed=phase,
                       values={base + v: 0.05 for v in range(20)})
        events += generate(spec, num_blocks=num_blocks, granule_bits=8)
    return events


def churn_g8():
    return Simulation("wire", 32, PcmConfig(granule_bits=8)), churn_events(1_500, 32)


def zipf_lifetime(wear: bool):
    """A lifetime run on zipf addresses to half capacity, with dead pages and
    dropped writes; with wear leveling, start-gap steps every 7 writes and
    epoch bumps every 8 writes per block."""
    spec = GenSpec(events=400, read_fraction=0.25, address_zipf_s=1.2,
                   values={0x0: 0.5, 0xF: 0.5}, seed=3)
    sim = Simulation("wire", 32, PcmConfig(cell_endurance=200, page_bytes=256),
                     WearConfig(enabled=wear, epoch_writes=8, remap_period=7))
    return sim, generate(spec, num_blocks=32)


def remap_every_3_writes():
    """Start-gap steps every 3 writes, so several land inside each window."""
    spec = preset_spec("balanced", events=3_000, seed=5)
    sim = Simulation("wire", 32, PcmConfig(),
                     WearConfig(enabled=True, epoch_writes=4, remap_period=3))
    return sim, generate(spec, num_blocks=32)


def few_payloads_remap_every_2_writes():
    """Every block in shuffled order each pass, each write one of three
    payloads, with start-gap steps every 2 writes: blocks take over other
    blocks' content inside a window, and many writes carry equal payloads
    onto different stored bits and rotation counters."""
    rng = random.Random(9)
    payloads = [bytes([0xFF]) * 64, rng.randbytes(64), rng.randbytes(64)]
    events = []
    for _ in range(12):
        order = list(range(16))
        rng.shuffle(order)
        events += [TraceEvent("W", a, rng.choice(payloads)) for a in order]
    sim = Simulation("wire", 16, PcmConfig(),
                     WearConfig(enabled=True, epoch_writes=4, remap_period=2))
    return sim, events


def address_outside_memory():
    """Rounds of writes to blocks 0-7, each round a window; the fourth
    window meets block 8, outside memory, after four of its writes."""
    payloads = [ev.payload for ev in generate(preset_spec("balanced", events=200, seed=7),
                                              num_blocks=8) if ev.op == "W"]
    events = []
    for k, addr in enumerate(list(range(8)) * 3 + [0, 1, 2, 3, 8, 4, 5, 6, 7]):
        events += [TraceEvent("W", addr, payloads[k]), TraceEvent("R", addr)]
    return Simulation("wire", 8), events


def recorded_run(make, lifetime: bool, look_ahead: bool):
    """Run a scenario; returns its end state, every read's bytes and the error
    that stopped it, and the number of `optimal_rotation` calls."""
    sim, events = make()
    if not look_ahead:
        sim.scheme.look_ahead = None
    reads = []
    read = sim.read

    def recording_read(addr):
        data = read(addr)
        reads.append((addr, data))
        return data

    sim.read = recording_read
    error = None
    with mock.patch.object(schemes, "optimal_rotation",
                           wraps=schemes.optimal_rotation) as search:
        try:
            if lifetime:
                run_lifetime(sim, events, max_writes=20_000)
            else:
                sim.replay(events)
        except SimulationError as exc:
            error = (type(exc), str(exc))
    state = {
        "totals": sim.totals, "writes": sim.writes, "reads": reads, "error": error,
        "wear": sim.memory.wear_matrix().tolist(), "dead_pages": sim.memory.dead_pages,
        "dropped_writes": sim.dropped_writes, "truncated": sim.truncated,
        "capped": sim.capped, "meta_extra_reads": sim.meta_extra_reads(),
        "blocks": [(b.bits, b.meta, b.tags, b.lost, b.failed) for b in sim.memory.blocks],
    }
    return sim, state, search.call_count


def retired_fv_entries(sim, state):
    # more promotions than the FV table holds: entries retired in between
    return sim.scheme.finder.generation > sim.scheme.finder.fv_entries


def dropped_writes_to_dead_pages(sim, state):
    return sim.memory.dead_pages and sim.dropped_writes and not sim.capped


def raised_at_block_8(sim, state):
    return state["error"] == (SimulationError, "block address 8 outside memory") \
        and sim.writes == 28


# scenario -> (make, run_lifetime?, the path it reaches)
LOOK_AHEAD_SCENARIOS = {
    "churn-g8": (churn_g8, False, retired_fv_entries),
    "zipf-lifetime": (lambda: zipf_lifetime(False), True, dropped_writes_to_dead_pages),
    "zipf-lifetime-wear": (lambda: zipf_lifetime(True), True, dropped_writes_to_dead_pages),
    "remap-3": (remap_every_3_writes, False, lambda sim, state: sim.leveler.start > 0),
    "few-payloads-remap-2": (few_payloads_remap_every_2_writes, False,
                             lambda sim, state: sim.leveler.start > 0),
    "outside-memory": (address_outside_memory, False, raised_at_block_8),
    "outside-memory-lifetime": (address_outside_memory, True, raised_at_block_8),
}


@pytest.mark.parametrize("scenario", sorted(LOOK_AHEAD_SCENARIOS))
def test_wire_look_ahead_changes_no_result(scenario):
    make, lifetime, reached = LOOK_AHEAD_SCENARIOS[scenario]
    sim, state, searches = recorded_run(make, lifetime, look_ahead=True)
    _, reference, reference_searches = recorded_run(make, lifetime, look_ahead=False)
    assert state == reference
    assert reached(sim, state)
    assert reference_searches == sim.writes and searches < sim.writes / 2


def test_wire_searches_rotations_ahead_for_almost_every_write():
    """`optimal_rotation` runs only for the writes the look-ahead missed."""
    events = generate(preset_spec("balanced", events=4_000, seed=1), num_blocks=256)
    sim = Simulation("wire", 256)
    with mock.patch.object(schemes, "optimal_rotation",
                           wraps=schemes.optimal_rotation) as search:
        sim.replay(events)
    assert 0 < search.call_count < 0.05 * sim.writes


def test_wire_look_ahead_follows_content_a_start_gap_step_moved():
    """A start-gap step after every write moves the content of the window's
    later addresses; their writes still find the results searched for it."""
    sim = Simulation("wire", 4, PcmConfig(),
                     WearConfig(enabled=True, epoch_writes=10**6, remap_period=1))
    freeze_codebook(sim.scheme)
    rng = random.Random(5)
    payloads = [rng.randbytes(64) for _ in range(4)]
    # four writes to distinct addresses: one look-ahead window
    events = [TraceEvent("W", addr, payload) for addr, payload in enumerate(payloads)]
    with mock.patch.object(schemes, "optimal_rotation",
                           wraps=schemes.optimal_rotation) as search:
        sim.replay(events)
    assert search.call_count == 0
    assert sim.leveler.gap < 4  # the steps moved content
    assert [sim.read(addr) for addr in range(4)] == payloads


def test_wire_replays_bytearray_payloads():
    # a bytearray cannot key a looked-ahead result; its write searches for itself
    rng = random.Random(6)
    payloads = [bytearray(rng.randbytes(64)) for _ in range(4)]
    sim = Simulation("wire", 4)
    sim.replay([TraceEvent("W", addr, payload) for addr, payload in enumerate(payloads)] * 2)
    assert [sim.read(addr) for addr in range(4)] == payloads


# ---------------------------------------------------------------------------
# a block's references follow its content

@pytest.mark.parametrize("scenario", sorted(LOOK_AHEAD_SCENARIOS))
def test_finder_pointers_count_the_addresses_holding_each_value(scenario):
    """Through churn, start-gap copies, dead pages and lost blocks, each FV
    entry's pointer is the number of addresses whose block's tags hold it."""
    make, lifetime, _ = LOOK_AHEAD_SCENARIOS[scenario]
    sim, _, _ = recorded_run(make, lifetime, look_ahead=True)
    masks = [(sim.memory.blocks[sim._physical(addr)].tags or (0, 0, 0))[2]
             for addr in range(sim.num_blocks)]
    pointers = {v: e.pointer for v, e in sim.scheme.finder.fv.items()}
    assert pointers == {v: sum(m >> v & 1 for m in masks) for v in pointers}
    assert all(pointers.values())


def test_a_block_rewriting_the_value_only_it_holds_keeps_its_entry():
    sim = Simulation("wire", 1)
    for _ in range(40):
        sim.write(0, bytes(64))
    assert len(sim.scheme.versions) == 2
    assert {v: e.pointer for v, e in sim.scheme.finder.fv.items()} == {0: 1}


def test_churn_retires_only_the_values_no_block_holds():
    """`churn_events` at 6,000 events a phase over 64 blocks: the finder's
    promotions and retirements under `wire`, and its report row."""
    events = churn_events(6_000, 64)
    sim = Simulation("wire", 64, PcmConfig(granule_bits=8))
    finder = sim.scheme.finder
    installs = []
    install = finder._install
    finder._install = lambda v: installs.append(install(v)) or installs[-1]
    sim.replay(events)
    promotions = sum(installs)
    assert (promotions, finder.generation - promotions) == (49, 33)
    coverage = mfv_coverage((ev.payload for ev in events if ev.op == "W"), 8)
    assert ",".join(build_report(sim, coverage).csv_row()) == (
        "wire,9010,8990,661761,653665,49653,22294135.500000,0.271073314361,0,0.000000000,"
        "64,0.033650,0.067264,0.100825,0.134346,0.167857,48")


# ---------------------------------------------------------------------------
# bulk FV credit: the codebook versions of per-granule counting

def balanced_seed_1():
    events = generate(preset_spec("balanced", events=4_000, seed=1), num_blocks=256)
    return Simulation("wire", 256), events


@pytest.mark.parametrize("make", [balanced_seed_1, churn_g8], ids=["balanced", "churn-g8"])
def test_bulk_fv_credit_builds_the_per_granule_codebook_versions(make):
    def run(finder):
        sim, events = make()
        sim.scheme.finder = finder
        promoted = []
        install = finder._install
        finder._install = lambda v: install(v) and (promoted.append(v) or True)
        sim.replay(events)
        finder.flush()
        return sim, promoted, {v: (e.counter, e.pointer) for v, e in finder.fv.items()}

    sim, promoted, entries = run(MfvFinder())
    reference, reference_promoted, reference_entries = run(PerGranuleFinder())
    assert sim.scheme.versions == reference.scheme.versions
    assert (promoted, entries) == (reference_promoted, reference_entries)
    assert sim.totals == reference.totals
    assert len(sim.scheme.versions) > 4
    if make is churn_g8:  # entries retire and values come back
        assert len(promoted) > len(set(promoted)) > sim.scheme.finder.fv_entries
