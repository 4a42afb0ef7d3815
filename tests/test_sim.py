import random
from unittest import mock

import pytest

from pcmsim import (ConfigError, DeadBlockError, GenSpec, MfvFinder, PcmConfig, Simulation,
                    SimulationError, TraceEvent, WearConfig, build_report, preset_spec,
                    generate, mfv_coverage, next_epoch, run_lifetime, schemes)
from pcmsim.metrics import reports_to_csv
from pcmsim.sim import LOOK_AHEAD_WRITES
from pcmsim.trace import PRESET_VALUES

from helpers import PerGranuleFinder, alternation_events, fifo, freeze_codebook


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
    assert sim.leveler.physical[3] == 4
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
    assert sim.leveler.physical[3] == 0 and not sim.memory.blocks[0].failed
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
    # block 0 dies on its third write and its read in that pass is skipped;
    # half the pages stay live, and the fourth pass drops its one write, so
    # the run ends there, capped, long before max_writes
    cfg = PcmConfig(cell_endurance=2, page_bytes=64)
    sim = Simulation("plain", 2, cfg)
    events = [TraceEvent("W", 0, bytes(64)), TraceEvent("R", 0)]
    run_lifetime(sim, events, max_writes=10)
    assert sim.capped
    assert (sim.writes, sim.dropped_writes, sim.reads) == (3, 1, 2)


@pytest.mark.parametrize("scheme_id, counts", [
    ("plain", (1001, 3)), ("diffwrite", (1002, 2)), ("wire", (1002, 2))])
def test_lifetime_ends_after_a_pass_that_services_no_write(scheme_id, counts):
    # a trace that writes only block 0: once the block dies every pass drops
    # both writes, a fixed point, so the run ends after the first such pass
    # instead of dropping writes until max_writes
    events = [TraceEvent("W", 0, bytes(64)), TraceEvent("W", 0, b"\xff" * 64)]
    sim = Simulation(scheme_id, 256)
    run_lifetime(sim, events, max_writes=1_000_000)
    assert (sim.writes, sim.dropped_writes) == counts
    assert sim.capped and sim.memory.live_capacity() == 0.75
    # a second run is that same fixed point: no write serviced, no cell worn
    wear = sim.memory.wear_matrix().copy()
    run_lifetime(sim, events, max_writes=1_000_000)
    assert sim.writes == counts[0] and sim.capped
    assert (sim.memory.wear_matrix() == wear).all()


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


@pytest.mark.parametrize("scheme_id", ["plain", "diffwrite", "fnw", "wire"])
def test_every_address_mapped_to_a_failed_block_lies_on_a_dead_page(scheme_id):
    # blocks fail under writes and under start-gap copies, and steps remap
    # addresses onto failed blocks; after each event, every such address's
    # page is dead. Three passes, dead-block accesses skipped as in lifetime mode.
    # So a refused write kills no page: its page is already dead
    spec = GenSpec(events=3_000, read_fraction=0.25, address_zipf_s=1.2,
                   values={0x0: 0.5, 0xF: 0.5}, seed=1)
    events = generate(spec, num_blocks=32)
    sim = Simulation(scheme_id, 32, PcmConfig(cell_endurance=60, page_bytes=256),
                     WearConfig(enabled=True, epoch_writes=16, remap_period=7))
    blocks, per_page = sim.memory.blocks, sim.cfg.blocks_per_page
    refused_writes = 0
    for ev in events * 3:
        dead = set(sim.memory.dead_pages)
        try:
            if ev.op == "W":
                sim.write(ev.addr, ev.payload)
            else:
                sim.read(ev.addr)
        except DeadBlockError:
            assert sim.memory.dead_pages == dead
            refused_writes += ev.op == "W"
        failed = {addr // per_page for addr in range(32) if blocks[sim.physical[addr]].failed}
        assert failed <= sim.memory.dead_pages
    assert failed  # the check ran on addresses mapped to failed blocks
    assert refused_writes  # and on refused writes


def test_simulation_needs_at_least_one_block():
    with pytest.raises(ConfigError, match="memory needs at least one block"):
        Simulation("plain", 0)


@pytest.mark.parametrize("scheme_id", ["plain", "diffwrite", "fnw", "wire"])
@pytest.mark.parametrize("wear", [False, True])
@pytest.mark.parametrize("op", ["write", "read"])
@pytest.mark.parametrize("addr", [-1, -4, 4])
def test_out_of_range_address_rejected(scheme_id, wear, op, addr):
    # a negative address must not index the table from its end
    sim = Simulation(scheme_id, 4, wear=WearConfig(enabled=wear, remap_period=1))
    sim.write(0, bytes(64))
    args = (addr, b"\xff" * 64) if op == "write" else (addr,)
    with pytest.raises(SimulationError, match=f"^block address {addr} outside memory$"):
        getattr(sim, op)(*args)
    assert (sim.writes, sim.reads) == (1, 0)


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


def full_windows():
    """128 blocks written in three shuffled full passes: each pass is 128
    writes to distinct addresses, more than a window holds."""
    rng = random.Random(4)
    payloads = [ev.payload for ev in generate(preset_spec("balanced", events=1_000, seed=4),
                                              num_blocks=128) if ev.op == "W"]
    events = []
    for _ in range(3):
        order = list(range(128))
        rng.shuffle(order)
        events += [TraceEvent("W", a, payloads.pop()) for a in order]
    return Simulation("wire", 128), events


def alternation_lifetime():
    """Criterion 9's 0x00/0xFF alternation over 16 blocks, replayed to wear-out
    with an epoch bump every 3 writes per block and a start-gap step every 5
    writes: the blocks of a window mostly hold one of two images and get one
    of two payloads, so most writes repeat another's key, and bumps and steps
    land between them."""
    sim = Simulation("wire", 16, PcmConfig(cell_endurance=60, page_bytes=256),
                     WearConfig(enabled=True, epoch_writes=3, remap_period=5))
    return sim, alternation_events(16, passes=2)


def multi_program_events(programs: int, events: int, seed: int):
    """A multi-programmed mix at g8 over 256 blocks: `programs` generated
    traces of `events // programs` events each, 50% reads. Program p owns the
    p-th of `programs` equal address ranges, draws the five hot values
    {5p, ..., 5p+4} with the presets' probabilities, and is generated with
    seed 100 * seed + p. The programs' events interleave in a seeded random
    order that keeps each program's own order."""
    span, each = 256 // programs, events // programs
    streams = []
    for p in range(programs):
        spec = GenSpec(events=each, read_fraction=0.5, seed=100 * seed + p,
                       values={5 * p + i: q for i, q in enumerate(PRESET_VALUES.values())})
        streams.append(iter([TraceEvent(op, addr + p * span, payload) for op, addr, payload
                             in generate(spec, num_blocks=span, granule_bits=8)]))
    order = [p for p in range(programs) for _ in range(each)]
    random.Random(seed).shuffle(order)
    return [next(streams[p]) for p in order]


def eight_programs():
    return Simulation("wire", 256, PcmConfig(granule_bits=8)), multi_program_events(8, 4_000, 1)


def recorded_run(make, lifetime: bool, look_ahead: bool):
    """Run a scenario; returns its end state, every read's bytes and the error
    that stopped it, and the number of `optimal_rotation` calls. With the
    look-ahead, `sim.window_sizes` and `sim.window_keys` record the writes
    each window's look-ahead is given and the distinct keys it keeps."""
    sim, events = make()
    if look_ahead:
        prepare, sim.window_sizes, sim.window_keys = sim.scheme.look_ahead, [], []

        def recording_look_ahead(writes):
            prepare(writes)
            sim.window_sizes.append(len(writes))
            sim.window_keys.append(len(sim.scheme._ahead))

        sim.scheme.look_ahead = recording_look_ahead
    else:
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
        "capped": sim.capped, "meta_extra_reads": sim.metadata_cache.misses,
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


def wrapped_the_gap(sim, state):
    # a full gap cycle: more start-gap steps than there are addresses
    return sim.writes // sim.wear.remap_period > sim.num_blocks


def shared_keys_and_dropped_writes(sim, state):
    # fewer than one in five prepared writes is a new key in its window
    return 5 * sum(sim.window_keys) < sum(sim.window_sizes) \
        and dropped_writes_to_dead_pages(sim, state)


def every_program_holds_fv_entries(sim, state):
    # a full FV table shared by all eight programs' hot values
    fv = sim.scheme.finder.fv
    return len(fv) == sim.scheme.finder.fv_entries and {v // 5 for v in fv} == set(range(8))


def closed_a_window_at_the_cap(sim, state):
    # the first 65 writes are to distinct addresses: the 65th opens a new window
    return sim.window_sizes[0] == max(sim.window_sizes) == LOOK_AHEAD_WRITES


# scenario -> (make, run_lifetime?, the path it reaches)
LOOK_AHEAD_SCENARIOS = {
    "churn-g8": (churn_g8, False, retired_fv_entries),
    "zipf-lifetime": (lambda: zipf_lifetime(False), True, dropped_writes_to_dead_pages),
    "zipf-lifetime-wear": (lambda: zipf_lifetime(True), True, dropped_writes_to_dead_pages),
    "remap-3": (remap_every_3_writes, False, wrapped_the_gap),
    "few-payloads-remap-2": (few_payloads_remap_every_2_writes, False, wrapped_the_gap),
    "alternation-lifetime": (alternation_lifetime, True, shared_keys_and_dropped_writes),
    "outside-memory": (address_outside_memory, False, raised_at_block_8),
    "outside-memory-lifetime": (address_outside_memory, True, raised_at_block_8),
    "full-windows": (full_windows, False, closed_a_window_at_the_cap),
    "multi-program-8": (eight_programs, False, every_program_holds_fv_entries),
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


def test_wire_look_ahead_decides_epoch_bumps_without_a_search():
    """With the codebook frozen, every write of a replay takes its epoch and
    rotations from the look-ahead, bumps included."""
    events = generate(preset_spec("balanced", events=2_000, seed=3), num_blocks=16)
    sim = Simulation("wire", 16, PcmConfig(), WearConfig(enabled=True, epoch_writes=4))
    freeze_codebook(sim.scheme)
    decided = []

    def recording_next_epoch(*args):
        decided.append(next_epoch(*args))
        return decided[-1]

    with mock.patch.object(schemes, "optimal_rotation",
                           wraps=schemes.optimal_rotation) as search, \
            mock.patch.object(schemes, "next_epoch", recording_next_epoch):
        sim.replay(events)
    assert search.call_count == 0
    assert len(decided) == sim.writes
    assert sum(bumped for _, bumped in decided) > 10


# scenario -> the most `optimal_rotation` calls its look-ahead run may make
SEARCH_BOUNDS = {"remap-3": 19, "zipf-lifetime-wear": 9}


@pytest.mark.parametrize("scenario", sorted(SEARCH_BOUNDS))
def test_wire_look_ahead_searches_epoch_bumps_once(scenario):
    make, lifetime, _ = LOOK_AHEAD_SCENARIOS[scenario]
    _, _, searches = recorded_run(make, lifetime, look_ahead=True)
    assert searches <= SEARCH_BOUNDS[scenario]


@pytest.mark.parametrize("scenario", ["remap-3", "full-windows", "alternation-lifetime"])
def test_wire_decides_each_write_epoch_once(scenario):
    """The look-ahead decides the epoch of each write it is given, a repeated
    key too, and no write decides its own. A lifetime run also prepares
    writes it then drops, or at its end never makes."""
    make, lifetime, _ = LOOK_AHEAD_SCENARIOS[scenario]
    with mock.patch.object(schemes, "next_epoch", wraps=schemes.next_epoch) as decide:
        sim, state, _ = recorded_run(make, lifetime, look_ahead=True)
    assert state["error"] is None and not state["truncated"]
    assert decide.call_count == sum(sim.window_sizes)
    unserviced = decide.call_count - sim.writes
    assert 0 <= unserviced <= (sim.dropped_writes + LOOK_AHEAD_WRITES if lifetime else 0)


def test_wire_look_ahead_searches_each_repeated_key_once():
    """Eight fresh blocks written with one payload share one key, so the
    window's batch is one row; they then hold one image, and the next window's
    payload makes one row again. Every block ends as it does without the
    look-ahead."""
    payloads = [bytes([0x5A]) * 64, bytes([0xC3]) * 64]
    events = [TraceEvent("W", addr, payload) for payload in payloads for addr in range(8)]
    sim, reference = Simulation("wire", 8), Simulation("wire", 8)
    reference.scheme.look_ahead = None
    with mock.patch.object(schemes, "optimal_rotations",
                           wraps=schemes.optimal_rotations) as batch:
        sim.replay(events)
    reference.replay(events)
    rows = [len(call.args[0]) // sim.cfg.block_bytes for call in batch.call_args_list]
    assert rows == [1, 1]
    assert [(b.bits, b.meta, b.tags) for b in sim.memory.blocks] \
        == [(b.bits, b.meta, b.tags) for b in reference.memory.blocks]


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
    masks = [(sim.memory.blocks[sim.physical[addr]].tags or (0, 0, 0))[2]
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
    assert reports_to_csv([build_report(sim, coverage)]).splitlines()[1] == (
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


# ---------------------------------------------------------------------------
# multi-programmed mixes: one finder and codebook for programs with disjoint hot values

@pytest.mark.parametrize("programs, rows", [
    (1, ("diffwrite,12032,11968,706148,688205,0,22746534.000000,0.544215145303,0,0.000000000,"
         "0,0.470902,0.670763,0.730884,0.780690,0.820761,0",
         "wire,12032,11968,627390,608554,85813,21550258.500000,0.403662178433,0,0.000000000,"
         "256,0.470902,0.670763,0.730884,0.780690,0.820761,48")),
    (8, ("diffwrite,11965,12035,868961,823304,0,27538410.300000,0.503980388364,0,0.000000000,"
         "0,0.061075,0.121213,0.181298,0.240833,0.299990,0",
         "wire,11965,12035,872979,834152,52715,28655685.900000,0.34076548523,0,0.000000000,"
         "256,0.061075,0.121213,0.181298,0.240833,0.299990,48")),
])
def test_multi_program_mix_rows_are_pinned(programs, rows):
    """The mix of 24,000 events over 256 blocks at g8, seed 1, wear off: the
    `diffwrite` and `wire` rows. With one program `wire` spends 5.3% less
    energy than `diffwrite`; with eight, each its own hot values, 4.1% more,
    and flips more data cells too. Today's behaviour, not a claim: a change
    to the codebook's layout or to the finder moves these rows."""
    events = multi_program_events(programs, 24_000, 1)
    coverage = mfv_coverage((ev.payload for ev in events if ev.op == "W"), 8)
    reports = []
    for scheme_id in ("diffwrite", "wire"):
        sim = Simulation(scheme_id, 256, PcmConfig(granule_bits=8))
        sim.replay(events)
        reports.append(build_report(sim, coverage))
    assert tuple(reports_to_csv(reports).splitlines()[1:]) == rows
