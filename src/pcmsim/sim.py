"""Single-scheme simulation: memory, scheme, wear leveling, stats, and the
two replay loops, `Simulation.replay` and lifetime mode's `run_lifetime`.

One Simulation owns one memory image and services one event stream; scheme
comparisons run independent instances over the same trace. Strictly
sequential and deterministic.
"""

from __future__ import annotations

from .core import (DeadBlockError, MetadataCache, PcmConfig, PcmMemory,
                   SimulationError, WriteOutcome)
from .schemes import WriteScheme, make_scheme
from .wearlevel import StartGapLeveler, WearConfig

# writes a look-ahead window holds at most (see `Simulation.windows`)
LOOK_AHEAD_WRITES = 64


class Simulation:
    """Replays trace events against one memory image under one scheme.

    A write or read of a block that already failed raises `DeadBlockError`,
    and so does a read of content a start-gap copy lost (see `read`). The
    write raises before `encode`, so it moves no finder state, and it does
    not count in `writes`, so it steps no leveler. Its page is already dead:
    the write or copy that wore the block out killed it (pinned by
    `tests/test_sim.py::test_every_address_mapped_to_a_failed_block_lies_on_a_dead_page`).
    `replay` stops at the first such access and sets `truncated`;
    `run_lifetime` states the lifetime policy.
    """

    def __init__(self, scheme_id: str, num_blocks: int, cfg: PcmConfig | None = None,
                 wear: WearConfig | None = None):
        self.cfg = cfg if cfg is not None else PcmConfig()
        self.num_blocks = num_blocks
        self.wear = wear if wear is not None else WearConfig()

        extra = 1 if self.wear.enabled else 0
        self.memory = PcmMemory(num_blocks, self.cfg, extra_blocks=extra)
        self.leveler = StartGapLeveler(num_blocks) if self.wear.enabled else None
        # each address's physical block; the leveler updates its table in place
        self.physical = self.leveler.physical if self.leveler else list(range(num_blocks))
        self.scheme: WriteScheme = make_scheme(scheme_id, self.cfg, self.wear)
        self.metadata_cache = (MetadataCache(self.cfg.metadata_cache_bytes,
                                             self.scheme.overhead_bits)
                               if self.scheme.metadata_cached else None)

        self.totals = WriteOutcome()
        self.writes = 0
        self.reads = 0
        self.truncated = False
        self.dropped_writes = 0
        self.capped = False

    def write(self, addr: int, payload: bytes) -> WriteOutcome:
        if not 0 <= addr < self.num_blocks:  # a list index would wrap a negative one
            raise SimulationError(f"block address {addr} outside memory")
        block = self.memory.blocks[self.physical[addr]]
        out = self.scheme.write(block, payload)
        if block.failed:  # this write wore the block out
            self.memory.kill_page(addr)
        block.lost = False
        if self.metadata_cache is not None:
            self.metadata_cache.touch(addr)
        self.writes += 1
        self.totals.add(out)
        if self.leveler and self.writes % self.wear.remap_period == 0:
            move = self.leveler.step(self.memory)
            if not self.scheme.copy_charges_meta:
                move.meta_flips_set = move.meta_flips_reset = 0
            self.totals.add(move)
        return out

    def read(self, addr: int) -> bytes:
        """Return the last data written to addr; a failed or lost block raises
        `DeadBlockError`.

        A start-gap step into a failed block still remaps the address, so the
        mapped block holds no copy of the content; the block is marked `lost`,
        and the mark moves with its stale image when a later step copies it
        into a healthy block. Neither may be read before the next write.
        """
        if not 0 <= addr < self.num_blocks:
            raise SimulationError(f"block address {addr} outside memory")
        block = self.memory.blocks[self.physical[addr]]
        if block.failed or block.lost:
            raise DeadBlockError("read of a dead block, or of content a start-gap copy lost")
        self.reads += 1
        if self.metadata_cache is not None:
            self.metadata_cache.touch(addr)
        return self.scheme.read(block)

    def windows(self, events):
        """Yield the trace in the pieces the replay loops run one after another.

        That is the whole trace, unless the scheme has a `look_ahead`. Then a
        window runs until it holds LOOK_AHEAD_WRITES writes or meets a second
        write to one address, and just before it runs the scheme's look-ahead
        gets its writes, as (block, data) in order. A write to an address
        outside memory is left out. A write to a failed block is not: it
        raises before `encode`, so its entry is never read, and a write
        sharing its key gets the same decision. A window is scanned after the
        one before it has run, so its blocks hold the content its writes will
        find, wherever start-gap steps move it.
        """
        look_ahead = self.scheme.look_ahead
        if look_ahead is None:
            yield events
            return
        n, blocks, physical = self.num_blocks, self.memory.blocks, self.physical
        window, writes = [], {}
        for ev in events:
            if ev.op == "W":
                addr = ev.addr
                if addr in writes or len(writes) == LOOK_AHEAD_WRITES:
                    look_ahead(writes.values())
                    yield window
                    window, writes = [], {}
                if 0 <= addr < n:
                    writes[addr] = blocks[physical[addr]], ev.payload
            window.append(ev)
        look_ahead(writes.values())
        yield window

    def replay(self, events) -> None:
        """Run a whole trace; the first dead-block access truncates it."""
        try:
            for window in self.windows(events):
                for op, addr, payload in window:
                    if op == "W":
                        self.write(addr, payload)
                    else:
                        self.read(addr)
        except DeadBlockError:
            self.truncated = True


def run_lifetime(sim: Simulation, events, max_writes: int = 100_000_000) -> None:
    """Replay a trace cyclically until capacity drops below one half.

    `sim.writes` counts the writes serviced. A write to a failed block is
    dropped and counted in `sim.dropped_writes`, and a read of one, or of
    content a start-gap copy lost, is skipped uncounted; the other blocks of
    a dead page go on serving both. The run also ends with capacity at one
    half or more, and `sim.capped` set, when `max_writes` write attempts
    are made, or after a pass of the trace that services no write: a
    dropped write changes no state and a read changes no block, so every
    later pass would repeat that one.
    """
    events = tuple(events)  # replayed cyclically, so an iterator must not be used up
    if not any(ev.op == "W" for ev in events):
        raise SimulationError("trace cannot wear memory: it contains no writes")
    attempts = 0
    while True:
        serviced = sim.writes
        for window in sim.windows(events):
            for op, addr, payload in window:
                if op != "W":
                    try:
                        sim.read(addr)
                    except DeadBlockError:
                        pass  # a failed or lost block has nothing to read
                    continue
                try:
                    sim.write(addr, payload)
                except DeadBlockError:
                    sim.dropped_writes += 1
                attempts += 1
                capacity = sim.memory.live_capacity()
                if capacity < 0.5 or attempts >= max_writes:
                    sim.capped = capacity >= 0.5
                    return
        if sim.writes == serviced:
            sim.capped = True
            return
