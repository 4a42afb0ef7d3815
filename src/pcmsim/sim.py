"""Single-scheme simulation instance: memory, scheme, wear leveling, stats.

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
    and so does a read of content a start-gap copy lost (see `read`); the
    write also marks its page dead. `replay` stops at the first such
    access and sets `truncated`; `run_lifetime` drops the write (counted in
    `dropped_writes`) or skips the read, goes on, and sets `capped` if its
    cap on write attempts ended the run.
    """

    def __init__(self, scheme_id: str, num_blocks: int, cfg: PcmConfig | None = None,
                 wear: WearConfig | None = None, *, fnw_word_bits: int = 16):
        self.cfg = cfg if cfg is not None else PcmConfig()
        self.num_blocks = num_blocks
        self.wear = wear if wear is not None else WearConfig()

        extra = 1 if self.wear.enabled else 0
        self.memory = PcmMemory(num_blocks, self.cfg, extra_blocks=extra)
        self.leveler = StartGapLeveler(num_blocks) if self.wear.enabled else None
        self.metadata_cache = MetadataCache(self.cfg) if scheme_id == "wire" else None
        self.scheme: WriteScheme = make_scheme(
            scheme_id, self.cfg, fnw_word_bits=fnw_word_bits, wear=self.wear)

        self.totals = WriteOutcome()
        self.writes = 0
        self.reads = 0
        self.truncated = False
        self.dropped_writes = 0
        self.capped = False

    def _physical(self, logical: int) -> int:
        if logical < 0 or logical >= self.num_blocks:
            raise SimulationError(f"block address {logical} outside memory")
        return self.leveler.map(logical) if self.leveler else logical

    def write(self, addr: int, payload: bytes) -> WriteOutcome:
        block = self.memory.blocks[self._physical(addr)]
        if block.failed:
            self.memory.kill_page(addr)
            raise DeadBlockError("write to dead block")
        out = self.scheme.write(block, payload)
        block.lost = False
        if self.metadata_cache is not None:
            self.metadata_cache.touch(addr)
        if block.failed:
            self.memory.kill_page(addr)
        self.writes += 1
        self.totals.add(out)
        if self.leveler and self.writes % self.wear.remap_period == 0:
            move = self.leveler.step(self.memory)
            if self.scheme.scheme_id == "fnw":
                # the one uncharged metadata move, kept for the goldens:
                # FNW flip bits travel with a start-gap copy for free
                move.meta_flips_set = move.meta_flips_reset = 0
            self.totals.add(move)
        return out

    def read(self, addr: int) -> bytes:
        """Return the last data written to addr; a failed or lost block raises.

        A start-gap step into a failed block still remaps the address, so the
        mapped block holds no copy of the content; the block is marked `lost`,
        and the mark moves with its stale image when a later step copies it
        into a healthy block. Neither may be read before the next write.
        """
        block = self.memory.blocks[self._physical(addr)]
        if block.failed:
            raise DeadBlockError("read of dead block")
        if block.lost:
            raise DeadBlockError("read of content lost to a start-gap copy into a dead block")
        self.reads += 1
        if self.metadata_cache is not None:
            self.metadata_cache.touch(addr)
        return self.scheme.read(block)

    def windows(self, events):
        """Yield the trace in the pieces the replay loops run one after another.

        That is the whole trace, unless the scheme has a `look_ahead`. Then a
        window runs until it holds LOOK_AHEAD_WRITES writes or meets a second
        write to one address, and just before it runs the scheme's look-ahead
        gets its writes, as (block, data) in order. Writes that will raise, to
        an address outside memory or to a failed block, are left out. A
        window is scanned after the one before it has run, so its blocks are
        found as its writes will find them, bar start-gap steps inside it.
        """
        look_ahead = self.scheme.look_ahead
        if look_ahead is None:
            yield events
            return
        n, blocks, physical = self.num_blocks, self.memory.blocks, self._physical
        window, writes = [], {}
        for ev in events:
            if ev.op == "W":
                addr = ev.addr
                if addr in writes or len(writes) == LOOK_AHEAD_WRITES:
                    look_ahead(writes.values())
                    yield window
                    window, writes = [], {}
                if 0 <= addr < n:
                    block = blocks[physical(addr)]
                    if not block.failed:
                        writes[addr] = block, ev.payload
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

    def energy_pj(self) -> float:
        return self.totals.energy_pj(self.cfg)

    def meta_extra_reads(self) -> int:
        """Metadata lines fetched from the array: the metadata cache's misses."""
        return self.metadata_cache.misses if self.metadata_cache is not None else 0
