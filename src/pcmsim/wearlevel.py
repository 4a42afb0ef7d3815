"""Wear leveling: codeword-bit epoch rotation plus start-gap block remapping.

Epoch rotation (applied by `wire`'s encode tables) shifts every codeword's bit
positions by the block's epoch tag so the single difference bit between
consecutively ranked codewords migrates across cell positions over time.
Start-gap remapping slides block contents through one spare block so logical
addresses periodically change physical homes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConfigError, PcmMemory, WriteOutcome, program_all_cells


@dataclass
class WearConfig:
    enabled: bool = False
    epoch_writes: int = 256      # writes absorbed by a block between epoch bumps
    remap_period: int = 10_000   # global writes between start-gap steps

    def __post_init__(self):
        if self.epoch_writes <= 0 or self.remap_period <= 0:
            raise ConfigError("wear-leveling periods must be positive")


def next_epoch(epoch: int, writes_since_bump: int, wear: WearConfig | None,
               granule_bits: int) -> tuple[int, bool]:
    """Epoch to encode a block's next write with; bumps once enough writes accrued.

    The bump is deferred: nothing is rewritten eagerly, the new epoch simply
    applies to the next freshly encoded image.
    """
    if wear is None or not wear.enabled:
        return epoch, False
    if writes_since_bump >= wear.epoch_writes:
        return (epoch + 1) % granule_bits, True
    return epoch, False


class StartGapLeveler:
    """Start-gap address remapping over num_blocks logical + 1 spare block.

    Each step copies the block next to the gap into the gap (a full
    unconditional program of the data cells, wear included, plus the changed
    metadata cells) and the gap advances; after num_blocks+1 steps every
    block has shifted one slot. A copy into a failed block programs nothing
    and marks it `lost`, a mark that moves on with the block's image.
    """

    def __init__(self, num_blocks: int):
        self.n = num_blocks
        self.start = 0
        self.gap = num_blocks  # physical index of the spare block

    def map(self, logical: int) -> int:
        x = (logical + self.start) % self.n
        return x + 1 if x >= self.gap else x

    def inverse(self, physical: int) -> int:
        """Logical address currently mapped to a physical block (not the gap)."""
        if physical == self.gap:
            raise ValueError("gap block backs no logical address")
        x = physical - 1 if physical > self.gap else physical
        return (x - self.start) % self.n

    def step(self, memory: PcmMemory) -> WriteOutcome:
        """Copy the neighbor into the gap and advance; mapping stays bijective."""
        dest_i = self.gap
        src_i = (self.gap - 1) % (self.n + 1)
        wrapped = self.gap == 0
        src = memory.blocks[src_i]
        dest = memory.blocks[dest_i]

        if dest.failed:  # programs nothing: the address's content is lost
            out = WriteOutcome()
            dest.lost = True
        else:
            out = program_all_cells(dest, src.bits, src.meta, memory.cfg)
            dest.lost = src.lost
        # the uncharged tags move with the content
        dest.codebook_version = src.codebook_version
        dest.writes_since_bump = src.writes_since_bump
        dest.refs = src.refs

        self.gap = src_i
        if wrapped:
            self.start = (self.start + 1) % self.n
        if dest.failed:
            memory.kill_page(self.inverse(dest_i))
        return out
