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


def next_epoch(epoch: int, writes: int, wear: WearConfig, granule_bits: int) -> tuple[int, bool]:
    """Epoch to encode a block's next write with, given the `writes` it took
    since its last bump; bumps once they reach `wear.epoch_writes`.

    The bump is deferred: nothing is rewritten eagerly, the new epoch simply
    applies to the next freshly encoded image.
    """
    if not wear.enabled:
        return epoch, False
    if writes >= wear.epoch_writes:
        return (epoch + 1) % granule_bits, True
    return epoch, False


class StartGapLeveler:
    """Start-gap address remapping over num_blocks logical + 1 spare block.

    Each step copies the block next to the gap into the gap (a full
    unconditional program of the data cells, wear included, plus the changed
    metadata cells) and the gap advances; after num_blocks+1 steps every
    block has shifted one slot. A copy into a failed block programs nothing
    and marks it `lost`, a mark that moves on with the block's image.

    The mapping is a table, `physical` (logical -> physical) and `logical`
    (physical -> logical, `None` at the gap), and a step changes three
    entries. After every step it equals start-gap's start/gap register rule,
    kept in `tests/helpers.py` as the reference.
    """

    def __init__(self, num_blocks: int):
        self.physical = list(range(num_blocks))
        self.logical: list[int | None] = [*range(num_blocks), None]
        self.gap = num_blocks  # physical index of the spare block

    def step(self, memory: PcmMemory) -> WriteOutcome:
        """Copy the neighbor into the gap and advance; mapping stays bijective."""
        dest_i = self.gap
        src_i = (dest_i - 1) % len(self.logical)
        src = memory.blocks[src_i]
        dest = memory.blocks[dest_i]

        if dest.failed:  # programs nothing: the address's content is lost
            out = WriteOutcome()
            dest.lost = True
        else:
            out = program_all_cells(dest, src.bits, src.meta, memory.cfg)
            dest.lost = src.lost
        dest.tags = src.tags  # the uncharged tags move with the content

        moved = self.logical[src_i]
        self.physical[moved] = dest_i
        self.logical[dest_i] = moved
        self.logical[src_i] = None
        self.gap = src_i
        if dest.failed:  # also a copy that wore the destination out just now
            memory.kill_page(moved)
        return out
