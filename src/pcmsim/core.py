"""PCM array model: block state, cell endurance, energy accounting, metadata cache.

Block contents are kept as Python integers (bit 0 = cell 0) so that XOR,
rotation and popcount stay cheap. Per-cell wear counters are bit-sliced into
Python integers too (plane k holds bit k of every cell's program count), so a
wear update is a few whole-block AND/XORs; numpy rows are built only when a
report or a test reads the counts.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np


class SimulationError(Exception):
    """Base class for simulation-level failures."""


class DeadBlockError(SimulationError):
    """Raised when a write targets a block that has already worn out, or a
    read finds its address's content worn out or lost."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


# ---------------------------------------------------------------------------
# configuration

E_SET = 13.5    # pJ per 0->1 program
E_RESET = 19.2  # pJ per 1->0 program
WRITE_LATENCY_NS = 250.0  # per write, for lifetime_seconds


@dataclass
class PcmConfig:
    """Geometry and endurance parameters of the simulated array.

    `cell_endurance` defaults to a desk-scale 10**3 so lifetime experiments
    finish quickly; real parts tolerate on the order of 10**7 - 10**9 writes.
    """

    block_bytes: int = 64
    partitions_per_block: int = 8
    rotation_max: int = 8
    granule_bits: int = 4
    cell_endurance: int = 1000
    page_bytes: int = 4096
    metadata_cache_bytes: int = 2048

    def __post_init__(self):
        if self.block_bytes <= 0 or self.partitions_per_block <= 0:
            raise ConfigError("block_bytes and partitions_per_block must be positive")
        if self.block_bits % self.partitions_per_block != 0:
            raise ConfigError(
                f"block of {self.block_bits} bits not divisible into "
                f"{self.partitions_per_block} partitions")
        if self.granule_bits not in (1, 2, 4, 8):
            raise ConfigError("granule_bits must be one of 1, 2, 4, 8")
        if self.partition_bits % self.granule_bits != 0:
            raise ConfigError(
                f"partition width {self.partition_bits} not divisible by "
                f"granule width {self.granule_bits}")
        if not 0 <= self.rotation_max < self.partition_bits:
            raise ConfigError("rotation_max must lie in [0, partition width)")
        if self.cell_endurance <= 0:
            raise ConfigError("cell_endurance must be positive")
        if self.page_bytes <= 0 or self.page_bytes % self.block_bytes != 0:
            raise ConfigError("page_bytes must be a positive multiple of block_bytes")
        if self.metadata_cache_bytes < 0:
            raise ConfigError("metadata_cache_bytes must be non-negative")

    @property
    def block_bits(self) -> int:
        return self.block_bytes * 8

    @property
    def partition_bits(self) -> int:
        return self.block_bits // self.partitions_per_block

    @property
    def blocks_per_page(self) -> int:
        return self.page_bytes // self.block_bytes


# ---------------------------------------------------------------------------
# write outcome accounting

@dataclass
class WriteOutcome:
    """Per-operation tally of cell programs and metadata effects.

    Metadata flips (rotation counters, flip bits, epoch tags) are kept
    separate from data-cell flips so wear statistics stay clean; their energy
    is always charged, at the same per-bit SET/RESET costs.
    """

    flips_set: int = 0
    flips_reset: int = 0
    meta_flips_set: int = 0
    meta_flips_reset: int = 0

    @property
    def flips(self) -> int:
        return self.flips_set + self.flips_reset

    @property
    def meta_flips(self) -> int:
        return self.meta_flips_set + self.meta_flips_reset

    def energy_pj(self) -> float:
        e = self.flips_set * E_SET + self.flips_reset * E_RESET
        e += self.meta_flips_set * E_SET + self.meta_flips_reset * E_RESET
        return e

    def add(self, other: "WriteOutcome") -> None:
        self.flips_set += other.flips_set
        self.flips_reset += other.flips_reset
        self.meta_flips_set += other.meta_flips_set
        self.meta_flips_reset += other.meta_flips_reset


# ---------------------------------------------------------------------------
# blocks and memory

class PcmBlock:
    """One line of cells: the data cells `bits` and the metadata cells `meta`.

    Wear is bit-sliced: `wear_planes[k]` holds bit k of every data cell's
    program count (bit j of a plane = cell j); `PcmMemory.wear_matrix` builds
    the per-cell count rows from the planes. `wear_bound` is an upper bound on
    the block's largest count (see `program_cells`). `meta` holds the metadata
    cells as one int in a layout the scheme owns; `program_cells` and
    `program_all_cells` program it with the data and charge its changed bits
    as metadata flips. `tags` is the uncharged state a scheme keeps per block,
    in a form the scheme owns, `None` until a scheme stores one. All of them
    describe the stored image and move with it when wear leveling relocates
    it. `lost` marks a block whose image is not its address's content: a
    start-gap copy into a failed block programs nothing, so the address's data
    is gone until its next write.
    """

    __slots__ = ("bits", "wear_planes", "wear_bound", "meta", "tags", "lost", "failed")

    def __init__(self):
        self.bits = 0
        self.wear_planes: list[int] = []
        self.wear_bound = 0
        self.meta = 0
        self.tags = None
        self.lost = False
        self.failed = False


def _wear_rows(blocks, nbytes: int) -> np.ndarray:
    """Wear rows of `nbytes`-byte blocks, one row per block, in the narrowest
    unsigned dtype that holds the deepest block's counts."""
    depth = max(len(b.wear_planes) for b in blocks)
    levels = zip(*[b.wear_planes + [0] * (depth - len(b.wear_planes)) for b in blocks])
    # Horner's rule from the top plane down (rows = 2 * rows + plane bits), in
    # the narrowest unsigned dtype that holds a `depth`-bit count
    rows = np.zeros((len(blocks), nbytes * 8), dtype=np.min_scalar_type((1 << depth) - 1))
    for level in reversed(list(levels)):
        raw = b"".join(map(int.to_bytes, level, repeat(nbytes), repeat("little")))
        rows <<= 1
        rows |= np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                              bitorder="little").reshape(rows.shape)
    return rows


def _max_wear(planes: list[int]) -> int:
    """Exact largest cell count: from the top plane down, keep the cells
    that have the highest bit pattern seen so far."""
    best = 0
    cand = -1  # every cell
    for k in reversed(range(len(planes))):
        hit = cand & planes[k]
        if hit:
            cand = hit
            best |= 1 << k
    return best


def _wear(block: PcmBlock, cells: int, cfg: PcmConfig) -> None:
    """Add one program to every cell set in `cells` and fail a worn-out block.

    Ripple-carry add of the 0/1 mask to the bit-sliced counts: each plane
    becomes `plane ^ carry` and the carry becomes `carry & plane`, stopping
    as soon as no cell carries; a carry out of the top plane starts a new one.
    """
    planes = block.wear_planes
    carry = cells
    for k, plane in enumerate(planes):
        planes[k] = plane ^ carry
        carry &= plane
        if not carry:
            break
    else:
        planes.append(carry)
    block.wear_bound += 1
    if block.wear_bound > cfg.cell_endurance:
        block.wear_bound = _max_wear(planes)
        if block.wear_bound > cfg.cell_endurance:
            block.failed = True


def _program_meta(block: PcmBlock, meta: int, out: WriteOutcome) -> None:
    """Charge the changed bits of the metadata word to `out` and store it."""
    diff = block.meta ^ meta
    ones = (diff & meta).bit_count()
    out.meta_flips_set = ones
    out.meta_flips_reset = diff.bit_count() - ones
    block.meta = meta


def program_cells(block: PcmBlock, new_bits: int, new_meta: int,
                  cfg: PcmConfig) -> WriteOutcome:
    """Differential program of the whole line: data cells and metadata word.

    Only differing data cells are touched; each one wears by 1 and is counted
    as a SET (0->1) or RESET (1->0) flip. The metadata word's changed bits
    are counted the same way as metadata flips, and it is stored; metadata
    cells do not wear. Marks the block failed once any data cell exceeds its
    endurance (a cell survives exactly `cell_endurance` programs). It programs
    any block it is given, failed or not: its callers, `WriteScheme.write` and
    `StartGapLeveler.step`, refuse or skip a failed block first.

    The endurance test is lazy but exact. Invariant: `block.wear_bound` is at
    least the block's largest cell count. It holds at 0 for a fresh block, and
    a program adds at most 1 to any cell, so adding 1 to the bound keeps it.
    While the bound is within endurance no cell can be above it; only when
    the bound passes endurance is it reset to the true row maximum, and the
    block fails if that maximum is above endurance too.
    """
    out = WriteOutcome()
    if block.meta != new_meta:
        _program_meta(block, new_meta, out)
    diff = block.bits ^ new_bits
    if diff == 0:
        return out
    ones = (diff & new_bits).bit_count()
    out.flips_set = ones
    out.flips_reset = diff.bit_count() - ones
    _wear(block, diff, cfg)
    block.bits ^= diff
    return out


def program_all_cells(block: PcmBlock, new_bits: int, new_meta: int,
                      cfg: PcmConfig) -> WriteOutcome:
    """Unconditional program of every data cell, as a conventional PCM write does.

    Every data cell wears by 1 regardless of the stored value; flips are
    counted by target state (SET for 1s, RESET for 0s). The metadata word is
    programmed as in `program_cells`: only its changed bits are charged.
    """
    out = WriteOutcome()
    if block.meta != new_meta:
        _program_meta(block, new_meta, out)
    width = cfg.block_bits
    out.flips_set = ones = new_bits.bit_count()
    out.flips_reset = width - ones
    _wear(block, (1 << width) - 1, cfg)
    block.bits = new_bits
    return out


class PcmMemory:
    """Array of blocks with page-level capacity tracking.

    Pages group logical block addresses. A page dies permanently when a write
    routed to one of its blocks hits (or produces) a failed block; there is no
    remap salvage.
    """

    def __init__(self, num_blocks: int, cfg: PcmConfig, extra_blocks: int = 0):
        if num_blocks <= 0:
            raise ConfigError("memory needs at least one block")
        self.cfg = cfg
        self.blocks = [PcmBlock() for _ in range(num_blocks + extra_blocks)]
        self.total_pages = math.ceil(num_blocks / cfg.blocks_per_page)
        self.dead_pages: set[int] = set()

    def kill_page(self, logical_addr: int) -> None:
        self.dead_pages.add(logical_addr // self.cfg.blocks_per_page)

    def live_capacity(self) -> float:
        """Fraction of pages not yet killed."""
        return (self.total_pages - len(self.dead_pages)) / self.total_pages

    def wear_matrix(self) -> np.ndarray:
        """Per-cell write counts, one row per physical block, in the narrowest
        unsigned dtype that holds them (see `_wear_rows`)."""
        return _wear_rows(self.blocks, self.cfg.block_bytes)


# ---------------------------------------------------------------------------
# metadata cache

class MetadataCache:
    """LRU cache over per-block metadata lines held in the memory controller.

    It holds as many lines of `line_bits` bits, each padded to whole bytes,
    as fit in `cache_bytes`. A zero-byte budget degenerates to an always-miss
    cache. `touch(block_addr)` accesses a block's line; it is an `lru_cache`
    of that many entries, so its `cache_info()` counts the hits and misses.
    """

    def __init__(self, cache_bytes: int, line_bits: int):
        self.capacity_blocks = cache_bytes // ((line_bits + 7) // 8)
        # lru_cache takes no size above sys.maxsize, which no trace can fill
        self.touch = functools.lru_cache(maxsize=min(self.capacity_blocks, sys.maxsize))(
            lambda block_addr: None)

    hits = property(lambda self: self.touch.cache_info().hits)
    misses = property(lambda self: self.touch.cache_info().misses)
