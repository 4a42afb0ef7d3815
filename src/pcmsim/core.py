"""PCM array model: block state, cell endurance, energy accounting, metadata cache.

Block contents are kept as Python integers (bit 0 = cell 0) so that XOR,
rotation and popcount stay cheap. Per-cell wear counters are bit-sliced into
Python integers too (plane k holds bit k of every cell's program count), so a
wear update is a few whole-block AND/XORs; numpy rows are built only when a
report or a test reads the counts.
"""

from __future__ import annotations

import math
from collections import OrderedDict
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
# bit helpers

def rotate_left(x: int, r: int, width: int) -> int:
    """Rotate the low `width` bits of x left by r (bit j moves to j+r mod width)."""
    r %= width
    if r == 0:
        return x
    mask = (1 << width) - 1
    return ((x << r) | (x >> (width - r))) & mask


def bits_to_bytes(bits: int, nbytes: int) -> bytes:
    return bits.to_bytes(nbytes, "little")


def bytes_to_bits(data: bytes) -> int:
    return int.from_bytes(data, "little")


# ---------------------------------------------------------------------------
# configuration

@dataclass
class PcmConfig:
    """Geometry, endurance and energy parameters of the simulated array.

    `cell_endurance` defaults to a desk-scale 10**3 so lifetime experiments
    finish quickly; real parts tolerate on the order of 10**7 - 10**9 writes.
    """

    block_bytes: int = 64
    partitions_per_block: int = 8
    rotation_max: int = 8
    counter_bits: int = 6
    granule_bits: int = 4
    cell_endurance: int = 1000
    e_set: float = 13.5    # pJ per 0->1 program
    e_reset: float = 19.2  # pJ per 1->0 program
    write_latency_ns: float = 250.0
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
        # a counter never needs more bits than the partition it rotates
        if not 1 <= self.counter_bits <= self.partition_bits:
            raise ConfigError(f"counter_bits must lie in [1, {self.partition_bits}], "
                              f"the partition width, not {self.counter_bits}")
        if self.rotation_max.bit_length() > self.counter_bits:
            raise ConfigError("rotation_max must be representable in counter_bits")
        if self.cell_endurance <= 0:
            raise ConfigError("cell_endurance must be positive")
        if self.e_set <= 0 or self.e_reset <= 0:
            raise ConfigError("per-flip energies must be positive")
        if self.write_latency_ns < 0:
            raise ConfigError("write_latency_ns must be non-negative")
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

    @property
    def metadata_line_bytes(self) -> int:
        return math.ceil(self.counter_bits * self.partitions_per_block / 8)


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

    def energy_pj(self, cfg: PcmConfig) -> float:
        e = self.flips_set * cfg.e_set + self.flips_reset * cfg.e_reset
        e += self.meta_flips_set * cfg.e_set + self.meta_flips_reset * cfg.e_reset
        return e

    def add(self, other: "WriteOutcome") -> "WriteOutcome":
        self.flips_set += other.flips_set
        self.flips_reset += other.flips_reset
        self.meta_flips_set += other.meta_flips_set
        self.meta_flips_reset += other.meta_flips_reset
        return self


# ---------------------------------------------------------------------------
# blocks and memory

class PcmBlock:
    """One line of cells: the data cells `bits` and the metadata cells `meta`.

    Wear is bit-sliced: `wear_planes[k]` holds bit k of every data cell's
    program count (bit j of a plane = cell j), and `cell_writes` builds the
    per-cell count row from the planes. `wear_bound` is an upper bound on the
    row maximum (see `program_cells`). `meta` holds the metadata cells as one
    int in a layout the scheme owns; `program_cells` and `program_all_cells`
    program it with the data and charge its changed bits as metadata flips.
    `codebook_version`, `writes_since_bump` and `refs` (`wire`'s
    referenced-value mask) are uncharged tags. All of them describe the
    stored image and move with it when wear leveling relocates it. `lost`
    marks a block whose image is not its address's content: a start-gap copy
    into a failed block programs nothing, so the address's data is gone until
    its next write.
    """

    __slots__ = ("bits", "block_bytes", "wear_planes", "wear_bound", "meta",
                 "codebook_version", "writes_since_bump", "refs", "lost", "failed")

    def __init__(self, cfg: PcmConfig):
        self.bits = 0
        self.block_bytes = cfg.block_bytes
        self.wear_planes: list[int] = []
        self.wear_bound = 0
        self.meta = 0
        self.codebook_version = 0
        self.writes_since_bump = 0
        self.refs = 0
        self.lost = False
        self.failed = False

    @property
    def cell_writes(self) -> np.ndarray:
        """Per-cell program counts as a row of the narrowest unsigned dtype
        that holds them (a fresh array per call)."""
        return _wear_rows([self])[0]


def _wear_rows(blocks) -> np.ndarray:
    """Wear rows of equally sized blocks, one row per block, in the narrowest
    unsigned dtype that holds the deepest block's counts."""
    nbytes = blocks[0].block_bytes
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
    endurance (a cell survives exactly `cell_endurance` programs).

    The endurance test is lazy but exact. Invariant: `block.wear_bound` is
    at least `block.cell_writes.max()`. It holds at 0 for a fresh block, and
    a program adds at most 1 to any cell, so adding 1 to the bound keeps it.
    While the bound is within endurance no cell can be above it; only when
    the bound passes endurance is it reset to the true row maximum, and the
    block fails if that maximum is above endurance too.
    """
    if block.failed:
        raise DeadBlockError("write to dead block")
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
    if block.failed:
        raise DeadBlockError("write to dead block")
    out = WriteOutcome()
    if block.meta != new_meta:
        _program_meta(block, new_meta, out)
    out.flips_set = new_bits.bit_count()
    out.flips_reset = cfg.block_bits - out.flips_set
    _wear(block, (1 << cfg.block_bits) - 1, cfg)
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
        self.blocks = [PcmBlock(cfg) for _ in range(num_blocks + extra_blocks)]
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
        return _wear_rows(self.blocks)


# ---------------------------------------------------------------------------
# metadata cache

class MetadataCache:
    """LRU cache over per-block metadata lines held in the memory controller.

    Capacity is derived from the cache byte budget and the per-block metadata
    line size (rotation counters packed into whole bytes). A zero-byte budget
    degenerates to an always-miss cache.
    """

    def __init__(self, cfg: PcmConfig):
        self.capacity_blocks = cfg.metadata_cache_bytes // cfg.metadata_line_bytes
        self._lines: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def touch(self, block_addr: int) -> bool:
        """Access a block's metadata line; returns True on hit."""
        if block_addr in self._lines:
            self._lines.move_to_end(block_addr)
            self.hits += 1
            return True
        self.misses += 1
        if self.capacity_blocks > 0:
            self._lines[block_addr] = None
            if len(self._lines) > self.capacity_blocks:
                self._lines.popitem(last=False)
        return False
