"""Pluggable write-encoding schemes sharing one write/read interface.

Each scheme decides, per logical write, which physical cells to program and
what metadata changes to charge. All schemes guarantee that a read returns
exactly the last logical data written.
"""

from __future__ import annotations

import numpy as np

from .core import (ConfigError, MetadataCache, PcmBlock, PcmConfig,
                   WriteOutcome, bits_to_bytes, bytes_to_bits, popcount,
                   program_all_cells, program_cells, rotate_left, rotate_right)
from .mfv import Codebook, MfvFinder, build_codebook, pack_granules, unpack_granules
from .wearlevel import WearConfig, next_epoch

SCHEME_IDS = ("plain", "diffwrite", "fnw", "wire")


def optimal_rotation(encoded: int, stored: int, width: int,
                     rotation_max: int, incumbent: int) -> tuple[int, int]:
    """Exhaustively pick the rotation minimizing flips against the stored bits.

    Returns (rotation, flips) for the r in [0, rotation_max] minimizing
    Hamming(rotate_right(encoded, r), stored). Ties prefer the incumbent
    counter value (no metadata flip), then the smaller r.
    """
    mask = (1 << width) - 1
    # rotate_right(encoded, r) is the low `width` bits of `doubled >> r`
    doubled = encoded | (encoded << width)
    best_r = 0
    best_flips = width + 1
    for r in range(rotation_max + 1):
        flips = (((doubled >> r) ^ stored) & mask).bit_count()
        if flips < best_flips or (flips == best_flips and r == incumbent):
            best_r = r
            best_flips = flips
    return best_r, best_flips


class WriteScheme:
    """Base write scheme; subclasses encode data and program blocks."""

    scheme_id = "base"

    def __init__(self, cfg: PcmConfig):
        self.cfg = cfg
        self.read_extra_reads = 0  # metadata-line misses on the read path

    def write(self, addr: int, block: PcmBlock, data: bytes) -> WriteOutcome:
        raise NotImplementedError

    def read(self, addr: int, block: PcmBlock) -> bytes:
        raise NotImplementedError

    def overhead_bits_per_block(self) -> int:
        return 0

    def _check_payload(self, data: bytes) -> None:
        if len(data) != self.cfg.block_bytes:
            raise ConfigError(
                f"payload must be {self.cfg.block_bytes} bytes, got {len(data)}")


class PlainScheme(WriteScheme):
    """Conventional PCM write: every cell is programmed on every write."""

    scheme_id = "plain"

    def write(self, addr, block, data):
        self._check_payload(data)
        return program_all_cells(block, bytes_to_bits(data), self.cfg)

    def read(self, addr, block):
        return bits_to_bytes(block.bits, self.cfg.block_bytes)


class DiffScheme(WriteScheme):
    """Differential write: program only cells whose stored bit differs."""

    scheme_id = "diffwrite"

    def __init__(self, cfg: PcmConfig):
        super().__init__(cfg)
        self._full_mask = (1 << cfg.block_bits) - 1

    def write(self, addr, block, data):
        self._check_payload(data)
        return program_cells(block, bytes_to_bits(data), self._full_mask, self.cfg)

    def read(self, addr, block):
        return bits_to_bytes(block.bits, self.cfg.block_bytes)


class FnwScheme(WriteScheme):
    """Flip-word encoding: per word, store the data or its complement.

    One flip bit per word records the choice; a word is inverted when that
    makes the total of data-cell flips plus the flip-bit flip cheaper, ties
    keeping the current flip bit. Flip-bit wear is charged as metadata.
    """

    scheme_id = "fnw"

    def __init__(self, cfg: PcmConfig, word_bits: int = 16):
        super().__init__(cfg)
        if word_bits <= 0 or cfg.block_bits % word_bits != 0:
            raise ConfigError(f"fnw word width {word_bits} must divide the block")
        self.word_bits = word_bits
        self.words = cfg.block_bits // word_bits
        self._word_mask = (1 << word_bits) - 1
        self._full_mask = (1 << cfg.block_bits) - 1
        self._flip_bits: dict[int, int] = {}

    def overhead_bits_per_block(self) -> int:
        return self.words

    def write(self, addr, block, data):
        self._check_payload(data)
        logical = bytes_to_bits(data)
        flips = self._flip_bits.get(addr, 0)
        new_bits = 0
        new_flips = 0
        for w in range(self.words):
            shift = w * self.word_bits
            stored = (block.bits >> shift) & self._word_mask
            d = (logical >> shift) & self._word_mask
            inv = d ^ self._word_mask
            f = (flips >> w) & 1
            cost_direct = popcount(stored ^ d) + (f != 0)
            cost_invert = popcount(stored ^ inv) + (f != 1)
            invert = cost_invert < cost_direct or (cost_invert == cost_direct and f == 1)
            new_bits |= (inv if invert else d) << shift
            new_flips |= int(invert) << w
        out = program_cells(block, new_bits, self._full_mask, self.cfg)
        out.count_meta_change(flips, new_flips, self.words)
        self._flip_bits[addr] = new_flips
        return out

    def read(self, addr, block):
        flips = self._flip_bits.get(addr, 0)
        bits = block.bits
        for w in range(self.words):
            if (flips >> w) & 1:
                bits ^= self._word_mask << (w * self.word_bits)
        return bits_to_bytes(bits, self.cfg.block_bytes)


class WireScheme(WriteScheme):
    """Frequent-value codebook encoding with per-partition rotation.

    Writes feed granules to the frequent-value finder, encode them through
    the current codebook version (bit-rotated by the block's wear epoch),
    then rotate each partition to best match the stored cells. Rotation
    counters live in separate metadata lines reached through an LRU cache;
    blocks record the codebook version and epoch they were encoded with so
    older content stays decodable after the ranking evolves.
    """

    scheme_id = "wire"

    def __init__(self, cfg: PcmConfig, finder: MfvFinder | None = None,
                 metadata_cache: MetadataCache | None = None,
                 wear: WearConfig | None = None,
                 freeze_codebook: bool = False):
        super().__init__(cfg)
        self.finder = finder if finder is not None else MfvFinder()
        self.cache = metadata_cache
        self.wear = wear
        self.freeze_codebook = freeze_codebook
        self.versions: list[Codebook] = [build_codebook([], cfg.granule_bits)]
        self._built_generation = self.finder.generation
        self._enc_tables: dict[tuple[int, int], np.ndarray] = {}
        self._dec_tables: dict[tuple[int, int], np.ndarray] = {}
        self._block_refs: dict[int, tuple[int, ...]] = {}
        self._full_mask = (1 << cfg.block_bits) - 1
        self._part_mask = (1 << cfg.partition_bits) - 1

    def overhead_bits_per_block(self) -> int:
        return self.cfg.counter_bits * self.cfg.partitions_per_block

    # -- codebook versioning --------------------------------------------------

    def current_version(self) -> int:
        if not self.freeze_codebook and self.finder.generation != self._built_generation:
            ranked = self.finder.ranked_values()
            self.versions.append(
                build_codebook(ranked, self.cfg.granule_bits, len(self.versions)))
            self._built_generation = self.finder.generation
        return len(self.versions) - 1

    def _enc_table(self, version: int, epoch: int) -> np.ndarray:
        key = (version, epoch)
        table = self._enc_tables.get(key)
        if table is None:
            g = self.cfg.granule_bits
            base = self.versions[version].perm
            table = np.array([rotate_left(cw, epoch, g) for cw in base], dtype=np.uint8)
            self._enc_tables[key] = table
        return table

    def _dec_table(self, version: int, epoch: int) -> np.ndarray:
        key = (version, epoch)
        table = self._dec_tables.get(key)
        if table is None:
            g = self.cfg.granule_bits
            inv = self.versions[version].inv_perm
            table = np.array([inv[rotate_right(cw, epoch, g)] for cw in range(1 << g)],
                             dtype=np.uint8)
            self._dec_tables[key] = table
        return table

    # -- write/read paths ------------------------------------------------------

    def write(self, addr, block, data):
        self._check_payload(data)
        cfg = self.cfg
        values = unpack_granules(data, cfg.granule_bits)
        counts = np.bincount(values)
        finder = self.finder
        finder.observe_write(values, counts)

        version = self.current_version()
        epoch, bumped = next_epoch(block, self.wear, cfg.granule_bits)
        encoded = bytes_to_bits(pack_granules(self._enc_table(version, epoch)[values],
                                              cfg.granule_bits))

        width = cfg.partition_bits
        part_mask = self._part_mask
        counter_bits = cfg.counter_bits
        stored_bits = block.bits
        new_phys = 0
        new_counters = []
        # counters packed side by side: the flips of the packed field are the
        # sum of the flips of each counter
        old_packed = new_packed = 0
        for i, old_r in enumerate(block.rot_counters):
            shift = i * width
            part = (encoded >> shift) & part_mask
            r, _ = optimal_rotation(part, (stored_bits >> shift) & part_mask, width,
                                    cfg.rotation_max, old_r)
            if r:
                part = ((part >> r) | (part << (width - r))) & part_mask
            new_phys |= part << shift
            new_counters.append(r)
            old_packed |= old_r << (i * counter_bits)
            new_packed |= r << (i * counter_bits)

        out = program_cells(block, new_phys, self._full_mask, cfg)
        out.count_meta_change(old_packed, new_packed,
                              counter_bits * cfg.partitions_per_block)
        if bumped:
            out.count_meta_change(block.epoch, epoch, cfg.epoch_tag_bits)
        block.rot_counters = new_counters
        block.epoch = epoch
        block.codebook_version = version
        block.writes_since_bump = 1 if bumped else block.writes_since_bump + 1

        if self.cache is not None and not self.cache.touch(addr):
            out.meta_extra_reads += 1

        # reference bookkeeping: the previous content no longer pins its values
        for v in self._block_refs.get(addr, ()):
            finder.retire_reference(v)
        refs = tuple(v for v in np.flatnonzero(counts).tolist() if finder.add_reference(v))
        self._block_refs[addr] = refs
        return out

    def read(self, addr, block):
        cfg = self.cfg
        if self.cache is not None and not self.cache.touch(addr):
            self.read_extra_reads += 1
        width = cfg.partition_bits
        part_mask = self._part_mask
        bits = block.bits
        image = 0
        for i, r in enumerate(block.rot_counters):
            shift = i * width
            stored = (bits >> shift) & part_mask
            if r:
                stored = ((stored << r) | (stored >> (width - r))) & part_mask
            image |= stored << shift
        codes = unpack_granules(bits_to_bytes(image, cfg.block_bytes), cfg.granule_bits)
        values = self._dec_table(block.codebook_version, block.epoch)[codes]
        return pack_granules(values, cfg.granule_bits)


def make_scheme(scheme_id: str, cfg: PcmConfig, *, fnw_word_bits: int = 16,
                finder: MfvFinder | None = None,
                metadata_cache: MetadataCache | None = None,
                wear: WearConfig | None = None,
                freeze_codebook: bool = False) -> WriteScheme:
    if scheme_id == "plain":
        return PlainScheme(cfg)
    if scheme_id == "diffwrite":
        return DiffScheme(cfg)
    if scheme_id == "fnw":
        return FnwScheme(cfg, fnw_word_bits)
    if scheme_id == "wire":
        return WireScheme(cfg, finder, metadata_cache, wear, freeze_codebook)
    raise ConfigError(f"unknown scheme '{scheme_id}' (choose from {', '.join(SCHEME_IDS)})")
