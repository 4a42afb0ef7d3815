"""Pluggable write-encoding schemes: encoders behind one write path.

A scheme is an encoder. `encode(block, data)` returns the physical bits to
store and the block's new metadata word (`PcmBlock.meta`, in a layout the
scheme owns), and `read(block)` decodes the stored image. `WriteScheme.write`
is the one write path: it programs both into the block with `program_cells`
or `program_all_cells`, which charge the metadata word's flips too. All
schemes guarantee that a read returns exactly the last logical data written.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (ConfigError, PcmBlock, PcmConfig, WriteOutcome,
                   bits_to_bytes, bytes_to_bits, program_all_cells,
                   program_cells, rotate_left)
from .mfv import (MfvFinder, build_codebook, pack_granules, split_granules,
                  unpack_granules)
from .wearlevel import WearConfig, next_epoch

SCHEME_IDS = ("plain", "diffwrite", "fnw", "wire")


def _popcount_steps(width: int, lanes: int) -> list[tuple[int, int, int]]:
    """SWAR popcount of the `width`-bit lanes at the set bits of `lanes`: each
    step c = (c & lo) + ((c & hi) >> f) adds fields [p, p+f) and [p+f, p+2f)
    cut at the lane end, so the last leaves each lane's count in its low bits."""
    steps = []
    f = 1
    while f < width:
        lo = hi = 0
        for p in range(0, width, 2 * f):
            lo |= ((1 << min(f, width - p)) - 1) << p
            if p + f < width:
                hi |= ((1 << min(f, width - p - f)) - 1) << (p + f)
        steps.append((f, lo * lanes, hi * lanes))
        f *= 2
    return steps


@functools.lru_cache(maxsize=64)
def _rotation_plan(width: int, rotation_max: int, partitions: int):
    """Masks of `optimal_rotation` for one block geometry."""
    lanes = sum(1 << (i * width) for i in range(partitions))
    # lane-wise rotate_right(x, r) = ((x >> r) & low) | ((x << (width - r)) & high)
    rotations = [(r, lanes * ((1 << (width - r)) - 1), width - r,
                  lanes * (((1 << r) - 1) << (width - r))) for r in range(rotation_max + 1)]
    steps = _popcount_steps(width, lanes * sum(1 << (r * width * partitions)
                                               for r in range(rotation_max + 1)))
    fields = [(i * width, ((1 << width) - 1) << (i * width), slice(i, None, partitions))
              for i in range(partitions)]
    return rotations, steps, fields


def optimal_rotation(encoded: int, stored: int, width: int, rotation_max: int,
                     incumbent: int, partitions: int) -> tuple[int, int, int]:
    """Exhaustively pick each partition's rotation minimizing flips against the stored bits.

    A partition's rotation is the r in [0, rotation_max] minimizing
    Hamming(rotate_right(its encoded bits, r), its stored bits); ties prefer
    its incumbent counter value (no metadata flip), then the smaller r.
    Partition i sits at bit i * width, and its counter in the `width`-bit
    lane at bit i * width of `incumbent` (lane form, as `WireScheme` stores
    it; higher bits are ignored). Returns (rotations, flips, rotated): the
    rotations in that lane form, their total flips and the rotated partitions.

    The rotated copies of the block, XORed with the stored bits, are
    concatenated and every (copy, partition) lane popcounted at once.
    """
    rotations, steps, fields = _rotation_plan(width, rotation_max, partitions)
    bits = width * partitions
    copies = [((encoded >> r) & low) | ((encoded << back) & high)
              for r, low, back, high in rotations]
    c = 0
    for copy in reversed(copies):
        c = (c << bits) | (copy ^ stored)
    for f, lo, hi in steps:
        c = (c & lo) + ((c & hi) >> f)
    if width % 8 or width > 255:  # lane (r, i) holds its count in its low bits ...
        counts = [(c >> k) & ((1 << width) - 1) for k in range(0, len(copies) * bits, width)]
    else:  # ... and, in a lane of whole bytes, in its low byte
        counts = c.to_bytes(len(copies) * bits // 8, "little")[::width // 8]

    chosen = flips = rotated = 0
    for shift, lane, column in fields:
        per_r = counts[column]
        best = min(per_r)
        r = (incumbent & lane) >> shift
        if r > rotation_max or per_r[r] != best:
            r = per_r.index(best)
        chosen |= r << shift
        flips += best
        rotated |= copies[r] & lane
    return chosen, flips, rotated


@functools.lru_cache(maxsize=8)
def _lane_rotations(rotation_max: int):
    """r, 64 - r and r | 64 for every rotation r of `optimal_rotations`, as
    (rotation_max + 1, 1, 1) uint64 arrays."""
    r = np.arange(rotation_max + 1, dtype=np.uint64)[:, None, None]
    return r, 64 - r, r | 64


def optimal_rotations(encoded: bytes, stored: bytes, incumbent: bytes, rotation_max: int,
                      block_bytes: int) -> list[tuple[int, int]]:
    """`optimal_rotation` of many blocks of 64-bit partitions in one numpy pass.

    Each argument joins the blocks' little-endian images, `block_bytes` each:
    the encoded bits, the stored bits and the incumbent counters in lane form
    (without the bits above the lanes). Returns each block's (rotations,
    rotated), equal to `optimal_rotation`'s first and last results.

    Every rotation r of every (block, partition) lane is built, as a
    (rotation_max + 1, blocks, partitions) uint64 array, and its flips are
    counted with `np.bitwise_count`. Each lane takes the r of the smallest
    key flips << 7 | (r != incumbent) << 6 | r: the tie rule of
    `optimal_rotation`.
    """
    r, back, r_other = _lane_rotations(rotation_max)
    source, stored, incumbent = np.frombuffer(encoded + stored + incumbent, dtype="<u8") \
        .reshape(3, -1, block_bytes // 8)
    # numpy shifts a uint64 by 64 to 0, so r = 0 leaves the lane as it is
    copies = source >> r | source << back
    keys = np.left_shift(np.bitwise_count(copies ^ stored), 7, dtype=np.uint64)
    keys |= np.where(r == incumbent, r, r_other)
    chosen = keys.min(axis=0)
    chosen &= 63
    rotated = source >> chosen | source << (64 - chosen)
    chosen, rotated = chosen.tobytes(), rotated.tobytes()
    return [(int.from_bytes(chosen[k:k + block_bytes], "little"),
             int.from_bytes(rotated[k:k + block_bytes], "little"))
            for k in range(0, len(chosen), block_bytes)]


class WriteScheme:
    """Base write scheme; subclasses implement `encode` and `read`."""

    scheme_id = "base"
    programs_all = False  # program every cell on a write, not only changed ones
    # look_ahead(writes), if set, prepares a window of (block, data) writes
    # to distinct blocks just before they run (see `Simulation.windows`)
    look_ahead = None

    def __init__(self, cfg: PcmConfig):
        self.cfg = cfg

    def write(self, block: PcmBlock, data: bytes) -> WriteOutcome:
        """Encode, then program the line: data cells and metadata word."""
        if len(data) != self.cfg.block_bytes:
            raise ConfigError(
                f"payload must be {self.cfg.block_bytes} bytes, got {len(data)}")
        bits, meta = self.encode(block, data)
        program = program_all_cells if self.programs_all else program_cells
        return program(block, bits, meta, self.cfg)

    def encode(self, block: PcmBlock, data: bytes) -> tuple[int, int]:
        """(physical bits, metadata word) to store; may set the block's uncharged tags."""
        return bytes_to_bits(data), 0  # the identity encoder

    def read(self, block: PcmBlock) -> bytes:
        return bits_to_bytes(block.bits, self.cfg.block_bytes)

    def overhead_bits_per_block(self) -> int:
        return 0


class PlainScheme(WriteScheme):
    """Conventional PCM write: every cell is programmed on every write."""

    scheme_id = "plain"
    programs_all = True


class DiffScheme(WriteScheme):
    """Differential write: program only cells whose stored bit differs."""

    scheme_id = "diffwrite"


class FnwScheme(WriteScheme):
    """Flip-word encoding: per word, store the data or its complement.

    One flip bit per word records the choice; a word is inverted when that
    makes the total of data-cell flips plus the flip-bit flip cheaper, ties
    keeping the current flip bit. Flip-bit flips are charged as metadata.

    Decision rule. For a W-bit word with c cells differing from the data and
    flip bit f, storing the data costs c + f flips and storing the complement
    costs (W - c) + (1 - f). Inverting is cheaper iff 2c + 2f > W + 1, and a
    tie (2c + 2f = W + 1) inverts iff f = 1. Both fold into one compare:
    invert iff 2c + 3f > W + 1 (for f = 0 nothing changes; for f = 1 it
    reads 2c + 2 >= W + 1, the strict case plus the tie).

    Lane layout. All words are decided at once on the block's int. A word's
    popcount c is summed in place by SWAR steps whose masks never cross a
    word boundary. The compare adds 2^k - W - 2 to 2c + 3f, with 2^k the
    smallest power of two above W + 1, so bit k of the sum is the decision;
    the sum needs k + 1 bits, so each word's lane is widened over the next
    m - 1 words, m = ceil((k + 1) / W), and the words are decided in m passes
    of every m-th word (m = 1 for W >= 4). The block's metadata word holds
    its flip bits in this lane form: word i's flip bit is bit i * W, the
    lowest cell of the word, so the decision reads them as they are and its
    result is stored as it is.
    """

    scheme_id = "fnw"

    def __init__(self, cfg: PcmConfig, word_bits: int = 16):
        super().__init__(cfg)
        if word_bits <= 0 or cfg.block_bits % word_bits != 0:
            raise ConfigError(f"fnw word width {word_bits} must divide the block")
        self.word_bits = w = word_bits
        self.words = n = cfg.block_bits // w
        self._word_mask = (1 << w) - 1

        lanes = sum(1 << (i * w) for i in range(n))  # lowest bit of every word
        self._popcount_steps = _popcount_steps(w, lanes)
        self._k = k = (w + 1).bit_length()
        m = -(-(k + 1) // w)
        self._passes = []
        for j in range(m):
            pass_lanes = sum(1 << (i * w) for i in range(j, n, m))
            self._passes.append((pass_lanes * self._word_mask, pass_lanes,
                                 ((1 << k) - w - 2) * pass_lanes))

    def overhead_bits_per_block(self) -> int:
        return self.words

    def encode(self, block, data):
        logical = bytes_to_bits(data)
        flips = block.meta
        c = block.bits ^ logical
        for f, lo, hi in self._popcount_steps:
            c = (c & lo) + ((c & hi) >> f)
        k = self._k
        invert = 0
        for pass_words, pass_lanes, bias in self._passes:
            invert |= ((((c & pass_words) << 1) + 3 * (flips & pass_lanes) + bias)
                       >> k) & pass_lanes
        return logical ^ invert * self._word_mask, invert

    def read(self, block):
        return bits_to_bytes(block.bits ^ block.meta * self._word_mask, self.cfg.block_bytes)


class WireScheme(WriteScheme):
    """Frequent-value codebook encoding with per-partition rotation.

    Writes feed granules to the frequent-value finder, encode them through
    the current codebook version (bit-rotated by the block's wear epoch),
    then rotate each partition to best match the stored cells. Blocks also
    record the codebook version they were encoded with so older content
    stays decodable after the ranking evolves. Encoding and decoding are one
    `bytes.translate` each, through 256-byte tables cached per (version, epoch).

    The metadata word, reached through the simulation's metadata cache, is in
    lane form like `fnw`'s: partition i's rotation counter at bit
    i * partition_bits, the epoch at bit block_bits. Bit k of every counter
    lines up with its lane, so a read undoes all rotations at once: step k
    rotates left by 2^k the lanes whose counter has bit k set.

    With 64-bit partitions the rotation search runs ahead in batches.
    `look_ahead` encodes a window of writes to distinct blocks with the newest
    codebook version built so far and each block's current epoch, searches
    them in one `optimal_rotations` call and keeps each result under the
    inputs it was searched from: (payload, version, epoch, stored bits,
    metadata word). `encode` takes a kept result only when all five equal the
    write's own, so it is `optimal_rotation`'s result for those inputs. A new
    codebook version, an epoch bump, a start-gap step or a dead block can
    only make it search for itself. The look-ahead builds no version, bumps no
    epoch and feeds nothing to the finder, and it keeps one window's results.
    """

    scheme_id = "wire"

    def __init__(self, cfg: PcmConfig, wear: WearConfig | None = None):
        super().__init__(cfg)
        self.finder = MfvFinder()
        self.wear = wear
        # version k's codeword of every value, indexed by value
        self.versions: list[tuple[int, ...]] = [build_codebook([], cfg.granule_bits)]
        self._built_generation = self.finder.generation
        self._codecs: dict[tuple[int, int], tuple[bytes, bytes]] = {}
        self._granule_bits = cfg.granule_bits
        self._width = w = cfg.partition_bits
        self._rotation_max = cfg.rotation_max
        self._partitions = cfg.partitions_per_block
        self._epoch_shift = cfg.block_bits
        self._lanes = lanes = sum(1 << (i * w) for i in range(cfg.partitions_per_block))
        self._part_mask = part_mask = (1 << w) - 1
        # read step k rotates by s = 2^k <= rotation_max < w, lane-wise:
        # rotate_left(x, s) = ((x << s) & high) | ((x >> (w - s)) & low)
        self._unrotate = [(s, lanes * (part_mask & part_mask << s), w - s, lanes * ((1 << s) - 1))
                          for s in (1 << k for k in range(cfg.rotation_max.bit_length()))]
        # block -> ((data, version, epoch, stored bits, meta), (rotations, rotated))
        self._ahead: dict[PcmBlock, tuple] = {}
        if w == 64:  # a partition is one uint64 lane of `optimal_rotations`
            self.look_ahead = self._look_ahead

    def overhead_bits_per_block(self) -> int:
        return self.cfg.counter_bits * self.cfg.partitions_per_block

    # -- codebook versioning --------------------------------------------------

    def current_version(self) -> int:
        if self.finder.generation != self._built_generation:
            ranked = self.finder.ranked_values()
            self.versions.append(build_codebook(ranked, self.cfg.granule_bits))
            self._built_generation = self.finder.generation
        return len(self.versions) - 1

    def _byte_table(self, granule_table: list[int]) -> bytes:
        """256-byte translate table applying a granule table to every granule
        of a byte; exact because the granule width divides 8."""
        g = self.cfg.granule_bits
        table = np.array(granule_table, dtype=np.uint8)
        return pack_granules(table[unpack_granules(bytes(range(256)), g)], g)

    def _codec(self, version: int, epoch: int) -> tuple[bytes, bytes]:
        """(encode, decode) translate tables of a codebook version whose
        codewords are rotated left by `epoch`; decode inverts encode."""
        key = (version, epoch)
        codec = self._codecs.get(key)
        if codec is None:
            g = self.cfg.granule_bits
            encode = [rotate_left(cw, epoch, g) for cw in self.versions[version]]
            decode = [0] * (1 << g)
            for v, cw in enumerate(encode):
                decode[cw] = v
            codec = self._codecs[key] = (self._byte_table(encode), self._byte_table(decode))
        return codec

    # -- write/read paths ------------------------------------------------------

    def encode(self, block, data):
        resident = self.finder.observe_write(split_granules(data, self._granule_bits))

        version = self.current_version()
        meta = block.meta
        epoch, bumped = next_epoch(meta >> self._epoch_shift, block.writes_since_bump,
                                   self.wear, self._granule_bits)
        inputs = (data, version, epoch, block.bits, meta)
        ahead = self._ahead.get(block)
        if ahead is not None and ahead[0] == inputs:
            rotations, phys = ahead[1]
        else:
            encoded = bytes_to_bits(data.translate(self._codec(version, epoch)[0]))
            rotations, _, phys = optimal_rotation(
                encoded, block.bits, self._width, self._rotation_max, meta, self._partitions)
        block.codebook_version = version
        block.writes_since_bump = 1 if bumped else block.writes_since_bump + 1
        # the previous content no longer pins its values
        block.refs = self.finder.rereference(block.refs, resident)
        return phys, epoch << self._epoch_shift | rotations

    def _look_ahead(self, writes) -> None:
        """Search the rotations of a window of (block, data) writes to
        distinct blocks in one batch; see the class docstring."""
        version = len(self.versions) - 1
        shift, nbytes = self._epoch_shift, self.cfg.block_bytes
        lane_mask = (1 << shift) - 1
        inputs, encoded, stored, incumbent = [], [], [], []
        for block, data in writes:
            if not isinstance(data, (bytes, bytearray)) or len(data) != nbytes:
                continue  # not a payload: the write raises
            meta = block.meta
            epoch = meta >> shift
            inputs.append((block, (data, version, epoch, block.bits, meta)))
            encoded.append(data.translate(self._codec(version, epoch)[0]))
            stored.append(block.bits.to_bytes(nbytes, "little"))
            incumbent.append((meta & lane_mask).to_bytes(nbytes, "little"))
        # a batch of one costs more than `optimal_rotation`, which encode calls instead
        results = optimal_rotations(b"".join(encoded), b"".join(stored), b"".join(incumbent),
                                    self._rotation_max, nbytes) if len(inputs) > 1 else []
        self._ahead = {block: (key, result) for (block, key), result in zip(inputs, results)}

    def read(self, block):
        image, counters = block.bits, block.meta
        lanes, part_mask = self._lanes, self._part_mask
        for s, high, back, low in self._unrotate:
            turn = counters & lanes  # the lanes whose counter has this step's bit set
            counters >>= 1
            if turn:
                image ^= (image ^ ((image << s) & high | (image >> back) & low)) & turn * part_mask
        return bits_to_bytes(image, self.cfg.block_bytes).translate(
            self._codec(block.codebook_version, block.meta >> self._epoch_shift)[1])


def make_scheme(scheme_id: str, cfg: PcmConfig, *, fnw_word_bits: int = 16,
                wear: WearConfig | None = None) -> WriteScheme:
    if scheme_id == "plain":
        return PlainScheme(cfg)
    if scheme_id == "diffwrite":
        return DiffScheme(cfg)
    if scheme_id == "fnw":
        return FnwScheme(cfg, fnw_word_bits)
    if scheme_id == "wire":
        return WireScheme(cfg, wear)
    raise ConfigError(f"unknown scheme '{scheme_id}' (choose from {', '.join(SCHEME_IDS)})")
