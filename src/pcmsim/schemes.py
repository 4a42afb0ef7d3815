"""Pluggable write-encoding schemes: encoders behind one write path.

A scheme is an encoder. `encode(block, data)` returns the physical bits, the
metadata word (`PcmBlock.meta`) and the uncharged tags (`PcmBlock.tags`) to
store, the last two in forms the scheme owns; `read(block)` decodes the stored
image. `WriteScheme.write`, the one write path, stores the tags and programs
bits and word with `program_cells` or `program_all_cells`, which charge the
word's flips too. A read returns exactly the last logical data written.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (ConfigError, DeadBlockError, PcmBlock, PcmConfig, WriteOutcome,
                   program_all_cells, program_cells)
from .mfv import MfvFinder, build_codebook, pack_granules, unpack_granules
from .wearlevel import WearConfig, next_epoch


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
    """
    mask = (1 << width) - 1
    chosen = flips = rotated = 0
    for shift in range(0, width * partitions, width):
        part, old = (encoded >> shift) & mask, (stored >> shift) & mask
        copies = [(part >> r | part << (width - r)) & mask for r in range(rotation_max + 1)]
        counts = [(copy ^ old).bit_count() for copy in copies]
        best = min(counts)
        r = (incumbent >> shift) & mask
        if r > rotation_max or counts[r] != best:
            r = counts.index(best)
        chosen |= r << shift
        flips += best
        rotated |= copies[r] << shift
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
    """Differential write: the identity encoder, programming only changed cells."""

    scheme_id = "diffwrite"
    programs_all = False  # program every cell on a write, not only changed ones
    # look_ahead(writes), if set, prepares a window of (block, data) writes
    # to distinct blocks just before they run (see `Simulation.windows`)
    look_ahead = None
    metadata_cached = False  # the simulation reaches the metadata word through a cache
    overhead_bits = 0  # metadata bits per block: the report's column, a cached line's size
    copy_charges_meta = True  # a start-gap copy charges the metadata word's flips

    def __init__(self, cfg: PcmConfig, wear: WearConfig | None = None):
        self.cfg = cfg

    def write(self, block: PcmBlock, data: bytes) -> WriteOutcome:
        """Encode, store the tags, then program the line: data cells and metadata word.

        A write to a failed block raises before `encode`, so it moves nothing."""
        if block.failed:
            raise DeadBlockError("write to dead block")
        if len(data) != self.cfg.block_bytes:
            raise ConfigError(
                f"payload must be {self.cfg.block_bytes} bytes, got {len(data)}")
        bits, meta, block.tags = self.encode(block, data)
        program = program_all_cells if self.programs_all else program_cells
        return program(block, bits, meta, self.cfg)

    def encode(self, block: PcmBlock, data: bytes) -> tuple[int, int, object]:
        """(physical bits, metadata word, tags) to store; changes no block state."""
        return int.from_bytes(data, "little"), 0, None  # the identity encoder

    def read(self, block: PcmBlock) -> bytes:
        return block.bits.to_bytes(self.cfg.block_bytes, "little")


class PlainScheme(WriteScheme):
    """Conventional PCM write: every cell is programmed on every write."""

    scheme_id = "plain"
    programs_all = True


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

    Lane layout. All words are decided in one pass on the block's int, so W
    is at least 4. A word's popcount c is summed in place by SWAR steps whose
    masks never cross a word boundary. The compare adds 2^k - W - 2 to
    2c + 3f, with 2^k the smallest power of two above W + 1, so bit k of the
    sum is the decision. The sum stays below 2^(k+1) <= 2^W for W >= 4, so it
    never carries into the next word's lane. The block's metadata word holds
    its flip bits in this lane form: word i's flip bit is bit i * W, the
    lowest cell of the word, so the decision reads them as they are and its
    result is stored as it is.
    """

    scheme_id = "fnw"
    copy_charges_meta = False  # kept for the goldens: flip bits move free with a copy

    def __init__(self, cfg: PcmConfig, wear: WearConfig | None = None, *, word_bits: int = 16):
        super().__init__(cfg)
        if word_bits <= 0 or cfg.block_bits % word_bits != 0:
            raise ConfigError(f"fnw word width {word_bits} must divide the block")
        if word_bits < 4:
            raise ConfigError(f"fnw word width {word_bits} must be at least 4")
        self.word_bits = w = word_bits
        self.overhead_bits = n = cfg.block_bits // w  # a flip bit per word
        self._word_mask = (1 << w) - 1

        self._lanes = lanes = sum(1 << (i * w) for i in range(n))  # lowest bit of every word
        self._popcount_steps = _popcount_steps(w, lanes)
        self._k = k = (w + 1).bit_length()
        self._bias = ((1 << k) - w - 2) * lanes

    def encode(self, block, data):
        logical = int.from_bytes(data, "little")
        flips = block.meta
        c = block.bits ^ logical
        for f, lo, hi in self._popcount_steps:
            c = (c & lo) + ((c & hi) >> f)
        lanes = self._lanes
        invert = (((c << 1) + 3 * (flips & lanes) + self._bias) >> self._k) & lanes
        return logical ^ invert * self._word_mask, invert, None

    def read(self, block):
        return (block.bits ^ block.meta * self._word_mask).to_bytes(self.cfg.block_bytes, "little")


class WireScheme(WriteScheme):
    """Frequent-value codebook encoding with per-partition rotation.

    Writes feed granules to the frequent-value finder, encode them through
    the current codebook version (bit-rotated by the block's wear epoch),
    then rotate each partition to best match the stored cells. Encoding and
    decoding are one `bytes.translate` each, through 256-byte tables cached
    per (version, epoch).

    A block's tags are (codebook version, writes since the last epoch bump,
    referenced-value mask), (0, 0, 0) until written: the version keeps older
    content decodable as the ranking evolves, the count drives `next_epoch`,
    and the mask holds the frequent values the content pins in the finder.

    The metadata word, reached through the simulation's metadata cache, is in
    lane form like `fnw`'s: partition i's rotation counter at bit
    i * partition_bits, the epoch at bit block_bits. Bit k of every counter
    lines up with its lane, so a read undoes all rotations at once: step k
    rotates left by 2^k the lanes whose counter has bit k set.

    With 64-bit partitions the rotation search runs ahead in batches.
    `look_ahead` decides each write of a window to distinct blocks: its epoch,
    by `next_epoch`, and its rotations, with the newest codebook version built
    so far. Both are a pure function of the write's key, the payload and the
    stored image's (bits, meta, write count), so writes repeating a key share
    one entry: one `optimal_rotations` call searches each distinct key of the
    window once. `encode` takes the entry under its own key, whichever block
    holds it, so content a start-gap step moved still finds it. A write with
    none (a bytearray, a direct write) decides and searches for itself; one
    whose version was built after the batch searches again. The look-ahead
    builds no version, feeds the finder nothing and keeps one window's results.

    A read decodes each stored image once. `read` keeps each block's last
    decode with the `bits`, `meta` and `tags` objects it came from, and
    returns it while the block still holds those same three objects;
    otherwise it decodes and keeps the new result. This is exact: the decode
    is a pure function of the three values, all immutable, and a codec table
    never changes once built, so the same three objects give the same bytes.
    Every write stores a new tags tuple, and a start-gap copy gives the block
    the objects of the image it copies. The dict holds at most one entry per
    physical block.
    """

    scheme_id = "wire"
    metadata_cached = True

    def __init__(self, cfg: PcmConfig, wear: WearConfig | None = None):
        super().__init__(cfg)
        self.finder = MfvFinder()
        self.wear = wear if wear is not None else WearConfig()
        # version k's codeword of every value, indexed by value
        self.versions: list[tuple[int, ...]] = [build_codebook([], cfg.granule_bits)]
        self._built_generation = self.finder.generation
        self._codec = functools.cache(self._build_codec)
        self._granule_bits = cfg.granule_bits
        w = cfg.partition_bits
        # a counter per partition, of the fewest bits that name each of its w rotations
        self.overhead_bits = max(1, (w - 1).bit_length()) * cfg.partitions_per_block
        self._epoch_shift = cfg.block_bits
        self._lanes = lanes = sum(1 << (i * w) for i in range(cfg.partitions_per_block))
        self._part_mask = part_mask = (1 << w) - 1
        # read step k rotates by s = 2^k <= rotation_max < w, lane-wise:
        # x rotated left by s in each lane = ((x << s) & high) | ((x >> (w - s)) & low)
        self._unrotate = [(s, lanes * (part_mask & part_mask << s), w - s, lanes * ((1 << s) - 1))
                          for s in (1 << k for k in range(cfg.rotation_max.bit_length()))]
        # a write's key -> [(epoch, bumped), (rotations, rotated)], at version _ahead_version
        self._ahead, self._ahead_version = {}, 0
        # block -> (bits, meta, tags, data) of its last decode (see `read`)
        self._decoded: dict[PcmBlock, tuple[int, int, object, bytes]] = {}
        if w == 64:  # a partition is one uint64 lane of `optimal_rotations`
            self.look_ahead = self._look_ahead

    # -- codebook versioning --------------------------------------------------

    def current_version(self) -> int:
        if self.finder.generation != self._built_generation:
            ranked = self.finder.ranked_values()
            self.versions.append(build_codebook(ranked, self.cfg.granule_bits))
            self._built_generation = self.finder.generation
        return len(self.versions) - 1

    def _build_codec(self, version: int, epoch: int) -> tuple[bytes, bytes]:
        """(encode, decode) translate tables of a codebook version whose g-bit
        codewords are rotated left by `epoch % g`. The granule width divides
        8, so encode applies the codebook to every granule of a byte and is a
        permutation of the 256 bytes; decode is its inverse. `_codec` is its
        cache."""
        g, r = self._granule_bits, epoch % self._granule_bits
        table = np.array([(cw << r | cw >> (g - r)) & ((1 << g) - 1)
                          for cw in self.versions[version]], dtype=np.uint8)
        encode = pack_granules(table[unpack_granules(bytes(range(256)), g)], g)
        return encode, bytes.maketrans(encode, bytes(range(256)))

    # -- write/read paths ------------------------------------------------------

    def encode(self, block, data):
        resident = self.finder.observe_write(data, self._granule_bits)

        version = self.current_version()
        bits, meta = block.bits, block.meta
        _, writes, refs = block.tags or (0, 0, 0)
        ahead = self._ahead.get((data, bits, meta, writes)) if isinstance(data, bytes) else None
        if ahead is None:  # not prepared: a bytearray (unhashable), or a direct write
            epoch, bumped = next_epoch(meta >> self._epoch_shift, writes, self.wear,
                                       self._granule_bits)
        else:
            (epoch, bumped), (rotations, phys) = ahead
        if ahead is None or self._ahead_version != version:
            encoded = int.from_bytes(data.translate(self._codec(version, epoch)[0]), "little")
            cfg = self.cfg
            rotations, _, phys = optimal_rotation(encoded, bits, cfg.partition_bits,
                                                  cfg.rotation_max, meta, cfg.partitions_per_block)
        self.finder.rereference(refs, resident)  # the block's references follow its content
        tags = (version, 1 if bumped else writes + 1, resident)
        return phys, epoch << self._epoch_shift | rotations, tags

    def _look_ahead(self, writes) -> None:
        """Decide the epochs of a window of (block, data) writes to distinct
        blocks and search their rotations in one batch; see the class docstring."""
        shift, nbytes, version = self._epoch_shift, self.cfg.block_bytes, len(self.versions) - 1
        lane_mask = (1 << shift) - 1
        ahead, encoded, stored, incumbent = {}, [], [], []
        for block, data in writes:
            if not isinstance(data, bytes) or len(data) != nbytes:
                continue  # searched by its write (a bytearray, unhashable), or the write raises
            bits, meta, tags = block.bits, block.meta, block.tags
            taken = tags[1] if tags else 0  # writes since the block's last epoch bump
            entry = [next_epoch(meta >> shift, taken, self.wear, self._granule_bits), None]
            if ahead.setdefault((data, bits, meta, taken), entry) is entry:  # a new key: a row
                encoded.append(data.translate(self._codec(version, entry[0][0])[0]))
                stored.append(bits.to_bytes(nbytes, "little"))
                incumbent.append((meta & lane_mask).to_bytes(nbytes, "little"))
        results = optimal_rotations(b"".join(encoded), b"".join(stored), b"".join(incumbent),
                                    self.cfg.rotation_max, nbytes) if encoded else ()
        for entry, result in zip(ahead.values(), results):  # the rows are the entries in order
            entry[1] = result
        self._ahead, self._ahead_version = ahead, version

    def read(self, block):
        bits, meta, tags = block.bits, block.meta, block.tags
        last = self._decoded.get(block)
        if last is not None and last[0] is bits and last[1] is meta and last[2] is tags:
            return last[3]
        data = self._decode(bits, meta, tags)
        self._decoded[block] = (bits, meta, tags, data)
        return data

    def _decode(self, bits: int, meta: int, tags) -> bytes:
        """The logical data of a stored image: undo the rotations, then translate."""
        image, counters = bits, meta
        lanes, part_mask = self._lanes, self._part_mask
        for s, high, back, low in self._unrotate:
            turn = counters & lanes  # the lanes whose counter has this step's bit set
            counters >>= 1
            if turn:
                image ^= (image ^ ((image << s) & high | (image >> back) & low)) & turn * part_mask
        return image.to_bytes(self.cfg.block_bytes, "little").translate(
            self._codec(tags[0] if tags else 0, meta >> self._epoch_shift)[1])


SCHEMES = {cls.scheme_id: cls for cls in (PlainScheme, WriteScheme, FnwScheme, WireScheme)}
SCHEME_IDS = tuple(SCHEMES)


def make_scheme(scheme_id: str, cfg: PcmConfig, wear: WearConfig | None = None) -> WriteScheme:
    if scheme_id not in SCHEME_IDS:  # a tuple: an unhashable id is unknown, not a TypeError
        raise ConfigError(f"unknown scheme '{scheme_id}' (choose from {', '.join(SCHEME_IDS)})")
    return SCHEMES[scheme_id](cfg, wear)
