import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmsim import (DeadBlockError, PcmBlock, PcmConfig, Simulation, WearConfig,
                    build_codebook, optimal_rotation, pack_granules, program_cells,
                    schemes, unpack_granules)
from pcmsim.core import rotate_left
from pcmsim.schemes import FnwScheme, WireScheme, optimal_rotations

from helpers import freeze_codebook, rotate_right

CFG = PcmConfig()


def hamming(a, b):
    return bin(a ^ b).count("1")


def random_payload(rng, nbytes=64):
    return bytes(rng.randrange(256) for _ in range(nbytes))


# ---------------------------------------------------------------------------
# plain

def test_plain_programs_every_cell():
    sim = Simulation("plain", 4)
    out = sim.write(0, bytes(64))
    assert out.flips == 512
    out = sim.write(0, bytes(64))  # identical data still programs everything
    assert out.flips == 512
    assert (sim.memory.blocks[0].cell_writes == 2).all()


# ---------------------------------------------------------------------------
# diffwrite

def test_diff_flip_counts():
    sim = Simulation("diffwrite", 4)
    p = bytes([0b1001] + [0] * 63)
    sim.write(0, p)
    assert sim.write(0, p).flips == 0
    out = sim.write(0, bytes([0b1000] + [0] * 63))
    assert out.flips == 1 and out.flips_reset == 1


def test_diff_flips_match_popcount_oracle():
    rng = random.Random(5)
    sim = Simulation("diffwrite", 1)
    prev = bytes(64)
    for _ in range(50):
        nxt = random_payload(rng)
        out = sim.write(0, nxt)
        # independent bit-loop oracle
        expect = sum(bin(a ^ b).count("1") for a, b in zip(prev, nxt))
        assert out.flips == expect
        prev = nxt


# ---------------------------------------------------------------------------
# fnw

def _fnw_word_cfg():
    # one isolated 4-bit word in a tiny 8-bit block
    return PcmConfig(block_bytes=1, partitions_per_block=1, rotation_max=0,
                     counter_bits=1, granule_bits=4, page_bytes=64)


@pytest.mark.parametrize("phys,flip,data,expect_data,expect_meta", [
    (0b0000, 0, 0b1111, 0, 1),   # inverting stores 0000 again, costs the flip bit
    (0b1010, 0, 0b0101, 0, 1),   # invert wins 1 vs 4
    (0b0110, 0, 0b0110, 0, 0),   # identical data, flip kept
])
def test_fnw_examples(phys, flip, data, expect_data, expect_meta):
    cfg = _fnw_word_cfg()
    scheme = FnwScheme(cfg, word_bits=4)
    block = PcmBlock(cfg)
    block.bits = phys            # low word; high word stays zero
    block.meta = flip
    out = scheme.write(block, bytes([data]))
    assert out.flips == expect_data
    assert out.meta_flips == expect_meta
    assert scheme.read(block) == bytes([data])


def test_fnw_exhaustive_true_minimum_and_bound():
    # all (physical, data, flip) states of a 4-bit word: the choice taken is
    # the cheaper of both candidates and never exceeds floor(4/2)+1 = 3
    cfg = _fnw_word_cfg()
    for phys in range(16):
        for data in range(16):
            for flip in (0, 1):
                scheme = FnwScheme(cfg, word_bits=4)
                block = PcmBlock(cfg)
                block.bits = phys
                block.meta = flip << 0
                out = scheme.write(block, bytes([data]))
                cost_direct = hamming(phys, data) + (flip != 0)
                cost_invert = hamming(phys, data ^ 0xF) + (flip != 1)
                total = out.flips + out.meta_flips
                assert total == min(cost_direct, cost_invert)
                assert total <= 3
                assert scheme.read(block) == bytes([data])


def test_fnw_data_flips_never_exceed_diffwrite_on_shared_trace():
    rng = random.Random(17)
    fnw = Simulation("fnw", 2)
    diff = Simulation("diffwrite", 2)
    for _ in range(200):
        addr = rng.randrange(2)
        payload = random_payload(rng)
        out_f = fnw.write(addr, payload)
        out_d = diff.write(addr, payload)
        assert out_f.flips <= out_d.flips


def test_fnw_overhead_bits():
    sim = Simulation("fnw", 1)
    assert sim.scheme.overhead_bits_per_block() == 512 // 16


def _fnw_loop_reference(stored, flips, logical, word_bits, words):
    """Per-word Flip-N-Write decision: (physical bits, flip bits) to store.

    Flip bits are in lane form: word w's flip bit is bit w * word_bits.
    """
    word_mask = (1 << word_bits) - 1
    new_bits = new_flips = 0
    for w in range(words):
        shift = w * word_bits
        old = (stored >> shift) & word_mask
        d = (logical >> shift) & word_mask
        inv = d ^ word_mask
        f = (flips >> shift) & 1
        cost_direct = (old ^ d).bit_count() + (f != 0)
        cost_invert = (old ^ inv).bit_count() + (f != 1)
        invert = cost_invert < cost_direct or (cost_invert == cost_direct and f == 1)
        new_bits |= (inv if invert else d) << shift
        new_flips |= int(invert) << shift
    return new_bits, new_flips


@st.composite
def fnw_cases(draw):
    nbytes = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64]))
    bits = nbytes * 8
    word_bits = draw(st.sampled_from([w for w in range(1, bits + 1) if bits % w == 0]))
    stored = draw(st.integers(0, (1 << bits) - 1))
    words = bits // word_bits
    compact = draw(st.integers(0, (1 << words) - 1))
    flips = sum(((compact >> w) & 1) << (w * word_bits) for w in range(words))
    # repeated or complemented payloads make ties and full inversions likely
    payloads = draw(st.lists(
        st.one_of(st.binary(min_size=nbytes, max_size=nbytes),
                  st.sampled_from([bytes(nbytes), b"\xff" * nbytes])),
        min_size=1, max_size=3))
    return nbytes, word_bits, stored, flips, payloads


@settings(max_examples=400, deadline=None)
@given(fnw_cases())
def test_fnw_matches_per_word_reference(case):
    nbytes, word_bits, stored, flips, payloads = case
    cfg = PcmConfig(block_bytes=nbytes, partitions_per_block=1, rotation_max=0,
                    counter_bits=1, granule_bits=1, page_bytes=nbytes)
    scheme = FnwScheme(cfg, word_bits=word_bits)
    block = PcmBlock(cfg)
    block.bits = stored
    block.meta = flips
    for data in payloads:
        logical = int.from_bytes(data, "little")
        new_bits, new_flips = _fnw_loop_reference(block.bits, flips, logical,
                                                  word_bits, scheme.words)
        diff = block.bits ^ new_bits
        meta_diff = flips ^ new_flips
        out = scheme.write(block, data)
        assert block.bits == new_bits
        assert block.meta == new_flips
        assert (out.flips_set, out.flips_reset) == (
            (diff & new_bits).bit_count(), (diff & ~new_bits).bit_count())
        assert (out.meta_flips_set, out.meta_flips_reset) == (
            (meta_diff & new_flips).bit_count(), (meta_diff & ~new_flips).bit_count())
        assert scheme.read(block) == data
        flips = new_flips


# ---------------------------------------------------------------------------
# rotation search

def example_cases(cases):
    """Pin each of `cases` as an explicit Hypothesis example."""
    def pin(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test
    return pin


def one_partition(encoded, stored, width, rmax, incumbent):
    """(rotation, flips) from `optimal_rotation` on a one-partition block whose
    counter lane holds the incumbent."""
    r, flips, _ = optimal_rotation(encoded, stored, width, rmax, incumbent, partitions=1)
    return r, flips


def test_optimal_rotation_prefers_incumbent_then_smaller():
    # two rotations tie at distance 0 is impossible; build a tie at distance 1
    # stored 0000 vs encoded 0001: every rotation gives distance 1
    r, flips = one_partition(0b0001, 0b0000, 4, 3, incumbent=2)
    assert (r, flips) == (2, 1)
    r, flips = one_partition(0b0001, 0b0000, 4, 3, incumbent=9)
    assert (r, flips) == (0, 1)


def test_rotation_exact_match_two_bits():
    # stored physical 1000, freshly encoded 0010: rotating right by two aligns
    r, flips = one_partition(0b0010, 0b1000, 4, 3, incumbent=0)
    assert (r, flips) == (2, 0)


def test_rotation_brute_force_oracle():
    rng = random.Random(23)
    for _ in range(500):
        width = rng.choice([4, 8, 16, 64])
        rmax = rng.randrange(0, width)
        enc = rng.getrandbits(width)
        stored = rng.getrandbits(width)
        incumbent = rng.randrange(width)
        r, flips = one_partition(enc, stored, width, rmax, incumbent)
        best = min(hamming(rotate_right(enc, k, width), stored) for k in range(rmax + 1))
        assert flips == best
        assert hamming(rotate_right(enc, r, width), stored) == best
        assert 0 <= r <= rmax


@st.composite
def rotation_cases(draw):
    width = draw(st.integers(4, 128))
    rmax = draw(st.one_of(st.sampled_from([0, width - 1]), st.integers(0, width - 1)))
    # a short repeated pattern makes distinct rotations tie; a period that
    # divides the width makes the word periodic under rotation
    divisors = [p for p in range(1, width + 1) if width % p == 0]
    period = draw(st.one_of(st.integers(1, width), st.sampled_from(divisors)))
    pattern = draw(st.integers(0, (1 << period) - 1))
    encoded = sum(pattern << k for k in range(0, width, period)) & ((1 << width) - 1)
    stored = draw(st.one_of(st.integers(0, (1 << width) - 1), st.just(0)))
    incumbent = draw(st.integers(0, width + 2))
    return encoded, stored, width, rmax, incumbent


# lifetime-style 64-bit partitions: all-zero (period 1) and 0x1111... (period 4)
LIFETIME_ROTATION_CASES = [
    (encoded, stored, 64, 8, incumbent)
    for encoded in (0, 0x1111111111111111)
    for stored in (0, (1 << 64) - 1, 0x8888888888888888, 0x0123456789ABCDEF)
    for incumbent in (0, 5, 9)]


def naive_rotation(encoded, stored, width, rmax, incumbent):
    """(rotation, flips) of one partition by trying every rotation."""
    flips = [(rotate_right(encoded, r, width) ^ stored).bit_count() for r in range(rmax + 1)]
    best = min(flips)
    return (incumbent if incumbent <= rmax and flips[incumbent] == best
            else flips.index(best)), best


@settings(max_examples=600, deadline=None)
@given(rotation_cases())
@example_cases(LIFETIME_ROTATION_CASES)
def test_rotation_matches_naive_reference(case):
    encoded, stored, width, rmax, incumbent = case
    assert (one_partition(encoded, stored, width, rmax, incumbent)
            == naive_rotation(encoded, stored, width, rmax, incumbent))


def test_rotation_monotone_in_rotation_max():
    rng = random.Random(29)
    for _ in range(200):
        enc = rng.getrandbits(16)
        stored = rng.getrandbits(16)
        prev = None
        for rmax in range(0, 16):
            _, flips = one_partition(enc, stored, 16, rmax, 0)
            if prev is not None:
                assert flips <= prev
            prev = flips


@st.composite
def block_rotation_cases(draw, widths=(4, 8, 16, 24, 32, 64), cfg=None):
    """A block geometry PcmConfig accepts (`cfg` if given), partitions periodic
    or not, and incumbent counters in lane form that may lie above
    rotation_max, with an epoch above the lanes."""
    if cfg is None:
        width = draw(st.sampled_from(widths))
        partitions = draw(st.sampled_from([n for n in range(1, 9) if width * n % 8 == 0]))
        rmax = draw(st.one_of(st.sampled_from([0, 1, 8 % width, width - 1]),
                              st.integers(0, width - 1)))
        counter_bits = max(1, rmax.bit_length()) + draw(st.integers(0, 2))
        block_bytes = width * partitions // 8
        cfg = PcmConfig(block_bytes=block_bytes, partitions_per_block=partitions,
                        rotation_max=rmax, counter_bits=counter_bits, granule_bits=4,
                        page_bytes=block_bytes)
    width, partitions = cfg.partition_bits, cfg.partitions_per_block
    counter_bits = cfg.counter_bits
    # a short period makes every rotation r tie with r mod p
    periods = [p for p in (1, 2, 3, 4, 8) if width % p == 0] + [width]
    shape = draw(st.sampled_from(["all periodic", "some periodic", "random"]))
    encoded = 0
    for i in range(partitions):
        p = width
        if shape == "all periodic" or (shape == "some periodic" and draw(st.booleans())):
            p = draw(st.sampled_from(periods))
        pattern = draw(st.integers(0, (1 << p) - 1))
        encoded |= sum(pattern << k for k in range(0, width, p)) << (i * width)
    bits = cfg.block_bits
    stored = draw(st.one_of(st.integers(0, (1 << bits) - 1), st.just(0),
                            st.just((1 << bits) - 1)))
    counters = draw(st.lists(st.integers(0, (1 << counter_bits) - 1),
                             min_size=partitions, max_size=partitions))
    incumbent = sum(c << (i * width) for i, c in enumerate(counters))
    incumbent |= draw(st.integers(0, 7)) << bits
    return cfg, encoded, stored, incumbent


ONES = (1 << 64) - 1
# the lifetime shape: all-zero and all-one 64-bit partitions, period 1
LIFETIME_BLOCK_CASES = [
    (PcmConfig(), ONES << 64 | ONES << 192 | ONES << 448, stored,
     sum(c << (64 * i) for i, c in enumerate([0, 5, 8, 3, 0, 7, 1, 2])) | 3 << 512)
    for stored in (0, (1 << 512) - 1, 0x0123456789ABCDEF << 128)]


@settings(max_examples=500, deadline=None)
@given(block_rotation_cases())
@example_cases(LIFETIME_BLOCK_CASES)
def test_block_rotation_matches_per_partition_naive_search(case):
    cfg, encoded, stored, incumbent = case
    width = cfg.partition_bits
    mask = (1 << width) - 1
    rotations = flips = rotated = 0
    for i in range(cfg.partitions_per_block):
        part = (encoded >> (i * width)) & mask
        r, part_flips = naive_rotation(part, (stored >> (i * width)) & mask, width,
                                       cfg.rotation_max, (incumbent >> (i * width)) & mask)
        rotations |= r << (i * width)
        flips += part_flips
        rotated |= rotate_right(part, r, width) << (i * width)
    assert optimal_rotation(encoded, stored, width, cfg.rotation_max, incumbent,
                            cfg.partitions_per_block) == (rotations, flips, rotated)


@st.composite
def rotation_batches(draw, min_size=1):
    """`min_size` to 64 `block_rotation_cases` of one geometry with 64-bit
    partitions."""
    first = draw(block_rotation_cases(widths=(64,)))
    cfg = first[0]
    return [first] + draw(st.lists(block_rotation_cases(cfg=cfg),
                                   min_size=min_size - 1, max_size=63))


def lane_period(lane):
    """The smallest p dividing 64 with lane equal to itself rotated by p."""
    return next(p for p in (1, 2, 4, 8, 16, 32, 64) if rotate_right(lane, p, 64) == lane)


@settings(max_examples=200, deadline=None)
@given(rotation_batches())
@example_cases([LIFETIME_BLOCK_CASES])
def test_batched_rotation_search_matches_optimal_rotation(batch):
    cfg = batch[0][0]
    nbytes, rmax, partitions = cfg.block_bytes, cfg.rotation_max, cfg.partitions_per_block
    lanes_only = (1 << cfg.block_bits) - 1
    results = optimal_rotations(
        b"".join(encoded.to_bytes(nbytes, "little") for _, encoded, _, _ in batch),
        b"".join(stored.to_bytes(nbytes, "little") for _, _, stored, _ in batch),
        b"".join((incumbent & lanes_only).to_bytes(nbytes, "little")
                 for _, _, _, incumbent in batch),
        rmax, nbytes)
    assert len(results) == len(batch)
    for (_, encoded, stored, incumbent), (rotations, rotated) in zip(batch, results):
        chosen, _, expected = optimal_rotation(encoded, stored, 64, rmax, incumbent, partitions)
        assert (rotations, rotated) == (chosen, expected)
        # the batch tries every r: a p-periodic lane flips the same cells at r
        # and r mod p, so unless the incumbent ties, its first best r is below p
        for i in range(partitions):
            lane, r = (encoded >> (64 * i)) & ONES, (rotations >> (64 * i)) & ONES
            if r != (incumbent >> (64 * i)) & ONES:
                assert r < lane_period(lane)


@settings(max_examples=100, deadline=None)
@given(rotation_batches(min_size=2), st.integers(0, 7))
def test_wire_encode_takes_the_looked_ahead_rotations(batch, epoch):
    """After `look_ahead` of two or more writes, each block's write encodes to
    `optimal_rotation`'s result without calling it, the epoch bits above the
    lanes included."""
    cfg = batch[0][0]
    scheme = freeze_codebook(WireScheme(cfg))
    writes, expected = [], []
    for _, data, stored, incumbent in batch:
        block = PcmBlock(cfg)
        block.bits = stored
        block.meta = incumbent & ((1 << cfg.block_bits) - 1) | epoch << cfg.block_bits
        payload = data.to_bytes(cfg.block_bytes, "little")
        encoded = int.from_bytes(payload.translate(scheme._codec(0, epoch)[0]), "little")
        rotations, _, phys = optimal_rotation(encoded, stored, 64, cfg.rotation_max,
                                              block.meta, cfg.partitions_per_block)
        writes.append((block, payload))
        expected.append((phys, epoch << cfg.block_bits | rotations))
    scheme.look_ahead(writes)
    with mock.patch.object(schemes, "optimal_rotation", side_effect=AssertionError):
        assert [scheme.encode(block, payload) for block, payload in writes] == expected


@pytest.mark.parametrize("change", ["payload", "stored bits", "counters", "epoch", "version"])
def test_wire_encode_searches_again_when_an_input_changed(change):
    """A looked-ahead result is taken only while every input it was searched
    from still holds; after any one changes, encode searches for itself."""
    rng = random.Random(71)
    scheme = freeze_codebook(WireScheme(CFG, WearConfig(enabled=True, epoch_writes=4)))
    block = PcmBlock(CFG)
    block.bits = rng.getrandbits(512)
    block.meta = sum(rng.randrange(9) << (64 * i) for i in range(1, 8)) | 3 | 1 << 512
    # every rotation of the zero partition 0 ties, so its incumbent counter 3 wins
    data = bytes(8) + random_payload(rng, 56)

    def expected(version, epoch):
        encoded = int.from_bytes(data.translate(scheme._codec(version, epoch)[0]), "little")
        rotations, _, phys = optimal_rotation(encoded, block.bits, 64, 8, block.meta, 8)
        return phys, epoch << 512 | rotations

    scheme.look_ahead([(block, data), (PcmBlock(CFG), data)])
    stale = expected(0, 1)
    version, epoch = 0, 1
    if change == "payload":
        data = random_payload(rng)
    elif change == "stored bits":
        block.bits = rng.getrandbits(512)
    elif change == "counters":
        block.meta ^= 7  # partition 0's counter 3 -> 4
    elif change == "epoch":
        block.writes_since_bump, epoch = 4, 2
    else:
        scheme.versions.append(build_codebook(list(range(15, -1, -1)), 4))
        version = 1
    fresh = expected(version, epoch)
    assert fresh != stale
    assert scheme.encode(block, data) == fresh


# ---------------------------------------------------------------------------
# wire

def test_wire_rotation_conformance_small_partition():
    # 4-bit partitions; stored physical partition 1000 reached from encoded
    # 0010 by a 2-bit rotation with zero data flips
    cfg = PcmConfig(block_bytes=4, partitions_per_block=8, rotation_max=3,
                    counter_bits=2, granule_bits=4, page_bytes=4096)
    scheme = freeze_codebook(WireScheme(cfg))
    block = PcmBlock(cfg)
    block.bits = 0b1000
    payload = pack_granules([0b0010] + [0] * 7, 4)
    out = scheme.write(block, payload)
    assert out.flips == 0
    assert block.meta & ((1 << cfg.partition_bits) - 1) == 2  # partition 0's counter lane
    assert scheme.read(block) == payload


def test_wire_identity_write_costs_nothing():
    sim = Simulation("wire", 2)
    freeze_codebook(sim.scheme)
    payload = pack_granules([0b0010] + [0] * 127, 4)
    sim.write(0, payload)
    meta_before = sim.totals.meta_flips
    out = sim.write(0, payload)
    assert out.flips == 0
    assert sim.totals.meta_flips == meta_before
    assert sim.read(0) == payload


def test_wire_per_partition_flips_match_brute_force():
    rng = random.Random(31)
    cfg = PcmConfig()
    scheme = freeze_codebook(WireScheme(cfg))
    block = PcmBlock(cfg)
    block.bits = rng.getrandbits(512)
    width = cfg.partition_bits
    mask = (1 << width) - 1
    for _ in range(40):
        payload = random_payload(rng)
        enc = int.from_bytes(payload, "little")  # identity codebook, epoch 0
        expect = 0
        for i in range(cfg.partitions_per_block):
            e = (enc >> (i * width)) & mask
            s = (block.bits >> (i * width)) & mask
            expect += min(hamming(rotate_right(e, k, width), s)
                          for k in range(cfg.rotation_max + 1))
        out = scheme.write(block, payload)
        assert out.flips == expect


def test_wire_degenerates_to_diffwrite():
    cfg = PcmConfig(rotation_max=0)
    rng = random.Random(37)
    wire = Simulation("wire", 4, cfg)
    freeze_codebook(wire.scheme)
    diff = Simulation("diffwrite", 4, cfg)
    for _ in range(300):
        addr = rng.randrange(4)
        payload = random_payload(rng)
        out_w = wire.write(addr, payload)
        out_d = diff.write(addr, payload)
        assert (out_w.flips_set, out_w.flips_reset) == (out_d.flips_set, out_d.flips_reset)
        assert out_w.meta_flips == 0


@pytest.mark.parametrize("g", [1, 2, 4, 8])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_wire_translate_tables_equal_per_granule_path(g, data):
    n = 1 << g
    ranked = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=16))
    payloads = data.draw(st.lists(st.binary(min_size=64, max_size=64),
                                  min_size=1, max_size=4))
    scheme = freeze_codebook(WireScheme(PcmConfig(granule_bits=g)))
    scheme.versions.append(build_codebook(ranked, g))
    book = scheme.versions[1]
    for epoch in range(g):
        enc = np.array([rotate_left(cw, epoch, g) for cw in book], dtype=np.uint8)
        dec = np.array([book.index(rotate_right(cw, epoch, g)) for cw in range(n)],
                       dtype=np.uint8)
        for payload in payloads:
            image = pack_granules(enc[unpack_granules(payload, g)], g)
            enc_table, dec_table = scheme._codec(1, epoch)
            assert payload.translate(enc_table) == image
            decoded = image.translate(dec_table)
            assert decoded == pack_granules(dec[unpack_granules(image, g)], g) == payload


@st.composite
def wire_geometries(draw):
    """(cfg, counters, epoch): a block geometry PcmConfig accepts, with a
    rotation counter of at most rotation_max per partition and an epoch."""
    width = draw(st.sampled_from([1, 4, 8, 64]))
    partitions = draw(st.sampled_from([n for n in range(1, 17) if width * n % 8 == 0]))
    rmax = draw(st.integers(0, width - 1))
    counter_bits = draw(st.integers(max(1, rmax.bit_length()), width))
    g = draw(st.sampled_from([b for b in (1, 2, 4, 8) if width % b == 0]))
    block_bytes = width * partitions // 8
    cfg = PcmConfig(block_bytes=block_bytes, partitions_per_block=partitions,
                    rotation_max=rmax, counter_bits=counter_bits, granule_bits=g,
                    page_bytes=block_bytes)
    counters = draw(st.lists(st.integers(0, rmax), min_size=partitions, max_size=partitions))
    return cfg, counters, draw(st.integers(0, g - 1))


def per_partition_read(scheme, block):
    """`WireScheme.read` one partition at a time: undo each partition's
    rotation from its counter lane, then decode."""
    cfg = scheme.cfg
    width = cfg.partition_bits
    mask = (1 << width) - 1
    image = 0
    for i in range(cfg.partitions_per_block):
        stored = (block.bits >> (i * width)) & mask
        r = (block.meta >> (i * width)) & mask
        if r:
            stored = ((stored << r) | (stored >> (width - r))) & mask
        image |= stored << (i * width)
    return image.to_bytes(cfg.block_bytes, "little").translate(
        scheme._codec(block.codebook_version, block.meta >> cfg.block_bits)[1])


@settings(max_examples=300, deadline=None)
@given(geometry=wire_geometries(), data=st.data())
def test_wire_read_matches_per_partition_loop(geometry, data):
    cfg, counters, epoch = geometry
    g = cfg.granule_bits
    scheme = freeze_codebook(WireScheme(cfg))
    ranked = data.draw(st.lists(st.integers(0, (1 << g) - 1), unique=True, max_size=16))
    scheme.versions.append(build_codebook(ranked, g))
    block = PcmBlock(cfg)
    block.bits = data.draw(st.integers(0, (1 << cfg.block_bits) - 1))
    block.meta = sum(r << (i * cfg.partition_bits) for i, r in enumerate(counters))
    block.meta |= epoch << cfg.block_bits
    block.codebook_version = data.draw(st.integers(0, 1))
    assert scheme.read(block) == per_partition_read(scheme, block)


@settings(max_examples=300, deadline=None)
@given(old=wire_geometries(), data=st.data())
def test_wire_meta_charge_is_the_same_in_lane_and_packed_form(old, data):
    # a packed word (counters counter_bits apart, epoch above) and the lane
    # form give every field the same width, so a change charges the same SET
    # and RESET flips in both
    cfg, old_counters, old_epoch = old
    n, cb, w = cfg.partitions_per_block, cfg.counter_bits, cfg.partition_bits
    new_counters = data.draw(st.lists(st.integers(0, (1 << cb) - 1), min_size=n, max_size=n))
    new_epoch = data.draw(st.integers(0, cfg.granule_bits - 1))

    def word(counters, epoch, spacing, epoch_shift):
        return sum(c << (i * spacing) for i, c in enumerate(counters)) | epoch << epoch_shift

    def charge(spacing, epoch_shift):
        block = PcmBlock(cfg)
        block.meta = word(old_counters, old_epoch, spacing, epoch_shift)
        out = program_cells(block, 0, word(new_counters, new_epoch, spacing, epoch_shift), cfg)
        return out.meta_flips_set, out.meta_flips_reset

    assert charge(w, cfg.block_bits) == charge(cb, cb * n)


@pytest.mark.parametrize("g", [1, 2, 4, 8])
@settings(max_examples=10, deadline=None)
@given(writes=st.lists(st.tuples(st.integers(0, 3), st.binary(min_size=64, max_size=64)),
                       min_size=1, max_size=30))
def test_wire_random_payloads_read_back_exactly(g, writes):
    # epoch bumps every other write and a live codebook exercise many tables
    sim = Simulation("wire", 4, PcmConfig(granule_bits=g),
                     WearConfig(enabled=True, epoch_writes=2, remap_period=7))
    stored = {}
    for addr, payload in writes:
        sim.write(addr, payload)
        stored[addr] = payload
        for a, p in stored.items():
            assert sim.read(a) == p


def test_wire_read_of_untouched_block_is_zeros():
    sim = Simulation("wire", 2)
    assert sim.read(1) == bytes(64)


def test_wire_round_trip_with_live_codebook():
    # skewed values force promotions and codebook version changes mid-stream
    rng = random.Random(41)
    sim = Simulation("wire", 8)
    stored = {}
    for i in range(400):
        addr = rng.randrange(8)
        vals = [rng.choice([0, 0, 0, 7, 7, 0xF, rng.randrange(16)])
                for _ in range(128)]
        payload = pack_granules(vals, 4)
        sim.write(addr, payload)
        stored[addr] = payload
        assert sim.read(addr) == stored[addr]
    assert len(sim.scheme.versions) > 1   # ranking actually evolved
    for addr, payload in stored.items():  # older encodings still decodable
        assert sim.read(addr) == payload


@pytest.mark.parametrize("scheme_id", ["plain", "diffwrite", "fnw", "wire"])
def test_round_trip_all_schemes(scheme_id):
    rng = random.Random(43)
    sim = Simulation(scheme_id, 4)
    stored = {}
    for _ in range(100):
        addr = rng.randrange(4)
        payload = random_payload(rng)
        sim.write(addr, payload)
        stored[addr] = payload
        assert sim.read(addr) == payload
    for addr, payload in stored.items():
        assert sim.read(addr) == payload


def test_wire_metadata_cache_counts_extra_reads():
    cfg = PcmConfig(metadata_cache_bytes=12)  # 2 lines
    sim = Simulation("wire", 8, cfg)
    payload = bytes(64)
    for addr in range(8):
        sim.write(addr, payload)
    assert sim.meta_extra_reads() == 8   # cold misses
    sim.read(7)
    sim.read(6)
    assert sim.meta_extra_reads() == 8   # both still resident
    sim.read(0)
    assert sim.meta_extra_reads() == 9
    # writes and reads round-robin over three addresses thrash the two lines:
    # every access misses
    for i in range(30):
        addr = 1 + i % 3
        if i % 2:
            sim.read(addr)
        else:
            sim.write(addr, payload)
    assert sim.meta_extra_reads() == 39
    assert sim.meta_extra_reads() == sim.metadata_cache.misses
    assert sim.metadata_cache.hits == 2

    for scheme_id in ("plain", "diffwrite", "fnw"):
        other = Simulation(scheme_id, 8, cfg)
        for i in range(30):
            other.write(i % 3, payload)
            other.read(i % 3)
        assert other.meta_extra_reads() == 0


def test_dead_block_accesses_touch_no_metadata_line():
    sim = Simulation("wire", 4, PcmConfig(page_bytes=64))
    sim.memory.blocks[2].failed = True
    with pytest.raises(DeadBlockError):
        sim.write(2, bytes(64))
    with pytest.raises(DeadBlockError):
        sim.read(2)
    cache = sim.metadata_cache
    assert (cache.hits, cache.misses, sim.meta_extra_reads()) == (0, 0, 0)


def test_wire_overhead_is_48_bits_with_defaults():
    sim = Simulation("wire", 1)
    assert sim.scheme.overhead_bits_per_block() == 48
