import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmsim import (ConfigError, MetadataCache, PcmBlock, PcmConfig, PcmMemory,
                    StartGapLeveler, WriteOutcome, program_all_cells, program_cells)

CFG = PcmConfig()


def test_program_identical_data_flips_nothing():
    b = PcmBlock()
    b.bits = 0b1001
    out = program_cells(b, 0b1001, 0, CFG)
    assert out.flips == 0
    assert b.bits == 0b1001


def test_program_single_bit_reset():
    b = PcmBlock()
    b.bits = 0b1001
    out = program_cells(b, 0b1000, 0, CFG)
    assert out.flips_set == 0
    assert out.flips_reset == 1
    assert b.bits == 0b1000


def test_program_complement_counts_sets():
    b = PcmBlock()
    out = program_cells(b, 0b1111, 0, CFG)
    assert out.flips_set == 4
    assert out.flips_reset == 0


def test_program_is_idempotent_for_equal_data():
    rng = random.Random(7)
    b = PcmBlock()
    data = rng.getrandbits(CFG.block_bits)
    program_cells(b, data, 0, CFG)
    assert program_cells(b, data, 0, CFG).flips == 0


def test_wear_conservation():
    # every wear increment must appear as exactly one counted flip
    rng = random.Random(1)
    mem = PcmMemory(1, CFG)
    b = mem.blocks[0]
    total = 0
    for _ in range(50):
        out = program_cells(b, rng.getrandbits(CFG.block_bits), 0, CFG)
        total += out.flips
    assert int(mem.wear_matrix().sum()) == total


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([program_cells, program_all_cells]), st.integers(1, 8),
       st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**80 - 1)),
                min_size=1, max_size=8))
def test_program_charges_and_stores_the_metadata_word(program, nbytes, writes):
    # the metadata word's changed bits are charged by target state and it is
    # stored; only the data cells wear
    cfg = PcmConfig(block_bytes=nbytes, partitions_per_block=1, rotation_max=0,
                    granule_bits=1, page_bytes=nbytes,
                    cell_endurance=10**6)
    mem = PcmMemory(1, cfg)
    b = mem.blocks[0]
    data_flips = 0
    for bits, meta in writes:
        bits &= (1 << cfg.block_bits) - 1
        changed = b.meta ^ meta
        out = program(b, bits, meta, cfg)
        assert out.meta_flips_set == (changed & meta).bit_count()
        assert out.meta_flips_reset == changed.bit_count() - out.meta_flips_set
        assert (b.bits, b.meta) == (bits, meta)
        data_flips += out.flips
        assert int(mem.wear_matrix().sum()) == data_flips


def test_program_all_wears_every_cell():
    mem = PcmMemory(1, CFG)
    b = mem.blocks[0]
    data = (1 << 10) | 1
    out = program_all_cells(b, data, 0, CFG)
    assert out.flips_set == 2
    assert out.flips_reset == CFG.block_bits - 2
    assert (mem.wear_matrix()[0] == 1).all()
    out = program_all_cells(b, data, 0, CFG)
    assert out.flips == CFG.block_bits
    assert (mem.wear_matrix()[0] == 2).all()


def test_cell_survives_exactly_endurance_programs():
    cfg = PcmConfig(cell_endurance=3)
    b = PcmBlock()
    for i in range(3):
        program_cells(b, (i + 1) % 2, 0, cfg)  # toggle bit 0
    assert not b.failed
    program_cells(b, 0, 0, cfg)  # fourth program of cell 0
    assert b.failed


def test_program_past_endurance_fails_block_and_keeps_other_counts():
    cfg = PcmConfig(cell_endurance=3)
    mem = PcmMemory(1, cfg)
    b = mem.blocks[0]
    for data in (0b100011, 0b100000, 0b100011):  # cells 0 and 1 reach endurance
        program_cells(b, data, 0, cfg)
    assert not b.failed
    program_cells(b, 0b10100010, 0, cfg)  # fourth program of cell 0, first of 7
    assert b.failed
    expected = [0] * cfg.block_bits
    expected[0], expected[1], expected[5], expected[7] = 4, 3, 1, 1
    assert mem.wear_matrix()[0].tolist() == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5),
       st.lists(st.tuples(st.sampled_from(["cells", "all", "step"]),
                          st.integers(0, 2), st.integers(0, 255)),
                min_size=1, max_size=60))
def test_wear_bound_fails_block_exactly_when_max_passes_endurance(endurance, ops):
    # the lazy wear_bound check against a brute-force row maximum after every
    # differential program, full program and start-gap copy
    cfg = PcmConfig(block_bytes=1, partitions_per_block=1, rotation_max=0,
                    granule_bits=1, page_bytes=1,
                    cell_endurance=endurance)
    mem = PcmMemory(2, cfg, extra_blocks=1)
    lev = StartGapLeveler(2)
    for kind, i, bits in ops:
        block = mem.blocks[i]
        if kind == "step":
            lev.step(mem)
        elif block.failed:
            pass  # skipped, as both callers skip or refuse a failed block
        elif kind == "cells":
            program_cells(block, bits, 0, cfg)
        else:
            program_all_cells(block, bits, 0, cfg)
        for b, row in zip(mem.blocks, mem.wear_matrix()):
            assert b.failed == (int(row.max()) > endurance)
            assert b.wear_bound >= int(row.max())


def _wear_reference_run(nbytes, endurance, ops):
    """Replay ops on bit-sliced blocks and on plain int64 rows side by side."""
    cfg = PcmConfig(block_bytes=nbytes, partitions_per_block=1, rotation_max=0,
                    granule_bits=1, page_bytes=nbytes,
                    cell_endurance=endurance)
    nbits = cfg.block_bits
    mem = PcmMemory(2, cfg, extra_blocks=1)
    lev = StartGapLeveler(2)
    rows = np.zeros((3, nbits), dtype=np.int64)
    bits = [0, 0, 0]
    failed = [False, False, False]

    def ref_program(i, new_bits, every_cell=False):
        diff = -1 if every_cell else bits[i] ^ new_bits
        rows[i] += [(diff >> j) & 1 for j in range(nbits)]
        bits[i] = new_bits
        failed[i] = int(rows[i].max()) > endurance

    full = (1 << nbits) - 1
    for kind, i, data, repeat in ops:
        for r in range(repeat):
            new_bits = (data if r % 2 == 0 else ~data) & full  # alternate to wear
            if kind == "step":
                dest, src = lev.gap, (lev.gap - 1) % 3
                if not failed[dest]:
                    ref_program(dest, bits[src], every_cell=True)
                lev.step(mem)
            elif failed[i]:
                pass  # skipped, as both callers skip or refuse a failed block
            elif kind == "cells":
                program_cells(mem.blocks[i], new_bits, 0, cfg)
                ref_program(i, new_bits)
            else:
                program_all_cells(mem.blocks[i], new_bits, 0, cfg)
                ref_program(i, new_bits, every_cell=True)
            assert (mem.wear_matrix() == rows).all()
            for b, row, f, stored in zip(mem.blocks, rows, failed, bits):
                assert b.failed == f
                assert b.bits == stored
                assert b.wear_bound >= int(row.max())
    return mem


OPS = st.lists(st.tuples(st.sampled_from(["cells", "all", "step"]), st.integers(0, 2),
                         st.integers(0, 2**64 - 1), st.integers(1, 12)),
               min_size=1, max_size=25)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.one_of(st.integers(1, 5), st.just(10**6)), OPS)
def test_wear_planes_match_int64_reference_rows(nbytes, endurance, ops):
    _wear_reference_run(nbytes, endurance, ops)


def test_wear_planes_carry_into_a_fifth_plane():
    ops = [("all", 0, 0, 12), ("cells", 0, 5, 12), ("all", 0, 1, 9)]
    mem = _wear_reference_run(2, 10**6, ops)
    # the first differential program of 5 over the all-ones image leaves
    # cells 0 and 2 alone and toggles the other 14; the next 11 alternate
    # between 5 and its complement and toggle all 16 cells
    assert mem.wear_matrix()[0].tolist() == [32, 33, 32] + [33] * 13
    assert len(mem.blocks[0].wear_planes) == 6


def test_energy_is_monotone_in_flip_counts():
    base = WriteOutcome(flips_set=3, flips_reset=2, meta_flips_set=1)
    e0 = base.energy_pj()
    for bump in ("flips_set", "flips_reset", "meta_flips_set", "meta_flips_reset"):
        out = WriteOutcome(flips_set=3, flips_reset=2, meta_flips_set=1)
        setattr(out, bump, getattr(out, bump) + 1)
        assert out.energy_pj() > e0


def test_config_invariants_rejected():
    with pytest.raises(ConfigError):
        PcmConfig(block_bytes=64, partitions_per_block=7)
    with pytest.raises(ConfigError):
        PcmConfig(rotation_max=64)  # not below the 64-bit partition width
    with pytest.raises(ConfigError):
        PcmConfig(partitions_per_block=128, rotation_max=4)  # 4-bit partitions
    with pytest.raises(ConfigError):
        PcmConfig(granule_bits=3)


# ---------------------------------------------------------------------------
# capacity

def _memory(num_blocks, page_blocks=2):
    cfg = PcmConfig(page_bytes=64 * page_blocks)
    return PcmMemory(num_blocks, cfg)


def test_capacity_full_and_empty():
    mem = _memory(8)
    assert mem.live_capacity() == 1.0
    for addr in range(8):
        mem.kill_page(addr)
    assert mem.live_capacity() == 0.0


def test_capacity_one_of_four_pages_dead():
    # direct count oracle: 8 blocks, 2 per page -> 4 pages
    mem = _memory(8)
    mem.kill_page(5)
    assert mem.live_capacity() == 0.75
    mem.kill_page(4)  # same page
    assert mem.live_capacity() == 0.75


# ---------------------------------------------------------------------------
# metadata cache

class ReferenceLru:
    """Independent LRU model used as the behavioral oracle."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []

    def touch(self, key):
        if key in self.order:
            self.order.remove(key)
            self.order.append(key)
            return True
        if self.capacity > 0:
            self.order.append(key)
            if len(self.order) > self.capacity:
                self.order.pop(0)
        return False


def test_default_capacity_is_341_blocks():
    cache = MetadataCache(2048, 48)
    assert cache.capacity_blocks == 341


@pytest.mark.parametrize("cache_bytes,line_bits,capacity", [
    (2048, 41, 341),  # 41 bits take 6 whole bytes, as 48 do
    (2048, 49, 292),  # 7 bytes
    (30, 1, 30),      # a 1-bit line takes a byte
    (5, 48, 0),       # less than one line
])
def test_capacity_counts_lines_padded_to_whole_bytes(cache_bytes, line_bits, capacity):
    assert MetadataCache(cache_bytes, line_bits).capacity_blocks == capacity


def touch_hits(cache, addr):
    """Touch `addr` and tell whether it hit, from the cache's counters: one
    access moves exactly one of them."""
    hits, misses = cache.hits, cache.misses
    cache.touch(addr)
    hit = cache.hits - hits
    assert hit + cache.misses - misses == 1
    return hit == 1


# 10**30 bytes hold more lines than sys.maxsize, the largest size lru_cache takes
@pytest.mark.parametrize("cache_bytes", [2048, 10 ** 30], ids=["default", "past-maxsize"])
def test_cold_miss_then_hit(cache_bytes):
    cache = MetadataCache(cache_bytes, 48)
    assert cache.capacity_blocks == cache_bytes // 6
    assert touch_hits(cache, 0) is False
    assert touch_hits(cache, 0) is True


def test_round_robin_one_past_capacity_always_misses():
    # 342 distinct round-robin addresses against capacity 341: the line an
    # access needs was always evicted one step earlier, so every access after
    # warmup is a miss (verified against the reference model as well).
    cache = MetadataCache(2048, 48)
    ref = ReferenceLru(341)
    for i in range(342):
        assert touch_hits(cache, i % 342) == ref.touch(i % 342)
    before = cache.misses
    for i in range(342 * 3):
        addr = i % 342
        got = touch_hits(cache, addr)
        assert got == ref.touch(addr)
        assert got is False
    assert cache.misses - before == 342 * 3


@pytest.mark.parametrize("capacity", [0, 1, 5, 341])
def test_lru_matches_reference_on_random_strings(capacity):
    rng = random.Random(99)
    cache = MetadataCache(6 * capacity, 48)  # 6-byte lines
    assert cache.capacity_blocks == capacity
    ref = ReferenceLru(capacity)
    for _ in range(5000):
        addr = rng.randrange(2 * capacity + 2)  # about half the addresses fit
        assert touch_hits(cache, addr) == ref.touch(addr)


def test_zero_budget_cache_always_misses():
    cache = MetadataCache(0, 48)
    assert cache.capacity_blocks == 0
    for _ in range(3):
        assert touch_hits(cache, 1) is False
