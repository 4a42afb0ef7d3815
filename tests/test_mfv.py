import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmsim import (ConfigError, MfvFinder, build_codebook, generate, mfv, pack_granules,
                    preset_spec, unpack_granules)
from pcmsim.mfv import FV_COUNTER_MAX, PENDING_FLUSH_BYTES, split_granules

from helpers import FifoEntry, PerGranuleFinder, fifo, hamming


# ---------------------------------------------------------------------------
# FIFO / FV state machine

@pytest.mark.parametrize("kw,message", [
    ({"fv_entries": 0}, "finder tables need at least one entry"),
    ({"sat_max": 0}, "the saturation threshold must be positive"),
])
def test_finder_rejects_an_empty_table_or_a_zero_threshold(kw, message):
    with pytest.raises(ConfigError, match=message):
        MfvFinder(**kw)


def test_cold_start_inserts_with_counter_one():
    f = MfvFinder()
    assert f.observe(0xA) is None
    assert len(fifo(f)) == 1
    assert fifo(f)[0].value == 0xA
    assert fifo(f)[0].sat_counter == 1


def test_promotion_on_reaching_saturation():
    f = MfvFinder(sat_max=3)
    assert f.observe(5) is None   # insert, counter 1
    assert f.observe(5) is None   # hit, counter 2
    assert f.observe(5) == 5      # hit, counter 3 == sat_max -> promoted
    assert f.is_frequent(5)
    assert all(e.value != 5 for e in fifo(f))


def test_full_fifo_high_counters_drops_newcomer():
    f = MfvFinder(fifo_entries=4, sat_max=10)
    for v in range(4):
        f.observe(v)
    for _ in range(3):
        for v in range(4):
            f.observe(v)
    counters = {e.value: e.sat_counter for e in fifo(f)}
    f.observe(9)  # unseen, all counters above 0 after the decrement
    assert all(e.value != 9 for e in fifo(f))
    for e in fifo(f):
        assert e.sat_counter == counters[e.value] - 1


def test_miss_decrements_floor_at_zero():
    f = MfvFinder(fifo_entries=2, sat_max=10)
    f.observe(1)
    for v in (2, 3, 4, 5):
        f.observe(v)
    assert all(e.sat_counter >= 0 for e in fifo(f))
    assert all(e.sat_counter <= 10 for e in fifo(f))


def test_below_threshold_entry_is_replaced():
    f = MfvFinder(fifo_entries=2, sat_max=10)
    f.observe(1)
    f.observe(2)           # both inserted, counters 1 and 1
    f.observe(3)           # miss: both decrement to 0; first slot replaced by 3
    assert [e.value for e in fifo(f)] == [3, 2]
    assert fifo(f)[0].sat_counter == 1


def test_fv_table_has_no_duplicate_used_values():
    rng = random.Random(3)
    f = MfvFinder(fifo_entries=4, sat_max=2, fv_entries=4)
    for _ in range(2000):
        f.observe(rng.randrange(8))
    ranked = f.ranked_values()
    assert len(ranked) == len(set(ranked))


def test_retire_boundary_makes_gap():
    f = MfvFinder(sat_max=2)
    f.observe(7)
    f.observe(7)
    assert f.is_frequent(7)
    f.rereference(0, 1 << 7)
    f.rereference(1 << 7, 0)
    assert not f.is_frequent(7)          # pointer hit zero -> Gap line
    assert f.generation == 2


def test_retire_decrements_pointer():
    f = MfvFinder(sat_max=2)
    f.observe(7)
    f.observe(7)
    for _ in range(5):  # five blocks hold 7
        f.rereference(0, 1 << 7)
    f.rereference(1 << 7, 0)
    assert f.is_frequent(7)
    assert list(f.fv) == [7]
    assert f.fv[7].pointer == 4


class EagerFinder(MfvFinder):
    """Reference FIFO filter: every miss decrements every saturation counter."""

    def __init__(self, **params):
        super().__init__(**params)
        self.entries = []

    def observe(self, value):
        entry = self.fv.get(value)
        if entry is not None:
            if entry.counter < FV_COUNTER_MAX:
                entry.counter += 1
            return None

        for i, f in enumerate(self.entries):
            if f.value == value:
                if f.sat_counter < self.sat_max:
                    f.sat_counter += 1
                if f.sat_counter >= self.sat_max and self._install(value):
                    del self.entries[i]
                    return value
                return None

        for f in self.entries:
            if f.sat_counter > 0:
                f.sat_counter -= 1
        if len(self.entries) < self.fifo_entries:
            self.entries.append(FifoEntry(value))
        else:
            for f in self.entries:
                if f.sat_counter == 0:
                    f.value = value
                    f.sat_counter = 1
                    break
        return None


@st.composite
def fifo_runs(draw):
    """Filter geometry and observations interleaved with reference changes;
    one or two FV entries, so the table is often full and installs fail."""
    sat_max = draw(st.integers(1, 4))
    params = {"fifo_entries": draw(st.integers(1, 4)), "sat_max": sat_max,
              "fv_entries": draw(st.integers(1, 2))}
    steps = draw(st.lists(st.tuples(st.sampled_from(["observe", "add", "retire"]),
                                    st.integers(0, 2), st.integers(0, 6)),
                          max_size=60))
    return params, steps


@settings(max_examples=400, deadline=None)
@given(fifo_runs())
def test_lazy_fifo_decay_matches_eager_reference(run):
    params, steps = run
    lazy, eager = MfvFinder(**params), EagerFinder(**params)
    masks = {lazy: [0] * 3, eager: [0] * 3}  # each holder's value mask
    for op, holder, v in steps:
        for f in (lazy, eager):
            if op == "observe":
                f.observe(v)
                continue
            old = masks[f][holder]
            if op == "retire":
                new = old & ~(1 << v)
            else:  # a mask holds only FV values
                new = old | 1 << v if f.is_frequent(v) else old
            f.rereference(old, new)
            masks[f][holder] = new
        assert finder_state(lazy) == finder_state(eager)


def test_mask_naming_a_value_without_an_entry_raises():
    f = MfvFinder()
    with pytest.raises(KeyError):
        f.rereference(1 << 0xC, 0)
    with pytest.raises(KeyError):
        f.rereference(0, 1 << 0xC)


def test_full_fv_table_refuses_an_install_and_keeps_its_generation():
    f = MfvFinder(sat_max=2, fv_entries=2)
    for v in (1, 1, 2, 2):
        f.observe(v)
    assert sorted(f.fv) == [1, 2] and f.generation == 2
    assert f.observe(3) is None and f.observe(3) is None  # saturated, no free entry
    assert sorted(f.fv) == [1, 2] and f.generation == 2
    assert [(e.value, e.sat_counter) for e in fifo(f)] == [(3, 2)]


def test_promotion_is_monotone_under_extra_occurrences():
    # injecting more copies of a value into a stream never prevents its promotion
    rng = random.Random(11)
    for trial in range(20):
        stream = [rng.randrange(6) for _ in range(400)]
        f = MfvFinder(fifo_entries=4, sat_max=4, fv_entries=8)
        for v in stream:
            f.observe(v)
        promoted = [v for v in range(6) if f.is_frequent(v)]
        if not promoted:
            continue
        target = promoted[0]
        boosted = list(stream)
        for _ in range(10):
            boosted.insert(rng.randrange(len(boosted)), target)
        f2 = MfvFinder(fifo_entries=4, sat_max=4, fv_entries=8)
        for v in boosted:
            f2.observe(v)
        assert f2.is_frequent(target)


def finder_state(f):
    if isinstance(f, EagerFinder):
        entries = f.entries
    else:
        f.flush()  # credit the pending granules before reading the counters
        entries = fifo(f)
    return ([(e.value, e.sat_counter) for e in entries],
            {v: (e.counter, e.pointer) for v, e in f.fv.items()},
            f.generation)


@st.composite
def finder_runs(draw):
    """Finder geometry, FV entries seeded near saturation, and a write sequence."""
    g = draw(st.sampled_from([1, 2, 4, 8]))
    params = {"fifo_entries": draw(st.integers(1, 3)),
              "sat_max": draw(st.integers(1, 4)),
              "fv_entries": draw(st.integers(1, 3))}
    # a few distinct values, so values repeat even at 8-bit granules
    alphabet = draw(st.lists(st.integers(0, (1 << g) - 1), min_size=1, max_size=5,
                             unique=True))
    value = st.sampled_from(alphabet)
    seeded = draw(st.lists(st.tuples(value, st.integers(0, 3), st.integers(0, 3)),
                           max_size=params["fv_entries"], unique_by=lambda t: t[0]))
    writes = draw(st.lists(st.tuples(st.integers(0, 3),
                                     st.lists(value, min_size=1, max_size=24)),
                           min_size=1, max_size=12))
    return params, seeded, writes


def replay_finder(params, seeded, writes, batched):
    """Drive a finder the way WireScheme.write does, block references included."""
    f = (MfvFinder if batched else PerGranuleFinder)(**params)
    refs = {}  # address -> value mask
    for v, below_max, addr in seeded:
        f._install(v)
        f.fv[v].counter = FV_COUNTER_MAX - below_max
        old = refs.get(addr, 0)
        refs[addr] = old | 1 << v
        f.rereference(old, refs[addr])
    for addr, vals in writes:
        resident = f.observe_write(bytes(vals))
        f.rereference(refs.get(addr, 0), resident)
        refs[addr] = resident
    return f


@settings(max_examples=400, deadline=None)
@given(finder_runs())
def test_observe_write_matches_per_granule_observe(run):
    params, seeded, writes = run
    assert (finder_state(replay_finder(params, seeded, writes, batched=True))
            == finder_state(replay_finder(params, seeded, writes, batched=False)))


def test_observe_write_credits_occurrences_after_midwrite_promotion():
    f = MfvFinder(fifo_entries=2, sat_max=2)
    f.observe_write(bytes([5, 5, 5, 5]))
    assert f.is_frequent(5)
    assert f.fv[5].counter == 2   # promoted by the second, bumped twice


def test_value_promoted_again_gets_no_credit_for_its_granules_before():
    fast, slow = MfvFinder(fifo_entries=2, sat_max=2), PerGranuleFinder(fifo_entries=2, sat_max=2)
    for f in (fast, slow):
        f.observe_write(bytes([5, 5]))      # promoted by the second granule
        f.rereference(0, 1 << 5)
        f.observe_write(bytes([5] * 10))    # resident: pending credit only
        f.rereference(1 << 5, 0)            # a Gap now; no flush in between
        f.observe_write(bytes([5, 5, 5]))   # promoted again by the second granule
    assert finder_state(fast) == finder_state(slow)
    assert fast.fv[5].counter == 1   # only the granule after the promotion counts


def test_size_triggered_flush_keeps_the_counters_exact():
    rng = random.Random(7)
    fast, slow = MfvFinder(fv_entries=4), PerGranuleFinder(fv_entries=4)
    for f in (fast, slow):
        for v in range(4):
            f._install(v)
        f.fv[0].counter = FV_COUNTER_MAX - 5_000   # saturates across flushes
    # full table: value 9 goes through the FIFO and never installs, so only
    # the buffer's size can make a flush
    writes = [bytes(rng.choice([0, 0, 1, 2, 3, 9]) for _ in range(64)) for _ in range(1_200)]
    assert sum(map(len, writes)) > 2 * PENDING_FLUSH_BYTES
    for data in writes:
        assert fast.observe_write(data) == slow.observe_write(data)
        assert len(fast._pending) <= PENDING_FLUSH_BYTES
    assert 0 < fast.fv[1].counter < slow.fv[1].counter   # flushed by size, then pending
    assert finder_state(fast) == finder_state(slow)
    assert fast.fv[0].counter == FV_COUNTER_MAX


@settings(max_examples=300, deadline=None)
@given(g=st.sampled_from([1, 2, 4]), data=st.data())
def test_observe_write_splits_like_split_granules(g, data):
    params = {"fifo_entries": data.draw(st.integers(1, 3)), "sat_max": data.draw(st.integers(1, 3)),
              "fv_entries": data.draw(st.integers(1, 4))}
    installs = data.draw(st.lists(st.integers(0, (1 << g) - 1), unique=True,
                                  max_size=params["fv_entries"]))
    # a few payload bytes, so granules repeat and often all are resident
    alphabet = data.draw(st.lists(st.integers(0, 255), min_size=1, max_size=4, unique=True))
    writes = data.draw(st.lists(st.lists(st.sampled_from(alphabet), min_size=1, max_size=12),
                                min_size=1, max_size=8))
    whole, split = MfvFinder(**params), MfvFinder(**params)
    for f in (whole, split):
        for v in installs:
            f._install(v)
    for payload in map(bytes, writes):
        assert whole.observe_write(payload, g) == split.observe_write(split_granules(payload, g))
    assert finder_state(whole) == finder_state(split)


@pytest.mark.parametrize("installs, ordered_splits", [((0, 1, 2, 3), 0), ((0, 1, 2), 1)])
def test_observe_write_splits_in_write_order_only_for_a_value_not_resident(
        monkeypatch, installs, ordered_splits):
    calls = []
    monkeypatch.setattr(mfv, "split_granules",
                        lambda data, g: calls.append(g) or split_granules(data, g))
    fast, slow = MfvFinder(fifo_entries=2, sat_max=2), PerGranuleFinder(fifo_entries=2, sat_max=2)
    for f in (fast, slow):
        for v in installs:
            f._install(v)
    payload = bytes([0b11_10_01_00, 0b00_11_11_11])   # 2-bit granules 0, 1, 2, 3, 3, 3, 3, 0
    assert fast.observe_write(payload, 2) == slow.observe_write(payload, 2) == 0b1111
    assert len(calls) == ordered_splits
    assert finder_state(fast) == finder_state(slow)


def test_observe_write_observes_fifo_hits_and_every_granule_after_a_promotion():
    """A FIFO miss is handled inline: `observe` sees the FIFO hits, and every
    granule after a promotion within the write, never a plain miss."""
    f, ref = MfvFinder(fifo_entries=2, sat_max=2), PerGranuleFinder(fifo_entries=2, sat_max=2)
    observed = []
    observe = f.observe
    f.observe = lambda v: observed.append(v) or observe(v)

    writes = [bytes([5, 5, 3, 7]),   # 5 missed, then hit and promoted; 3 and 7 after it
              bytes([5, 4, 7, 5])]   # 5 resident; 4 missed into slot 0, 7 hit
    for data in writes:
        assert f.observe_write(data) == ref.observe_write(data) == 1 << 5
    assert observed == [5, 3, 7, 7]
    assert finder_state(f) == finder_state(ref)
    assert f._misses == ref._misses == 4


# with 2 FV entries, saturated FIFO values are refused promotion (7 times)
@pytest.mark.parametrize("fv_entries", [16, 2])
def test_observe_write_matches_per_granule_observe_at_the_bench_geometry(fv_entries):
    """The default 16-entry FIFO at g8, full, with slot 0 taking nearly every
    miss: the read-heavy preset's writes, driven as `WireScheme.write` does."""
    events = generate(preset_spec("read-heavy", events=6000, seed=1), num_blocks=256,
                      granule_bits=8)
    fast, slow = MfvFinder(fv_entries=fv_entries), PerGranuleFinder(fv_entries=fv_entries)
    refs = {}  # address -> value mask
    for e in events:
        if e.op == "W":
            resident = fast.observe_write(e.payload)
            assert resident == slow.observe_write(e.payload)
            for f in (fast, slow):
                f.rereference(refs.get(e.addr, 0), resident)
            refs[e.addr] = resident
    assert finder_state(fast) == finder_state(slow)
    assert fast._misses == slow._misses
    assert len(fast._fifo_values) == fast.fifo_entries


@settings(max_examples=200, deadline=None)
@given(finder_runs())
def test_observe_write_returns_the_values_resident_at_its_end(run):
    params, seeded, writes = run
    f = MfvFinder(**params)
    for v, _, _ in seeded:
        f._install(v)
    for _, vals in writes:
        resident = f.observe_write(bytes(vals))
        assert resident == sum(1 << v for v in set(vals) if f.is_frequent(v))


mask6 = st.integers(0, 63)  # values 0-5


# holder 0 keeps 0 while it alone holds it, then holders 0 and 1 share 1 and
# drop it in turn
@example(fv_entries=3, installs=[0, 1], steps=[
    (0, 0b01, []), (0, 0b11, []), (1, 0b10, []), (0, 0b101, [2]), (1, 0, [])])
@settings(max_examples=400, deadline=None)
@given(fv_entries=st.integers(1, 4),
       installs=st.lists(st.integers(0, 5), max_size=4, unique=True),
       steps=st.lists(st.tuples(st.integers(0, 3), mask6,
                                st.lists(st.integers(0, 5), max_size=2)),
                      min_size=1, max_size=12))
def test_rereference_counts_the_holders_of_each_value(fv_entries, installs, steps):
    """A value's pointer is the number of holders whose mask has it, and its
    entry retires when the last of them drops it."""
    f = MfvFinder(fv_entries=fv_entries)
    for v in installs[:fv_entries]:
        f._install(v)
    masks = [0] * 4
    for holder, wanted, promote in steps:
        for v in promote:
            if not f.is_frequent(v):
                f._install(v)
        old, new = masks[holder], wanted & sum(1 << v for v in f.fv)  # FV values only
        entries, generation = set(f.fv), f.generation
        f.rereference(old, new)
        masks[holder] = new
        held = [sum(m >> v & 1 for m in masks) for v in range(6)]
        retired = {v for v in range(6) if (old & ~new) >> v & 1 and not held[v]}
        assert set(f.fv) == entries - retired
        assert f.generation == generation + len(retired)
        assert {v: e.pointer for v, e in f.fv.items()} == {v: held[v] for v in f.fv}


# ---------------------------------------------------------------------------
# codebook construction

def test_two_bit_example_assignment():
    cb = build_codebook([0b00, 0b11], 2)
    assert cb[0b00] == 0b00
    assert cb[0b11] == 0b01
    assert cb[0b01] == 0b10
    assert cb[0b10] == 0b11


def test_all_zero_and_all_one_codewords():
    cb = build_codebook([0b0000, 0b1111], 4)
    assert cb[0] == 0
    assert cb[0xF] == 1
    assert hamming(cb[0], cb[0xF]) == 1


def test_single_bit_space():
    cb = build_codebook([0, 1], 1)
    assert sorted(cb) == [0, 1]
    assert hamming(cb[0], cb[1]) == 1


def test_empty_ranking_yields_identity():
    cb = build_codebook([], 4)
    assert cb == tuple(range(16))


def test_rejects_bad_rankings():
    with pytest.raises(ConfigError):
        build_codebook([1, 1], 4)
    with pytest.raises(ConfigError):
        build_codebook([16], 4)


def test_granule_packing_rejects_an_unsupported_width():
    with pytest.raises(ConfigError, match="unsupported granule width"):
        split_granules(b"\x00", 3)
    with pytest.raises(ConfigError, match="unsupported granule width"):
        pack_granules(np.zeros(4, np.uint8), 3)


@pytest.mark.parametrize("g", [1, 2, 4, 8])
def test_bijection_and_rank_chain_random(g):
    rng = random.Random(g)
    n = 1 << g
    for _ in range(20):
        k = rng.randrange(n + 1)
        ranked = rng.sample(range(n), k)
        cb = build_codebook(ranked, g)
        assert sorted(cb) == list(range(n))  # bijection
        for a, b in zip(ranked, ranked[1:]):  # chain-wise distance 1
            assert hamming(cb[a], cb[b]) == 1


def codebook_rankings():
    """Every ranking at g <= 2, every ranking of at most three values at g = 3,
    and random rankings at g = 4 and 8."""
    for g in (1, 2):
        for k in range((1 << g) + 1):
            yield from ((g, r) for r in itertools.permutations(range(1 << g), k))
    for k in range(4):
        yield from ((3, r) for r in itertools.permutations(range(8), k))
    rng = random.Random(35)
    for g in (4, 8):
        for _ in range(200):
            yield g, rng.sample(range(1 << g), rng.randrange((1 << g) + 1))


def test_codebook_follows_the_assignment_rule():
    """Ranked values take the reflected-Gray chain's codewords in rank order;
    the unranked values, ascending, take the unused codewords, ascending."""
    for g, ranked in codebook_rankings():
        cb = build_codebook(ranked, g)
        chain = [i ^ (i >> 1) for i in range(len(ranked))]
        assert [cb[v] for v in ranked] == chain
        unranked = [v for v in range(1 << g) if v not in ranked]
        assert [cb[v] for v in unranked] == sorted(set(range(1 << g)) - set(chain))


def test_leftovers_assigned_in_ascending_order():
    # construction oracle by hand enumeration, g=3, ranked = [5, 2]
    cb = build_codebook([5, 2], 3)
    assert cb[5] == 0
    assert cb[2] == 1
    leftover_values = [0, 1, 3, 4, 6, 7]
    leftover_codewords = [2, 3, 4, 5, 6, 7]
    assert [cb[v] for v in leftover_values] == leftover_codewords


# ---------------------------------------------------------------------------
# granule packing

@pytest.mark.parametrize("g", [1, 2, 4, 8])
def test_pack_unpack_round_trip(g):
    rng = random.Random(g + 100)
    data = bytes(rng.randrange(256) for _ in range(64))
    values = unpack_granules(data, g)
    assert len(values) == 512 // g
    assert pack_granules(values, g) == data


def test_granule_order_is_low_nibble_first():
    values = unpack_granules(bytes([0xA3, 0x01]), 4)
    assert values.tolist() == [0x3, 0xA, 0x1, 0x0]


@pytest.mark.parametrize("g", [1, 2, 4, 8])
def test_unpack_matches_per_granule_shift(g):
    data = bytes(range(256))
    expect = [(b >> (i * g)) & ((1 << g) - 1) for b in data for i in range(8 // g)]
    assert unpack_granules(data, g).tolist() == expect
