import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmsim import (ConfigError, MfvFinder, build_codebook, pack_granules,
                    unpack_granules)
from pcmsim.mfv import FV_COUNTER_MAX

from helpers import FifoEntry, fifo


def hamming(a, b):
    return bin(a ^ b).count("1")


# ---------------------------------------------------------------------------
# FIFO / FV state machine

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
    f.observe(9)  # unseen, all counters >= threshold after the decrement
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
    f = MfvFinder(fifo_entries=2, sat_max=10, replace_threshold=1)
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
    assert f.add_reference(7)
    f.retire_reference(7)
    assert not f.is_frequent(7)          # pointer hit zero -> Gap line
    assert f.retire_misses == 0


def test_retire_decrements_pointer():
    f = MfvFinder(sat_max=2)
    f.observe(7)
    f.observe(7)
    for _ in range(5):
        f.add_reference(7)
    f.retire_reference(7)
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
                if f.sat_counter < self.replace_threshold:
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
              "replace_threshold": draw(st.integers(0, sat_max + 1)),
              "fv_entries": draw(st.integers(1, 2))}
    value = st.integers(0, 6)
    steps = draw(st.lists(st.one_of(st.tuples(st.just("observe"), value),
                                    st.tuples(st.sampled_from(["add", "retire"]), value)),
                          max_size=60))
    return params, steps


@settings(max_examples=400, deadline=None)
@given(fifo_runs())
def test_lazy_fifo_decay_matches_eager_reference(run):
    params, steps = run
    lazy, eager = MfvFinder(**params), EagerFinder(**params)
    for op, v in steps:
        for f in (lazy, eager):
            if op == "observe":
                f.observe(v)
            elif op == "add":
                f.add_reference(v)
            else:
                f.retire_reference(v)
        assert finder_state(lazy) == finder_state(eager)


def test_threshold_zero_never_replaces_an_entry():
    # a lazy `expiry < misses + threshold` would replace the entry at counter 0
    f = MfvFinder(fifo_entries=1, sat_max=2, replace_threshold=0)
    for v in (1, 2, 3):
        f.observe(v)
    assert [(e.value, e.sat_counter) for e in fifo(f)] == [(1, 0)]


def test_retire_unknown_value_is_diagnosed_noop():
    f = MfvFinder()
    before = list(f.fv)
    f.retire_reference(0xC)
    assert f.retire_misses == 1
    assert list(f.fv) == before


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
    entries = f.entries if isinstance(f, EagerFinder) else fifo(f)
    return ([(e.value, e.sat_counter) for e in entries],
            {v: (e.counter, e.pointer) for v, e in f.fv.items()},
            f.generation, f.retire_misses)


@st.composite
def finder_runs(draw):
    """Finder geometry, FV entries seeded near saturation, and a write sequence."""
    g = draw(st.sampled_from([1, 2, 4, 8]))
    params = {"fifo_entries": draw(st.integers(1, 3)),
              "sat_max": draw(st.integers(1, 4)),
              "replace_threshold": draw(st.integers(0, 1)),
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
    f = MfvFinder(**params)
    refs = {}
    for v, below_max, addr in seeded:
        f._install(v)
        f.fv[v].counter = FV_COUNTER_MAX - below_max
        f.add_reference(v)
        refs.setdefault(addr, []).append(v)
    for addr, vals in writes:
        if batched:
            f.observe_write(bytes(vals))
        else:
            for v in vals:
                f.observe(v)
        for v in refs.get(addr, ()):
            f.retire_reference(v)
        refs[addr] = [v for v in sorted(set(vals)) if f.add_reference(v)]
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


def test_observe_write_observes_only_values_not_resident():
    f = MfvFinder(fifo_entries=2, sat_max=2)
    observed = []
    observe = f.observe
    f.observe = lambda v: observed.append(v) or observe(v)

    assert f.observe_write(bytes([5, 5, 3])) == 1 << 5   # 5 promoted mid-write
    assert f.observe_write(bytes([5, 4, 5])) == 1 << 5   # 3 and 4 in the FIFO
    assert observed == [5, 5, 3, 4]


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


def retire_then_add(f, old, new):
    """Reference bookkeeping as a rewrite used to do it: retire every value of
    the old mask, then add every value of the new one."""
    for v in range(old.bit_length()):
        if old >> v & 1:
            f.retire_reference(v)
    return sum(1 << v for v in range(new.bit_length()) if new >> v & 1 and f.add_reference(v))


def replay_rereference(fv_entries, installs, holders, steps):
    """Drive `rereference` and `retire_then_add` side by side on equal finders;
    returns how often each case of the old loop occurred."""
    fast, slow = MfvFinder(fv_entries=fv_entries), MfvFinder(fv_entries=fv_entries)
    for f in (fast, slow):
        for v in installs:
            f._install(v)
    held = [fast.rereference(0, m) for m in holders]
    assert held == [retire_then_add(slow, 0, m) for m in holders]
    seen = dict.fromkeys(["eviction", "kept single holder", "untracked add",
                          "retire miss"], 0)
    for holder, new, stale, promote in steps:
        i = holder % len(holders)
        for f in (fast, slow):
            for v in promote:
                if not f.is_frequent(v):
                    f._install(v)
        old = held[i] if stale is None else stale
        generation, misses = slow.generation, slow.retire_misses
        pointers = {v: e.pointer for v, e in slow.fv.items()}
        seen["kept single holder"] += sum(pointers.get(v) == 1 for v in range(6)
                                          if (old & new) >> v & 1)
        seen["untracked add"] += sum(v not in pointers for v in range(6) if new >> v & 1)
        held[i] = fast.rereference(old, new)
        assert held[i] == retire_then_add(slow, old, new)
        assert finder_state(fast) == finder_state(slow)
        assert fast._shared == sum(1 << v for v, e in fast.fv.items()
                                   if e.pointer >= 2)
        seen["eviction"] += slow.generation - generation
        seen["retire miss"] += slow.retire_misses - misses
    return seen


mask6 = st.integers(0, 63)  # values 0-5


@settings(max_examples=400, deadline=None)
@given(fv_entries=st.integers(1, 4),
       installs=st.lists(st.integers(0, 5), max_size=4, unique=True),
       holders=st.lists(mask6, min_size=1, max_size=4),
       steps=st.lists(st.tuples(st.integers(0, 3), mask6, st.none() | mask6,
                                st.lists(st.integers(0, 5), max_size=2)),
                      min_size=1, max_size=12))
def test_rereference_equals_retire_then_add(fv_entries, installs, holders, steps):
    replay_rereference(fv_entries, installs[:fv_entries], holders, steps)


def test_rereference_example_covers_every_case():
    # values 0 and 1 tracked; two holders share 0, holder 1 alone holds 1
    seen = replay_rereference(2, [0, 1], [0b01, 0b11], [
        (0, 0b101, None, []),  # keep 0 (shared), add 2 while untracked
        (1, 0b11, None, []),   # keep 0 and the single-holder 1: 1 is freed, not re-added
        (0, 0b01, 0b10, []),   # stale mask: retire of the untracked 1 misses
        (1, 0b100, None, [2]),  # 2 promoted, then held
    ])
    assert all(seen.values()), seen


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
