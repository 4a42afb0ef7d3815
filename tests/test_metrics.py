import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pcmsim import (PcmConfig, SimulationError, Simulation, TraceEvent,
                    build_report, intrav, mfv_coverage, run_lifetime, top_k_coverage,
                    GenSpec, generate, preset_spec)
from pcmsim.metrics import REPORT_CHUNK

from helpers import intrav_oracle


def test_uniform_block_has_zero_variation():
    assert intrav([[2, 2, 2, 2]]) == 0.0


def test_hand_evaluated_single_block():
    # mean 1, sample std 2, grand mean 1 -> 2
    assert intrav([[4, 0, 0, 0]]) == pytest.approx(2.0, abs=1e-12)


def test_all_zero_matrix_defined_as_zero():
    assert intrav([[0, 0], [0, 0]]) == 0.0


def test_a_one_dimensional_row_is_no_wear_matrix():
    with pytest.raises(ValueError, match="wear matrix must be 2-D"):
        intrav([1, 2, 3])


def test_matches_direct_summation_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(1, 17)
        c = rng.integers(2, 513)
        m = rng.integers(0, 50, size=(n, c))
        if m.sum() == 0:
            m[0, 0] = 1
        assert intrav(m) == pytest.approx(intrav_oracle(m.tolist()), rel=1e-12)


def test_invariant_under_cell_and_block_permutation():
    rng = np.random.default_rng(5)
    m = rng.integers(0, 20, size=(6, 32))
    base = intrav(m)
    shuffled = m[:, rng.permutation(32)][rng.permutation(6), :]
    assert intrav(shuffled) == pytest.approx(base, rel=1e-12)


def test_invariant_under_scaling():
    rng = np.random.default_rng(7)
    m = rng.integers(0, 20, size=(4, 16)).astype(float)
    m[0, 0] = 1
    assert intrav(3.5 * m) == pytest.approx(intrav(m), rel=1e-12)


def test_row_blocks_equal_one_float_pass():
    # the formula on one float copy of the whole matrix, for matrices spanning
    # several row blocks, one of them with rows longer than a block
    rng = np.random.default_rng(13)
    for shape in [(600, 512), (3, REPORT_CHUNK + 1)]:
        m = rng.integers(0, 1000, size=shape)
        for w in (m, 0.37 * m):
            f = w.astype(float)
            assert intrav(w) == float(f.std(axis=1, ddof=1).sum() / (f.mean() * f.shape[0]))


def test_hot_cell_exceeds_uniform():
    hot = [[16, 0, 0, 0]]
    uniform = [[4, 4, 4, 4]]
    assert intrav(hot) > intrav(uniform)


# ---------------------------------------------------------------------------
# lifetime

def one_block_cfg(endurance):
    return PcmConfig(cell_endurance=endurance, page_bytes=64)


def test_lifetime_endurance_rule_boundary():
    sim = Simulation("plain", 1, one_block_cfg(1))
    events = [TraceEvent("W", 0, bytes(64))]
    run_lifetime(sim, events)
    assert sim.writes == 2             # second program exceeds endurance 1
    assert not sim.capped
    assert sim.memory.live_capacity() == 0.0
    assert build_report(sim, [], lifetime=True).lifetime_seconds == pytest.approx(2 * 250e-9)


def test_capacity_loss_on_the_last_allowed_write_is_not_capped():
    # the second write is both the last one max_writes allows and the one
    # that kills the only page: the run ended by wearing out, not by the cap
    sim = Simulation("plain", 1, one_block_cfg(1))
    run_lifetime(sim, [TraceEvent("W", 0, bytes(64))], max_writes=2)
    assert sim.writes == 2
    assert not sim.capped


def test_wear_free_trace_hits_the_cap():
    sim = Simulation("diffwrite", 1, one_block_cfg(5))
    events = [TraceEvent("W", 0, bytes(64))]  # identical data never wears
    run_lifetime(sim, events, max_writes=500)
    assert sim.capped
    assert sim.writes == 500


def test_trace_without_writes_is_rejected():
    sim = Simulation("plain", 1, one_block_cfg(5))
    with pytest.raises(SimulationError):
        run_lifetime(sim, [TraceEvent("R", 0)])


class OneShot:
    """An iterator that fails, rather than yielding nothing, once used up."""

    def __init__(self, items):
        self._items, self._ended = iter(items), False

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return next(self._items)
        except StopIteration:
            assert not self._ended, "iterated again after it was used up"
            self._ended = True
            raise


@pytest.mark.parametrize("scheme_id", ["diffwrite", "wire"])
def test_lifetime_of_an_iterator_equals_that_of_the_list(scheme_id):
    events = generate(preset_spec("balanced", events=200, seed=1), num_blocks=16)
    results = []
    for trace in (events, OneShot(events)):
        sim = Simulation(scheme_id, 16)
        run_lifetime(sim, trace, max_writes=1000)
        results.append((sim.writes, sim.dropped_writes, sim.capped, sim.totals))
    assert results[0] == results[1]
    assert results[0][:3] == (1000, 0, True)  # the cap ended both runs


def test_lifetime_proportional_to_endurance():
    events = [TraceEvent("W", 0, bytes(64))]
    lives = {}
    for endurance in (50, 100):
        sim = Simulation("plain", 1, one_block_cfg(endurance))
        run_lifetime(sim, events)
        lives[endurance] = sim.writes
    # the endurance rule pins lifetimes exactly at E+1 plain writes
    assert lives[50] == 51
    assert lives[100] == 101
    assert lives[100] >= 2 * lives[50] - 1


# ---------------------------------------------------------------------------
# coverage

def test_all_zero_payloads_cover_everything_with_one_value():
    rows = mfv_coverage([bytes(64)] * 3, 4)
    assert rows[0][0] == 0
    assert rows[0][2] == 1.0
    assert top_k_coverage(rows, 1) == 1.0
    assert top_k_coverage(rows, 5) == 1.0


def test_empty_trace_yields_empty_table():
    assert mfv_coverage([], 4) == []


def test_uniform_payloads_spread_evenly():
    rng = np.random.default_rng(11)
    payloads = [rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
                for _ in range(500)]
    rows = mfv_coverage(payloads, 4)
    total = 500 * 128
    p = 1 / 16
    sigma = math.sqrt(total * p * (1 - p))
    for _, count, _, _ in rows:
        assert abs(count - total * p) <= 3 * sigma


@pytest.mark.parametrize("g", [1, 2, 4, 8])
def test_coverage_matches_per_granule_count(g):
    # uneven payloads, some empty, holding about 2.5 counting batches of granules
    rng = np.random.default_rng(g)
    n = 5 * REPORT_CHUNK * g // 16
    data = np.where(rng.random(n) < 0.6, 0x17, rng.integers(0, 256, n)).astype(np.uint8)
    data = data.tobytes()
    cuts = np.sort(rng.integers(0, n, 300)).tolist()
    payloads = [data[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    counts = Counter((byte >> k) & ((1 << g) - 1) for byte in data for k in range(0, 8, g))
    total = sum(counts.values())
    order = sorted(range(1 << g), key=lambda v: (-counts[v], v))
    cums = np.cumsum([counts[v] for v in order])
    expect = [(v, counts[v], counts[v] / total, cum / total)
              for v, cum in zip(order, cums)]
    rows = mfv_coverage(iter(payloads), g)
    assert rows == expect
    assert all((type(v), type(c), type(f), type(cum)) == (int, int, np.float64, float)
               for v, c, f, cum in rows)


def test_generate_and_coverage_memory_does_not_grow_with_the_trace():
    # g1, about 2M granules: one float64 draw or intp cast of them is 16 MB
    spec = GenSpec(events=8000, values={0: 0.5}, seed=3)
    tracemalloc.start()
    try:
        events = generate(spec, num_blocks=64, granule_bits=1)
        result, generate_peak = tracemalloc.get_traced_memory()
        payloads = [ev.payload for ev in events if ev.op == "W"]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        mfv_coverage(payloads, 1)
        coverage_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(payloads) * 512 > 1_900_000
    assert generate_peak - result < 4 << 20
    assert coverage_peak - start < 4 << 20


def test_report_memory_stays_near_one_byte_per_cell():
    # 4,096 blocks of 512 cells: an int64 copy of the wear matrix alone is 16 MB,
    # the uint8 matrix 2 MB
    sim = Simulation("diffwrite", 4096)
    for addr in range(0, 4096, 3):
        sim.write(addr, bytes([addr % 251]) * 64)
    tracemalloc.start()
    try:
        rep = build_report(sim, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.intrav > 0
    assert peak < 8 << 20


def test_generator_ground_truth_eighty_percent_zeros():
    spec = GenSpec(events=400, read_fraction=0.0, values={0x0: 0.8}, seed=21)
    events = generate(spec, num_blocks=8)
    rows = mfv_coverage([ev.payload for ev in events], 4)
    assert rows[0][0] == 0
    assert abs(rows[0][2] - 0.8) < 0.02
