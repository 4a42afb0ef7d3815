import math
import random

import numpy as np
import pytest

from pcmsim import (PcmConfig, SimulationError, Simulation, TraceEvent,
                    intrav, mfv_coverage, run_lifetime, top_k_coverage,
                    GenSpec, generate)


def intrav_oracle(matrix):
    """Independent direct-summation evaluation of the wear-variation formula."""
    n = len(matrix)
    c = len(matrix[0])
    total = 0.0
    count = 0
    for row in matrix:
        for x in row:
            total += x
            count += 1
    bf_aver = total / count
    if bf_aver == 0:
        return 0.0
    acc = 0.0
    for row in matrix:
        mean = sum(row) / c
        var = sum((x - mean) ** 2 for x in row) / (c - 1)
        acc += math.sqrt(var)
    return acc / (bf_aver * n)


def test_uniform_block_has_zero_variation():
    assert intrav([[2, 2, 2, 2]]) == 0.0


def test_hand_evaluated_single_block():
    # mean 1, sample std 2, grand mean 1 -> 2
    assert intrav([[4, 0, 0, 0]]) == pytest.approx(2.0, abs=1e-12)


def test_all_zero_matrix_defined_as_zero():
    assert intrav([[0, 0], [0, 0]]) == 0.0


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
    result = run_lifetime(sim, events)
    assert result.writes == 2          # second program exceeds endurance 1
    assert not result.capped
    assert result.final_capacity == 0.0
    assert result.seconds == pytest.approx(2 * 250e-9)


def test_wear_free_trace_hits_the_cap():
    sim = Simulation("diffwrite", 1, one_block_cfg(5))
    events = [TraceEvent("W", 0, bytes(64))]  # identical data never wears
    result = run_lifetime(sim, events, max_writes=500)
    assert result.capped
    assert result.writes == 500


def test_trace_without_writes_is_rejected():
    sim = Simulation("plain", 1, one_block_cfg(5))
    with pytest.raises(SimulationError):
        run_lifetime(sim, [TraceEvent("R", 0)])


def test_lifetime_proportional_to_endurance():
    events = [TraceEvent("W", 0, bytes(64))]
    lives = {}
    for endurance in (50, 100):
        sim = Simulation("plain", 1, one_block_cfg(endurance))
        lives[endurance] = run_lifetime(sim, events).writes
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
    rng = random.Random(g)
    payloads = [bytes(rng.choice([0, 0, 0x17, rng.randrange(256)]) for _ in range(8))
                for _ in range(40)]
    counts = [0] * (1 << g)
    for p in payloads:
        for byte in p:
            for k in range(0, 8, g):
                counts[(byte >> k) & ((1 << g) - 1)] += 1
    total = sum(counts)
    order = sorted(range(1 << g), key=lambda v: (-counts[v], v))
    cums = np.cumsum([counts[v] for v in order])
    expect = [(v, counts[v], counts[v] / total, cum / total)
              for v, cum in zip(order, cums)]
    assert mfv_coverage(iter(payloads), g) == expect


def test_generator_ground_truth_eighty_percent_zeros():
    spec = GenSpec(events=400, read_fraction=0.0, values={0x0: 0.8}, seed=21)
    events = generate(spec, num_blocks=8)
    rows = mfv_coverage([ev.payload for ev in events], 4)
    assert rows[0][0] == 0
    assert abs(rows[0][2] - 0.8) < 0.02
