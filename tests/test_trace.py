import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmsim import (ConfigError, GenSpec, TraceEvent, TraceFormatError,
                    emit_trace, generate, parse_trace, preset_spec)
from pcmsim.metrics import mfv_coverage, top_k_coverage
from pcmsim.mfv import pack_granules
from pcmsim.trace import (SAMPLE_CHUNK_GRANULES, _sample_addresses, _sample_values,
                          value_probabilities)


def test_parse_write_of_zeros():
    line = "W 0000 " + "00" * 64
    events = parse_trace([line])
    assert events == [TraceEvent("W", 0, bytes(64))]


def test_parse_read():
    assert parse_trace(["R 002a"]) == [TraceEvent("R", 0x2A)]


def test_comments_and_blanks_ignored():
    text = "# header\n\nR 1  # trailing comment\n"
    assert parse_trace(io.StringIO(text)) == [TraceEvent("R", 1)]


def test_short_payload_rejected_with_expected_length():
    with pytest.raises(TraceFormatError, match="line 1.*expected 64"):
        parse_trace(["W 0 abcd"])


def test_malformed_line_reports_line_number():
    good = "R 1"
    with pytest.raises(TraceFormatError, match="line 2"):
        parse_trace([good, "X 12 34"])
    with pytest.raises(TraceFormatError, match="line 1"):
        parse_trace(["R zz"])


def test_emit_parse_round_trip():
    spec = preset_spec("balanced", events=300, seed=5)
    events = generate(spec, num_blocks=32)
    buf = io.StringIO()
    emit_trace(events, buf)
    assert parse_trace(io.StringIO(buf.getvalue())) == events


def test_same_seed_is_byte_identical():
    spec = preset_spec("write-heavy", events=500, seed=77)
    a, b = io.StringIO(), io.StringIO()
    emit_trace(generate(spec, num_blocks=64), a)
    emit_trace(generate(spec, num_blocks=64), b)
    assert a.getvalue() == b.getvalue()


def test_read_fraction_within_binomial_bound():
    spec = GenSpec(events=30_000, read_fraction=2 / 3, seed=9)
    events = generate(spec, num_blocks=128)
    reads = sum(1 for ev in events if ev.op == "R")
    assert 19_400 <= reads <= 20_600


def test_value_model_coverage_near_target():
    spec = GenSpec(events=2_000, read_fraction=0.0, values={0x0: 0.8}, seed=1)
    events = generate(spec, num_blocks=16)
    rows = mfv_coverage([ev.payload for ev in events], 4)
    assert abs(top_k_coverage(rows, 1) - 0.8) < 0.02


def test_preset_top5_coverage_is_at_least_80_percent():
    spec = preset_spec("balanced", events=5_000, seed=3)
    events = generate(spec, num_blocks=64)
    rows = mfv_coverage([ev.payload for ev in events if ev.op == "W"], 4)
    assert top_k_coverage(rows, 5) >= 0.8


def test_zipf_addresses_favor_low_blocks():
    spec = GenSpec(events=5_000, read_fraction=0.0, address_zipf_s=1.2, seed=13)
    events = generate(spec, num_blocks=64)
    first = sum(1 for ev in events if ev.addr == 0)
    last = sum(1 for ev in events if ev.addr == 63)
    assert first > last


def test_bad_specs_rejected():
    with pytest.raises(ConfigError):
        generate(GenSpec(events=10, address_zipf_s=0.0), num_blocks=4)
    with pytest.raises(ConfigError):
        generate(GenSpec(events=10, values={0: 0.9, 1: 0.2}), num_blocks=4)
    with pytest.raises(ConfigError):
        generate(GenSpec(events=0), num_blocks=4)
    with pytest.raises(ConfigError):
        generate(GenSpec(events=10, read_fraction=1.5), num_blocks=4)
    with pytest.raises(ConfigError):
        generate(GenSpec(events=10, values={16: 0.5}), num_blocks=4)


def test_generated_traces_parse_cleanly():
    spec = preset_spec("read-heavy", events=200, seed=2)
    events = generate(spec, num_blocks=8)
    buf = io.StringIO()
    emit_trace(events, buf)
    parsed = parse_trace(io.StringIO(buf.getvalue()), block_bytes=64)
    assert len(parsed) == 200


def test_malformed_lines_rejected():
    for line in ("R", "R 1 00", "W 1", "W zz " + "00" * 64, "W 1 " + "zz" * 64,
                 "W 1 " + "00" * 64 + " 00", "W -1 " + "00" * 64,
                 "W 10000000000000000 " + "00" * 64,
                 # `int(s, 16)` alone reads each of these addresses as 0x10
                 "W +10 " + "00" * 64, "W 1_0 " + "00" * 64, "W 0x10 " + "00" * 64):
        with pytest.raises(TraceFormatError, match="line 1: malformed"):
            parse_trace([line])


def test_trace_event_is_immutable():
    ev = TraceEvent("W", 3, bytes(64))
    with pytest.raises(AttributeError):
        ev.addr = 4
    with pytest.raises(AttributeError):
        ev.payload = None
    assert TraceEvent("R", 3).payload is None


@st.composite
def value_distributions(draw):
    """A probability vector over n values, with zero runs where choice skips."""
    n = draw(st.sampled_from([2, 4, 16, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    # small integer weights put cdf values on bucket edges, random ones inside buckets
    p = rng.integers(0, 4, n).astype(float) if draw(st.booleans()) else rng.random(n)
    zeros = draw(st.sampled_from(["none", "leading", "trailing", "all_but_one"]))
    k = draw(st.integers(0, n - 1))
    if zeros == "leading":
        p[:k] = 0
    elif zeros == "trailing":
        p[k + 1:] = 0
    elif zeros == "all_but_one":
        p[:] = 0
    p[k] = max(p[k], 1.0)
    return p / p.sum()


CHUNK = SAMPLE_CHUNK_GRANULES
SHAPES = st.one_of(st.tuples(st.just(0), st.integers(0, 8)),
                   st.tuples(st.integers(1, 4), st.just(0)),
                   st.tuples(st.integers(1, 1024), st.integers(1, 4)),
                   st.tuples(st.integers(1, 32), st.integers(1, 32)),
                   # several chunks of whole rows, mostly ending mid-chunk
                   st.tuples(st.integers(CHUNK // 512 + 1, 3 * CHUNK // 512), st.just(512)),
                   st.tuples(st.integers(1, 3), st.sampled_from([CHUNK - 1, CHUNK + 1])))


def sample_all(rng, p, rows, cols):
    """`_sample_values`'s blocks stacked into one (rows, cols) matrix."""
    blocks = list(_sample_values(rng, p, rows, cols))
    assert all(b.dtype == np.uint8 and b.shape[1] == cols for b in blocks)
    assert all(b.size <= max(CHUNK, cols) for b in blocks)
    return np.concatenate([np.empty((0, cols), np.uint8), *blocks])


@settings(max_examples=150, deadline=None)
@given(value_distributions(), SHAPES, st.integers(0, 2**32))
def test_sample_values_equals_choice_and_leaves_same_state(p, shape, seed):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = ref_rng.choice(p.size, size=shape, p=p).astype(np.uint8)
    got = sample_all(rng, p, *shape)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert rng.random() == ref_rng.random()


def test_sample_values_falls_back_inside_edge_buckets():
    # enough draws that many land in buckets holding a cdf value
    p = value_probabilities(preset_spec("balanced"), 8)
    shape = (400, 512)
    expected = np.random.default_rng(3).choice(256, size=shape, p=p).astype(np.uint8)
    assert np.array_equal(sample_all(np.random.default_rng(3), p, *shape), expected)


def test_value_probabilities_are_never_negative():
    # named values over 1 by less than the 1e-9 `validate` allows: the 14
    # unnamed values share nothing, not a negative remainder
    spec = GenSpec(events=20, values={0: 0.5, 1: 0.5 + 5e-10})
    p = value_probabilities(spec, 4)
    assert (p >= 0).all() and p[2:].sum() == 0
    assert all(set(ev.payload.hex()) <= {"0", "1"}
               for ev in generate(spec, num_blocks=4, block_bytes=8, granule_bits=4)
               if ev.op == "W")


def reference_generate(spec, num_blocks, block_bytes, granule_bits):
    """The per-event generator loop that `generate` replaced."""
    spec.validate(granule_bits)
    rng = np.random.default_rng(spec.seed)
    reads = rng.random(spec.events) < spec.read_fraction
    addrs = _sample_addresses(rng, spec, num_blocks, spec.events)
    n_writes = int((~reads).sum())
    gpb = block_bytes * 8 // granule_bits
    pv = value_probabilities(spec, granule_bits)
    granules = rng.choice(1 << granule_bits, size=(n_writes, gpb), p=pv).astype(np.uint8)
    events = []
    w = 0
    for i in range(spec.events):
        addr = int(addrs[i])
        if reads[i]:
            events.append(TraceEvent("R", addr))
        else:
            events.append(TraceEvent("W", addr, pack_granules(granules[w], granule_bits)))
            w += 1
    return events


@pytest.mark.parametrize("granule_bits", [1, 2, 4, 8])
@pytest.mark.parametrize("block_bytes", [1, 8, 64])
def test_generate_equals_per_event_reference(granule_bits, block_bytes):
    values = {} if granule_bits == 1 else {0: 0.5, 1: 0.25}
    for read_fraction in (0, 0.5, 1):
        for address_zipf_s in (None, 1.0):
            spec = GenSpec(events=300, read_fraction=read_fraction,
                           address_zipf_s=address_zipf_s, values=values,
                           seed=granule_bits * 100 + block_bytes)
            got = generate(spec, num_blocks=24, block_bytes=block_bytes,
                           granule_bits=granule_bits)
            want = reference_generate(spec, 24, block_bytes, granule_bits)
            assert got == want
            assert all(type(ev.addr) is int for ev in got)


@pytest.mark.parametrize("read_fraction", [0, 0.5])
def test_generate_equals_reference_across_sample_chunks(read_fraction):
    # at g1 a 64-byte write is 512 granules: 600 events span several draws
    spec = GenSpec(events=600, read_fraction=read_fraction, values={0: 0.5}, seed=11)
    got = generate(spec, num_blocks=24, block_bytes=64, granule_bits=1)
    assert sum(ev.op == "W" for ev in got) * 512 > CHUNK + 512
    assert got == reference_generate(spec, 24, 64, 1)
